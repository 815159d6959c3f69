"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of the escore modules from
outside the program; nothing under ``src/`` changes.  Each wrapped call
records one span: name, start, end, parent span and the id of the verb
invocation it ran under.  Spans stay in memory until the run ends.  Counts of
work (graph nodes, rows, bytes) are taken at the same boundaries by small
hooks.

Module-level functions are replaced in every escore module that binds them,
so a name bound with ``from ... import`` is traced too.  Methods are patched
on their classes.  A call site the tracer still misses shows up when the
traced counts are compared with the program's own counters
(``Head.forward_rows``, ``MarModel.backbone_forwards``).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from statistics import median

LAYERS = ("cli", "config", "experiments", "swiss", "mar", "heads", "nn",
          "graph", "metrics", "rng", "data")

# metric prefix -> span name; each gives <prefix>.calls and <prefix>.ms
SPAN_METRICS = {
    "cli.main": "cli.main",
    "config.resolve_config": "config.resolve_config",
    "graph.evaluate": "graph.evaluate",
    "graph.backward": "graph.backward",
    "graph.jvp": "graph.jvp",
    "nn.adam_step": "nn.adam_step",
    "nn.bindings": "nn.ParameterSet.bindings",
    "nn.save_checkpoint": "nn.save_checkpoint",
    "nn.load_checkpoint": "nn.load_checkpoint",
    "heads.loss_bindings": "heads.Head.loss_bindings",
    "heads.sample": "heads.Head.sample",
    "mar.mask_batch": "mar.MarModel.mask_batch",
    "mar.represent": "mar.MarModel.represent",
    "mar.decode": "mar.MarModel.decode",
    "metrics.wasserstein_assignment": "metrics.wasserstein_assignment",
    "metrics.mmd_gaussian": "metrics.mmd_gaussian",
    "metrics.energy_statistic": "metrics.energy_statistic",
    "rng.child": "rng.Stream.child",
    "rng.normal": "rng.Stream.normal",
    "rng.permutation": "rng.Stream.permutation",
    "rng.sample_without_replacement": "rng.Stream.sample_without_replacement",
    "data.write_points_csv": "data.write_points_csv",
    "data.read_points_csv": "data.read_points_csv",
}

# tagged spans whose per-call wall time is reported as a median (ms_p50)
P50_TAGS = {
    "swiss.train_step": ("swiss.ToyHeadModel.train_step",
                         ("energy", "diffusion", "flow", "shortcut", "meanflow")),
    "mar.masked_training_step": ("mar.MarModel.masked_training_step",
                                 ("teacher", "student")),
}

RUNNERS = ("run_train_head", "run_train_mar", "run_decode", "run_sample", "run_eval")

# classes whose instances are kept so their own counters can be read back
COUNTED_CLASSES = ("heads.Head", "mar.MarModel")

NAME, START, END, PARENT, VERB = range(5)


# ---------------------------------------------------------------------------
# count hooks: (tracer, span, args, kwargs, result) -> None

def _evaluate_nodes(tr, span, args, kwargs, result):
    tr.counts["graph.evaluate.nodes"] += result.output_node.nid + 1


def _forward_rows(tr, span, args, kwargs, result):
    tr.counts["heads.forward_rows"] += len(args[1])


def _decode_head_rows(tr, span, args, kwargs, result):
    parent = span[PARENT]
    if parent >= 0 and tr.spans[parent][NAME] == "mar.MarModel.decode":
        tr.counts["mar.decode.head_rows"] += len(args[1])


def _written_rows(tr, span, args, kwargs, result):
    tr.counts["data.write_points_csv.rows"] += len(args[1])


def _read_rows(tr, span, args, kwargs, result):
    tr.counts["data.read_points_csv.rows"] += len(result[0])


def _checkpoint_bytes(tr, span, args, kwargs, result):
    tr.counts["nn.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _tag_kind(tr, span, args, kwargs, result):
    span[NAME] += "[" + args[0].cfg.kind + "]"


def _tag_role(tr, span, args, kwargs, result):
    # the steps of a distilled student are the ones that run a teacher pass
    span[NAME] += "[student]" if kwargs.get("teacher") is not None else "[teacher]"


HOOKS = {
    "graph.evaluate": _evaluate_nodes,
    "heads.Head.forward_values": _forward_rows,
    "heads.Head.sample": _decode_head_rows,
    "heads.Head.energy_sample": _decode_head_rows,
    "data.write_points_csv": _written_rows,
    "data.read_points_csv": _read_rows,
    "nn.save_checkpoint": _checkpoint_bytes,
    "swiss.ToyHeadModel.train_step": _tag_kind,
    "mar.MarModel.masked_training_step": _tag_role,
}


class Tracer:
    """Patches escore while installed and records spans while active."""

    def __init__(self, package: str = "escore"):
        self.package = package
        self.spans: list[list] = []      # [name, start, end, parent, verb]
        self.counts: dict[str, int] = defaultdict(int)
        self.instances: dict[str, list] = defaultdict(list)
        self.verb = 0
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer, spans, stack, hook = self, self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.verb]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result
        return traced

    def _wrap_init(self, key: str, init):
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.active:
                tracer.instances[key].append(obj)
        return counted_init

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules[f"{self.package}.{layer}"] for layer in LAYERS}
        replaced = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._patch_class(f"{layer}.{attr}", obj)
        # rebind every module-level name, including names bound by from-imports
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])

    def _patch_class(self, qualname: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))
        if qualname in COUNTED_CLASSES:
            self._set(cls, "__init__", self._wrap_init(qualname, cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.active = False

    # -- summaries -------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of one traced cycle; zero for layers not reached."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        walls: dict[str, list[float]] = defaultdict(list)
        layer_ms: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_s):
            calls[span[NAME]] += 1
            self_ms[span[NAME]] += 1e3 * own
            walls[span[NAME]].append(1e3 * (span[END] - span[START]))
            layer_ms[span[NAME].split(".", 1)[0]] += 1e3 * own

        out: dict[str, float] = {}
        for prefix, name in SPAN_METRICS.items():
            out[f"{prefix}.calls"] = calls[name]
            out[f"{prefix}.ms"] = self_ms[name]
        for prefix, (name, tags) in P50_TAGS.items():
            for tag in tags:
                times = walls[f"{name}[{tag}]"]
                out[f"{prefix}.{tag}.ms_p50"] = median(times) if times else 0.0
        for layer in LAYERS:
            out[f"{layer}.total_ms"] = layer_ms[layer]
        runner_ms = self._runner_self_ms(self_s)
        for runner in RUNNERS:
            out[f"experiments.{runner}.ms"] = runner_ms[runner]
        for key in ("graph.evaluate.nodes", "heads.forward_rows", "mar.decode.head_rows",
                    "data.write_points_csv.rows", "data.read_points_csv.rows",
                    "nn.save_checkpoint.bytes"):
            out[key] = self.counts[key]
        return out

    def _runner_self_ms(self, self_s: list[float]) -> dict[str, float]:
        """Self time of the experiments layer under each runner: the runner's
        own code plus helpers such as fresh_dir and write_loss_csv."""
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if not span[NAME].startswith("experiments."):
                continue
            runner, j = None, i
            while j >= 0:
                name = self.spans[j][NAME]
                if name.startswith("experiments.run_"):
                    runner = name.split(".", 1)[1]
                j = self.spans[j][PARENT]
            if runner is not None:
                out[runner] += 1e3 * self_s[i]
        return out

    def instance_counter(self, key: str, attr: str) -> int:
        return sum(getattr(obj, attr) for obj in self.instances[key])
