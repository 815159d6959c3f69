"""The benchmark's workloads: set-up, one timed cycle of escore verbs, checks.

Each workload is a closed loop with one client in one process.  It calls the
escore CLI in process (``escore.cli.main(argv)``), one verb after another,
and passes the workload seed through ``--seed``.  Every nonzero exit counts
as a failed operation, and so does every failed correctness check.

A run sets the workload up, then repeats its cycle until the measuring time
is over, and reports rates built from medians over calls (see ``rate``).
Every cycle writes into a fresh directory that is removed once its outputs
have been checked.
"""
from __future__ import annotations

import csv
import filecmp
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from escore import cli, data, experiments
from escore.config import resolve_config
from escore.heads import HEAD_KINDS
from escore.mar import MarModel
from escore.swiss import ToyHeadModel

DECODE_CLASSES = (0, 1, 2)
DECODE_ITERATIONS = 8
DECODE_CFG = 4.0
# near set (energy) and far set (one-step diffusion) for the Wasserstein solve
SWISS_HEADS = ("energy", "diffusion")
REFERENCE_SEED_OFFSET = 10_000
INSTANCE_STRIDE = 1_000_003    # swiss-eval: seed offset of each further cycle
# Set-up models are trained with one fixed seed, so that every workload seed
# measures the same model; the workload seed drives what the timed verbs do.
SETUP_SEED = 1


@dataclass(frozen=True)
class Sizes:
    """Step budgets and point counts; model sizes stay at the defaults."""
    toy_steps: int            # train: train.steps of each train-head call
    mar_steps: int            # train: mar_train.steps of each train-mar call
    setup_mar_steps: int      # mar-decode set-up: teacher and student steps
    decode_n: int             # mar-decode: sequences per class
    decode_head_steps: int    # mar-decode: diffusion head steps
    curve_head_steps: tuple   # traced mar-decode: extra diffusion head steps
    setup_toy_steps: int      # swiss-eval set-up: steps per head
    swiss_n: int              # swiss-eval: sampled and reference points


FULL = Sizes(toy_steps=20, mar_steps=8, setup_mar_steps=8, decode_n=40,
             decode_head_steps=100, curve_head_steps=(1, 4, 25),
             setup_toy_steps=40, swiss_n=2048)
TINY = Sizes(toy_steps=2, mar_steps=2, setup_mar_steps=2, decode_n=2,
             decode_head_steps=3, curve_head_steps=(1, 2),
             setup_toy_steps=2, swiss_n=64)


class Session:
    """Runs verbs and checks; counts attempted and failed operations."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None           # set while a traced cycle runs
        self.cpus = sorted(os.sched_getaffinity(0))
        self._calls: dict[tuple[str, str], int] = {}

    def next_cpu(self, group: str, key: str) -> int:
        """The CPU for the next call of a key: its calls take turns over the
        CPUs the run may use, so a busy neighbour on one CPU weighs the same
        in every run."""
        n = self._calls.get((group, key), 0)
        self._calls[(group, key)] = n + 1
        return self.cpus[n % len(self.cpus)]

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"perfbench: FAILED {what}\n{detail}", file=sys.stderr)

    def verb(self, argv: list, timed: bool = True, cpu: int | None = None
             ) -> tuple[bool, float]:
        """One escore invocation, pinned to ``cpu`` when one is given;
        returns (exited 0, wall seconds)."""
        argv = [str(a) for a in argv]
        os.sched_setaffinity(0, self.cpus if cpu is None else {cpu})
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.verb += 1
            tracer.active = timed
        out, err = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if code != 0:
            self._fail(f"escore {' '.join(argv)} (exit {code})", err.getvalue())
        return code == 0, wall

    def check(self, what: str, fn):
        """A correctness check, run untimed and untraced.

        Returns what ``fn`` returns; ``None`` when it raised or returned False,
        which counts as a failure.
        """
        self.attempted += 1
        try:
            result, detail = fn(), ""
        except Exception:
            result, detail = False, traceback.format_exc()
        if result is False:
            self._fail(f"check: {what}", detail)
            return None
        return result


@dataclass
class Cycle:
    ok: bool = True
    timed: list = field(default_factory=list)   # (group, key, cpu, work, wall s)
    quality: dict = field(default_factory=dict)
    decode_head_rows: int = 0

    def run(self, s: Session, group: str, key: str, argv: list, work: float) -> bool:
        """One timed verb; calls with the same key do the same work."""
        cpu = s.next_cpu(group, key)
        ok, wall = s.verb(argv, cpu=cpu)
        self.ok &= ok
        self.timed.append((group, key, cpu, work, wall))
        return ok

    def wall(self) -> float:
        return sum(t[4] for t in self.timed)


def rate(cycles: list[Cycle], group: str) -> float:
    """Work per second of a group of calls.

    A key's wall time is the mean over CPUs of the median of its calls on
    each CPU.  The median discards the bursts in which other tenants slow a
    call down; the mean over CPUs gives every run the same mix of the CPUs,
    whose speeds differ while a neighbour keeps one of them busy.  The
    group's rate is its work per key over the sum of the keys' wall times.
    """
    walls: dict[str, dict[int, list[float]]] = {}
    work: dict[str, float] = {}
    for c in cycles:
        for g, key, cpu, w, wall in c.timed:
            if g == group:
                walls.setdefault(key, {}).setdefault(cpu, []).append(wall)
                work[key] = w
    return sum(work.values()) / sum(
        float(np.mean([median(v) for v in by_cpu.values()])) for by_cpu in walls.values())


# ---------------------------------------------------------------------------
# shared checks

def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def head_losses(path: Path, steps: int) -> list[float]:
    """The head-loss column (the distillation term left out), after checking
    one finite row per step."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
        raise ValueError(f"{path}: expected steps 1..{steps}")
    for r in rows:
        if not _finite(r[k] for k in ("energy", "distill", "total", "lr")):
            raise ValueError(f"{path}: non-finite loss row {r}")
    return [float(r["energy"]) for r in rows]


def checkpoint_loads(path: Path, loader) -> bool:
    model = loader(path)
    return all(np.all(np.isfinite(p.value)) for _, p in model.params.items())


def metrics_row(path: Path) -> dict[str, float]:
    """The single row an eval call appended, with every metric finite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one metrics row, found {len(rows)}")
    row = {k: float(rows[0][k]) for k in ("mmd", "wsd", "energy_u", "energy_v",
                                           "bandwidth")}
    if not _finite(row.values()):
        raise ValueError(f"{path}: non-finite metric in {row}")
    return row


def points_ok(path: Path, n: int) -> bool:
    pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return pts.shape == (n, 2) and bool(np.all(np.isfinite(pts)))


def same_tree(a: Path, b: Path) -> bool:
    """Byte-identical files under two directories."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def warmup(steps: int) -> int:
    """Warm-up steps in the default ratio (200 of 1400, 100 of 700)."""
    return max(1, steps // 7)


# ---------------------------------------------------------------------------
# train: every kind of backward pass and Adam step

def train_setup(s: Session, root: Path) -> dict:
    return {}


def train_cycle(s: Session, state: dict, cdir: Path, k: int) -> Cycle:
    z, seed, cyc = s.sizes, s.seed, Cycle()
    head_argv = ["--set", f"train.steps={z.toy_steps}",
                 "--set", f"train.warmup={warmup(z.toy_steps)}"]
    runs = [(kind, cdir / f"head_{kind}", "head_train", z.toy_steps, ToyHeadModel.load,
             ["train-head", "--method", kind] + head_argv) for kind in HEAD_KINDS]
    teacher = cdir / "teacher" / "mar.ckpt"
    mar_argv = ["--set", f"mar_train.steps={z.mar_steps}",
                "--set", f"mar_train.warmup={warmup(z.mar_steps)}"]
    runs += [("teacher", teacher.parent, "mar_train", z.mar_steps, MarModel.load,
              ["train-mar", "--role", "teacher"] + mar_argv),
             ("student", cdir / "student", "mar_train", z.mar_steps, MarModel.load,
              ["train-mar", "--role", "student", "--teacher", teacher,
               "--set", "mar_train.lambda=0.03"] + mar_argv)]
    for name, out, group, steps, loader, argv in runs:
        if not cyc.run(s, group, name, argv + ["--seed", seed, "--out", out], steps):
            continue
        losses = s.check(f"{name}: one finite loss row per step",
                         lambda: head_losses(out / "loss.csv", steps))
        ckpt = "head.ckpt" if group == "head_train" else "mar.ckpt"
        s.check(f"{name}: checkpoint loads back",
                lambda: checkpoint_loads(out / ckpt, loader))
        if losses is None:
            cyc.ok = False
        else:
            cyc.quality[name] = float(np.mean(losses))
    return cyc


def train_summary(cycles: list[Cycle]) -> dict[str, float]:
    first = cycles[0].quality
    return {
        "head_train.steps_per_s": rate(cycles, "head_train"),
        "mar_train.steps_per_s": rate(cycles, "mar_train"),
        "head_train.mean_loss": float(np.mean([first[k] for k in HEAD_KINDS])),
        "mar_train.mean_loss": float(np.mean([first["teacher"], first["student"]])),
    }


# ---------------------------------------------------------------------------
# mar-decode: inference only, the paper's one-step claim

def decode_setup(s: Session, root: Path) -> dict:
    z = s.sizes
    teacher, student = root / "teacher", root / "student"
    budget = ["--seed", SETUP_SEED, "--set", f"mar_train.steps={z.setup_mar_steps}",
              "--set", f"mar_train.warmup={warmup(z.setup_mar_steps)}"]
    s.verb(["train-mar", "--role", "teacher", "--out", teacher] + budget)
    s.verb(["train-mar", "--role", "student", "--out", student] + budget)
    cfg = resolve_config()
    pools = experiments.heldout_pools(experiments.mar_config_from(cfg), z.decode_n,
                                      cfg["data"]["jitter"])
    for c in DECODE_CLASSES:
        data.write_points_csv(root / f"pool{c}.csv", pools[c])
    return {"ckpt": {"energy": student / "mar.ckpt", "diffusion": teacher / "mar.ckpt"},
            "pool": {c: root / f"pool{c}.csv" for c in DECODE_CLASSES},
            "seq_len": cfg["mar"]["seq_len"]}


def decode_and_score(s: Session, state: dict, cyc: Cycle, cdir: Path, head: str,
                     head_steps: int, group: str) -> None:
    """Decode every class with one head (timed), then score each decode
    against its held-out pool (untimed)."""
    z = s.sizes
    rows = []
    for c in DECODE_CLASSES:
        out = cdir / f"{group}_c{c}"
        argv = ["decode", "--ckpt", state["ckpt"][head], "--class", c,
                "--cfg", DECODE_CFG, "--iterations", DECODE_ITERATIONS,
                "--n", z.decode_n, "--seed", s.seed, "--out", out]
        if head != "energy":
            argv += ["--head-steps", head_steps]
        if not cyc.run(s, group, head, argv, z.decode_n):
            continue
        stats = s.check(f"{group} class {c}: decode_stats.json", lambda: json.loads(
            (out / "decode_stats.json").read_text()))
        if stats is not None:
            cyc.decode_head_rows += stats["head_rows"]
            s.check(f"{group} class {c}: head_rows = n * seq_len",
                    lambda: stats["head_rows"] == z.decode_n * state["seq_len"])
            s.check(f"{group} class {c}: backbone_forwards = 2 * iterations",
                    lambda: stats["backbone_forwards"] == 2 * DECODE_ITERATIONS)
        scored = cdir / f"{group}_c{c}.metrics.csv"
        ok, _ = s.verb(["eval", "--generated", out / "sequences.csv",
                        "--reference", state["pool"][c], "--out", scored,
                        "--method", head, "--seed", s.seed], timed=False)
        row = s.check(f"{group} class {c}: metrics finite",
                      lambda: metrics_row(scored)) if ok else None
        if row is not None:
            rows.append(row)
    if len(rows) == len(DECODE_CLASSES):
        for name in ("energy_v", "wsd"):
            cyc.quality[f"{group}.{name}"] = float(np.mean([r[name] for r in rows]))
    else:
        cyc.ok = False


def decode_cycle(s: Session, state: dict, cdir: Path, k: int) -> Cycle:
    cyc = Cycle()
    decode_and_score(s, state, cyc, cdir, "energy", 1, "decode.energy")
    decode_and_score(s, state, cyc, cdir, "diffusion", s.sizes.decode_head_steps,
                     "decode.diffusion")
    return cyc


def decode_summary(cycles: list[Cycle]) -> dict[str, float]:
    return {"decode.energy.seqs_per_s": rate(cycles, "decode.energy"),
            "decode.diffusion.seqs_per_s": rate(cycles, "decode.diffusion"),
            **cycles[0].quality}


def decode_curve(s: Session, state: dict, cycles: list[Cycle], cdir: Path) -> list[dict]:
    """Quality against wall time: diffusion at several head steps, energy at 1."""
    summary = decode_summary(cycles)

    def point(head, steps, group, summary):
        return {"head": head, "head_steps": steps,
                "seqs_per_s": summary[f"{group}.seqs_per_s"],
                "energy_v": summary[f"{group}.energy_v"], "wsd": summary[f"{group}.wsd"]}

    points = [point("energy", 1, "decode.energy", summary)]
    for steps in s.sizes.curve_head_steps:
        cyc, group = Cycle(), f"curve.diffusion.steps{steps}"
        decode_and_score(s, state, cyc, cdir, "diffusion", steps, group)
        if cyc.ok:
            points.append(point("diffusion", steps, group,
                                {f"{group}.seqs_per_s": rate([cyc], group), **cyc.quality}))
    points.append(point("diffusion", s.sizes.decode_head_steps, "decode.diffusion",
                        summary))
    return points


# ---------------------------------------------------------------------------
# swiss-eval: one-step sampling and the n=2048 two-sample metrics

def swiss_setup(s: Session, root: Path) -> dict:
    z = s.sizes
    for head in SWISS_HEADS:
        s.verb(["train-head", "--method", head, "--seed", SETUP_SEED, "--out", root / head,
                "--set", f"train.steps={z.setup_toy_steps}",
                "--set", f"train.warmup={warmup(z.setup_toy_steps)}"])
    return {"run": {h: root / h for h in SWISS_HEADS}, "wasserstein_checked": False,
            "noise_sigma": resolve_config()["data"]["noise_sigma"]}


def reference_wasserstein(generated: Path, reference: Path) -> float:
    """Independent recomputation of the order-1 assignment distance."""
    x = np.loadtxt(generated, delimiter=",", skiprows=1, ndmin=2)
    y = np.loadtxt(reference, delimiter=",", skiprows=1, ndmin=2)
    cost = cdist(x, y)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def swiss_cycle(s: Session, state: dict, cdir: Path, k: int) -> Cycle:
    # The assignment solve time depends on the geometry of the two sets, so
    # every cycle draws new samples against a new reference; cycle 0 uses
    # the workload seed itself.
    z, cyc = s.sizes, Cycle()
    seed = s.seed + k * INSTANCE_STRIDE
    cdir.mkdir(parents=True, exist_ok=True)
    reference = cdir / "reference.csv"
    data.write_points_csv(reference, data.swiss_roll(
        z.swiss_n, state["noise_sigma"], seed=REFERENCE_SEED_OFFSET + seed).points)
    for head in SWISS_HEADS:
        samples, scored = cdir / f"{head}.csv", cdir / f"{head}.metrics.csv"
        if not cyc.run(s, "sample", "sample",
                       ["sample", "--run", state["run"][head], "--n", z.swiss_n,
                        "--steps", 1, "--seed", seed, "--out", samples], z.swiss_n):
            continue
        s.check(f"sample {head}: {z.swiss_n} finite points",
                lambda: points_ok(samples, z.swiss_n))
        if not cyc.run(s, "eval", head,
                       ["eval", "--generated", samples, "--reference", reference,
                        "--out", scored, "--method", head, "--seed", seed], 1):
            continue
        row = s.check(f"eval {head}: metrics finite", lambda: metrics_row(scored))
        if row is None:
            cyc.ok = False
            continue
        for name in ("mmd", "wsd"):
            cyc.quality[f"eval.{head}.{name}"] = row[name]
        if not state["wasserstein_checked"]:
            state["wasserstein_checked"] = True
            s.check(f"eval {head}: Wasserstein matches an independent solve",
                    lambda: math.isclose(row["wsd"], reference_wasserstein(
                        samples, reference), rel_tol=1e-12))
    return cyc


def swiss_summary(cycles: list[Cycle]) -> dict[str, float]:
    return {"sample.points_per_s": rate(cycles, "sample"),
            "eval.calls_per_s": rate(cycles, "eval"),
            **cycles[0].quality}


@dataclass(frozen=True)
class Workload:
    setup: object
    cycle: object
    summary: object
    # the workload-level metrics behind the gated names, in the order of GATED
    gated: tuple
    repeats: bool            # every cycle runs the same inputs
    curve: object = None


GATED = ("primary_per_s", "secondary_per_s", "primary_quality", "secondary_quality")

WORKLOADS = {
    "train": Workload(train_setup, train_cycle, train_summary,
                      ("head_train.steps_per_s", "mar_train.steps_per_s",
                       "head_train.mean_loss", "mar_train.mean_loss"), repeats=True),
    "mar-decode": Workload(decode_setup, decode_cycle, decode_summary,
                           ("decode.energy.seqs_per_s", "decode.diffusion.seqs_per_s",
                            "decode.energy.wsd", "decode.diffusion.wsd"),
                           repeats=True, curve=decode_curve),
    "swiss-eval": Workload(swiss_setup, swiss_cycle, swiss_summary,
                           ("sample.points_per_s", "eval.calls_per_s",
                            "eval.energy.wsd", "eval.diffusion.wsd"), repeats=False),
}

# unit and direction of every workload-level metric
DETAIL_UNITS = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "head_train.steps_per_s": ("steps/s", "higher"),
    "mar_train.steps_per_s": ("steps/s", "higher"),
    "head_train.mean_loss": ("loss", "lower"),
    "mar_train.mean_loss": ("loss", "lower"),
    "decode.energy.seqs_per_s": ("seq/s", "higher"),
    "decode.diffusion.seqs_per_s": ("seq/s", "higher"),
    "decode.energy.energy_v": ("energy", "lower"),
    "decode.diffusion.energy_v": ("energy", "lower"),
    "decode.energy.wsd": ("distance", "lower"),
    "decode.diffusion.wsd": ("distance", "lower"),
    "sample.points_per_s": ("points/s", "higher"),
    "eval.calls_per_s": ("calls/s", "higher"),
    "eval.energy.mmd": ("mmd2", "lower"),
    "eval.diffusion.mmd": ("mmd2", "lower"),
    "eval.energy.wsd": ("distance", "lower"),
    "eval.diffusion.wsd": ("distance", "lower"),
}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
