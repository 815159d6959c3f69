"""Neural building blocks on top of the graph engine, and the model
lifecycle both model families share: the step loop, the descent step and
the checkpoint loader; and :func:`guard`, the one place a model pass (a
training step, the teacher's pass within it, a sample or a decode) runs
without numpy's overflow warnings and a numeric failure names its context.

A model's parameters are laid out from its config alone, as an ordered stream
of ``(name, shape, init rule)`` entries that draws nothing; :func:`fill` makes
a layout's :class:`ParameterSet` (values + Adam moments), each value given or
drawn by :func:`initial_value` from (seed, name). Graphs declare parameters as
weight leaves (:func:`graph.declare`) reading their values at every run, so no
run binds a weight; a weight's shape and finiteness are checked where written.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import graph as G
from .rng import Stream

CHECKPOINT_FORMAT = "escore-ckpt-v1"


class Parameter:
    """One weight, its registered shape and its Adam moments. Assigning a
    value checks it: another shape raises ValueError and a NaN or Inf
    :class:`graph.NonFiniteError`, each naming the parameter."""

    __slots__ = ("name", "shape", "_value", "m", "v", "__weakref__")   # graphs refer weakly

    def __init__(self, name: str, value: np.ndarray):
        self.name, self.shape = name, np.shape(value)
        self.value = value
        self.m = np.zeros(self.shape)
        self.v = np.zeros(self.shape)

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, value) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.shape:
            raise ValueError(f"parameter {self.name!r} has shape {value.shape}, "
                             f"expected {self.shape}")
        if not np.isfinite(value).all():
            raise G.NonFiniteError(f"parameter {self.name!r} is non-finite")
        self._value = value


class ParameterSet:
    """Ordered name -> Parameter map shared by graphs and the optimizer."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        p = Parameter(name, value)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def bindings(self) -> dict[str, np.ndarray]:
        return {name: p.value for name, p in self._params.items()}

    def subset(self, keep) -> "ParameterSet":
        """View over selected parameters (shared Parameter objects)."""
        sub = ParameterSet()
        for name, p in self._params.items():
            if keep(name):
                sub._params[name] = p
        return sub


ZEROS, ONES = ("const", 0.0), ("const", 1.0)


def initial_value(seed: int, name: str, shape: tuple[int, ...], rule) -> np.ndarray:
    """The value the init ``rule`` gives the parameter ``name``: ("const", c)
    fills with c and draws nothing; ("uniform", fan_in) is Kaiming-uniform,
    (2u - 1)·sqrt(6/fan_in), and ("normal", scale) scale times a standard
    normal, each drawn from the ``init/<name>`` stream of ``seed``."""
    kind, arg = rule
    if kind == "const":
        return np.full(shape, arg)
    stream = Stream.from_seed(seed, "init/" + name)
    if kind == "uniform":
        return (2.0 * stream.uniform(shape) - 1.0) * np.sqrt(6.0 / arg)
    return arg * stream.normal(shape)


def fill(layout, seed: int, given: dict[str, np.ndarray] | None = None) -> ParameterSet:
    """The parameters of ``layout`` in its order, each valued from ``given``
    when that names it and otherwise by :func:`initial_value`."""
    params, given = ParameterSet(), given or {}
    for name, shape, rule in layout:
        params.add(name, given[name] if name in given else initial_value(seed, name, shape, rule))
    return params


def linear_layout(name: str, fan_in: int, fan_out: int, zero: bool = False):
    """Weight (fan_in x fan_out) and bias; zero-init on request."""
    yield name + ".w", (fan_in, fan_out), ZEROS if zero else ("uniform", fan_in)
    yield name + ".b", (fan_out,), ZEROS


def build_linear(leaves: dict[str, G.Node], name: str, x: G.Node) -> G.Node:
    """x @ w + b with the bias broadcast over leading axes, one affine node."""
    return G.affine(x, leaves[name + ".w"], leaves[name + ".b"])


@dataclass(frozen=True)
class AdaLnResBlock:
    """Residual MLP block modulated by a condition vector.

    out = x + W2 @ silu(W1 @ (LN(x) * (1 + gamma(cond)) + beta(cond))),
    where (gamma, beta) is a linear projection of cond into 2*width values.
    W2 and the condition projection start at zero, so a fresh block is an
    exact identity map.
    """
    name: str
    width: int
    cond_dim: int

    def layout(self):
        yield from linear_layout(f"{self.name}.fc1", self.width, self.width)
        yield from linear_layout(f"{self.name}.fc2", self.width, self.width, zero=True)
        yield from linear_layout(f"{self.name}.cond", self.cond_dim, 2 * self.width, zero=True)

    def build(self, leaves: dict[str, G.Node], x: G.Node, cond: G.Node) -> G.Node:
        if x.shape[-1] != self.width or cond.shape[-1] != self.cond_dim:
            raise G.GraphError(f"{self.name}: got x {x.shape}, cond {cond.shape}")
        gb = build_linear(leaves, f"{self.name}.cond", cond)
        gamma = G.narrow(gb, -1, 0, self.width)
        beta = G.narrow(gb, -1, self.width, self.width)
        ln = G.layer_norm(x)
        mod = ln + ln * gamma + beta
        hidden = G.silu(build_linear(leaves, f"{self.name}.fc1", mod))
        return x + build_linear(leaves, f"{self.name}.fc2", hidden)


@dataclass(frozen=True)
class TransformerBlock:
    """Pre-norm bidirectional attention + MLP residual block.

    :meth:`build` is :meth:`finish` applied to :meth:`attend`. The output half
    works row by row, so a caller that reads some tokens only can run it on
    those rows alone."""
    name: str
    dim: int
    n_heads: int
    mlp_ratio: int = 4

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    def layout(self):
        for proj in ("wq", "wv", "wo"):
            yield from linear_layout(f"{self.name}.{proj}", self.dim, self.dim)
        # no key bias: a constant shift of every key cancels inside softmax
        yield f"{self.name}.wk.w", (self.dim, self.dim), ("uniform", self.dim)
        hidden = self.mlp_ratio * self.dim
        yield from linear_layout(f"{self.name}.mlp1", self.dim, hidden)
        yield from linear_layout(f"{self.name}.mlp2", hidden, self.dim)
        for ln in ("ln1", "ln2"):
            yield f"{self.name}.{ln}.g", (self.dim,), ONES
            yield f"{self.name}.{ln}.b", (self.dim,), ZEROS

    def _affine_ln(self, leaves, tag: str, x: G.Node) -> G.Node:
        ln = G.layer_norm(x)
        g = G.broadcast_to(leaves[f"{self.name}.{tag}.g"], ln.shape)
        b = G.broadcast_to(leaves[f"{self.name}.{tag}.b"], ln.shape)
        return ln * g + b

    def build(self, leaves: dict[str, G.Node], x: G.Node) -> G.Node:
        return self.finish(leaves, x, self.attend(leaves, x))

    def attend(self, leaves: dict[str, G.Node], x: G.Node) -> G.Node:
        """The attention half: LN1, the q/k/v projections, softmax and the mix
        of the values, (batch, seq, dim) -> (batch, seq, dim)."""
        if len(x.shape) != 3 or x.shape[-1] != self.dim:
            raise G.GraphError(f"{self.name}: expected (batch, seq, {self.dim}), "
                               f"got {x.shape}")
        bsz, seq, _ = x.shape
        h, dh = self.n_heads, self.head_dim

        def split_heads(n: G.Node) -> G.Node:
            return G.transpose(G.reshape(n, (bsz, seq, h, dh)), (0, 2, 1, 3))

        a = self._affine_ln(leaves, "ln1", x)
        q = split_heads(build_linear(leaves, f"{self.name}.wq", a))
        k = split_heads(G.matmul(a, leaves[f"{self.name}.wk.w"]))
        v = split_heads(build_linear(leaves, f"{self.name}.wv", a))
        scores = G.scale(G.matmul(q, G.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        attn = G.softmax(scores)
        return G.reshape(G.transpose(G.matmul(attn, v), (0, 2, 1, 3)), (bsz, seq, self.dim))

    def finish(self, leaves: dict[str, G.Node], x: G.Node, mixed: G.Node) -> G.Node:
        """The output half, row by row on any leading shape: the residual
        ``x + wo(mixed)``, then LN2 and the MLP with their residual."""
        x = x + build_linear(leaves, f"{self.name}.wo", mixed)
        m = self._affine_ln(leaves, "ln2", x)
        mlp = build_linear(leaves, f"{self.name}.mlp2",
                           G.silu(build_linear(leaves, f"{self.name}.mlp1", m)))
        return x + mlp


def adam_step(params: ParameterSet, grads: dict[str, np.ndarray], lr: float, *,
              weight_decay: float, beta1: float = 0.9, beta2: float = 0.95,
              eps: float = 1e-8, t: int = 1) -> None:
    """Bias-corrected Adam with decoupled weight decay, in place.

    Raises :class:`graph.NonFiniteError` naming the first parameter whose
    gradient is non-finite (leaving every parameter untouched) or whose update
    overflowed.
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    for name in params.names():
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise G.NonFiniteError(f"gradient of {name!r} is non-finite")
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.value)
        # in-place moment updates; this is the training hot loop
        p.m *= beta1
        p.m += (1.0 - beta1) * g
        p.v *= beta2
        p.v += (1.0 - beta2) * (g * g)
        denom = np.sqrt(p.v / c2)
        denom += eps
        value = p.value
        if weight_decay:
            value *= 1.0 - lr * weight_decay
        value -= (lr / c1) * (p.m / denom)
        p.value = value   # the shape and finiteness checks


@contextmanager
def guard(context: str):
    """Runs the block without numpy's overflow warnings; a numeric failure in
    it (a FloatingPointError, :class:`graph.NonFiniteError` among them) is
    raised again as its own type with `` (context)`` after its message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except FloatingPointError as exc:
        raise type(exc)(f"{exc} ({context})") from None


def descend(graph: G.Graph, bindings: dict[str, np.ndarray], params: ParameterSet, *,
            lr: float, weight_decay: float, t: int) -> G.Evaluation:
    """Forward and backward pass of ``graph``'s scalar loss, then an Adam step
    on ``params``; returns the forward run."""
    run = G.evaluate(graph, bindings)
    adam_step(params, G.backward(run), lr=lr, weight_decay=weight_decay, t=t)
    return run


def train_loop(seed: int, family: str, kind: str, pool_size: int, *, steps: int, batch: int,
               lr: float, warmup: int, step, lam: float = 0.0) -> list[dict]:
    """One loss-log row per step ``t`` in 1..steps of ``(energy, distill) =
    step(idx, rng, lr_t, t)``, run under :func:`guard` ``training <kind> at
    step <t>``: ``rng`` is the ``family/kind`` -> ``step/{t}`` stream of
    ``seed``, ``idx`` the ``batch`` pool indices its ``batch`` child draws
    (for every step in one call), and ``lr_t`` warms up linearly to ``lr``
    over ``warmup`` steps. A row's total is ``energy + lam * distill``."""
    step_rngs = Stream.from_seed(seed, f"{family}/{kind}").child(
        [f"step/{t}" for t in range(1, steps + 1)])
    batches = step_rngs.child("batch").integers(pool_size, (batch,))
    rows = []
    for t in range(1, steps + 1):
        lr_t = lr * min(1.0, t / max(warmup, 1))
        with guard(f"training {kind} at step {t}"):
            energy, distill = step(batches[t - 1], Stream(step_rngs.key[t - 1]), lr_t, t)
        rows.append({"step": t, "energy": energy, "distill": distill,
                     "total": energy + lam * distill, "lambda": lam, "lr": lr_t, "seed": seed})
    return rows


def save_checkpoint(path, params: ParameterSet, *, config_digest: str = "",
                    seed: int = 0, step: int = 0, extra: dict | None = None) -> None:
    """JSON manifest line + little-endian float64 payload in manifest order."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config_digest": config_digest,
        "seed": int(seed),
        "step": int(step),
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params.items()],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, p in params.items():
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(manifest, parameter values). Raises ValueError naming ``path`` when
    the manifest, one of its ``params`` entries or the payload is malformed;
    it never reads more than the file holds."""
    with open(path, "rb") as fh:
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:   # not UTF-8, or not JSON
            raise ValueError(f"{path}: checkpoint header is not a JSON manifest: {exc}") from None
        if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not an escore checkpoint: {path}")
        if not isinstance(manifest.get("params"), list):
            raise ValueError(f"{path}: checkpoint manifest has no 'params' list")
        if not isinstance(manifest.get("seed"), int):
            raise ValueError(f"{path}: checkpoint manifest has no integer 'seed'")
        values = {}
        left = os.fstat(fh.fileno()).st_size - fh.tell()   # payload bytes
        for i, entry in enumerate(manifest["params"]):
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and entry["name"] not in values and isinstance(entry.get("shape"), list)
                    and all(type(s) is int and s >= 0 for s in entry["shape"])):
                raise ValueError(f"{path}: params entry {i} is not a new name with a "
                                 f"list of sizes: {entry!r}")
            shape = tuple(entry["shape"])
            size = 8 * math.prod(shape)
            buf = fh.read(size) if size <= left else b""
            if len(buf) != size:
                raise ValueError(f"{path}: truncated payload for {entry['name']!r}")
            left -= size
            values[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last parameter")
    return manifest, values


_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", list: "a list"}


def has_type_of(value, default) -> bool:
    """Whether ``value`` may stand where ``default`` does: the same type, an
    int for a float too, never a bool for a number, and for a list the type of
    its first item in every item."""
    if isinstance(default, list):
        return isinstance(value, list) and all(has_type_of(v, default[0]) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _below(value, default, low: int) -> bool:
    """Whether an integer ``value`` (or an item of an integer list) is below
    ``low``; the value has the type of its default."""
    if isinstance(default, list):
        return any(_below(v, default[0], low) for v in value)
    return type(default) is int and value < low


def check_table(table, defaults: dict, name: str = "", *, lows: dict | None = None,
                skip: tuple[str, ...] = ()) -> None:
    """Checks the settings table ``table``, whose dotted key is ``name``,
    against ``defaults``: every table has exactly its default's keys, every
    other value has its default's type (see :func:`has_type_of`), and an
    integer is a count, >= 1, unless ``lows`` gives its dotted key another
    least value (None for any integer). The keys of ``skip`` are left to the
    caller. Raises ValueError naming the first offending dotted key."""
    if not isinstance(table, dict):
        raise ValueError(f"config key {name!r} expects a table with the keys "
                         f"{sorted(defaults)}, got {table!r}")
    prefix = name + "." if name else ""
    unknown = [key for key in table if key not in defaults]
    if unknown:
        raise ValueError(f"unknown config key {prefix + unknown[0]!r}")
    for key, default in defaults.items():
        dotted = prefix + key
        if key not in table:
            raise ValueError(f"config key {dotted!r} is missing")
        value = table[key]
        if isinstance(default, dict):
            check_table(value, default, dotted, lows=lows, skip=skip)
        elif dotted in skip:
            continue
        elif not has_type_of(value, default):
            raise ValueError(f"config key {dotted!r} must be {_KINDS[type(default)]} "
                             f"like its default {default!r}, got {value!r}")
        else:
            low = (lows or {}).get(dotted, 1)
            if low is not None and _below(value, default, low):
                what = "integers" if isinstance(value, list) else "an integer"
                raise ValueError(f"config key {dotted!r} must be {what} >= {low}, "
                                 f"got {value!r}")


def config_from_manifest(cls, manifest: dict, key: str, source):
    """The config dataclass ``cls`` saved as ``manifest["extra"][key]``, a
    table that passes :func:`check_table` against the field defaults of
    ``cls`` and then the dataclass's own rules; raises ValueError naming
    ``source`` and the first offending field as the config key ``key.field``."""
    extra = manifest.get("extra")
    saved = extra.get(key) if isinstance(extra, dict) else None
    try:
        check_table(saved, {f.name: f.default for f in fields(cls)}, key)
        return cls(**saved)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_model(cls, config_cls, key: str, path):
    """``cls(config, seed=..., values=...)`` with the weights of the checkpoint
    at ``path``, its config the ``config_cls`` saved as ``extra[key]``. The
    layout ``cls.layout(config)`` is walked beside the file's values before any
    parameter exists, up to the first name missing or of another shape. Each
    failure names ``path``: a bad entry is a ValueError, a non-finite value a
    NonFiniteError, a model too large to build a ValueError or MemoryError."""
    manifest, values = load_checkpoint(path)
    config = config_from_manifest(config_cls, manifest, key, path)
    walked = set()
    for name, shape, _ in cls.layout(config):
        if name not in values:
            raise ValueError(f"{path}: checkpoint has no value for parameter {name!r}")
        if values[name].shape != shape:
            raise ValueError(f"{path}: parameter {name!r} has shape {values[name].shape}, "
                             f"expected {shape}")
        walked.add(name)
    unknown = [name for name in values if name not in walked]
    if unknown:
        raise ValueError(f"{path}: checkpoint has unknown parameter {unknown[0]!r}"
                         f" ({len(unknown)} unknown)")
    try:
        return cls(config, seed=manifest["seed"], values=values)
    except G.NonFiniteError as exc:
        raise G.NonFiniteError(f"{path}: {exc}") from None
    except (ValueError, MemoryError) as exc:
        kind = MemoryError if isinstance(exc, MemoryError) else ValueError
        raise kind(f"{path}: cannot build the model of its {key}: {exc}") from None
