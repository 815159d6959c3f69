"""Neural building blocks on top of the graph engine, and the model
lifecycle both model families share: the step loop, the descent step and
the checkpoint loader.

Parameters live in a :class:`ParameterSet` (values + Adam moments); a graph
declares them as named weight leaves (:func:`graph.declare`), each reading
its parameter's current value at every run, so one set of weights can drive
any number of differently-shaped graphs and no run binds a weight. A weight's
shape and finiteness are checked where it is written, not by every graph run
that reads it. Initialization is a pure function of (seed, parameter name).
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import graph as G
from .rng import Stream

CHECKPOINT_FORMAT = "escore-ckpt-v1"


class TrainingError(RuntimeError):
    """Non-finite loss or gradient in a training step; the message names the
    head kind and the step."""


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

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def bindings(self) -> dict[str, np.ndarray]:
        return {name: p.value for name, p in self._params.items()}

    def assign(self, values: dict[str, np.ndarray], source) -> None:
        """Sets every parameter from a loaded checkpoint, strictly: the names
        must match exactly, and each value passes its parameter's checks.
        Raises ValueError naming ``source`` and the offending parameter, or
        graph.NonFiniteError naming a parameter whose value is non-finite."""
        missing = [name for name in self._params if name not in values]
        if missing:
            raise ValueError(f"{source}: checkpoint has no value for parameter {missing[0]!r}"
                             f" ({len(missing)} missing)")
        unknown = [name for name in values if name not in self._params]
        if unknown:
            raise ValueError(f"{source}: checkpoint has unknown parameter {unknown[0]!r}"
                             f" ({len(unknown)} unknown)")
        for name, arr in values.items():
            try:
                self._params[name].value = arr
            except (ValueError, G.NonFiniteError) as exc:
                raise type(exc)(f"{source}: {exc}") from None

    def subset(self, keep) -> "ParameterSet":
        """View over selected parameters (shared Parameter objects)."""
        sub = ParameterSet()
        for name, p in self._params.items():
            if keep(name):
                sub._params[name] = p
        return sub


def kaiming_uniform(seed: int, name: str, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    u = Stream.from_seed(seed, "init/" + name).uniform(shape)
    return (2.0 * u - 1.0) * bound


def add_linear(params: ParameterSet, seed: int, name: str, fan_in: int, fan_out: int,
               zero: bool = False) -> None:
    """Registers weight (fan_in x fan_out) and bias; zero-init on request."""
    if zero:
        params.add(name + ".w", np.zeros((fan_in, fan_out)))
    else:
        params.add(name + ".w", kaiming_uniform(seed, name + ".w", (fan_in, fan_out), fan_in))
    params.add(name + ".b", np.zeros(fan_out))


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

    def register(self, params: ParameterSet, seed: int) -> None:
        add_linear(params, seed, f"{self.name}.fc1", self.width, self.width)
        add_linear(params, seed, f"{self.name}.fc2", self.width, self.width, zero=True)
        add_linear(params, seed, f"{self.name}.cond", self.cond_dim, 2 * self.width, zero=True)

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

    def __post_init__(self):
        if self.dim % self.n_heads != 0:
            raise ValueError(f"{self.name}: dim {self.dim} not divisible by "
                             f"{self.n_heads} heads")

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    def register(self, params: ParameterSet, seed: int) -> None:
        for proj in ("wq", "wv", "wo"):
            add_linear(params, seed, f"{self.name}.{proj}", self.dim, self.dim)
        # no key bias: a constant shift of every key cancels inside softmax
        params.add(f"{self.name}.wk.w",
                   kaiming_uniform(seed, f"{self.name}.wk.w", (self.dim, self.dim), self.dim))
        hidden = self.mlp_ratio * self.dim
        add_linear(params, seed, f"{self.name}.mlp1", self.dim, hidden)
        add_linear(params, seed, f"{self.name}.mlp2", hidden, self.dim)
        for ln in ("ln1", "ln2"):
            params.add(f"{self.name}.{ln}.g", np.ones(self.dim))
            params.add(f"{self.name}.{ln}.b", np.zeros(self.dim))

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
def step_guard(what: str, t: int):
    """Runs part of training step ``t`` without numpy's overflow warnings; a
    NaN or Inf in a graph run or a gradient raises :class:`TrainingError`
    naming ``what`` and the step."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except G.NonFiniteError as exc:
        raise TrainingError(f"{what}: non-finite loss or gradient at step {t}: {exc}") from exc


def descend(graph: G.Graph, bindings: dict[str, np.ndarray], params: ParameterSet,
            what: str, *, lr: float, weight_decay: float, t: int) -> G.Evaluation:
    """Forward and backward pass of ``graph``'s scalar loss, then an Adam step
    on ``params``, under :func:`step_guard` ``what`` ``t``; returns the
    forward run."""
    with step_guard(what, t):
        run = G.evaluate(graph, bindings)
        adam_step(params, G.backward(run), lr=lr, weight_decay=weight_decay, t=t)
    return run


def train_loop(seed: int, label: str, pool_size: int, *, steps: int, batch: int,
               lr: float, warmup: int, step) -> list:
    """``[step(idx, rng, lr_t, t) for t in 1..steps]``: ``rng`` is the
    ``label`` -> ``step/{t}`` stream of ``seed``, ``idx`` the ``batch`` pool
    indices its ``batch`` child draws (for every step in one call), and
    ``lr_t`` warms up linearly to ``lr`` over ``warmup`` steps."""
    step_rngs = Stream.from_seed(seed, label).child([f"step/{t}" for t in range(1, steps + 1)])
    batches = step_rngs.child("batch").integers(pool_size, (batch,))
    return [step(batches[t - 1], Stream(step_rngs.key[t - 1]),
                 lr * min(1.0, t / max(warmup, 1)), t) for t in range(1, steps + 1)]


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


_CONFIG_TYPES = {int: int, float: (int, float), str: str}   # field type -> saved JSON types


def config_from_manifest(cls, manifest: dict, key: str, source):
    """The config dataclass ``cls`` saved as ``manifest["extra"][key]``. It
    must give every field of ``cls`` and no other, each of its declared type
    (an int for a float too, never a bool); raises ValueError naming
    ``source`` and the first unknown, missing or mistyped field."""
    extra = manifest.get("extra")
    saved = extra.get(key) if isinstance(extra, dict) else None
    if not isinstance(saved, dict):
        raise ValueError(f"{source}: checkpoint manifest has no {key!r} object")
    names = [f.name for f in fields(cls)]
    unknown = [k for k in saved if k not in names]
    if unknown:
        raise ValueError(f"{source}: {key} has unknown field {unknown[0]!r}")
    missing = [k for k in names if k not in saved]
    if missing:
        raise ValueError(f"{source}: {key} is missing field {missing[0]!r}")
    for name, kind in get_type_hints(cls).items():
        value = saved[name]
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
            raise ValueError(f"{source}: {key} field {name!r} must be {kind.__name__}, "
                             f"got {value!r}")
    try:
        return cls(**saved)   # the dataclass's own rules
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_model(cls, config_cls, key: str, path):
    """``cls(config, seed=...)`` with the weights of the checkpoint at
    ``path``, its config the ``config_cls`` saved as ``extra[key]``."""
    manifest, values = load_checkpoint(path)
    model = cls(config_from_manifest(config_cls, manifest, key, path), seed=manifest["seed"])
    model.params.assign(values, path)
    return model
