"""Static differentiable computation graphs over float64 numpy arrays.

A :class:`Graph` is built once (shapes fixed at construction), then
evaluated any number of times with fresh leaf bindings. Loss and training
graphs are declared from the bindings of the first call that runs them:
:func:`declare` makes one leaf per binding, named by its key and shaped like
its value, so a graph's inputs are listed only where their values are
computed. Forward values are cached in a per-call :class:`Evaluation`, which
keeps graphs freely shareable across threads/processes; reverse-mode
gradients consume that cache, and :func:`jvp` carries tangents beside the
values in a sweep of its own.

Node kinds are the sources ``leaf`` (named binding) and ``const``, which
:func:`evaluate` binds, and the 17 keys of ``_RULES``: one entry per computed
kind with its forward, reverse and forward-mode rules and two flags,
``reads_inputs`` and ``reads_output``. The seven kinds with a tangent rule
are ``affine``, ``matmul``, ``mul``, ``silu``, ``layer_norm``, ``softmax``
and ``row_norm``. The ten linear kinds (``add``, ``sub``, ``scale``,
``mean``, ``sum``, ``concat``, ``narrow``, ``broadcast``, ``reshape``,
``transpose``) have none of their own: their jvp is their forward applied to
the input tangents. ``affine`` (``x @ w + b`` with the bias broadcast over
the leading axes) is the fused form of matmul + broadcast + add,
bit-identical to it.

The graph chooses how :func:`evaluate` runs, once per (graph, output), and
caches the choice with its release table. A run with a grad leaf at or before
its output is retained: each value is dropped after its last forward reader
unless :func:`backward` reads it, that is unless it is in the retention set:
leaves, consts, the output and every 0-d node, plus the inputs of every kind
flagged ``reads_inputs`` and the output of every kind flagged
``reads_output`` (``layer_norm`` uses its output as ``xhat``). Any other run
(inference) is output-only: the same node loop, kernels and binding checks,
but the kernels keep no backward caches and each value is dropped after its
last reader. Its Evaluation holds the output alone, and :func:`backward` has
no adjoint to propagate through it.

Every other backward rule needs at most a shape, which it takes from the
graph. The kernel caches are ``silu``'s sigmoid and ``layer_norm``'s inverse
standard deviation. :func:`backward` drops each non-leaf adjoint as soon as
its node's rule has consumed it. :func:`jvp` runs each tangent rule right
after its node's forward, so a kernel cache lives for one node only, and
drops values and tangents after their last reader.

A rule writes only into buffers it allocated itself, never into an input, a
retained value, a cache, an adjoint or a tangent, or a view of one; finishing
a result in place runs the same floating-point operations in the same order.
All reductions use numpy's fixed summation order, so identical graphs and
bindings produce bit-identical outputs and gradients in either mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

ROW_NORM_EPS = 1e-12   # ||v|| = sqrt(sum v^2 + eps^2): differentiable at v = 0
LAYER_NORM_EPS = 1e-6


class GraphError(ValueError):
    """Shape mismatch or mis-use detected while building or running a graph."""


class NonFiniteError(FloatingPointError):
    """A leaf binding or graph output contained NaN/Inf."""


@dataclass(frozen=True)
class Node:
    """Handle to one graph operation; immutable once created."""
    graph: "Graph" = field(repr=False)
    nid: int
    kind: str
    inputs: tuple[int, ...]
    shape: tuple[int, ...]
    attrs: dict = field(default_factory=dict, repr=False)
    needs_grad: bool = False

    def __add__(self, other: "Node") -> "Node":
        return add(self, other)

    def __sub__(self, other: "Node") -> "Node":
        return subtract(self, other)

    def __mul__(self, other: "Node") -> "Node":
        return multiply(self, other)

    def __matmul__(self, other: "Node") -> "Node":
        return matmul(self, other)

    def __hash__(self):
        return hash((id(self.graph), self.nid))


class Graph:
    """Append-only DAG; nodes are stored in topological (creation) order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.leaves: dict[str, Node] = {}
        self.output: Node | None = None
        self._release_plans: dict[int, tuple] = {}   # output id -> (kept, free)

    def _append(self, kind: str, inputs: tuple[Node, ...], shape: tuple[int, ...],
                attrs: dict | None = None, needs_grad: bool | None = None) -> Node:
        for x in inputs:
            if x.graph is not self:
                raise GraphError(f"{kind}: input node belongs to a different graph")
        if needs_grad is None:
            needs_grad = any(x.needs_grad for x in inputs)
        node = Node(self, len(self.nodes), kind, tuple(x.nid for x in inputs),
                    tuple(int(s) for s in shape), attrs or {}, needs_grad)
        self.nodes.append(node)
        return node

    def leaf(self, name: str, shape: tuple[int, ...], grad: bool = False) -> Node:
        if name in self.leaves:
            raise GraphError(f"duplicate leaf name {name!r}")
        node = self._append("leaf", (), shape, {"name": name}, needs_grad=grad)
        self.leaves[name] = node
        return node

    def constant(self, value) -> Node:
        arr = np.asarray(value, dtype=np.float64)
        return self._append("const", (), arr.shape, {"value": arr}, needs_grad=False)

    def set_output(self, node: Node) -> Node:
        if node.graph is not self:
            raise GraphError("output node belongs to a different graph")
        self.output = node
        return node


def declare(g: Graph, values: dict, grad: bool = False) -> dict[str, Node]:
    """One leaf per entry of a bindings dict, named by its key and shaped like
    its value, in the dict's order."""
    return {name: g.leaf(name, np.shape(value), grad=grad) for name, value in values.items()}


# ---------------------------------------------------------------------------
# primitive constructors (shape checking happens here, at build time)

def matmul(a: Node, b: Node) -> Node:
    if len(a.shape) < 2 or len(b.shape) < 2:
        raise GraphError(f"matmul: operands must be >=2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise GraphError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if len(b.shape) > 2 and a.shape[:-2] != b.shape[:-2]:
        raise GraphError(f"matmul: batch dims differ, {a.shape} @ {b.shape}")
    shape = a.shape[:-1] + (b.shape[-1],)
    return a.graph._append("matmul", (a, b), shape)


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for a 2-d weight, with the bias broadcast over leading axes."""
    if len(x.shape) < 2 or len(w.shape) != 2:
        raise GraphError(f"affine: needs x >=2-d and a 2-d weight, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise GraphError(f"affine: inner dims differ, {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise GraphError(f"affine: bias shape {b.shape}, expected {(w.shape[1],)}")
    return x.graph._append("affine", (x, w, b), x.shape[:-1] + (w.shape[1],))


def _same_shape(kind: str, a: Node, b: Node) -> tuple[int, ...]:
    if a.shape != b.shape:
        raise GraphError(f"{kind}: shapes differ, {a.shape} vs {b.shape}")
    return a.shape


def add(a: Node, b: Node) -> Node:
    return a.graph._append("add", (a, b), _same_shape("add", a, b))


def subtract(a: Node, b: Node) -> Node:
    return a.graph._append("sub", (a, b), _same_shape("sub", a, b))


def multiply(a: Node, b: Node) -> Node:
    return a.graph._append("mul", (a, b), _same_shape("mul", a, b))


def scale(a: Node, c: float) -> Node:
    return a.graph._append("scale", (a,), a.shape, {"c": float(c)})


def silu(a: Node) -> Node:
    return a.graph._append("silu", (a,), a.shape)


def layer_norm(a: Node, eps: float = LAYER_NORM_EPS) -> Node:
    if not a.shape:
        raise GraphError("layer_norm: needs at least one axis")
    return a.graph._append("layer_norm", (a,), a.shape, {"eps": float(eps)})


def softmax(a: Node) -> Node:
    if not a.shape:
        raise GraphError("softmax: needs at least one axis")
    return a.graph._append("softmax", (a,), a.shape)


def mean(a: Node) -> Node:
    return a.graph._append("mean", (a,), ())


def total(a: Node) -> Node:
    return a.graph._append("sum", (a,), ())


def row_norm(a: Node, eps: float = ROW_NORM_EPS) -> Node:
    if not a.shape:
        raise GraphError("row_norm: needs at least one axis")
    return a.graph._append("row_norm", (a,), a.shape[:-1], {"eps": float(eps)})


def concat(nodes: list[Node], axis: int) -> Node:
    if not nodes:
        raise GraphError("concat: empty input list")
    g = nodes[0].graph
    ndim = len(nodes[0].shape)
    axis = axis % ndim
    base = nodes[0].shape
    for x in nodes[1:]:
        if len(x.shape) != ndim or any(
                s != t for i, (s, t) in enumerate(zip(x.shape, base)) if i != axis):
            raise GraphError(f"concat: incompatible shapes {[n.shape for n in nodes]}")
    shape = list(base)
    shape[axis] = sum(x.shape[axis] for x in nodes)
    return g._append("concat", tuple(nodes), tuple(shape), {"axis": axis})


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    axis = axis % len(a.shape)
    if not (0 <= start and start + length <= a.shape[axis]):
        raise GraphError(f"narrow: [{start}:{start + length}] out of range on {a.shape}")
    shape = list(a.shape)
    shape[axis] = length
    return a.graph._append("narrow", (a,), tuple(shape),
                           {"axis": axis, "start": start, "length": length})


def broadcast_to(a: Node, shape: tuple[int, ...]) -> Node:
    try:
        np.broadcast_shapes(a.shape, shape)
    except ValueError as exc:
        raise GraphError(f"broadcast: {a.shape} -> {shape}: {exc}") from None
    if tuple(np.broadcast_shapes(a.shape, shape)) != tuple(shape):
        raise GraphError(f"broadcast: {a.shape} does not expand to {shape}")
    return a.graph._append("broadcast", (a,), tuple(shape), {"shape": tuple(shape)})


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    if int(np.prod(shape, dtype=np.int64)) != int(np.prod(a.shape, dtype=np.int64)):
        raise GraphError(f"reshape: size mismatch {a.shape} -> {shape}")
    return a.graph._append("reshape", (a,), tuple(shape), {"shape": tuple(shape)})


def transpose(a: Node, axes: tuple[int, ...]) -> Node:
    if sorted(axes) != list(range(len(a.shape))):
        raise GraphError(f"transpose: bad axes {axes} for shape {a.shape}")
    shape = tuple(a.shape[i] for i in axes)
    return a.graph._append("transpose", (a,), shape, {"axes": tuple(axes)})


# ---------------------------------------------------------------------------
# kernels: one rule table entry per computed node kind

class _Rule(NamedTuple):
    """The rules of one node kind.

    ``forward(vals, attrs, aux)`` returns the node's value; ``aux`` None
    (output-only evaluation) means: keep no backward cache and finish the
    result in the kernel's own buffer. ``backward(node, g, vals, out, aux)``
    returns the input adjoints; it sees in ``vals`` and ``out`` only what
    :func:`_retained` keeps: the inputs if ``reads_inputs``, the output if
    ``reads_output`` (or if it is 0-d), and takes any other shape from the
    graph. ``jvp(node, dv, vals, out, aux)`` returns the output tangent; it
    runs right after the forward and sees all of it. ``jvp`` None marks a
    linear kind, whose tangent is its forward applied to the input tangents.
    """
    forward: Callable
    backward: Callable
    jvp: Callable | None = None
    reads_inputs: bool = False
    reads_output: bool = False


def _input_shape(node: Node, i: int = 0) -> tuple[int, ...]:
    return node.graph.nodes[node.inputs[i]].shape


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    ga = g @ np.swapaxes(b, -1, -2)
    if b.ndim == 2 and a.ndim > 2:
        gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        gb = np.swapaxes(a, -1, -2) @ g
    return [ga, gb]


def _affine(vals, attrs, aux):
    out = vals[0] @ vals[1]
    out += vals[2]
    return out


def _affine_backward(node, g, vals, out, aux):
    return _matmul_grads(g, vals[0], vals[1]) + [_unbroadcast(g, _input_shape(node, 2))]


def _affine_jvp(node, dv, vals, out, aux):
    t = dv[0] @ vals[1] + vals[0] @ dv[1]
    t += dv[2]
    return t


def _silu(vals, attrs, aux):
    # overflow-free identity sigma(x) = 0.5 * tanh(0.5 * x) + 0.5
    s = np.multiply(vals[0], 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    if aux is None:
        s *= vals[0]
        return s
    aux["sig"] = s
    return vals[0] * s


def _silu_grad(g, out, aux):
    """silu's derivative applied to an adjoint or a tangent ``g``."""
    s = aux["sig"]
    return g * (s + out * (1.0 - s))


def _layer_norm(vals, attrs, aux):
    x = vals[0]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + attrs["eps"])
    if aux is not None:
        aux["inv"] = inv
    xc *= inv
    return xc


def _layer_norm_grad(g, xhat, aux):
    """layer_norm's derivative applied to ``g``; the output is ``xhat``."""
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * xhat).mean(axis=-1, keepdims=True)
    return (g - gm - xhat * gx) * aux["inv"]


def _softmax(vals, attrs, aux):
    e = vals[0] - vals[0].max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(g, out):
    """softmax's derivative applied to an adjoint or a tangent ``g``."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def _row_norm(vals, attrs, aux):
    eps = attrs["eps"]
    return np.sqrt((vals[0] * vals[0]).sum(axis=-1) + eps * eps)


def _mean_backward(node, g, vals, out, aux):
    shape = _input_shape(node)
    return [np.full(shape, float(g) / math.prod(shape))]


def _concat_backward(node, g, vals, out, aux):
    axis = node.attrs["axis"]
    grads, start = [], 0
    for i in range(len(node.inputs)):
        width = _input_shape(node, i)[axis]
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(start, start + width)
        grads.append(g[tuple(sl)])
        start += width
    return grads


def _narrow_slice(attrs: dict, ndim: int) -> tuple[slice, ...]:
    sl = [slice(None)] * ndim
    sl[attrs["axis"]] = slice(attrs["start"], attrs["start"] + attrs["length"])
    return tuple(sl)


def _narrow_backward(node, g, vals, out, aux):
    gin = np.zeros(_input_shape(node))
    gin[_narrow_slice(node.attrs, gin.ndim)] = g
    return [gin]


_RULES: dict[str, _Rule] = {
    "affine": _Rule(_affine, _affine_backward, _affine_jvp, reads_inputs=True),
    "matmul": _Rule(lambda vals, attrs, aux: vals[0] @ vals[1],
                    lambda node, g, vals, out, aux: _matmul_grads(g, vals[0], vals[1]),
                    lambda node, dv, vals, out, aux: dv[0] @ vals[1] + vals[0] @ dv[1],
                    reads_inputs=True),
    "add": _Rule(lambda vals, attrs, aux: vals[0] + vals[1],
                 lambda node, g, vals, out, aux: [g, g]),
    "sub": _Rule(lambda vals, attrs, aux: vals[0] - vals[1],
                 lambda node, g, vals, out, aux: [g, -g]),
    "mul": _Rule(lambda vals, attrs, aux: vals[0] * vals[1],
                 lambda node, g, vals, out, aux: [g * vals[1], g * vals[0]],
                 lambda node, dv, vals, out, aux: dv[0] * vals[1] + vals[0] * dv[1],
                 reads_inputs=True),
    "scale": _Rule(lambda vals, attrs, aux: vals[0] * attrs["c"],
                   lambda node, g, vals, out, aux: [g * node.attrs["c"]]),
    "silu": _Rule(_silu,
                  lambda node, g, vals, out, aux: [_silu_grad(g, out, aux)],
                  lambda node, dv, vals, out, aux: _silu_grad(dv[0], out, aux),
                  reads_output=True),
    "layer_norm": _Rule(_layer_norm,
                        lambda node, g, vals, out, aux: [_layer_norm_grad(g, out, aux)],
                        lambda node, dv, vals, out, aux: _layer_norm_grad(dv[0], out, aux),
                        reads_output=True),
    "softmax": _Rule(_softmax,
                     lambda node, g, vals, out, aux: [_softmax_grad(g, out)],
                     lambda node, dv, vals, out, aux: _softmax_grad(dv[0], out),
                     reads_output=True),
    "mean": _Rule(lambda vals, attrs, aux: np.asarray(vals[0].mean()), _mean_backward),
    "sum": _Rule(lambda vals, attrs, aux: np.asarray(vals[0].sum()),
                 lambda node, g, vals, out, aux: [np.full(_input_shape(node), float(g))]),
    "row_norm": _Rule(_row_norm,
                      lambda node, g, vals, out, aux: [(g / out)[..., None] * vals[0]],
                      lambda node, dv, vals, out, aux: (vals[0] * dv[0]).sum(axis=-1) / out,
                      reads_inputs=True, reads_output=True),
    "concat": _Rule(lambda vals, attrs, aux: np.concatenate(vals, axis=attrs["axis"]),
                    _concat_backward),
    "narrow": _Rule(lambda vals, attrs, aux: vals[0][_narrow_slice(attrs, vals[0].ndim)],
                    _narrow_backward),
    "broadcast": _Rule(lambda vals, attrs, aux: np.broadcast_to(vals[0], attrs["shape"]),
                       lambda node, g, vals, out, aux: [_unbroadcast(g, _input_shape(node))]),
    "reshape": _Rule(lambda vals, attrs, aux: vals[0].reshape(attrs["shape"]),
                     lambda node, g, vals, out, aux: [g.reshape(_input_shape(node))]),
    "transpose": _Rule(lambda vals, attrs, aux: np.transpose(vals[0], attrs["axes"]),
                       lambda node, g, vals, out, aux:
                       [np.transpose(g, np.argsort(node.attrs["axes"]))]),
}


# ---------------------------------------------------------------------------
# execution

class Evaluation:
    """Forward pass of one graph on one set of bindings: the retained values
    (see the module docstring) and the kernels' backward caches, or, from an
    output-only run, the output value alone with ``aux`` None."""

    __slots__ = ("graph", "values", "aux", "output_node")

    def __init__(self, graph: Graph, values: list[np.ndarray],
                 aux: list[dict] | None, output_node: Node):
        self.graph = graph
        self.values = values
        self.aux = aux
        self.output_node = output_node

    @property
    def output(self) -> np.ndarray:
        return self.values[self.output_node.nid]

    def value(self, node: Node) -> np.ndarray:
        v = self.values[node.nid]
        if v is None:
            raise GraphError(f"node #{node.nid} ({node.kind}) has no value in this evaluation")
        return v


def _check_binding(name: str, arr, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != shape:
        raise GraphError(f"leaf {name!r}: bound shape {arr.shape}, declared {shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"leaf {name!r}: non-finite binding")
    return arr


def _retained(graph: Graph, out_node: Node) -> set[int]:
    """Ids of the values a retained evaluation keeps for :func:`backward`
    (the retention set of the module docstring)."""
    held = {out_node.nid}
    for node in graph.nodes[: out_node.nid + 1]:
        rule = _RULES.get(node.kind)   # None for the sources, leaf and const
        if rule is None or not node.shape or rule.reads_output:
            held.add(node.nid)
        if rule is not None and rule.reads_inputs:
            held.update(node.inputs)
    return held


def _release_plan(graph: Graph, out_node: Node) -> tuple[list | None, list[tuple[int, ...]]]:
    """Per node up to ``out_node``, the values to drop after it: ``(kept,
    free)``. ``free`` drops each value but the output after its last reader.
    ``kept`` is ``free`` less the :func:`_retained` set when a grad leaf lies
    at or before the output, and None (an output-only run) otherwise.

    Computed once per (graph, output) and cached on the graph; nodes appended
    later lie beyond the output and cannot change it.
    """
    entry = graph._release_plans.get(out_node.nid)
    if entry is None:
        nodes = graph.nodes[: out_node.nid + 1]
        last = list(range(len(nodes)))
        for node in nodes:
            for i in node.inputs:
                last[i] = node.nid
        free: list[list[int]] = [[] for _ in last]
        for nid, at in enumerate(last):
            if nid != out_node.nid:
                free[at].append(nid)
        kept = None
        if any(n.kind == "leaf" and n.needs_grad for n in nodes):
            held = _retained(graph, out_node)
            kept = [tuple(i for i in f if i not in held) for f in free]
        entry = graph._release_plans[out_node.nid] = (kept, [tuple(f) for f in free])
    return entry


def _source_value(node: Node, bindings: dict[str, np.ndarray]) -> np.ndarray:
    if node.kind == "leaf":
        return _check_binding(node.attrs["name"], bindings[node.attrs["name"]], node.shape)
    return node.attrs["value"]


def _start(graph: Graph, bindings: dict[str, np.ndarray], output: Node | None) -> Node:
    out_node = output or graph.output
    if out_node is None:
        raise GraphError("graph has no output node set")
    missing = set(graph.leaves) - set(bindings)
    if missing:
        raise GraphError(f"missing bindings for leaves: {sorted(missing)}")
    return out_node


def evaluate(graph: Graph, bindings: dict[str, np.ndarray],
             output: Node | None = None) -> Evaluation:
    """Forward pass; returns the per-call cache needed by :func:`backward`,
    retained or output-only as :func:`_release_plan` decides."""
    out_node = _start(graph, bindings, output)
    kept, free = _release_plan(graph, out_node)
    release = free if kept is None else kept
    values: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    aux: list | None = None if kept is None else [None] * len(graph.nodes)
    for node in graph.nodes[: out_node.nid + 1]:
        if not node.inputs:   # the sources, leaf and const
            values[node.nid] = _source_value(node, bindings)
        else:
            a = None if aux is None else {}
            values[node.nid] = _RULES[node.kind].forward([values[i] for i in node.inputs],
                                                         node.attrs, a)
            if aux is not None:
                aux[node.nid] = a
        for nid in release[node.nid]:
            values[nid] = None
    if not np.all(np.isfinite(values[out_node.nid])):
        raise NonFiniteError(f"output of node #{out_node.nid} ({out_node.kind}) is non-finite")
    return Evaluation(graph, values, aux, out_node)


def backward(run: Evaluation) -> dict[str, np.ndarray]:
    """Reverse pass over a cached forward; gradients for every grad leaf.

    Each non-leaf adjoint is dropped as soon as its node's rule has consumed
    it, so the sweep holds only the adjoints still waiting for their node.
    """
    graph, out = run.graph, run.output_node
    if int(np.prod(out.shape, dtype=np.int64)) != 1:
        raise GraphError(f"backward needs a scalar output, got shape {out.shape}")
    adj: list[np.ndarray | None] = [None] * len(graph.nodes)
    if run.aux is not None:   # an output-only run has no grad leaf up to its output
        adj[out.nid] = np.ones(out.shape)
    for node in reversed(graph.nodes[: out.nid + 1]):
        g = adj[node.nid]
        if g is None or not node.inputs:
            continue
        adj[node.nid] = None
        grads = _RULES[node.kind].backward(node, g, [run.values[i] for i in node.inputs],
                                           run.values[node.nid], run.aux[node.nid])
        del g   # the loop's own references would keep consumed adjoints alive
        for nid, gin in zip(node.inputs, grads):
            if not graph.nodes[nid].needs_grad:
                continue
            adj[nid] = gin if adj[nid] is None else adj[nid] + gin
        del grads, gin
    return {name: np.zeros(leaf.shape) if adj[leaf.nid] is None else adj[leaf.nid]
            for name, leaf in graph.leaves.items() if leaf.needs_grad}


def jvp(graph: Graph, bindings: dict[str, np.ndarray], tangents: dict[str, np.ndarray],
        output: Node | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(output, directional derivative along per-leaf tangents) in one sweep.

    Each node's forward runs with a kernel cache and its tangent rule right
    after (a linear kind's tangent is its forward on the input tangents); the
    cache is dropped then, and values and tangents after their last reader.
    """
    out_node = _start(graph, bindings, output)
    missing = _ancestor_leaves(graph, out_node) - set(tangents)
    if missing:
        raise GraphError(f"missing tangents for influencing leaves: {sorted(missing)}")
    free = _release_plan(graph, out_node)[1]
    values: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    tans: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    for node in graph.nodes[: out_node.nid + 1]:
        if not node.inputs:
            values[node.nid] = _source_value(node, bindings)
            name = node.attrs.get("name")   # None for a const
            tans[node.nid] = (_check_binding(name, tangents[name], node.shape)
                              if name in tangents else np.zeros(node.shape))
        else:
            rule, aux = _RULES[node.kind], {}
            vals, dv = [values[i] for i in node.inputs], [tans[i] for i in node.inputs]
            values[node.nid] = rule.forward(vals, node.attrs, aux)
            tans[node.nid] = (rule.forward(dv, node.attrs, None) if rule.jvp is None
                              else rule.jvp(node, dv, vals, values[node.nid], aux))
        for nid in free[node.nid]:
            values[nid] = tans[nid] = None
    if not np.all(np.isfinite(values[out_node.nid])):
        raise NonFiniteError(f"output of node #{out_node.nid} ({out_node.kind}) is non-finite")
    return values[out_node.nid], tans[out_node.nid]


def _ancestor_leaves(graph: Graph, node: Node) -> set[str]:
    reach = np.zeros(len(graph.nodes), dtype=bool)
    reach[node.nid] = True
    names: set[str] = set()
    for n in reversed(graph.nodes[: node.nid + 1]):
        if not reach[n.nid]:
            continue
        if n.kind == "leaf":
            names.add(n.attrs["name"])
        for i in n.inputs:
            reach[i] = True
    return names


def grad_check(graph: Graph, point: dict[str, np.ndarray], step: float = 1e-6,
               output: Node | None = None) -> float:
    """Max relative error of reverse-mode grads vs central finite differences.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8),
    checked component-wise over every grad-enabled leaf.
    """
    if step <= 0:
        raise GraphError("grad_check: step must be positive")
    out_node = output or graph.output
    run = evaluate(graph, point, out_node)
    analytic = backward(run)
    worst = 0.0
    base = {k: np.asarray(v, dtype=np.float64).copy() for k, v in point.items()}
    for name, grad in analytic.items():
        arr = base[name]
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = float(evaluate(graph, base, out_node).output)
            flat[i] = keep - step
            dn = float(evaluate(graph, base, out_node).output)
            flat[i] = keep
            numeric = (up - dn) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
