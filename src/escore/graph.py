"""Static differentiable computation graphs over float64 numpy arrays.

A :class:`Graph` is built once (shapes fixed at construction), then
evaluated any number of times with fresh data bindings. :func:`declare`
makes one data leaf per binding, so loss and training graphs are declared
from the bindings of the first call that runs them, and one weight leaf per
parameter of a parameter set. Forward values are cached in
a per-call :class:`Evaluation`, which keeps graphs freely shareable across
threads/processes; reverse-mode gradients consume that cache, and
:func:`jvp` carries tangents beside the values in a sweep of its own.

Node kinds are the sources ``leaf`` and ``const`` and the 17 keys of
``_RULES``, each with its forward, reverse and forward-mode rules and the
flags ``reads_inputs`` and ``reads_output``. ``affine``, ``matmul``,
``mul``, ``silu``, ``layer_norm``, ``softmax`` and ``row_norm`` have a
tangent rule; the ten linear kinds take their forward on the input tangents.
``affine`` (``x @ w + b``, the bias broadcast over the leading axes) is the
fused form of matmul + broadcast + add, bit-identical to it.

A leaf declared from a parameter set is a weight leaf: it reads its
``nn.Parameter``'s current value at every run, so a run binds data leaves
only, and binding a weight leaf is a :class:`GraphError`. It refers to the
parameter weakly: a graph is a reference cycle, which would otherwise keep a
dropped model's weights until the cyclic collector runs. A weight's shape and
finiteness are checked where it is written; a run checks a data leaf's shape
and finiteness, that no layer norm's row variance overflows, and its output.
In :func:`jvp` a weight leaf or a const without a tangent has a structural
zero one (None): a node whose input tangents are all zero has one too, and
the rules skip the terms of a zero input tangent.

Each graph compiles once, up to its output, into a cached plan (a new
:meth:`Graph.set_output` compiles it afresh), which
:func:`evaluate`, :func:`backward` and :func:`jvp` all run: the sources to
bind, then one step per computed node with its slot, rule, input slots,
attrs and the slots to drop after it. A plan with a grad leaf at or before
its output is retained: each value is dropped after its last forward reader
unless :func:`backward` reads it, that is unless it is in the retention set:
leaves, consts, the output and every 0-d node, plus the inputs of every
kind flagged ``reads_inputs`` and the output of every kind flagged
``reads_output`` (``layer_norm`` uses its output as ``xhat``). Any other
plan (inference) is output-only: the kernels keep no backward caches and
each value is dropped after its last reader. Its Evaluation holds the
output alone, and :func:`backward` has no adjoint to propagate through it.

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
import weakref
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

ROW_NORM_EPS = 1e-12   # ||v|| = sqrt(sum v^2 + eps^2): differentiable at v = 0
LAYER_NORM_EPS = 1e-6


class GraphError(ValueError):
    """Shape mismatch or mis-use detected while building or running a graph."""


class NonFiniteError(FloatingPointError):
    """A leaf binding or graph output contained NaN/Inf, or a layer norm's
    row variance overflowed."""


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
        self._compiled: "_Plan | None" = None   # the plan up to ``output``

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

    def leaf(self, name: str, shape: tuple[int, ...], grad: bool = False,
             param=None) -> Node:
        """A data leaf, bound by each run, or with ``param`` (an
        ``nn.Parameter``) a weight leaf whose attrs refer to it weakly."""
        if name in self.leaves:
            raise GraphError(f"duplicate leaf name {name!r}")
        ref = None if param is None else weakref.ref(param)
        node = self._append("leaf", (), shape, {"name": name, "param": ref},
                            needs_grad=grad)
        self.leaves[name] = node
        return node

    def constant(self, value) -> Node:
        arr = np.asarray(value, dtype=np.float64)
        return self._append("const", (), arr.shape, {"value": arr}, needs_grad=False)

    def set_output(self, node: Node) -> Node:
        if node.graph is not self:
            raise GraphError("output node belongs to a different graph")
        self.output, self._compiled = node, None
        return node


def declare(g: Graph, values, grad: bool = False) -> dict[str, Node]:
    """One leaf per entry, named by its key and shaped like its value, in
    order: data leaves from a bindings dict, weight leaves from a parameter
    set (``nn.ParameterSet``), each reading its parameter at every run."""
    if isinstance(values, dict):
        return {name: g.leaf(name, np.shape(value), grad=grad) for name, value in values.items()}
    return {name: g.leaf(name, p.shape, grad=grad, param=p) for name, p in values.items()}


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
    returns the input adjoints from what a retained run keeps (the inputs if
    ``reads_inputs``, the output if ``reads_output`` or 0-d) and shapes from
    the graph. ``jvp(node, dv, vals, out, aux)`` returns the output tangent
    right after the forward; a None in ``dv`` is a zero tangent. ``jvp`` None
    marks a linear kind, whose tangent is its forward on the input tangents.
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


def _product_jvp(prod, dv, vals, shape):
    """``da * b + a * db`` for a bilinear ``prod``, less a zero (None) term."""
    t = np.zeros(shape) if dv[0] is None else prod(dv[0], vals[1])
    if dv[1] is not None:
        t += prod(vals[0], dv[1])
    return t


def _affine_jvp(node, dv, vals, out, aux):
    t = _product_jvp(np.matmul, dv, vals, out.shape)
    if dv[2] is not None:
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
    x, n = vals[0], vals[0].shape[-1]   # the means as ndarray.mean takes them
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + attrs["eps"])
    if not inv.all():   # an infinite variance would zero its row
        raise NonFiniteError("layer_norm: the variance of a row overflowed")
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
    ends = np.cumsum([_input_shape(node, i)[axis] for i in range(len(node.inputs))])
    return np.split(g, ends[:-1], axis=axis)


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
                    lambda node, dv, vals, out, aux: _product_jvp(np.matmul, dv, vals, out.shape),
                    reads_inputs=True),
    "add": _Rule(lambda vals, attrs, aux: vals[0] + vals[1],
                 lambda node, g, vals, out, aux: [g, g]),
    "sub": _Rule(lambda vals, attrs, aux: vals[0] - vals[1],
                 lambda node, g, vals, out, aux: [g, -g]),
    "mul": _Rule(lambda vals, attrs, aux: vals[0] * vals[1],
                 lambda node, g, vals, out, aux: [g * vals[1], g * vals[0]],
                 lambda node, dv, vals, out, aux: _product_jvp(np.multiply, dv, vals, out.shape),
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
# execution: one compiled plan per graph

# one computed node (``node`` for the backward rules that take a shape from it);
# jvp and output-only runs drop ``free`` after it, this plan's evaluate ``kept``
_Step = namedtuple("_Step", "slot rule ins attrs node free kept")


# ``leaves`` holds (slot, name, shape, param) per leaf, param a weight leaf's
# weak reference or None; ``consts`` (slot, value) per const; ``inputs`` and
# ``weights`` name the data and weight leaves, ``data`` the data leaves the
# output depends on
_Plan = namedtuple("_Plan", "out leaves consts steps retained inputs weights data")


def _plan(graph: Graph) -> _Plan:
    """The plan of ``graph`` up to its output, compiled on first use and again
    after :meth:`Graph.set_output`; nodes appended later cannot change it."""
    if graph._compiled is not None:
        return graph._compiled
    out = graph.output
    if out is None:
        raise GraphError("graph has no output node set")
    nodes = graph.nodes[: out.nid + 1]
    last, reach, step = {}, {out.nid}, out.nid   # reach: the output and its ancestors
    for node in reversed(nodes):
        step = node.nid if node.inputs else step
        for i in node.inputs:
            last.setdefault(i, node.nid)   # the last step that reads i
        last.setdefault(node.nid, step)    # read by none: dropped after the next step
        if node.nid in reach:
            reach.update(node.inputs)
    free: list[list[int]] = [[] for _ in nodes]
    for node in nodes[:-1]:
        free[last[node.nid]].append(node.nid)
    retained = any(n.kind == "leaf" and n.needs_grad for n in nodes)
    held = {out.nid} if retained else set()   # the retention set
    for node in nodes if retained else ():
        rule = _RULES.get(node.kind)   # None for the sources, leaf and const
        if rule is None or not node.shape or rule.reads_output:
            held.add(node.nid)
        if rule is not None and rule.reads_inputs:
            held.update(node.inputs)
    leaves = [(n.nid, n.attrs["name"], n.shape, n.attrs["param"])
              for n in nodes if n.kind == "leaf"]
    plan = graph._compiled = _Plan(
        out, tuple(leaves), tuple((n.nid, n.attrs["value"]) for n in nodes if n.kind == "const"),
        tuple(_Step(n.nid, _RULES[n.kind], n.inputs, n.attrs, n, tuple(free[n.nid]),
                    tuple(i for i in free[n.nid] if i not in held))
              for n in nodes if n.inputs),
        retained, frozenset(name for _, name, _, p in leaves if p is None),
        frozenset(name for _, name, _, p in leaves if p is not None),
        frozenset(name for nid, name, _, p in leaves if nid in reach and p is None))
    return plan


class Evaluation:
    """Forward pass of one graph on one set of bindings: the retained values
    (see the module docstring) and the kernels' backward caches, or, from an
    output-only run, the output value alone with ``aux`` None."""

    __slots__ = ("plan", "graph", "output_node", "values", "aux")

    def __init__(self, plan: _Plan, values: list[np.ndarray], aux: list[dict] | None):
        self.plan, self.graph, self.output_node = plan, plan.out.graph, plan.out
        self.values, self.aux = values, aux

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
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"leaf {name!r}: non-finite binding")
    return arr


def _bind(graph: Graph, plan: _Plan, bindings: dict[str, np.ndarray]) -> list:
    """A run's value list with the sources of ``plan`` bound: each weight leaf
    reads its parameter, each data leaf its checked binding."""
    bound = plan.weights.intersection(bindings)
    if bound:
        raise GraphError(f"weight leaves read their parameters, not bindings: {sorted(bound)}")
    missing = plan.inputs - bindings.keys()
    if missing:
        raise GraphError(f"missing bindings for leaves: {sorted(missing)}")
    values: list = [None] * len(graph.nodes)
    for slot, name, shape, param in plan.leaves:
        if param is None:
            values[slot] = _check_binding(name, bindings[name], shape)
        elif (p := param()) is not None:
            values[slot] = p.value
        else:
            raise GraphError(f"weight leaf {name!r}: its parameter no longer exists")
    for slot, value in plan.consts:
        values[slot] = value
    return values


def _check_output(out: Node, value: np.ndarray) -> np.ndarray:
    if not np.isfinite(value).all():
        raise NonFiniteError(f"output of node #{out.nid} ({out.kind}) is non-finite")
    return value


def evaluate(graph: Graph, bindings: dict[str, np.ndarray]) -> Evaluation:
    """Forward pass on the data ``bindings``; returns the per-call cache
    needed by :func:`backward`, retained or output-only as the plan decides."""
    plan = _plan(graph)
    values = _bind(graph, plan, bindings)
    aux: list | None = [None] * len(values) if plan.retained else None
    for slot, rule, ins, attrs, _, _, kept in plan.steps:
        a = None if aux is None else {}
        values[slot] = rule.forward([values[i] for i in ins], attrs, a)
        if a is not None:
            aux[slot] = a
        for i in kept:
            values[i] = None
    _check_output(plan.out, values[plan.out.nid])
    return Evaluation(plan, values, aux)


def backward(run: Evaluation) -> dict[str, np.ndarray]:
    """Reverse pass over a cached forward; gradients for every grad leaf.

    Each non-leaf adjoint is dropped as soon as its node's rule has consumed
    it, so the sweep holds only the adjoints still waiting for their node.
    """
    out, values, nodes = run.output_node, run.values, run.graph.nodes
    if int(np.prod(out.shape, dtype=np.int64)) != 1:
        raise GraphError(f"backward needs a scalar output, got shape {out.shape}")
    adj: list[np.ndarray | None] = [None] * len(values)
    if run.aux is not None:   # an output-only run has no grad leaf up to its output
        adj[out.nid] = np.ones(out.shape)
    for slot, rule, ins, _, node, _, _ in reversed(run.plan.steps):
        g = adj[slot]
        if g is None:
            continue
        adj[slot] = None
        grads = rule.backward(node, g, [values[i] for i in ins], values[slot], run.aux[slot])
        del g   # the loop's own references would keep consumed adjoints alive
        for i, gin in zip(ins, grads):
            if nodes[i].needs_grad:
                adj[i] = gin if adj[i] is None else adj[i] + gin
        del grads, gin
    return {name: np.zeros(leaf.shape) if adj[leaf.nid] is None else adj[leaf.nid]
            for name, leaf in run.graph.leaves.items() if leaf.needs_grad}


def jvp(graph: Graph, bindings: dict[str, np.ndarray],
        tangents: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(output, directional derivative along per-leaf tangents) in one sweep.

    ``bindings`` holds the data leaves. Every data leaf the output depends
    on needs a tangent; a weight leaf without one has a zero tangent. Each node's forward runs with a kernel
    cache and its tangent rule right after; the cache is dropped then, and
    values and tangents after their last reader.
    """
    plan = _plan(graph)
    missing = plan.data - tangents.keys()
    if missing:
        raise GraphError(f"missing tangents for influencing leaves: {sorted(missing)}")
    values = _bind(graph, plan, bindings)
    tans: list = [None] * len(values)
    for slot, name, shape, _ in plan.leaves:
        if name in tangents:
            tans[slot] = _check_binding(name, tangents[name], shape)
    for slot, rule, ins, attrs, node, free, _ in plan.steps:
        vals, dv, aux = [values[i] for i in ins], [tans[i] for i in ins], {}
        values[slot] = rule.forward(vals, attrs, aux)
        if any(t is not None for t in dv):
            if rule.jvp is None:
                dv = [np.zeros(graph.nodes[i].shape) if t is None else t
                      for i, t in zip(ins, dv)]
                tans[slot] = rule.forward(dv, attrs, None)
            else:
                tans[slot] = rule.jvp(node, dv, vals, values[slot], aux)
        for i in free:
            values[i] = tans[i] = None
    out = plan.out
    return (_check_output(out, values[out.nid]),
            np.zeros(out.shape) if tans[out.nid] is None else tans[out.nid])


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1e-8), or inf when that is not finite, so that
    a NaN fails a check's ``max`` instead of dropping out of it."""
    err = abs(a - b) / max(abs(a), abs(b), 1e-8)
    return err if math.isfinite(err) else math.inf


def grad_check(graph: Graph, point: dict[str, np.ndarray], step: float = 1e-6) -> float:
    """Max :func:`relative_error` of reverse-mode grads vs central finite
    differences, checked component-wise over every grad-enabled leaf, each a
    data leaf that ``point`` binds (a graph declared from dicts, as ``verify``
    builds); inf when a gradient or a difference is not finite.
    """
    if step <= 0:
        raise GraphError("grad_check: step must be positive")
    run = evaluate(graph, point)
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
            up = float(evaluate(graph, base).output)
            flat[i] = keep - step
            dn = float(evaluate(graph, base).output)
            flat[i] = keep
            numeric = (up - dn) / (2.0 * step)
            worst = max(worst, relative_error(gflat[i], numeric))
    return worst
