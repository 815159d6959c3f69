"""Differentiation verification suite behind the `gradcheck` CLI verb.

Every primitive and every composite the package trains (energy losses,
AdaLN block, transformer block, each head loss) is checked against central
finite differences; reverse gradients are also checked against
forward-mode jvp along random tangents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as G
from . import nn
from .heads import HEAD_KINDS, Head, HeadConfig, build_energy_rows_m, build_loss_rows
from .rng import Stream

FD_TOL = 1e-5
FD_STEP = 1e-6
JVP_TOL = 1e-8
N_POINTS = 100


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float
    points: int

    @property
    def passed(self) -> bool:
        return math.isfinite(self.worst) and self.worst <= self.tol


def _mix_reduce(g: G.Graph, node: G.Node, s: Stream) -> G.Node:
    """Scalar output sensitive to every entry of `node`."""
    shape = node.shape
    if len(shape) > 2:
        node = G.reshape(node, (int(np.prod(shape[:-1])), shape[-1]))
    elif len(shape) == 1:
        node = G.reshape(node, (shape[0], 1))
    elif not shape:
        return node
    mix = g.constant(s.child("mix").normal((node.shape[-1], 1)))
    return G.total(G.matmul(node, mix))


def _primitive_cases():
    """name -> (builder(g, point) -> output node, point maker(s) -> bindings);
    every binding of a primitive case is a grad leaf."""

    def grad_leaves(op):
        return lambda g, pt: op(*G.declare(g, pt, grad=True).values())

    def unary(op, shape=(3, 4), transform=None):
        def point(s):
            x = s.child("x").normal(shape)
            return {"x": transform(x) if transform else x}

        return grad_leaves(op), point

    def binary(op, sa=(3, 4), sb=(3, 4)):
        def point(s):
            return {"a": s.child("a").normal(sa), "b": s.child("b").normal(sb)}

        return grad_leaves(op), point

    def affine(x_shape, n=2):
        w_shape, b_shape = (x_shape[-1], n), (n,)

        def point(s):
            return {"x": s.child("x").normal(x_shape), "w": s.child("w").normal(w_shape),
                    "b": s.child("b").normal(b_shape)}

        return grad_leaves(G.affine), point

    away_from_zero = lambda x: x + 0.5 * np.sign(x) + np.where(x == 0, 0.5, 0.0)
    return {
        "matmul": binary(G.matmul, (3, 4), (4, 2)),
        "affine(2-d)": affine((3, 4)),
        "affine(3-d)": affine((2, 3, 4)),
        "add": binary(G.add),
        "subtract": binary(G.subtract),
        "multiply": binary(G.multiply),
        "scalar-scale": unary(lambda x: G.scale(x, -1.7)),
        "silu": unary(G.silu),
        "layer-normalize": unary(G.layer_norm),
        "softmax": unary(G.softmax),
        "mean": unary(G.mean),
        "sum": unary(G.total),
        "row-norm": unary(lambda x: G.row_norm(x), transform=away_from_zero),
        "concatenate": binary(lambda a, b: G.concat([a, b], axis=1), (3, 2), (3, 3)),
        "slice": unary(lambda x: G.narrow(x, 1, 1, 2)),
        "broadcast": unary(lambda x: G.broadcast_to(x, (5, 3, 4))),
        "reshape": unary(lambda x: G.reshape(x, (4, 3))),
        "transpose": unary(lambda x: G.transpose(x, (1, 0))),
    }


def _check_case(name, build, point, n_points, tol) -> CheckResult:
    worst = 0.0
    for trial in range(n_points):
        s = Stream.from_seed(trial, f"gradcheck/{name}")
        pt = point(s)
        g = G.Graph()
        g.set_output(_mix_reduce(g, build(g, pt), s))
        worst = max(worst, G.grad_check(g, pt, step=FD_STEP))
    return CheckResult(name, worst, tol, n_points)


def _check_case_directional(name, build, point, n_points, tol,
                            n_dirs: int = 4) -> CheckResult:
    """Central finite differences along random directions vs <grad, dir>.

    Used for deep composites, where component-wise differences at step 1e-6
    drown sub-1e-4 gradient entries in f64 rounding noise; the directional
    derivative keeps the comparison at the gradient's overall scale.
    """
    worst = 0.0
    for trial in range(n_points):
        s = Stream.from_seed(trial, f"gradcheck/{name}")
        pt = {k: np.asarray(v, dtype=np.float64) for k, v in point(s).items()}
        g = G.Graph()
        g.set_output(_mix_reduce(g, build(g, pt), s))
        run = G.evaluate(g, pt)
        grads = G.backward(run)
        for k_dir in range(n_dirs):
            ds = s.child(f"dir{k_dir}")
            dirs = {nm: ds.child(nm).normal(v.shape) for nm, v in grads.items()}
            up = {nm: pt[nm] + FD_STEP * dirs.get(nm, 0.0) for nm in pt}
            dn = {nm: pt[nm] - FD_STEP * dirs.get(nm, 0.0) for nm in pt}
            numeric = (float(G.evaluate(g, up).output)
                       - float(G.evaluate(g, dn).output)) / (2.0 * FD_STEP)
            dot = sum(float((grads[nm] * dirs[nm]).sum()) for nm in dirs)
            worst = max(worst, G.relative_error(numeric, dot))
    return CheckResult(name, worst, tol, n_points)


def check_primitives(n_points: int = N_POINTS) -> list[CheckResult]:
    return [_check_case(name, build, point, n_points, FD_TOL)
            for name, (build, point) in _primitive_cases().items()]


def _declare(g: G.Graph, pt: dict, data=()) -> dict[str, G.Node]:
    """The leaves of a check point: one grad leaf per binding, but a plain one
    for each binding named in ``data``."""
    leaves = G.declare(g, {k: v for k, v in pt.items() if k not in data}, grad=True)
    leaves.update(G.declare(g, {k: pt[k] for k in data}))
    return leaves


def _composite_cases():
    """name -> (builder(g, point) -> output node, point maker(s) -> bindings)."""
    cases = {}

    def energy_loss(names):
        def build(g, pt):
            leaves = _declare(g, pt, data=("y",))
            return G.total(build_energy_rows_m([leaves[n] for n in names], leaves["y"]))

        def point(s):
            pt = {n: s.child(n).normal((2, 3)) for n in names}
            pt["y"] = s.child("y").normal((2, 3))
            return pt

        return build, point

    cases["energy-loss(m=2)"] = energy_loss(("x1", "x2"))
    cases["energy-loss(m=3)"] = energy_loss(("x0", "x1", "x2"))

    adaln_params = nn.ParameterSet()
    adaln = nn.AdaLnResBlock("blk", width=4, cond_dim=3)
    adaln.register(adaln_params, seed=0)

    def adaln_build(g, pt):
        leaves = _declare(g, pt)
        return adaln.build(leaves, leaves["x"], leaves["cond"])

    def adaln_point(s):
        pt = {name: 0.4 * s.child(name).normal(p.value.shape)
              for name, p in adaln_params.items()}
        pt["x"] = s.child("x").normal((2, 4))
        pt["cond"] = s.child("cond").normal((2, 3))
        return pt

    cases["adaln-resblock"] = (adaln_build, adaln_point)

    tf_params = nn.ParameterSet()
    tf = nn.TransformerBlock("tb", dim=4, n_heads=2, mlp_ratio=2)
    tf.register(tf_params, seed=0)

    def tf_build(g, pt):
        leaves = _declare(g, pt)
        return tf.build(leaves, leaves["x"])

    def tf_point(s):
        pt = {name: 0.4 * s.child(name).normal(p.value.shape)
              for name, p in tf_params.items()}
        pt["tb.ln1.g"] = 1.0 + 0.1 * s.child("g1").normal((4,))
        pt["tb.ln2.g"] = 1.0 + 0.1 * s.child("g2").normal((4,))
        pt["x"] = s.child("x").normal((1, 3, 4))
        return pt

    cases["transformer-block"] = (tf_build, tf_point)

    for kind in HEAD_KINDS:
        cases[f"{kind}-head-loss"] = _head_loss_case(kind)
    return cases


def _head_loss_case(kind: str):
    cfg = HeadConfig(kind=kind, width=4, depth=1, context_dim=3, time_feat_dim=4)
    head = Head(cfg, seed=0)
    s0 = Stream.from_seed(1, f"gradcheck/{kind}/params")
    for name, p in head.params.items():
        p.value = 0.4 * s0.child(name).normal(p.value.shape)

    def build(g, pt):
        leaves = _declare(g, pt, data=[k for k in pt if k not in head.params and k != "ctx"])
        return G.mean(build_loss_rows(cfg, leaves, leaves["ctx"], leaves))

    def point(s):
        ctx = s.child("ctx").normal((2, 3))
        y = s.child("y").normal((2, 2))
        return {**head.params.bindings(), "ctx": ctx,
                **head.loss_bindings(y, s.child("loss"), context=ctx)}

    return build, point


def check_composites(n_points: int = N_POINTS) -> list[CheckResult]:
    return [_check_case_directional(name, build, point, n_points, FD_TOL)
            for name, (build, point) in _composite_cases().items()]


def check_jvp_consistency(n_graphs: int = 100) -> CheckResult:
    """<reverse gradient, tangent> vs forward-mode jvp on random graphs."""
    worst = 0.0
    for trial in range(n_graphs):
        s = Stream.from_seed(trial, "jvpcheck")
        g = G.Graph()
        x = g.leaf("x", (3, 4), grad=True)
        w = g.leaf("w", (4, 4), grad=True)
        h = G.layer_norm(G.matmul(x, w))
        ops = [G.silu, G.softmax, lambda n: n + G.silu(n),
               lambda n: G.layer_norm(n * n), lambda n: G.scale(n, 0.7)]
        for pick in s.child("ops").integers(len(ops), (3,)):
            h = ops[int(pick)](h)
        g.set_output(_mix_reduce(g, h, s))
        pt = {"x": s.child("x").normal((3, 4)), "w": s.child("w").normal((4, 4))}
        run = G.evaluate(g, pt)
        grads = G.backward(run)
        tangents = {k: s.child("tan/" + k).normal(v.shape) for k, v in pt.items()}
        dot = sum(float((grads[k] * tangents[k]).sum()) for k in pt)
        fwd = float(G.jvp(g, pt, tangents)[1])
        worst = max(worst, G.relative_error(dot, fwd))
    return CheckResult("jvp-backward-consistency", worst, JVP_TOL, n_graphs)


def run_suite(n_points: int = N_POINTS) -> list[CheckResult]:
    results = check_primitives(n_points)
    results.extend(check_composites(n_points))
    results.append(check_jvp_consistency(100))
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  {'points':>6}  {'max err':>12}  "
             f"{'tol':>8}  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {r.points:>6}  {r.worst:>12.3e}  "
                     f"{r.tol:>8.0e}  {status}")
    return "\n".join(lines)
