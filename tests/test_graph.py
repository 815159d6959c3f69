import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escore import graph as G
from escore import heads, nn, verify
from escore.data import LATENT_DIM, N_CLASSES
from escore.mar import MarConfig, MarModel
from escore.rng import Stream
from escore.swiss import ToyHeadModel

import graph_reference as R


def scalar_graph(build):
    """Helper: build() adds nodes to a fresh graph and returns the output."""
    g = G.Graph()
    g.set_output(build(g))
    return g


def test_matmul_identity():
    g = G.Graph()
    a = g.leaf("a", (3, 3))
    g.set_output(G.matmul(g.constant(np.eye(3)), a))
    arr = Stream.from_seed(0, "a").normal((3, 3))
    out = G.evaluate(g, {"a": arr}).output
    assert np.array_equal(out, arr)


def test_softmax_uniform_on_constant_row():
    g = G.Graph()
    x = g.leaf("x", (3,))
    g.set_output(G.softmax(x))
    out = G.evaluate(g, {"x": np.zeros(3)}).output
    assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


def test_backward_square_sum():
    g = G.Graph()
    x = g.leaf("x", (3,), grad=True)
    g.set_output(G.total(x * x))
    run = G.evaluate(g, {"x": np.array([1.0, 2.0, 3.0])})
    grads = G.backward(run)
    assert np.allclose(grads["x"], [2.0, 4.0, 6.0], atol=1e-15)


def test_backward_row_norm_analytic():
    g = G.Graph()
    x = g.leaf("x", (2,), grad=True)
    g.set_output(G.row_norm(x))
    run = G.evaluate(g, {"x": np.array([3.0, 4.0])})
    grads = G.backward(run)
    assert np.allclose(grads["x"], [0.6, 0.8], atol=1e-12)


def test_backward_requires_scalar_output():
    g = G.Graph()
    x = g.leaf("x", (3,), grad=True)
    g.set_output(x * x)
    run = G.evaluate(g, {"x": np.ones(3)})
    with pytest.raises(G.GraphError):
        G.backward(run)


def test_shape_mismatch_reports_at_build_time():
    g = G.Graph()
    a = g.leaf("a", (2, 3))
    b = g.leaf("b", (2, 3))
    with pytest.raises(G.GraphError):
        G.matmul(a, b)


def test_non_finite_binding_rejected():
    g = G.Graph()
    x = g.leaf("x", (2,))
    g.set_output(G.total(x))
    with pytest.raises(G.NonFiniteError):
        G.evaluate(g, {"x": np.array([1.0, np.nan])})


def test_layer_norm_refuses_a_row_whose_variance_overflows():
    """A row of +-1e200s is finite, but its variance is not: its inverse
    deviation would be 0, and the row would come out as zeros."""
    g = G.Graph()
    x = g.leaf("x", (2, 4))
    g.set_output(G.layer_norm(x))
    with np.errstate(over="ignore"), pytest.raises(G.NonFiniteError, match="layer_norm"):
        G.evaluate(g, {"x": np.array([[1e200, -1e200, 1e200, -1e200], [1.0, 2.0, 3.0, 4.0]])})


def test_jvp_square():
    g = G.Graph()
    x = g.leaf("x", (1,), grad=True)
    g.set_output(G.total(x * x))
    out, tan = G.jvp(g, {"x": np.array([3.0])}, {"x": np.array([1.0])})
    assert float(out) == 9.0
    assert float(tan) == pytest.approx(6.0, abs=1e-12)


def test_jvp_linear_map():
    g = G.Graph()
    x = g.leaf("x", (1, 3), grad=True)
    a = g.constant(np.arange(9.0).reshape(3, 3))
    g.set_output(G.matmul(x, a))
    v = np.array([[1.0, -2.0, 0.5]])
    _, tan = G.jvp(g, {"x": np.zeros((1, 3))}, {"x": v})
    assert np.allclose(tan, v @ np.arange(9.0).reshape(3, 3), atol=1e-15)


def test_jvp_row_norm_directional():
    g = G.Graph()
    x = g.leaf("x", (2,), grad=True)
    g.set_output(G.row_norm(x))
    _, tan = G.jvp(g, {"x": np.array([3.0, 4.0])}, {"x": np.array([1.0, 0.0])})
    assert float(tan) == pytest.approx(0.6, abs=1e-12)


def test_jvp_missing_tangent_for_influencing_leaf():
    g = G.Graph()
    x = g.leaf("x", (2,), grad=True)
    y = g.leaf("y", (2,), grad=True)
    g.set_output(G.total(x * y))
    with pytest.raises(G.GraphError):
        G.jvp(g, {"x": np.ones(2), "y": np.ones(2)}, {"x": np.ones(2)})


def test_grad_check_linear_is_exact():
    """Dyadic inputs, weights and step make every operation exact, on any
    BLAS kernel."""
    g = G.Graph()
    x = g.leaf("x", (4,), grad=True)
    w = g.constant(np.array([[3.0], [-1.5], [0.25], [2.0]]))
    g.set_output(G.total(G.matmul(G.reshape(x, (1, 4)), w)))
    err = G.grad_check(g, {"x": np.array([1.0, -2.0, 0.5, 3.0])}, step=2.0 ** -10)
    assert err == 0.0


def test_grad_check_silu():
    g = G.Graph()
    x = g.leaf("x", (1,), grad=True)
    g.set_output(G.total(G.silu(x)))
    err = G.grad_check(g, {"x": np.array([0.5])}, step=1e-6)
    assert err <= 1e-5


def test_grad_check_row_norm_near_zero():
    g = G.Graph()
    x = g.leaf("x", (3,), grad=True)
    g.set_output(G.total(G.row_norm(x, eps=1e-3)))
    err = G.grad_check(g, {"x": np.array([1e-2, -2e-2, 1.5e-2])}, step=1e-6)
    assert err <= 1e-4


def test_grad_check_fails_a_nan_gradient():
    """The norm's gradient at zero without eps is 0/0: a NaN is no error of 0."""
    def build(g, pt):
        return G.row_norm(g.leaf("x", (3,), grad=True), eps=0.0)

    def point(s):
        return {"x": np.zeros(3)}

    g = G.Graph()
    g.set_output(G.total(build(g, None)))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert G.grad_check(g, point(None), step=1e-6) == np.inf
        result = verify._check_case("row_norm-at-zero", build, point, 1, verify.FD_TOL)
    assert result.worst == np.inf and not result.passed
    assert not verify.CheckResult("nan", np.nan, verify.FD_TOL, 1).passed


@pytest.mark.parametrize("kind", ["layer_norm", "softmax", "silu"])
def test_grad_check_rowwise_primitives(kind):
    op = {"layer_norm": G.layer_norm, "softmax": G.softmax, "silu": G.silu}[kind]
    worst = 0.0
    for trial in range(20):
        g = G.Graph()
        x = g.leaf("x", (2, 5), grad=True)
        w = g.constant(Stream.from_seed(trial, "w").normal((5, 1)))
        g.set_output(G.mean(G.matmul(op(x), w)))
        pt = {"x": Stream.from_seed(trial, "x").normal((2, 5))}
        worst = max(worst, G.grad_check(g, pt, step=1e-6))
    assert worst <= 1e-5


def test_determinism_bitwise():
    def run_once():
        g = G.Graph()
        x = g.leaf("x", (4, 6), grad=True)
        w = g.constant(Stream.from_seed(5, "w").normal((6, 6)))
        h = G.silu(G.matmul(x, w))
        ln = G.layer_norm(h)
        g.set_output(G.total(ln * ln))
        pt = {"x": Stream.from_seed(6, "x").normal((4, 6))}
        run = G.evaluate(g, pt)
        return float(run.output), G.backward(run)["x"]

    o1, g1 = run_once()
    o2, g2 = run_once()
    assert o1 == o2
    assert np.array_equal(g1, g2)


def test_concat_narrow_roundtrip_gradient():
    g = G.Graph()
    a = g.leaf("a", (2, 3), grad=True)
    b = g.leaf("b", (2, 2), grad=True)
    picked = G.narrow(G.concat([a, b], axis=1), 1, 2, 2)
    g.set_output(G.total(picked * picked))
    pt = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones((2, 2))}
    run = G.evaluate(g, pt)
    grads = G.backward(run)
    expect_a = np.zeros((2, 3))
    expect_a[:, 2] = 2.0 * pt["a"][:, 2]
    expect_b = np.zeros((2, 2))
    expect_b[:, 0] = 2.0 * pt["b"][:, 0]
    assert np.allclose(grads["a"], expect_a, atol=1e-15)
    assert np.allclose(grads["b"], expect_b, atol=1e-15)


def test_broadcast_gradient_sums():
    g = G.Graph()
    b = g.leaf("b", (3,), grad=True)
    g.set_output(G.total(G.broadcast_to(b, (4, 3))))
    run = G.evaluate(g, {"b": np.zeros(3)})
    grads = G.backward(run)
    assert np.array_equal(grads["b"], np.full(3, 4.0))


def _random_composite(seed: int, fd_friendly: bool = False):
    """A random composite over the primitive set, kept at O(1) scale.

    With fd_friendly the op pool drops softmax, whose double application
    squashes gradients below what finite differences resolve.
    """
    s = Stream.from_seed(seed, "graph")
    g = G.Graph()
    x = g.leaf("x", (3, 4), grad=True)
    y = g.leaf("y", (4, 4), grad=True)
    h = G.layer_norm(G.matmul(x, y))
    ops = [lambda n: G.silu(n),
           lambda n: n + G.silu(n),
           lambda n: G.layer_norm(n * n),
           lambda n: G.scale(n, 0.7)]
    if not fd_friendly:
        ops.append(lambda n: G.softmax(n))
    for pick in s.integers(len(ops), (3,)):
        h = ops[int(pick)](h)
    # constant mixing keeps the reduction sensitive to every input
    h = G.matmul(h, g.constant(s.child("mix").normal((4, 3))))
    red = [lambda n: G.total(n * n), lambda n: G.total(G.row_norm(n, eps=1e-6))]
    out = red[int(s.integers(len(red)))](h)
    g.set_output(out)
    pt = {"x": s.child("x").normal((3, 4)), "y": s.child("y").normal((4, 4))}
    return g, pt


def test_reverse_forward_consistency_on_random_graphs():
    """<grad, tangent> must equal the jvp along that tangent."""
    for seed in range(40):
        g, pt = _random_composite(seed)
        run = G.evaluate(g, pt)
        grads = G.backward(run)
        tangents = {k: Stream.from_seed(seed, "tan/" + k).normal(v.shape)
                    for k, v in pt.items()}
        dot = sum(float((grads[k] * tangents[k]).sum()) for k in pt)
        fwd = float(G.jvp(g, pt, tangents)[1])
        denom = max(abs(dot), abs(fwd), 1e-8)
        assert abs(dot - fwd) / denom <= 1e-8


def test_grad_check_on_random_graphs():
    for seed in range(10):
        g, pt = _random_composite(seed, fd_friendly=True)
        assert G.grad_check(g, pt, step=1e-6) <= 1e-5


def _linear_graph(fused: bool, lead: tuple[int, ...], k: int, n: int, mix: np.ndarray):
    """total((x @ w + b) * mix) as one affine node or as matmul+broadcast+add."""
    g = G.Graph()
    x = g.leaf("x", lead + (k,), grad=True)
    w = g.leaf("w", (k, n), grad=True)
    b = g.leaf("b", (n,), grad=True)
    if fused:
        out = G.affine(x, w, b)
    else:
        out = G.matmul(x, w) + G.broadcast_to(b, lead + (n,))
    g.set_output(G.total(out * g.constant(mix)))
    return g, out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_affine_bitwise_equals_matmul_broadcast_add(lead, k, n, seed):
    lead = tuple(lead)
    s = Stream.from_seed(seed, "affine")
    mix = s.child("mix").normal(lead + (n,))
    pt = {"x": s.child("x").normal(lead + (k,)), "w": s.child("w").normal((k, n)),
          "b": s.child("b").normal((n,))}
    tangents = {name: s.child("tan/" + name).normal(v.shape) for name, v in pt.items()}
    results = []
    for fused in (True, False):
        g, out = _linear_graph(fused, lead, k, n, mix)
        run = G.evaluate(g, pt)
        grads = G.backward(run)
        total_jvp = G.jvp(g, pt, tangents)
        g.set_output(out)   # the jvp at the affine node itself
        results.append([run.value(out), run.output, grads["x"], grads["w"], grads["b"],
                        *G.jvp(g, pt, tangents), *total_jvp])
    for fused, triple in zip(*results):
        assert fused.shape == triple.shape
        assert fused.tobytes() == triple.tobytes()


def test_affine_bad_shapes_fail_at_build_time():
    g = G.Graph()
    x2, x1 = g.leaf("x2", (4, 3)), g.leaf("x1", (3,))
    w, w3 = g.leaf("w", (3, 2)), g.leaf("w3", (1, 3, 2))
    b = g.leaf("b", (2,))
    cases = [(x1, w, b), (x2, w3, b), (x2, g.leaf("wk", (5, 2)), b),
             (x2, w, g.leaf("b3", (3,))), (x2, w, g.leaf("b12", (1, 2)))]
    for args in cases:
        with pytest.raises(G.GraphError, match="affine"):
            G.affine(*args)
    assert all(node.kind == "leaf" for node in g.nodes)   # nothing was appended


def test_linear_emits_one_affine_node():
    g = G.Graph()
    x = g.leaf("x", (2, 4, 3))
    out = nn.build_linear({"l.w": g.leaf("w", (3, 5)), "l.b": g.leaf("b", (5,))}, "l", x)
    assert [n.kind for n in g.nodes[3:]] == ["affine"] and out.shape == (2, 4, 5)


def test_set_output_after_a_run_compiles_the_plan_of_the_new_output():
    g = G.Graph()
    x = g.leaf("x", (3,), grad=True)
    sq = x * x
    g.set_output(G.total(sq))
    pt = {"x": np.array([1.0, 2.0, 3.0])}
    assert float(G.evaluate(g, pt).output) == 14.0
    g.set_output(sq)
    run = G.evaluate(g, pt)
    assert run.output_node is sq and np.array_equal(run.output, [1.0, 4.0, 9.0])
    assert np.array_equal(G.jvp(g, pt, {"x": np.ones(3)})[1], [2.0, 4.0, 6.0])


# ---------------------------------------------------------------------------
# output-only evaluation: graphs without grad leaves

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class _NoGradGraph(G.Graph):
    """A graph whose leaves never take a gradient, so its runs are output-only."""

    def leaf(self, name, shape, grad=False, param=None):
        return super().leaf(name, shape, param=param)


def _reference_output(g, pt):
    return R.evaluate(g, pt)[0][g.output.nid]


@pytest.mark.parametrize("name", sorted(verify._primitive_cases()))
def test_output_only_equals_retained_on_primitive_cases(name):
    build, point = verify._primitive_cases()[name]
    for trial in range(5):
        s = Stream.from_seed(trial, f"keep/{name}")
        pt = point(s)
        graphs = []
        for g in (G.Graph(), _NoGradGraph()):
            out = build(g, pt)
            graphs.append((g, out, verify._mix_reduce(g, out, s)))
        (full_g, *full_nodes), (lean_g, *lean_nodes) = graphs
        for full_node, node in zip(full_nodes, lean_nodes):
            full_g.set_output(full_node)
            lean_g.set_output(node)
            run = G.evaluate(lean_g, pt)
            assert run.aux is None
            assert _same_bits(run.output, G.evaluate(full_g, pt).output)


def _randomize(params, seed: int) -> None:
    s = Stream.from_seed(seed, "randomize")
    for name, p in params.items():
        p.value = 0.3 * s.child(name).normal(p.value.shape)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(heads.HEAD_KINDS), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_output_only_equals_retained_on_head_eval_graph(kind, rows, seed):
    head = heads.Head(heads.HeadConfig(kind=kind, width=16, depth=2), seed=0)
    _randomize(head.params, seed)
    s = Stream.from_seed(seed, "inputs")
    inp = s.child("inp").normal((rows, head.cfg.input_dim))
    cond = s.child("cond").normal((rows, head.cfg.cond_dim))
    full = _reference_output(head._eval_graph(rows), {"inp": inp, "cond": cond})
    assert _same_bits(head.forward_values(inp, cond), full)


@pytest.mark.parametrize("bsz", [1, 3])
def test_output_only_equals_retained_on_backbone_graph(bsz, monkeypatch):
    cfg = MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                    head_width=16, head_depth=1)
    model = MarModel(cfg, seed=bsz)
    _randomize(model.params, bsz)
    runs = []
    real = G.evaluate

    def spy(graph, bindings):
        run = real(graph, bindings)
        runs.append((run, _reference_output(graph, bindings)))
        return run

    monkeypatch.setattr(G, "evaluate", spy)
    s = Stream.from_seed(bsz, "batch")
    latents = s.child("latents").normal((bsz, cfg.seq_len, LATENT_DIM))
    masked = s.child("mask").uniform((bsz, cfg.seq_len)) < 0.5
    h = model.represent(latents, masked, np.arange(bsz) % N_CLASSES)
    [(front, front_full), (run, full)] = runs   # the front, then the last block's output half
    assert front.aux is None and _same_bits(front.output, front_full)
    assert run.aux is None and _same_bits(run.output, full)
    assert _same_bits(h.reshape(run.output.shape), full)


def _reference_layer_norm(x):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + G.LAYER_NORM_EPS))


def _reference_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


REFERENCE_KERNELS = {
    "silu": (G.silu, lambda x: x * (0.5 * np.tanh(0.5 * x) + 0.5)),
    "layer_norm": (G.layer_norm, _reference_layer_norm),
    "softmax": (G.softmax, _reference_softmax),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(REFERENCE_KERNELS)),
       st.lists(st.integers(1, 6), min_size=1, max_size=3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_in_place_kernels_equal_their_reference_formulas(kind, shape, transposed, seed):
    """Same operations in the same order, also on a non-contiguous (view) input."""
    op, reference = REFERENCE_KERNELS[kind]
    x = 3.0 * Stream.from_seed(seed, "x").normal(tuple(shape))
    expect = reference(np.transpose(x) if transposed else x)
    for grad in (True, False):
        g = G.Graph()
        node = g.leaf("x", x.shape, grad=grad)
        if transposed:
            node = G.transpose(node, tuple(reversed(range(x.ndim))))
        g.set_output(op(node))
        run = G.evaluate(g, {"x": x})
        assert (run.aux is None) != grad
        assert _same_bits(run.output, expect)


def _layer_chain(grad: bool = True):
    g = G.Graph()
    x = g.leaf("x", (3, 5), grad=grad)
    h = G.scale(x, 1.3)
    fed = [op(src) for src in (x, h) for op in (G.silu, G.layer_norm, G.softmax)]
    fed.append(x * h)             # both sources are read again after the kernels
    joined = G.concat(fed, axis=1)
    g.set_output(G.total(joined * joined))
    return g, h


def test_output_only_evaluation_holds_only_the_output():
    g, h = _layer_chain(grad=False)
    pt = {"x": Stream.from_seed(0, "x").normal((3, 5))}
    run = G.evaluate(g, pt)
    assert run.aux is None
    assert [nid for nid, v in enumerate(run.values) if v is not None] == [g.output.nid]
    assert _same_bits(run.output, G.evaluate(_layer_chain()[0], pt).output)
    with pytest.raises(G.GraphError, match="no value"):
        run.value(h)
    assert G.backward(run) == {}
    out, _ = G.jvp(g, pt, {"x": np.ones((3, 5))})
    assert _same_bits(out, run.output)


def _release_lists(g, out):
    """Per node up to ``out``, made the output of ``g``, the slots its plan
    drops after it: ``(kept, free)``, ``kept`` None for an output-only plan."""
    g.set_output(out)
    plan = G._plan(g)
    free, kept = [()] * (out.nid + 1), [()] * (out.nid + 1)
    for step in plan.steps:
        assert step.rule is G._RULES[step.node.kind] and step.ins == step.node.inputs
        free[step.slot], kept[step.slot] = step.free, step.kept
    return (kept if plan.retained else None), free


def test_release_plan_frees_each_value_after_its_last_reader():
    g = G.Graph()
    x = g.leaf("x", (2,))
    y = G.silu(x)
    z = x * y
    G.scale(x, 2.0)               # read by nothing: freed right after it is made
    g.set_output(G.total(z))
    assert _release_lists(g, g.output) == (None, [(), (), (1,), (0, 3), (2,)])
    assert G._plan(g) is G._plan(g)
    assert _release_lists(g, z) == (None, [(), (), (0, 1)])
    g = G.Graph()
    x = g.leaf("x", (2,), grad=True)
    z = x * G.silu(x)             # mul keeps its inputs, silu its output
    g.set_output(G.total(G.scale(z, 2.0)))
    assert _release_lists(g, g.output) == ([(), (), (), (2,), (3,)],
                                           [(), (), (0, 1), (2,), (3,)])


def _arrays(args):
    """Every array among the arguments of a rule, inside lists and dicts too."""
    for a in args:
        if isinstance(a, np.ndarray):
            yield a
        elif isinstance(a, (list, tuple)):
            yield from _arrays(a)
        elif isinstance(a, dict):
            yield from _arrays(a.values())


def _write_checked_rules(monkeypatch):
    """Wraps the forward, backward and jvp rule of every ``_RULES`` entry so
    that each call asserts it left every array it was given unchanged: the
    inputs of a forward; the adjoint or tangents, retained values and kernel
    caches of a backward or jvp. Returns the (value, cache) copies the forwards
    made, in call order, and the set of (kind, rule) pairs called."""
    produced, called = [], set()

    def checked(kind, part, rule):
        def call(*args):
            given = list(_arrays(args))
            before = [a.copy() for a in given]
            out = rule(*args)
            assert all(_same_bits(a, b) for a, b in zip(given, before)), (kind, part)
            called.add((kind, part))
            if part == "forward":
                produced.append((out.copy(), {k: v.copy() for k, v in (args[2] or {}).items()}))
            return out
        return call

    for kind, rule in G._RULES.items():
        monkeypatch.setitem(G._RULES, kind, rule._replace(**{
            part: checked(kind, part, getattr(rule, part))
            for part in ("forward", "backward", "jvp") if getattr(rule, part) is not None}))
    return produced, called


@pytest.mark.parametrize("grad", [True, False])
def test_kernels_never_write_into_their_inputs(grad, monkeypatch):
    g, _ = _layer_chain(grad)
    x = Stream.from_seed(1, "x").normal((3, 5))
    x_before = x.copy()
    produced, called = _write_checked_rules(monkeypatch)
    run = G.evaluate(g, {"x": x})
    assert _same_bits(x, x_before)
    computed = [n.nid for n in g.nodes if n.kind not in ("leaf", "const")]
    assert len(computed) == len(produced)
    if grad:
        G.backward(run)
        G.jvp(g, {"x": x}, {"x": np.ones((3, 5))})
        assert {part for _, part in called} == {"forward", "backward", "jvp"}
        held = {nid for nid, v in enumerate(run.values) if v is not None}
        assert held == _expected_retained(g, g.output)
        for nid, (value, cache) in zip(computed, produced):
            if nid in held:
                assert _same_bits(run.values[nid], value)
            assert all(_same_bits(run.aux[nid][k], v) for k, v in cache.items())
        assert _same_bits(run.values[0], x_before)


def test_no_rule_writes_into_what_it_reads(monkeypatch):
    """Every rule of every kind runs under the write check; a linear kind's
    forward also runs on the tangents there, as its jvp."""
    _, called = _write_checked_rules(monkeypatch)
    for name, (build, point) in verify._primitive_cases().items():
        s = Stream.from_seed(0, f"writes/{name}")
        pt = point(s)
        g = G.Graph()
        g.set_output(verify._mix_reduce(g, build(g, pt), s))
        run = G.evaluate(g, pt)
        G.backward(run)
        G.jvp(g, pt, _tangents(pt, s))
    assert called == {(kind, part) for kind, rule in G._RULES.items()
                      for part in ("forward", "backward", "jvp") if getattr(rule, part)}


# ---------------------------------------------------------------------------
# lean retained evaluation and reverse sweep, against the retain-everything
# reference in graph_reference.py

def _assert_matches_reference(g, pt, tangents):
    """Lean output, gradients and jvp equal the reference's, bit for bit."""
    run = G.evaluate(g, pt)
    values, aux = R.evaluate(g, pt)
    assert _same_bits(run.output, values[g.output.nid])
    grads, expect = G.backward(run), R.backward(g, values, aux)
    assert sorted(grads) == sorted(expect)
    for name in expect:
        assert _same_bits(grads[name], expect[name]), name
    out, tan = G.jvp(g, pt, tangents)
    assert _same_bits(out, values[g.output.nid])
    assert _same_bits(tan, R.jvp(g, values, aux, tangents))


def _tangents(pt, s):
    return {k: s.child("tan/" + k).normal(np.shape(v)) for k, v in pt.items()}


def _weights(g):
    """The current value of each weight leaf of ``g``, by name."""
    return {name: leaf.attrs["param"]().value for name, leaf in g.leaves.items()
            if leaf.attrs["param"] is not None}


@pytest.mark.parametrize("name", sorted(verify._primitive_cases()))
def test_lean_sweeps_equal_reference_on_primitive_cases(name):
    build, point = verify._primitive_cases()[name]
    for trial in range(3):
        s = Stream.from_seed(trial, f"lean/{name}")
        pt = point(s)
        g = G.Graph()
        g.set_output(verify._mix_reduce(g, build(g, pt), s))
        _assert_matches_reference(g, pt, _tangents(pt, s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_lean_sweeps_equal_reference_on_random_graphs(seed):
    g, pt = _random_composite(seed)
    _assert_matches_reference(g, pt, _tangents(pt, Stream.from_seed(seed, "lean")))


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_lean_sweeps_equal_reference_on_toy_train_graph(kind):
    model = ToyHeadModel(heads.HeadConfig(kind=kind, width=16, depth=2), seed=1)
    _randomize(model.params, 1)
    s = Stream.from_seed(1, f"toy/{kind}")
    y = s.child("y").normal((12, 2))
    aux = model.head.loss_bindings(y, s.child("loss"), context=model.context_rows(12))
    g = model._loss_graph(aux)
    _assert_matches_reference(g, aux, _tangents({**aux, **_weights(g)}, s))


def _mar_train_graph(head_kind="energy"):
    """A distilled MAR student, its train graph and the bindings of one step;
    the graph reads the student's weights while the caller keeps the student."""
    cfg = MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                    head_kind=head_kind, head_width=16, head_depth=1)
    student, teacher = MarModel(cfg, seed=1), MarModel(cfg, seed=2)
    _randomize(student.params, 1)
    s = Stream.from_seed(3, "mar")
    latents = s.child("latents").normal((3, cfg.seq_len, LATENT_DIM))
    bindings = student.step_bindings(latents, np.arange(3) % N_CLASSES,
                                     s.child("step"), teacher)
    g, nodes = student._train_graph(bindings, 0.5, False)
    return student, g, nodes, bindings


@pytest.mark.parametrize("head_kind", ["energy", "diffusion"])
def test_lean_sweeps_equal_reference_on_mar_train_graph(head_kind):
    student, g, _, pt = _mar_train_graph(head_kind)
    _assert_matches_reference(g, pt, _tangents({**pt, **_weights(g)}, Stream.from_seed(4, "mar")))


# ---------------------------------------------------------------------------
# weight leaves: read from their parameters, checked where they are written,
# with zero tangents in jvp

def _head_point(kind, rows, seed):
    """A head with random weights, its eval graph and a binding of each data leaf."""
    head = heads.Head(heads.HeadConfig(kind=kind, width=16, depth=2), seed=0)
    _randomize(head.params, seed)
    s = Stream.from_seed(seed, f"point/{kind}")
    pt = {"inp": s.child("inp").normal((rows, head.cfg.input_dim)),
          "cond": s.child("cond").normal((rows, head.cfg.cond_dim))}
    return head, head._eval_graph(rows), pt


def test_a_cached_graph_reads_each_weight_write():
    head, g, pt = _head_point("flow", 4, 3)
    first = G.evaluate(g, pt).output
    p = head.params["head.block1.fc1.w"]
    p.value = p.value + 0.25   # a new array, which no run binds
    second = G.evaluate(g, pt).output
    assert not _same_bits(first, second)
    fresh = heads.Head(head.cfg, seed=0)
    for name, q in fresh.params.items():
        q.value = head.params[name].value.copy()
    assert _same_bits(second, fresh.forward_values(pt["inp"], pt["cond"]))


def test_binding_a_weight_leaf_is_an_error_naming_it():
    head, g, pt = _head_point("energy", 3, 4)
    bound = {**pt, "head.out.b": head.params["head.out.b"].value}
    with pytest.raises(G.GraphError, match=r"not bindings: \['head.out.b'\]"):
        G.evaluate(g, bound)
    with pytest.raises(G.GraphError, match=r"not bindings: \['head.out.b'\]"):
        G.jvp(g, bound, pt)


def test_a_graph_does_not_keep_its_weights_alive():
    """A graph is a reference cycle, freed only by the cyclic collector; the
    weights it reads go with their model."""
    head, g, pt = _head_point("energy", 3, 5)
    weight = weakref.ref(head.params["head.inp.w"])
    del head
    assert weight() is None
    with pytest.raises(G.GraphError, match="weight leaf 'head.inp.w': its parameter no longer"):
        G.evaluate(g, pt)


def test_inference_evaluate_checks_finiteness_on_data_leaves_only():
    head, g, pt = _head_point("diffusion", 4, 0)
    assert [n for n, leaf in g.leaves.items() if leaf.attrs["param"] is None] == ["inp", "cond"]
    assert [n for n, leaf in g.leaves.items() if leaf.attrs["param"] is not None] \
        == head.params.names()
    for name in ("inp", "cond"):
        bad = pt[name].copy()
        bad[0, 0] = np.inf
        with pytest.raises(G.NonFiniteError, match=f"leaf '{name}': non-finite binding"):
            G.evaluate(g, {**pt, name: bad})


def test_a_weight_is_checked_where_it_is_written():
    """The faults no run looks for in a weight: its parameter rejects them."""
    head, g, pt = _head_point("diffusion", 4, 0)
    p = head.params["head.block0.fc1.w"]
    weight = p.value.copy()
    weight[0, 0] = np.nan
    with pytest.raises(G.NonFiniteError, match="parameter 'head.block0.fc1.w' is non-finite"):
        p.value = weight
    with pytest.raises(ValueError, match="parameter 'head.block0.fc1.w' has shape"):
        p.value = weight[:1]
    assert _same_bits(G.evaluate(g, pt).output, _reference_output(g, pt))


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_jvp_without_weight_tangents_equals_explicit_zero_tangents(kind):
    head, g, pt = _head_point(kind, 5, 1)
    s = Stream.from_seed(1, f"tangent/{kind}")
    tangents = {k: s.child(k).normal(pt[k].shape) for k in ("inp", "cond")}
    zeros = {name: np.zeros_like(v) for name, v in _weights(g).items()}
    out, tan = G.jvp(g, pt, tangents)
    out0, tan0 = G.jvp(g, pt, {**tangents, **zeros})
    assert _same_bits(out, out0) and _same_bits(tan, tan0)
    values, aux = R.evaluate(g, pt)
    assert _same_bits(tan, R.jvp(g, values, aux, {**tangents, **zeros}))
    with pytest.raises(G.GraphError, match="missing tangents for influencing leaves: .'cond'."):
        G.jvp(g, pt, {"inp": tangents["inp"]})


ZERO_TANGENT_OPS = {   # name -> (op, shape of a, shape of b)
    "matmul": (G.matmul, (3, 4), (4, 2)),
    "multiply": (G.multiply, (3, 4), (3, 4)),
    "add": (G.add, (3, 4), (3, 4)),
    "concatenate": (lambda a, b: G.concat([a, b], axis=1), (3, 2), (3, 3)),
    "affine": (lambda a, b: G.affine(a, b, b.graph.leaves["bias"]), (3, 4), (4, 2)),
}


@pytest.mark.parametrize("name", sorted(ZERO_TANGENT_OPS))
@pytest.mark.parametrize("weights", [("a",), ("b",), ("a", "b")])
def test_jvp_skips_the_terms_of_weights_without_tangents(name, weights):
    """A weight on either side (for affine, and the bias) with its tangent
    omitted gives the bits of an explicit zero tangent."""
    op, sa, sb = ZERO_TANGENT_OPS[name]
    s = Stream.from_seed(2, f"zero/{name}")
    pt = {"a": s.child("a").normal(sa), "b": s.child("b").normal(sb),
          "bias": s.child("bias").normal((sb[-1],))}
    params = nn.ParameterSet()
    for w in weights + ("bias",):
        params.add(w, pt[w])
    data = {k: v for k, v in pt.items() if k not in params}
    g = G.Graph()
    leaves = {**G.declare(g, data), **G.declare(g, params)}
    g.set_output(verify._mix_reduce(g, op(leaves["a"], leaves["b"]), s))
    tangents = {k: s.child("tan/" + k).normal(v.shape) for k, v in data.items()}
    zeros = {k: np.zeros_like(pt[k]) for k in params.names()}
    out, tan = G.jvp(g, data, tangents)
    out0, tan0 = G.jvp(g, data, {**tangents, **zeros})
    assert _same_bits(out, out0) and _same_bits(tan, tan0)
    if not tangents:   # every leaf is a weight: the tangent is a structural zero
        assert _same_bits(tan, np.zeros(()))


def test_forward_with_jvp_binds_no_weight_tangents(monkeypatch):
    head, _, pt = _head_point("meanflow", 3, 2)
    bound, jvp = [], G.jvp

    def spy(graph, bindings, tangents):
        bound.append(sorted(tangents))
        return jvp(graph, bindings, tangents)

    monkeypatch.setattr(G, "jvp", spy)
    head.forward_with_jvp(pt["inp"], pt["cond"], pt["inp"], pt["cond"])
    assert bound == [["cond", "inp"]]


def _expected_retained(g, out):
    """The retention table, spelled out per node kind."""
    held = set()
    for node in g.nodes[: out.nid + 1]:
        if (node.nid == out.nid or node.kind in ("leaf", "const") or node.shape == ()
                or node.kind in ("softmax", "row_norm", "silu", "layer_norm")):
            held.add(node.nid)
        if node.kind in ("affine", "matmul", "mul", "row_norm"):
            held.update(node.inputs)
    return held


def _held(run):
    return {nid for nid, v in enumerate(run.values) if v is not None}


def test_retained_evaluation_holds_the_table_on_a_hand_graph():
    g = G.Graph()
    x = g.leaf("x", (2, 3), grad=True)           # 0   leaf
    c = g.constant(np.ones((3, 3)))               # 1   const
    h = G.scale(x, 2.0)                           # 2   read only by matmul
    m = G.matmul(h, c)                            # 3   read only by silu
    a = G.silu(m)                                 # 4   silu keeps its output
    t = G.transpose(a, (1, 0))                    # 5   read only by reshape
    r = G.reshape(t, (6,))                        # 6   read only by sum
    n = G.row_norm(G.add(a, a))                   # 7 add (row_norm input), 8 row_norm
    sq = G.scale(n, 0.5) * n                      # 9 scale (mul input), 10 mul
    g.set_output(G.total(r) + G.total(sq))        # 11, 12 sum (0-d), 13 add (output)
    pt = {"x": Stream.from_seed(0, "x").normal((2, 3))}
    run = G.evaluate(g, pt)
    assert _held(run) == {0, 1, 2, 4, 7, 8, 9, 11, 12, 13} == _expected_retained(g, g.output)
    for dropped in (m, t, r, sq):
        with pytest.raises(G.GraphError, match="no value"):
            run.value(dropped)
    g.set_output(r)
    assert _held(G.evaluate(g, pt)) == {0, 1, 2, 4, 6}


def test_retained_evaluation_holds_the_table_on_mar_train_graph():
    student, g, nodes, pt = _mar_train_graph()
    run = G.evaluate(g, pt)
    held = _held(run)
    assert held == _expected_retained(g, g.output)
    assert {nodes["energy"].nid, nodes["distill"].nid} <= held
    assert len(held) < len(g.nodes)
    with pytest.raises(G.GraphError, match="no value"):
        run.value(nodes["h"])


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_graphs_choose_output_only_or_retained_runs(kind):
    """Inference graphs (no grad leaf) run output-only; train graphs keep
    exactly the retention set."""
    model = ToyHeadModel(heads.HeadConfig(kind=kind, width=16, depth=2), seed=1)
    s = Stream.from_seed(2, f"mode/{kind}")
    head = model.head
    run = G.evaluate(head._eval_graph(5), {"inp": s.child("inp").normal((5, head.cfg.input_dim)),
                                           "cond": s.child("cond").normal((5, head.cfg.cond_dim))})
    assert run.aux is None and _held(run) == {run.output_node.nid}
    y = s.child("y").normal((12, 2))
    aux = head.loss_bindings(y, s.child("loss"), context=model.context_rows(12))
    g = model._loss_graph(aux)
    run = G.evaluate(g, aux)
    assert run.aux is not None and _held(run) == _expected_retained(g, g.output)


def test_backbone_runs_output_only_and_mar_train_graph_retained():
    cfg = MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                    head_width=16, head_depth=1)
    model = MarModel(cfg, seed=0)
    s = Stream.from_seed(0, "mode/mar")
    g = model._front_graph(2)
    run = G.evaluate(g, {"latents": s.child("latents").normal((2, cfg.seq_len, LATENT_DIM)),
                         "mask": np.ones((2, cfg.seq_len, 1)),
                         "onehot": np.eye(N_CLASSES + 1)[:2]})
    assert run.aux is None and _held(run) == {g.output.nid}
    g = model._finish_graph(3)
    run = G.evaluate(g, {"front": run.output[0, :3]})
    assert run.aux is None and _held(run) == {g.output.nid}
    student, g, _, pt = _mar_train_graph()
    run = G.evaluate(g, pt)
    assert run.aux is not None and _held(run) == _expected_retained(g, g.output)


def test_declare_makes_one_leaf_per_binding():
    g = G.Graph()
    leaves = G.declare(g, {"w": np.zeros((2, 3)), "s": np.asarray(0.5)}, grad=True)
    leaves.update(G.declare(g, {"x": [[1.0, 2.0]]}))
    assert list(leaves) == list(g.leaves) == ["w", "s", "x"]
    assert [(n.shape, n.needs_grad) for n in leaves.values()] == [
        ((2, 3), True), ((), True), ((1, 2), False)]
    with pytest.raises(G.GraphError, match="duplicate leaf name 'x'"):
        G.declare(g, {"x": np.zeros(1)})


def _record_training(monkeypatch):
    """Lists of (graph, bindings) per ``evaluate`` and of the parameter names
    per ``adam_step``, appended as a training step makes those calls."""
    runs, updated = [], []
    evaluate, adam_step = G.evaluate, nn.adam_step

    def recording_evaluate(graph, bindings):
        runs.append((graph, bindings))
        return evaluate(graph, bindings)

    def recording_adam_step(params, grads, **kwargs):
        updated.append(params.names())
        return adam_step(params, grads, **kwargs)

    monkeypatch.setattr(G, "evaluate", recording_evaluate)
    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    return runs, updated


def _assert_declared_from_bindings(g, runs, params, trained):
    """``g``'s data leaves are the bindings it ran with, named and shaped
    alike, its weight leaves the parameters of ``params``, and its grad
    leaves the weights the step updated."""
    [bindings] = [b for graph, b in runs if graph is g]
    data = {name: leaf for name, leaf in g.leaves.items() if leaf.attrs["param"] is None}
    assert sorted(data) == sorted(bindings)
    for name, leaf in data.items():
        assert leaf.shape == np.shape(bindings[name]), name
    assert [(name, leaf.attrs["param"]()) for name, leaf in g.leaves.items()
            if name not in data] == list(params.items())
    assert [name for name, leaf in g.leaves.items() if leaf.needs_grad] == trained


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
def test_toy_loss_graph_declares_the_bindings_it_runs_with(monkeypatch, kind):
    model = ToyHeadModel(heads.HeadConfig(kind=kind, width=16, depth=2), seed=1)
    runs, updated = _record_training(monkeypatch)
    model.train_step(Stream.from_seed(1, "y").normal((12, 2)), Stream.from_seed(1, "step"),
                     lr=1e-3, step_index=1, weight_decay=0.0)
    [trained] = updated
    assert trained == model.params.names()
    _assert_declared_from_bindings(model._train_graph[1], runs, model.params, trained)


# shortcut and mean-flow loss bindings need numpy context rows, which a MAR
# step has only inside its graph, so MAR trains the other three kinds
@pytest.mark.parametrize("head_kind", ["energy", "diffusion", "flow"])
def test_mar_train_graphs_declare_the_bindings_they_run_with(monkeypatch, head_kind):
    cfg = MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                    head_kind=head_kind, head_width=16, head_depth=1)
    student, teacher = MarModel(cfg, seed=1), MarModel(cfg, seed=2)
    latents = Stream.from_seed(3, "latents").normal((3, cfg.seq_len, LATENT_DIM))
    ids = np.arange(3) % N_CLASSES
    head_only = [n for n in student.params.names() if n.startswith("head.")]
    for with_teacher in (False, True):
        for frozen in (False, True):
            runs, updated = _record_training(monkeypatch)
            student.masked_training_step(
                latents, ids, Stream.from_seed(4, "step"), lam=0.5 if with_teacher else 0.0,
                teacher=teacher if with_teacher else None, frozen_backbone=frozen,
                lr=1e-3, weight_decay=0.0)
            [trained] = updated
            assert trained == (head_only if frozen else student.params.names())
            g, _ = student._train_graphs[(3, with_teacher, 0.5 if with_teacher else 0.0,
                                          frozen)]
            _assert_declared_from_bindings(g, runs, student.params, trained)
            assert ("h_teacher" in g.leaves) == with_teacher
    assert len(student._train_graphs) == 4


def _residual_chain(shape, depth=32):
    g = G.Graph()
    h = g.leaf("x", shape, grad=True)
    for _ in range(depth):
        h = h + G.silu(G.layer_norm(h))
    g.set_output(G.mean(h))
    return g


def _peak_bytes(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_backward_peak_memory_does_not_grow_with_depth():
    """Adjoints are freed as they are consumed: the reverse sweep over a
    32-layer residual chain peaks at a few layer tensors, not one per layer."""
    shape = (256, 256)
    run = G.evaluate(_residual_chain(shape), {"x": Stream.from_seed(0, "x").normal(shape)})
    peak = _peak_bytes(lambda: G.backward(run))
    assert peak <= 8 * (8 * shape[0] * shape[1]), peak / (8 * shape[0] * shape[1])


def test_jvp_peak_memory_does_not_grow_with_depth():
    """jvp frees each value, tangent and kernel cache after its last reader,
    also on a graph with grad leaves, whose evaluate would retain more."""
    shape = (256, 256)
    g, x = _residual_chain(shape), Stream.from_seed(0, "x").normal(shape)
    peak = _peak_bytes(lambda: G.jvp(g, {"x": x}, {"x": x}))
    assert peak <= 10 * (8 * shape[0] * shape[1]), peak / (8 * shape[0] * shape[1])
