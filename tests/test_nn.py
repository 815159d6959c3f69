import numpy as np
import pytest

from escore import graph as G
from escore import nn
from escore.rng import Stream


def test_linear_zero_weight_gives_bias_rows():
    g = G.Graph()
    x = g.leaf("x", (4, 3))
    w = g.constant(np.zeros((3, 2)))
    b = g.constant(np.array([5.0, -1.0]))
    g.set_output(nn.build_linear({"l.w": w, "l.b": b}, "l", x))
    out = G.evaluate(g, {"x": Stream.from_seed(0, "x").normal((4, 3))}).output
    assert np.array_equal(out, np.tile([5.0, -1.0], (4, 1)))


def test_linear_identity():
    g = G.Graph()
    x = g.leaf("x", (4, 3))
    g.set_output(nn.build_linear({"l.w": g.constant(np.eye(3)),
                                  "l.b": g.constant(np.zeros(3))}, "l", x))
    arr = Stream.from_seed(1, "x").normal((4, 3))
    assert np.array_equal(G.evaluate(g, {"x": arr}).output, arr)


def test_linear_hand_value():
    g = G.Graph()
    x = g.leaf("x", (1, 2))
    w = g.constant(np.array([[1.0, 0.0], [0.0, 2.0]]))
    b = g.constant(np.array([1.0, 1.0]))
    g.set_output(nn.build_linear({"l.w": w, "l.b": b}, "l", x))
    out = G.evaluate(g, {"x": np.array([[1.0, 2.0]])}).output
    assert np.array_equal(out, [[2.0, 5.0]])


def test_adaln_zero_init_is_bitwise_identity():
    params = nn.ParameterSet()
    block = nn.AdaLnResBlock("blk", width=8, cond_dim=3)
    block.register(params, seed=0)
    g = G.Graph()
    leaves = G.declare(g, params.bindings(), grad=True)
    x = g.leaf("x", (5, 8))
    cond = g.leaf("cond", (5, 3))
    g.set_output(block.build(leaves, x, cond))
    xa = Stream.from_seed(2, "x").normal((5, 8))
    ca = Stream.from_seed(2, "c").normal((5, 3))
    out = G.evaluate(g, {"x": xa, "cond": ca, **params.bindings()}).output
    assert np.array_equal(out, xa)


def test_adaln_nonzero_cond_changes_output():
    params = nn.ParameterSet()
    block = nn.AdaLnResBlock("blk", width=8, cond_dim=3)
    block.register(params, seed=0)
    params["blk.fc2.w"].value = nn.kaiming_uniform(9, "w2", (8, 8), 8)
    params["blk.cond.w"].value = nn.kaiming_uniform(9, "wc", (3, 16), 3)
    g = G.Graph()
    leaves = G.declare(g, params.bindings(), grad=True)
    x = g.leaf("x", (5, 8))
    cond = g.leaf("cond", (5, 3))
    g.set_output(block.build(leaves, x, cond))
    xa = Stream.from_seed(3, "x").normal((5, 8))
    out1 = G.evaluate(g, {"x": xa, "cond": np.zeros((5, 3)), **params.bindings()}).output
    out2 = G.evaluate(g, {"x": xa, "cond": np.ones((5, 3)), **params.bindings()}).output
    assert not np.array_equal(out1, out2)


def test_adaln_scalar_hand_evaluation():
    # width 1: LN(x) is identically 0, so out = x + w2*silu(b1) + b2 with
    # beta = cond * wc_beta + bc_beta entering through the hidden layer.
    params = nn.ParameterSet()
    block = nn.AdaLnResBlock("blk", width=1, cond_dim=1)
    block.register(params, seed=0)
    params["blk.fc1.w"].value = np.array([[2.0]])
    params["blk.fc1.b"].value = np.array([0.5])
    params["blk.fc2.w"].value = np.array([[1.5]])
    params["blk.fc2.b"].value = np.array([0.25])
    params["blk.cond.w"].value = np.array([[0.3, 0.7]])   # -> (gamma, beta)
    params["blk.cond.b"].value = np.array([0.0, 0.1])
    g = G.Graph()
    leaves = G.declare(g, params.bindings(), grad=True)
    x = g.leaf("x", (1, 1))
    cond = g.leaf("cond", (1, 1))
    g.set_output(block.build(leaves, x, cond))
    xv, cv = 0.8, -0.4
    out = G.evaluate(g, {"x": [[xv]], "cond": [[cv]], **params.bindings()}).output

    beta = cv * 0.7 + 0.1
    pre = 2.0 * beta + 0.5            # fc1 on LN(x)*(1+gamma)+beta = beta
    silu = pre / (1.0 + np.exp(-pre)) * 1.0
    expect = xv + 1.5 * silu + 0.25
    assert out[0, 0] == pytest.approx(expect, abs=1e-12)


def _tiny_transformer(seed=0, dim=8, heads=2, seq=4, batch=2):
    params = nn.ParameterSet()
    block = nn.TransformerBlock("tb", dim=dim, n_heads=heads)
    block.register(params, seed=seed)
    g = G.Graph()
    leaves = G.declare(g, params.bindings(), grad=True)
    x = g.leaf("x", (batch, seq, dim))
    g.set_output(block.build(leaves, x))
    [attn] = [n for n in g.nodes if n.kind == "softmax"]
    return params, g, attn


def test_transformer_dim_head_mismatch_is_config_error():
    with pytest.raises(ValueError):
        nn.TransformerBlock("tb", dim=10, n_heads=4)


def test_transformer_single_token_attends_itself():
    params, g, attn_node = _tiny_transformer(seq=1, batch=1)
    x = Stream.from_seed(5, "x").normal((1, 1, 8))
    g.set_output(attn_node)
    attn = G.evaluate(g, {"x": x, **params.bindings()}).output
    assert attn.shape == (1, 2, 1, 1)
    assert np.allclose(attn, 1.0, atol=1e-15)


def test_transformer_attention_rows_sum_to_one():
    params, g, attn_node = _tiny_transformer(seq=5, batch=3)
    x = Stream.from_seed(6, "x").normal((3, 5, 8))
    g.set_output(attn_node)
    attn = G.evaluate(g, {"x": x, **params.bindings()}).output
    assert attn.shape == (3, 2, 5, 5)
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def test_transformer_zero_out_proj_leaves_mlp_residual_only():
    params = nn.ParameterSet()
    block = nn.TransformerBlock("tb", dim=8, n_heads=2)
    block.register(params, seed=0)
    params["tb.wo.w"].value = np.zeros((8, 8))
    g = G.Graph()
    leaves = G.declare(g, params.bindings(), grad=True)
    x = g.leaf("x", (2, 4, 8))
    g.set_output(block.build(leaves, x))
    xa = Stream.from_seed(7, "x").normal((2, 4, 8))
    out = G.evaluate(g, {"x": xa, **params.bindings()}).output

    # reference: x + mlp(affine_ln(x)) with the same weights
    def ln(v):
        mu = v.mean(-1, keepdims=True)
        c = v - mu
        return c / np.sqrt((c * c).mean(-1, keepdims=True) + G.LAYER_NORM_EPS)

    m = ln(xa) * params["tb.ln2.g"].value + params["tb.ln2.b"].value
    h = m @ params["tb.mlp1.w"].value + params["tb.mlp1.b"].value
    h = h / (1.0 + np.exp(-h)) * 1.0 + 0.0
    ref = xa + h @ params["tb.mlp2.w"].value + params["tb.mlp2.b"].value
    assert np.allclose(out, ref, atol=1e-12)


def test_transformer_permutation_equivariance_on_identical_tokens():
    params, g, _ = _tiny_transformer(seq=2, batch=1)
    tok = Stream.from_seed(8, "tok").normal((8,))
    x = np.stack([tok, tok])[None]
    out = G.evaluate(g, {"x": x, **params.bindings()}).output
    assert np.allclose(out[0, 0], out[0, 1], atol=1e-12)


def test_adaln_and_transformer_pass_grad_check():
    params = nn.ParameterSet()
    block = nn.AdaLnResBlock("blk", width=4, cond_dim=2)
    block.register(params, seed=1)
    # non-degenerate weights so the check exercises every path
    params["blk.fc2.w"].value = nn.kaiming_uniform(11, "a", (4, 4), 4)
    params["blk.cond.w"].value = nn.kaiming_uniform(12, "b", (2, 8), 2)
    g = G.Graph()
    leaves = G.declare(g, params.bindings(), grad=True)
    x = g.leaf("x", (3, 4), grad=True)
    cond = g.leaf("cond", (3, 2), grad=True)
    mix = g.constant(Stream.from_seed(13, "mix").normal((4, 1)))
    g.set_output(G.mean(G.matmul(block.build(leaves, x, cond), mix)))
    pt = {"x": Stream.from_seed(14, "x").normal((3, 4)),
          "cond": Stream.from_seed(14, "c").normal((3, 2)), **params.bindings()}
    assert G.grad_check(g, pt, step=1e-6) <= 1e-5

    tparams, tg, _ = _tiny_transformer(seed=2, dim=4, heads=2, seq=3, batch=1)
    tg2 = G.Graph()
    leaves2 = G.declare(tg2, tparams.bindings(), grad=True)
    x2 = tg2.leaf("x", (1, 3, 4), grad=True)
    blk = nn.TransformerBlock("tb", dim=4, n_heads=2)
    mix2 = tg2.constant(Stream.from_seed(15, "mix").normal((4, 1)))
    tg2.set_output(G.mean(G.matmul(blk.build(leaves2, x2), mix2)))
    pt2 = {"x": Stream.from_seed(16, "x").normal((1, 3, 4)), **tparams.bindings()}
    assert G.grad_check(tg2, pt2, step=1e-6) <= 1e-5


def test_init_is_pure_function_of_seed_and_name():
    a = nn.kaiming_uniform(3, "layer.w", (4, 4), 4)
    b = nn.kaiming_uniform(3, "layer.w", (4, 4), 4)
    c = nn.kaiming_uniform(4, "layer.w", (4, 4), 4)
    d = nn.kaiming_uniform(3, "other.w", (4, 4), 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_adam_zero_grad_is_fixed_point():
    params = nn.ParameterSet()
    params.add("p", np.array([1.0, -2.0]))
    before = params["p"].value.copy()
    nn.adam_step(params, {"p": np.zeros(2)}, lr=0.1, weight_decay=0.0, t=1)
    assert np.array_equal(params["p"].value, before)


def test_adam_scalar_hand_recurrence():
    lr, b1, b2, eps = 0.01, 0.9, 0.95, 1e-8
    params = nn.ParameterSet()
    params.add("p", np.array([0.5]))
    gval = 0.3
    m = v = 0.0
    x = 0.5
    for t in range(1, 4):
        nn.adam_step(params, {"p": np.array([gval])}, lr=lr, beta1=b1, beta2=b2,
                     eps=eps, weight_decay=0.0, t=t)
        m = b1 * m + (1 - b1) * gval
        v = b2 * v + (1 - b2) * gval * gval
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert params["p"].value[0] == pytest.approx(x, abs=1e-15)
    # at t=1 the update direction is -lr * g/(|g| + eps) in the scalar case
    params2 = nn.ParameterSet()
    params2.add("p", np.array([0.5]))
    nn.adam_step(params2, {"p": np.array([gval])}, lr=lr, beta1=b1, beta2=b2,
                 eps=eps, weight_decay=0.0, t=1)
    assert params2["p"].value[0] == pytest.approx(0.5 - lr * gval / (abs(gval) + eps), abs=1e-9)


def test_adam_decoupled_decay_shrinks():
    params = nn.ParameterSet()
    params.add("p", np.array([2.0]))
    nn.adam_step(params, {"p": np.zeros(1)}, lr=0.1, weight_decay=0.05, t=1)
    assert params["p"].value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.05), abs=1e-15)


def test_adam_non_finite_gradient_aborts_with_name():
    params = nn.ParameterSet()
    params.add("good", np.ones(2))
    params.add("bad", np.ones(2))
    before = params["bad"].value.copy()
    with pytest.raises(G.NonFiniteError, match="gradient of 'bad' is non-finite"):
        nn.adam_step(params, {"good": np.ones(2), "bad": np.array([1.0, np.inf])},
                     lr=0.1, t=1)
    assert np.array_equal(params["bad"].value, before)


def test_adam_update_that_overflows_fails_naming_the_parameter():
    params = nn.ParameterSet()
    params.add("ok", np.ones(2))
    params.add("huge", np.array([-1.79e308, 1.0]))
    with np.errstate(over="ignore"), pytest.raises(G.NonFiniteError, match="parameter 'huge'"):
        nn.adam_step(params, {"ok": np.zeros(2), "huge": np.ones(2)}, lr=1e307,
                     weight_decay=0.0, t=1)   # a step of -1e307 past the largest float


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weight_writers_reject_non_finite_values_naming_the_parameter(bad):
    params = nn.ParameterSet()
    with pytest.raises(G.NonFiniteError, match="parameter 'w'"):
        params.add("w", np.array([1.0, bad]))
    params.add("v", np.ones(2))
    with pytest.raises(G.NonFiniteError, match="parameter 'v'"):
        params["v"].value = np.array([bad, 0.0])
    with pytest.raises(G.NonFiniteError, match="ck: parameter 'v'"):
        params.assign({"v": np.array([0.0, bad])}, "ck")
    assert np.array_equal(params["v"].value, np.ones(2))


def test_weight_writers_reject_another_shape_naming_the_parameter():
    params = nn.ParameterSet()
    params.add("v", np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"parameter 'v' has shape \(3, 2\), expected \(2, 3\)"):
        params["v"].value = np.ones((3, 2))
    with pytest.raises(ValueError, match=r"ck: parameter 'v' has shape \(6,\)"):
        params.assign({"v": np.ones(6)}, "ck")
    assert np.array_equal(params["v"].value, np.ones((2, 3)))


def test_loading_a_checkpoint_with_a_nan_weight_fails_naming_it(tmp_path):
    from escore.heads import HeadConfig
    from escore.swiss import ToyHeadModel
    model = ToyHeadModel(HeadConfig(kind="flow", width=8, depth=1), seed=0)
    model.params["head.block0.fc1.w"].value[1, 2] = np.nan   # in place: not checked
    path = tmp_path / "head.ckpt"
    model.save(path)
    with pytest.raises(G.NonFiniteError, match=f"{path}: parameter 'head.block0.fc1.w'"):
        ToyHeadModel.load(path)


def test_checkpoint_roundtrip(tmp_path):
    params = nn.ParameterSet()
    params.add("a.w", Stream.from_seed(0, "a").normal((3, 2)))
    params.add("a.b", Stream.from_seed(0, "b").normal((2,)))
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, params, config_digest="deadbeef", seed=7, step=42,
                       extra={"head_config": {"kind": "energy"}})
    manifest, values = nn.load_checkpoint(path)
    assert manifest["config_digest"] == "deadbeef"
    assert manifest["seed"] == 7 and manifest["step"] == 42
    assert manifest["extra"]["head_config"] == {"kind": "energy"}
    assert np.array_equal(values["a.w"], params["a.w"].value)
    assert np.array_equal(values["a.b"], params["a.b"].value)


def test_checkpoint_bytes_deterministic(tmp_path):
    def write(path):
        params = nn.ParameterSet()
        params.add("w", nn.kaiming_uniform(1, "w", (4, 4), 4))
        nn.save_checkpoint(path, params, config_digest="x", seed=1, step=1)
        return path.read_bytes()

    assert write(tmp_path / "a.ckpt") == write(tmp_path / "b.ckpt")


@pytest.mark.parametrize("field, value, ok", [
    ("mask_hi", 1, True),          # `--set mar.mask_hi=1` saves an int
    ("mask_hi", 0.9, True),
    ("seq_len", 8.0, False),
    ("seq_len", True, False),
    ("mask_hi", False, False),
    ("head_kind", 3, False),
    ("n_heads", "2", False),
])
def test_config_from_manifest_checks_value_types(field, value, ok):
    from dataclasses import asdict
    from escore.mar import MarConfig
    saved = {**asdict(MarConfig()), field: value}
    manifest = {"extra": {"mar_config": saved}}
    if ok:
        assert getattr(nn.config_from_manifest(MarConfig, manifest, "mar_config", "ck"),
                       field) == value
    else:
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            nn.config_from_manifest(MarConfig, manifest, "mar_config", "ck")
