import re

import numpy as np
import pytest

import loop_reference
import rng_reference as R
from oracles import energy_loss_m, energy_loss_pair
from escore import graph as G
from escore import heads
from escore.heads import Head, HeadConfig
from escore.rng import Stream
from escore.swiss import ToyHeadModel


def test_head_config_validation():
    with pytest.raises(ValueError):
        HeadConfig(kind="nope")
    with pytest.raises(ValueError):
        HeadConfig(kind="energy", wiring="sideways")
    with pytest.raises(ValueError):
        HeadConfig(kind="energy", m_samples=1)


def test_energy_loss_pair_hand_cases():
    assert energy_loss_pair([0.0, 0.0], [2.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    y = np.array([0.7, -0.3])
    x2 = np.array([5.0, 1.0])
    # exact coincidence sits at the smoothing floor ||0|| = eps = 1e-12
    assert energy_loss_pair(y, x2, y) == pytest.approx(0.0, abs=2e-12)
    assert energy_loss_pair([0.0, 0.0], [0.0, 0.0], [3.0, 4.0]) == pytest.approx(10.0, abs=1e-11)


def test_energy_loss_pair_symmetry_and_translation():
    s = Stream.from_seed(0, "pts")
    for trial in range(50):
        x1 = s.child(f"a{trial}").normal((2,))
        x2 = s.child(f"b{trial}").normal((2,))
        y = s.child(f"c{trial}").normal((2,))
        shift = s.child(f"d{trial}").normal((2,))
        assert energy_loss_pair(x1, x2, y) == energy_loss_pair(x2, x1, y)
        assert abs(energy_loss_pair(x1 + shift, x2 + shift, y + shift)
                   - energy_loss_pair(x1, x2, y)) <= 1e-12


def test_energy_loss_m_reduces_to_pair():
    s = Stream.from_seed(1, "pts")
    for trial in range(500):
        x1 = s.child(f"a{trial}").normal((3,))
        x2 = s.child(f"b{trial}").normal((3,))
        y = s.child(f"c{trial}").normal((3,))
        assert abs(energy_loss_m([x1, x2], y) - energy_loss_pair(x1, x2, y)) <= 1e-12


def test_energy_loss_m_hand_case_and_zero():
    samples = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    y = np.array([0.0, 0.0])
    expect = (2.0 - np.sqrt(2.0)) / 3.0
    assert energy_loss_m(samples, y) == pytest.approx(expect, abs=1e-10)
    assert energy_loss_m([y, y, y], y) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        energy_loss_m([y], y)


def test_energy_loss_m_permutation_invariant():
    s = Stream.from_seed(2, "pts")
    xs = [s.child(f"x{i}").normal((2,)) for i in range(4)]
    y = s.child("y").normal((2,))
    base = energy_loss_m(xs, y)
    perm = Stream.from_seed(3, "perm").permutation(4)
    assert energy_loss_m([xs[i] for i in perm], y) == pytest.approx(base, abs=1e-12)


def test_energy_pair_gradient_matches_fd():
    g = G.Graph()
    x1 = g.leaf("x1", (1, 2), grad=True)
    x2 = g.leaf("x2", (1, 2), grad=True)
    y = g.leaf("y", (1, 2))
    g.set_output(G.total(heads.build_energy_rows_m([x1, x2], y)))
    pt = {"x1": [[0.4, -1.2]], "x2": [[1.0, 0.7]], "y": [[-0.3, 0.2]]}
    assert G.grad_check(g, pt, step=1e-6) <= 1e-5


def test_zero_init_energy_head_outputs_zero():
    head = Head(HeadConfig(kind="energy", width=16, depth=2), seed=0)
    ctx = Stream.from_seed(4, "ctx").normal((5, 16))
    noise = Stream.from_seed(4, "n").normal((5, 2))
    out = head.energy_sample(ctx, noise)
    assert np.array_equal(out, np.zeros((5, 2)))


def test_energy_sample_deterministic():
    head = _randomized_head(HeadConfig(kind="energy", width=16, depth=2), 5)
    ctx = Stream.from_seed(6, "ctx").normal((4, 16))
    noise = Stream.from_seed(6, "n").normal((4, 2))
    assert np.array_equal(head.energy_sample(ctx, noise), head.energy_sample(ctx, noise))


def _randomized_head(cfg: HeadConfig, seed: int) -> Head:
    head = Head(cfg, seed)
    s = Stream.from_seed(seed, "randomize")
    for name, p in head.params.items():
        p.value = 0.3 * s.child(name).normal(p.value.shape)
    return head


def test_wirings_are_distinct_functions():
    cfg_b = HeadConfig(kind="energy", width=16, depth=2, context_dim=2, noise_dim=2)
    cfg_a = HeadConfig(kind="energy", width=16, depth=2, context_dim=2, noise_dim=2,
                       wiring=heads.WIRING_NOISE_AS_CONDITION)
    hb = _randomized_head(cfg_b, 7)
    ha = Head(cfg_a, 7)
    for name, p in ha.params.items():
        p.value = hb.params[name].value.copy()
    ctx = Stream.from_seed(8, "ctx").normal((6, 2))
    noise = Stream.from_seed(8, "n").normal((6, 2))
    assert not np.allclose(hb.energy_sample(ctx, noise), ha.energy_sample(ctx, noise))


def _mean_loss_graph(head: Head, aux: dict, ctx_grad: bool = False) -> G.Graph:
    """The head's mean loss over context rows "ctx" and the loss inputs
    ``aux``, with grad weights."""
    g = G.Graph()
    leaves = G.declare(g, head.params.bindings(), grad=True)
    ctx = g.leaf("ctx", (len(aux["y"]), head.cfg.context_dim), grad=ctx_grad)
    rows = heads.build_loss_rows(head.cfg, leaves, ctx, G.declare(g, aux))
    g.set_output(G.mean(rows))
    return g


def _identity_head(kind: str) -> Head:
    """depth-0 head computing pred == zt exactly (identity projections)."""
    cfg = HeadConfig(kind=kind, width=2, depth=0, context_dim=3)
    head = Head(cfg, seed=0)
    head.params["head.inp.w"].value = np.eye(2)
    head.params["head.out.w"].value = np.eye(2)
    return head


@pytest.mark.parametrize("kind,target", [("diffusion", "eps"), ("flow", "vel")])
def test_perfect_prediction_gives_zero_loss(kind, target):
    head = _identity_head(kind)
    rows = 6
    s = Stream.from_seed(9, "b")
    vals = s.child("v").normal((rows, 2))
    aux = {"y": s.child("y").normal((rows, 2)), "zt": vals, target: vals,
           "t0": heads.time_features(s.child("t").uniform((rows,)), 16)}
    bindings = {**head.params.bindings(), "ctx": s.child("c").normal((rows, 3)), **aux}
    g = _mean_loss_graph(head, aux)
    assert float(G.evaluate(g, bindings).output) == pytest.approx(0.0, abs=1e-24)


def test_energy_train_step_value_matches_manual_recompute():
    cfg = HeadConfig(kind="energy", width=16, depth=2, context_dim=4)
    head = _randomized_head(cfg, 10)
    rows = 5
    s = Stream.from_seed(11, "bind")
    ctx = s.child("ctx").normal((rows, 4))
    y = s.child("y").normal((rows, 2))
    bindings = head.loss_bindings(y, s.child("loss"), context=ctx)
    g = _mean_loss_graph(head, bindings)
    value = float(G.evaluate(g, {**head.params.bindings(), "ctx": ctx, **bindings}).output)

    x1 = head.energy_sample(ctx, bindings["n0"])
    x2 = head.energy_sample(ctx, bindings["n1"])
    manual = np.mean([energy_loss_pair(x1[i], x2[i], y[i]) for i in range(rows)])
    assert value == pytest.approx(manual, abs=1e-12)


def test_meanflow_target_equals_velocity_when_r_is_t(monkeypatch):
    monkeypatch.setattr(heads, "R_EQ_T_PROB", 1.0)
    cfg = HeadConfig(kind="meanflow", width=16, depth=1, context_dim=3)
    head = _randomized_head(cfg, 12)
    s = Stream.from_seed(13, "mf")
    y = s.child("y").normal((8, 2))
    ctx = s.child("ctx").normal((8, 3))
    b = head.loss_bindings(y, s.child("rng"), context=ctx)
    # with r == t the jvp correction vanishes, so target = velocity = eps - y,
    # and zt - y = t * (eps - y): the two must be collinear with positive dot
    disp = b["zt"] - y
    cross = b["target"][:, 0] * disp[:, 1] - b["target"][:, 1] * disp[:, 0]
    assert np.max(np.abs(cross)) <= 1e-9
    assert np.all((b["target"] * disp).sum(axis=1) >= 0.0)


def test_meanflow_bindings_deterministic():
    cfg = HeadConfig(kind="meanflow", width=16, depth=1, context_dim=3)
    head = _randomized_head(cfg, 12)
    s1 = Stream.from_seed(20, "mf")
    s2 = Stream.from_seed(20, "mf")
    y = Stream.from_seed(21, "y").normal((6, 2))
    ctx = Stream.from_seed(21, "c").normal((6, 3))
    b1 = head.loss_bindings(y, s1, context=ctx)
    b2 = head.loss_bindings(y, s2, context=ctx)
    for key in b1:
        assert np.array_equal(b1[key], b2[key])


def test_schedule_monotone_and_respacing():
    sched = heads.DiffusionSchedule(100)
    ab = sched.alphabar
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert 0 < ab[-1] < 1e-3
    assert sched.respaced(1).tolist() == [100]
    taus = sched.respaced(4)
    assert len(taus) == 4 and np.all(np.diff(taus) < 0) and taus[0] == 100


def test_energy_sampler_rejects_multistep():
    head = Head(HeadConfig(kind="energy", width=8, depth=1), seed=0)
    with pytest.raises(ValueError):
        head.sample(np.zeros((3, 16)), steps=4, rng=Stream.from_seed(0, "s"))


@pytest.mark.parametrize("kind,steps,cause", [
    ("flow", 0, "head steps must be >= 1, got 0"),
    ("energy", 2, "energy heads sample in exactly one step"),
    ("diffusion", 8, "at most its chain length t_diff = 7 steps, got 8"),
])
def test_step_rule_rejects_before_any_head_pass(kind, steps, cause):
    head = Head(HeadConfig(kind=kind, width=8, depth=1, context_dim=3, t_diff=7), seed=0)
    with pytest.raises(ValueError, match=re.escape(cause)):
        head.sample(np.zeros((3, 3)), steps, Stream.from_seed(0, "s"))
    assert head.forward_rows == 0
    head.cfg.check_steps(1)
    if kind == "diffusion":
        head.cfg.check_steps(7)


def test_constant_velocity_field_integrates_exactly():
    head = _identity_head("flow")
    head.params["head.out.w"].value = np.zeros((2, 2))
    head.params["head.out.b"].value = np.array([0.3, -0.7])
    ctx = np.zeros((5, 3))
    one = head.sample(ctx, 1, Stream.from_seed(3, "s"))
    many = head.sample(ctx, 7, Stream.from_seed(3, "s"))
    assert np.allclose(one, many, atol=1e-12)
    z0 = Stream.from_seed(3, "s").child("z0").normal((5, 2))
    assert np.allclose(one, z0 + np.array([0.3, -0.7]), atol=1e-12)


def test_diffusion_sampler_deterministic_and_shaped():
    head = _randomized_head(HeadConfig(kind="diffusion", width=16, depth=1,
                                       context_dim=3), 14)
    ctx = np.zeros((6, 3))
    a = head.sample(ctx, 4, Stream.from_seed(5, "s"))
    b = head.sample(ctx, 4, Stream.from_seed(5, "s"))
    assert a.shape == (6, 2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("steps", [1, 3, 7, 100])
def test_diffusion_sample_matches_per_step_reference(steps):
    """One batched draw of every step's noise gives the per-step chain's bits."""
    head = _randomized_head(HeadConfig(kind="diffusion", width=16, depth=2,
                                       context_dim=3), 18)
    ctx = Stream.from_seed(19, "ctx").normal((5, 3))
    want = loop_reference.sample_diffusion(head, ctx, steps, R.Stream.from_seed(6, "s"))
    got = head.sample(ctx, steps, Stream.from_seed(6, "s"))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [1, 2, 5, 33])
@pytest.mark.parametrize("kind", ["flow", "shortcut", "meanflow"])
def test_ode_sample_matches_per_step_reference(kind, steps):
    """The one step loop, its condition rows filled in place and its time
    features computed once per call, gives each kind's own loop's bits."""
    head = _randomized_head(HeadConfig(kind=kind, width=16, depth=2, context_dim=3), 18)
    ctx = Stream.from_seed(19, "ctx").normal((5, 3))
    want = getattr(loop_reference, f"sample_{kind}")(head, ctx, steps,
                                                     R.Stream.from_seed(6, "s"))
    got = head.sample(ctx, steps, Stream.from_seed(6, "s"))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["energy", "diffusion"])
def test_toy_train_matches_per_step_reference(kind):
    """Step chains drawn up front, and the energy loss's batched noise, give
    the per-step loop's losses and weights."""
    cfg = HeadConfig(kind=kind, width=16, depth=2, m_samples=3)
    run = dict(steps=4, batch=16, lr=1e-3, warmup=2, weight_decay=0.0, pool=256,
               noise_sigma=0.03)
    models = []
    for _ in range(2):
        model = ToyHeadModel(cfg, seed=8)
        s = Stream.from_seed(8, "randomize")
        for name, p in model.params.items():
            p.value = 0.3 * s.child(name).normal(p.value.shape)
        models.append(model)
    want = loop_reference.toy_train(models[0], **run)
    assert models[1].train(**run) == want
    for name, p in models[1].params.items():
        assert p.value.tobytes() == models[0].params[name].value.tobytes(), name


def test_loss_graphs_grad_check_all_kinds():
    s = Stream.from_seed(15, "gc")
    for kind in heads.HEAD_KINDS:
        cfg = HeadConfig(kind=kind, width=4, depth=1, context_dim=3, time_feat_dim=4)
        head = _randomized_head(cfg, 16)
        rows = 2
        y = s.child(kind + "y").normal((rows, 2))
        ctx_v = s.child(kind + "c").normal((rows, 3))
        bind = head.loss_bindings(y, s.child(kind), context=ctx_v)
        g = _mean_loss_graph(head, bind, ctx_grad=True)
        assert G.grad_check(g, {**head.params.bindings(), "ctx": ctx_v, **bind},
                            step=1e-6) <= 1e-5, kind


def test_checkpoint_roundtrip_with_kind(tmp_path):
    model = ToyHeadModel(HeadConfig(kind="shortcut", width=8, depth=1), seed=17)
    s = Stream.from_seed(17, "randomize")
    for name, p in model.params.items():
        p.value = 0.3 * s.child(name).normal(p.value.shape)
    path = tmp_path / "head.ckpt"
    model.save(path, config_digest="abc", step=3)
    back = ToyHeadModel.load(path)
    assert back.cfg == model.cfg and back.seed == model.seed
    assert sorted(back.params.bindings()) == sorted(model.params.bindings())
    for name, p in model.params.items():
        assert np.array_equal(back.params[name].value, p.value)
