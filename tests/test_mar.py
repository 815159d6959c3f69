import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest

import decode_reference
import loop_reference
import rng_reference as R
from escore import graph as G
from escore import mar
from escore.data import LATENT_DIM
from escore.mar import DecodeConfig, MarConfig, MarModel, cfg_combine, one_hot_classes
from escore.rng import Stream
from oracles import distillation_loss

TINY = MarConfig(seq_len=8, hidden_dim=16, n_blocks=2, n_heads=2,
                 head_width=16, head_depth=1)


def test_apply_mask_counts():
    """Masks come from MarModel.mask_batch: ceil(rate * L) positions each."""
    latents = np.zeros((3, 16, 2))
    for (lo, hi), count in [((0.75, 0.75), 12), ((0.999, 1.0), 16)]:
        model = MarModel(dataclasses.replace(TINY, seq_len=16, mask_lo=lo, mask_hi=hi), seed=0)
        masked = model.mask_batch(latents, Stream.from_seed(1, "m"))
        assert masked.shape == (3, 16) and masked.sum(axis=1).tolist() == [count] * 3


def test_apply_mask_deterministic_and_zeroes_masked():
    """A training step's bindings zero the latents its mask_batch draw masks."""
    model = MarModel(TINY, seed=0)
    latents, ids = _batch(model, 4)
    rng = Stream.from_seed(3, "step")
    masked = model.mask_batch(latents, rng.child("mask"))
    assert np.array_equal(masked, model.mask_batch(latents, rng.child("mask")))
    bindings = model.step_bindings(latents, ids, rng)
    assert np.array_equal(bindings["mask"][..., 0], masked)
    assert np.all(bindings["latents"][masked] == 0.0)
    assert np.array_equal(bindings["latents"][~masked], latents[~masked])


def test_apply_mask_bad_range():
    with pytest.raises(ValueError, match=re.escape("mar.mask_lo must be a number in (0, 1], "
                                                   "got 0.0")):
        dataclasses.replace(TINY, mask_lo=0.0, mask_hi=0.5)


def test_mar_config_width_head_mismatch_is_config_error():
    """The transformer blocks split the width evenly among the heads."""
    with pytest.raises(ValueError, match="mar.hidden_dim must be a multiple of mar.n_heads, "
                                         "got 10 and 4"):
        dataclasses.replace(TINY, hidden_dim=10, n_heads=4)


def test_cfg_combine_identities_and_arithmetic():
    a = Stream.from_seed(0, "a").normal((4, 3))
    b = Stream.from_seed(0, "b").normal((4, 3))
    assert np.array_equal(cfg_combine(a, b, 1.0), a)
    assert np.array_equal(cfg_combine(a, b, 0.0), b)
    c = cfg_combine(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 4.0)
    assert np.allclose(c, [[4.0, -3.0]], atol=1e-15)


def test_cfg_combine_mismatch_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        cfg_combine(np.zeros((2, 3)), np.zeros((3, 3)), 2.0)


def test_distillation_loss_values():
    h = Stream.from_seed(1, "h").normal((5, 4))
    assert distillation_loss(h, h.copy()) == 0.0
    assert distillation_loss(np.array([[3.0]]), np.array([[1.0]])) == 4.0
    hs = np.array([[1.0, 0.0], [0.0, 0.0]])
    ht = np.array([[0.0, 0.0], [0.0, 2.0]])
    assert distillation_loss(hs, ht) == pytest.approx(2.5, abs=1e-15)
    with pytest.raises(ValueError):
        distillation_loss(np.zeros((2, 2)), np.zeros((3, 2)))


def test_one_hot_classes_with_null():
    oh = one_hot_classes(np.array([0, 2, mar.NULL_CLASS]))
    assert oh.shape == (3, 4)
    assert oh[0].tolist() == [1, 0, 0, 0]
    assert oh[1].tolist() == [0, 0, 1, 0]
    assert oh[2].tolist() == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        one_hot_classes(np.array([3]))


def _batch(model, n, seed=0):
    latents, ids = mar.class_pools(model.cfg, seed, per_class=max(2, n), jitter=0.02)
    return latents[:n], ids[:n]


def test_backbone_representation_contract():
    model = MarModel(TINY, seed=1)
    latents, _ = _batch(model, 3)
    masked = np.zeros((3, TINY.seq_len), dtype=bool)
    masked[:, :4] = True
    null_ids = np.full(3, mar.NULL_CLASS)
    rep1 = model.represent(latents, masked, null_ids)
    rep2 = model.represent(latents, masked, null_ids)
    assert rep1.shape == (3, TINY.seq_len, TINY.hidden_dim)
    assert np.array_equal(rep1, rep2)
    rep_cls = model.represent(latents, masked, np.full(3, 1))
    assert not np.allclose(rep1, rep_cls)


def test_masked_latents_do_not_leak_into_representation():
    model = MarModel(TINY, seed=2)
    latents, ids = _batch(model, 2)
    masked = np.zeros((2, TINY.seq_len), dtype=bool)
    masked[:, 1::2] = True
    rep_a = model.represent(latents, masked, ids)
    corrupted = latents.copy()
    corrupted[:, 1::2] = 123.0
    rep_b = model.represent(corrupted, masked, ids)
    assert np.array_equal(rep_a, rep_b)


def _step_terms(model, latents, ids, rng, lam=0.0, teacher=None):
    """(energy, distill, total, h) of one step's train graph, without an update."""
    bindings = model.step_bindings(latents, ids, rng, teacher)
    g, nodes = model._train_graph(bindings, lam, False)
    run = G.evaluate(g, bindings)
    distill = float(run.value(nodes["distill"])) if teacher is not None else 0.0
    onehot = bindings["onehot"]   # the step's class ids after label dropout
    step_ids = np.where(onehot[:, -1] == 1.0, mar.NULL_CLASS, onehot.argmax(axis=1))
    h = model.represent(latents, bindings["mask"][..., 0] == 1.0, step_ids)
    return float(run.value(nodes["energy"])), distill, float(run.output), h


def test_training_step_breakdown_identities():
    student = MarModel(TINY, seed=3)
    teacher = MarModel(MarConfig(**{**TINY.__dict__, "head_kind": "diffusion"}), seed=4)
    latents, ids = _batch(student, 4)
    rng = Stream.from_seed(5, "step")
    energy, distill, total, _ = _step_terms(student, latents, ids, rng)
    assert distill == 0.0 and total == energy

    energy, distill, total, h = _step_terms(student, latents, ids, rng, 0.5, teacher)
    assert total == pytest.approx(energy + 0.5 * distill, abs=1e-12)
    assert distill > 0.0
    h_teacher = student.step_bindings(latents, ids, rng, teacher)["h_teacher"]
    flat = (-1, TINY.hidden_dim)
    assert distill == pytest.approx(
        distillation_loss(h.reshape(flat), h_teacher.reshape(flat)), rel=1e-12)

    # self-distillation: teacher sharing the student's backbone weights
    twin = MarModel(TINY, seed=3)
    assert _step_terms(student, latents, ids, rng, 1.0, twin)[1] == pytest.approx(0.0, abs=1e-20)


def test_training_step_returns_its_energy_and_distill_terms():
    student = MarModel(TINY, seed=3)
    teacher = MarModel(MarConfig(**{**TINY.__dict__, "head_kind": "diffusion"}), seed=4)
    latents, ids = _batch(student, 4)
    want = _step_terms(student, latents, ids, Stream.from_seed(5, "step"), 0.5, teacher)[:2]
    got = student.masked_training_step(latents, ids, Stream.from_seed(5, "step"), lam=0.5,
                                       teacher=teacher, lr=1e-3, weight_decay=0.0,
                                       frozen_backbone=False)
    assert got == want


def test_lambda_without_teacher_rejected():
    model = MarModel(TINY, seed=0)
    latents, ids = _batch(model, 2)
    with pytest.raises(ValueError):
        model.masked_training_step(latents, ids, Stream.from_seed(0, "s"), lam=1.0,
                                   lr=1e-3, weight_decay=0.0, frozen_backbone=False)


def test_teacher_without_a_distillation_weight_rejected():
    """A teacher at lambda 0 would run its forward every step for nothing."""
    model = MarModel(TINY, seed=0)
    teacher = MarModel(MarConfig(**{**TINY.__dict__, "head_kind": "diffusion"}), seed=1)
    latents, ids = _batch(model, 2)
    with pytest.raises(ValueError, match="teacher requires a distillation weight"):
        model.masked_training_step(latents, ids, Stream.from_seed(0, "s"), lam=0.0,
                                   teacher=teacher, lr=1e-3, weight_decay=0.0,
                                   frozen_backbone=False)


def test_energy_term_ignores_head_outputs_at_unmasked_positions():
    model = MarModel(TINY, seed=6)
    latents, ids = _batch(model, 3)
    bindings = model.step_bindings(latents, ids, Stream.from_seed(7, "step"))
    g, nodes = model._train_graph(bindings, 0.0, False)
    base = float(G.evaluate(g, bindings).value(nodes["energy"]))
    unmasked = bindings["weight"] == 0.0
    assert unmasked.any()
    for key in ("n0", "n1"):
        noise = bindings[key].copy()
        noise[unmasked] += 7.5   # changes head output only there
        bindings[key] = noise
    assert float(G.evaluate(g, bindings).value(nodes["energy"])) == base


def test_teacher_parameters_frozen_during_student_training():
    student = MarModel(TINY, seed=8)
    teacher = MarModel(MarConfig(**{**TINY.__dict__, "head_kind": "diffusion"}), seed=9)
    before = {k: p.value.copy() for k, p in teacher.params.items()}
    latents, ids = _batch(student, 4)
    for t in range(1, 4):
        student.masked_training_step(latents, ids, Stream.from_seed(t, "s"),
                                     lam=0.3, teacher=teacher, lr=1e-3, step_index=t,
                                     weight_decay=0.0, frozen_backbone=False)
    for k, p in teacher.params.items():
        assert np.array_equal(before[k], p.value)


@pytest.mark.parametrize("student_blocks", [1, 3], ids=["fewer", "more"])
def test_a_student_starts_from_its_teachers_backbone_bit_for_bit(student_blocks):
    """Under mar_train.init_from_teacher a student holds, byte for byte, what
    drawing the whole student and then copying the teacher's backbone values
    over it gives, with fewer blocks than its two-block teacher or more; it
    shares no array with the teacher."""
    from escore.config import DEFAULTS, overridden
    from escore.experiments import build_mar_model
    teacher = MarModel(TINY, seed=3)
    cfg = overridden(DEFAULTS, {"mar": {"seq_len": 8, "hidden_dim": 16, "n_heads": 2,
                                        "n_blocks": student_blocks, "head_width": 16,
                                        "head_depth": 1},
                                "mar_train": {"init_from_teacher": True}})
    student = build_mar_model(cfg, 5, teacher)
    reference = MarModel(student.cfg, 5)   # draw, then copy the teacher's backbone
    for name, p in reference.params.items():
        if name.startswith("backbone.") and name in teacher.params:
            p.value = teacher.params[name].value.copy()
    assert student.params.names() == reference.params.names()
    for name, p in reference.params.items():
        assert student.params[name].value.tobytes() == p.value.tobytes(), name
        if name in teacher.params:
            assert not np.shares_memory(student.params[name].value,
                                        teacher.params[name].value), name
    assert np.array_equal(student.params["backbone.block0.wq.w"].value,
                          teacher.params["backbone.block0.wq.w"].value)


def test_frozen_backbone_only_updates_head():
    model = MarModel(TINY, seed=10)
    latents, ids = _batch(model, 4)
    before = {k: p.value.copy() for k, p in model.params.items()}
    model.masked_training_step(latents, ids, Stream.from_seed(0, "s"), lam=0.0,
                               lr=1e-2, weight_decay=0.0, frozen_backbone=True)
    for k, p in model.params.items():
        if k.startswith("backbone."):
            assert np.array_equal(before[k], p.value), k
    assert any(not np.array_equal(before[k], p.value)
               for k, p in model.params.items() if k.startswith("head."))


def test_decode_contracts():
    model = MarModel(TINY, seed=11)
    for iters, schedule in [(1, "cosine"), (4, "cosine"), (8, "uniform")]:
        dcfg = DecodeConfig(iterations=iters, cfg_scale=2.0, schedule=schedule, seed=3)
        out, stats = model.decode(1, 3, dcfg)
        assert out.shape == (3, TINY.seq_len, 2)
        assert sum(stats["per_iteration"]) == TINY.seq_len
        assert all(c >= 1 for c in stats["per_iteration"])
        assert stats["backbone_forwards"] == 2 * iters
        assert stats["head_rows"] == 3 * TINY.seq_len
    with pytest.raises(ValueError):
        model.decode(0, 1, DecodeConfig(iterations=TINY.seq_len + 1))


def test_decode_unguided_counts_single_backbone_pass():
    model = MarModel(TINY, seed=11)
    dcfg = DecodeConfig(iterations=4, cfg_scale=1.0, seed=5)
    _, stats = model.decode(2, 2, dcfg)
    assert stats["backbone_forwards"] == 4


def test_decode_deterministic():
    model = MarModel(TINY, seed=12)
    dcfg = DecodeConfig(iterations=4, cfg_scale=3.0, seed=9)
    a, _ = model.decode(2, 4, dcfg)
    b, _ = model.decode(2, 4, dcfg)
    assert np.array_equal(a, b)


def test_decode_scale_one_equals_unguided_bitwise():
    """At scale 1 the null class plays no part: a new null embedding leaves
    the decode's bits as they were, and moves a decode at scale 2."""
    decodes = []
    for shift in (0.0, 1.0):
        model = _reference_model.__wrapped__("energy")   # a fresh copy to change
        model.params["backbone.class_embed"].value[-1] += shift
        decodes.append([model.decode(1, 3, DecodeConfig(iterations=4, cfg_scale=scale,
                                                        seed=2))[0].tobytes()
                        for scale in (1.0, 2.0)])
    (one, two), (one_moved, two_moved) = decodes
    assert one == one_moved and two != two_moved


@pytest.mark.parametrize("kind", ["energy", "diffusion"])
@pytest.mark.parametrize("scale, class_id", [(1.0, 1), (0.0, None)])
def test_guided_decode_at_scale_one_or_zero_runs_the_kept_pass_alone(kind, scale, class_id,
                                                                    monkeypatch):
    """scale * h_cond + (1 - scale) * h_null keeps the conditional pass at
    scale 1 and the null pass at 0, so a decode of class 1 there runs that
    pass alone: it is the scale-1 decode of that class (None is the null
    class), bit for bit, with half the backbone passes of a decode at
    another scale."""
    model = _reference_model(kind)
    steps = 1 if kind == "energy" else 3
    passes = []
    real = model.represent

    def spy(latents, masked, class_ids, positions=None):
        passes.append(set(class_ids.tolist()))
        return real(latents, masked, class_ids, positions)

    monkeypatch.setattr(model, "represent", spy)
    guided, stats = model.decode(1, 3, DecodeConfig(iterations=4, cfg_scale=scale, seed=2,
                                                    head_steps=steps))
    kept = {mar.NULL_CLASS if class_id is None else class_id}
    assert passes == [kept] * 4
    plain, plain_stats = model.decode(class_id, 3, DecodeConfig(
        iterations=4, cfg_scale=1.0, seed=2, head_steps=steps))
    _, mixed_stats = model.decode(1, 3, DecodeConfig(iterations=4, cfg_scale=2.0, seed=2,
                                                     head_steps=steps))
    assert guided.tobytes() == plain.tobytes()
    assert stats == plain_stats
    assert 2 * stats["backbone_forwards"] == mixed_stats["backbone_forwards"] == 8


@pytest.mark.parametrize("kind", ["energy", "diffusion"])
def test_null_class_decode_runs_the_null_pass_alone_at_any_scale(kind):
    """Both passes of a null-class decode would be null, so at scale 2.5 it
    runs one backbone pass per iteration and gives the scale-1 null decode,
    bit for bit."""
    model = _reference_model(kind)
    steps = 1 if kind == "energy" else 3
    guided, stats = model.decode(None, 3, DecodeConfig(iterations=4, cfg_scale=2.5, seed=2,
                                                       head_steps=steps))
    plain, plain_stats = model.decode(None, 3, DecodeConfig(iterations=4, cfg_scale=1.0,
                                                            seed=2, head_steps=steps))
    assert stats["backbone_forwards"] == 4
    assert guided.tobytes() == plain.tobytes() and stats == plain_stats


@pytest.mark.parametrize("rate_range", [(0.7, 1.0), (0.5, 0.5), (0.01, 0.2)])
def test_mask_batch_matches_per_sequence_reference(rate_range):
    """One batched draw gives each sequence the mask of its own stream chain."""
    model = MarModel(dataclasses.replace(TINY, mask_lo=rate_range[0],
                                         mask_hi=rate_range[1]), seed=1)
    got = model.mask_batch(np.zeros((9, TINY.seq_len, 2)), Stream.from_seed(6, "mask"))
    lo, hi = rate_range
    length = TINY.seq_len
    want = np.zeros((9, length), dtype=bool)
    for j in range(9):
        seq = R.Stream.from_seed(6, "mask").child(f"seq/{j}")
        rate = lo if hi == lo else lo + (hi - lo) * seq.child("rate").uniform()
        count = min(length, math.ceil(rate * length))
        want[j, seq.child("positions").sample_without_replacement(length, count)] = True
    assert np.array_equal(got, want)


@functools.cache
def _reference_model(kind: str) -> MarModel:
    """A model whose every weight is random, so that each latent depends on
    its context and noise (a fresh head's zero-initialised output would not)."""
    model = MarModel(dataclasses.replace(TINY, head_kind=kind), seed=21)
    for name, p in model.params.items():
        p.value[...] = 0.1 * Stream.from_seed(21, name).normal(p.value.shape)
    return model


@pytest.mark.parametrize("kind,class_id,guided,schedule,iters,n_seq", list(itertools.product(
    ("energy", "diffusion", "flow"), (None, 1), (True, False), ("cosine", "uniform"),
    (1, 3, 8), (1, 3))))
def test_decode_matches_reference(kind, class_id, guided, schedule, iters, n_seq):
    """Batched draws and the shared first pass give the per-sequence loop's
    bits. A ``guided`` decode runs at scale 2.5 (both passes), any other at
    scale 1 (the conditional pass alone)."""
    model = _reference_model(kind)
    dcfg = DecodeConfig(iterations=iters, cfg_scale=2.5 if guided else 1.0,
                        schedule=schedule, seed=4, head_steps=1 if kind == "energy" else 3)
    want, want_stats = decode_reference.decode(model, class_id, n_seq, dcfg)
    got, got_stats = model.decode(class_id, n_seq, dcfg)
    assert got.tobytes() == want.tobytes()
    assert got_stats == want_stats


@pytest.mark.parametrize("class_id", [0, 2, mar.NULL_CLASS])
@pytest.mark.parametrize("cfg,n", [(TINY, 7), (MarConfig(), 40)], ids=["tiny", "default"])
def test_represent_one_row_equals_every_row_of_a_batch_when_all_masked(cfg, n, class_id):
    """The shared first decode iteration rests on this: on an all-masked input
    with one class, a batch-1 backbone pass gives each row of a batch-n pass."""
    model = MarModel(cfg, seed=5)
    latents = np.zeros((n, cfg.seq_len, LATENT_DIM))
    masked = np.ones((n, cfg.seq_len), dtype=bool)
    ids = np.full(n, class_id)
    one = model.represent(latents[:1], masked[:1], ids[:1])
    many = model.represent(latents, masked, ids)
    for row in many:
        assert row.tobytes() == one[0].tobytes()


@pytest.mark.parametrize("cfg,n,per_seq,class_id", [
    (MarConfig(), 40, 1, 0), (MarConfig(), 40, 2, 1), (MarConfig(), 40, 3, 2),
    (TINY, 1, 1, 0), (TINY, 3, 1, 1), (MarConfig(), 40, 2, mar.NULL_CLASS)],
    ids=["default-1", "default-2", "default-3", "tiny-one-row", "tiny-odd-rows",
         "default-null"])
def test_represent_at_positions_equals_rows_of_every_position(cfg, n, per_seq, class_id):
    """A decode iteration finishes the backbone at the positions it samples
    only; each row must carry the bits of the same row of a pass at every
    position, also when one row is asked for (a one-row product would take
    BLAS's matrix-vector path and round differently) and when an odd count is
    (OpenBLAS's Haswell kernels would round the last row differently)."""
    model = MarModel(cfg, seed=6)
    for name, p in model.params.items():
        p.value = p.value + 0.1 * Stream.from_seed(6, name).normal(p.value.shape)
    s = Stream.from_seed(per_seq, "positions")
    latents = s.child("latents").normal((n, cfg.seq_len, LATENT_DIM))
    masked = s.child("mask").uniform((n, cfg.seq_len)) < 0.6
    ids = np.full(n, class_id)
    picks = s.child([f"seq/{j}" for j in range(n)]).sample_without_replacement(
        cfg.seq_len, per_seq)
    at = (np.repeat(np.arange(n), per_seq), picks.ravel())
    rows = model.represent(latents, masked, ids, at)
    every = model.represent(latents, masked, ids)
    assert rows.shape == (n * per_seq, cfg.hidden_dim)
    assert rows.tobytes() == every[at].tobytes()


def test_decode_passes_the_sampled_positions_from_the_second_iteration_on(monkeypatch):
    model = _reference_model("energy")
    dcfg = DecodeConfig(iterations=8, cfg_scale=2.0, seed=1)
    calls = []
    real = model.represent

    def spy(latents, masked, class_ids, positions=None):
        calls.append((len(latents), positions))
        return real(latents, masked, class_ids, positions)

    monkeypatch.setattr(model, "represent", spy)
    _, stats = model.decode(1, 5, dcfg)
    assert len(calls) == stats["backbone_forwards"] == 2 * dcfg.iterations
    assert calls[:2] == [(1, None), (1, None)]   # the shared first pass
    counts = model._unmask_counts(dcfg)
    for k in range(1, dcfg.iterations):
        for bsz, (seq_idx, pos_idx) in calls[2 * k:2 * k + 2]:
            assert bsz == 5 and len(seq_idx) == len(pos_idx) == 5 * counts[k]


def test_energy_decode_with_head_steps_fails_before_any_backbone_pass(monkeypatch):
    model = MarModel(TINY, seed=11)
    calls = []
    monkeypatch.setattr(model, "represent", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="exactly one step"):
        model.decode(0, 2, DecodeConfig(iterations=2, head_steps=2))
    assert calls == []


def test_diffusion_decode_past_the_chain_length_fails_before_any_backbone_pass():
    model = MarModel(dataclasses.replace(TINY, head_kind="diffusion"), seed=11)
    t_diff = model.head.cfg.t_diff
    with pytest.raises(ValueError) as err:
        model.decode(0, 2, DecodeConfig(iterations=2, cfg_scale=4.0, head_steps=t_diff + 1))
    assert model.backbone_forwards == 0
    assert f"chain length t_diff = {t_diff}" in str(err.value)


def test_train_mar_smoke_and_log_schema():
    model = MarModel(TINY, seed=14)
    log = mar.train_mar(model, steps=5, batch=4, lr=1e-3, warmup=100, lam=0.0, per_class=8,
                        weight_decay=0.0, frozen_backbone=False, jitter=0.02)
    assert len(log) == 5
    assert list(log[0]) == ["step", "energy", "distill", "total", "lambda", "lr", "seed"]
    assert all(np.isfinite(row["total"]) for row in log)
    assert log[0]["step"] == 1 and log[-1]["step"] == 5


@pytest.mark.parametrize("kind", ["energy", "diffusion"])
def test_train_mar_matches_per_step_reference(kind):
    """Step chains drawn up front give the per-step loop's log and weights."""
    budget = {"steps": 3, "batch": 4, "lr": 1e-3, "warmup": 2, "per_class": 8}
    # fresh copies: training must not touch the cached decode models
    ref, model = (_reference_model.__wrapped__(kind) for _ in range(2))
    want = loop_reference.train_mar(ref, **budget)
    assert mar.train_mar(model, **budget, lam=0.0, weight_decay=0.0,
                         frozen_backbone=False, jitter=0.02) == want
    for name, p in model.params.items():
        assert p.value.tobytes() == ref.params[name].value.tobytes(), name


def test_mar_checkpoint_roundtrip(tmp_path):
    model = MarModel(TINY, seed=15)
    latents, ids = _batch(model, 4)
    model.masked_training_step(latents, ids, Stream.from_seed(0, "s"), lam=0.0, lr=1e-3,
                               weight_decay=0.0, frozen_backbone=False)
    path = tmp_path / "mar.ckpt"
    model.save(path, config_digest="d1", step=1, extra={"lambda": 2.0})
    back = MarModel.load(path)
    assert back.cfg == model.cfg
    for name, p in model.params.items():
        assert np.array_equal(back.params[name].value, p.value)
    manifest, _ = __import__("escore.nn", fromlist=["nn"]).load_checkpoint(path)
    assert manifest["extra"]["lambda"] == 2.0


def test_inference_graphs_declare_only_their_own_parameters():
    model = MarModel(dataclasses.replace(TINY, head_kind="diffusion"), seed=0)
    head_leaves = set(model.head._eval_graph(5).leaves)
    backbone_leaves = set(model._front_graph(2).leaves) | set(model._finish_graph(3).leaves)
    assert not any(name.startswith("backbone.") for name in head_leaves)
    assert not any(name.startswith("head.") for name in backbone_leaves)
    # every parameter is still bound (and so checked) by one of the two graphs
    assert set(model.params.names()) <= head_leaves | backbone_leaves


_BLAS_RUN = """
import hashlib
from escore.mar import DecodeConfig, MarConfig, MarModel, class_pools
from escore.rng import Stream
model = MarModel(MarConfig(), seed=1)
latents, ids = class_pools(model.cfg, 1, per_class=8, jitter=0.02)
model.masked_training_step(latents[:32], ids[:32], Stream.from_seed(1, "step"), lam=0.0,
                           lr=1e-3, weight_decay=0.0, frozen_backbone=False)
out, _ = model.decode(0, 48, DecodeConfig(iterations=8, cfg_scale=4.0, seed=3))
digest = hashlib.sha256(out.tobytes())
for _, p in model.params.items():
    digest.update(p.value.tobytes())
print(digest.hexdigest())
"""


def test_training_step_and_decode_do_not_depend_on_the_blas_thread_count():
    """A default-size MAR training step and energy decode give the same bytes
    under one and two BLAS threads; the two runs go side by side."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [subprocess.Popen([sys.executable, "-c", _BLAS_RUN], stdout=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONPATH": src,
                                             "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    try:
        digests = [run.communicate(timeout=300)[0].strip() for run in runs]
    finally:
        for run in runs:
            run.kill()
    assert [run.returncode for run in runs] == [0, 0]
    assert len(digests[0]) == 64 and digests[0] == digests[1]
