"""Reference MAR decode loop for the tests: one stream chain per draw.

This is the loop ``MarModel.decode`` started from. Every iteration runs the
backbone over all ``n_seq`` rows, every sequence draws its selection through
its own ``seq/{j}`` -> ``iter/{k}/select`` chain, and every generated
position draws its energy-head noise through ``seq/{j}`` ->
``pos/{i}/noise``, all from the one-key reference streams. At CFG scale 1
it runs the conditional pass alone, at 0 the null pass alone, and at any
other scale both, combined; a null class runs its null pass alone at every
scale. The batched decode must return the same latents
and stats, bit for bit.
"""
from __future__ import annotations

import numpy as np

from escore.data import LATENT_DIM
from escore.mar import NULL_CLASS, DecodeConfig, MarModel, cfg_combine

from rng_reference import Stream


def decode(model: MarModel, class_id: int | None, n_seq: int,
           dcfg: DecodeConfig) -> tuple[np.ndarray, dict]:
    cfg = model.cfg
    counts = model._unmask_counts(dcfg)
    root = Stream.from_seed(dcfg.seed, "decode")
    latents = np.zeros((n_seq, cfg.seq_len, LATENT_DIM))
    generated = np.zeros((n_seq, cfg.seq_len), dtype=bool)
    ids = np.full(n_seq, NULL_CLASS if class_id is None else class_id)
    backbone_before = model.backbone_forwards
    head_rows = 0
    times_generated = np.zeros((n_seq, cfg.seq_len), dtype=int)

    for k, n_k in enumerate(counts):
        null_ids = np.full(n_seq, NULL_CLASS)
        if dcfg.cfg_scale == 1.0 or class_id is None:
            h = model.represent(latents, ~generated, ids)
        elif dcfg.cfg_scale == 0.0:
            h = model.represent(latents, ~generated, null_ids)
        else:
            h = cfg_combine(model.represent(latents, ~generated, ids),
                            model.represent(latents, ~generated, null_ids), dcfg.cfg_scale)
        chosen: list[tuple[int, int]] = []
        for j in range(n_seq):
            open_pos = np.flatnonzero(~generated[j])
            pick = root.child(f"seq/{j}").child(f"iter/{k}/select") \
                .sample_without_replacement(len(open_pos), n_k)
            chosen.extend((j, int(open_pos[p])) for p in pick)
        ctx = np.stack([h[j, i] for j, i in chosen])
        if cfg.head_kind == "energy":
            if dcfg.head_steps != 1:
                raise ValueError("energy heads sample in exactly one step")
            noise = np.stack([
                root.child(f"seq/{j}").child(f"pos/{i}/noise")
                .normal((LATENT_DIM,)) for j, i in chosen])
            out = model.head.energy_sample(ctx, noise)
        else:
            out = model.head.sample(ctx, dcfg.head_steps, root.child(f"iter/{k}/head"))
        head_rows += len(out)
        for row, (j, i) in enumerate(chosen):
            latents[j, i] = out[row]
            generated[j, i] = True
            times_generated[j, i] += 1

    if not generated.all() or not np.all(times_generated == 1):
        raise RuntimeError("decode failed to cover every position exactly once")
    stats = {
        "backbone_forwards": model.backbone_forwards - backbone_before,
        "head_rows": head_rows,
        "per_iteration": counts,
    }
    return latents, stats
