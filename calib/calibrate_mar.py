"""MAR calibration: teacher quality, lambda grid shape, CFG scale curve."""
import sys
import time

import numpy as np

from escore import metrics
from escore.heads import HeadConfig
from escore.mar import DecodeConfig, MarConfig, MarModel, class_pools, train_mar
from escore.metrics import energy_statistic

SEEDS = [int(s) for s in sys.argv[1].split(",")] if len(sys.argv) > 1 else [1]
STEPS = int(sys.argv[2]) if len(sys.argv) > 2 else 700
BATCH = 32
EVAL_N = 40

BASE = MarConfig()


def heldout():
    latents, _ = class_pools(BASE, seed=531, per_class=EVAL_N, tag="heldout")
    return {c: latents[c * EVAL_N:(c + 1) * EVAL_N].reshape(-1, 2) for c in range(3)}


POOLS = heldout()


def score(model, scale, seed, head_steps=1):
    vals = {"energy_v": 0.0, "mmd": 0.0, "wsd": 0.0}
    for c in range(3):
        dcfg = DecodeConfig(iterations=8, cfg_scale=scale, seed=40_000 + 97 * seed + c,
                            head_steps=head_steps)
        latents, _ = model.decode(c, EVAL_N, dcfg)
        gen = latents.reshape(-1, 2)
        vals["energy_v"] += energy_statistic(gen, POOLS[c], mode="v") / 3
        vals["mmd"] += metrics.mmd_gaussian(gen, POOLS[c])[0] / 3
        vals["wsd"] += metrics.wasserstein_assignment(gen, POOLS[c]) / 3
    return vals


for seed in SEEDS:
    t0 = time.perf_counter()
    teacher_cfg = MarConfig(head_kind="diffusion")
    fresh = MarModel(teacher_cfg, seed)
    before = score(fresh, 1.0, seed, head_steps=100)
    teacher = MarModel(teacher_cfg, seed)
    train_mar(teacher, steps=STEPS, batch=BATCH)
    after = score(teacher, 1.0, seed, head_steps=100)
    print(f"seed {seed} teacher({STEPS} steps, {time.perf_counter()-t0:.0f}s): "
          f"MMD before={before['mmd']:.5f} after={after['mmd']:.5f} "
          f"ratio={before['mmd']/max(after['mmd'],1e-12):.1f}x "
          f"e_v after={after['energy_v']:.5f}", flush=True)

    for lam in (0.0, 0.003, 0.01, 0.03, 0.1, 0.3):
        t1 = time.perf_counter()
        student = MarModel(MarConfig(), seed)
        log = train_mar(student, steps=STEPS, batch=BATCH, lam=lam,
                        teacher=teacher if lam > 0 else None)
        sc = {k: score(student, s, seed) for k, s in
              [("s1", 1.0), ("s2", 2.0), ("s4", 4.0), ("s6", 6.0)]}
        dst = log[-1]["distill"]
        print(f"seed {seed} lam={lam:<6g} ({time.perf_counter()-t1:.0f}s) "
              f"distill_end={dst:8.3f} e_v: "
              + " ".join(f"{k}={v['energy_v']:.5f}" for k, v in sc.items())
              + f"  mmd@4={sc['s4']['mmd']:.5f}", flush=True)
