"""Focused calibration: w=192 budgets for all five methods, seeds 1-2."""
import time

from escore import data, metrics
from escore.heads import HeadConfig
from escore.swiss import ToyHeadModel


def trial(kind, seed, steps, batch, width=192, lr=1e-3, x0_clip=4.0, extra_steps=()):
    cfg = HeadConfig(kind=kind, width=width, x0_clip=x0_clip)
    t0 = time.perf_counter()
    model = ToyHeadModel(cfg, seed)
    model.train(steps=steps, batch=batch, lr=lr)
    dt = time.perf_counter() - t0
    ref = data.swiss_roll(2048, 0.03, seed=10_000 + seed).points
    line = f"{kind:9s} seed{seed} w{width} b{batch} s{steps}: {dt:6.1f}s"
    for st in (1,) + tuple(extra_steps):
        s = model.sample(2048, st, seed=20_000 + seed)
        rep = metrics.evaluate_samples(s, ref, kind, st, seed)
        line += f"  [{st}]MMD={rep.mmd:.6f} WSD={rep.wsd:.4f}"
    print(line, flush=True)


for seed in (1, 2):
    trial("energy", seed, 1300, 256)
    trial("diffusion", seed, 1200, 192, x0_clip=2.0, extra_steps=(4, 100))
    trial("flow", seed, 2000, 192, extra_steps=(4, 100))
    trial("shortcut", seed, 1400, 192)
    trial("meanflow", seed, 2400, 192)
