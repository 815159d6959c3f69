"""Try budget variants per method; print time and 1-step quality."""
import time
import numpy as np
from escore.swiss import ToyHeadModel
from escore.heads import HeadConfig
from escore import data, metrics

def trial(kind, seed, steps, batch, lr=1e-3, warmup=200, hv=None):
    cfg = HeadConfig(kind=kind, **(hv or {}))
    t0 = time.perf_counter()
    model = ToyHeadModel(cfg, seed)
    model.train(steps=steps, batch=batch, lr=lr, warmup=warmup)
    dt = time.perf_counter() - t0
    ref = data.swiss_roll(2048, 0.03, seed=10_000 + seed).points
    s = model.sample(2048, 1, seed=20_000 + seed)
    rep = metrics.evaluate_samples(s, ref, kind, 1, seed)
    print(f"{kind:9s} seed{seed} steps={steps} batch={batch} lr={lr} {hv or ''}"
          f" -> {dt:5.1f}s MMD={rep.mmd:.6f} WSD={rep.wsd:.4f}", flush=True)
    return model, rep

# energy variants
trial("energy", 1, 1200, 256)
trial("energy", 1, 2400, 128)
trial("energy", 2, 1200, 256)
# flow longer: does one-step collapse emerge?
trial("flow", 1, 2400, 128)
trial("flow", 1, 1600, 256)
# meanflow variants
trial("meanflow", 1, 1800, 256)
trial("meanflow", 1, 3000, 128)
trial("meanflow", 2, 1800, 256)
# diffusion with tighter x0 clip
m, _ = trial("diffusion", 1, 1200, 256, hv={"x0_clip": 2.0})
for st in (4, 100):
    s = m.sample(2048, st, seed=20_001)
    ref = data.swiss_roll(2048, 0.03, seed=10_001).points
    rep = metrics.evaluate_samples(s, ref, "diffusion", st, 1)
    print(f"diffusion clip2 {st}-step MMD={rep.mmd:.6f} WSD={rep.wsd:.4f}", flush=True)
trial("shortcut", 1, 1400, 256)
