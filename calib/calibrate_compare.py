"""Calibration: five-way swiss-roll comparison quality at default budgets."""
import sys, time
import numpy as np
from escore.swiss import ToyHeadModel
from escore import data, metrics
from escore.heads import HeadConfig

seeds = [int(s) for s in sys.argv[1].split(",")] if len(sys.argv) > 1 else [1]
budgets = {"energy": 1400, "diffusion": 1400, "flow": 1400, "shortcut": 1700, "meanflow": 2100}

for seed in seeds:
    ref = data.swiss_roll(2048, 0.03, seed=10_000 + seed).points
    rows = {}
    for kind, steps in budgets.items():
        t0 = time.perf_counter()
        model = ToyHeadModel(HeadConfig(kind=kind), seed)
        model.train(steps=steps, batch=128)
        train_t = time.perf_counter() - t0
        out = {}
        for s in ([1, 4, 100] if kind in ("diffusion", "flow") else [1]):
            samples = model.sample(2048, s, seed=20_000 + seed)
            rep = metrics.evaluate_samples(samples, ref, kind, s, seed)
            out[s] = (rep.mmd, rep.wsd)
        rows[kind] = out
        one = out[1]
        print(f"seed {seed} {kind:9s} steps={steps:5d} {train_t:6.1f}s  "
              f"1-step MMD={one[0]:.6f} WSD={one[1]:.4f}"
              + (f"  4-step MMD={out[4][0]:.6f} 100-step MMD={out[100][0]:.6f}"
                 if len(out) > 1 else ""), flush=True)
    mmds = {k: rows[k][1][0] for k in budgets}
    wsds = {k: rows[k][1][1] for k in budgets}
    order = sorted(mmds, key=mmds.get)
    print(f"seed {seed}: MMD order {order}")
    print(f"seed {seed}: energy lowest MMD: {order[0]=='energy'}, lowest WSD: {min(wsds, key=wsds.get)=='energy'}, "
          f"flow highest: {order[-1]=='flow'}, meanflow 2nd: {order[1]=='meanflow'}")
    d = rows["diffusion"]
    print(f"seed {seed}: diffusion degradation "
          f"1>{d[1][0]:.5f} 4>{d[4][0]:.5f} 100>{d[100][0]:.5f} "
          f"ratios {d[1][0]/max(d[4][0],1e-12):.1f}x {d[4][0]/max(d[100][0],1e-12):.1f}x", flush=True)
