"""One-step sampling on the Swiss roll with an energy-scoring head.

The head maps (context, Gaussian noise) -> point in one forward pass and is
trained by minimizing the two-sample energy objective
||x1 - y|| + ||x2 - y|| - ||x1 - x2||: the first two terms pull model
samples toward the data, the last pushes distinct samples apart so the head
cannot collapse to a point mass.

Run:  python3 demos/01_swiss_roll_energy_head.py
"""
import pathlib
import time

from escore import data, metrics, svg
from escore.heads import HeadConfig
from escore.swiss import ToyHeadModel

OUT = pathlib.Path(__file__).with_suffix("") / "out"
OUT.mkdir(parents=True, exist_ok=True)

print("Training a small energy-scoring head (width 128, 600 steps)...")
t0 = time.perf_counter()
model = ToyHeadModel(HeadConfig(kind="energy", width=128), seed=7)
log = model.train(steps=600, batch=128)
print(f"  done in {time.perf_counter() - t0:.1f}s; "
      f"loss {log[0]['total']:.3f} -> {log[-1]['total']:.3f}")

print("Sampling 2048 points in ONE forward pass per point...")
samples = model.sample(2048, steps=1, seed=123)
reference = data.swiss_roll(2048, noise_sigma=0.03, seed=999).points

report = metrics.evaluate_samples(samples, reference, "energy", 1, 7)
floor = metrics.evaluate_samples(
    data.swiss_roll(2048, 0.03, seed=555).points, reference, "data", 0, 0)
print(f"  MMD^2  {report.mmd:.6f}   (fresh-data floor {floor.mmd:.6f})")
print(f"  W1     {report.wsd:.4f}   (fresh-data floor {floor.wsd:.4f})")
print(f"  energy {report.energy_v:.6f} (fresh-data floor {floor.energy_v:.6f})")

plot = OUT / "energy_one_step.svg"
svg.panel_grid_svg(plot, [("energy head, 1 step", reference, samples)], cols=1)
print(f"Wrote {plot} (data in blue, samples in orange).")
