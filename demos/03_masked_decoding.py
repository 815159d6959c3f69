"""Masked sequence training and iterative parallel decoding with guidance.

A small transformer reads a partially-masked 16-point trace plus a class
token and produces per-position context rows; the energy head fills masked
positions in one sampling step each. Decoding starts fully masked and
un-masks a cosine-scheduled batch of positions per iteration, combining
conditional and null contexts linearly for classifier-free guidance.

Run:  python3 demos/03_masked_decoding.py  (about a minute)
"""
import pathlib
import time

from escore import svg
from escore.data import CLASS_NAMES
from escore.mar import DecodeConfig, MarConfig, MarModel, class_pools, train_mar

OUT = pathlib.Path(__file__).with_suffix("") / "out"
OUT.mkdir(parents=True, exist_ok=True)

cfg = MarConfig(hidden_dim=32, n_blocks=2, n_heads=2, head_width=64, head_depth=2)
model = MarModel(cfg, seed=11)
print("Training a small masked autoregressive student (300 steps)...")
t0 = time.perf_counter()
log = train_mar(model, steps=300, batch=24, per_class=256)
print(f"  done in {time.perf_counter() - t0:.1f}s; "
      f"loss {log[0]['total']:.3f} -> {log[-1]['total']:.3f}")

heldout, _ = class_pools(cfg, seed=77, per_class=24, tag="demo")
panels = []
for class_id, name in enumerate(CLASS_NAMES):
    dcfg = DecodeConfig(iterations=8, cfg_scale=2.0, seed=40 + class_id)
    sequences, stats = model.decode(class_id, n_seq=24, dcfg=dcfg)
    print(f"  class {name!r}: per-iteration unmask counts {stats['per_iteration']}, "
          f"{stats['backbone_forwards']} backbone passes, "
          f"{stats['head_rows']} head samples")
    ref = heldout[class_id * 24:(class_id + 1) * 24].reshape(-1, 2)
    panels.append((name, ref, sequences.reshape(-1, 2)))

plot = OUT / "decoded_classes.svg"
svg.panel_grid_svg(plot, panels)
print(f"Wrote {plot}.")

print("\nAt scale 1.0 guidance keeps the conditional pass alone, so no null pass runs:")
passes = {scale: model.decode(0, 4, DecodeConfig(iterations=8, cfg_scale=scale,
                                                 seed=5))[1]["backbone_forwards"]
          for scale in (1.0, 2.0)}
print(f"  backbone passes at scale 1.0: {passes[1.0]}, at scale 2.0: {passes[2.0]}")
