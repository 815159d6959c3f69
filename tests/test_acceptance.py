"""Acceptance suite, stage A: the paper's toy claims at the default budgets.

Opt-in, because it trains every head kind for three seeds (about 5 min with
two workers on a 2-vCPU host):

    ESCORE_ACCEPTANCE=1 ESCORE_THREADS=2 PYTHONPATH=src \\
        python -m pytest -q -s tests/test_acceptance.py

Without ``ESCORE_ACCEPTANCE=1``, ``conftest.py`` leaves this file uncollected,
and named on the command line it is skipped.
It runs ``compare-swissroll --set 'compare.seeds=[1,2,3]'`` into
``.acceptance_out/compare`` at the repository root (git-ignored, emptied
first), whose ``cells/`` keep every trained ``head.ckpt`` for reuse. The
worker pool runs each worker's OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set: results do not depend
on it, and workers that each start a BLAS thread per core oversubscribe the
CPUs (27 min 45 s against 4 min 51 s on a 2-vCPU host). Then it prints one
PASS or FAIL line per criterion, metric and seed, writes the same lines to
``.acceptance_out/stage_a.txt``, and fails if any line fails:

- of the five heads, the energy head has the lowest one-step MMD, WSD and
  energy distance (``energy_v``), each metric its own line;
- diffusion MMD falls from 1 to 4 to 100 sampling steps.

A failing criterion is reported as failing; no seed, budget or scale is
tuned until it passes.
"""
import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(os.environ.get("ESCORE_ACCEPTANCE") != "1",
                                reason="set ESCORE_ACCEPTANCE=1 to run the acceptance suite")
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".acceptance_out"
SEEDS = (1, 2, 3)
HEADS = ("energy", "diffusion", "flow", "shortcut", "meanflow")
ONE_STEP_METRICS = ("mmd", "wsd", "energy_v")
DIFFUSION_STEPS = (1, 4, 100)


def stage_a_lines(rows: list[dict]) -> list[str]:
    """One PASS/FAIL line per criterion, metric and seed of ``metrics.csv`` rows."""
    score = {(r["method"], int(r["steps"]), int(r["seed"])): r for r in rows}
    lines = []
    for metric in ONE_STEP_METRICS:
        for seed in SEEDS:
            values = {h: float(score[h, 1, seed][metric]) for h in HEADS}
            rival = min((h for h in HEADS if h != "energy"), key=values.get)
            ok = values["energy"] < values[rival]
            lines.append(f"{'PASS' if ok else 'FAIL'}  seed {seed}  one-step {metric:<8} "
                         f"energy lowest of 5 heads: energy {values['energy']:.4g} "
                         f"{'<' if ok else '>='} {rival} {values[rival]:.4g}")
    for seed in SEEDS:
        mmd = [float(score["diffusion", s, seed]["mmd"]) for s in DIFFUSION_STEPS]
        ok = all(a > b for a, b in zip(mmd, mmd[1:]))
        steps = " > ".join(str(s) for s in DIFFUSION_STEPS)
        lines.append(f"{'PASS' if ok else 'FAIL'}  seed {seed}  diffusion mmd     "
                     f"falls over {steps} steps: "
                     + " / ".join(f"{v:.4g}" for v in mmd))
    return lines


def test_stage_a_toy_claims():
    shutil.rmtree(OUT, ignore_errors=True)
    run = OUT / "compare"
    print(f"\nstage A run directory: {run}")
    env = {"ESCORE_THREADS": "2", **os.environ, "PYTHONPATH": str(ROOT / "src")}
    seeds = ",".join(str(s) for s in SEEDS)
    subprocess.run([sys.executable, "-m", "escore.cli", "compare-swissroll", "--out", str(run),
                    "--set", f"compare.seeds=[{seeds}]"], env=env, check=True)
    with open(run / "metrics.csv", newline="") as fh:
        lines = stage_a_lines(list(csv.DictReader(fh)))
    (OUT / "stage_a.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    failed = [line for line in lines if line.startswith("FAIL")]
    assert not failed, f"{len(failed)} of {len(lines)} stage A lines fail"
