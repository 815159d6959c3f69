"""Reference sweep runners for the tests: one cell function per parameter.

These are the four per-parameter cells that ``experiments._sweep_cell``
replaced, with the ``decode_and_score`` they scored through and the table
writer of ``run_sweep``, run serially. Their decodes read ``cfg["decode"]``
as ``config.decode_config_from`` does, with the chain length as head steps
for a non-energy student. On the grids they could run (the m
and wiring cells trained no teacher, so only at lambda = 0), the single
cell must write the same ``sweep.csv`` and ``sweep_cells.csv`` bytes and
checkpoints with the same parameter values. Each model is written where the
sweep writes it: ``mar.ckpt`` (and the λ cell's ``loss.csv``) in a
directory named for the model.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from escore import metrics
from escore.config import config_digest, overridden
from escore.data import LATENT_DIM, N_CLASSES
from escore.experiments import TEACHER, build_mar_model, heldout_pools, write_loss_csv
from escore.mar import DecodeConfig, MarModel, train_mar
from escore.metrics import energy_statistic


def train_mar_model(cfg: dict, *, role: str, seed: int,
                    teacher: MarModel | None = None) -> tuple[MarModel, list[dict]]:
    """The trained MAR teacher (``cfg`` with ``TEACHER`` over it) or student
    of ``cfg`` and its loss log."""
    if role == "teacher":
        cfg = overridden(cfg, TEACHER)
    model = build_mar_model(cfg, seed, teacher)
    t = cfg["mar_train"]
    log = train_mar(model, steps=t["steps"], batch=t["batch"], lr=t["lr"],
                    warmup=t["warmup"], lam=t["lambda"] if role == "student" else 0.0,
                    teacher=teacher, per_class=cfg["data"]["per_class"],
                    weight_decay=t["weight_decay"], frozen_backbone=t["frozen_backbone"],
                    jitter=cfg["data"]["jitter"])
    return model, log


def decode_and_score(model: MarModel, cfg: dict, cfg_scale: float, seed: int,
                     eval_per_class: int) -> dict[str, float]:
    d = cfg["decode"]
    head_steps = 1 if model.cfg.head_kind == "energy" else model.head.cfg.t_diff
    pools = heldout_pools(model.cfg, eval_per_class, cfg["data"]["jitter"])
    agg = {"mmd": 0.0, "wsd": 0.0, "energy_u": 0.0, "energy_v": 0.0}
    n_total = 0
    for c in range(N_CLASSES):
        dcfg = DecodeConfig(iterations=d["iterations"], cfg_scale=cfg_scale,
                            schedule=d["schedule"], seed=40_000 + 97 * seed + c,
                            head_steps=head_steps)
        latents, _ = model.decode(c, eval_per_class, dcfg)
        gen = latents.reshape(-1, LATENT_DIM)
        ref = pools[c]
        mmd2, _ = metrics.mmd_gaussian(gen, ref, cfg["metrics"]["bandwidth"])
        agg["mmd"] += mmd2
        agg["wsd"] += metrics.wasserstein_assignment(gen, ref)
        agg["energy_u"] += energy_statistic(gen, ref, mode="u")
        agg["energy_v"] += energy_statistic(gen, ref, mode="v")
        n_total += len(gen)
    out = {k: v / N_CLASSES for k, v in agg.items()}
    out["n"] = n_total
    return out


def _model_path(cell: Path, name: str) -> Path:
    """The checkpoint path of the model ``name`` in its run directory under ``cell``."""
    (cell / name).mkdir(parents=True)
    return cell / name / "mar.ckpt"


def _sweep_cell_lambda(cfg: dict, seed: int, values: list[float],
                       cell_dir: str) -> list[dict]:
    out = Path(cell_dir)
    out.mkdir(parents=True, exist_ok=True)
    teacher, tlog = train_mar_model(cfg, role="teacher", seed=seed)
    teacher.save(_model_path(out, "teacher"), config_digest=config_digest(cfg),
                 step=len(tlog), extra={"role": "teacher"})
    eval_n = cfg["sweep"]["eval_per_class"]
    rows = []
    for lam in values:
        sub = json.loads(json.dumps(cfg))
        sub["mar_train"]["lambda"] = lam
        student, slog = train_mar_model(sub, role="student", seed=seed,
                                        teacher=teacher if lam > 0 else None)
        tag = f"student_lambda{lam:g}"
        path = _model_path(out, tag)
        write_loss_csv(path.with_name("loss.csv"), slog)
        student.save(path, config_digest=config_digest(sub),
                     step=len(slog), extra={"role": "student", "lambda": lam,
                                            "m": student.cfg.m_samples})
        scores = decode_and_score(student, cfg, cfg["decode"]["cfg_scale"],
                                  seed, eval_n)
        rows.append({"param": "lambda", "value": lam, "seed": seed, **scores})
    return rows


def _sweep_cell_cfg(cfg: dict, seed: int, values: list[float],
                    cell_dir: str) -> list[dict]:
    out = Path(cell_dir)
    out.mkdir(parents=True, exist_ok=True)
    lam = cfg["mar_train"]["lambda"]
    teacher = None
    if lam > 0:
        teacher, _ = train_mar_model(cfg, role="teacher", seed=seed)
    student, slog = train_mar_model(cfg, role="student", seed=seed, teacher=teacher)
    student.save(_model_path(out, "student"), config_digest=config_digest(cfg),
                 step=len(slog), extra={"role": "student", "lambda": lam})
    eval_n = cfg["sweep"]["eval_per_class"]
    rows = []
    for scale in values:
        scores = decode_and_score(student, cfg, scale, seed, eval_n)
        rows.append({"param": "cfg", "value": scale, "seed": seed, **scores})
    return rows


def _sweep_cell_m(cfg: dict, seed: int, values: list[int], cell_dir: str) -> list[dict]:
    out = Path(cell_dir)
    out.mkdir(parents=True, exist_ok=True)
    eval_n = cfg["sweep"]["eval_per_class"]
    rows = []
    for m in values:
        sub = json.loads(json.dumps(cfg))
        sub["mar"]["m"] = int(m)
        student, slog = train_mar_model(sub, role="student", seed=seed)
        student.save(_model_path(out, f"student_m{m}"), config_digest=config_digest(sub),
                     step=len(slog), extra={"role": "student", "m": int(m),
                                            "lambda": 0.0})
        scores = decode_and_score(student, sub, sub["decode"]["cfg_scale"],
                                  seed, eval_n)
        rows.append({"param": "m", "value": int(m), "seed": seed, **scores})
    return rows


def _sweep_cell_wiring(cfg: dict, seed: int, values: list[str],
                       cell_dir: str) -> list[dict]:
    out = Path(cell_dir)
    out.mkdir(parents=True, exist_ok=True)
    eval_n = cfg["sweep"]["eval_per_class"]
    rows = []
    for wiring in values:
        sub = json.loads(json.dumps(cfg))
        sub["mar"]["wiring"] = wiring
        student, slog = train_mar_model(sub, role="student", seed=seed)
        student.save(_model_path(out, f"student_{wiring}"), config_digest=config_digest(sub),
                     step=len(slog), extra={"role": "student", "wiring": wiring})
        scores = decode_and_score(student, sub, sub["decode"]["cfg_scale"],
                                  seed, eval_n)
        rows.append({"param": "wiring", "value": wiring, "seed": seed, **scores})
    return rows


SWEEP_CELLS = {"lambda": _sweep_cell_lambda, "cfg": _sweep_cell_cfg,
               "m": _sweep_cell_m, "wiring": _sweep_cell_wiring}


def run_sweep(cfg: dict, out: Path, param: str, values: list) -> None:
    """The sweep's tables and cell directories under ``out``, cells run serially."""
    seeds = cfg["sweep"]["seeds"]
    per_seed = [SWEEP_CELLS[param](cfg, seed, values, str(out / "cells" / f"seed{seed}"))
                for seed in seeds]

    cell_rows = [row for rows in per_seed for row in rows]
    cell_rows.sort(key=lambda r: (str(r["value"]), r["seed"]))
    with open(out / "sweep_cells.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seed", "n", "mmd", "wsd",
                         "energy_u", "energy_v"])
        for r in cell_rows:
            writer.writerow([r["param"], r["value"], r["seed"], r["n"],
                             repr(r["mmd"]), repr(r["wsd"]),
                             repr(r["energy_u"]), repr(r["energy_v"])])

    seed_tag = "|".join(str(s) for s in seeds)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seeds", "n", "mmd", "wsd",
                         "energy_u", "energy_v"])
        for value in values:
            rows = [r for r in cell_rows if r["value"] == value]
            writer.writerow([param, value, seed_tag, rows[0]["n"]] + [
                repr(float(np.mean([r[k] for r in rows])))
                for k in ("mmd", "wsd", "energy_u", "energy_v")])
