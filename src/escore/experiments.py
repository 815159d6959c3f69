"""Experiment runners behind the CLI verbs: training runs, the five-way
Swiss-roll comparison, MAR training/decoding, and hyperparameter sweeps.

Sweep cells are pure functions of (config, seed), so results are identical
whether they run serially or on the ESCORE_THREADS worker pool.
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data, mar, metrics, svg
from .config import (ConfigError, check_config, config_digest, decode_config_from,
                     head_config_from, mar_config_from, write_run_config)
from .heads import HEAD_KINDS
from .mar import MarConfig, MarModel, train_mar
from .metrics import MetricsReport
from .swiss import ToyHeadModel

PLOT_REFERENCE_SEED = 7777
LOSS_HEADER = ["step", "energy", "distill", "total", "lambda", "lr", "seed"]
SWEEP_PARAMS = {   # --param -> (config key each grid value sets, student checkpoint name)
    "lambda": ("mar_train.lambda", "student_lambda{:g}"),
    "cfg": ("decode.cfg_scale", "student"),
    "m": ("mar.m", "student_m{}"),
    "wiring": ("mar.wiring", "student_{}"),
}
SCORES = ("mmd", "wsd", "energy_u", "energy_v")
MULTI_STEP_KINDS = ("diffusion", "flow")   # compared at compare.multi_steps as well as 1


def worker_count() -> int:
    """Sweep worker pool size from ESCORE_THREADS (default 1)."""
    raw = os.environ.get("ESCORE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"ESCORE_THREADS must be an integer >= 1, got {raw!r}")
    return count


def run_jobs(fn, arg_tuples: list[tuple]):
    """Run jobs serially or on a process pool; results in submission order."""
    workers = min(worker_count(), len(arg_tuples))
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [f.result() for f in futures]


def _refuse_nonempty(out_dir) -> Path:
    """``out_dir`` as a path, unless it is a directory with something in it."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty; completed runs "
                          "are immutable")
    return out


def fresh_dir(out_dir, cfg: dict | None = None) -> Path:
    out = _refuse_nonempty(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg is not None:
        write_run_config(out, cfg)
    return out


def write_loss_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOSS_HEADER)
        for row in rows:
            writer.writerow([row["step"], repr(row["energy"]), repr(row["distill"]),
                             repr(row["total"]), repr(row["lambda"]),
                             repr(row["lr"]), row["seed"]])


def append_metrics_rows(path, reports: list[MetricsReport]) -> None:
    """One CSV row per report, after the header when ``path`` is new."""
    path = Path(path)
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if new:
            writer.writerow(MetricsReport.CSV_HEADER)
        writer.writerows(report.csv_row() for report in reports)


# ---------------------------------------------------------------------------
# toy heads

def _train_toy_head(model: ToyHeadModel, cfg: dict, out: Path,
                    steps: int | None = None) -> ToyHeadModel:
    """Trains one toy head, then creates ``out`` and writes its loss.csv and
    head.ckpt there: a run that fails leaves no directory."""
    t = cfg["train"]
    log = model.train(steps=steps or t["steps"], batch=t["batch"], lr=t["lr"],
                      warmup=t["warmup"], weight_decay=t["weight_decay"],
                      pool=cfg["data"]["pool"], noise_sigma=cfg["data"]["noise_sigma"])
    out.mkdir(parents=True, exist_ok=True)
    write_loss_csv(out / "loss.csv", log)
    model.save(out / "head.ckpt", config_digest=config_digest(cfg), step=len(log))
    return model


def run_train_head(cfg: dict, out_dir) -> Path:
    model = ToyHeadModel(head_config_from(cfg), cfg["seed"])
    out = _refuse_nonempty(out_dir)
    _train_toy_head(model, cfg, out)
    write_run_config(out, cfg)
    return out / "head.ckpt"


def run_sample(ckpt_path, steps: int, n: int, seed: int, out_csv, noise_sigma: float,
               svg_path=None) -> np.ndarray:
    model = ToyHeadModel.load(ckpt_path)
    samples = model.sample(n, steps, seed)   # checks the step count before any pass
    data.write_points_csv(out_csv, samples)
    if svg_path:
        ref = data.swiss_roll(n, noise_sigma, seed=PLOT_REFERENCE_SEED).points
        title = f"{model.cfg.kind} ({steps} step{'s' if steps > 1 else ''})"
        svg.panel_grid_svg(svg_path, [(title, ref, samples)], cols=1)
    return samples


def run_eval(generated_csv, reference_csv, out_csv, method: str, steps: int,
             seed: int, bandwidth: float | str,
             metric_names: tuple[str, ...] = metrics.METRIC_NAMES) -> MetricsReport:
    known = sorted(metrics.METRIC_NAMES)
    bad = set(metric_names) - set(known)
    if bad:
        raise ConfigError(f"unknown metric name(s): {sorted(bad)}; known: {known}")
    if not metric_names:
        raise ConfigError(f"no metric named; known: {known}")
    gen, _ = data.read_points_csv(generated_csv)
    ref, _ = data.read_points_csv(reference_csv)
    if gen.shape[1] != ref.shape[1]:
        raise ConfigError(f"dimension mismatch: generated has {gen.shape[1]} "
                          f"columns, reference has {ref.shape[1]}")
    report = metrics.evaluate_samples(gen, ref, method, steps, seed, bandwidth, metric_names)
    append_metrics_rows(out_csv, [report])
    return report


# ---------------------------------------------------------------------------
# compare-swissroll (the five-way one-step comparison)

def _compare_cell(cfg: dict, method: str, seed: int, cell_dir: str) -> list[MetricsReport]:
    """Train one head on one seed; sample and score it at each step count."""
    out = Path(cell_dir)
    model = _train_toy_head(ToyHeadModel(head_config_from(cfg, method), seed), cfg, out,
                            steps=cfg["compare"]["steps_by_method"][method])

    n = cfg["compare"]["sample_n"]
    reference = data.swiss_roll(n, cfg["data"]["noise_sigma"], seed=10_000 + seed).points
    reports = []
    for steps in [1] + (cfg["compare"]["multi_steps"] if method in MULTI_STEP_KINDS else []):
        samples = model.sample(n, steps, seed=20_000 + seed)
        data.write_points_csv(out / f"samples_step{steps}.csv", samples)
        reports.append(metrics.evaluate_samples(samples, reference, method, steps, seed,
                                                cfg["metrics"]["bandwidth"]))
    return reports


def run_compare(cfg: dict, out_dir) -> Path:
    for method in MULTI_STEP_KINDS:   # a step count a head cannot take fails before any output
        for steps in cfg["compare"]["multi_steps"]:
            head_config_from(cfg, method).check_steps(steps)
    out = fresh_dir(out_dir, cfg)
    seeds = cfg["compare"]["seeds"]
    jobs = [(cfg, method, seed, str(out / "cells" / f"{method}_seed{seed}"))
            for seed in seeds for method in HEAD_KINDS]
    reports = [rep for cell in run_jobs(_compare_cell, jobs) for rep in cell]
    reports.sort(key=lambda r: (r.seed, r.method, r.steps))
    metrics_path = out / "metrics.csv"
    append_metrics_rows(metrics_path, reports)

    n = cfg["compare"]["sample_n"]
    for seed in seeds:
        reference = data.swiss_roll(n, cfg["data"]["noise_sigma"], seed=10_000 + seed).points
        panels = []
        for method in HEAD_KINDS:
            pts, _ = data.read_points_csv(out / "cells" / f"{method}_seed{seed}"
                                          / "samples_step1.csv")
            panels.append((f"{method} (1 step)", reference, pts))
        svg.panel_grid_svg(out / f"swissroll_seed{seed}.svg", panels)
    return metrics_path


# ---------------------------------------------------------------------------
# MAR training / decoding

def build_mar_model(cfg: dict, role: str, seed: int,
                    teacher: MarModel | None = None) -> MarModel:
    """The untrained MAR teacher or student of ``cfg``; a student takes the
    teacher's backbone under ``mar_train.init_from_teacher``. A given teacher
    must share the sequence length and width whose representations the
    student is trained against."""
    if role == "student" and cfg["mar_train"]["lambda"] > 0 and teacher is None:
        raise ConfigError("mar_train.lambda > 0 requires --teacher")
    kind = "diffusion" if role == "teacher" else None
    mcfg = mar_config_from(cfg, head_kind=kind)
    for key in ("seq_len", "hidden_dim") if teacher is not None else ():
        mine, theirs = getattr(mcfg, key), getattr(teacher.cfg, key)
        if mine != theirs:
            raise ConfigError(f"mar.{key}={mine} differs from the teacher's {theirs}")
    model = MarModel(mcfg, seed)
    if role == "student" and teacher is not None and cfg["mar_train"]["init_from_teacher"]:
        for name, p in model.params.items():
            if name.startswith("backbone.") and name in teacher.params:
                p.value = teacher.params[name].value.copy()
    return model


def _train_mar(cfg: dict, role: str, model: MarModel, teacher: MarModel | None,
               ckpt: Path, loss_csv: Path) -> MarModel:
    """Trains a model from :func:`build_mar_model`, then writes its loss log
    and checkpoint, creating their directory: a run that fails leaves none."""
    t = cfg["mar_train"]
    log = train_mar(model, steps=t["steps"], batch=t["batch"], lr=t["lr"],
                    warmup=t["warmup"],
                    lam=cfg["mar_train"]["lambda"] if role == "student" else 0.0,
                    teacher=teacher, per_class=cfg["data"]["per_class"],
                    weight_decay=t["weight_decay"],
                    frozen_backbone=t["frozen_backbone"],
                    jitter=cfg["data"]["jitter"])
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    write_loss_csv(loss_csv, log)
    model.save(ckpt, config_digest=config_digest(cfg), step=len(log),
               extra={"role": role, "lambda": cfg["mar_train"]["lambda"]})
    return model


def run_train_mar(cfg: dict, out_dir, role: str, teacher_ckpt=None) -> Path:
    if role not in ("teacher", "student"):
        raise ConfigError(f"--role must be teacher or student, got {role!r}")
    teacher = MarModel.load(teacher_ckpt) if teacher_ckpt else None
    model = build_mar_model(cfg, role, cfg["seed"], teacher)
    out = _refuse_nonempty(out_dir)
    _train_mar(cfg, role, model, teacher, out / "mar.ckpt", out / "loss.csv")
    write_run_config(out, cfg)
    return out / "mar.ckpt"


def run_decode(cfg: dict, ckpt_path, class_id: int | None, out_dir,
               head_steps: int | None = None) -> Path:
    """Decodes ``decode.n_seq`` sequences of ``class_id`` with the seed
    ``cfg["seed"]`` as :func:`config.decode_config_from` reads ``cfg``; writes
    sequences.csv and decode_stats.json, which records the settings and the
    backbone and head work of the decode."""
    model = MarModel.load(ckpt_path)
    n_seq = cfg["decode"]["n_seq"]
    dcfg = decode_config_from(cfg, cfg["seed"], model.head.cfg, head_steps)
    _refuse_nonempty(out_dir)   # a decode that fails leaves no run directory
    latents, stats = model.decode(class_id, n_seq, dcfg)
    out = fresh_dir(out_dir)
    seq_csv = out / "sequences.csv"
    length = model.cfg.seq_len
    flat = latents.reshape(n_seq * length, data.LATENT_DIM)
    positions = np.tile(np.arange(length), n_seq)
    data.write_points_csv(seq_csv, flat, extra={"position": positions})
    stats_out = {"class_id": class_id, "n_seq": n_seq, **asdict(dcfg), **stats}
    (out / "decode_stats.json").write_text(json.dumps(stats_out, sort_keys=True,
                                                      indent=2) + "\n")
    return seq_csv


# ---------------------------------------------------------------------------
# sweeps

def heldout_pools(mcfg: MarConfig, eval_per_class: int, jitter: float) -> dict[int, np.ndarray]:
    """Per-class held-out point clouds, independent of any training seed."""
    latents, _ = mar.class_pools(mcfg, seed=531, per_class=eval_per_class,
                                 jitter=jitter, tag="heldout")
    return {c: latents[c * eval_per_class:(c + 1) * eval_per_class]
            .reshape(-1, data.LATENT_DIM) for c in range(data.N_CLASSES)}


def decode_and_score(model: MarModel, cfg: dict, seed: int) -> dict[str, float]:
    """Decode every class as :func:`config.decode_config_from` reads ``cfg``, each from
    its own seed; mean scores against held-out pools."""
    eval_per_class = cfg["sweep"]["eval_per_class"]
    pools = heldout_pools(model.cfg, eval_per_class, cfg["data"]["jitter"])
    reports = []
    for c in range(data.N_CLASSES):
        dcfg = decode_config_from(cfg, 40_000 + 97 * seed + c, model.head.cfg)
        latents, _ = model.decode(c, eval_per_class, dcfg)
        reports.append(metrics.evaluate_samples(
            latents.reshape(-1, data.LATENT_DIM), pools[c], model.cfg.head_kind,
            1, seed, cfg["metrics"]["bandwidth"]))
    out = {k: sum(getattr(r, k) for r in reports) / data.N_CLASSES for k in SCORES}
    out["n"] = sum(r.n for r in reports)
    return out


def _grid_config(cfg: dict, param: str, value) -> dict:
    """``cfg`` with ``param``'s key set to a value the student can train with."""
    sub = json.loads(json.dumps(cfg))
    section, name = SWEEP_PARAMS[param][0].split(".")
    sub[section][name] = value
    try:
        check_config(sub)
    except ValueError as exc:
        raise ConfigError(f"--values {value!r}: {exc}") from None
    return sub


def _sweep_cell(cfg: dict, param: str, seed: int, values: list,
                cell_dir: str) -> list[dict]:
    """One seed of a sweep: each grid value sets ``param``'s key, trains the
    student it names (the decode-only ``cfg`` values share one) and scores
    it. Students with lambda > 0 distil from one teacher trained on ``cfg``."""
    out = Path(cell_dir)
    teacher = student = trained = None
    rows = []
    for value in values:
        sub = _grid_config(cfg, param, value)
        tag = SWEEP_PARAMS[param][1].format(value)
        if tag != trained:
            lam = sub["mar_train"]["lambda"]
            if lam > 0 and teacher is None:
                teacher = _train_mar(cfg, "teacher", build_mar_model(cfg, "teacher", seed),
                                     None, out / "teacher.ckpt", out / "teacher.loss.csv")
            distil_from = teacher if lam > 0 else None
            student = _train_mar(sub, "student",
                                 build_mar_model(sub, "student", seed, distil_from),
                                 distil_from, out / f"{tag}.ckpt", out / f"{tag}.loss.csv")
            trained = tag
        scores = decode_and_score(student, sub, seed)
        rows.append({"param": param, "value": value, "seed": seed, **scores})
    return rows


def run_sweep(cfg: dict, out_dir, param: str, values: list) -> Path:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if not values:
        raise ConfigError("--values must list at least one grid point")
    for value in values:   # a value that cannot train fails before any output
        _grid_config(cfg, param, value)
    out = fresh_dir(out_dir, cfg)
    seeds = cfg["sweep"]["seeds"]
    jobs = [(cfg, param, seed, values, str(out / "cells" / f"seed{seed}"))
            for seed in seeds]
    per_seed = run_jobs(_sweep_cell, jobs)

    cell_rows = [row for rows in per_seed for row in rows]
    cell_rows.sort(key=lambda r: (str(r["value"]), r["seed"]))
    with open(out / "sweep_cells.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seed", "n", *SCORES])
        for r in cell_rows:
            writer.writerow([r["param"], r["value"], r["seed"], r["n"]]
                            + [repr(r[k]) for k in SCORES])

    seed_tag = "|".join(str(s) for s in seeds)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seeds", "n", *SCORES])
        for value in values:
            rows = [r for r in cell_rows if r["value"] == value]
            writer.writerow([param, value, seed_tag, rows[0]["n"]] + [
                repr(float(np.mean([r[k] for r in rows]))) for k in SCORES])
    return out / "sweep.csv"
