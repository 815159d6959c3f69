"""Experiment runners behind the CLI verbs: training runs, the five-way
Swiss-roll comparison, MAR training/decoding, and hyperparameter sweeps.

A verb builds its run directory beside ``--out`` and renames it into place,
so the directory appears whole or not at all; every model a compare or sweep
cell trains is such a run too, holding the config it trained with. A file
written outside a run directory (a ``sample`` CSV or plot, an ``eval``
metrics CSV) is built and renamed the same way. Compare and sweep cells are
pure functions of their config, which holds the cell's seed, so results are
identical whether they run serially or on the ESCORE_THREADS worker pool,
whose workers run OpenBLAS on one thread each.
"""
from __future__ import annotations

import csv
import ctypes
import errno
import functools
import glob
import json
import os
import shutil
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data, mar, metrics, svg
from .config import (ConfigError, config_digest, decode_config_from, first_repeat,
                     head_config_from, mar_config_from, nested, overridden)
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
# a teacher run: a diffusion head training its whole model from scratch
TEACHER = {"mar": {"head_kind": "diffusion"},
           "mar_train": {"lambda": 0.0, "frozen_backbone": False, "init_from_teacher": False}}
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


@functools.cache
def bundled_openblas() -> ctypes.CDLL | None:
    """The scipy-openblas library that numpy's wheel bundles, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        return ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return None


def _one_blas_thread() -> None:
    """Pool initializer: numpy's bundled OpenBLAS runs on one thread unless the
    environment sets its thread count. A forked worker keeps the parent's
    count, a thread per core, so the workers together would oversubscribe."""
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        bundled_openblas().scipy_openblas_set_num_threads64_(1)
    except AttributeError:   # no bundled library, or one without the call
        pass


def run_jobs(fn, arg_tuples: list[tuple]):
    """Run jobs serially or on a process pool; results in submission order.
    After the first failure the jobs not yet started are cancelled, and the
    failure is raised once the running ones have finished."""
    workers = min(worker_count(), len(arg_tuples))
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        wait(futures, return_when=FIRST_EXCEPTION)
        pool.shutdown(cancel_futures=True)
        return [f.result() for f in futures]   # started in order: a failure precedes a cancel


def _refuse_filled(out: Path) -> None:
    if out.exists() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty; completed runs "
                          "are immutable")


@contextmanager
def _run_dir(out_dir, cfg: dict | None = None):
    """Yields a hidden sibling of ``out_dir`` to build a run in, holding the
    resolved config and its digest when ``cfg`` is given, and renames it onto
    ``out_dir`` when the block returns; removes it when the block raises."""
    out = Path(out_dir)
    _refuse_filled(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = out.parent / f".{out.name}.{os.getpid()}.partial"
    stage.mkdir()
    try:
        if cfg is not None:
            (stage / "config.json").write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
            (stage / "config.digest").write_text(config_digest(cfg) + "\n")
        yield stage
        try:
            os.replace(stage, out)
        except OSError:   # another run filled --out meanwhile
            _refuse_filled(out)
            raise
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


@contextmanager
def _replaced(path):
    """Yields a hidden sibling of the file ``path`` to write in, and renames
    it onto ``path`` when the block returns; removes it when the block
    raises, so ``path`` holds its old bytes or its new ones, never a part."""
    path = Path(path)
    if not path.parent.is_dir():   # named here, not through the hidden sibling
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(path.parent))
    stage = path.parent / f".{path.name}.{os.getpid()}.partial"
    try:
        yield stage
        os.replace(stage, path)
    except BaseException:
        stage.unlink(missing_ok=True)
        raise


@contextmanager
def _naming(ckpt_path, doing: str):
    """A numeric failure in the block names the checkpoint it was ``doing``."""
    try:
        yield
    except FloatingPointError as exc:   # graph.NonFiniteError among them
        raise type(exc)(f"{exc} ({doing} {ckpt_path})") from None


def write_loss_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOSS_HEADER)
        for row in rows:
            writer.writerow([row["step"], repr(row["energy"]), repr(row["distill"]),
                             repr(row["total"]), repr(row["lambda"]),
                             repr(row["lr"]), row["seed"]])


def _metrics_csv_is_new(path) -> bool:
    """Whether ``path`` is absent or empty; a usage error naming it when it
    holds anything but a metrics CSV, whose first line is the header."""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
    except FileNotFoundError:
        return True
    if first and first.rstrip(b"\r\n") != ",".join(MetricsReport.CSV_HEADER).encode():
        raise ConfigError(f"{path}: not a metrics CSV (its first line is not the header "
                          f"{','.join(MetricsReport.CSV_HEADER)}); no row appended")
    return not first


def append_metrics_rows(path, reports: list[MetricsReport]) -> None:
    """One CSV row per report, after the header when ``path`` is new or
    empty; the rows and the old bytes are written to a new file, which
    replaces ``path``."""
    new = _metrics_csv_is_new(path)
    with _replaced(path) as stage:
        if not new:
            shutil.copy(path, stage)
        with open(stage, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(MetricsReport.CSV_HEADER)
            writer.writerows(report.csv_row() for report in reports)


# ---------------------------------------------------------------------------
# toy heads

def _train_toy_head(model: ToyHeadModel, cfg: dict, out: Path) -> ToyHeadModel:
    """Trains one toy head, then writes its loss.csv and head.ckpt in ``out``."""
    t = cfg["train"]
    log = model.train(steps=t["steps"], batch=t["batch"], lr=t["lr"],
                      warmup=t["warmup"], weight_decay=t["weight_decay"],
                      pool=cfg["data"]["pool"], noise_sigma=cfg["data"]["noise_sigma"])
    write_loss_csv(out / "loss.csv", log)
    model.save(out / "head.ckpt", config_digest=config_digest(cfg), step=len(log))
    return model


def run_train_head(cfg: dict, out_dir) -> Path:
    model = ToyHeadModel(head_config_from(cfg), cfg["seed"])
    with _run_dir(out_dir, cfg) as run:
        _train_toy_head(model, cfg, run)
    return Path(out_dir) / "head.ckpt"


def run_sample(ckpt_path, steps: int, n: int, seed: int, out_csv, noise_sigma: float,
               svg_path=None) -> np.ndarray:
    model = ToyHeadModel.load(ckpt_path)
    with _naming(ckpt_path, "sampling"):
        samples = model.sample(n, steps, seed)   # checks the step count before any pass
    with _replaced(out_csv) as stage:
        data.write_points_csv(stage, samples)
    if svg_path:
        ref = data.swiss_roll(n, noise_sigma, seed=PLOT_REFERENCE_SEED).points
        title = f"{model.cfg.kind} ({steps} step{'s' if steps > 1 else ''})"
        with _replaced(svg_path) as stage:
            svg.panel_grid_svg(stage, [(title, ref, samples)], cols=1)
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
    _metrics_csv_is_new(out_csv)   # appends only to a metrics CSV, checked before any metric
    gen, _ = data.read_points_csv(generated_csv)
    ref, _ = data.read_points_csv(reference_csv)
    if gen.shape[1] != ref.shape[1]:
        raise ConfigError(f"dimension mismatch: generated {generated_csv} has {gen.shape[1]} "
                          f"columns, reference {reference_csv} has {ref.shape[1]}")
    try:
        report = metrics.evaluate_samples(gen, ref, method, steps, seed, bandwidth,
                                          metric_names)
    except ValueError as exc:   # point sets the metrics cannot score
        raise ValueError(f"{generated_csv} against {reference_csv}: {exc}") from None
    append_metrics_rows(out_csv, [report])
    return report


# ---------------------------------------------------------------------------
# compare-swissroll (the five-way one-step comparison)

def _compare_cell(cfg: dict, cell_dir: str) -> list[MetricsReport]:
    """Train the head of ``cfg`` on its seed in the run ``cell_dir``; sample
    and score it at each step count."""
    method, seed = cfg["head"]["method"], cfg["seed"]
    n = cfg["compare"]["sample_n"]
    reference = data.swiss_roll(n, cfg["data"]["noise_sigma"], seed=10_000 + seed).points
    reports = []
    with _run_dir(cell_dir, cfg) as out:
        model = _train_toy_head(ToyHeadModel(head_config_from(cfg), seed), cfg, out)
        for steps in [1] + (cfg["compare"]["multi_steps"] if method in MULTI_STEP_KINDS else []):
            samples = model.sample(n, steps, seed=20_000 + seed)
            data.write_points_csv(out / f"samples_step{steps}.csv", samples)
            reports.append(metrics.evaluate_samples(samples, reference, method, steps, seed,
                                                    cfg["metrics"]["bandwidth"]))
    return reports


def run_compare(cfg: dict, out_dir) -> Path:
    steps_by_method = cfg["compare"]["steps_by_method"]
    cells = {m: overridden(cfg, {"head": {"method": m}, "train": {"steps": steps_by_method[m]}})
             for m in HEAD_KINDS}
    for method in MULTI_STEP_KINDS:   # a step count a head cannot take fails before any output
        for steps in cfg["compare"]["multi_steps"]:
            head_config_from(cells[method]).check_steps(steps)
    seeds = cfg["compare"]["seeds"]
    n = cfg["compare"]["sample_n"]
    with _run_dir(out_dir, cfg) as run:
        jobs = [(overridden(cells[method], {"seed": seed}),
                 str(run / "cells" / f"{method}_seed{seed}"))
                for seed in seeds for method in HEAD_KINDS]
        reports = [rep for cell in run_jobs(_compare_cell, jobs) for rep in cell]
        reports.sort(key=lambda r: (r.seed, r.method, r.steps))
        append_metrics_rows(run / "metrics.csv", reports)
        for seed in seeds:
            reference = data.swiss_roll(n, cfg["data"]["noise_sigma"], seed=10_000 + seed).points
            panels = []
            for method in HEAD_KINDS:
                pts, _ = data.read_points_csv(run / "cells" / f"{method}_seed{seed}"
                                              / "samples_step1.csv")
                panels.append((f"{method} (1 step)", reference, pts))
            svg.panel_grid_svg(run / f"swissroll_seed{seed}.svg", panels)
    return Path(out_dir) / "metrics.csv"


# ---------------------------------------------------------------------------
# MAR training / decoding

def _takes_teacher(cfg: dict) -> bool:
    """Whether the MAR run of ``cfg`` uses a teacher: to distil from (lambda > 0)
    or to start from (``mar_train.init_from_teacher``)."""
    return cfg["mar_train"]["lambda"] > 0 or cfg["mar_train"]["init_from_teacher"]


def build_mar_model(cfg: dict, seed: int, teacher: MarModel | None = None) -> MarModel:
    """The untrained MAR model of ``cfg``, given a teacher exactly when it takes
    one; it starts from the teacher's backbone under
    ``mar_train.init_from_teacher``. A teacher must share the sequence length
    and width whose representations the student is trained against."""
    t = cfg["mar_train"]
    if teacher is None and _takes_teacher(cfg):
        setting = "lambda > 0" if t["lambda"] > 0 else "init_from_teacher"
        raise ConfigError(f"mar_train.{setting} requires --teacher")
    if teacher is not None and not _takes_teacher(cfg):
        raise ConfigError("--teacher is used only under mar_train.lambda > 0 or "
                          "mar_train.init_from_teacher, and this run has neither")
    mcfg = mar_config_from(cfg)
    for key in ("seq_len", "hidden_dim") if teacher is not None else ():
        mine, theirs = getattr(mcfg, key), getattr(teacher.cfg, key)
        if mine != theirs:
            raise ConfigError(f"mar.{key}={mine} differs from the teacher's {theirs}")
    model = MarModel(mcfg, seed)
    if t["init_from_teacher"]:
        for name, p in model.params.items():
            if name.startswith("backbone.") and name in teacher.params:
                p.value = teacher.params[name].value.copy()
    return model


def _train_mar(cfg: dict, role: str, model: MarModel, teacher: MarModel | None,
               out: Path) -> MarModel:
    """Trains a model from :func:`build_mar_model`, distilling from ``teacher``
    under lambda > 0, then writes its loss.csv and mar.ckpt, which records
    ``role``, in ``out``."""
    t = cfg["mar_train"]
    log = train_mar(model, steps=t["steps"], batch=t["batch"], lr=t["lr"],
                    warmup=t["warmup"], lam=t["lambda"],
                    teacher=teacher if t["lambda"] > 0 else None,
                    per_class=cfg["data"]["per_class"], weight_decay=t["weight_decay"],
                    frozen_backbone=t["frozen_backbone"], jitter=cfg["data"]["jitter"])
    write_loss_csv(out / "loss.csv", log)
    model.save(out / "mar.ckpt", config_digest=config_digest(cfg), step=len(log),
               extra={"role": role, "lambda": t["lambda"]})
    return model


def run_train_mar(cfg: dict, out_dir, role: str, teacher_ckpt=None,
                  tables: list[dict] | tuple = ()) -> Path:
    """Trains a MAR model of ``role`` from ``cfg``. A teacher refuses the
    settings that :data:`TEACHER` would override without a word: a student
    value in ``cfg["mar_train"]``, or another head kind that one of
    ``tables``, the override tables ``cfg`` was resolved from, sets (the
    default kind already differs from the teacher's)."""
    if role not in ("teacher", "student"):
        raise ConfigError(f"--role must be teacher or student, got {role!r}")
    if role == "teacher":
        for key, value in TEACHER["mar_train"].items():
            if cfg["mar_train"][key] != value:
                raise ConfigError(f"mar_train.{key}={json.dumps(cfg['mar_train'][key])} is a "
                                  f"student setting; a teacher trains at {json.dumps(value)}")
        kinds = [table["mar"]["head_kind"] for table in tables
                 if "head_kind" in table.get("mar", {})]
        if kinds and kinds[-1] != TEACHER["mar"]["head_kind"]:
            raise ConfigError(f"mar.head_kind={json.dumps(kinds[-1])} is a student setting; "
                              f"a teacher trains a {TEACHER['mar']['head_kind']} head")
        cfg = overridden(cfg, TEACHER)
    teacher = MarModel.load(teacher_ckpt) if teacher_ckpt else None
    model = build_mar_model(cfg, cfg["seed"], teacher)
    with _run_dir(out_dir, cfg) as run:
        _train_mar(cfg, role, model, teacher, run)
    return Path(out_dir) / "mar.ckpt"


def run_decode(cfg: dict, ckpt_path, class_id: int | None, out_dir,
               head_steps: int | None = None) -> Path:
    """Decodes ``decode.n_seq`` sequences of ``class_id`` with the seed
    ``cfg["seed"]`` as :func:`config.decode_config_from` reads ``cfg``; writes
    sequences.csv and decode_stats.json, which records the settings and the
    backbone and head work of the decode."""
    model = MarModel.load(ckpt_path)
    n_seq = cfg["decode"]["n_seq"]
    dcfg = decode_config_from(cfg, cfg["seed"], model.head.cfg, head_steps)
    length = model.cfg.seq_len
    with _run_dir(out_dir) as run, _naming(ckpt_path, "decoding"):
        latents, stats = model.decode(class_id, n_seq, dcfg)
        flat = latents.reshape(n_seq * length, data.LATENT_DIM)
        positions = np.tile(np.arange(length), n_seq)
        data.write_points_csv(run / "sequences.csv", flat, extra={"position": positions})
        stats_out = {"class_id": class_id, "n_seq": n_seq, **asdict(dcfg), **stats}
        (run / "decode_stats.json").write_text(json.dumps(stats_out, sort_keys=True,
                                                          indent=2) + "\n")
    return Path(out_dir) / "sequences.csv"


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
    try:
        return overridden(cfg, nested(SWEEP_PARAMS[param][0], value))
    except ValueError as exc:
        raise ConfigError(f"--values {value!r}: {exc}") from None


def _sweep_cell(cfg: dict, param: str, values: list, cell_dir: str) -> list[dict]:
    """The sweep of ``cfg``'s seed: each grid value sets ``param``'s key,
    trains the student it names (the decode-only ``cfg`` values share one)
    in the run ``cell_dir/<name>`` and scores it. The students that take a
    teacher share one, trained in ``cell_dir/teacher`` on ``cfg`` with
    :data:`TEACHER` over it."""
    cell, seed = Path(cell_dir), cfg["seed"]
    teacher = student = trained = None
    rows = []
    for value in values:
        sub = _grid_config(cfg, param, value)
        tag = SWEEP_PARAMS[param][1].format(value)
        if tag != trained:
            if _takes_teacher(sub) and teacher is None:
                tcfg = overridden(cfg, TEACHER)
                with _run_dir(cell / "teacher", tcfg) as run:
                    teacher = _train_mar(tcfg, "teacher", build_mar_model(tcfg, seed), None, run)
            taken = teacher if _takes_teacher(sub) else None
            with _run_dir(cell / tag, sub) as run:
                student = _train_mar(sub, "student", build_mar_model(sub, seed, taken),
                                     taken, run)
            trained = tag
        scores = decode_and_score(student, sub, seed)
        rows.append({"param": param, "value": value, "seed": seed, **scores})
    return rows


def run_sweep(cfg: dict, out_dir, param: str, values: list) -> Path:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if not values:
        raise ConfigError("--values must list at least one grid point")
    for value in values:   # a value that cannot train, or a repeat, fails before any output
        _grid_config(cfg, param, value)
    repeat = first_repeat(values)
    if repeat is not None:
        raise ConfigError(f"--values lists {repeat!r} twice; each grid value must appear once")
    names = [SWEEP_PARAMS[param][1].format(value) for value in values]
    clash = first_repeat(names) if param != "cfg" else None   # the cfg values share one student
    if clash is not None:
        both = [repr(value) for value, name in zip(values, names) if name == clash]
        raise ConfigError(f"--values {' and '.join(both[:2])} both name the student {clash!r}")
    seeds = cfg["sweep"]["seeds"]
    with _run_dir(out_dir, cfg) as run:
        jobs = [(overridden(cfg, {"seed": seed}), param, values,
                 str(run / "cells" / f"seed{seed}")) for seed in seeds]
        cell_rows = [row for rows in run_jobs(_sweep_cell, jobs) for row in rows]
        cell_rows.sort(key=lambda r: (str(r["value"]), r["seed"]))
        with open(run / "sweep_cells.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "value", "seed", "n", *SCORES])
            for r in cell_rows:
                writer.writerow([r["param"], r["value"], r["seed"], r["n"]]
                                + [repr(r[k]) for k in SCORES])

        seed_tag = "|".join(str(s) for s in seeds)
        with open(run / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "value", "seeds", "n", *SCORES])
            for value in values:
                rows = [r for r in cell_rows if r["value"] == value]
                writer.writerow([param, value, seed_tag, rows[0]["n"]] + [
                    repr(float(np.mean([r[k] for r in rows]))) for k in SCORES])
    return Path(out_dir) / "sweep.csv"
