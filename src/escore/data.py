"""Deterministic toy-data generators and CSV exchange.

All generators are pure functions of their arguments; randomness comes from
named counter-based streams, so distinct purposes never share draws.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .rng import Stream

SWISS_ROLL_T_MIN = 1.5 * np.pi
SWISS_ROLL_T_MAX = 4.5 * np.pi
SWISS_ROLL_SCALE = 4.5 * np.pi   # clean curve fits in [-1, 1]^2

N_CLASSES = 3
LATENT_DIM = 2      # width of every toy point and latent token
CLASS_NAMES = ("spiral", "circle", "moons")
CIRCLE_RADIUS = 0.8


@dataclass
class SampleBatch:
    """n points in R^d drawn from one source distribution."""
    points: np.ndarray           # (n, d) float64
    source: str                  # data | model | noise
    seed: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError(f"points must be (n>=1, d), got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite values")


def swiss_roll(n: int, noise_sigma: float, seed: int = 0) -> SampleBatch:
    """2-turn spiral t -> (t cos t, t sin t)/s, t ~ U[1.5pi, 4.5pi], plus noise."""
    if n < 1 or noise_sigma < 0:
        raise ValueError("need n >= 1 and noise_sigma >= 0")
    root = Stream.from_seed(seed, "swiss_roll")
    t = SWISS_ROLL_T_MIN + (SWISS_ROLL_T_MAX - SWISS_ROLL_T_MIN) * root.child("t").uniform((n,))
    pts = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / SWISS_ROLL_SCALE
    if noise_sigma > 0:
        pts = pts + noise_sigma * root.child("noise").normal((n, 2))
    return SampleBatch(pts, "data", seed)


def _class_trace(class_id: int, length: int) -> np.ndarray:
    """Canonical (unrotated, noise-free) trace of one class, within [-1, 1]^2."""
    i = np.arange(length) / max(length - 1, 1)
    if class_id == 0:   # spiral: radius grows with angle
        theta = 0.5 * np.pi + 2.0 * np.pi * i
        r = 0.15 + 0.65 * i
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    if class_id == 1:   # circle at fixed radius
        theta = 2.0 * np.pi * np.arange(length) / length
        return CIRCLE_RADIUS * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if class_id == 2:   # two interleaved moons, first arc then second
        half = (length + 1) // 2
        a1 = np.pi * np.arange(half) / max(half - 1, 1)
        m1 = np.stack([0.6 * np.cos(a1) - 0.15, 0.6 * np.sin(a1) - 0.1], axis=1)
        rest = length - half
        a2 = np.pi * np.arange(rest) / max(rest - 1, 1)
        m2 = np.stack([0.6 - 0.6 * np.cos(a2) - 0.45, -0.6 * np.sin(a2) + 0.35], axis=1)
        return np.concatenate([m1, m2], axis=0)
    raise ValueError(f"unknown class_id {class_id}; have {N_CLASSES} classes")


def conditional_sequences(class_id: int, count: int, length: int, jitter: float,
                          seed: int = 0) -> np.ndarray:
    """(count, length, 2) rotated + jittered traces of one class; rotation
    makes context informative."""
    if not 0 <= class_id < N_CLASSES:
        raise ValueError(f"unknown class_id {class_id}; have {N_CLASSES} classes")
    if count < 1 or length < 1:
        raise ValueError("need count >= 1 and length >= 1")
    base = _class_trace(class_id, length)
    root = Stream.from_seed(seed, f"cond_seq/class{class_id}")
    phases = root.child("rotation").uniform((count,)) * 2.0 * np.pi
    if jitter > 0:
        noise = root.child([f"jitter/{j}" for j in range(count)]).normal((length, 2))
    out = np.empty((count, length, 2))
    for j in range(count):
        c, s = np.cos(phases[j]), np.sin(phases[j])
        out[j] = base @ np.array([[c, s], [-s, c]])
        if jitter > 0:
            out[j] += jitter * noise[j]
    return out


# ---------------------------------------------------------------------------
# CSV exchange: x0,x1[,...] header, one point per row, 17 significant digits

def write_points_csv(path, points: np.ndarray, extra: dict[str, np.ndarray] | None = None) -> None:
    points = np.asarray(points, dtype=np.float64)
    header = [f"x{i}" for i in range(points.shape[1])]
    columns = [points[:, i] for i in range(points.shape[1])]
    for name, col in (extra or {}).items():
        header.append(name)
        columns.append(np.asarray(col))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_format_cell(v) for v in row])


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def read_points_csv(path) -> tuple[np.ndarray, list[str]]:
    """Returns the columns x0..x{d-1}, in that order wherever the header puts
    them, as an (n, d) array plus the full header.

    A file that is not UTF-8 text csv can parse, a header whose x columns
    repeat or skip an index, a file without data rows, a row with more or
    fewer cells than the header (a blank line has none), or a cell that is
    not a finite number is a ValueError naming the file (and the row and
    line), so no caller has to guess at the cause.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:   # not UTF-8; a field past csv's limit
        raise ValueError(f"{path}: not a points CSV: {exc}") from None
    # an index of 20 digits or more is past every column (and may be past int()'s limit)
    dims = sorted((int(name[1:]) if len(name) <= 20 else len(header), i)
                  for i, name in enumerate(header)
                  if name.startswith("x") and name[1:].isdecimal())
    if not dims:
        raise ValueError(f"{path}: no x0,x1,... columns in header {header}")
    if [k for k, _ in dims] != list(range(len(dims))):
        raise ValueError(f"{path}: header {header} must name x0..x{len(dims) - 1} once each")
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    columns = [i for _, i in dims]
    values = []
    for k, row in enumerate(rows):
        where = f"data row {k + 1} (line {k + 2})"
        if len(row) != len(header):
            raise ValueError(f"{path}: {where} has {len(row)} cells, expected "
                             f"{len(header)}: {row}")
        try:
            values.append([float(row[i]) for i in columns])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric value in {where} ({exc})") from None
    pts = np.array(values, dtype=np.float64)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: non-finite value in data row {row + 1} (line {row + 2}): "
                         f"{rows[row]}")
    return pts, header
