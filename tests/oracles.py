"""Plain numpy oracles for the tests.

Scalar forms of the energy-distance loss and of the representation
distillation term, and an i.i.d. Gaussian point source. The package computes
the losses as graphs (``heads.build_energy_rows_m`` and the distill term of
``MarModel._train_graph``); the tests check those graphs against these.
"""
from __future__ import annotations

import numpy as np

from escore import graph as G
from escore.data import SampleBatch
from escore.rng import Stream


def smooth_norm(v: np.ndarray) -> np.ndarray:
    """Row norms smoothed as ``graph.row_norm`` smooths them."""
    eps = G.ROW_NORM_EPS
    return np.sqrt(np.sum(v * v, axis=-1) + eps * eps)


def energy_loss_pair(x1, x2, y) -> float:
    """||x1 - y|| + ||x2 - y|| - ||x1 - x2|| with smoothed norms."""
    x1, x2, y = (np.asarray(a, dtype=np.float64) for a in (x1, x2, y))
    if not x1.shape == x2.shape == y.shape:
        raise ValueError("energy_loss_pair: shapes must match")
    return float(np.sum(smooth_norm(x1 - y) + smooth_norm(x2 - y)
                        - smooth_norm(x1 - x2)))


def energy_loss_m(samples, y) -> float:
    """(2/m) sum_i ||x_i - y|| - (1/(m(m-1))) sum_{i != j} ||x_i - x_j||."""
    xs = [np.asarray(a, dtype=np.float64) for a in samples]
    y = np.asarray(y, dtype=np.float64)
    m = len(xs)
    if m < 2:
        raise ValueError("energy_loss_m needs at least 2 samples")
    attract = sum(float(np.sum(smooth_norm(x - y))) for x in xs)
    repel = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            repel += float(np.sum(smooth_norm(xs[i] - xs[j])))
    return (2.0 / m) * attract - (2.0 / (m * (m - 1))) * repel


def distillation_loss(h_student: np.ndarray, h_teacher: np.ndarray) -> float:
    """Mean over positions of the squared Euclidean row distance."""
    h_student = np.asarray(h_student, dtype=np.float64)
    h_teacher = np.asarray(h_teacher, dtype=np.float64)
    if h_student.shape != h_teacher.shape:
        raise ValueError(f"shape mismatch: {h_student.shape} vs {h_teacher.shape}")
    diff = h_student - h_teacher
    sq = (diff * diff).sum(axis=-1)
    return float(sq.mean())


def gaussian_source(n: int, d: int, seed: int = 0, label: str = "noise") -> SampleBatch:
    """i.i.d. standard normal points from the named stream."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return SampleBatch(Stream.from_seed(seed, label).normal((n, d)), "noise", seed)
