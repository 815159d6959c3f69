import numpy as np
import pytest

from escore import data
from oracles import gaussian_source


def test_swiss_roll_clean_points_lie_on_curve():
    batch = data.swiss_roll(500, noise_sigma=0.0, seed=3)
    pts = batch.points
    radius = np.linalg.norm(pts, axis=1)
    t = radius * data.SWISS_ROLL_SCALE
    assert np.all(t >= data.SWISS_ROLL_T_MIN - 1e-9)
    assert np.all(t <= data.SWISS_ROLL_T_MAX + 1e-9)
    curve = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / data.SWISS_ROLL_SCALE
    assert np.max(np.abs(curve - pts)) <= 1e-12


def test_swiss_roll_deterministic():
    a = data.swiss_roll(64, 0.03, seed=9)
    b = data.swiss_roll(64, 0.03, seed=9)
    assert np.array_equal(a.points, b.points)


def test_swiss_roll_mean_matches_quadrature_oracle():
    # E[point] over t ~ U[t0, t1] of (t cos t, t sin t)/s via dense trapezoid rule
    t = np.linspace(data.SWISS_ROLL_T_MIN, data.SWISS_ROLL_T_MAX, 200_001)
    fx = t * np.cos(t) / data.SWISS_ROLL_SCALE
    fy = t * np.sin(t) / data.SWISS_ROLL_SCALE
    width = data.SWISS_ROLL_T_MAX - data.SWISS_ROLL_T_MIN
    oracle = np.array([np.trapezoid(fx, t), np.trapezoid(fy, t)]) / width
    batch = data.swiss_roll(5000, noise_sigma=0.01, seed=1)
    assert np.all(np.abs(batch.points.mean(axis=0) - oracle) < 0.05)


def test_swiss_roll_fits_unit_square():
    pts = data.swiss_roll(2000, noise_sigma=0.0, seed=2).points
    assert np.all(np.abs(pts) <= 1.0 + 1e-12)


def test_gaussian_source_reproducible_and_separated():
    a = gaussian_source(10, 2, seed=5, label="noise1")
    b = gaussian_source(10, 2, seed=5, label="noise1")
    c = gaussian_source(10, 2, seed=5, label="noise2")
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_gaussian_source_moments():
    pts = gaussian_source(100_000, 2, seed=11).points
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)
    assert np.all(np.abs(pts.var(axis=0) - 1.0) < 0.03)


def test_conditional_sequences_circle_radius():
    traces = data.conditional_sequences(1, count=8, length=16, seed=4, jitter=0.0)
    assert np.max(np.abs(np.linalg.norm(traces, axis=2) - data.CIRCLE_RADIUS)) <= 1e-12


def test_conditional_sequences_shape_and_determinism():
    a = data.conditional_sequences(0, count=3, length=16, seed=7)
    b = data.conditional_sequences(0, count=3, length=16, seed=7)
    assert a.shape == (3, 16, 2)
    assert np.array_equal(a, b)


def test_conditional_sequences_unknown_class():
    with pytest.raises(ValueError):
        data.conditional_sequences(data.N_CLASSES, count=1, length=8, seed=0)


def test_csv_roundtrip_17_digits(tmp_path):
    pts = gaussian_source(50, 3, seed=1).points
    path = tmp_path / "pts.csv"
    data.write_points_csv(path, pts)
    text = path.read_text().splitlines()
    assert text[0] == "x0,x1,x2"
    back, header = data.read_points_csv(path)
    assert header == ["x0", "x1", "x2"]
    assert np.array_equal(back, pts)   # 17 significant digits round-trip exactly


def test_csv_extra_columns(tmp_path):
    pts = np.zeros((4, 2))
    path = tmp_path / "seq.csv"
    data.write_points_csv(path, pts, extra={"position": np.arange(4)})
    back, header = data.read_points_csv(path)
    assert header == ["x0", "x1", "position"]
    assert back.shape == (4, 2)


def test_csv_malformed_reports(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match=r"bad\.csv: non-numeric value in data row 2 \(line 3\)"):
        data.read_points_csv(path)


@pytest.mark.parametrize("row,cells", [("", 0), ("3.0", 1), ("3.0,4.0,", 3)])
def test_csv_row_of_wrong_width_names_file_row_and_line(tmp_path, row, cells):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,x1\n1.0,2.0\n{row}\n5.0,6.0\n")
    with pytest.raises(ValueError, match=rf"bad\.csv: data row 2 \(line 3\) has {cells} "
                                         "cells, expected 2"):
        data.read_points_csv(path)


def test_csv_columns_are_read_in_index_order(tmp_path):
    path = tmp_path / "swapped.csv"
    path.write_text("position,x1,x0\n0,2.0,1.0\n1,4.0,3.0\n")
    pts, header = data.read_points_csv(path)
    assert np.array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])
    assert header == ["position", "x1", "x0"]


@pytest.mark.parametrize("header", ["x0,x0", "x0,x2", "x1,x2"])
def test_csv_header_must_name_each_index_once(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: header \[.*\] must name x0\.\.x1 once each"):
        data.read_points_csv(path)


@pytest.mark.parametrize("text", ["", "x0,x1\n"])
def test_csv_without_data_rows_names_the_file(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty.csv"):
        data.read_points_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_csv_non_finite_cell_names_file_and_row(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,x1\n1.0,2.0\n3.0,{cell}\n5.0,6.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: non-finite value in data row 2 \(line 3\)"):
        data.read_points_csv(path)
