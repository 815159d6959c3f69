import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escore import data, metrics
from escore.metrics import EnergyEstimatorConfig, energy_statistic
from escore.rng import Stream

V_CFG = EnergyEstimatorConfig(mode="v")
U_CFG = EnergyEstimatorConfig(mode="u")


def brute_energy(x, y, mode="v"):
    """Direct double-loop evaluation of the plug-in energy statistic."""
    m, n = len(x), len(y)
    cross = sum(np.linalg.norm(a - b) for a in x for b in y)
    wx = sum(np.linalg.norm(a - b) for a in x for b in x)
    wy = sum(np.linalg.norm(a - b) for a in y for b in y)
    val = 2 * cross / (m * n)
    val -= wx / (m * (m - 1)) if mode == "u" else wx / (m * m)
    val -= wy / (n * (n - 1)) if mode == "u" else wy / (n * n)
    return val


def test_identical_sets_v_mode_zero():
    x = Stream.from_seed(0, "x").normal((20, 3))
    assert abs(energy_statistic(x, x.copy(), V_CFG)) <= 1e-12


def test_singleton_hand_value():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0]])
    assert energy_statistic(x, y, V_CFG) == pytest.approx(10.0, abs=1e-12)


def test_u_mode_rejects_singletons():
    with pytest.raises(ValueError):
        energy_statistic(np.zeros((1, 2)), np.ones((4, 2)), U_CFG)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        energy_statistic(np.zeros((3, 2)), np.zeros((3, 3)), V_CFG)


@pytest.mark.parametrize("mode", ["u", "v"])
def test_matches_brute_force_multidim(mode):
    s = Stream.from_seed(5, "pts")
    cfg = EnergyEstimatorConfig(mode=mode)
    for trial in range(10):
        m, n, d = 2 + trial, 3 + trial % 4, 1 + trial % 3
        x = s.child(f"x{trial}").normal((m, d))
        y = s.child(f"y{trial}").normal((n, d))
        assert energy_statistic(x, y, cfg) == pytest.approx(
            brute_energy(x, y, mode), abs=1e-10)


def test_1d_fast_path_matches_brute_force():
    s = Stream.from_seed(6, "pts")
    x = s.child("x").normal((37, 1))
    y = s.child("y").normal((23, 1))
    for cfg in (U_CFG, V_CFG):
        assert energy_statistic(x, y, cfg) == pytest.approx(
            brute_energy(x, y, cfg.mode), abs=1e-10)


def test_closed_form_oracle_values():
    assert metrics.gaussian_energy_oracle(0.0) == 0.0
    assert metrics.gaussian_energy_oracle(1.0) == pytest.approx(0.5418, abs=1e-4)
    for mu in (0.3, 0.9, 2.4):
        assert metrics.gaussian_energy_oracle(mu) == pytest.approx(
            metrics.gaussian_energy_oracle(-mu), abs=0)


def test_u_statistic_matches_oracle_and_monotone():
    n = 100_000
    x = Stream.from_seed(0, "oracle/x").normal((n, 1))
    base = Stream.from_seed(0, "oracle/y").normal((n, 1))
    values = []
    for mu in (0.0, 0.5, 1.0, 2.0):
        stat = energy_statistic(x, base + mu, U_CFG)
        assert stat == pytest.approx(metrics.gaussian_energy_oracle(mu), abs=0.02)
        values.append(stat)
    assert values == sorted(values)


def test_v_mode_nonnegativity_random_pairs():
    s = Stream.from_seed(9, "nonneg")
    for trial in range(300):
        m = 1 + int(s.child(f"m{trial}").integers(64))
        n = 1 + int(s.child(f"n{trial}").integers(64))
        d = 1 + int(s.child(f"d{trial}").integers(8))
        x = s.child(f"x{trial}").normal((m, d))
        y = s.child(f"y{trial}").normal((n, d))
        assert energy_statistic(x, y, V_CFG) >= -1e-12


def test_v_mode_zero_iff_equal_multisets():
    s = Stream.from_seed(10, "eq")
    for trial in range(50):
        x = s.child(f"x{trial}").normal((12, 3))
        perm = s.child(f"p{trial}").permutation(12)
        assert abs(energy_statistic(x, x[perm], V_CFG)) <= 1e-12
        y = x.copy()
        y[0] += 0.01
        assert energy_statistic(x, y, V_CFG) > 1e-12


def test_strict_negative_definiteness_spot_check():
    """Zero-sum weighted distance quadratic forms are <= 0, < 0 for r != 0."""
    s = Stream.from_seed(11, "negdef")
    for trial in range(1000):
        k = 2 + int(s.child(f"k{trial}").integers(7))
        pts = s.child(f"x{trial}").normal((k, 2))
        r = s.child(f"r{trial}").normal((k,))
        r -= r.mean()
        dmat = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        form = float(r @ dmat @ r)
        assert form <= 1e-12
        if np.linalg.norm(r) > 1e-6:
            assert form < -1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_translation_shifts_leave_vmode_nonnegative(seed, dx, dy):
    s = Stream.from_seed(seed, "hyp")
    x = s.child("x").normal((8, 2))
    y = s.child("y").normal((8, 2)) + np.array([dx, dy])
    assert energy_statistic(x, y, V_CFG) >= -1e-12


# ---------------------------------------------------------------------------
# MMD

def brute_mmd(x, y, sigma):
    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2 * sigma * sigma))

    kxx = np.mean([k(a, b) for a in x for b in x])
    kyy = np.mean([k(a, b) for a in y for b in y])
    kxy = np.mean([k(a, b) for a in x for b in y])
    return kxx + kyy - 2 * kxy


def test_mmd_identical_sets_zero():
    x = Stream.from_seed(1, "x").normal((32, 2))
    val, _ = metrics.mmd_gaussian(x, x.copy())
    assert abs(val) <= 1e-12


def test_mmd_symmetry_exact():
    x = Stream.from_seed(2, "x").normal((16, 2))
    y = Stream.from_seed(2, "y").normal((24, 2))
    assert metrics.mmd_gaussian(x, y) == metrics.mmd_gaussian(y, x)


def test_mmd_singleton_hand_value():
    val, _ = metrics.mmd_gaussian([[0.0, 0.0]], [[1.0, 0.0]], bandwidth=1.0)
    assert val == pytest.approx(2.0 - 2.0 * np.exp(-0.5), abs=1e-12)


def test_mmd_matches_brute_force():
    s = Stream.from_seed(3, "pts")
    for trial in range(5):
        x = s.child(f"x{trial}").normal((10 + trial, 2))
        y = s.child(f"y{trial}").normal((8 + trial, 2))
        val, sigma = metrics.mmd_gaussian(x, y)
        assert val == pytest.approx(brute_mmd(x, y, sigma), abs=1e-12)


def test_mmd_median_bandwidth_value():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[0.0, 1.0], [1.0, 1.0]])
    _, sigma = metrics.mmd_gaussian(x, y)
    pooled = np.concatenate([x, y])
    dists = [np.linalg.norm(a - b) for a, b in itertools.combinations(pooled, 2)]
    assert sigma == np.median(dists)


def test_mmd_degenerate_bandwidth_errors():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"degenerate kernel bandwidth 0\.0 from the median "
                       r"pooled distance: at least half of the pooled pairs are \(nearly\) "
                       r"identical points; pass an explicit bandwidth"):
        metrics.mmd_gaussian(pts, pts)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf])
def test_mmd_explicit_degenerate_bandwidth_names_the_bandwidth(bandwidth):
    """A bandwidth the caller passed is checked by kernel_factor alone: the
    error names it and gives no advice about identical points."""
    x = Stream.from_seed(4, "x").normal((6, 2))
    with pytest.raises(ValueError, match=f"^kernel bandwidth {re.escape(repr(bandwidth))} "
                       "is not a finite number > 0") as err:
        metrics.mmd_gaussian(x, x + 1.0, bandwidth=bandwidth)
    assert "identical" not in str(err.value)


@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 5.2e-155])
def test_mmd_bandwidth_with_an_infinite_kernel_factor_errors(sigma):
    """sigma**2 underflows to 0, or -0.5 / sigma**2 overflows to -inf (whose
    0 * inf on the kernel's diagonal would give NaN): named, not computed."""
    x = Stream.from_seed(4, "x").normal((6, 2))
    with pytest.raises(ValueError, match=f"kernel bandwidth {sigma!r} is not a finite"):
        metrics.mmd_gaussian(x, x + 1.0, bandwidth=sigma)
    assert np.isfinite(metrics.mmd_gaussian(x, x + 1.0, bandwidth=5.3e-155)[0])


# ---------------------------------------------------------------------------
# Wasserstein

def brute_wasserstein(x, y):
    best = np.inf
    for perm in itertools.permutations(range(len(y))):
        cost = np.mean([np.linalg.norm(x[i] - y[j]) for i, j in enumerate(perm)])
        best = min(best, cost)
    return best


def test_wasserstein_identity_and_singletons():
    x = Stream.from_seed(4, "x").normal((10, 2))
    assert metrics.wasserstein_assignment(x, x.copy()) == 0.0
    assert metrics.wasserstein_assignment([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0


def test_wasserstein_two_point_hand_case():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert metrics.wasserstein_assignment(x, y) == pytest.approx(1.0, abs=1e-15)


def test_wasserstein_matches_exhaustive_search():
    s = Stream.from_seed(5, "pts")
    for trial in range(60):
        n = 2 + trial % 5
        x = s.child(f"x{trial}").normal((n, 2))
        y = s.child(f"y{trial}").normal((n, 2))
        assert metrics.wasserstein_assignment(x, y) == pytest.approx(
            brute_wasserstein(x, y), abs=1e-12)


def test_wasserstein_symmetry():
    x = Stream.from_seed(6, "x").normal((12, 2))
    y = Stream.from_seed(6, "y").normal((12, 2))
    assert metrics.wasserstein_assignment(x, y) == pytest.approx(
        metrics.wasserstein_assignment(y, x), abs=1e-12)


def test_wasserstein_errors():
    with pytest.raises(ValueError):
        metrics.wasserstein_assignment(np.zeros((3, 2)), np.zeros((4, 2)))
    big = np.zeros((metrics.WASSERSTEIN_SIZE_CAP + 1, 2))
    with pytest.raises(ValueError):
        metrics.wasserstein_assignment(big, big)


def _corners(n, seed, scale=4.0):
    """n points drawn from the four corners (+-scale, +-scale): exact repeats,
    as clipped one-step diffusion samples give."""
    signs = np.where(Stream.from_seed(seed, "corners").uniform((n, 2)) < 0.5, -1.0, 1.0)
    return scale * signs


def test_wasserstein_with_repeats_matches_exhaustive_search():
    s = Stream.from_seed(7, "pts")
    for trial in range(30):
        n = 2 + trial % 5
        x = _corners(n, trial, scale=1.0)
        y = s.child(f"y{trial}").normal((n, 2))
        if trial % 3 == 0:
            y[1:] = y[0]   # both sets repeat
        for a, b in ((x, y), (y, x)):
            assert metrics.wasserstein_assignment(a, b) == pytest.approx(
                brute_wasserstein(a, b), abs=1e-12)


def test_wasserstein_with_repeats_matches_plain_solve_at_n512():
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    x = _corners(512, 1)
    y = Stream.from_seed(1, "y").normal((512, 2))
    assert len(np.unique(x, axis=0)) == 4
    cost = cdist(x, y)
    plain = cost[linear_sum_assignment(cost)].mean()
    assert metrics.wasserstein_assignment(x, y) == pytest.approx(plain, rel=1e-12, abs=0)
    assert metrics.wasserstein_assignment(y, x) == pytest.approx(plain, rel=1e-12, abs=0)


def test_wasserstein_is_exactly_symmetric_when_distinct_counts_differ():
    for seed in range(5):
        x = _corners(64, seed)
        x[:8] = Stream.from_seed(seed, "x").normal((8, 2))
        y = Stream.from_seed(seed, "y").normal((64, 2))
        assert metrics.wasserstein_assignment(x, y) == metrics.wasserstein_assignment(y, x)


@pytest.mark.parametrize("first", ["repeated", "distinct"])
def test_wasserstein_solves_with_repeated_set_in_columns(monkeypatch, first):
    import scipy.optimize
    from scipy.spatial.distance import cdist
    rep = _corners(48, 2)
    pts = Stream.from_seed(2, "pts").normal((48, 2))
    seen, solve = [], scipy.optimize.linear_sum_assignment

    def spy(cost):
        seen.append(cost)
        return solve(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    args = (rep, pts) if first == "repeated" else (pts, rep)
    metrics.wasserstein_assignment(*args)
    [cost] = seen
    assert cost.flags.c_contiguous
    # distinct rows, repeated columns, each lowered by its point's price
    points, inverse, counts = np.unique(rep, axis=0, return_inverse=True, return_counts=True)
    prices = metrics._point_prices(pts, points, counts)
    assert np.all(prices != 0.0)
    assert np.array_equal(cost, cdist(pts, rep) - prices[inverse])


def _repeats(k, n, seed):
    """n points on k distinct points, each used at least once and in uneven
    counts: corners of a square for k <= 4, else normals clipped to a box,
    as a one-step diffusion head's samples repeat."""
    s = Stream.from_seed(seed, "repeats")
    if k <= 4:
        points = 4.0 * np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])[:k]
    else:
        points = np.clip(s.normal((k, 2)), -1.5, 1.5)
    pick = np.concatenate([np.arange(k), s.integers(k, n - k)])
    rep = points[pick[s.permutation(n)]]
    assert len(np.unique(rep, axis=0)) == k
    return rep


def _plain_solve(x, y):
    """The matched distance of each row of scipy's solve of the unshifted
    cost, with the repeated set ``y`` in the columns."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    cost = cdist(x, y)
    return cost[linear_sum_assignment(cost)]


@pytest.mark.parametrize("k", [1, 2, 4, 40])
@pytest.mark.parametrize("first", ["repeated", "distinct"])
def test_priced_solve_equals_plain_solve_bit_for_bit(monkeypatch, k, first):
    """Distinct rows against k repeated points: every row's matched distance,
    and so the value, equals the plain solve's, and the read-out equals the
    unshifted distances of the pairs the priced solve matched."""
    import scipy.optimize
    from scipy.spatial.distance import cdist
    n = 512
    rep = _repeats(k, n, seed=k)
    pts = 2.0 * Stream.from_seed(k, "pts").normal((n, 2))
    plain = _plain_solve(pts, rep)
    solved, read_out = [], []
    solve, read = scipy.optimize.linear_sum_assignment, metrics._matched_distances

    def spy_solve(cost):
        solved.append(solve(cost))
        return solved[-1]

    def spy_read(rows, matched):
        read_out.append(read(rows, matched))
        return read_out[-1]

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy_solve)
    monkeypatch.setattr(metrics, "_matched_distances", spy_read)
    value = metrics.wasserstein_assignment(*((rep, pts) if first == "repeated" else (pts, rep)))
    [(rows, cols)], [matched] = solved, read_out
    assert np.array_equal(matched, cdist(pts, rep)[rows, cols])
    assert np.array_equal(matched, plain)
    assert value == float(plain.mean())


def test_priced_solve_with_both_sets_repeated_matches_plain_solve():
    for seed, k in enumerate((4, 40)):
        cols = _repeats(k, 512, seed)
        rows = _repeats(96, 512, seed + 10)
        plain = float(_plain_solve(rows, cols).mean())
        for args in ((rows, cols), (cols, rows)):
            assert metrics.wasserstein_assignment(*args) == pytest.approx(plain, rel=1e-12, abs=0)


NON_FINITE = [(np.inf, "infeasible"), (np.nan, "invalid numeric entries")]


@pytest.mark.parametrize("bad, cause", NON_FINITE)
def test_priced_solve_of_a_non_finite_point_fails_as_the_plain_solve(bad, cause):
    rep = _repeats(4, 48, seed=5)
    pts = Stream.from_seed(5, "pts").normal((48, 2))
    pts[3, 0] = bad
    for args in ((pts, rep), (rep, pts)):
        with pytest.raises(ValueError, match=cause):
            metrics.wasserstein_assignment(*args)


@pytest.mark.parametrize("bad, cause", NON_FINITE)
@pytest.mark.parametrize("at", [3, 4])
@pytest.mark.filterwarnings("error")
def test_sampled_prices_of_a_non_finite_point_fail_as_the_plain_solve(bad, cause, at):
    """All-distinct sets from the size where the sub-solve prices start, with
    the bad point outside the sub-solve's sample (row 3) or in it (row 4):
    no price is computed from a non-finite distance, so numpy warns of no
    invalid operation."""
    n = metrics._SAMPLED_PRICES_MIN
    far = _far_pair(n)[1]
    pts = Stream.from_seed(5, "pts").normal((n, 2))
    pts[at, 0] = bad
    for args in ((pts, far), (far, pts)):
        with pytest.raises(ValueError, match=cause):
            metrics.wasserstein_assignment(*args)


def _near_pair(n, seed=3):
    """All-distinct near sets: a Swiss roll against a blurred one, as a
    one-step energy head's samples lie about the reference."""
    x = data.swiss_roll(n, 0.1, seed=seed).points
    y = data.swiss_roll(n, 0.1, seed=seed + 100).points
    return x, y + 0.2 * Stream.from_seed(seed, "blur").normal((n, 2))


def _far_pair(n, seed=1):
    """All-distinct far sets: two unit normals 3 apart on each axis."""
    return (Stream.from_seed(seed, "x").normal((n, 2)),
            3.0 + Stream.from_seed(seed, "y").normal((n, 2)))


def _spy_solves(monkeypatch):
    """Every (cost, solution) that linear_sum_assignment sees, in call order."""
    import scipy.optimize
    seen, solve = [], scipy.optimize.linear_sum_assignment

    def spy(cost):
        seen.append((cost.copy(), solve(cost)))
        return seen[-1][1]

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    return seen


@pytest.mark.parametrize("pair", ["near", "far"])
@pytest.mark.parametrize("swap", [False, True])
def test_sampled_prices_solve_equals_plain_solve_bit_for_bit(monkeypatch, pair, swap):
    """All-distinct sets above the sub-solve size: the solve takes the cost
    lowered by the sampled prices, and every row's matched distance, and so
    the value, equals scipy's solve of the unshifted cost."""
    from scipy.spatial.distance import cdist
    x, y = (_near_pair if pair == "near" else _far_pair)(512)
    if swap:
        x, y = y, x
    plain = _plain_solve(x, y)
    seen = _spy_solves(monkeypatch)
    value = metrics.wasserstein_assignment(x, y)
    [(sub, _), (cost, (rows, cols))] = seen
    assert sub.shape == (512 // metrics._SAMPLE_STRIDE,) * 2
    prices = metrics._sampled_prices(x, y)
    assert prices is not None and np.array_equal(cost, cdist(x, y) - prices)
    assert np.array_equal(cdist(x, y)[rows, cols], plain)
    assert value == float(plain.mean())


def _grid(n, seed):
    """Integer points on a 4 x 4 grid: exact distance ties and repeats."""
    return np.floor(4.0 * Stream.from_seed(seed, "grid").uniform((n, 2)))


@pytest.mark.parametrize("kind", ["normal", "grid", "repeats"])
def test_column_duals_are_feasible_and_tight_on_the_matched_pairs(kind):
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    m = 40
    for seed in range(5):
        if kind == "normal":
            x, y = _far_pair(m, seed)
            y -= 2.5
        elif kind == "grid":
            x, y = _grid(m, seed), _grid(m, seed + 10)
        else:
            x, y = _repeats(5, m, seed), _repeats(7, m, seed + 10)
        cost = cdist(x, y)
        _, cols = linear_sum_assignment(cost)
        duals = metrics._column_duals(cost, cols, m)
        assert duals is not None
        # row duals tight on the matched pairs; feasible elsewhere, to rounding
        matched = cost[np.arange(m), cols] - duals[cols]
        reduced = cost - matched[:, None] - duals
        assert reduced.min() >= -1e-12 * cost.max()
        # so they are the c-transform the prices take
        assert np.allclose((cost - duals).min(axis=1), matched, rtol=0, atol=1e-12 * cost.max())


@pytest.mark.parametrize("pair, shifted", [("swiss", False), ("far", True)])
@pytest.mark.parametrize("swap", [False, True])
def test_sampled_prices_are_kept_only_when_fewer_rows_share_a_preferred_column(
        monkeypatch, pair, shifted, swap):
    """Two Swiss rolls drawn alike already prefer nearly distinct columns,
    and the prices would add clashes: the solve takes the unshifted cost."""
    from scipy.spatial.distance import cdist
    if pair == "swiss":
        x, y = data.swiss_roll(512, 0.1, seed=3).points, data.swiss_roll(512, 0.1, seed=4).points
    else:
        x, y = _far_pair(512)
    if swap:
        x, y = y, x
    seen = _spy_solves(monkeypatch)
    metrics.wasserstein_assignment(x, y)
    [_, (cost, _)] = seen   # the sub-solve ran either way
    assert np.array_equal(cost, cdist(x, y)) != shifted


def test_sampled_prices_fall_back_when_the_duals_do_not_converge(monkeypatch):
    from scipy.spatial.distance import cdist
    duals, capped = metrics._column_duals, []

    def one_round(cost, cols, max_rounds):
        capped.append(duals(cost, cols, 1))
        return capped[-1]

    monkeypatch.setattr(metrics, "_column_duals", one_round)
    x, y = _far_pair(metrics._SAMPLED_PRICES_MIN)
    seen = _spy_solves(monkeypatch)
    value = metrics.wasserstein_assignment(x, y)
    assert capped == [None]
    [_, (cost, _)] = seen
    assert np.array_equal(cost, cdist(x, y))
    assert value == float(_plain_solve(x, y).mean())


def test_eval_checks_wasserstein_sizes_before_any_metric(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("computed a metric for a pair the solve rejects")

    monkeypatch.setattr(metrics, "mmd_gaussian", unreachable)
    monkeypatch.setattr(metrics, "_energy_values", unreachable)
    big = np.zeros((metrics.WASSERSTEIN_SIZE_CAP + 1, 2))
    pairs = [(np.zeros((6, 2)), np.ones((7, 2)), "sizes differ"), (big, big, "exceeds cap")]
    for gen, ref, cause in pairs:
        with pytest.raises(ValueError, match=cause):
            metrics.evaluate_samples(gen, ref, "m", 1, 0)


# ---------------------------------------------------------------------------
# median bandwidth

def numpy_median_distance(points):
    from scipy.spatial.distance import pdist
    return float(np.median(pdist(points)))


@st.composite
def median_cases(draw):
    """Point sets of 1..300 points in 1-3 dimensions, spread, with exact
    repeats or on a line, and a block size from one row to the default."""
    n, d = draw(st.integers(1, 300)), draw(st.integers(1, 3))
    pts = Stream.from_seed(draw(st.integers(0, 2 ** 32 - 1)), "pts").normal((n, d))
    pts *= draw(st.sampled_from([1e-6, 1.0, 1e6]))
    shape = draw(st.sampled_from(["spread", "repeats", "collinear"]))
    if shape == "repeats":
        pts = pts[np.arange(n) % draw(st.integers(1, 8))]
    elif shape == "collinear":
        pts = pts[:, :1] * np.arange(1.0, d + 1.0) + 0.5
    return pts, draw(st.sampled_from([1, 7, 64, metrics._PAIR_BLOCK]))


@settings(max_examples=80, deadline=None)
@given(median_cases())
def test_median_pairwise_distance_equals_numpy_median(case):
    pts, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_PAIR_BLOCK", block)
        value = metrics.median_pairwise_distance(pts)
    expect = numpy_median_distance(pts) if len(pts) > 1 else 0.0
    assert value == expect and type(value) is float


def _pooled_4096(kind):
    ref = Stream.from_seed(11, "ref").normal((2048, 2))
    if kind == "near":
        gen = ref[::-1] + 0.1 * Stream.from_seed(11, "gen").normal((2048, 2))
    else:   # 29 distinct points, almost all on four corners
        gen = _corners(2048, 11)
        gen[:25] = Stream.from_seed(11, "gen").normal((25, 2))
        assert len(np.unique(gen, axis=0)) == 29
    return np.concatenate([gen, ref])


@pytest.mark.parametrize("kind", ["near", "repeated"])
def test_median_pairwise_distance_at_4096_points_equals_numpy_median(kind):
    pts = _pooled_4096(kind)
    assert metrics.median_pairwise_distance(pts) == numpy_median_distance(pts)


def test_median_pairwise_distance_of_non_finite_points_is_numpy_median():
    pts = Stream.from_seed(12, "pts").normal((9, 2))
    with np.errstate(invalid="ignore"):
        for bad, rows in (([np.nan, 0.0], [1]), ([np.inf, 0.0], [1, 4])):   # inf - inf is NaN
            nan_set = pts.copy()
            nan_set[rows] = bad
            assert np.isnan(numpy_median_distance(nan_set))
            assert np.isnan(metrics.median_pairwise_distance(nan_set))
            with pytest.raises(ValueError, match="degenerate kernel bandwidth nan from the "
                               "median pooled distance: a pooled point is not finite"):
                metrics.mmd_gaussian(nan_set[:4], nan_set[4:])
    for n in (9, 3):   # one inf point: 8 of 36 distances are inf, then 2 of 3
        far = pts[:n].copy()
        far[0, 0] = np.inf
        assert metrics.median_pairwise_distance(far) == numpy_median_distance(far)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_holds_no_buffer_beyond_the_solve_cost():
    """The median and the pair sums hold one block of distances at a time, so
    eval's largest buffer is the n x n cost of the Wasserstein solve (32 MiB
    at the cap)."""
    pts = _pooled_4096("repeated")
    gen, ref = pts[:2048], pts[2048:]
    metrics.evaluate_samples(gen[:8], ref[:8], "m", 1, 0)   # imports scipy before tracing
    assert _traced_peak(metrics.median_pairwise_distance, pts) < 32 * 2 ** 20
    assert _traced_peak(metrics.evaluate_samples, gen, ref, "m", 1, 0) < 40 * 2 ** 20


# ---------------------------------------------------------------------------
# report row

def test_metrics_report_csv_row():
    rep = metrics.evaluate_samples(
        Stream.from_seed(1, "g").normal((32, 2)),
        Stream.from_seed(1, "r").normal((32, 2)),
        method="energy", steps=1, seed=7)
    row = rep.csv_row()
    fields = row.split(",")
    assert len(fields) == len(metrics.MetricsReport.CSV_HEADER.split(","))
    assert fields[0] == "energy" and fields[1] == "1" and fields[2] == "7"
    assert float(fields[4]) == rep.mmd   # shortest round-trip decimals


@pytest.mark.parametrize("shape", [(40, 2), (40, 1)])
def test_eval_computes_the_energy_pair_sums_once(monkeypatch, shape):
    """Energy alone walks each pair once (three walks in 2-D, none for a
    1-column set, which takes the sorted sums) and computes no median. All
    three metrics add the median's two walks over the pooled pairs and the
    kernel sums' three walks. Both energy modes stay energy_statistic's bit
    for bit."""
    gen = Stream.from_seed(3, "g").normal(shape)
    ref = Stream.from_seed(3, "r").normal(shape) + 0.5
    expect = [energy_statistic(gen, ref, cfg) for cfg in (U_CFG, V_CFG)]
    walks, pair_distances = [], metrics._pair_distances

    def counted(a, b=None):
        walks.append(0)
        for d in pair_distances(a, b):
            walks[-1] += len(d)
            yield d

    def unreachable(points):
        raise AssertionError("energy alone computed a median")

    monkeypatch.setattr(metrics, "_pair_distances", counted)
    with monkeypatch.context() as mp:
        mp.setattr(metrics, "median_pairwise_distance", unreachable)
        rep = metrics.evaluate_samples(gen, ref, "energy", 1, 0, names=("energy",))
    assert [repr(rep.energy_u), repr(rep.energy_v)] == list(map(repr, expect))   # bit for bit
    energy_walks = [40 * 40, 40 * 39 // 2, 40 * 39 // 2] if shape[1] == 2 else []
    assert walks == energy_walks
    walks.clear()
    full = metrics.evaluate_samples(gen, ref, "energy", 1, 0)
    assert [repr(full.energy_u), repr(full.energy_v)] == list(map(repr, expect))
    assert walks == [80 * 79 // 2] * 2 + [40 * 39 // 2] * 2 + [40 * 40] + energy_walks


def brute_sigma(x, y):
    from scipy.spatial.distance import pdist
    return float(np.median(pdist(np.concatenate([x, y]))))


@st.composite
def unequal_pairs(draw):
    """Two point sets of unequal sizes (2..16 points against more), in 1-3
    dimensions, spread or with exact repeats, and a block size from one
    distance to the default."""
    m, d = draw(st.integers(2, 16)), draw(st.integers(1, 3))
    n = m + draw(st.integers(1, 8))
    s = Stream.from_seed(draw(st.integers(0, 2 ** 32 - 1)), "pair")
    x, y = s.child("x").normal((m, d)), s.child("y").normal((n, d)) + 0.5
    if draw(st.booleans()):   # on 2 or more points, so that the median stays > 0
        y = y[np.arange(n) % draw(st.integers(2, 4))]
    if draw(st.booleans()):
        x, y = y, x
    return x, y, draw(st.sampled_from([1, 7, 64, metrics._PAIR_BLOCK]))


@settings(max_examples=30, deadline=None)
@given(unequal_pairs())
def test_blockwise_metrics_match_brute_force_at_every_block_size(case):
    x, y, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_PAIR_BLOCK", block)
        energy = [energy_statistic(x, y, cfg) for cfg in (U_CFG, V_CFG)]
        mmd2, sigma = metrics.mmd_gaussian(x, y)
        swapped = metrics.mmd_gaussian(y, x)
    assert energy == pytest.approx([brute_energy(x, y, "u"), brute_energy(x, y, "v")],
                                   abs=1e-12)
    assert sigma == brute_sigma(x, y)
    assert mmd2 == pytest.approx(brute_mmd(x, y, sigma), abs=1e-12)
    assert swapped == (mmd2, sigma)
