"""Two-sample distribution distances: energy statistic, MMD, Wasserstein.

These are evaluation-side metrics: pairwise distances are exact Euclidean
norms (no smoothing), which the energy sums, the MMD kernel sums and the
median bandwidth read block by block from :func:`_pair_distances` (1-column
energy sums use sorted prefix sums; the Wasserstein solve has its own cost
matrix, whose columns it first lowers by prices that leave its optimum and
value exact). Pairwise sums run in a fixed order, so every value is
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy is imported by the functions that use it: importing it costs most of
# the import time of escore.cli, and most verbs never score

WASSERSTEIN_SIZE_CAP = 2048
MEDIAN = "median"
METRIC_NAMES = ("mmd", "wsd", "energy")   # energy gives energy_u and energy_v

_PAIR_BLOCK = 1 << 18     # about the max pairwise distances the metrics hold at once
_INF_KEY = 0x7FF0         # top 16 bits of +inf's bit pattern
_MATCH_BLOCK = 64         # rows per block of the matched-distance read-out
# coordinate-ascent sweeps of the solve's point prices: at the size cap, one-step
# diffusion samples on about 40 points solve as fast after 12 to 24 sweeps
_PRICE_SWEEPS = 16
# the all-distinct solve's prices come from an exact solve of every 4th row
# and column, from this many points on
_SAMPLE_STRIDE = 4
_SAMPLED_PRICES_MIN = 256


@dataclass(frozen=True)
class EnergyEstimatorConfig:
    """Within-term convention for the plug-in energy statistic.

    mode "u": 1/(m(m-1)) over i != j (unbiased); needs both sets >= 2.
    mode "v": 1/m^2 including the zero diagonal (nonnegative statistic).
    """
    mode: str = "v"

    def __post_init__(self):
        if self.mode not in ("u", "v"):
            raise ValueError(f"mode must be 'u' or 'v', got {self.mode!r}")


def _as_points(x, y, tags: tuple[str, str] = ("X", "Y")) -> tuple[np.ndarray, np.ndarray]:
    """Both sets as float64 (n, d) arrays of at least one point and one dimension d."""
    pair = [np.asarray(getattr(a, "points", a), dtype=np.float64) for a in (x, y)]
    for tag, pts in zip(tags, pair):
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"{tag}: expected (n, d) points, got shape {pts.shape}")
    if pair[0].shape[1] != pair[1].shape[1]:
        raise ValueError(f"dimension mismatch: {pair[0].shape[1]} vs {pair[1].shape[1]}")
    return pair[0], pair[1]


def _pair_sum_1d(x: np.ndarray, y: np.ndarray) -> float:
    """Sum over all pairs of |x_i - y_j| via sorted prefix sums."""
    xs = np.sort(x)
    pre = np.concatenate([[0.0], np.cumsum(xs)])
    cnt = np.searchsorted(xs, y, side="right")
    below = cnt * y - pre[cnt]
    above = (pre[-1] - pre[cnt]) - (len(xs) - cnt) * y
    return float(np.sum(below + above))


def _within_sum_1d(x: np.ndarray) -> float:
    """Sum over ordered pairs (i != j) of |x_i - x_j|."""
    xs = np.sort(x)
    idx = np.arange(len(xs), dtype=np.float64)
    return 2.0 * float(np.sum((2.0 * idx - len(xs) + 1.0) * xs))


def _pair_distances(a: np.ndarray, b: np.ndarray | None = None):
    """Euclidean distances in flat blocks of about _PAIR_BLOCK: of every pair
    (a_i, b_j), one row block of ``a`` at a time, or without ``b`` the
    multiset of ``pdist(a)``, the pairs i < j: for each row block, its
    distances to the later rows, then those within it. scipy's pdist values
    equal cdist's bit for bit, so no block is masked. Every block is a new
    array that the caller may overwrite."""
    from scipy.spatial.distance import cdist, pdist
    rows = max(1, _PAIR_BLOCK // max(len(a) if b is None else len(b), 1))
    for start in range(0, len(a), rows):
        end = start + rows
        if b is not None:
            yield cdist(a[start:end], b).ravel()
        else:
            yield cdist(a[start:end], a[end:]).ravel()
            yield pdist(a[start:end])


def _pair_sum(a: np.ndarray, b: np.ndarray | None = None, inv: float | None = None) -> float:
    """Sum over the distances d that ``_pair_distances(a, b)`` yields, block
    by block, of d, or given ``inv`` of the RBF kernel exp(inv * d**2)."""
    total = 0.0
    for d in _pair_distances(a, b):
        if inv is not None:
            with np.errstate(over="ignore"):   # -inf where exp gives 0 anyway
                d *= d
                d *= inv
            np.exp(d, out=d)
        total += float(d.sum())
    return total


def _energy_values(xp: np.ndarray, yp: np.ndarray, modes: tuple[str, ...]) -> list[float]:
    """The energy statistic in each of ``modes``, from one computation of its
    three pair sums."""
    m, n = len(xp), len(yp)
    if "u" in modes and (m < 2 or n < 2):
        raise ValueError("U-mode estimator needs at least 2 points per set")
    if xp.shape[1] == 1:   # O(n log n): what makes 10^5-point sets feasible
        x, y = xp[:, 0], yp[:, 0]
        cross, within_x, within_y = _pair_sum_1d(x, y), _within_sum_1d(x), _within_sum_1d(y)
    else:
        cross, within_x, within_y = _pair_sum(xp, yp), 2.0 * _pair_sum(xp), 2.0 * _pair_sum(yp)
    values = []
    for mode in modes:
        value = 2.0 * cross / (m * n)
        value -= within_x / (m * (m - 1) if mode == "u" else m * m)
        value -= within_y / (n * (n - 1) if mode == "u" else n * n)
        values.append(value)
    return values


def energy_statistic(x, y, cfg: EnergyEstimatorConfig = EnergyEstimatorConfig()) -> float:
    """Plug-in energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| between samples."""
    [value] = _energy_values(*_as_points(x, y), (cfg.mode,))
    return value


def gaussian_energy_oracle(mu: float) -> float:
    """Closed-form energy distance between N(0,1) and N(mu,1) in 1-D.

    Uses the folded-normal mean E|N(m, s^2)| =
    s sqrt(2/pi) exp(-m^2 / 2 s^2) + m (1 - 2 Phi(-m/s)) with s = sqrt(2).
    """
    s = math.sqrt(2.0)

    def folded_mean(m: float) -> float:
        phi = 0.5 * (1.0 + math.erf((-m / s) / math.sqrt(2.0)))
        return s * math.sqrt(2.0 / math.pi) * math.exp(-m * m / (2 * s * s)) \
            + m * (1.0 - 2.0 * phi)

    return 2.0 * folded_mean(abs(mu)) - 2.0 * folded_mean(0.0)


def median_pairwise_distance(points: np.ndarray) -> float:
    """Median of the pairwise distances, bit for bit
    ``float(np.median(pdist(points)))``, holding one block of distances at a
    time instead of all n(n-1)/2 of them.

    For non-negative doubles, the order of the bit patterns is the order of
    the values. Pass 1 counts the distances of every block by the top 16 bits
    of their patterns; the cumulative counts name the bins that hold the two
    middle ranks. Pass 2 recomputes the blocks and keeps only the distances in
    those bins. Partitioning the kept values at the two ranks, shifted by the
    count below them, gives the exact middle values, averaged as np.median
    averages them (one value when the count is odd). Fewer than two points
    give 0.0, and a NaN distance gives NaN, as np.median does.
    """
    p = np.asarray(points, dtype=np.float64)
    total = len(p) * (len(p) - 1) // 2
    if total == 0:
        return 0.0
    counts = np.zeros(1 << 16, dtype=np.int64)
    for d in _pair_distances(p):
        key = d.view(np.uint64)
        key >>= 48   # in place: pass 1 needs only the keys
        counts += np.bincount(key.view(np.int64), minlength=1 << 16)
    # distances come out of arithmetic, so a NaN is quiet: its key is above +inf's
    if counts[_INF_KEY + 1:].any():
        return math.nan
    cum = np.cumsum(counts)
    ranks = ((total - 1) // 2, total // 2)
    first, last = (int(b) for b in np.searchsorted(cum, ranks, side="right"))
    below = int(cum[first - 1]) if first else 0
    # the values of bins first..last; the +inf bin holds +inf alone
    lo, hi = np.array([first << 48, min(((last + 1) << 48) - 1, _INF_KEY << 48)],
                      dtype=np.uint64).view(np.float64)
    kept = np.empty(int(cum[last]) - below)
    filled = 0
    for d in _pair_distances(p):
        inside = d >= lo
        inside &= d <= hi
        values = d[inside]
        kept[filled:filled + len(values)] = values
        filled += len(values)
    i, j = ranks[0] - below, ranks[1] - below
    kept.partition((i, j))
    return float(np.mean(kept[i:j + 1]))


def kernel_factor(sigma: float) -> float:
    """-0.5 / sigma**2, the factor of the RBF kernel's exponent. Raises
    ValueError naming ``sigma`` unless it is a finite number > 0 whose factor
    is finite too, which takes sigma above about 5.3e-155."""
    if not (math.isfinite(sigma) and sigma > 0 and sigma * sigma > 0
            and math.isfinite(-0.5 / (sigma * sigma))):
        raise ValueError(f"kernel bandwidth {sigma!r} is not a finite number > 0 "
                         "with a finite -0.5 / bandwidth**2")
    return -0.5 / (sigma * sigma)


def mmd_gaussian(x, y, bandwidth: float | str = MEDIAN) -> tuple[float, float]:
    """Biased (V-statistic) squared MMD with RBF kernel exp(-r^2 / 2 sigma^2).

    bandwidth MEDIAN resolves sigma to the median pairwise distance of the
    pooled set; an explicit one must pass :func:`kernel_factor`. Returns
    (mmd2, bandwidth_used). A within-set kernel mean is (2 * sum over i < j
    + m) / m**2. Symmetric in its arguments by canonical internal ordering.
    """
    xp, yp = _as_points(x, y)
    # canonical order makes mmd(X, Y) == mmd(Y, X) bit-for-bit
    if (len(xp), xp.tobytes()) > (len(yp), yp.tobytes()):
        xp, yp = yp, xp
    if bandwidth != MEDIAN:
        sigma = float(bandwidth)
        inv = kernel_factor(sigma)
    else:
        sigma = median_pairwise_distance(np.concatenate([xp, yp], axis=0))
        try:
            inv = kernel_factor(sigma)
        except ValueError:
            cause = ("at least half of the pooled pairs are (nearly) identical points"
                     if math.isfinite(sigma) else "a pooled point is not finite or too large")
            raise ValueError(f"degenerate kernel bandwidth {sigma!r} from the median pooled "
                             f"distance: {cause}; pass an explicit bandwidth") from None
    m, n = len(xp), len(yp)
    within_x = (2.0 * _pair_sum(xp, inv=inv) + m) / (m * m)
    within_y = (2.0 * _pair_sum(yp, inv=inv) + n) / (n * n)
    cross = _pair_sum(xp, yp, inv) / (m * n)
    return float(within_x + within_y - 2.0 * cross), sigma


def _check_assignable(xp: np.ndarray, yp: np.ndarray) -> None:
    """The Wasserstein solve's preconditions beyond :func:`_as_points`: equal
    sizes, and at most WASSERSTEIN_SIZE_CAP points (the solve is dense and cubic)."""
    if len(xp) != len(yp):
        raise ValueError(f"set sizes differ: {len(xp)} vs {len(yp)}")
    if len(xp) > WASSERSTEIN_SIZE_CAP:
        raise ValueError(f"size {len(xp)} exceeds cap {WASSERSTEIN_SIZE_CAP}")


def _point_prices(rows: np.ndarray, points: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Approximate transportation duals: one price per distinct column point,
    such that about ``counts[j]`` rows prefer point j at distance less price.

    Each of _PRICE_SWEEPS coordinate-ascent sweeps visits the points in turn
    and sets point j's price midway between the ``counts[j]``-th and the next
    row threshold, where row i prefers j once the price passes
    ``d[j, i] - min over l != j of (d[l, i] - price[l])``: then exactly
    ``counts[j]`` rows prefer j given the other prices. The minimum over the
    other points is that over the points before j, at their new prices, and
    over those after j, at the prices the sweep began with, so a sweep costs
    a few passes over the k x n distances. Non-finite distances give zero
    prices, which leave the solve's input as it was.
    """
    from scipy.spatial.distance import cdist
    d = cdist(points, rows)
    prices = np.zeros(len(points))
    if not np.isfinite(d).all():
        return prices
    for _ in range(_PRICE_SWEEPS):
        reduced = d - prices[:, None]
        after = np.minimum.accumulate(reduced[::-1], axis=0)[::-1]   # after[j]: over points >= j
        before = np.full(len(rows), np.inf)
        for j, m in enumerate(counts):
            other = np.minimum(before, after[j + 1]) if j + 1 < len(d) else before
            thresholds = np.partition(d[j] - other, (m - 1, m))
            prices[j] = 0.5 * (thresholds[m - 1] + thresholds[m])
            np.minimum(before, d[j] - prices[j], out=before)
    return prices


def _column_duals(cost: np.ndarray, cols: np.ndarray, max_rounds: int) -> np.ndarray | None:
    """Column duals v of the square ``cost``'s optimal assignment, row i to
    column ``cols[i]``, by Bellman-Ford on its exchange graph: from v = 0,
    ``v_j <- min(v_j, min_i(v[cols[i]] - cost[i, cols[i]] + cost[i, j]))``
    until nothing moves, relaxing each round only the rows whose column moved
    in the last one. Then the row duals ``u_i = min_j(cost[i, j] - v_j)``
    satisfy ``cost - u - v >= 0`` with equality on the matched pairs (to
    rounding). None when a move remains after ``max_rounds`` rounds."""
    matched = cost[np.arange(len(cost)), cols]
    duals = np.zeros(len(cost))
    moved_rows = np.arange(len(cost))
    for _ in range(max_rounds):
        through = duals[cols[moved_rows]] - matched[moved_rows]
        lowest = (cost[moved_rows] + through[:, None]).min(axis=0)
        moved = lowest < duals
        if not moved.any():
            return duals
        duals[moved] = lowest[moved]
        moved_rows = np.flatnonzero(moved[cols])
    return None


def _sampled_prices(rows: np.ndarray, columns: np.ndarray) -> np.ndarray | None:
    """Approximate assignment duals of the columns, one price each, from an
    exact solve of every _SAMPLE_STRIDE-th row against every
    _SAMPLE_STRIDE-th column (a coarse level, as in Mérigot 2011), or None
    when they would not help.

    The sub-solve's column duals come from :func:`_column_duals` (at most m
    rounds for m sampled columns), its row duals u from a c-transform, and
    every column's price from a second c-transform over the sampled rows,
    ``v_j = min_i(d(row_i, column_j) - u_i)``. The prices are kept only if
    fewer rows then share a preferred column, ``argmin_j(d_ij - v_j)``, than
    with no prices. None too when a distance is not finite or the duals do
    not converge. No buffer holds more than the sub-solve's m x m cost or a
    block of about _PAIR_BLOCK distances (2 MiB each at the size cap), and
    all are freed on return."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    n = len(columns)
    m = n // _SAMPLE_STRIDE
    pick = np.arange(m) * _SAMPLE_STRIDE
    sampled = rows[pick]
    sub = cdist(sampled, columns[pick])
    if not np.isfinite(sub).all():
        return None
    _, cols = linear_sum_assignment(sub)
    duals = _column_duals(sub, cols, m)
    if duals is None:
        return None
    sub -= duals
    row_duals = sub.min(axis=1)
    del sub
    prices, start = np.full(n, np.inf), 0
    for d in _pair_distances(sampled, columns):
        d = d.reshape(-1, n)
        d -= row_duals[start:start + len(d), None]
        np.minimum(prices, d.min(axis=0), out=prices)
        start += len(d)
    plain, priced = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for d in _pair_distances(rows, columns):
        d = d.reshape(-1, n)
        if not np.isfinite(d).all():
            return None
        plain += np.bincount(d.argmin(axis=1), minlength=n)
        d -= prices
        priced += np.bincount(d.argmin(axis=1), minlength=n)
    return prices if priced[priced > 1].sum() < plain[plain > 1].sum() else None


def _matched_distances(rows: np.ndarray, matched: np.ndarray) -> np.ndarray:
    """``cdist(rows, matched)``'s diagonal, bit for bit, one row block at a
    time: the distance of each row to its own match."""
    from scipy.spatial.distance import cdist
    out = np.empty(len(rows))
    for start in range(0, len(rows), _MATCH_BLOCK):
        end = start + _MATCH_BLOCK
        out[start:end] = cdist(rows[start:end], matched[start:end]).diagonal()
    return out


def wasserstein_assignment(x, y) -> float:
    """Exact optimal-assignment Wasserstein-1 distance between equal-size
    sets: the mean matched Euclidean distance.

    The set with fewer distinct points goes in the columns of the solve (on
    equal counts, ``x`` stays in the rows). scipy's shortest-augmenting-path
    solver breaks a tie between columns toward a free column but has no such
    rule for rows, so exact repeats, such as samples clipped onto a few
    corners, cost little as columns and a lot as rows: at the size cap such a
    set solves several times faster in the columns. The rule also makes the
    value symmetric bit for bit whenever the counts differ.

    Every column of the cost matrix is lowered, in place, by a price near the
    problem's optimal dual before the solve, so most rows take a free column
    they prefer and the solver's augmenting paths stay short (Jonker &
    Volgenant, 1987). The prices depend on the columns:

    - few distinct points (more than one, and at most an eighth of the set):
      one price per point by coordinate ascent (:func:`_point_prices`); a
      one-step diffusion sample on about 40 points solves several times
      faster at the size cap;
    - more distinct points, from _SAMPLED_PRICES_MIN points on: the duals of
      an exact solve of every 4th row and column, extended to every column
      (:func:`_sampled_prices`), or none when they would leave more rows
      sharing a preferred column than no prices do; a one-step energy
      sample near its reference solves about a third faster at the size cap;
    - one distinct point, or a set too small: no prices.

    The solve stays exact: every full assignment takes each column once, so
    the shift moves the total of every assignment by the same constant and
    leaves the optimum where it was. The value is read from distances
    recomputed for the matched pairs, which equal the unshifted cost entries
    bit for bit.
    """
    xp, yp = _as_points(x, y)
    _check_assignable(xp, yp)
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    x_points = np.unique(xp, axis=0, return_inverse=True, return_counts=True)
    y_points = np.unique(yp, axis=0, return_inverse=True, return_counts=True)
    if len(y_points[0]) > len(x_points[0]):
        xp, yp, y_points = yp, xp, x_points
    points, inverse, counts = y_points
    # priced before the cost is built, so that the prices' buffers are freed by then
    if 1 < len(points) <= len(yp) // 8:
        shift = _point_prices(xp, points, counts)[inverse]
    elif len(points) > len(yp) // 8 and len(yp) >= _SAMPLED_PRICES_MIN:
        shift = _sampled_prices(xp, yp)
    else:
        shift = None
    cost = cdist(xp, yp)   # built in the solve's orientation: scipy copies a transposed view
    if shift is not None:
        cost -= shift
    _, cols = linear_sum_assignment(cost)   # rows come back as 0..n-1
    return float(_matched_distances(xp, yp[cols]).mean())


@dataclass
class MetricsReport:
    """One evaluation row: generated-vs-reference distances plus provenance.

    A metric the evaluation left out is None and an empty CSV cell;
    ``bandwidth`` is the MMD's kernel bandwidth and goes with it.
    """
    method: str
    steps: int
    seed: int
    n: int
    mmd: float | None
    wsd: float | None
    energy_u: float | None
    energy_v: float | None
    bandwidth: float | None

    CSV_HEADER = "method,steps,seed,n,mmd,wsd,energy_u,energy_v,bandwidth"
    VALUES = ("mmd", "wsd", "energy_u", "energy_v", "bandwidth")

    def __post_init__(self):
        for name in self.VALUES:
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"MetricsReport.{name} is not finite")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def csv_row(self) -> str:
        values = [getattr(self, name) for name in self.VALUES]
        return ",".join([self.method, str(self.steps), str(self.seed), str(self.n)]
                        + ["" if v is None else repr(v) for v in values])


def evaluate_samples(generated, reference, method: str, steps: int, seed: int,
                     bandwidth: float | str = MEDIAN,
                     names: tuple[str, ...] = METRIC_NAMES) -> MetricsReport:
    """Report between generated points and a reference batch, computing only
    the metrics in ``names`` (a subset of :data:`METRIC_NAMES`)."""
    gen, ref = _as_points(generated, reference, ("generated", "reference"))
    if "wsd" in names:
        _check_assignable(gen, ref)   # a pair the solve rejects fails before any work
    mmd2 = sigma = wsd = e_u = e_v = None
    if "mmd" in names:
        mmd2, sigma = mmd_gaussian(gen, ref, bandwidth)
    if "wsd" in names:
        wsd = wasserstein_assignment(gen, ref)
    if "energy" in names:
        e_u, e_v = _energy_values(gen, ref, ("u", "v"))
    return MetricsReport(method, steps, seed, len(gen), mmd2, wsd, e_u, e_v, sigma)
