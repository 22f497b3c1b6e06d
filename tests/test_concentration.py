import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hardylab import concentration as conc
from hardylab import measure as msr
from hardylab import quad, scenarios
from hardylab.errors import DomainValidationError

# ---------------------------------------------------------------------------
# closed-form bound
# ---------------------------------------------------------------------------


def test_two_level_bound_values():
    assert conc.two_level_bound(1.0, 1.5, 1.0, 1.0, 0.0) == 1.0  # 2 capped at 1
    assert conc.two_level_bound(1.0, 1.5, 1.0, 1.0, 1.0) == 1.0  # 2e^-1/2 capped
    assert conc.two_level_bound(1.0, 1.5, 1.0, 1.0, 9.0) == pytest.approx(
        2.0 * math.exp(-13.5), rel=1e-14
    )
    # hand-checked generic point: C=2, r=1.4, A=0.5, B=2, t=3
    C, r, A, B, t = 2.0, 1.4, 0.5, 2.0, 3.0
    expo = 0.5 * min(t * t / (C * A * A), t**r / (C ** (r - 1.0) * B**r))
    assert conc.two_level_bound(C, r, A, B, t) == pytest.approx(min(2 * math.exp(-expo), 1.0), rel=1e-14)
    with pytest.raises(DomainValidationError):
        conc.two_level_bound(-1.0, 1.5, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------


def test_g_cost_values():
    assert conc.g_cost([0.5], 1.5) == 0.25
    assert conc.g_cost([3.0, 0.5], 1.5) == pytest.approx(3.0**1.5 + 0.25, rel=1e-14)


def test_g_cost_past_the_float_range_is_inf_without_warnings():
    # x^2 overflows at |x| = 1e200, where min(x^2, |x|^r) is |x|^r, and both
    # do at 1e250, where the cost is inf (which the gradient check's G < t
    # rejects); no RuntimeWarning is emitted
    costs = conc.g_cost([[1e200, 0.5], [1e250, 1.0]], 1.5)
    assert costs.tolist() == [np.power(1e200, 1.5) + 0.25, math.inf]


def _halfspace_cost(x, c, r):
    """F_A of the rows of x for the halfspace A = {sum_i x_i <= c}."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return conc._halfspace_cost(np.maximum(np.sum(x, axis=1) - c, 0.0), x.shape[1], r)


def _point_set_cost(x, points, r):
    """F_A of the rows of x for the finite set A of ``points``, by brute force."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = np.abs(x[:, None, :] - np.atleast_2d(np.asarray(points, dtype=float))[None, :, :])
    return np.min(np.sum(np.minimum(d * d, np.power(d, r)), axis=2), axis=1)


def test_f_a_cost_membership_zero():
    assert _halfspace_cost([0.2, 0.3], 1.0, 1.5)[0] == 0.0
    assert _point_set_cost([0.1, 0.2], [(0.1, 0.2)], 1.5)[0] == 0.0


def test_f_a_cost_point_set_examples():
    assert _point_set_cost([0.5], [(0.0,)], 1.5)[0] == pytest.approx(0.25, rel=1e-14)
    assert _point_set_cost([3.0, 0.5], [(0.0, 0.0)], 1.5)[0] == pytest.approx(3.0**1.5 + 0.25, rel=1e-14)


def test_pointset_containing_halfspace_dominates():
    # any finite subset of the halfspace gives a larger infimum
    rng = np.random.Generator(np.random.PCG64(17))
    pts = rng.normal(size=(200, 3))
    pts -= (np.maximum(pts.sum(axis=1), 0.0) / 3.0)[:, None]  # project into the halfspace sum <= 0
    xs = rng.normal(size=(100, 3)) * 2.0
    for x in xs:
        assert _point_set_cost(x, pts, 1.5)[0] >= _halfspace_cost(x, 0.0, 1.5)[0] - 1e-12


def test_halfspace_cost_conservative_vs_discretized_bruteforce():
    # n <= 3: compare with brute force over a dense sample of A; the candidate
    # minimization must match the discretized infimum up to its resolution
    rng = np.random.Generator(np.random.PCG64(23))
    r, c = 1.5, 0.5
    for n in (1, 2, 3):
        # 1e4 points of the boundary + interior
        base = rng.uniform(-4, 4, size=(10_000, n))
        over = base.sum(axis=1) > c
        base[over] -= ((base.sum(axis=1)[over] - c) / n)[:, None]  # project onto sum = c
        xs = rng.uniform(-3, 3, size=(100, n))
        up = _halfspace_cost(xs, c, r)
        brute = _point_set_cost(xs, base, r)
        # upper bound below the (subset-restricted) brute force, up to grid slack
        assert np.all(up <= brute + 1e-9)
        # and not wildly loose: within discretization resolution of the brute force
        assert np.all(brute - up <= 0.35)


def _halfspace_cost_bisection(x, c, r):
    """Reference F_A for the halfspace sum <= c: 60 bisection steps on the
    class-mass split for every power-class size k, over all rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[1]
    s = np.maximum(np.sum(x, axis=1) - c, 0.0)
    best = np.where(s <= n, s * s / n, np.inf)
    for k in range(1, n + 1):
        nq = n - k
        m_lo = np.maximum(float(k), s - nq)
        m_hi = s
        feasible = m_lo <= m_hi
        if not np.any(feasible):
            continue
        if nq == 0:
            m = np.where(feasible, s, 1.0)
        else:
            lo = np.where(feasible, m_lo, 0.0)
            hi = np.where(feasible, m_hi, 1.0)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                gp = r * np.power(mid / k, r - 1.0) - 2.0 * (s - mid) / nq
                hi = np.where(gp > 0, mid, hi)
                lo = np.where(gp > 0, lo, mid)
            m = 0.5 * (lo + hi)
        with np.errstate(invalid="ignore"):
            cost = k * np.power(m / k, r) + (np.square(s - m) / nq if nq else 0.0)
        best = np.where(feasible, np.minimum(best, cost), best)
    return np.where(s > 0.0, best, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("r", [1.2, 1.5, 1.8])
def test_halfspace_cost_matches_bisection_reference(n, r):
    rng = np.random.Generator(np.random.PCG64(100 * n + int(10 * r)))
    # excess s = sum x - c: zero and negative (inside A), in (0, 1), exact
    # integers 1..n+1, beyond n, infinite, and a random spread
    s = np.concatenate(
        [
            [0.0, -2.5, 1e-9, 0.3, 0.999, n + 0.5, 2.0 * n, 10.0 * n, np.inf],
            np.arange(1.0, n + 2.0),
            rng.uniform(0.0, 3.0 * n, 400),
        ]
    )
    exact = np.zeros((len(s), n))
    exact[:, 0] = s  # row sums are s exactly
    noisy = rng.normal(size=(len(s), n))
    noisy[:, 0] += s - noisy.sum(axis=1)
    x = np.vstack([exact, noisy])
    with np.errstate(invalid="raise"):  # no nan from the s = inf rows
        got = _halfspace_cost(x, 0.0, r)
    finite = np.isfinite(np.concatenate([s, s]))
    want = _halfspace_cost_bisection(x[finite], 0.0, r)
    np.testing.assert_allclose(got[finite], want, rtol=1e-12, atol=0.0)
    assert np.all(got[~finite] == np.inf)
    assert np.all(got[: len(s)][s <= 0.0] == 0.0)


@pytest.mark.parametrize("n,grid", [(2, 200_001), (3, 1201)])
@pytest.mark.parametrize("r", [1.2, 1.5, 1.8])
def test_halfspace_cost_is_exact_vs_bruteforce(n, grid, r):
    # min sum_i min(d_i^2, d_i^r) over d >= 0, sum d = s on a grid of the
    # simplex.  The grid minimum is attained at a feasible point, so an exact
    # cost is never above it; and it exceeds the true minimum by at most
    # L * (l1 distance to the nearest grid point), L the largest slope of
    # the summand on [0, s].  An upper bound that is not exact would fail
    # the first check.
    for s in (0.3, 1.0, 1.7, 2.0, 2.5, 3.0, 3.3, 4.5, 7.0):
        d = np.linspace(0.0, s, grid)
        if n == 2:
            splits = (d, s - d)
        else:
            d1, d2 = np.meshgrid(d, d, indexing="ij")
            inside = d1 + d2 <= s
            d1, d2 = d1[inside], d2[inside]
            splits = (d1, d2, np.maximum(s - d1 - d2, 0.0))
        brute = float(np.min(sum(np.minimum(di * di, np.power(di, r)) for di in splits)))
        x = np.zeros((1, n))
        x[0, 0] = s
        cost = _halfspace_cost(x, 0.0, r)[0]
        slack = 2.0 * (n - 1) * max(2.0, r * s ** (r - 1.0)) * s / (grid - 1)
        assert cost <= brute * (1.0 + 1e-12)
        assert brute - cost <= slack


def test_halfspace_cost_matches_exact_small_s():
    # for 0 < s <= n the even split stays in the quadratic branch: cost = s^2/n
    x = np.array([[0.5, 0.5, 0.5, 0.5]])
    s = 1.0
    assert _halfspace_cost(x, 1.0, 1.5)[0] == pytest.approx(s * s / 4.0, rel=1e-12)


def _former_halfspace_cost(s, n, r):
    """``conc._halfspace_cost`` as it was: each Newton step on every row,
    until no row moves."""
    best = np.where(s <= n, s * s / n, np.inf)
    rows = np.flatnonzero((s > 0.0) & (s < np.inf))
    for k in range(1, n + 1):
        rows = rows[s[rows] >= k]
        if len(rows) == 0:
            break
        sk = s[rows]
        nq = n - k
        if nq == 0:
            cost = k * np.power(sk / k, r)
        else:
            m = np.maximum(float(k), sk - nq)
            while True:
                p = np.power(m / k, r - 1.0)
                gp = r * p - 2.0 * (sk - m) / nq
                gpp = r * (r - 1.0) * p / m + 2.0 / nq
                m_next = np.clip(m - gp / gpp, m, sk)
                if np.array_equal(m_next, m, equal_nan=True):
                    break
                m = m_next
            cost = k * np.power(m / k, r) + np.square(sk - m) / nq
        best[rows] = np.minimum(best[rows], cost)
    return np.where(s > 0.0, best, 0.0)


@pytest.mark.parametrize("n", [1, 16, 32])
@pytest.mark.parametrize("r", [1.01, 1.5, 1.99])
def test_halfspace_newton_on_moving_rows_equals_the_full_array_loop(n, r):
    # the Newton steps run on the rows that still move give every row the
    # final m, and so the cost, of steps run on all rows until none moves;
    # an excess past the float range costs inf with no RuntimeWarning
    rng = np.random.Generator(np.random.PCG64(3))
    s = np.concatenate([[0.0, np.inf, np.nan, 1e300], np.arange(1.0, n + 1.0), rng.uniform(0.0, 3.0 * n, 2000),
                        rng.exponential(1.0, 500)])
    with np.errstate(over="ignore"):
        want = _former_halfspace_cost(s, n, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conc._halfspace_cost(s, n, r)
    assert np.array_equal(got, want)
    assert got[:3].tolist() == [0.0, math.inf, 0.0]
    assert (got[3] == math.inf) if r > 1.03 else (1e300 < got[3] < math.inf)  # 1e300^r overflows from r = 1.028 on


def test_halfspace_newton_on_the_bench_sums_equals_the_full_array_loop(mu15):
    # the enlargement's own excesses: 50,000 sums of 16 draws of power:1.5 over their median
    sums = msr.sample(mu15, 7, 50_000, 16, lambda x: np.sum(x, axis=1))
    s = np.maximum(sums - np.median(sums), 0.0)
    assert np.array_equal(conc._halfspace_cost(s, 16, 1.5), _former_halfspace_cost(s, 16, 1.5))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mu15():
    return msr.normalize(msr.Potential.builtin("power", 1.5), label="mu15")


def test_deviation_deterministic(mu15):
    kw = dict(n=4, statistic="mean_scaled", t_grid=(0.5, 1.0, 2.0), count=20_000, seed=99, C=5.0, r=1.5)
    a = conc.deviation_experiment(mu15, **kw)
    b = conc.deviation_experiment(mu15, **kw)
    assert a.empirical_tail == b.empirical_tail
    assert a.confidence == b.confidence
    c = conc.deviation_experiment(mu15, **{**kw, "seed": 100})
    assert a.empirical_tail != c.empirical_tail


def test_deviation_n1_matches_closed_form(exp_measure):
    # n = 1: the scaled mean is the identity, so the two-sided tail at t is
    # P(|x - mean| >= t) = e^-t for the symmetric exponential measure
    rep = conc.deviation_experiment(
        exp_measure, n=1, statistic="mean_scaled", t_grid=(0.5, 1.0, 2.0), count=400_000, seed=7, C=4.0, r=1.5
    )
    for t, p, c in zip(rep.t_grid, rep.empirical_tail, rep.confidence):
        assert abs(p - math.exp(-t)) <= c + 3e-3


def test_deviation_tail_monotone_and_probabilities(mu15):
    rep = conc.deviation_experiment(
        mu15, n=8, statistic="max", t_grid=(0.2, 0.5, 1.0, 2.0, 4.0), count=50_000, seed=3, C=2.0, r=1.5
    )
    tails = rep.empirical_tail
    assert all(0.0 <= p <= 1.0 for p in tails)
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_two_sided_tail_consistent_with_one_sided(mu15):
    # |f - m| >= t splits into the two one-sided events; totals must agree
    n, count, seed = 4, 50_000, 21
    f = msr.sample(mu15, seed, count, n, lambda x: x.sum(axis=1) / 2.0)
    mean = f.mean()
    for t in (0.5, 1.0, 2.0):
        two = np.mean(np.abs(f - mean) >= t)
        split = np.mean(f - mean >= t) + np.mean(mean - f >= t)
        assert two == pytest.approx(split, abs=1e-12)


def test_softmax_statistic_requires_beta(mu15):
    # beta = nan would make every value nan, and every tail 0
    for beta in (None, 0.0, math.nan, math.inf):
        with pytest.raises(DomainValidationError):
            conc.deviation_experiment(
                mu15, n=2, statistic="softmax", t_grid=(1.0,), count=100, seed=0, C=1.0, r=1.5, beta=beta
            )


@pytest.mark.parametrize("experiment", ["deviation", "enlargement"])
def test_experiments_reject_a_grid_that_does_not_increase(mu15, experiment):
    kw = dict(n=2, t_grid=(4.0, 2.0), count=100, seed=0, C=1.0, r=1.5)
    if experiment == "deviation":
        kw["statistic"] = "max"
    with pytest.raises(DomainValidationError, match="increasing"):
        getattr(conc, f"{experiment}_experiment")(mu15, **kw)


@pytest.mark.parametrize("C, r, message", [
    (0.0, 1.5, "C, A, B must be positive"), (-5.0, 1.5, "C, A, B must be positive"),
    (math.nan, 1.5, "C, A, B must be positive"), (1.0, 2.5, "r must lie"), (1.0, 0.5, "r must lie"),
    (1.0, 2.0, "r must lie"), (1.0, math.nan, "r must lie"),
])
@pytest.mark.parametrize("experiment", ["deviation", "enlargement"])
def test_experiments_reject_constants_outside_the_bound(mu15, experiment, C, r, message, monkeypatch):
    # for r > 2 the branches of min(d^2, d^r) swap, so the halfspace cost
    # would be wrong; C <= 0 divides by zero or raises to a fractional power;
    # both are refused before any draw
    monkeypatch.setattr(msr, "sample", None)
    kw = dict(n=2, t_grid=(1.0,), count=100, seed=0, C=C, r=r)
    if experiment == "deviation":
        kw["statistic"] = "max"
    with pytest.raises(DomainValidationError, match=message):
        getattr(conc, f"{experiment}_experiment")(mu15, **kw)


@pytest.mark.parametrize("values", [math.inf, 1e300], ids=["inf", "1e300"])
def test_deviation_refuses_a_statistic_that_is_not_finite(mu15, values, monkeypatch):
    # values of inf leave the mean not finite; values of +-1e300 leave it
    # finite but their squared deviations overflow; neither emits a
    # RuntimeWarning (an error in this suite)
    alternating = lambda x: values * (-1.0) ** np.arange(len(x))
    monkeypatch.setattr(conc, "_statistic", lambda name, beta: (alternating, lambda n, r: 1.0))
    with pytest.raises(DomainValidationError, match="not finite"):
        conc.deviation_experiment(mu15, n=3, statistic="max", t_grid=(1.0, 2.0, 3.0), count=100, seed=0, C=1.0, r=1.5)


@pytest.mark.parametrize("beta", [1e-320, 1e-300, 1e-20])
def test_softmax_of_a_tiny_beta_is_no_false_counterexample(mu15, beta):
    # log(sum exp) / beta held log(n) / beta = 4.2e20 at beta = 1e-20, where
    # floats are 65,536 apart: every tail read 1 and every margin was
    # negative.  log(mean exp) / beta tends to the row mean as beta -> 0
    rep = conc.deviation_experiment(
        mu15, n=64, statistic="softmax", beta=beta, t_grid=(1.0, 2.0, 3.0), count=100, seed=0, C=1.0, r=1.5
    )
    assert rep.empirical_tail == (0.0, 0.0, 0.0) and min(rep.margins) >= 0.0
    assert abs(rep.constants["mean"]) < 0.01


@pytest.mark.parametrize("t_grid", [(1.0, math.nan), (math.nan,), (1.0, math.inf)])
@pytest.mark.parametrize("experiment", ["deviation", "enlargement"])
def test_experiments_reject_a_grid_that_is_not_finite(mu15, experiment, t_grid):
    kw = dict(n=2, t_grid=t_grid, count=100, seed=0, C=1.0, r=1.5)
    if experiment == "deviation":
        kw["statistic"] = "max"
    with pytest.raises(DomainValidationError, match="finite"):
        getattr(conc, f"{experiment}_experiment")(mu15, **kw)


def test_enlargement_halfspace_mass(mu15):
    rep = conc.enlargement_experiment(
        mu15, n=8, t_grid=(0.0, 2.0, 4.0), count=40_000, seed=31, C=50.0, r=1.5
    )
    # at t = 0 the tail is P(F_A > 0) ~ P(sum > median) = 1/2
    assert rep.empirical_tail[0] <= 0.5 + rep.confidence[0] + 0.01
    assert all(m >= 0.0 for m in rep.margins[1:])


def test_gradient_check_budget_and_quadratic_identity():
    r = 1.5
    ratio_sq, ratio_rp, accepted = conc.lipschitz_gradient_check(r, 2.0, 50_000, 5, box=0.45, n=8)
    assert accepted > 1000
    # all coordinates inside |x| < 1: sum grad^2 = 4G exactly, so the ratio is
    # bounded by the largest sampled G/t, strictly below 1
    assert ratio_sq < 1.0
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    u = rng.uniform(-1.0, 1.0, size=(50_000, 8))
    scale = rng.uniform(0.0, 1.0, size=(50_000, 1))
    x = 0.45 * scale * u
    G = conc.g_cost(x, r)
    keep = (G < 2.0) & np.all(np.abs(np.abs(x) - 1.0) > 1e-12, axis=1)
    expected = float(np.max(G[keep])) / 2.0
    assert ratio_sq == pytest.approx(expected, rel=1e-12)


def test_gradient_check_vanishes_for_large_t():
    _, _, n1 = conc.lipschitz_gradient_check(1.5, 1e6, 10_000, 5, box=2.0, n=8)
    r1, r2, _ = conc.lipschitz_gradient_check(1.5, 1e6, 10_000, 5, box=2.0, n=8)
    assert max(r1, r2) <= 1e-4


@pytest.mark.parametrize("kw, message", [
    (dict(n=0), "n and count"), (dict(count=0), "n and count"), (dict(n=-1), "n and count"),
    (dict(t=math.inf), "finite"), (dict(t=math.nan), "finite"), (dict(box=math.inf), "finite"),
])
def test_gradient_check_validation(kw, message):
    # t = inf would accept every point, with ratios 0
    args = dict(r=1.5, t=2.0, count=100, seed=5, box=2.0, n=8) | kw
    with pytest.raises(DomainValidationError, match=message):
        conc.lipschitz_gradient_check(**args)


def _gradient_check_one_shot(r, t, count, seed, box, n):
    """The gradient check over all points at once: the oracle for its row blocks."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x = rng.uniform(-1.0, 1.0, size=(count, n))
    scale = rng.uniform(0.0, 1.0, size=(count, 1))
    x *= box * scale
    G = conc.g_cost(x, r)
    keep = (G < t) & np.all(np.abs(np.abs(x) - 1.0) > 1e-12, axis=1)
    a = np.abs(x[keep])
    grad = np.where(a < 1.0, 2.0 * a, r * np.power(a, r - 1.0))
    rp = r / (r - 1.0)
    ratio_sq = float(np.max(np.sum(grad * grad, axis=1) / (4.0 * t)))
    ratio_rp = float(np.max(np.sum(np.power(grad, rp), axis=1) / (2.0**rp * t)))
    return ratio_sq, ratio_rp, int(len(a))


@pytest.mark.parametrize("count", [1, conc._ROW_BLOCK, conc._ROW_BLOCK + 1, 200_000])
@pytest.mark.parametrize("r, t", [(1.2, 2.0), (1.8, 2.0), (1.5, 1e6)])
def test_gradient_check_blocks_equal_the_one_shot_check(r, t, count):
    # n = 3 with an odd count starts the scales' cursor partway through a Philox step
    for n in (8, 3):
        assert conc.lipschitz_gradient_check(r, t, count, 7, box=2.0, n=n) == _gradient_check_one_shot(r, t, count, 7, 2.0, n)


def _former_gradient_check(r, t, count, seed, box, n):
    """The gradient check's row-block loop as it was, on one slice: the cost
    by ``g_cost``, |x| taken again for the kink filter and the kept points,
    and r |x|^(r-1) at every kept coordinate."""
    rp = r / (r - 1.0)
    scale = 2.0**rp * t
    coords, scales = msr._stream(np.uint64(seed), 0), msr._stream(np.uint64(seed), count * n)
    ratio_sq = ratio_rp = -math.inf
    accepted = 0
    for a in range(0, count, conc._ROW_BLOCK):
        rows = min(conc._ROW_BLOCK, count - a)
        block = coords.uniform(-1.0, 1.0, size=(rows, n))
        block *= box * scales.uniform(0.0, 1.0, size=(rows, 1))
        keep = (conc.g_cost(block, r) < t) & np.all(np.abs(np.abs(block) - 1.0) > 1e-12, axis=1)
        kept = np.abs(block[keep])
        if len(kept) == 0:
            continue
        grad = np.where(kept < 1.0, 2.0 * kept, r * np.power(kept, r - 1.0))
        ratio_sq = max(ratio_sq, float(np.max(np.sum(grad * grad, axis=1) / (4.0 * t))))
        ratio_rp = max(ratio_rp, float(np.max(np.sum(np.power(grad, rp), axis=1) / scale)))
        accepted += len(kept)
    return ratio_sq, ratio_rp, accepted


@pytest.mark.parametrize("r, t", [(1.2, 2.5), (1.5, 4.3), (1.8, 9.7)])
def test_gradient_check_reading_abs_once_equals_the_former_block(r, t, monkeypatch):
    # the bench's (r, t, box = 1 + t^(1/r)) at 200,000 points of n = 8, and n = 1
    monkeypatch.setattr(msr, "_usable_cpus", lambda: 1)
    box = round(1.0 + t ** (1.0 / r), 4)
    for count, n in ((200_000, 8), (20_001, 1)):
        assert conc.lipschitz_gradient_check(r, t, count, 11, box, n) == _former_gradient_check(r, t, count, 11, box, n)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_gradient_check_is_the_same_on_any_cpu_count(seed, monkeypatch):
    # counts that are multiples neither of the row block nor of the slice
    # count; past 2^19 draws per call the points are cut into per-CPU slices
    # whose cursors start partway through a block and a Philox step
    cuts, on_slices = [], msr._on_slices

    def recording(count, n, fill):
        cuts.append([])
        return on_slices(count, n, lambda a, b: cuts[-1].append((a, b)) or fill(a, b))

    monkeypatch.setattr(msr, "_on_slices", recording)
    for count, n, slices in ((10_007, 8, (1, 1, 1)), (65_537, 8, (1, 2, 2)), (120_001, 7, (1, 2, 3))):
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(msr, "_usable_cpus", lambda: cpus)
            results.append(conc.lipschitz_gradient_check(1.5, 2.0, count, seed, box=2.0, n=n))
            bounds = sorted(cuts[-1])
            assert len(bounds) == slices[cpus - 1]
            assert bounds[0][0] == 0 and bounds[-1][1] == count
            assert all(b == a for (_, b), (a, _) in zip(bounds, bounds[1:]))
        assert results[0] == results[1] == results[2] == _gradient_check_one_shot(1.5, 2.0, count, seed, 2.0, n)


def test_gradient_check_holds_one_row_block_at_a_time(monkeypatch):
    # all the draws would be 200,000 x 8 doubles (12.8 MB); a block of 4096
    # rows and its cost, mask and gradients take about 1 MB on each slice
    # thread, so the CPU count is fixed for a bound that fits any machine,
    # and a first call outside the measurement imports the thread pool
    count, n = 200_000, 8
    monkeypatch.setattr(msr, "_usable_cpus", lambda: 2)
    conc.lipschitz_gradient_check(1.5, 2.0, 2**16, 7, box=2.0, n=n)
    tracemalloc.start()
    try:
        conc.lipschitz_gradient_check(1.5, 2.0, count, 7, box=2.0, n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < count * n * 8 / 4


def test_transport_check_adjacent_pairs_bounded_below(exp_measure):
    # numerator >= 1 always, so the infimum is at least 1/max|x-y|^alpha
    res = conc.transport_check(exp_measure, 1.5)
    assert res["grid_size"] == 400
    assert res["b_alpha_inf"] >= 1.0 / 80.0**1.5


def test_transport_check_batches_points_inside_the_ladder(exp_measure, monkeypatch):
    # the grid's 200 magnitudes lie inside exp's ladder (to 128): their partial
    # cells share one refinement call, where scalar queries made one call
    # per magnitude
    assert exp_measure.ladders[+1].edges[-1] > 40.0
    calls = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: calls.append(a) or refine(*a, **k))
    conc.transport_check(exp_measure, 1.5)
    assert len(calls) == 1


def test_transport_check_shares_one_extension_beyond_the_ladder(monkeypatch):
    # nu15's ladder ends at 32, short of the default grid's 40: the points
    # past it read one copy of the ladder grown past 40, with one extension
    # from its end, and the measure's ladder stays as it was
    m = scenarios.corpus_measure("nu15")
    assert m.ladders[+1].edges[-1] == 32.0
    calls = []
    extension = quad.log_extension
    monkeypatch.setattr(quad, "log_extension", lambda *a, **k: calls.append(a) or extension(*a, **k))
    conc.transport_check(m, 1.5)
    assert len(calls) == 1 and m.ladders[+1].edges[-1] == 32.0


def test_transport_check_validations(exp_measure):
    with pytest.raises(DomainValidationError):
        conc.transport_check(exp_measure, 1.0)  # boundary excluded
    m = msr.normalize(msr.Potential.from_expression("abs(x) + 0.3*x"))
    with pytest.raises(DomainValidationError):
        conc.transport_check(m, 1.5)


def test_softmax_statistic_lies_within_log_n_over_beta_below_max(mu15):
    f, lr2 = conc._statistic("softmax", beta=2.0)
    g, _ = conc._statistic("max")
    x = np.random.Generator(np.random.PCG64(8)).normal(size=(100, 5))
    assert np.all(f(x) >= g(x) - math.log(5.0) / 2.0 - 1e-12)
    assert np.all(f(x) <= g(x) + 1e-12)
    assert lr2(5, 1.5) == 1.0
    rep = conc.deviation_experiment(
        mu15, n=5, statistic="softmax", beta=2.0, t_grid=(1.0, 2.0), count=20_000, seed=4, C=5.0, r=1.5
    )
    assert rep.statistic == "softmax(2)"
    assert all(0.0 <= p <= 1.0 for p in rep.empirical_tail)


def test_softmax_at_the_largest_beta_equals_max_without_warnings():
    # beta * (x - max) overflows to -inf, whose exp is 0: the value is the
    # max statistic's, and no RuntimeWarning (an error in this suite) is emitted
    f, _ = conc._statistic("softmax", beta=1.7e308)
    g, _ = conc._statistic("max")
    x = np.random.Generator(np.random.PCG64(10)).normal(size=(200, 7))
    assert np.array_equal(f(x), g(x))


def test_softmax_matches_one_shot_formula():
    beta = 2.7
    f, _ = conc._statistic("softmax", beta=beta)
    rows = 5000
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(rows, 64)) * 3.0
    kept = x.copy()
    m = np.max(x, axis=1, keepdims=True)
    w = beta * (x - m)
    want = (m + np.log1p(np.mean(np.expm1(w, out=w), axis=1, keepdims=True)) / beta)[:, 0]
    got = f(x)
    assert np.array_equal(got, want)
    assert np.array_equal(x, kept)  # the caller's array is not overwritten


def test_softmax_is_the_log_sum_exp_less_log_n_over_beta():
    # at beta = 2.5 the statistic is log(sum exp(beta x)) / beta - log(n) / beta
    beta, n = 2.5, 64
    f, _ = conc._statistic("softmax", beta=beta)
    x = np.random.Generator(np.random.PCG64(11)).normal(size=(2000, n)) * 3.0
    m = np.max(x, axis=1)
    lse = m + np.log(np.sum(np.exp(beta * (x - m[:, None])), axis=1)) / beta
    assert np.max(np.abs(f(x) - (lse - math.log(n) / beta))) <= 1e-12


@pytest.mark.parametrize("statistic", ["mean_scaled", "softmax", "max"])
def test_deviation_holds_one_batch_at_a_time(mu15, statistic, monkeypatch):
    # 100,000 rows of n = 64 are 51.2 MB of draws; each slice thread holds
    # one block of draws and its temporaries, about 1.1 MB, next to the
    # 0.8 MB of row values, so the CPU count is fixed for a bound that fits
    # any machine
    monkeypatch.setattr(msr, "_usable_cpus", lambda: 3)
    msr.sample(mu15, 0, 1)  # the sampler table is built outside the measurement
    tracemalloc.start()
    try:
        beta = 2.0 if statistic == "softmax" else None
        conc.deviation_experiment(mu15, 64, statistic, (1.0,), 100_000, seed=3, C=328.36, r=1.5, beta=beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.4e6


@pytest.mark.parametrize("cpus", [1, 3])
def test_experiments_read_one_stream(mu15, cpus, monkeypatch):
    # past 50,000 rows too, row i of an experiment is draws i * n to
    # (i + 1) * n - 1 of the seed's one stream, on any number of CPUs
    # (60,001 rows of n = 16 make three slices on three)
    monkeypatch.setattr(msr, "_usable_cpus", lambda: cpus)
    n, count, seed = 16, 60_001, 5
    rows = msr.sample(mu15, seed, count * n).reshape(count, n)
    got, sample = [], msr.sample
    monkeypatch.setattr(msr, "sample", lambda *a, **k: got.append(sample(*a, **k)) or got[-1])
    conc.deviation_experiment(mu15, n, "max", (0.5, 1.0), count, seed, C=328.36, r=1.5)
    conc.enlargement_experiment(mu15, n, (2.0, 4.0), count, seed, C=328.36, r=1.5)
    assert len(got) == 2
    assert np.array_equal(got[0], np.max(rows, axis=1))
    assert np.array_equal(got[1], np.sum(rows, axis=1))
