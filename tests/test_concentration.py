import math
import tracemalloc

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


def test_f_a_cost_membership_zero():
    A = conc.Halfspace(c=1.0)
    assert conc.f_a_cost([0.2, 0.3], A, 1.5) == 0.0
    P = conc.PointSet(((0.1, 0.2),))
    assert conc.f_a_cost([0.1, 0.2], P, 1.5) == 0.0


def test_f_a_cost_point_set_examples():
    P = conc.PointSet(((0.0,),))
    assert conc.f_a_cost([0.5], P, 1.5) == pytest.approx(0.25, rel=1e-14)
    P2 = conc.PointSet(((0.0, 0.0),))
    assert conc.f_a_cost([3.0, 0.5], P2, 1.5) == pytest.approx(3.0**1.5 + 0.25, rel=1e-14)


def test_f_a_cost_empty_set():
    with pytest.raises(DomainValidationError):
        conc.f_a_cost([1.0], conc.PointSet(()), 1.5)


def test_pointset_containing_halfspace_dominates():
    # any finite subset of the halfspace gives a larger infimum
    rng = np.random.Generator(np.random.PCG64(17))
    A = conc.Halfspace(c=0.0)
    pts = rng.normal(size=(200, 3))
    pts -= (np.maximum(pts.sum(axis=1), 0.0) / 3.0)[:, None]  # project into the halfspace
    P = conc.PointSet(tuple(map(tuple, pts)))
    xs = rng.normal(size=(100, 3)) * 2.0
    for x in xs:
        assert conc.f_a_cost(x, P, 1.5) >= conc.f_a_cost(x, A, 1.5) - 1e-12


def test_halfspace_cost_conservative_vs_discretized_bruteforce():
    # n <= 3: compare with brute force over a dense sample of A; the candidate
    # minimization must match the discretized infimum up to its resolution
    rng = np.random.Generator(np.random.PCG64(23))
    r = 1.5
    for n in (1, 2, 3):
        A = conc.Halfspace(c=0.5)
        # 1e4 points of the boundary + interior
        base = rng.uniform(-4, 4, size=(10_000, n))
        over = base.sum(axis=1) > A.c
        base[over] -= ((base.sum(axis=1)[over] - A.c) / n)[:, None]  # project onto sum = c
        P = conc.PointSet(tuple(map(tuple, base)))
        xs = rng.uniform(-3, 3, size=(100, n))
        up = conc.f_a_cost(xs, A, r)
        brute = conc.f_a_cost(xs, P, r)
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
        got = conc._halfspace_cost(x, 0.0, r)
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
        cost = conc.f_a_cost(x, conc.Halfspace(c=0.0), r)
        slack = 2.0 * (n - 1) * max(2.0, r * s ** (r - 1.0)) * s / (grid - 1)
        assert cost <= brute * (1.0 + 1e-12)
        assert brute - cost <= slack


def test_halfspace_cost_matches_exact_small_s():
    # for 0 < s <= n the even split stays in the quadratic branch: cost = s^2/n
    x = np.array([[0.5, 0.5, 0.5, 0.5]])
    A = conc.Halfspace(c=1.0)
    s = 1.0
    assert conc.f_a_cost(x, A, 1.5) == pytest.approx(s * s / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mu15():
    return msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("power", 1.5)), label="mu15")


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
    samples = np.vstack(list(conc._batched_samples(mu15, n, count, seed)))
    f = samples.sum(axis=1) / 2.0
    mean = f.mean()
    for t in (0.5, 1.0, 2.0):
        two = np.mean(np.abs(f - mean) >= t)
        split = np.mean(f - mean >= t) + np.mean(mean - f >= t)
        assert two == pytest.approx(split, abs=1e-12)


def test_softmax_statistic_requires_beta(mu15):
    with pytest.raises(DomainValidationError):
        conc.deviation_experiment(
            mu15, n=2, statistic="softmax", t_grid=(1.0,), count=100, seed=0, C=1.0, r=1.5
        )


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


def test_transport_check_adjacent_pairs_bounded_below(exp_measure):
    # numerator >= 1 always, so the infimum is at least 1/max|x-y|^alpha
    res = conc.transport_check(exp_measure, 1.5, x_grid=np.linspace(-10, 10, 81))
    assert res["b_alpha_inf"] >= 1.0 / 20.0**1.5


def test_transport_check_batches_points_inside_the_ladder(exp_measure, monkeypatch):
    # every |x| lies inside the measure's ladder: their partial cells share
    # one refinement call, where scalar queries made one call per magnitude
    calls = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: calls.append(a) or refine(*a, **k))
    conc.transport_check(exp_measure, 1.5, x_grid=np.linspace(-20.0, 20.0, 101))
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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + 0.3*x")))
    with pytest.raises(DomainValidationError):
        conc.transport_check(m, 1.5)


def test_experiment_report_serialization(tmp_path, mu15):
    rep = conc.deviation_experiment(
        mu15, n=2, statistic="mean_scaled", t_grid=(1.0, 2.0), count=5_000, seed=2, C=3.0, r=1.5
    )
    doc = rep.to_json()
    assert '"empirical_tail"' in doc and '"seed": 2' in doc
    paths = rep.to_csv(str(tmp_path / "curve"))
    import csv

    for p in paths:
        with open(p) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "tail"]
        assert len(rows) == 3
        float(rows[1][0]), float(rows[1][1])  # numeric columns


def test_softmax_statistic_dominates_max(mu15):
    f, l2, lr2 = conc._statistic("softmax", beta=2.0)
    g, _, _ = conc._statistic("max")
    x = np.random.Generator(np.random.PCG64(8)).normal(size=(100, 5))
    assert np.all(f(x) >= g(x) - 1e-12)
    assert np.all(f(x) <= g(x) + math.log(5.0) / 2.0 + 1e-12)
    assert l2(5, 1.5) == 1.0 and lr2(5, 1.5) == 1.0
    rep = conc.deviation_experiment(
        mu15, n=5, statistic="softmax", beta=2.0, t_grid=(1.0, 2.0), count=20_000, seed=4, C=5.0, r=1.5
    )
    assert rep.statistic == "softmax(2)"
    assert all(0.0 <= p <= 1.0 for p in rep.empirical_tail)


def test_block_softmax_matches_one_shot_formula():
    beta = 2.7
    f, _, _ = conc._statistic("softmax", beta=beta)
    rows = 2 * conc._SOFTMAX_ROWS + 123  # not a multiple of the block
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(rows, 64)) * 3.0
    kept = x.copy()
    m = np.max(x, axis=1, keepdims=True)
    w = beta * (x - m)
    want = (m + np.log(np.sum(np.exp(w, out=w), axis=1, keepdims=True)) / beta)[:, 0]
    got = f(x)
    assert np.array_equal(got, want)
    assert np.array_equal(x, kept)  # the caller's array is not overwritten


@pytest.mark.parametrize("statistic", ["mean_scaled", "softmax"])
def test_deviation_holds_one_batch_at_a_time(mu15, statistic):
    # two batches of n = 64: each is _BATCH * 64 doubles (25.6 MB); the
    # previous batch and the statistic's temporaries must not add another one
    n, batch_bytes = 64, conc._BATCH * 64 * 8
    msr.sample(mu15, 0, 1)  # the sampler table is built outside the measurement
    tracemalloc.start()
    try:
        beta = 2.0 if statistic == "softmax" else None
        conc.deviation_experiment(mu15, n, statistic, (1.0,), 2 * conc._BATCH, seed=3, C=328.36, r=1.5, beta=beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * batch_bytes
