import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from hardylab import criteria, expr, quad, scenarios
from hardylab import measure as msr
from hardylab.errors import DomainValidationError

SHORT = (25.0, 50.0, 100.0, 200.0)

# ---------------------------------------------------------------------------
# bp
# ---------------------------------------------------------------------------


def test_bp_exponential_sup_is_one(exp_measure):
    # closed form: tail * int 1/n = (e^-x/2) * 2(e^x - 1) = 1 - e^-x -> 1
    res = criteria.bp(exp_measure)
    assert res.partial_sups[-1] == pytest.approx(1.0, abs=1e-9)
    assert res.verdict.label == "bounded"
    assert res.bracket == pytest.approx((1.0, 4.0), abs=1e-8)


def test_bp_gaussian_bounded_plateau_by_ten(gauss_measure):
    res = criteria.bp(gauss_measure, horizons=(10.0, 25.0, 50.0, 100.0))
    assert res.verdict.label == "bounded"
    # plateau reached at the first horizon already
    assert res.partial_sups[0] == pytest.approx(res.partial_sups[-1], rel=1e-9)


def test_bp_gaussian_sup_matches_direct_oracle(gauss_measure):
    # independent oracle: maximize  erfc-tail(x) * sqrt(2pi) * int_0^x e^(t^2/2) dt
    # by direct fine-grid quadrature of the inner integrand
    from hardylab import quad

    best = 0.0
    for x in np.linspace(0.3, 4.0, 75):
        inner = quad.integrate(lambda t: np.exp(t * t / 2.0), 0.0, float(x)).value
        val = 0.5 * math.erfc(x / math.sqrt(2.0)) * math.sqrt(2.0 * math.pi) * inner
        best = max(best, val)
    res = criteria.bp(gauss_measure)
    assert res.partial_sups[-1] == pytest.approx(best, rel=1e-4)


def test_bp_lambda2_oscillation_divergent():
    m = msr.normalize(msr.Potential.builtin("sinpower", 2, 2))
    res = criteria.bp(m, horizons=(15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 70.0))
    assert res.verdict.label == "divergent"
    i25 = res.horizons.index(25.0)
    ratio_log = res.log_partial_sups[-1] - res.log_partial_sups[i25]
    assert ratio_log >= math.log(10.0)


# ---------------------------------------------------------------------------
# bls
# ---------------------------------------------------------------------------


def test_bls_exponential_divergent_linear_growth(exp_measure):
    # closed form (1 - e^-x)(x + log 2): S(X) ~ X, log-log slope ~ 1
    res = criteria.bls(exp_measure)
    assert res.verdict.label == "divergent"
    slope = res.verdict.growth_exponent[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    x = res.horizons[-1]
    assert res.partial_sups[-1] == pytest.approx((1 - math.exp(-x)) * (x + math.log(2.0)), rel=1e-6)


def test_bls_gaussian_bounded(gauss_measure):
    res = criteria.bls(gauss_measure, horizons=SHORT)
    assert res.verdict.label == "bounded"


def test_bls_mu15_divergent(mu15_measure):
    # workable-condition oracle: V/V'^2 ~ x^(2-r)/r^2 -> infinity
    res = criteria.bls(mu15_measure)
    assert res.verdict.label == "divergent"
    assert res.verdict.growth_exponent[0] == pytest.approx(0.5, abs=0.1)


# ---------------------------------------------------------------------------
# blo / bmls (threshold cases live in the acceptance suite)
# ---------------------------------------------------------------------------


def test_blo_requires_r_in_range(exp_measure):
    for r in (2.5, None):
        with pytest.raises(DomainValidationError):
            criteria.blo(exp_measure, r)
    with pytest.raises(DomainValidationError):
        criteria.hyp_mls_check(exp_measure, None, 0.1)


def test_blo_floor_divergent(floor_measure):
    res = criteria.blo(floor_measure, 1.5)
    assert res.verdict.label == "divergent"
    # oscillation-free oracle: the extra log factor grows like x, so the
    # log-log slope is 2/r' = 2(r-1)/r
    assert res.verdict.growth_exponent[0] == pytest.approx(2.0 / 3.0, abs=0.07)


def test_bmls_exponential_small_power_closed_form(exp_measure):
    # distribution-side oracle: with n = e^-|x|/2, the criterion integrand is
    #   (e^-x / 2) (x + log 2) (2 ((e^((r-1)x) - 1)/(r-1))^(1/(r-1)))
    # which for r = 1.01 grows ~ x * (1 - e^(-0.01 x))^100: tiny at small x,
    # then essentially linear; on the default horizons the scan must match it
    # and the verdict is divergent (the grid sees the late linear growth).
    r = 1.01
    res = criteria.bmls(exp_measure, r)

    def log_oracle(x):
        log_inner = (math.log(math.expm1((r - 1.0) * x)) - math.log(r - 1.0)) / (r - 1.0)
        return math.log(0.5) - x + math.log(x + math.log(2.0)) + math.log(2.0) + log_inner

    # the integrand is increasing, so the partial sup sits exactly at the horizon
    for h, ls in zip(res.horizons, res.log_partial_sups):
        assert ls == pytest.approx(log_oracle(h), abs=1e-6)
    # the sups grow by many orders of magnitude (no plateau), but the growth is
    # still decelerating toward its asymptotic linear regime at X = 800, so the
    # conservative classifier refuses to certify a power law: anything but
    # "bounded" is the honest verdict here
    assert res.verdict.label != "bounded"
    assert res.verdict.plateau_ratio > 10.0


def test_bmls_bracket_uses_bp(cattiaux_measure, monkeypatch):
    # a bounded bmls runs its own bp scan for the Poincare end of its constant
    res = criteria.bmls(cattiaux_measure, 1.5)
    bp_res = criteria.bp(cattiaux_measure)
    assert res.verdict.label == "bounded"
    rp = 3.0
    assert res.bracket == (0.0, 235.0 * bp_res.bracket[1] + 2.0 ** (rp + 1.0) * res.partial_sups[-1])
    assert res.bracket == (0.0, 75.00742324028751)
    # a bp scan without a bracket leaves the bmls verdict without one
    unbounded = dataclasses.replace(bp_res, bracket=None)
    monkeypatch.setattr(criteria, "bp", lambda *a, **k: unbounded)
    assert criteria.bmls(cattiaux_measure, 1.5).bracket is None


# ---------------------------------------------------------------------------
# bweighted
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [1.5, 1.8, 1.9, 1.95])
def test_bweighted_gaussian_bounded(gauss_measure, r):
    # the weight exp(V) / (1 + |x|^(2 - r)) has a cusp at 0 whose panels
    # stop at the negligibility floor; refined to MAX_DEPTH instead, they
    # raise on [0, 1.4e-15] from r = 1.8 on
    res = criteria.bweighted(gauss_measure, r, horizons=SHORT)
    assert res.verdict.label == "bounded"


def test_bweighted_same_power_bounded(mu15_measure):
    res = criteria.bweighted(mu15_measure, 1.5, horizons=SHORT)
    assert res.verdict.label == "bounded"


def test_bweighted_requires_even():
    m = msr.normalize(msr.Potential.from_expression("abs(x) + 0.3*x"))
    with pytest.raises(DomainValidationError):
        criteria.bweighted(m, 1.5)


# ---------------------------------------------------------------------------
# hyp check
# ---------------------------------------------------------------------------


def test_hyp_exponential(exp_measure):
    res = criteria.hyp_mls_check(exp_measure, 1.5, 0.4)
    assert res.holds
    # closed form: ratio = e^(x/2) / (2 (e^(x/2) - 1)) decreasing to 1/2
    assert res.worst_ratio == pytest.approx(0.5, abs=1e-6)


def test_hyp_floor_dips_at_jumps(floor_measure):
    res = criteria.hyp_mls_check(floor_measure, 1.5, 0.1)
    assert res.holds
    # piecewise-exponential closed form: dips approach 1 - e^(-1/2)
    assert res.worst_ratio == pytest.approx(1.0 - math.exp(-0.5), abs=1e-3)


def test_hyp_leaves_rounded_ratios_out():
    # (r-1)V = 0.5 x^7 reaches 2^32 at x = 26.3, where 2 ulps of the two logs
    # exceed 1e-6: from there on exp(g - prefix) is their rounding (1.0 at
    # x = 344.79, where the ulp is 64), not the ratio, which grows like x^6;
    # the minimum is read off the 66 resolved points
    m = msr.normalize(msr.Potential.builtin("power", 7.0))
    res = criteria.hyp_mls_check(m, 1.5, 1.3)
    assert res.holds and res.worst_ratio == pytest.approx(1.3799, abs=1e-4)
    assert res.arg == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert res.unresolved_from == pytest.approx(67.0 * math.pi / 8.0, rel=1e-15)
    assert 0.5 * res.unresolved_from**7 >= 2.0**32 > 0.5 * (res.unresolved_from - math.pi / 8.0) ** 7
    # the corpus resolves every point
    for name in ("exponential", "floor", "cattiaux"):
        assert math.isnan(criteria.hyp_mls_check(scenarios.corpus_measure(name), 1.5, 0.1).unresolved_from)


def test_hyp_gaussian_ratio_grows(gauss_measure):
    # Mills-type oracle on e^((r-1) x^2 / 2): the integral is dominated by its
    # endpoint, int_0^x ~ e^((r-1)x^2/2) / ((r-1) x), so the hyp ratio grows
    # like (r-1) x and the condition holds with ample room
    res = criteria.hyp_mls_check(gauss_measure, 1.5, 0.3, horizons=SHORT)
    assert res.holds
    assert res.worst_ratio >= 0.3


# ---------------------------------------------------------------------------
# asymptotic conditions
# ---------------------------------------------------------------------------


def test_asymptotics_power_constant_ratio(mu15_measure):
    scans = criteria.asymptotic_conditions(mu15_measure, 1.5)
    # V/V'^(r') = x^r / (r x^(r-1))^(r') = r^(-r')
    assert scans.br_tail_max == pytest.approx(1.5**-3.0, rel=1e-6)
    assert scans.vpp_tail_max <= 1e-3  # V''/V'^2 ~ x^-r -> 0


def test_asymptotics_counterexample_profiles(cattiaux_measure):
    scans = criteria.asymptotic_conditions(cattiaux_measure, 1.5)
    assert scans.br_tail_max <= 0.05
    ks = np.arange(10, 41)
    xk = ks * math.pi - math.pi / 4.0
    idx = [int(np.argmin(np.abs(scans.x - v))) for v in xk]
    wr = scans.weighted_ratio[idx]
    assert np.all(np.diff(wr) > 0)  # increasing along the slow-derivative points


@pytest.mark.parametrize("name, ratio", [
    ("gauss_measure", lambda x: 1.0 / (x * x)),  # V''/V'^2 = 1/x^2
    ("mu15_measure", lambda x: x**-1.5 / 3.0),  # (3/4) x^-0.5 / ((9/4) x)
], ids=["gaussian", "mu15"])
def test_asymptotics_curvature_ratio_closed_forms(request, name, ratio):
    scans = criteria.asymptotic_conditions(request.getfixturevalue(name), 1.5)
    np.testing.assert_allclose(scans.vpp_ratio, ratio(scans.x), rtol=1e-12, atol=0.0)


def test_asymptotics_requires_derivative(floor_measure):
    with pytest.raises(DomainValidationError):
        criteria.asymptotic_conditions(floor_measure, 1.5)


# ---------------------------------------------------------------------------
# tail asymptotics
# ---------------------------------------------------------------------------


def test_tail_scale_exponential_exact(exp_measure):
    t = criteria.tail_asymptotics(exp_measure, np.array([1.0, 3.0, 7.0, 15.0]))
    assert np.allclose(t.theta, 1.0, atol=1e-9)
    assert np.allclose(t.ratio_theta, 1.0, rtol=1e-9)
    assert np.allclose(t.ratio_deriv, 1.0, rtol=1e-9)
    assert not np.any(t.capped)


def test_tail_scale_gaussian_band(gauss_measure):
    xs = np.linspace(3.0, 7.0, 9)
    t = criteria.tail_asymptotics(gauss_measure, xs)
    # theta ~ 1/x for large x (solve (x+h)^2/2 = x^2/2 + 1)
    approx = np.sqrt(xs**2 + 2.0) - xs
    assert np.allclose(t.theta, approx, rtol=1e-6)
    assert np.all((t.ratio_theta >= 0.3) & (t.ratio_theta <= 3.0))


def test_tail_scale_oscillating_plateaus(nu2_measure):
    ks = np.array([3, 5, 8, 12])
    xk = (2 * ks + 1) * math.pi
    t = criteria.tail_asymptotics(nu2_measure, xk)
    # at the flat points theta ~ (3/x)^(1/3); check the k^(-1/3) scale
    scale = t.theta * (xk / 3.0) ** (1.0 / 3.0)
    assert np.all((scale >= 0.7) & (scale <= 1.4))
    assert np.all((t.ratio_theta >= 0.2) & (t.ratio_theta <= 5.0))


def test_tail_scale_ratio_overflows_to_inf():
    # on nu22 the tail exceeds exp(-V(x)) by up to e^2115 on the CLI's grid
    m = scenarios.corpus_measure("nu22")
    x = np.arange(1.0, 800.0, 2.0)
    t = criteria.tail_asymptotics(m, x)
    log_ratio = msr.log_tail(m, x) + m.log_z + m.potential.value(x)
    over = log_ratio > math.log(sys.float_info.max)
    assert over.sum() == 77 and log_ratio.max() > 2000.0
    assert np.all(t.ratio_theta[over] == np.inf)
    assert np.all(np.isnan(t.ratio_deriv[over]) | (t.ratio_deriv[over] == np.inf))  # nan where V' <= 0
    np.testing.assert_allclose(t.ratio_theta[~over], np.exp(log_ratio[~over]) / t.theta[~over], rtol=1e-14)


def _theta_scale_reference(pot, x):
    """The former theta scan and bisection, one point at a time, with scalar V calls."""
    v0 = float(pot.value(np.array([x]))[0]) + 1.0
    hs = np.linspace(0.0, criteria._THETA_CAP, 2001)[1:]
    vals = pot.value(x + hs)
    idx = np.argmax(vals >= v0)
    if vals[idx] < v0:
        return criteria._THETA_CAP, True
    lo, hi = (hs[idx - 1] if idx > 0 else 0.0), hs[idx]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if float(pot.value(np.array([x + mid]))[0]) >= v0:
            hi = mid
        else:
            lo = mid
    return hi, False


@pytest.mark.parametrize("token", ["sinpower:2,2", "cattiaux:1.5,1.9", "floor", "expr:0.01*abs(x)"])
def test_tail_scale_blocks_equal_one_point_at_a_time(token):
    # theta is found for blocks of up to 256 points at once; each point's
    # theta and cap flag are the former per-point loop's, bit for bit
    # (0.01|x| climbs by 1 only over 100, so it is capped)
    pot = msr.Potential.from_string(token)
    x = np.concatenate([np.arange(1.0, 800.0, 2.0), [-3.7, 1e5]])
    theta, capped = criteria._theta_scale(pot, x)
    want = [_theta_scale_reference(pot, xi) for xi in x.tolist()]
    assert theta.tobytes() == np.array([t for t, _ in want]).tobytes()
    assert np.array_equal(capped, [c for _, c in want])
    assert capped.all() == (token == "expr:0.01*abs(x)")


def test_tail_scale_requires_even():
    m = msr.normalize(msr.Potential.from_expression("abs(x) + 0.3*x"))
    with pytest.raises(DomainValidationError):
        criteria.tail_asymptotics(m, np.array([1.0]))


@pytest.mark.parametrize("grid", [[], [1.0, math.nan], [1.0, math.inf]])
def test_tail_scale_requires_a_finite_nonempty_grid(exp_measure, grid):
    with pytest.raises(DomainValidationError, match="x_grid"):
        criteria.tail_asymptotics(exp_measure, np.array(grid))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_side_symmetry_without_mirroring(nu2_measure):
    plus = criteria._scan_side(nu2_measure, "bp", None, SHORT, +1)
    minus = criteria._scan_side(nu2_measure, "bp", None, SHORT, -1)
    for a, b in zip(plus.partial_sups, minus.partial_sups):
        assert a == pytest.approx(b, rel=1e-6)


def test_minus_side_against_direct_oracle():
    # asymmetric V = |x| + 0.3 x: left tail decays like e^(0.7x); compare the
    # minus-side sup with a direct closed-form maximization
    m = msr.normalize(msr.Potential.from_expression("abs(x) + 0.3*x"))
    res = criteria.bp(m, horizons=(25.0, 50.0))
    z = 1.0 / 1.3 + 1.0 / 0.7
    mm = m.median

    def integrand_minus(x):
        tail = math.exp(0.7 * x) / 0.7 / z  # mu((-inf, x]) for x < 0
        inner = z * (math.exp(-0.7 * x) - math.exp(-0.7 * mm)) / 0.7
        return tail * inner

    xs = np.linspace(-25.0, mm - 1e-6, 40001)
    oracle = max(integrand_minus(float(x)) for x in xs)
    assert res.sides["minus"].partial_sups[-1] == pytest.approx(oracle, rel=1e-5)


def test_ordering_bp_vs_blo(exp_measure):
    r = 1.5
    rp = 3.0
    bp_res = criteria.bp(exp_measure, horizons=SHORT)
    lo_res = criteria.blo(exp_measure, r, horizons=SHORT)
    c = math.log(2.0) ** (2.0 / rp)
    for sb, sl in zip(bp_res.partial_sups, lo_res.partial_sups):
        assert sb <= sl / c + 1e-9


def test_blo_monotone_in_r(exp_measure, gauss_measure):
    for m in (exp_measure, gauss_measure):
        s12 = criteria.blo(m, 1.2, horizons=SHORT).partial_sups[-1]
        s18 = criteria.blo(m, 1.8, horizons=SHORT).partial_sups[-1]
        assert s12 <= s18 * (1 + 1e-9)


def test_verdict_stable_under_denser_grid(exp_measure, floor_measure, monkeypatch):
    base_bp = criteria.bp(exp_measure, horizons=SHORT).verdict.label
    base_lo = criteria.blo(floor_measure, 1.5, horizons=SHORT).verdict.label
    base_points = len(criteria._side_scan(floor_measure, +1, SHORT).grid)
    # a measure keeps its scans, so the denser grid scans fresh measures
    exp_fresh, floor_fresh = msr.normalize(exp_measure.potential), msr.normalize(floor_measure.potential)
    monkeypatch.setattr(quad, "GRID_STEP", math.pi / 16.0)
    assert criteria.bp(exp_fresh, horizons=SHORT).verdict.label == base_bp
    assert criteria.blo(floor_fresh, 1.5, horizons=SHORT).verdict.label == base_lo
    assert len(criteria._side_scan(floor_fresh, +1, SHORT).grid) > 1.5 * base_points


@pytest.mark.parametrize("token", ["sinpower:2,1", "expr:abs(x)^1.5+0.5*x"])
def test_cached_scans_equal_fresh_scans(token, monkeypatch):
    # scans on one measure reuse its tail ladder and its exp(V) prefix; the
    # results are those of scans on a freshly normalized measure
    def fresh():
        return msr.normalize(msr.Potential.from_string(token))

    def same(a, b):
        return (np.array_equal(a.log_partial_sups, b.log_partial_sups) and np.array_equal(a.argmax, b.argmax)
                and a.bracket == b.bracket)

    builds = []
    init = quad.LogLadder.__init__
    monkeypatch.setattr(quad.LogLadder, "__init__",
                        lambda ladder, g, *a, **k: builds.append(g) or init(ladder, g, *a, **k))
    shared = fresh()
    sides = 1 if shared.is_even else 2
    for r in (1.2, 1.5, 1.8):
        assert same(criteria.blo(shared, r, horizons=SHORT), criteria.blo(fresh(), r, horizons=SHORT))
    assert same(criteria.bp(shared, horizons=SHORT), criteria.bp(fresh(), horizons=SHORT))
    assert same(criteria.bmls(shared, 1.4, horizons=SHORT), criteria.bmls(fresh(), 1.4, horizons=SHORT))
    builds.clear()
    criteria.blo(shared, 1.3, horizons=SHORT)
    criteria.bmls(shared, 1.4, horizons=SHORT)
    assert builds == []  # every ladder and prefix came from the cache
    criteria.bmls(shared, 1.6, horizons=SHORT)
    assert len(builds) == sides  # one n^-(r-1) prefix per side for the new r


def test_bp_far_horizons_on_unsplit_ladder_cells():
    # (1+|x|)^-4 is still far from negligible at 8192, so the ladder runs on
    # to 2^19 and its chunks past 8192 are not split at a step; the scan grid
    # still steps by GRID_STEP there.  The log sups are those of the scan on
    # its own tail ladder, which reading the measure's ladder replaced.
    m = msr.normalize(msr.Potential(expr.parse("4*log(1+abs(x))"), even=True, label="4*log(1+abs(x))"))
    horizons = (1e3, 2e3, 4e3, 1e4)
    edges = m.ladders[+1].edges
    assert np.diff(edges)[edges[:-1] >= 8192.0].min() > 4096.0
    res = criteria.bp(m, horizons=horizons)
    want = [11.109459357528198, 12.494754468065267, 13.880549016612363, 15.712830532850852]
    assert res.log_partial_sups == pytest.approx(want, rel=1e-9)
    (scan,) = m._scans.values()  # the one side of an even measure
    assert np.diff(scan.grid).max() <= math.pi / 8.0 * (1.0 + 1e-9)


def _cells_in_blocks_of_192(ladder):
    """The former ladder build: the cells refined 192 intervals per call."""
    lo, hi = ladder.edges[:-1], ladder.edges[1:]
    blocks = range(0, len(lo), 192)
    return np.concatenate([quad.refine_log_panels(ladder.logf, lo[i : i + 192], hi[i : i + 192], ladder.ptol)[0]
                           for i in blocks])


def _horizon_800_build(token, which):
    """The build of a horizon-800 scan ladder of the measure: the bp weight
    ladder on the scan grid of its right side, or its tail ladder grown to
    the last horizon, which refines the new cells past its end."""
    m = msr.normalize(msr.Potential.from_string(token))
    if which == "weight":
        scan = criteria._SideScan(m, +1.0, 800.0, criteria.DEFAULT_HORIZONS)
        _, g = criteria.KINDS["bp"].weight(scan, None)
        return lambda: quad.LogLadder(g, scan.grid, 1e-9), 0
    return lambda: m.ladders[+1].grown(800.0), len(m.ladders[+1].cells)


@pytest.mark.parametrize("token, which", [("sinpower:2,1", "weight"), ("cattiaux:1.5,1.9", "weight"),
                                          ("cattiaux:1.5,1.9", "tail")])
def test_scan_ladders_refine_their_cells_in_one_call(token, which, monkeypatch):
    # the 2,043 cells of a weight ladder and the 2,024 new cells of a grown
    # tail ladder go to one refinement call (the calls of at most
    # _EXTENSION_BATCH_SEGMENTS intervals are the mass beyond the end), and
    # equal the former build in blocks of 192 intervals bit for bit; the
    # build's traced allocations peak within 1.5 MB
    build, old = _horizon_800_build(token, which)
    calls = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: calls.append(len(a[1])) or refine(*a, **k))
    ladder = build()
    monkeypatch.undo()
    assert len(ladder.cells) - old > 2000
    assert [n for n in calls if n > quad._EXTENSION_BATCH_SEGMENTS] == [len(ladder.cells) - old]
    assert np.array_equal(ladder.cells, _cells_in_blocks_of_192(ladder))
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


@pytest.mark.parametrize("step", [1.0 / 3.0, 0.45])
def test_bp_sup_next_to_the_median_does_not_depend_on_the_first_grid_point(cattiaux_measure, step, monkeypatch):
    # cattiaux's bp sup sits at x = 0.3221, between the median 0 and the
    # first grid point; the golden-section bracket starts at the median, so
    # the first grid point (pi/8, 1/3 or 0.45) does not set the sup
    base = criteria.bp(cattiaux_measure)
    assert base.log_partial_sups[-1] == pytest.approx(-2.56889411858, abs=1e-10)
    assert abs(base.final_argmax) == pytest.approx(0.32212083, abs=1e-6)
    fresh = msr.normalize(cattiaux_measure.potential)  # a measure keeps its scans
    monkeypatch.setattr(quad, "GRID_STEP", step)
    assert criteria._side_scan(fresh, +1, base.horizons).grid[1] == step
    res = criteria.bp(fresh)
    assert res.log_partial_sups == pytest.approx(base.log_partial_sups, rel=1e-12)
    assert res.final_argmax == pytest.approx(base.final_argmax, abs=1e-6)


def test_bp_panel_budget_on_nu22(panels):
    # nu22's scan cells near x = 800, where V rises by thousands of nats per
    # cell, cost few panels: the bp scan took about 150k panels when every
    # panel was held to ptol on its own, and takes about 68k
    m = msr.normalize(msr.Potential.builtin("sinpower", 2, 2))
    panels[0] = 0  # the scan's panels alone
    criteria.bp(m)
    assert panels[0] <= 80000


def test_partial_sups_nondecreasing(gauss_measure, mu15_measure):
    for m in (gauss_measure, mu15_measure):
        res = criteria.bls(m, horizons=SHORT)
        assert all(b >= a for a, b in zip(res.partial_sups, res.partial_sups[1:]))


def test_horizons_validation(exp_measure):
    with pytest.raises(DomainValidationError):
        criteria.bp(exp_measure, horizons=(25.0,))
    with pytest.raises(DomainValidationError):
        criteria.bp(exp_measure, horizons=(50.0, 25.0))
    for last in (math.inf, math.nan):
        with pytest.raises(DomainValidationError, match="horizons must be finite"):
            criteria.bp(exp_measure, horizons=(25.0, last))
        with pytest.raises(DomainValidationError, match="horizons must be finite"):
            criteria.hyp_mls_check(exp_measure, 1.5, 0.1, horizons=(25.0, last))


def test_bweighted_counterexample_diverges_along_slow_derivative_points(cattiaux_measure):
    res = criteria.bweighted(cattiaux_measure, 1.5)
    assert res.verdict.label == "divergent"
    # the running argmax tracks x = k pi - pi/4 where the derivative collapses
    phase = (res.final_argmax + math.pi / 4.0) / math.pi
    assert abs(phase - round(phase)) <= 0.1


def test_blo_resolves_just_above_threshold(nu2_measure):
    # at alpha = 2 the interpolation threshold sits at r = 1.2; slightly above
    # it the sup grows like x^(2(2/r' - 1/3)) ~ x^0.028, and the tight
    # power-law fit still certifies divergence at the default horizons
    res = criteria.blo(nu2_measure, 1.21)
    assert res.verdict.label == "divergent"
    slope = res.verdict.growth_exponent[0]
    rp = 1.21 / 0.21
    theory = 2.0 * (2.0 / rp - 1.0 / 3.0)
    assert slope == pytest.approx(theory, rel=0.15)


def test_bmls_just_above_threshold_refines_every_window(nu2_measure):
    # every window's grid argmax is refined, not only those whose grid value
    # beats the running grid maximum: each horizon's sup then rises past the
    # last, where refining only the leaders read 4.598, 4.598, 5.128, 5.128,
    # 5.653, 5.653 and left the verdict inconclusive
    res = criteria.bmls(nu2_measure, 1.259)
    assert res.verdict.label == "divergent"
    sups = res.log_partial_sups
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert sups == pytest.approx([4.598, 4.865, 5.128, 5.391, 5.653, 5.912], abs=1e-3)


# ---------------------------------------------------------------------------
# lockstep multisection against the sequential scan
# ---------------------------------------------------------------------------


def _section_max_scalar(f, a, b):
    """The multisection search on one bracket, in Python floats."""
    for _ in range(criteria._SECTION_CALLS):
        h = (b - a) / criteria._SECTIONS
        nodes = [a + h * float(j) for j in range(criteria._SECTIONS + 1)]
        best_k, best_v = None, None
        for k in range(1, criteria._SECTIONS):
            v = f(nodes[k])
            v = -math.inf if math.isnan(v) else v
            if best_k is None or v > best_v:
                best_k, best_v = k, v
        a, b = nodes[best_k - 1], nodes[best_k + 1]
    return nodes[best_k], best_v


def _cell_log(ladder, a, b):
    """log of the integral of exp(ladder.logf) over [a, b], refined at the
    ladder's own panel tolerance."""
    if not a < b:
        return -np.inf
    logs, _, _, _, _ = quad.refine_log_panels(ladder.logf, [a], [b], ladder.ptol)
    return float(logs[0])


def _tail_at(scan, t):
    """The scan's tail at t > t0 as a scalar query of its ladders: past 0
    the side's grown ladder from t to its next edge, and from an uneven
    median to 0 the other side's ladder from 0 to -t."""
    ladder, other = scan.ladders[scan.sign], scan.ladders[-scan.sign]
    if t <= 0.0:
        j = int(np.searchsorted(other.edges, -t, side="right") - 1)
        inner = np.logaddexp(other.prefix[j], _cell_log(other, other.edges[j], -t))
        return float(np.logaddexp(ladder.suffix[0], inner))
    k = int(np.searchsorted(ladder.edges, t))
    return float(np.logaddexp(_cell_log(ladder, t, ladder.edges[k]), ladder.suffix[k]))


def _weight_at(weight, t):
    """A weight ladder's mass from t0 to t as a scalar query."""
    j = int(np.searchsorted(weight.edges, t, side="right") - 1)
    return float(np.logaddexp(weight.prefix[j], _cell_log(weight, weight.edges[j], t)))


def _sequential_scan(measure, kind, r, horizons, sign):
    """The scan with one scalar multisection search per window, run when
    the window is reached; returns (log partial sups, argmax)."""
    scan = criteria._side_scan(measure, sign, horizons)
    row = criteria.KINDS[kind]
    weight = scan.weight_ladder(*row.weight(scan, r))
    tail = msr._log_mass(scan.ladders, sign * scan.grid, sign)
    lvals = tail + row.transform(weight.prefix, r)
    lvals[0] = -np.inf
    for i in range(1, len(lvals)):
        if np.isfinite(lvals[i]):
            lvals[i] += row.log_post(tail[i] - measure.log_z, r)

    def log_value_at(t):
        l_abs = _tail_at(scan, t)
        return l_abs + row.transform(_weight_at(weight, t), r) + row.log_post(l_abs - measure.log_z, r)

    log_sups, argmaxes = [], []
    best, best_t = -np.inf, float("nan")
    lo_idx = 1
    grid = scan.grid
    for t_hzn in horizons:
        hi_idx = int(np.searchsorted(grid, t_hzn, side="right"))
        if hi_idx > lo_idx:
            j = int(np.argmax(lvals[lo_idx:hi_idx])) + lo_idx
            a = float(grid[j - 1])
            b = float(min(grid[min(j + 1, len(grid) - 1)], t_hzn))
            t_ref, v_ref = _section_max_scalar(log_value_at, a, b)
            value, t = (v_ref, t_ref) if v_ref > lvals[j] else (float(lvals[j]), float(grid[j]))
            if value > best:
                best, best_t = value, t
            lo_idx = hi_idx
        log_sups.append(best)
        argmaxes.append(sign * best_t)
    return log_sups, argmaxes


_LOCKSTEP_KINDS = (("bp", None), ("bls", None), ("blo", 1.3), ("blo", 1.7), ("bmls", 1.4), ("bweighted", 1.5))


@pytest.mark.parametrize("name", ["exponential", "gaussian", "mu15", "nu2", "nu15", "nu22", "floor", "cattiaux",
                                  "expr:abs(x)^1.5+0.5*x", "expr:floor(abs(x)) + 0.5*floor(x)"])
def test_lockstep_scan_equals_sequential_scan(name):
    if name.startswith("expr:"):
        m = msr.normalize(msr.Potential.from_string(name))
    else:
        m = scenarios.corpus_measure(name)
    horizons = (25.0, 50.0, 100.0)
    for kind, r in _LOCKSTEP_KINDS:
        if kind == "bweighted" and not m.is_even:
            continue
        for sign in (+1, -1):
            res = criteria._scan_side(m, kind, r, horizons, sign)
            log_sups, argmax = _sequential_scan(m, kind, r, horizons, sign)
            assert np.array_equal(res.log_partial_sups, log_sups), (kind, r, sign)
            assert np.array_equal(res.argmax, argmax), (kind, r, sign)


def test_lockstep_section_max_ties_and_nan():
    # a staircase has ties at every comparison, and nan counts as -inf: each
    # bracket still takes the scalar search's branches
    def f(s):
        with np.errstate(invalid="ignore"):
            return np.where(np.abs(s - 0.37) < 0.01, np.nan, -np.floor(np.abs(s - 0.3) * 8.0))

    a = np.array([0.0, 0.1, 0.25, 0.29, 0.36, -1.0, 0.365])
    b = np.array([1.0, 0.4, 0.35, 0.5, 0.38, 0.3, 0.375])
    s_max, f_max = criteria._section_max(f, a, b)
    assert f_max[-1] == -math.inf  # all of the last bracket is nan
    for i in range(len(a)):
        s_ref, f_ref = _section_max_scalar(_scalar(f), a[i], b[i])
        assert s_max[i] == s_ref and f_max[i] == f_ref


def _three_peaks(s):
    # maxima at -1, 1 and 2.5, tilted; products only, so a point's value is
    # the same bit for bit in any batch
    return -((s - 1.0) * (s - 1.0) * (s + 1.0) * (s + 1.0) * (s - 2.5) * (s - 2.5)) + 0.1 * s


def _scalar(f):
    return lambda s: float(f(np.array([s]))[0])


def test_section_max_equals_scalar_search():
    rng = np.random.default_rng(16)
    a = rng.uniform(-2.0, 3.0, 64)
    b = a + rng.uniform(1e-6, 2.5, 64)
    calls = []
    s_max, f_max = criteria._section_max(lambda s: calls.append(len(s)) or _three_peaks(s), a, b)
    assert calls == [7 * len(a)] * 14
    for i in range(len(a)):
        s_ref, f_ref = _section_max_scalar(_scalar(_three_peaks), a[i], b[i])
        assert s_max[i] == s_ref and f_max[i] == f_ref


def test_section_max_propagates_an_error_of_f():
    def f(s):
        if (s > 1.0).any():
            raise DomainValidationError("log-integrand is nan")
        return _three_peaks(s)

    with pytest.raises(DomainValidationError, match="is nan"):
        criteria._section_max(f, np.array([-2.0, 0.3]), np.array([0.5, 2.9]))


def test_hyp_check_builds_no_tail_ladder(monkeypatch):
    # a fresh measure, whose ladder ends at 128, short of the last horizon
    m = msr.normalize(msr.Potential.builtin("exp"))
    assert m.ladders[+1].edges[-1] < criteria.DEFAULT_HORIZONS[-1]
    ladders, grows, extensions = [], [], []
    init, grown, extension = quad.LogLadder.__init__, quad.LogLadder.grown, quad.log_extension
    monkeypatch.setattr(quad.LogLadder, "__init__",
                        lambda ladder, g, *a, **k: ladders.append(g) or init(ladder, g, *a, **k))
    monkeypatch.setattr(quad.LogLadder, "grown", lambda ladder, b: grows.append(b) or grown(ladder, b))
    monkeypatch.setattr(quad, "log_extension", lambda *a, **k: extensions.append(a) or extension(*a, **k))
    criteria.hyp_mls_check(m, 1.5, 0.4)
    assert len(ladders) == 1 and grows == [] and extensions == []  # the n^-(r-1) prefix of one side, no tail
    criteria.bp(m)
    assert grows and len(extensions) == 1  # a scan grows a copy of the ladder, with one extension from its end


@pytest.mark.parametrize("token", ["sinpower:2,2", "expr:abs(x)^1.5+0.5*x"])
def test_scans_and_queries_do_not_depend_on_call_order(token):
    # a scan reads a grown copy of the measure's ladder: the measure's
    # ladders and its queries, in the ladder and beyond it, stay bit for bit
    # as they were, and a scan after queries equals one on a fresh measure
    m, fresh = (msr.normalize(msr.Potential.from_string(token)) for _ in range(2))
    ladders = {sign: (m.ladders[sign], m.ladders[sign].edges, m.ladders[sign].suffix) for sign in (+1, -1)}
    end = m.ladders[+1].edges[-1]
    xs = np.linspace(m.median, 3.0 * end, 25)
    before = (msr.log_tail(m, xs), msr.log_cdf(m, -xs))
    queried, first = criteria.bp(m, horizons=SHORT), criteria.bp(fresh, horizons=SHORT)
    assert np.array_equal(queried.log_partial_sups, first.log_partial_sups)
    assert np.array_equal(queried.argmax, first.argmax)
    assert np.array_equal(msr.log_tail(m, xs), before[0]) and np.array_equal(msr.log_cdf(m, -xs), before[1])
    for sign, (ladder, edges, suffix) in ladders.items():
        assert m.ladders[sign] is ladder and ladder.edges is edges and ladder.suffix is suffix


def _softplus(y):
    return y + math.log1p(math.exp(-y)) if y > 0 else math.log1p(math.exp(y))


_SCALAR_POSTS = {
    "bp": lambda l, r: 0.0,
    "bls": lambda l, r: math.log(max(-l, 1e-300)),
    "blo": lambda l, r: (2.0 * (r - 1.0) / r) * math.log(_softplus(-(l + math.log(2.0)))),
    "bmls": lambda l, r: math.log(max(-l, 1e-300)),
    "bweighted": lambda l, r: math.log(max(-l, 1e-300)),
}


@pytest.mark.parametrize("kind", sorted(criteria.KINDS))
def test_vectorized_post_factor_matches_scalar_formula(kind):
    l_norm = np.array([np.nextafter(0.0, -1.0), -1e-12, -1.0, -1e3, -1e5])
    for r in (1.1, 1.5, 1.9):
        got = criteria.KINDS[kind].log_post(l_norm, r)
        want = [_SCALAR_POSTS[kind](float(l), r) for l in l_norm]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0), (kind, r)


@pytest.mark.parametrize("kind", sorted(criteria.KINDS))
def test_add_post_leaves_infinite_and_nan_entries(kind):
    vals = np.array([1.0, -np.inf, np.nan, 2.0, -np.inf])
    l_norm = np.array([-1.0, -np.inf, np.nan, -1e3, 0.5])
    row = criteria.KINDS[kind]
    out = criteria._add_post(vals, l_norm, row, 1.5)
    assert out is vals
    assert out[1] == -np.inf and np.isnan(out[2]) and out[4] == -np.inf
    assert np.array_equal(out[[0, 3]], np.array([1.0, 2.0]) + row.log_post(np.array([-1.0, -1e3]), 1.5))
