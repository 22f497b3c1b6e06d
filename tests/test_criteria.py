import math

import numpy as np
import pytest

from hardylab import criteria, quad, scenarios
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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 2)))
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


def test_bmls_bracket_uses_bp(exp_measure, cattiaux_measure):
    bp_res = criteria.bp(cattiaux_measure)
    res = criteria.bmls(cattiaux_measure, 1.5, bp_result=bp_res)
    assert res.verdict.label == "bounded"
    assert res.bracket is not None
    lo, up = res.bracket
    rp = 3.0
    expected = 235.0 * bp_res.bracket[1] + 2.0 ** (rp + 1.0) * res.partial_sups[-1]
    assert up == pytest.approx(expected, rel=1e-12)
    # without a bp result there is no bracket
    assert criteria.bmls(cattiaux_measure, 1.5).bracket is None


# ---------------------------------------------------------------------------
# bweighted
# ---------------------------------------------------------------------------


def test_bweighted_gaussian_bounded(gauss_measure):
    res = criteria.bweighted(gauss_measure, 1.5, horizons=SHORT)
    assert res.verdict.label == "bounded"


def test_bweighted_same_power_bounded(mu15_measure):
    res = criteria.bweighted(mu15_measure, 1.5, horizons=SHORT)
    assert res.verdict.label == "bounded"


def test_bweighted_requires_even():
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + 0.3*x")))
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


def test_tail_scale_requires_even():
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + 0.3*x")))
    with pytest.raises(DomainValidationError):
        criteria.tail_asymptotics(m, np.array([1.0]))


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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + 0.3*x")))
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
    monkeypatch.setattr(criteria, "GRID_STEP", math.pi / 16.0)
    assert criteria.bp(exp_measure, horizons=SHORT).verdict.label == base_bp
    assert criteria.blo(floor_measure, 1.5, horizons=SHORT).verdict.label == base_lo


@pytest.mark.parametrize("token", ["sinpower:2,1", "expr:abs(x)^1.5+0.5*x"])
def test_cached_scans_equal_fresh_scans(token, monkeypatch):
    # scans on one measure reuse its tail ladder and its exp(V) prefix; the
    # results are those of scans on a freshly normalized measure
    spec = msr.PotentialSpec.from_string(token)

    def fresh():
        return msr.normalize(msr.make_potential(spec))

    def same(a, b):
        return np.array_equal(a.log_partial_sups, b.log_partial_sups) and np.array_equal(a.argmax, b.argmax)

    builds = []
    ladder = criteria._SideScan._ladder
    monkeypatch.setattr(criteria._SideScan, "_ladder", lambda scan, g, **k: builds.append(g) or ladder(scan, g, **k))
    shared = fresh()
    sides = 1 if shared.is_even else 2
    for r in (1.2, 1.5, 1.8):
        assert same(criteria.blo(shared, r, horizons=SHORT), criteria.blo(fresh(), r, horizons=SHORT))
    bp_res = criteria.bp(shared, horizons=SHORT)
    assert same(bp_res, criteria.bp(fresh(), horizons=SHORT))
    assert same(criteria.bmls(shared, 1.4, horizons=SHORT, bp_result=bp_res),
                criteria.bmls(fresh(), 1.4, horizons=SHORT))
    builds.clear()
    criteria.blo(shared, 1.3, horizons=SHORT)
    criteria.bmls(shared, 1.4, horizons=SHORT)
    assert builds == []  # every ladder and prefix came from the cache
    criteria.bmls(shared, 1.6, horizons=SHORT)
    assert len(builds) == sides  # one n^-(r-1) prefix per side for the new r


def test_partial_sups_nondecreasing(gauss_measure, mu15_measure):
    for m in (gauss_measure, mu15_measure):
        res = criteria.bls(m, horizons=SHORT)
        assert all(b >= a for a, b in zip(res.partial_sups, res.partial_sups[1:]))


def test_horizons_validation(exp_measure):
    with pytest.raises(DomainValidationError):
        criteria.bp(exp_measure, horizons=(25.0,))
    with pytest.raises(DomainValidationError):
        criteria.bp(exp_measure, horizons=(50.0, 25.0))


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


# ---------------------------------------------------------------------------
# lockstep golden section against the sequential scan
# ---------------------------------------------------------------------------


def _golden_max_scalar(f, a, b, iters=40):
    c = b - criteria._INVPHI * (b - a)
    d = a + criteria._INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - criteria._INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + criteria._INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _tail_at(scan, s):
    j = min(int(np.searchsorted(scan.grid, s, side="right") - 1), len(scan.grid) - 2)
    partial = -np.inf
    if s < scan.grid[j + 1]:
        logs, _, _ = quad.refine_log_panels(scan.neg_v_s, [s], [scan.grid[j + 1]], criteria._PANEL_PTOL, 60,
                                            strict=False)
        partial = float(logs[0])
    return float(np.logaddexp(partial, scan.tail.suffix[j + 1]))


def _weight_at(scan, g, prefix, s):
    j = min(int(np.searchsorted(scan.grid, s, side="right") - 1), len(scan.grid) - 2)
    partial = -np.inf
    if s > scan.grid[j]:
        logs, _, _ = quad.refine_log_panels(g, [scan.grid[j]], [s], criteria._PANEL_PTOL, 60, strict=False)
        partial = float(logs[0])
    return float(np.logaddexp(prefix[j], partial))


def _sequential_scan(measure, kind, r, horizons, sign):
    """The scan with one scalar golden-section search per adopted window,
    run when the window is reached; returns (log partial sups, argmax)."""
    m = measure.median
    s_h = [h - m if sign > 0 else h + m for h in horizons]
    scan = criteria._side_scan(measure, sign, horizons, s_h)
    row = criteria.KINDS[kind]
    key, g = row.weight(scan, r)
    prefix = scan.weight_ladder(key, g).prefix
    lvals = scan.tail.suffix + row.transform(prefix, r)
    lvals[0] = -np.inf
    for i in range(1, len(lvals)):
        if np.isfinite(lvals[i]):
            lvals[i] += row.log_post(scan.tail.suffix[i] - measure.log_z, r)

    def log_value_at(s):
        l_abs = _tail_at(scan, s)
        return l_abs + row.transform(_weight_at(scan, g, prefix, s), r) + row.log_post(l_abs - measure.log_z, r)

    log_sups, argmaxes = [], []
    best, best_s = -np.inf, float("nan")
    lo_idx = 1
    grid = scan.grid
    for s_hzn in s_h:
        hi_idx = int(np.searchsorted(grid, s_hzn, side="right"))
        if hi_idx > lo_idx:
            j = int(np.argmax(lvals[lo_idx:hi_idx])) + lo_idx
            if lvals[j] > best:
                best, best_s = float(lvals[j]), float(grid[j])
                a = grid[max(j - 1, 1)]
                b = min(grid[min(j + 1, len(grid) - 1)], s_hzn)
                if b > a:
                    s_ref, v_ref = _golden_max_scalar(log_value_at, a, b)
                    if v_ref > best:
                        best, best_s = float(v_ref), float(s_ref)
            lo_idx = hi_idx
        log_sups.append(best)
        argmaxes.append(m + sign * best_s)
    return log_sups, argmaxes


_LOCKSTEP_KINDS = (("bp", None), ("bls", None), ("blo", 1.3), ("blo", 1.7), ("bmls", 1.4), ("bweighted", 1.5))


@pytest.mark.parametrize("name", ["exponential", "gaussian", "mu15", "nu2", "nu15", "nu22", "floor", "cattiaux",
                                  "expr:abs(x)^1.5+0.5*x", "expr:floor(abs(x)) + 0.5*floor(x)"])
def test_lockstep_scan_equals_sequential_scan(name):
    if name.startswith("expr:"):
        m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_string(name)))
    else:
        m = scenarios.corpus_measure(name)
    # on floor, bp refines a window up front whose grid maximum then loses to
    # the refined sup of the window before it: the sequential scan skips it
    horizons = (25.0, 50.0, 100.0)
    for kind, r in _LOCKSTEP_KINDS:
        if kind == "bweighted" and not m.is_even:
            continue
        for sign in (+1, -1):
            res = criteria._scan_side(m, kind, r, horizons, sign)
            log_sups, argmax = _sequential_scan(m, kind, r, horizons, sign)
            assert np.array_equal(res.log_partial_sups, log_sups), (kind, r, sign)
            assert np.array_equal(res.argmax, argmax), (kind, r, sign)


def test_lockstep_golden_max_ties_and_nan():
    # a staircase has ties at every comparison, and nan compares false: each
    # bracket still takes the scalar search's branches
    def f(s):
        with np.errstate(invalid="ignore"):
            return np.where(np.abs(s - 0.37) < 0.01, np.nan, -np.floor(np.abs(s - 0.3) * 8.0))

    a = np.array([0.0, 0.1, 0.25, 0.29, 0.36, -1.0])
    b = np.array([1.0, 0.4, 0.35, 0.5, 0.38, 0.3])
    s_max, f_max = criteria._golden_max(f, a, b)
    for i in range(len(a)):
        s_ref, f_ref = _golden_max_scalar(lambda s: float(f(np.array([s]))[0]), a[i], b[i])
        assert s_max[i] == s_ref and np.array_equal(f_max[i], f_ref, equal_nan=True)


def test_hyp_check_builds_no_tail_ladder(exp_measure, monkeypatch):
    ladders = []
    ladder = criteria._SideScan._ladder
    monkeypatch.setattr(criteria._SideScan, "_ladder", lambda scan, g, **k: ladders.append(g) or ladder(scan, g, **k))
    extensions = []
    extension = quad.log_extension
    monkeypatch.setattr(quad, "log_extension", lambda *a, **k: extensions.append(a) or extension(*a, **k))
    criteria.hyp_mls_check(exp_measure, 1.5, 0.4)
    assert len(ladders) == 1 and extensions == []  # the n^-(r-1) prefix of one side, no tail
