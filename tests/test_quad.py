import math

import numpy as np
import pytest

from hardylab import measure as msr
from hardylab import quad
from hardylab.errors import DepthExhaustedError, DomainValidationError, NonIntegrableError


def test_polynomial_exactness():
    res = quad.integrate(lambda x: x**2, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error_estimate <= 1e-12


def test_truncated_exponential():
    # int_0^inf e^-x dx via truncation at 60
    res = quad.integrate(lambda x: np.exp(-x), 0.0, 60.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_oscillating_potential_self_consistency():
    # exp(-V) with V = |t+sin t|^2 on [0, 40]: halved tolerance reproduces the value
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    f = lambda t: np.exp(-pot.value(t))
    bp = pot.breakpoints(0.0, 40.0)
    loose = quad.integrate(f, 0.0, 40.0, quad.QuadConfig(rel_tol=1e-8, abs_tol=1e-12), breakpoints=bp)
    tight = quad.integrate(f, 0.0, 40.0, quad.QuadConfig(rel_tol=5e-9, abs_tol=1e-12), breakpoints=bp)
    assert loose.value == pytest.approx(tight.value, rel=1e-8)
    # and the log-space twin handles exp(+V), which overflows linear floats
    log_loose = quad.integrate_log(lambda t: pot.value(t), 0.0, 40.0, breakpoints=bp)
    log_tight = quad.integrate_log(
        lambda t: pot.value(t), 0.0, 40.0, quad.QuadConfig(rel_tol=5e-11, abs_tol=1e-13), breakpoints=bp
    )
    assert log_loose.log_value == pytest.approx(log_tight.log_value, abs=1e-8)


def test_integrate_log_closed_form():
    res = quad.integrate_log(lambda t: np.asarray(t, dtype=float), 0.0, 100.0)
    assert res.log_value == pytest.approx(100.0 + math.log1p(-math.exp(-100.0)), abs=1e-8)
    assert res.value == pytest.approx(math.exp(100.0), rel=1e-8)
    # far beyond float range the log stays exact and the value saturates
    huge = quad.integrate_log(lambda t: np.asarray(t, dtype=float), 0.0, 1000.0)
    assert huge.log_value == pytest.approx(1000.0, abs=1e-8)
    assert huge.value == math.inf


def test_integrate_log_unit():
    res = quad.integrate_log(lambda t: np.zeros_like(np.asarray(t, dtype=float)), 0.0, 1.0)
    assert res.log_value == pytest.approx(0.0, abs=1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_log_linear_consistency():
    # representable integrals computed both ways agree far below 1e-10 relative
    cases = [
        (lambda t: np.exp(t * t), lambda t: np.asarray(t, dtype=float) ** 2, 0.0, 5.0),
        (lambda t: np.exp(-t), lambda t: -np.asarray(t, dtype=float), 0.0, 30.0),
        (lambda t: np.exp(np.sin(t)), lambda t: np.sin(t), 0.0, 10.0),
    ]
    for f, g, a, b in cases:
        lin = quad.integrate(f, a, b)
        log = quad.integrate_log(g, a, b)
        assert log.value == pytest.approx(lin.value, rel=1e-10)


def test_additivity():
    f = lambda x: np.exp(-x) * np.sin(3 * x) ** 2
    whole = quad.integrate(f, 0.0, 7.0)
    left = quad.integrate(f, 0.0, 2.3)
    right = quad.integrate(f, 2.3, 7.0)
    assert whole.value == pytest.approx(
        left.value + right.value, abs=whole.error_estimate + left.error_estimate + right.error_estimate + 1e-13
    )


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: x**2, 0.0, 1.0),
        (lambda x: np.exp(-x), 0.0, 40.0),
        (lambda x: np.exp(-x * x / 2), -8.0, 8.0),
        (lambda x: np.exp(-np.abs(x) ** 1.5) * np.cos(x), -10.0, 10.0),
    ],
)
def test_refinement_monotone(f, a, b):
    # halving rel_tol never increases the error estimate
    prev = None
    for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        res = quad.integrate(f, a, b, quad.QuadConfig(rel_tol=rel, abs_tol=1e-15))
        if prev is not None:
            assert res.error_estimate <= prev * (1 + 1e-12)
        prev = res.error_estimate


def test_depth_exhaustion_signals_discontinuity():
    step = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(DepthExhaustedError) as exc:
        quad.integrate(step, 0.0, 1.0, quad.QuadConfig(rel_tol=1e-12, abs_tol=1e-15, max_depth=20))
    a, b, _ = exc.value.panel
    assert a <= 1.0 / 3.0 <= b  # worst panel brackets the jump


def test_non_finite_integrand_rejected():
    with np.errstate(invalid="ignore"):
        with pytest.raises(DomainValidationError):
            quad.integrate(lambda x: np.sqrt(x - 0.5), 0.0, 1.0)


def test_non_integrable_singularity_exhausts_depth():
    with pytest.raises(DepthExhaustedError):
        quad.integrate(lambda x: 1.0 / x, 0.0, 1.0, quad.QuadConfig(max_depth=30))


def test_config_validation():
    with pytest.raises(DomainValidationError):
        quad.QuadConfig(rel_tol=0.0)
    with pytest.raises(DomainValidationError):
        quad.QuadConfig(max_depth=5)
    with pytest.raises(DomainValidationError):
        quad.integrate(lambda x: x, 1.0, 0.0)


def test_truncation_point_exponential():
    # e^-X = eps * (1 - e^-X)  =>  X ~ 27.63 at eps = 1e-12
    pot = msr.make_potential(msr.PotentialSpec.builtin("exp"))
    X = quad.truncation_point(pot, 1e-12)
    assert X == pytest.approx(27.63, abs=1.0)


def test_truncation_point_gaussian():
    # Mills ratio: tail(X) ~ exp(-X^2/2)/X against core sqrt(pi/2)
    pot = msr.make_potential(msr.PotentialSpec.builtin("gaussian"))
    X = quad.truncation_point(pot, 1e-12)
    core = math.sqrt(math.pi / 2.0)

    def predicate(x):
        return math.exp(-x * x / 2.0) / x <= 1e-12 * core

    lo = next(x for x in np.arange(5.0, 9.0, 0.01) if predicate(x))
    assert X == pytest.approx(lo, abs=0.5)


def test_truncation_point_oscillating():
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    X = quad.truncation_point(pot, 1e-12)
    assert 5.0 <= X <= 9.0  # bracketed by (x-1)^2 <= V <= (x+1)^2


def test_truncation_validates_eps():
    pot = msr.make_potential(msr.PotentialSpec.builtin("exp"))
    with pytest.raises(DomainValidationError):
        quad.truncation_point(pot, 1.5)


def test_non_integrable_diagnostic():
    pot = msr.make_potential(msr.PotentialSpec.from_expression("0*x"))
    with pytest.raises(NonIntegrableError):
        quad.truncation_point(pot, 1e-10)


def _floor_tail_closed_form(x):
    """int_x^inf exp(-floor t) dt = (k+1-x) e^-k + e^-(k+1) / (1 - e^-1), k = floor(x)."""
    k = math.floor(x)
    return (k + 1 - x) * math.exp(-k) + math.exp(-(k + 1)) / (1.0 - math.exp(-1.0))


def _floor_core_closed_form(x):
    """int_0^x exp(-floor t) dt = (1 - e^-k) / (1 - e^-1) + (x - k) e^-k."""
    k = math.floor(x)
    return (1.0 - math.exp(-k)) / (1.0 - math.exp(-1.0)) + (x - k) * math.exp(-k)


def test_truncation_point_floor_closed_form():
    # on [k, k+1) both integrals are linear in X, so the smallest X with
    # tail(X) = eps core(X) solves a linear equation; it lies in [27, 28)
    eps, k = 1e-12, 27
    tail_k, core_k = _floor_tail_closed_form(k), _floor_core_closed_form(k)
    x_exact = k + (tail_k - eps * core_k) / (math.exp(-k) * (1.0 + eps))
    assert x_exact == pytest.approx(27.7402887833, abs=1e-10)
    assert _floor_tail_closed_form(x_exact) == pytest.approx(eps * _floor_core_closed_form(x_exact), rel=1e-12)
    pot = msr.make_potential(msr.PotentialSpec.builtin("floor"))
    X = quad.truncation_point(pot, eps)
    assert X == pytest.approx(x_exact, rel=1e-10)
    assert X >= x_exact  # the predicate holds at the returned point


def _count_panels(monkeypatch):
    counted = [0]
    refine = quad.refine_log_panels

    def counting(*args, **kwargs):
        out = refine(*args, **kwargs)
        counted[0] += out[2]
        return out

    monkeypatch.setattr(quad, "refine_log_panels", counting)
    return counted


@pytest.mark.parametrize("x", [0.0, 0.3, 2.5, 27.74, 100.2, 700.9])
def test_log_extension_floor_breakpoints_closed_form(x, monkeypatch):
    pot = msr.make_potential(msr.PotentialSpec.builtin("floor"))
    counted = _count_panels(monkeypatch)
    val = quad.log_extension(lambda t: -pot.value(t), x, initial_width=1.0, breakpoints=pot.breakpoints)
    assert val == pytest.approx(math.log(_floor_tail_closed_form(x)), abs=1e-13 * max(1.0, x))
    # split at the unit jumps, every panel of a constant density is accepted
    # whole: one per unit interval (unsplit chunks take about 9000)
    assert counted[0] <= 200


def test_log_extension_mirrored_breakpoints():
    # the left tail of an uneven floor potential, integrated in s = -x
    pot = msr.make_potential(msr.PotentialSpec.from_expression("floor(abs(x)) + 0.5*floor(x)"))
    left = pot.side_breakpoints(0.0, -1.0)
    assert left(0.5, 3.5) == [1.0, 2.0, 3.0]
    val = quad.log_extension(lambda s: -pot.value(-s), 2.5, initial_width=1.0, breakpoints=left)
    # V(-s) = floor(s) + 0.5 floor(-s) = 0.5 floor(s) - 0.5 for non-integer s > 0
    q = math.exp(-0.5)
    exact = math.exp(0.5) * (0.5 * q**2 + q**3 / (1.0 - q))
    assert val == pytest.approx(math.log(exact), abs=1e-12)


def test_normalize_floor_panel_gate(monkeypatch):
    counted = _count_panels(monkeypatch)
    msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("floor")))
    assert counted[0] < 20000


def _truncation_bisection(potential, eps):
    """The former truncation search: doubling, then 40 bisection steps on the
    predicate, with unsplit tail chunks."""

    def one_side(sign):
        def neg_v(x):
            return -potential.value(sign * x)

        def ok(x):
            bp = potential.breakpoints(0.0, x) if sign > 0 else [-t for t in potential.breakpoints(-x, 0.0)]
            prefix = quad.LogLadder(neg_v, quad._initial_edges(0.0, x, bp), 1e-9, 60, strict=False).prefix
            tail = quad.log_extension(neg_v, x, initial_width=max(1.0, 0.05 * x), ptol=1e-9)
            return tail <= math.log(eps) + float(prefix[-1])

        x = 1.0
        while not ok(x):
            x *= 2.0
        lo, hi = (1e-3 if x == 1.0 else x / 2.0), x
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi

    xr = one_side(+1.0)
    return xr if potential.is_even else max(xr, one_side(-1.0))


@pytest.mark.parametrize(
    "token",
    ["exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:1.5,1", "sinpower:2,2", "cattiaux:1.5,1.9",
     "expr:abs(x)^1.5+0.5*x", "expr:x^2/2+sin(x)"],
)
def test_truncation_point_matches_bisection(token):
    pot = msr.make_potential(msr.PotentialSpec.from_string(token))
    X = quad.truncation_point(pot, 1e-12)
    assert X == pytest.approx(_truncation_bisection(pot, 1e-12), rel=1e-11)


def euler_gamma_integral(a, cfg=quad.DEFAULT_QUAD):
    """Gamma(a) for a >= 1 by direct quadrature of the Euler integral."""
    assert a >= 1.0
    upper = 750.0 + 10.0 * a

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            logt = np.where(t > 0, np.log(np.maximum(t, 1e-300)), -np.inf)
        out = np.exp((a - 1.0) * logt - t)
        return np.where(t > 0, out, 0.0 if a > 1 else 1.0)

    return quad.integrate(f, 0.0, upper, cfg, breakpoints=[1.0, 10.0, 100.0]).value


def test_non_integrable_oscillating_heavy_tail():
    # exp(-V) ~ 1/x^2 never meets the predicate by X = 1e6, and its tail
    # chunks grow to widths of 2^60 and more: only chunks up to
    # _MAX_SPLIT_WIDTH wide are split at the half-periods of sin
    pot = msr.make_potential(msr.PotentialSpec.from_expression("2*log(1+abs(x)) + sin(x)/(1+x^2)"))
    with pytest.raises(NonIntegrableError):
        quad.truncation_point(pot, 1e-12)


def test_euler_gamma_against_math_gamma():
    for a in (1.0, 1.5, 5.0 / 3.0, 2.0, 3.5):
        assert euler_gamma_integral(a) == pytest.approx(math.gamma(a), rel=1e-9)


def test_euler_gamma_consistent_with_normalization():
    # the same quadrature engine must reproduce Z = 2 Gamma(1 + 1/r) for
    # the stretched-exponential family
    for r in (1.5, 2.0):
        m = msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("power", r)))
        assert math.exp(m.log_z) == pytest.approx(2.0 * euler_gamma_integral(1.0 + 1.0 / r), rel=1e-9)


def test_error_estimate_within_config_contract():
    cases = [
        (lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 20.0),
        (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
        (lambda x: np.exp(-x * x / 2), -8.0, 8.0),
    ]
    cfg = quad.QuadConfig(rel_tol=1e-9, abs_tol=1e-12)
    for f, a, b in cases:
        res = quad.integrate(f, a, b, cfg)
        assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value)) * 1.01


def test_gauss_kronrod_exactness_degrees():
    # single panel on [0, 1]: the 15-point rule is exact through degree 22,
    # while the embedded 7-point rule loses exactness after degree 13 (that
    # jump in |K - G| is what drives refinement)
    from hardylab.quad import _gk_linear

    for k in (10, 13, 20, 22):
        K, err, _ = _gk_linear(lambda x: x ** float(k), np.array([0.0]), np.array([1.0]))
        assert K[0] == pytest.approx(1.0 / (k + 1), rel=1e-13)
        if k <= 13:
            assert err[0] <= 1e-14
        else:
            assert err[0] >= 1e-7


# ---------------------------------------------------------------------------
# log-space panel kernel
# ---------------------------------------------------------------------------


def _logsumexp_rows_reference(a):
    m = np.max(a, axis=1)
    finite = np.isfinite(m)
    out = np.full(a.shape[0], -np.inf)
    if np.any(finite):
        out[finite] = m[finite] + np.log(np.sum(np.exp(a[finite] - m[finite][:, None]), axis=1))
    return out


def _gk_log_reference(logf, a, b):
    """The former panel kernel: out-of-place log-sum-exp with np.max rows."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    gx = np.asarray(logf(mid[:, None] + hw[:, None] * quad._GK_NODES), dtype=float)
    logk = _logsumexp_rows_reference(gx + quad._LOG_WK) + np.log(hw)
    logg = _logsumexp_rows_reference(gx[:, 1::2] + quad._LOG_WG) + np.log(hw)
    err = np.abs(logk - logg)
    err = np.where(np.isnan(err), np.inf, err)
    err = np.where(np.isneginf(logk) & np.isneginf(logg), 0.0, err)
    return logk, err


@pytest.mark.parametrize("rows", [5, quad._COLUMN_MAX_ROWS, 700])
def test_gk_log_equals_reference_formula(rows):
    # panel values with -inf entries, all--inf rows, nan and +inf, on both
    # sides of the row count where the row maximum goes column-wise
    rng = np.random.default_rng(rows)
    gx = rng.normal(0.0, 300.0, size=(rows, 15))
    gx[rng.random((rows, 15)) < 0.2] = -np.inf
    gx[1] = -np.inf
    gx[2, 7] = np.nan
    gx[3, 0] = np.inf
    gx[4, 1::2] = -np.inf  # the Gauss nodes alone carry no mass
    a = np.sort(rng.uniform(-50.0, 50.0, rows))
    b = a + rng.uniform(1e-6, 3.0, rows)
    with np.errstate(invalid="ignore"):
        logk, err = quad._gk_log(lambda xs: gx.copy(), a, b)
        ref_k, ref_err = _gk_log_reference(lambda xs: gx.copy(), a, b)
    assert np.array_equal(logk, ref_k) and np.array_equal(err, ref_err)
    assert np.array_equal(np.signbit(logk), np.signbit(ref_k))
    # and on finite integrands of the corpus, where the in-place path runs
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    for logf in (lambda x: -pot.value(x), lambda x: pot.value(x)):
        logk, err = quad._gk_log(logf, a, b)
        ref_k, ref_err = _gk_log_reference(logf, a, b)
        assert np.array_equal(logk, ref_k) and np.array_equal(err, ref_err)


@pytest.mark.parametrize("token", ["exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:2,2", "floor",
                                   "cattiaux:1.5,1.9", "expr:floor(abs(x)) + 0.5*floor(x)"])
def test_refine_log_panels_batch_equals_single_intervals(token):
    # one batched call gives each interval the log integral and error that a
    # call for that interval alone gives, bit for bit
    pot = msr.make_potential(msr.PotentialSpec.from_string(token))
    rng = np.random.default_rng(7)
    lo = rng.uniform(-30.0, 30.0, 40)
    hi = lo + rng.uniform(1e-3, 4.0, 40)
    # intervals that end at, start at and straddle the floor breakpoints
    lo = np.concatenate([lo, [2.0, 3.0, -4.0, 0.5, -1.5]])
    hi = np.concatenate([hi, [3.0, 5.5, -3.0, 2.5, -0.5]])
    for logf in (lambda x: -pot.value(x), lambda x: 0.4 * pot.value(x)):
        # intervals straddling a jump are refined down to zero-width panels
        with np.errstate(divide="ignore", invalid="ignore"):
            logs, errs, panels = quad.refine_log_panels(logf, lo, hi, 1e-9, 60, strict=False)
            single = [quad.refine_log_panels(logf, lo[i : i + 1], hi[i : i + 1], 1e-9, 60, strict=False)
                      for i in range(len(lo))]
        assert np.array_equal(logs, [s[0][0] for s in single])
        assert np.array_equal(errs, [s[1][0] for s in single])
        assert panels == sum(s[2] for s in single)


def _former_prefix_suffix(logf, edges, before, after):
    """The former panel_log_prefix/suffix: one refinement call over all cells,
    then the mass beyond each end folded in after the accumulation."""
    seg, _, _ = quad.refine_log_panels(logf, edges[:-1], edges[1:], 1e-9, 60, strict=False)
    prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(seg)])
    suffix = np.empty(len(edges))
    suffix[-1] = after
    suffix[:-1] = np.logaddexp(np.logaddexp.accumulate(seg[::-1])[::-1], after)
    return np.logaddexp(prefix, before), suffix


@pytest.mark.parametrize("token", ["exp", "sinpower:2,1", "floor"])
def test_log_ladder_equals_former_prefix_and_suffix(token):
    # over 192 cells, so the ladder is built in more than one block
    pot = msr.make_potential(msr.PotentialSpec.from_string(token))
    logf = lambda x: -pot.value(x)
    edges = np.unique(np.concatenate([np.linspace(0.0, 40.0, 450), pot.breakpoints(0.0, 40.0)]))
    for before, after in ((-np.inf, -np.inf), (-3.7, -41.2), (0.3, -0.9)):
        ladder = quad.LogLadder(logf, edges, 1e-9, 60, strict=False, before=before, after=after)
        prefix, suffix = _former_prefix_suffix(logf, edges, before, after)
        assert np.array_equal(ladder.prefix, prefix) and np.array_equal(ladder.suffix, suffix)
        assert np.array_equal(ladder.lower(edges), prefix)  # no partial cell at an edge
