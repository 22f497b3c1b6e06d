import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    pot = msr.Potential.builtin("sinpower", 2, 1)
    f = lambda t: np.exp(-pot.value(t))
    bp = pot.breakpoints(0.0, 40.0)
    loose = quad.integrate(f, 0.0, 40.0, 1e-8, breakpoints=bp)
    tight = quad.integrate(f, 0.0, 40.0, 5e-9, breakpoints=bp)
    assert loose.value == pytest.approx(tight.value, rel=1e-8)
    # and the log-space twin handles exp(+V), which overflows linear floats
    edges = quad._initial_edges(0.0, 40.0, bp)
    log_loose = quad.LogLadder(lambda t: pot.value(t), edges, 1e-11).prefix[-1]
    log_tight = quad.LogLadder(lambda t: pot.value(t), edges, 5e-12).prefix[-1]
    assert log_loose == pytest.approx(log_tight, abs=1e-8)


def test_integrate_log_closed_form():
    # the log integral of exp(t) over [0, b] on a ladder, from both ends
    ladder = quad.LogLadder(lambda t: np.asarray(t, dtype=float), [0.0, 100.0], 1e-11)
    assert ladder.prefix[-1] == pytest.approx(100.0 + math.log1p(-math.exp(-100.0)), abs=1e-8)
    assert ladder.suffix[0] == ladder.prefix[-1]
    # far beyond float range the log stays exact
    huge = quad.LogLadder(lambda t: np.asarray(t, dtype=float), [0.0, 1000.0], 1e-11)
    assert huge.prefix[-1] == pytest.approx(1000.0, abs=1e-8)


def test_integrate_log_unit():
    ladder = quad.LogLadder(lambda t: np.zeros_like(np.asarray(t, dtype=float)), [0.0, 1.0], 1e-11)
    assert ladder.prefix[-1] == pytest.approx(0.0, abs=1e-12)
    assert math.exp(ladder.prefix[-1]) == pytest.approx(1.0, rel=1e-12)


def test_log_linear_consistency():
    # representable integrals computed both ways agree far below 1e-10 relative
    cases = [
        (lambda t: np.exp(t * t), lambda t: np.asarray(t, dtype=float) ** 2, 0.0, 5.0),
        (lambda t: np.exp(-t), lambda t: -np.asarray(t, dtype=float), 0.0, 30.0),
        (lambda t: np.exp(np.sin(t)), lambda t: np.sin(t), 0.0, 10.0),
    ]
    for f, g, a, b in cases:
        lin = quad.integrate(f, a, b)
        log = quad.LogLadder(g, [a, b], 1e-11).prefix[-1]
        assert math.exp(log) == pytest.approx(lin.value, rel=1e-10)


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
        res = quad.integrate(f, a, b, rel)
        if prev is not None:
            assert res.error_estimate <= prev * (1 + 1e-12)
        prev = res.error_estimate


def test_depth_exhaustion_signals_discontinuity():
    step = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(DepthExhaustedError) as exc:
        quad.integrate(step, 0.0, 1.0, 1e-12)
    a, b, _ = exc.value.panel
    assert a <= 1.0 / 3.0 <= b  # worst panel brackets the jump


def test_non_finite_integrand_rejected():
    with np.errstate(invalid="ignore"):
        with pytest.raises(DomainValidationError):
            quad.integrate(lambda x: np.sqrt(x - 0.5), 0.0, 1.0)


def test_non_integrable_singularity_exhausts_depth():
    with pytest.raises(DepthExhaustedError):
        quad.integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_config_validation():
    # an infinite tolerance would accept every panel unrefined
    pot = msr.Potential.builtin("exp")
    for rel_tol in (0.0, 1.0, math.inf, math.nan):
        for call in (lambda: quad.integrate(lambda x: x, 0.0, 1.0, rel_tol),
                     lambda: quad.truncation_point(pot, 1e-12, rel_tol),
                     lambda: msr.normalize(pot, rel_tol=rel_tol)):
            with pytest.raises(DomainValidationError, match="rel_tol"):
                call()
    with pytest.raises(DomainValidationError):
        quad.integrate(lambda x: x, 1.0, 0.0)


def test_truncation_point_exponential():
    # e^-X = eps * (1 - e^-X)  =>  X ~ 27.63 at eps = 1e-12
    pot = msr.Potential.builtin("exp")
    X, _ = quad.truncation_point(pot, 1e-12)
    assert X == pytest.approx(27.63, abs=1.0)


def test_truncation_point_gaussian():
    # Mills ratio: tail(X) ~ exp(-X^2/2)/X against core sqrt(pi/2)
    pot = msr.Potential.builtin("gaussian")
    X, _ = quad.truncation_point(pot, 1e-12)
    core = math.sqrt(math.pi / 2.0)

    def predicate(x):
        return math.exp(-x * x / 2.0) / x <= 1e-12 * core

    lo = next(x for x in np.arange(5.0, 9.0, 0.01) if predicate(x))
    assert X == pytest.approx(lo, abs=0.5)


def test_truncation_point_oscillating():
    pot = msr.Potential.builtin("sinpower", 2, 1)
    X, _ = quad.truncation_point(pot, 1e-12)
    assert 5.0 <= X <= 9.0  # bracketed by (x-1)^2 <= V <= (x+1)^2


def test_truncation_validates_eps():
    pot = msr.Potential.builtin("exp")
    with pytest.raises(DomainValidationError):
        quad.truncation_point(pot, 1.5)


def test_non_integrable_diagnostic():
    pot = msr.Potential.from_expression("0*x")
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
    pot = msr.Potential.builtin("floor")
    X, _ = quad.truncation_point(pot, eps)
    assert X == pytest.approx(x_exact, rel=1e-10)
    assert X >= x_exact  # the predicate holds at the returned point


def _gaussian_truncation_root(eps):
    """erfc(X / sqrt 2) = eps erf(X / sqrt 2), bisected to float resolution."""
    lo, hi = 1.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) <= eps * math.erf(mid / math.sqrt(2.0)):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("family,eps,end", [("exp", 1e-12, 128.0), ("gaussian", 1e-12, 32.0),
                                            ("exp", 1e-100, 256.0), ("gaussian", 1e-250, 64.0)])
def test_truncation_point_at_or_above_closed_form_root(family, eps, end):
    # read from the ladder, T satisfies the predicate and sits within
    # 1e-10 relative of the exact root, as floor's does in the test above:
    # exp solves e^-X = eps (1 - e^-X).  At the smaller eps the predicate
    # still fails at the first chunk end 55 nats down (128 and 32), so the
    # ladder runs on to the next one
    root = math.log1p(1.0 / eps) if family == "exp" else _gaussian_truncation_root(eps)
    X, ladders = quad.truncation_point(msr.Potential.builtin(family), eps)
    assert root <= X <= root * (1.0 + 1e-10)
    assert ladders[+1].edges[-1] == end


@pytest.mark.parametrize("x", [0.0, 0.3, 2.5, 27.74, 100.2, 700.9])
def test_log_extension_floor_breakpoints_closed_form(x, panels):
    pot = msr.Potential.builtin("floor")
    val = quad.log_extension(lambda t: -pot.value(t), x, 1e-11, breakpoints=pot.breakpoints)
    assert val == pytest.approx(math.log(_floor_tail_closed_form(x)), abs=1e-13 * max(1.0, x))
    # split at the unit jumps, every panel of a constant density is accepted
    # whole: one per unit interval (unsplit chunks take about 9000)
    assert panels[0] <= 200


def test_log_extension_mirrored_breakpoints():
    # the left tail of an uneven floor potential, integrated in s = -x
    pot = msr.Potential.from_expression("floor(abs(x)) + 0.5*floor(x)")
    left = pot.side_breakpoints(-1.0)
    assert left(0.5, 3.5) == [1.0, 2.0, 3.0]
    val = quad.log_extension(lambda s: -pot.value(-s), 2.5, 1e-11, breakpoints=left)
    # V(-s) = floor(s) + 0.5 floor(-s) = 0.5 floor(s) - 0.5 for non-integer s > 0
    q = math.exp(-0.5)
    exact = math.exp(0.5) * (0.5 * q**2 + q**3 / (1.0 - q))
    assert val == pytest.approx(math.log(exact), abs=1e-12)


def test_log_extension_finds_mass_after_empty_chunks():
    # chunks without mass (V overflowing) do not end an extension: V may
    # come back to finite values, here 6 empty doublings from 0 on
    val = quad.log_extension(lambda t: np.where(t < 50.0, -np.inf, 50.0 - t), 0.0, 1e-11,
                             breakpoints=lambda a, b: [50.0] if a < 50.0 < b else [])
    assert val == pytest.approx(0.0, abs=1e-12)


def test_normalize_floor_panel_gate(panels):
    msr.normalize(msr.Potential.builtin("floor"))
    assert panels[0] < 20000


def _truncation_bisection(potential, eps):
    """The former truncation search: doubling, then 40 bisection steps on the
    predicate, with unsplit tail chunks."""

    def one_side(sign):
        def neg_v(x):
            return -potential.value(sign * x)

        def ok(x):
            bp = potential.breakpoints(0.0, x) if sign > 0 else [-t for t in potential.breakpoints(-x, 0.0)]
            prefix = quad.LogLadder(neg_v, quad._initial_edges(0.0, x, bp), 1e-9).prefix
            tail = quad.log_extension(neg_v, x, 1e-9)
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
    return xr if potential.even else max(xr, one_side(-1.0))


@pytest.mark.parametrize(
    "token",
    ["exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:1.5,1", "sinpower:2,2", "cattiaux:1.5,1.9",
     "expr:abs(x)^1.5+0.5*x", "expr:x^2/2+sin(x)"],
)
def test_truncation_point_matches_bisection(token):
    pot = msr.Potential.from_string(token)
    X, _ = quad.truncation_point(pot, 1e-12)
    assert X == pytest.approx(_truncation_bisection(pot, 1e-12), rel=1e-11)


def euler_gamma_integral(a, rel_tol=quad.REL_TOL):
    """Gamma(a) for a >= 1 by direct quadrature of the Euler integral."""
    assert a >= 1.0
    upper = 750.0 + 10.0 * a

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            logt = np.where(t > 0, np.log(np.maximum(t, 1e-300)), -np.inf)
        out = np.exp((a - 1.0) * logt - t)
        return np.where(t > 0, out, 0.0 if a > 1 else 1.0)

    return quad.integrate(f, 0.0, upper, rel_tol, breakpoints=[1.0, 10.0, 100.0]).value


def test_non_integrable_oscillating_heavy_tail():
    # exp(-V) ~ 1/x^2 never meets the predicate by X = 1e6, and its tail
    # chunks grow to widths of 2^60 and more: only chunks up to
    # _MAX_SPLIT_WIDTH wide are split at the half-periods of sin
    pot = msr.Potential.from_expression("2*log(1+abs(x)) + sin(x)/(1+x^2)")
    with pytest.raises(NonIntegrableError):
        quad.truncation_point(pot, 1e-12)


_PERSISTENT_OSCILLATION = """
from hardylab import measure as msr
from hardylab.errors import NonIntegrableError
try:
    msr.normalize(msr.Potential.from_expression("2*log(1+abs(x)) + 0.1*sin(x)"))
except NonIntegrableError as e:
    print(e)
"""


def test_non_integrable_persistent_oscillation_in_bounded_memory(bounded_python):
    # exp(-V) ~ 1/x^2 with an oscillation that does not fade: the extension
    # beyond the last ladder refines its unsplit chunks down to the
    # oscillation, and stops at its panel budget
    run = bounded_python(_PERSISTENT_OSCILLATION)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "panels" in run.stdout


_MEAN_ZERO_CUBE = """
from hardylab import cli
raise SystemExit(cli.run(["evaluate", "--potential", "expr:0.01*abs(x)", "--f", "x^3", "--kind", "poincare"]))
"""


def test_integrate_stops_at_its_panel_budget(bounded_python):
    # E[x^3] = 0 under a wide symmetric measure: the error never falls to
    # ABS_TOL, and the pending panels double until the budget stops them
    run = bounded_python(_MEAN_ZERO_CUBE)
    assert run.returncode == 3, run.stderr[-2000:]
    assert f"exhausted PANEL_BUDGET ({quad.PANEL_BUDGET} panels)" in run.stderr
    assert "out of memory" not in run.stderr


def test_euler_gamma_against_math_gamma():
    for a in (1.0, 1.5, 5.0 / 3.0, 2.0, 3.5):
        assert euler_gamma_integral(a) == pytest.approx(math.gamma(a), rel=1e-9)


def test_euler_gamma_consistent_with_normalization():
    # the same quadrature engine must reproduce Z = 2 Gamma(1 + 1/r) for
    # the stretched-exponential family
    for r in (1.5, 2.0):
        m = msr.normalize(msr.Potential.builtin("power", r))
        assert math.exp(m.log_z) == pytest.approx(2.0 * euler_gamma_integral(1.0 + 1.0 / r), rel=1e-9)


def test_error_estimate_within_config_contract():
    cases = [
        (lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 20.0),
        (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
        (lambda x: np.exp(-x * x / 2), -8.0, 8.0),
    ]
    rel_tol = 1e-9
    for f, a, b in cases:
        res = quad.integrate(f, a, b, rel_tol)
        assert res.error_estimate <= max(quad.ABS_TOL, rel_tol * abs(res.value)) * 1.01


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


def _assert_within_summand_ulps(a, b, gx, logk, err, ref_k, ref_err):
    """Both kernels add the row maximum, log hw and the log of a sum of order
    one, each rounded, so on finite rows they agree within 4 ulps of those
    terms' magnitude (plus err's).  4 ulps of |log K| alone does not bound
    them where the sum cancels: sinpower's -V gives |log K| = 0.087 from
    terms near 1, and the two differ there by 8 ulps of 0.087."""
    scale = 1.0 + np.abs(gx.max(axis=1)) + np.abs(np.log(0.5 * (b - a))) + np.abs(ref_k) + ref_err
    assert np.all(np.abs(logk - ref_k) <= 4.0 * np.spacing(scale))
    assert np.all(np.abs(err - ref_err) <= 4.0 * np.spacing(scale))


@pytest.mark.parametrize("rows", [5, 128, 700])
def test_gk_log_equals_reference_formula(rows):
    # the kernel's one exponential per node against the former separate
    # log-sum-exps of K15 and G7: panel values with -inf entries and all--inf
    # rows, in batches of 5, 128 and 700 panels; a nan or +inf value raises
    rng = np.random.default_rng(rows)
    gx = rng.normal(0.0, 300.0, size=(rows, 15))
    gx[rng.random((rows, 15)) < 0.2] = -np.inf
    gx[0, ::2] = np.linspace(-5.0, 5.0, 8)
    gx[0, 1::2] = -800.0 - np.arange(7.0)  # the G7 sum underflows to 0
    gx[1] = -np.inf
    gx[2, 1::2] = -np.inf  # the Gauss nodes alone carry no mass
    a = np.sort(rng.uniform(-50.0, 50.0, rows))
    b = a + rng.uniform(1e-6, 3.0, rows)
    for bad in (np.nan, np.inf):
        nonfinite = gx.copy()
        nonfinite[3, 7] = bad
        with pytest.raises(DomainValidationError, match=f"log-integrand is {bad} on the panel \\[{a[3]:.17g}, "):
            quad._gk_log(lambda xs: nonfinite.T.copy(), a, b)
    with np.errstate(invalid="ignore"):  # the all--inf row's -inf - -inf
        logk, err = quad._gk_log(lambda xs: gx.T.copy(), a, b)  # node j of panel i at [j, i]
        ref_k, ref_err = _gk_log_reference(lambda xs: gx.copy(), a, b)
    # panels 0-2 take ``_gk_log_separate``, the reference's formula: the same floats, sign bits included
    assert np.isfinite(ref_err[0]) and np.array_equal(err[:3], ref_err[:3])
    assert np.array_equal(logk[:3], ref_k[:3]) and np.array_equal(np.signbit(logk[:3]), np.signbit(ref_k[:3]))
    assert np.isfinite(ref_k[3:]).all() and np.isfinite(ref_err[3:]).all()
    _assert_within_summand_ulps(*(v[3:] for v in (a, b, gx, logk, err, ref_k, ref_err)))
    # and on finite integrands of the corpus
    pot = msr.Potential.builtin("sinpower", 2, 1)
    for logf in (lambda x: -pot.value(x), lambda x: pot.value(x)):
        logk, err = quad._gk_log(logf, a, b)
        ref_k, ref_err = _gk_log_reference(logf, a, b)
        gx = logf(0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * quad._GK_NODES)
        _assert_within_summand_ulps(a, b, gx, logk, err, ref_k, ref_err)


def _test_intervals():
    """40 random intervals, and intervals that end at, start at and straddle
    the floor breakpoints."""
    rng = np.random.default_rng(7)
    lo = rng.uniform(-30.0, 30.0, 40)
    hi = lo + rng.uniform(1e-3, 4.0, 40)
    return np.concatenate([lo, [2.0, 3.0, -4.0, 0.5, -1.5]]), np.concatenate([hi, [3.0, 5.5, -3.0, 2.5, -0.5]])


def _jumps_inside(pot, lo, hi):
    """Whether V jumps (by more than 0.1) at an integer inside (lo[i], hi[i]), as the floor potentials do."""
    ks = [np.arange(math.floor(a) + 1.0, math.ceil(b)) for a, b in zip(lo, hi)]
    return np.array([bool(np.any(np.abs(pot.value(k + 1e-9) - pot.value(k - 1e-9)) > 0.1)) for k in ks])


def _raised_alone(refine, logf, lo, hi):
    """The panel that each interval refined alone raises DepthExhaustedError on, or None."""
    raised = []
    for i in range(len(lo)):
        try:
            refine(logf, lo[i : i + 1], hi[i : i + 1], 1e-9)
            raised.append(None)
        except DepthExhaustedError as e:
            raised.append(e.panel)
    return raised


@pytest.mark.parametrize("token", ["exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:2,2", "floor",
                                   "cattiaux:1.5,1.9", "expr:floor(abs(x)) + 0.5*floor(x)"])
def test_refine_log_panels_batch_equals_single_intervals(token):
    # one batched call gives each interval the log integral and error that a
    # call for that interval alone gives, bit for bit.  An interval
    # straddling a jump raises at MAX_DEPTH, alone and in a batch, unless
    # rounding puts a bisection point on the jump and no node past it
    pot = msr.Potential.from_string(token)
    lo, hi = _test_intervals()
    jump = _jumps_inside(pot, lo, hi)
    for logf in (lambda x: -pot.value(x), lambda x: 0.4 * pot.value(x)):
        raised = _raised_alone(quad.refine_log_panels, logf, lo, hi)
        bad = np.array([r is not None for r in raised])
        assert not (bad & ~jump).any() and bad.any() == ("floor" in token)
        if bad.any():  # the batch names the worst of the panels the intervals name alone
            with pytest.raises(DepthExhaustedError) as exc:
                quad.refine_log_panels(logf, lo, hi, 1e-9)
            assert exc.value.panel in raised and exc.value.panel[2] == max(r[2] for r in raised if r)
        lo_ok, hi_ok = lo[~bad], hi[~bad]
        logs, errs, panels, counts = quad.refine_log_panels(logf, lo_ok, hi_ok, 1e-9)
        single = [quad.refine_log_panels(logf, lo_ok[i : i + 1], hi_ok[i : i + 1], 1e-9) for i in range(len(lo_ok))]
        assert np.array_equal(logs, [s[0][0] for s in single])
        assert np.array_equal(errs, [s[1][0] for s in single])
        assert panels == sum(s[2] for s in single)
        # each interval's panel count is its count alone, and they sum to panels_used
        assert np.array_equal(counts, [s[2] for s in single])
        assert counts.sum() == panels


def _refine_log_panels_reference(logf, lo, hi, ptol):
    """The former refinement loop: segment totals by ``ufunc.at`` at every
    depth, boolean masks, and a compaction after every iteration, under
    today's acceptance rule."""
    pa, pb = np.array(lo, dtype=float), np.array(hi, dtype=float)
    seg = np.arange(len(pa), dtype=np.int64)
    acc, accerr = np.full(len(pa), -np.inf), np.full(len(pa), -np.inf)
    panels_used, depth = 0, 0
    while len(pa):
        logk, err = quad._gk_log(logf, pa, pb)
        panels_used += len(pa)
        seg_tot = acc.copy()
        np.logaddexp.at(seg_tot, seg, logk)
        share = np.subtract(logk, seg_tot[seg], out=np.full(len(logk), -np.inf), where=logk > -np.inf)
        floor = math.ldexp(ptol, -min(depth, quad._FLOOR_DEPTH))
        ok = (err * np.exp(share) <= floor) | (err <= quad._ACCEPT_ULPS * np.spacing(np.abs(logk)))
        if depth >= quad.MAX_DEPTH and not ok.all():
            worst = int(np.argmax(np.where(ok, -np.inf, err)))
            raise DepthExhaustedError(
                "log-space adaptive refinement exhausted MAX_DEPTH",
                (float(pa[worst]), float(pb[worst]), float(err[worst])),
            )
        np.logaddexp.at(acc, seg[ok], logk[ok])
        np.logaddexp.at(accerr, seg[ok], logk[ok] + np.log(np.maximum(err[ok], 1e-300)))
        pa, pb, seg = pa[~ok], pb[~ok], seg[~ok]
        if len(pa):
            mid = 0.5 * (pa + pb)
            pa, pb, seg = np.concatenate([pa, mid]), np.concatenate([mid, pb]), np.concatenate([seg, seg])
            depth += 1
    empty = acc == -np.inf
    seg_errs = np.exp(accerr - np.where(empty, 0.0, acc))
    seg_errs[empty] = 0.0
    return acc, seg_errs, panels_used


@pytest.mark.parametrize("token", ["exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:2,2", "floor",
                                   "cattiaux:1.5,1.9", "expr:floor(abs(x)) + 0.5*floor(x)"])
def test_refine_log_panels_equals_former_loop(token):
    # the leaner iterations accumulate each segment's panels in the same
    # order, so logs, errors and panel counts are the same bit for bit, and
    # where intervals raise at a jump, both raise the same error
    pot = msr.Potential.from_string(token)
    lo, hi = _test_intervals()
    for logf in (lambda x: -pot.value(x), lambda x: 0.4 * pot.value(x)):
        raised = _raised_alone(quad.refine_log_panels, logf, lo, hi)
        assert _raised_alone(_refine_log_panels_reference, logf, lo, hi) == raised
        ok = np.array([r is None for r in raised])
        got = quad.refine_log_panels(logf, lo[ok], hi[ok], 1e-9)
        want = _refine_log_panels_reference(logf, lo[ok], hi[ok], 1e-9)
        np.testing.assert_array_equal(got[0], want[0])
        assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
        if not ok.all():
            errors = []
            for refine in (quad.refine_log_panels, _refine_log_panels_reference):
                with pytest.raises(DepthExhaustedError) as exc:
                    refine(logf, lo, hi, 1e-9)
                errors.append((str(exc.value), exc.value.panel))
            assert errors[0] == errors[1]


def test_refine_log_panels_strict_max_depth_raises_as_former_loop():
    # jumps of 3 and 7 nats stay unresolved at MAX_DEPTH: both loops raise
    # the same error, naming the panel with the larger error, at the 7-nat jump
    def logf(x):
        return np.where(x < 1.0, 0.0, -3.0) + np.where(x < 2.5, 0.0, -7.0)

    raised = []
    for refine in (quad.refine_log_panels, _refine_log_panels_reference):
        with pytest.raises(DepthExhaustedError) as exc:
            refine(logf, [0.3, 2.1], [1.95, 3.0], 1e-12)
        raised.append((str(exc.value), exc.value.panel))
    assert raised[0] == raised[1]
    a, b, _ = raised[0][1]
    assert a <= 2.5 <= b


def test_refine_log_panels_converges_on_a_cusp():
    # 1 / (1 + |t|^0.05) has a cusp at 0 whose relative K15/G7 error is the
    # same at every scale: the panels at 0 hold a vanishing share of the
    # mass and are accepted by the floor, not refined to MAX_DEPTH.  With
    # t = u^20 the integral is that of the rational 20 u^19 / (1 + u)
    logs, errs, panels, _ = quad.refine_log_panels(lambda t: -np.log1p(np.abs(t) ** 0.05), [0.0], [2.0], 1e-9)
    mpmath.mp.dps = 30
    exact = float(mpmath.log(mpmath.quad(lambda u: 20 * u**19 / (1 + u), [0, mpmath.mpf(2) ** (mpmath.mpf(1) / 20)])))
    assert abs(logs[0] - exact) <= 1e-12
    assert errs[0] <= 2e-9 and panels < 200


def _gaussian_log_mass(a, b):
    """log int_a^b exp(-x^2/2), from erfc on one side of 0 so that no digits cancel."""
    r = math.sqrt(0.5)
    if a >= 0.0:
        d = math.erfc(a * r) - math.erfc(b * r)
    elif b <= 0.0:
        d = math.erfc(-b * r) - math.erfc(-a * r)
    else:
        d = math.erf(b * r) - math.erf(a * r)
    return 0.5 * math.log(0.5 * math.pi) + math.log(d)


def _exp_log_mass(a, b):
    """log int_a^b exp(-x)."""
    return -a + math.log(-math.expm1(-(b - a)))


_CLOSED_FORMS = {
    "exp": (lambda x: -x, _exp_log_mass, st.floats(-100.0, 100.0), st.floats(1e-3, 50.0)),
    "gaussian": (lambda x: -0.5 * x * x, _gaussian_log_mass, st.floats(-10.0, 10.0), st.floats(0.05, 6.0)),
}


@pytest.mark.parametrize("family", sorted(_CLOSED_FORMS))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), digits=st.integers(8, 11))
def test_refine_log_panels_closed_forms_within_ptol(family, data, digits):
    # each segment's log integral is within ptol of the closed form, and its
    # seg_errs, the estimated relative error, stays within a small multiple of ptol
    logf, exact, starts, widths = _CLOSED_FORMS[family]
    segments = data.draw(st.lists(st.tuples(starts, widths), min_size=1, max_size=6))
    lo = np.array([a for a, _ in segments])
    hi = lo + np.array([w for _, w in segments])
    ptol = 10.0**-digits
    logs, errs, _, _ = quad.refine_log_panels(logf, lo, hi, ptol)
    want = np.array([exact(a, b) for a, b in zip(lo, hi)])
    assert np.all(np.abs(logs - want) <= ptol)
    assert np.all(errs <= 2.0 * ptol)


@pytest.mark.parametrize("ptol", [1e-9, 1e-11])
@pytest.mark.parametrize("slope", [3000.0, -3000.0])
def test_needle_cell_closed_form_in_few_panels(slope, ptol):
    # V = -+3000 t rises by 1178 nats inside one GRID_STEP cell, as V does
    # across a scan cell of nu22 near x = 800; nearly all of the cell's mass
    # sits in one end panel, and the panels holding slivers of it stop early
    # (accepted one by one at ptol, the cell took 33 panels at 1e-9 and 57 at 1e-11)
    b = quad.GRID_STEP
    logs, errs, panels, _ = quad.refine_log_panels(lambda t: slope * t, [0.0], [b], ptol)
    if slope > 0.0:
        exact = slope * b - math.log(slope) + math.log1p(-math.exp(-slope * b))
    else:
        exact = -math.log(-slope) + math.log(-math.expm1(slope * b))
    assert abs(logs[0] - exact) <= ptol
    assert errs[0] <= 2.0 * ptol
    assert panels < 30


def test_ladder_queries_refine_partial_cells_in_blocks(monkeypatch):
    # a batch of 1000 points is refined at most _LADDER_BLOCK partial cells
    # per call, and each point reads what it reads alone, bit for bit
    pot = msr.Potential.builtin("sinpower", 2, 1)
    ladder = quad.LogLadder(lambda x: -pot.value(x), np.linspace(0.0, 40.0, 41), 1e-11)
    xs = np.random.default_rng(3).uniform(0.0, 40.0, 1000)
    lengths = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: lengths.append(len(a[1])) or refine(*a, **k))
    upper, lower = ladder.upper(xs), ladder.lower(xs)
    assert sum(lengths) == 2 * len(xs) and max(lengths) <= quad._LADDER_BLOCK
    for i in range(0, len(xs), 97):
        assert upper[i] == ladder.upper(xs[i : i + 1])[0] and lower[i] == ladder.lower(xs[i : i + 1])[0]


def _former_prefix_suffix(logf, edges, after):
    """The former panel_log_prefix/suffix: one refinement call over all cells,
    then the mass beyond the end folded in after the accumulation."""
    seg, _, _, _ = quad.refine_log_panels(logf, edges[:-1], edges[1:], 1e-9)
    prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(seg)])
    suffix = np.empty(len(edges))
    suffix[-1] = after
    suffix[:-1] = np.logaddexp(np.logaddexp.accumulate(seg[::-1])[::-1], after)
    return prefix, suffix


@pytest.mark.parametrize("token", ["exp", "sinpower:2,1", "floor"])
def test_log_ladder_equals_former_prefix_and_suffix(token):
    # over 192 cells, so the ladder is built in more than one block
    pot = msr.Potential.from_string(token)
    logf = lambda x: -pot.value(x)
    edges = np.unique(np.concatenate([np.linspace(0.0, 40.0, 450), pot.breakpoints(0.0, 40.0)]))
    ladder = quad.LogLadder(logf, edges, 1e-9)
    for after in (-np.inf, -41.2, -0.9):
        ladder._close(after)  # the mass beyond the end, as a growing ladder sets it
        prefix, suffix = _former_prefix_suffix(logf, edges, after)
        assert np.array_equal(ladder.prefix, prefix) and np.array_equal(ladder.suffix, suffix)
        assert np.array_equal(ladder.lower(edges), prefix)  # no partial cell at an edge


def _sequential_extension(logf, start, ptol, breakpoints=None):
    """The former ``log_extension``: one doubling chunk per refinement call."""
    total, lo, w = -np.inf, start, 1.0
    while lo + w == lo and w < math.inf:
        w *= 2.0
    spent = 0
    for _ in range(quad._EXTENSION_CHUNKS):
        hi = lo + w
        if hi == math.inf:
            break
        bp = breakpoints(lo, hi) if breakpoints is not None and w <= quad._MAX_SPLIT_WIDTH else None
        edges = quad._initial_edges(lo, hi, bp)
        seg_logs, _, panels, _ = quad.refine_log_panels(logf, edges[:-1], edges[1:], ptol)
        chunk = float(np.logaddexp.reduce(seg_logs))
        total = float(np.logaddexp(total, chunk))
        if chunk < total - quad._NEGLIGIBLE_NATS:
            return total
        spent += panels
        if spent > quad._EXTENSION_PANEL_BUDGET:
            raise NonIntegrableError(
                f"tail integral starting at {start:.3g} spent {spent} panels by x={hi:.3g} without converging"
            )
        lo = hi
        w *= 2.0
    if total == -np.inf:
        return total
    raise NonIntegrableError(f"tail integral starting at {start:.3g} did not converge by x={lo:.3g}")


class _SequentialLadder(quad.LogLadder):
    """A ladder whose mass beyond an end is one former extension per point."""

    def extension(self, b):
        ext = lambda t: _sequential_extension(self.logf, t, self.ptol, self.breakpoints)
        return ext(b) if np.ndim(b) == 0 else np.array([ext(t) for t in np.asarray(b).tolist()])


def _scalar_lattice_root(h, lo, hi, h_lo, h_hi, steps=2**40):
    """The former ``quad._lattice_root``: one point per call of the scalar h.
    Smallest lattice point lo + k (hi - lo) / steps, k = 0..steps, where the
    decreasing h is <= 0, given h(hi) <= 0.  When h(lo) > 0 this is the point
    that bisection of [lo, hi] down to one lattice step returns.

    Illinois-modified regula falsi on the lattice indices: the estimate is
    rounded to the lattice strictly inside the bracket, the endpoint kept
    twice in a row has its h halved, and a bisection step follows whenever
    six steps have not halved the bracket.
    """
    if h_lo <= 0.0:
        return lo
    w = (hi - lo) / steps
    k_lo, k_hi = 0, steps
    kept = 0  # +1: hi kept last step, -1: lo kept
    widths = [math.inf] * 6
    while k_hi - k_lo > 1:
        k = (k_lo + k_hi) // 2
        if k_hi - k_lo <= 0.5 * widths[-6]:
            est = k_hi - h_hi * (k_hi - k_lo) / (h_hi - h_lo)
            if math.isfinite(est):
                k = min(max(round(est), k_lo + 1), k_hi - 1)
        widths.append(k_hi - k_lo)
        hk = h(lo + k * w)
        if hk <= 0.0:
            k_hi, h_hi = k, hk
            if kept == -1:
                h_lo *= 0.5
            kept = -1
        else:
            k_lo, h_lo = k, hk
            if kept == 1:
                h_hi *= 0.5
            kept = 1
    return lo + k_hi * w


def _scalar_root(h, xs, hs, steps):
    """``quad._lattice_root`` by the former search: the scalar one over all
    of [xs[0], xs[-1]], from h at its ends, reading no point between."""
    return _scalar_lattice_root(lambda t: float(h(np.array([t]))[0]), float(xs[0]), float(xs[-1]),
                                float(hs[0]), float(hs[-1]), steps)


def _sequential_truncation_point(potential, eps):
    """The former truncation search: its ladder grows one doubling chunk per
    call, h reads ``upper`` and ``lower`` in a call each, and the root is
    the former scalar search's."""
    log_eps = math.log(eps)
    ptol = max(quad.REL_TOL * 0.1, 1e-14)

    def h(ladder, x):
        x = np.atleast_1d(x)
        return ladder.upper(x) - log_eps - ladder.lower(x)

    def one_side(sign):
        logf = lambda s: -potential.value(sign * s)
        ladder = _SequentialLadder(logf, [0.0], ptol, breakpoints=potential.side_breakpoints(sign))
        total, hi = -np.inf, 1.0
        while True:
            before = len(ladder.cells)
            ladder._append(hi)
            chunk = float(np.logaddexp.reduce(ladder.cells[before:]))
            total = float(np.logaddexp(total, chunk))
            last = 2.0 * hi > 1e6
            if last or chunk < total - quad._NEGLIGIBLE_NATS:
                ladder._close()
                if last or h(ladder, hi)[0] <= 0.0:
                    break
            hi *= 2.0
        xs = 2.0 ** np.arange(round(math.log2(hi)) + 1)
        hs = h(ladder, xs)
        k = int(np.argmax(hs <= 0.0))
        lo, h_lo = (xs[k - 1], hs[k - 1]) if k else (1e-3, h(ladder, 1e-3)[0])
        x = _scalar_lattice_root(lambda t: float(h(ladder, t)[0]), float(lo), float(xs[k]), float(h_lo), float(hs[k]))
        return x, ladder

    xr, right = one_side(+1.0)
    if potential.even:
        return xr, {+1: right, -1: right}
    xl, left = one_side(-1.0)
    return max(xr, xl), {+1: right, -1: left}


def _sequential_measure(potential):
    X, ladders = _sequential_truncation_point(potential, msr.DEFAULT_EPS_TRUNC)
    log_z = float(np.logaddexp(ladders[+1].suffix[0], ladders[-1].suffix[0]))
    median = 0.0 if potential.even else msr._ladder_quantile(ladders, log_z, 0.5)
    return msr.Measure1D(potential=potential, log_z=log_z, median=median, truncation=X, ladders=ladders)


@pytest.mark.parametrize("token", ["exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:1.5,1", "sinpower:2,2",
                                   "floor", "cattiaux:1.5,1.9", "expr:abs(x)^1.5+0.5*x",
                                   "expr:floor(abs(x)) + 0.8*floor(x)"])
def test_batched_truncation_and_extensions_equal_one_chunk_per_call(token, monkeypatch):
    # batched ladder chunks and extension chunks, cut back at the stop, far
    # tail points in lockstep and roots read in fans give what one chunk
    # per call and the former scalar root search give, bit for bit
    pot = msr.Potential.from_string(token)
    got = msr.normalize(pot)
    ps = (1e-20, 1e-15, 1e-10, 1e-5, 1e-3, 0.3, 1.0 - 1e-15, 1.0 - 1e-10, 1.0 - 1e-5, 0.999, 0.7)
    got_quantiles = [msr.quantile(got, p) for p in ps]
    monkeypatch.setattr(quad, "_lattice_root", _scalar_root)
    want = _sequential_measure(pot)
    assert (got.truncation, got.log_z, got.median) == (want.truncation, want.log_z, want.median)
    for sign in (+1, -1):
        for name in ("edges", "cells", "prefix", "suffix"):
            assert getattr(got.ladders[sign], name).tobytes() == getattr(want.ladders[sign], name).tobytes()
    end = max(got.ladders[+1].edges[-1], got.ladders[-1].edges[-1])
    xs = np.concatenate([np.linspace(-6.0 * end, 6.0 * end, 61), [-1e5, 1e5]])
    assert msr.log_tail(got, xs).tobytes() == msr.log_tail(want, xs).tobytes()
    assert msr.log_cdf(got, xs).tobytes() == msr.log_cdf(want, xs).tobytes()
    assert got_quantiles == [msr.quantile(want, p) for p in ps]


def test_speculative_chunks_raise_only_where_one_chunk_per_call_raises():
    # V is nan on 45 < |x| < 60: the Gaussian ladder ends at 32, and its
    # extension stops at 39, before the nan; the batch [32, 47] of that
    # extension holds it, and is redone one chunk per call
    m = msr.normalize(msr.Potential.from_string("expr:x^2/2 + 0*sqrt((abs(x)-45)*(abs(x)-60))"))
    assert m.truncation == 7.130506848174264  # the Gaussian's
    # nan from 34 on is reached by the chunk [33, 35], and named there
    with pytest.raises(DomainValidationError, match=r"nan on the panel \[33, 35\]"):
        msr.normalize(msr.Potential.from_string("expr:x^2/2 + 0*sqrt((abs(x)-34)*(abs(x)-60))"))
    # V = |x|^3 stops its ladder at 8 and its extension at 11, and is nan on
    # 17 < |x| < 21: a ladder batch [0, 32] and an extension batch [8, 23]
    # hold the nan, and are redone one chunk per call
    got = msr.normalize(msr.Potential.from_string("expr:abs(x)^3 + 0*sqrt((abs(x)-17)*(abs(x)-21))"))
    want = msr.normalize(msr.Potential.from_string("expr:abs(x)^3"))
    assert (got.truncation, got.log_z) == (want.truncation, want.log_z)
    assert got.ladders[+1].suffix.tobytes() == want.ladders[+1].suffix.tobytes()


_CORPUS_TOKENS = ("exp", "gaussian", "power:1.5", "sinpower:2,1", "sinpower:1.5,1", "sinpower:2,2", "floor",
                  "cattiaux:1.5,1.9")
_ROOT_PS = (1e-300, 1e-15, 1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6)


def _random_potentials(seed, count):
    """Potentials drawn as the metamorphic oracles of ROADMAP item 18 draw
    them: 0.5 |x|^p, p in [1.2, 2.5], plus one or two terms of c |x|^q,
    c x^2, c sin(a x), c cos(x) and c log(1 + |x|)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = f"0.5*abs(x)^{rng.uniform(1.2, 2.5):.3f}"
        for _ in range(rng.randint(1, 2)):
            kind, c = rng.choice(["pow", "sq", "sin", "cos", "log"]), rng.uniform(-1.0, 1.0)
            if kind == "pow":
                text += f" + {rng.uniform(0.1, 1.0):.3f}*abs(x)^{rng.uniform(1.0, 2.5):.3f}"
            elif kind == "sq":
                text += f" + {rng.uniform(0.0, 0.5):.3f}*x^2"
            else:
                body = {"sin": f"sin({rng.uniform(0.5, 3.0):.3f}*x)", "cos": "cos(x)", "log": "log(1+abs(x))"}[kind]
                text += f" {'+' if c >= 0.0 else '-'} {abs(c):.3f}*{body}"
        out.append("expr:" + text)
    return out


def _root_outcome(token):
    """T, log Z, the median and the quantiles at _ROOT_PS, as float.hex."""
    m = msr.normalize(msr.Potential.from_string(token))
    return [v.hex() for v in (m.truncation, m.log_z, m.median, *(msr.quantile(m, p) for p in _ROOT_PS))]


def test_fanned_roots_equal_the_former_scalar_search(monkeypatch):
    # the truncation search narrowed to a ladder cell and read in fans, and
    # the median and quantiles read the same way, give the former
    # one-point-per-call search's floats on the corpus, four uneven or
    # jumping expressions and 20 random potentials
    tokens = [*_CORPUS_TOKENS, "expr:abs(x)^1.5+0.5*x", "expr:x^2/2+sin(x)", "expr:floor(abs(x)) + 0.8*floor(x)",
              "expr:x^2/2+floor(x)", *_random_potentials(18, 20)]
    got = [_root_outcome(t) for t in tokens]
    monkeypatch.setattr(quad, "_lattice_root", _scalar_root)
    for token, outcome in zip(tokens, got):
        assert _root_outcome(token) == outcome, token


@pytest.mark.parametrize("token", ["gaussian", "sinpower:2,2"])
def test_truncation_root_in_few_calls(token, monkeypatch):
    # an even potential's one truncation root reads h, one upper_lower call
    # each, in 2 fans here; the former scalar search read it 8 times
    counts, root = [], quad._lattice_root

    def counting(h, *rest):
        calls = []
        out = root(lambda t: calls.append(len(t)) or h(t), *rest)
        counts.append(len(calls))
        return out

    monkeypatch.setattr(quad, "_lattice_root", counting)
    msr.normalize(msr.Potential.from_string(token))
    assert len(counts) == 1 and counts[0] <= 3


@pytest.mark.parametrize("steps", [2**10, 2**40, 2**48])
def test_lattice_root_equals_the_scalar_search(steps):
    # on smooth, kinked and rounded (flat over many lattice steps) decreasing
    # functions, with known points inside the bracket or not, the fans find
    # the scalar search's lattice point
    rng = np.random.default_rng(steps)
    shapes = [lambda t, r: r - t, lambda t, r: np.exp(-t) - np.exp(-r), lambda t, r: np.round(1e3 * (r - t)) / 1e3,
              lambda t, r: np.where(t < r, (r - t) ** 3, r - t), lambda t, r: np.where(t < r, 11.0 - t, -t)]
    for f in shapes:
        for r in rng.uniform(0.5, 9.5, 6).tolist():
            h = lambda t: f(np.asarray(t, dtype=float), r)
            for xs in (np.array([0.0, 10.0]), np.linspace(0.0, 10.0, 9)):
                assert quad._lattice_root(h, xs, h(xs), steps) == _scalar_root(h, xs, h(xs), steps)


def test_refine_log_panels_lean_first_pass_equals_former_loop():
    # batches whose intervals all pass whole in the first pass skip the
    # accumulation: they, batches that do not and rows without mass give the
    # former loop's floats, signs of zero included; a row reaching +inf or
    # nan raises the former loop's error
    gauss, nu2, floor = (lambda x, p=msr.Potential.from_string(t): -p.value(x)
                         for t in ("gaussian", "sinpower:2,1", "floor"))
    no_mass = lambda x: np.where((x > 1.0) & (x < 2.0), -np.inf, gauss(x))
    short, units = np.arange(0.0, 6.0, 1e-3) + 0.1, np.arange(-6.0, 6.0)
    cells = quad._initial_edges(-9.0, 9.0, np.pi * np.arange(-2, 3))
    cases = [(gauss, short, short + 1e-3), (floor, units, units + 1.0),
             (lambda x: np.zeros_like(x), units, units + 1.0),
             (gauss, np.array([0.0, 2.5]), np.array([2.5, 9.0])), (nu2, cells[:-1], cells[1:]),
             (lambda x: floor(x) - 3.0 * x * x, units, units + 1.0),
             (no_mass, np.array([1.2, 0.5, 1.0, 2.0]), np.array([1.8, 1.0, 2.0, 3.0])), (no_mass, [1.2], [1.8])]
    for f, lo, hi in cases:
        got, want = quad.refine_log_panels(f, lo, hi, 1e-11), _refine_log_panels_reference(f, lo, hi, 1e-11)
        assert np.array_equal(got[0], want[0]) and np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]
    # the first three cases pass whole in the first pass, the next three do not
    one_pass = [quad.refine_log_panels(f, lo, hi, 1e-11)[2] == len(lo) for f, lo, hi in cases[:6]]
    assert one_pass == [True] * 3 + [False] * 3
    for bad in (np.inf, np.nan):
        spoiled = lambda x: np.where((x > 1.0) & (x < 1.5), bad, gauss(x))
        errors = []
        for refine in (quad.refine_log_panels, _refine_log_panels_reference):
            with pytest.raises(DomainValidationError) as exc:
                refine(spoiled, np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1e-11)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("token", ["exp", "gaussian", "power:1.5", "sinpower:2,1"])
def test_normalize_refinement_calls(token, monkeypatch):
    # the batched truncation search normalizes in at most 12 calls (one
    # chunk per call took 21-26)
    calls = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: calls.append(1) or refine(*a, **k))
    msr.normalize(msr.Potential.from_string(token))
    assert len(calls) <= 12


@pytest.mark.parametrize("token", ["gaussian", "cattiaux:1.5,1.9", "sinpower:2,1", "power:1.5", "floor"])
def test_lockstep_extension_equals_one_extension_per_start(token, monkeypatch):
    # 300 far tail points share each round's refinement calls (one
    # extension per point took 300-900), and each reads what an extension
    # of its own reads, bit for bit
    m = msr.normalize(msr.Potential.from_string(token))
    ladder = m.ladders[+1]
    xs = np.concatenate([np.linspace(2.0 * ladder.edges[-1], 20.0 * ladder.edges[-1], 298)[1:], [1e5, 1e200, 1e300]])
    alone = np.array([ladder.extension(x) for x in xs.tolist()])
    calls = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: calls.append(1) or refine(*a, **k))
    assert ladder.extension(xs).tobytes() == alone.tobytes()
    assert len(calls) <= len(xs) // 10
    assert msr.log_tail(m, xs).tobytes() == (alone - m.log_z).tobytes()


def test_lockstep_extension_raises_for_the_first_start_that_raises():
    # V is nan past |x| = 200: each far point's extension raises at its own
    # first chunk, and the lockstep raises the first point's error
    m = msr.normalize(msr.Potential.from_string("expr:abs(x)^1.5 + 0*sqrt(200-abs(x))"))
    for xs, panel in (([900.0, 300.0], r"\[900, 901\]"), ([250.0, 900.0], r"\[250, 251\]"),
                      ([150.0, 1e5, 300.0], r"\[100000, 100001\]")):
        with pytest.raises(DomainValidationError, match=panel):
            m.ladders[+1].extension(np.array(xs))
    # no breakpoints at the 2-nat jumps at 7.3 and past it: the chunks of
    # starts 0 and 3 that hold 7.3 share a call, and start 3's panel there
    # has the larger error; the lockstep raises start 0's, as one extension
    # per start does
    logf = lambda t: -0.05 * t - 2.0 * (np.floor(t + 0.5) % 2) * (t > 7.3)
    with pytest.raises(DepthExhaustedError) as alone:
        _sequential_extension(logf, 0.0, 1e-11)
    with pytest.raises(DepthExhaustedError) as lockstep:
        quad.log_extension(logf, np.array([0.0, 3.0]), 1e-11)
    assert str(lockstep.value) == str(alone.value)


@pytest.mark.parametrize("budget", [30, 100, 400, 2000])
def test_lockstep_extension_counts_the_panel_budget_as_one_start_does(budget, monkeypatch):
    # with a small panel budget the starts raise at different chunks: the
    # lockstep raises the first failing start's error, with its exact panel count
    monkeypatch.setattr(quad, "_EXTENSION_PANEL_BUDGET", budget)
    pot = msr.Potential.builtin("sinpower", 1.5, 1)
    logf = lambda t: -0.05 * pot.value(t)
    starts = np.linspace(10.0, 400.0, 40)
    outcomes = []
    for run in (lambda: [_sequential_extension(logf, s, 1e-11, pot.breakpoints) for s in starts.tolist()],
                lambda: quad.log_extension(logf, starts, 1e-11, pot.breakpoints).tolist()):
        try:
            outcomes.append(run())
        except NonIntegrableError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


def _outcome(run):
    try:
        return run()
    except (DomainValidationError, NonIntegrableError) as e:
        return str(e)


def _record_calls(monkeypatch):
    """Patch quad to list each ``refine_log_panels`` call and each probe (a
    ``_gk_log`` call outside one) as [kind, intervals, raised]."""
    calls, inside = [], []
    refine, gk_log = quad.refine_log_panels, quad._gk_log

    def refining(logf, lo, *rest):
        entry = ["refine", len(lo), True]
        calls.append(entry)
        inside.append(entry)
        try:
            out = refine(logf, lo, *rest)
        finally:
            inside.pop()
        entry[2] = False
        return out

    def probing(logf, a, b):
        if inside:  # a refinement's own panels
            return gk_log(logf, a, b)
        entry = ["probe", len(a), True]
        calls.append(entry)
        out = gk_log(logf, a, b)
        entry[2] = False
        return out

    monkeypatch.setattr(quad, "refine_log_panels", refining)
    monkeypatch.setattr(quad, "_gk_log", probing)
    return calls


@pytest.mark.parametrize("starts", [[0.0], [0.0, 5.0, 2e3]])
@pytest.mark.parametrize("logf", [lambda t: np.where(t < 3e5, -np.inf, np.nan),
                                  lambda t: np.where(t < 3e5, -np.inf, np.where(t < 1e7, -1e-4 * (t - 3e5), np.nan))],
                         ids=["mass-free", "mass-past-3e5"])
def test_probe_call_that_raises_equals_one_chunk_per_call(starts, logf, monkeypatch):
    # the probe of the chunks wider than _MAX_SPLIT_WIDTH, shared by the
    # starts, reaches a nan past 3e5 (no mass before it) or past 1e7 (mass
    # from 3e5 on, whose extension stops before 1e7): it is redone one start
    # per call, then one chunk per call, and each start raises, or not,
    # where the former loop does
    want = _outcome(lambda: [_sequential_extension(logf, s, 1e-11) for s in starts])
    calls = _record_calls(monkeypatch)
    assert _outcome(lambda: quad.log_extension(logf, np.array(starts), 1e-11).tolist()) == want
    kind, chunks, _ = next(c for c in calls if c[2])
    assert kind == "probe" and chunks > len(starts)  # the first call that raised is a probe of several chunks


def test_start_sharing_a_probe_call_that_raises_is_redone_in_one_call(monkeypatch):
    # start 0 finds mass on (2e4, 3e4) and stops before the nan on (1e6,
    # 2e6) that its probe reaches; start 1e9, mass-free, shares that probe
    # call and redoes its ~385 probed chunks in one call of its own, not one
    # per chunk
    def logf(t):
        with np.errstate(invalid="ignore"):
            return np.where((t > 1e6) & (t < 2e6), np.nan, np.where((t > 2e4) & (t < 3e4), -1e-2 * (t - 2e4), -np.inf))

    want = [_sequential_extension(logf, s, 1e-11) for s in (0.0, 1e9)]
    calls = _record_calls(monkeypatch)
    assert quad.log_extension(logf, np.array([0.0, 1e9]), 1e-11).tolist() == want
    assert want[1] == -np.inf and len(calls) <= 20


def test_mass_free_extension_in_few_calls(monkeypatch):
    # exp(-V) is 0 from 800 on: the chunks wider than _MAX_SPLIT_WIDTH are
    # probed together (one chunk per call took 400 calls)
    m = msr.normalize(msr.Potential.from_string("expr:exp(abs(x))"))
    calls = _record_calls(monkeypatch)
    assert msr.log_tail(m, 800.0) == -np.inf
    assert len(calls) <= 10
    assert np.array_equal(msr.log_tail(m, np.array([800.0, 900.0, 1e4, 1e6])), np.full(4, -np.inf))
    # mass found by a probe, past empty chunks of widths up to 2^16, is
    # refined as one chunk per call refines it
    logf = lambda t: np.where(t < 1e5, -np.inf, -1e-4 * (t - 1e5))
    assert quad.log_extension(logf, 0.0, 1e-11) == _sequential_extension(logf, 0.0, 1e-11)
