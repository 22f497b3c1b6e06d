import math

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
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    f = lambda t: np.exp(-pot.value(t))
    bp = pot.breakpoints(0.0, 40.0)
    loose = quad.integrate(f, 0.0, 40.0, quad.QuadConfig(rel_tol=1e-8, abs_tol=1e-12), breakpoints=bp)
    tight = quad.integrate(f, 0.0, 40.0, quad.QuadConfig(rel_tol=5e-9, abs_tol=1e-12), breakpoints=bp)
    assert loose.value == pytest.approx(tight.value, rel=1e-8)
    # and the log-space twin handles exp(+V), which overflows linear floats
    edges = quad._initial_edges(0.0, 40.0, bp)
    log_loose = quad.LogLadder(lambda t: pot.value(t), edges, 1e-11, 48, strict=True).prefix[-1]
    log_tight = quad.LogLadder(lambda t: pot.value(t), edges, 5e-12, 48, strict=True).prefix[-1]
    assert log_loose == pytest.approx(log_tight, abs=1e-8)


def test_integrate_log_closed_form():
    # the log integral of exp(t) over [0, b] on a ladder, from both ends
    ladder = quad.LogLadder(lambda t: np.asarray(t, dtype=float), [0.0, 100.0], 1e-11, 48, strict=True)
    assert ladder.prefix[-1] == pytest.approx(100.0 + math.log1p(-math.exp(-100.0)), abs=1e-8)
    assert ladder.suffix[0] == ladder.prefix[-1]
    # far beyond float range the log stays exact
    huge = quad.LogLadder(lambda t: np.asarray(t, dtype=float), [0.0, 1000.0], 1e-11, 48, strict=True)
    assert huge.prefix[-1] == pytest.approx(1000.0, abs=1e-8)


def test_integrate_log_unit():
    ladder = quad.LogLadder(lambda t: np.zeros_like(np.asarray(t, dtype=float)), [0.0, 1.0], 1e-11, 48, strict=True)
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
        log = quad.LogLadder(g, [a, b], 1e-11, 48, strict=True).prefix[-1]
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
    X, _ = quad.truncation_point(pot, 1e-12)
    assert X == pytest.approx(27.63, abs=1.0)


def test_truncation_point_gaussian():
    # Mills ratio: tail(X) ~ exp(-X^2/2)/X against core sqrt(pi/2)
    pot = msr.make_potential(msr.PotentialSpec.builtin("gaussian"))
    X, _ = quad.truncation_point(pot, 1e-12)
    core = math.sqrt(math.pi / 2.0)

    def predicate(x):
        return math.exp(-x * x / 2.0) / x <= 1e-12 * core

    lo = next(x for x in np.arange(5.0, 9.0, 0.01) if predicate(x))
    assert X == pytest.approx(lo, abs=0.5)


def test_truncation_point_oscillating():
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    X, _ = quad.truncation_point(pot, 1e-12)
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
    # read from the strict ladder, T satisfies the predicate and sits within
    # 1e-10 relative of the exact root, as floor's does in the test above:
    # exp solves e^-X = eps (1 - e^-X).  At the smaller eps the predicate
    # still fails at the first chunk end 55 nats down (128 and 32), so the
    # ladder runs on to the next one
    root = math.log1p(1.0 / eps) if family == "exp" else _gaussian_truncation_root(eps)
    X, ladders = quad.truncation_point(msr.make_potential(msr.PotentialSpec.builtin(family)), eps)
    assert root <= X <= root * (1.0 + 1e-10)
    assert ladders[+1].edges[-1] == end


@pytest.mark.parametrize("x", [0.0, 0.3, 2.5, 27.74, 100.2, 700.9])
def test_log_extension_floor_breakpoints_closed_form(x, panels):
    pot = msr.make_potential(msr.PotentialSpec.builtin("floor"))
    val = quad.log_extension(lambda t: -pot.value(t), x, initial_width=1.0, breakpoints=pot.breakpoints)
    assert val == pytest.approx(math.log(_floor_tail_closed_form(x)), abs=1e-13 * max(1.0, x))
    # split at the unit jumps, every panel of a constant density is accepted
    # whole: one per unit interval (unsplit chunks take about 9000)
    assert panels[0] <= 200


def test_log_extension_mirrored_breakpoints():
    # the left tail of an uneven floor potential, integrated in s = -x
    pot = msr.make_potential(msr.PotentialSpec.from_expression("floor(abs(x)) + 0.5*floor(x)"))
    left = pot.side_breakpoints(-1.0)
    assert left(0.5, 3.5) == [1.0, 2.0, 3.0]
    val = quad.log_extension(lambda s: -pot.value(-s), 2.5, initial_width=1.0, breakpoints=left)
    # V(-s) = floor(s) + 0.5 floor(-s) = 0.5 floor(s) - 0.5 for non-integer s > 0
    q = math.exp(-0.5)
    exact = math.exp(0.5) * (0.5 * q**2 + q**3 / (1.0 - q))
    assert val == pytest.approx(math.log(exact), abs=1e-12)


def test_normalize_floor_panel_gate(panels):
    msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("floor")))
    assert panels[0] < 20000


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
    X, _ = quad.truncation_point(pot, 1e-12)
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


_PERSISTENT_OSCILLATION = """
from hardylab import measure as msr
from hardylab.errors import NonIntegrableError
try:
    msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("2*log(1+abs(x)) + 0.1*sin(x)")))
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
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    for logf in (lambda x: -pot.value(x), lambda x: pot.value(x)):
        logk, err = quad._gk_log(logf, a, b)
        ref_k, ref_err = _gk_log_reference(logf, a, b)
        gx = logf(0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * quad._GK_NODES)
        _assert_within_summand_ulps(a, b, gx, logk, err, ref_k, ref_err)


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


def _refine_log_panels_reference(logf, lo, hi, ptol, max_depth, strict=True):
    """The former refinement loop: segment totals by ``ufunc.at`` at every
    depth, boolean masks, and a compaction after every iteration."""
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
        ok = (err * np.exp(share) <= math.ldexp(ptol, -depth)) | (err <= quad._ACCEPT_ULPS * np.spacing(np.abs(logk)))
        if depth >= max_depth and not ok.all():
            if strict:
                worst = int(np.argmax(np.where(ok, -np.inf, err)))
                raise DepthExhaustedError(
                    "log-space adaptive refinement exhausted max_depth",
                    (float(pa[worst]), float(pb[worst]), float(err[worst])),
                )
            ok[:] = True
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
    # order, so logs, errors and panel counts are the same bit for bit
    pot = msr.make_potential(msr.PotentialSpec.from_string(token))
    rng = np.random.default_rng(7)
    lo = rng.uniform(-30.0, 30.0, 40)
    hi = lo + rng.uniform(1e-3, 4.0, 40)
    lo = np.concatenate([lo, [2.0, 3.0, -4.0, 0.5, -1.5]])
    hi = np.concatenate([hi, [3.0, 5.5, -3.0, 2.5, -0.5]])
    for logf in (lambda x: -pot.value(x), lambda x: 0.4 * pot.value(x)):
        for max_depth in (60, 12):  # at depth 12 the panels at a jump are accepted unresolved
            with np.errstate(divide="ignore", invalid="ignore"):
                got = quad.refine_log_panels(logf, lo, hi, 1e-9, max_depth, strict=False)
                want = _refine_log_panels_reference(logf, lo, hi, 1e-9, max_depth, strict=False)
            np.testing.assert_array_equal(got[0], want[0])
            assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]


def test_refine_log_panels_strict_max_depth_raises_as_former_loop():
    # jumps of 3 and 7 nats stay unresolved at depth 12: both loops raise
    # the same error, naming the panel with the larger error, at the 7-nat jump
    def logf(x):
        return np.where(x < 1.0, 0.0, -3.0) + np.where(x < 2.5, 0.0, -7.0)

    raised = []
    for refine in (quad.refine_log_panels, _refine_log_panels_reference):
        with pytest.raises(DepthExhaustedError) as exc:
            refine(logf, [0.3, 2.1], [1.95, 3.0], 1e-12, 12)
        raised.append((str(exc.value), exc.value.panel))
    assert raised[0] == raised[1]
    a, b, _ = raised[0][1]
    assert a <= 2.5 <= b


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
    logs, errs, _ = quad.refine_log_panels(logf, lo, hi, ptol, 48)
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
    logs, errs, panels = quad.refine_log_panels(lambda t: slope * t, [0.0], [b], ptol, 60)
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
    pot = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    ladder = quad.LogLadder(lambda x: -pot.value(x), np.linspace(0.0, 40.0, 41), 1e-11, 48, strict=True)
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
    seg, _, _ = quad.refine_log_panels(logf, edges[:-1], edges[1:], 1e-9, 60, strict=False)
    prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(seg)])
    suffix = np.empty(len(edges))
    suffix[-1] = after
    suffix[:-1] = np.logaddexp(np.logaddexp.accumulate(seg[::-1])[::-1], after)
    return prefix, suffix


@pytest.mark.parametrize("token", ["exp", "sinpower:2,1", "floor"])
def test_log_ladder_equals_former_prefix_and_suffix(token):
    # over 192 cells, so the ladder is built in more than one block
    pot = msr.make_potential(msr.PotentialSpec.from_string(token))
    logf = lambda x: -pot.value(x)
    edges = np.unique(np.concatenate([np.linspace(0.0, 40.0, 450), pot.breakpoints(0.0, 40.0)]))
    ladder = quad.LogLadder(logf, edges, 1e-9, 60, strict=False)
    for after in (-np.inf, -41.2, -0.9):
        ladder._close(after)  # the mass beyond the end, as a growing ladder sets it
        prefix, suffix = _former_prefix_suffix(logf, edges, after)
        assert np.array_equal(ladder.prefix, prefix) and np.array_equal(ladder.suffix, suffix)
        assert np.array_equal(ladder.lower(edges), prefix)  # no partial cell at an edge
