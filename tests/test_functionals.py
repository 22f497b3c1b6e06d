import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import concentration as conc
from hardylab import criteria
from hardylab import functionals as fn
from hardylab import measure as msr
from hardylab import quad
from hardylab.errors import BracketError, DomainValidationError, EnergyGuardError
from hardylab.functionals import _expect

# Every public function that takes the inequality exponent r, called with
# (measure, positive test function, r); each checks r through ``_dual``.
_R_ENTRY_POINTS = {
    "criteria.bmls": lambda m, f, r: criteria.bmls(m, r),
    "criteria.blo": lambda m, f, r: criteria.blo(m, r),
    "criteria.bweighted": lambda m, f, r: criteria.bweighted(m, r),
    "criteria.hyp_mls_check": lambda m, f, r: criteria.hyp_mls_check(m, r, 0.1),
    "criteria.asymptotic_conditions": lambda m, f, r: criteria.asymptotic_conditions(m, r),
    "functionals.lo_lhs": lambda m, f, r: fn.lo_lhs(m, f, r),
    "functionals.f_r": lambda m, f, r: fn.f_r(r, 1.0),
    "functionals.phi": lambda m, f, r: fn.phi(r, 1.0),
    "functionals.energy(mls)": lambda m, f, r: fn.energy(m, f, "mls", r=r),
    "functionals.energy(weighted)": lambda m, f, r: fn.energy(m, f, "weighted", r=r),
    "functionals.energy(frsob)": lambda m, f, r: fn.energy(m, f, "frsob", r=r),
    "concentration.two_level_bound": lambda m, f, r: conc.two_level_bound(1.0, r, 1.0, 1.0, 1.0),
    "concentration.deviation_experiment": lambda m, f, r: conc.deviation_experiment(m, 2, "max", [1.0], 100, 0, 1.0, r),
    "concentration.enlargement_experiment": lambda m, f, r: conc.enlargement_experiment(m, 2, (1.0,), 100, 0, 1.0, r),
    "concentration.lipschitz_gradient_check": lambda m, f, r: conc.lipschitz_gradient_check(r, 1.0, 100, 0, 2.0, 2),
}


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, math.nan, None])
@pytest.mark.parametrize("entry", sorted(_R_ENTRY_POINTS))
def test_every_r_entry_point_refuses_r_outside_1_2(exp_measure, entry, r):
    f = fn.TestFunction.from_expression("exp(x/4)", positive=True)
    with pytest.raises(DomainValidationError, match=r"r must lie in \(1, 2\)"):
        _R_ENTRY_POINTS[entry](exp_measure, f, r)


# ---------------------------------------------------------------------------
# closed-form transforms
# ---------------------------------------------------------------------------


def test_h_values():
    assert fn.h(3.0, 1.0) == 1.0
    assert fn.h(3.0, 2.0) == 8.0
    assert fn.h(3.0, 0.5) == 0.25
    with pytest.raises(DomainValidationError):
        fn.h(1.5, 1.0)


def test_h_star_values():
    assert fn.h_star(3.0, 0.0) == 0.0
    assert fn.h_star(3.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert fn.h_star(4.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert fn.h_star(3.0, 6.0) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)
    with pytest.raises(DomainValidationError):
        fn.h_star(2.0, 1.0)
    with pytest.raises(DomainValidationError, match="nan"):
        fn.h_star(3.0, np.array([1.0, math.nan]))


def test_h_star_branch_continuity():
    for rp in (3.0, 13.0 / 3.0, 6.0):
        for brk in (2.0, rp):
            assert fn.h_star(rp, brk - 1e-13) == pytest.approx(fn.h_star(rp, brk + 1e-13), abs=1e-12)


def test_h_star_matches_numeric_conjugate():
    ts = np.linspace(-20, 20, 161)
    for rp in (3.0, 13.0 / 3.0, 6.0):
        numeric = fn.legendre_numeric(lambda s: fn.h(rp, s), ts, s_range=(-12, 12), s_steps=400_001)
        assert np.max(np.abs(fn.h_star(rp, ts) - numeric)) <= 1e-4


def test_h_star_lower_bound():
    ts = np.linspace(-20, 20, 401)
    for rp in (3.0, 13.0 / 3.0, 6.0):
        r = rp / (rp - 1.0)
        assert np.all(fn.h_star(rp, ts) >= 0.25 * np.minimum(ts**2, np.abs(ts) ** r) - 1e-12)


def _legendre_bruteforce(g, t, s_range, s_steps):
    """max over every grid point of t s - g(s): the oracle for legendre_numeric."""
    s = np.linspace(*s_range, s_steps)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    return np.max(t_arr[:, None] * s[None, :] - np.asarray(g(s), dtype=float)[None, :], axis=1)


_SMALL_GRID = dict(s_range=(-3.0, 3.0), s_steps=2001)


@pytest.mark.parametrize(
    "g",
    [
        *[(lambda rp: lambda s: fn.h(rp, s))(rp) for rp in (2.5, 3.0, 13.0 / 3.0, 8.0)],
        lambda s: np.sin(3.0 * s) + 0.1 * s * s,
        lambda s: np.cos(5.0 * s) - np.abs(s),
        lambda s: -(s**2),
    ],
    ids=["h-2.5", "h-3", "h-13/3", "h-8", "sin-plus-quadratic", "cos-minus-abs", "concave"],
)
def test_legendre_numeric_matches_bruteforce(g):
    ts = np.linspace(-20, 20, 401)
    got = fn.legendre_numeric(g, ts, **_SMALL_GRID)
    np.testing.assert_allclose(got, _legendre_bruteforce(g, ts, **_SMALL_GRID), rtol=1e-12, atol=1e-12)


def test_legendre_numeric_scalar_t():
    g = lambda s: np.sin(3.0 * s) + 0.1 * s * s  # noqa: E731
    for t in (-2.7, 0.0, 0.4, 5.0):
        got = fn.legendre_numeric(g, t, **_SMALL_GRID)
        assert isinstance(got, float)
        assert got == pytest.approx(float(_legendre_bruteforce(g, t, **_SMALL_GRID)[0]), rel=1e-12, abs=1e-12)


def test_legendre_numeric_beyond_steepest_slope():
    # h(3, s) has slope 27 at s = 3, so for |t| > 27 the maximum sits at a
    # grid endpoint, outside the range of the hull slopes
    g = lambda s: fn.h(3.0, s)  # noqa: E731
    ts = np.array([-1e6, -500.0, -27.5, 27.5, 500.0, 1e6])
    got = fn.legendre_numeric(g, ts, **_SMALL_GRID)
    np.testing.assert_allclose(got, _legendre_bruteforce(g, ts, **_SMALL_GRID), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got, np.abs(ts) * 3.0 - 27.0, rtol=1e-12)


def test_legendre_numeric_self_conjugate_quadratic():
    val = fn.legendre_numeric(lambda s: 0.5 * s * s, 1.0, s_range=(-10, 10), s_steps=200_001)
    assert val == pytest.approx(0.5, abs=1e-8)


def test_legendre_numeric_at_zero():
    assert fn.legendre_numeric(lambda s: fn.h(3.0, s), 0.0, s_range=(-10, 10), s_steps=100_001) == pytest.approx(
        0.0, abs=1e-9
    )


@settings(deadline=None, max_examples=30)
@given(
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=-15, max_value=15),
    st.sampled_from([3.0, 13.0 / 3.0, 6.0]),
)
def test_fenchel_young(s, t, rp):
    assert s * t <= fn.h(rp, s) + fn.h_star(rp, t) + 1e-12


def test_f_r_values():
    assert fn.f_r(1.5, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert fn.f_r(1.5, 0.0) == pytest.approx(-math.log(2.0) ** (2.0 / 3.0), rel=1e-14)
    assert fn.f_r(1.5, math.e - 1.0) == pytest.approx(1.0 - math.log(2.0) ** (2.0 / 3.0), rel=1e-12)
    with pytest.raises(DomainValidationError):
        fn.f_r(1.5, -0.5)


def test_phi_dominates_square():
    xs = np.linspace(-30, 30, 301)
    assert np.all(fn.phi(1.5, xs) >= xs**2 - 1e-12)


# ---------------------------------------------------------------------------
# quadrature functionals
# ---------------------------------------------------------------------------


def test_variance_and_entropy_constants(exp_measure):
    c = fn.TestFunction.from_expression("3")
    assert fn.variance(exp_measure, c) == pytest.approx(0.0, abs=1e-9)
    assert fn.entropy_sq(exp_measure, c) == pytest.approx(0.0, abs=1e-8)


def test_variance_exponential(exp_measure):
    fx = fn.TestFunction.from_expression("x")
    assert fn.variance(exp_measure, fx) == pytest.approx(2.0, rel=1e-8)


def test_variance_gaussian(gauss_measure):
    fx = fn.TestFunction.from_expression("x")
    assert fn.variance(gauss_measure, fx) == pytest.approx(1.0, rel=1e-8)


def test_entropy_gaussian_linear(gauss_measure):
    # Ent(x^2) for the standard normal: E x^2 = 1, and differentiating the
    # chi-square moment function gives E x^2 log x^2 = psi(3/2) + log 2 = 2 - gamma - log 2
    fx = fn.TestFunction.from_expression("x")
    oracle = 2.0 - 0.5772156649015329 - math.log(2.0)
    assert fn.entropy_sq(gauss_measure, fx) == pytest.approx(oracle, rel=1e-8)


def test_luxemburg_zero_and_homogeneity(exp_measure):
    zero = fn.TestFunction(value=lambda x: np.zeros_like(np.asarray(x, float)), derivative=lambda x: np.zeros_like(np.asarray(x, float)))
    assert fn.luxemburg(exp_measure, zero, 1.5) == 0.0
    fx = fn.TestFunction.from_expression("x")
    L = fn.luxemburg(exp_measure, fx, 1.5)
    f2 = fn.TestFunction(value=lambda x: -2.5 * np.asarray(x, float), derivative=lambda x: -2.5 * np.ones_like(np.asarray(x, float)))
    assert fn.luxemburg(exp_measure, f2, 1.5) == pytest.approx(2.5 * L, rel=1e-8)


def test_luxemburg_fixed_point_and_l2_bound(exp_measure):
    fx = fn.TestFunction.from_expression("x")
    L = fn.luxemburg(exp_measure, fx, 1.5)
    resid = _expect(exp_measure, lambda x: fn.phi(1.5, fx.value(x) / L))
    assert resid == pytest.approx(1.0, abs=1e-8)
    assert L * L >= 2.0 - 1e-8  # Phi(x) >= x^2 forces L^2 >= int f^2


def test_luxemburg_bracket_failure(exp_measure):
    # f blows up so fast the Phi-integral is not finite on the support
    blow = fn.TestFunction(
        value=lambda x: np.exp(np.exp(np.abs(x))),
        derivative=lambda x: np.exp(np.exp(np.abs(x))),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BracketError):
            fn.luxemburg(exp_measure, blow, 1.5)


def test_lo_lhs_constant_vanishes(exp_measure):
    c = fn.TestFunction.from_expression("5")
    assert fn.lo_lhs(exp_measure, c, 1.5) == pytest.approx(0.0, abs=1e-9)


def test_lo_lhs_dyadic_grid_oracle(exp_measure):
    # independent oracle: moments of |x| under exp(-|x|)/2 are Gamma(1+theta),
    # so the candidate at theta is (2 - Gamma(1+theta)^(2/theta)) / (2-theta)^expo
    fx = fn.TestFunction.from_expression("x")
    r = 1.5
    expo = 2.0 * (1.0 - 1.0 / r)
    best = 0.0
    for j in range(1, 41):
        theta = 2.0 - 2.0**-j
        num = 2.0 - math.gamma(1.0 + theta) ** (2.0 / theta)
        best = max(best, num / (2.0 - theta) ** expo)
    assert fn.lo_lhs(exp_measure, fx, r) == pytest.approx(best, rel=1e-4)


def test_lo_lhs_monotone_in_r(exp_measure):
    fx = fn.TestFunction.from_expression("x")
    assert fn.lo_lhs(exp_measure, fx, 1.8) >= fn.lo_lhs(exp_measure, fx, 1.2) - 1e-10


def test_energy_dirichlet_linear(exp_measure, gauss_measure):
    fx = fn.TestFunction.from_expression("x")
    for m in (exp_measure, gauss_measure):
        assert fn.energy(m, fx, "dirichlet") == pytest.approx(1.0, rel=1e-9)


def test_energy_frsob_tight_at_constants(exp_measure):
    c = fn.TestFunction.from_expression("1")
    assert fn.energy(exp_measure, c, "frsob", r=1.5) == pytest.approx(0.0, abs=1e-10)


def test_energy_mls_closed_form_reduction(exp_measure):
    # |f'/f| = 1/4 <= 1 pointwise, so H_3(f'/f) = 1/16 and the energy is m2/16
    f = fn.TestFunction(
        value=lambda x: np.exp(np.asarray(x, float) / 4.0),
        derivative=lambda x: np.exp(np.asarray(x, float) / 4.0) / 4.0,
        positive=True,
    )
    m2 = _expect(exp_measure, lambda x: np.exp(np.asarray(x, float) / 2.0))
    assert fn.energy(exp_measure, f, "mls", r=1.5) == pytest.approx(m2 / 16.0, rel=1e-6)


def _truncated_moments(family, T):
    """E x^2 and E x^4 over [-T, T]: 2 and 24 under exp, 1 and 3 under the
    gaussian, less their mass past T."""
    if family == "exp":
        e = math.exp(-T)
        return 2.0 - e * (T**2 + 2.0 * T + 2.0), 24.0 - e * (T**4 + 4.0 * T**3 + 12.0 * T**2 + 24.0 * T + 24.0)
    erf, phi = math.erf(T / math.sqrt(2.0)), math.exp(-0.5 * T * T) / math.sqrt(2.0 * math.pi)
    return erf - 2.0 * T * phi, 3.0 * erf - 2.0 * phi * (T**3 + 3.0 * T)


@pytest.mark.parametrize("family", ["exp", "gaussian"])
def test_expect_from_ladder_cells(family, exp_measure, gauss_measure):
    # the adaptive integral starts from the ladders' cells: E x^2 and E x^4
    # agree with the one started from [-T, T] split only at the breakpoints,
    # and with the closed forms, within 1e-12 relative
    m = exp_measure if family == "exp" else gauss_measure
    T = m.truncation
    for k, exact in zip((2, 4), _truncated_moments(family, T)):
        got = _expect(m, lambda x: x**k)
        f = lambda x: x**k * np.exp(-m.potential.value(x) - m.log_z)
        plain = quad.integrate(f, -T, T, m.rel_tol, breakpoints=m.potential.breakpoints(-T, T)).value
        assert got == pytest.approx(plain, rel=1e-12) and got == pytest.approx(exact, rel=1e-12)


def test_expect_keeps_a_first_pass_that_accepts_every_panel(monkeypatch):
    # E[x] under a wide symmetric measure cancels in the one panel [-T, T];
    # started from the ladder cells, its panels refined their rounding
    # against ABS_TOL until PANEL_BUDGET raised.  E[x^2] restarts from the cells
    m = msr.normalize(msr.Potential.from_string("expr:0.1*abs(x)"))
    used, integrate = [], quad.integrate
    monkeypatch.setattr(fn, "integrate", lambda *a, **k: used.append(integrate(*a, **k)) or used[-1])
    assert abs(_expect(m, lambda x: x)) < 1e-12 and used[-1].panels_used == 1
    assert _expect(m, lambda x: x * x) == pytest.approx(200.0, rel=1e-9) and used[-1].panels_used > 1000
    assert fn.variance(m, fn.TestFunction.from_expression("x")) == pytest.approx(200.0, rel=1e-9)


def test_energy_mls_requires_positivity(exp_measure):
    fx = fn.TestFunction.from_expression("x")  # sign-changing, flag unset
    with pytest.raises(DomainValidationError):
        fn.energy(exp_measure, fx, "mls", r=1.5)
    flagged = fn.TestFunction.from_expression("x", positive=True)  # lies about positivity
    with pytest.raises(DomainValidationError):
        fn.energy(exp_measure, flagged, "mls", r=1.5)


def test_energy_weighted_and_itau(gauss_measure):
    fx = fn.TestFunction.from_expression("x")
    w = fn.energy(gauss_measure, fx, "weighted", r=1.5)
    # oracle: E (1 + |x|^0.5) for the standard normal
    oracle = 1.0 + 2.0 ** (0.25) * math.gamma(0.75) / math.sqrt(math.pi)
    assert w == pytest.approx(oracle, rel=1e-8)
    e = fn.energy(gauss_measure, fx, "itau", tau=0.5)
    assert e > 1.0  # log factor exceeds 1 wherever x^2 > e - e... weight >= 1
    with pytest.raises(DomainValidationError):
        fn.energy(gauss_measure, fx, "itau", tau=1.5)


def test_ratio_report_poincare(exp_measure, gauss_measure):
    fx = fn.TestFunction.from_expression("x")
    rep = fn.ratio_report(gauss_measure, fx, "poincare")
    assert rep.ratio == pytest.approx(1.0, rel=1e-8)
    rep2 = fn.ratio_report(exp_measure, fx, "poincare")
    assert rep2.ratio == pytest.approx(2.0, rel=1e-8)


def test_ratio_report_constant_zero(exp_measure):
    c = fn.TestFunction.from_expression("2")
    for kind, kw in (
        ("poincare", {}),
        ("lsi", {}),
        ("lo", {"r": 1.5}),
        ("weighted", {"r": 1.5}),
        ("frsob", {"r": 1.5}),
        ("itau", {"tau": 0.5}),
    ):
        rep = fn.ratio_report(exp_measure, c, kind, **kw)
        assert rep.ratio == pytest.approx(0.0, abs=2e-7)


def test_ratio_report_requires_its_parameter(exp_measure):
    fx = fn.TestFunction.from_expression("x")
    for kind in ("lo", "mls", "weighted", "frsob", "itau"):
        with pytest.raises(DomainValidationError):
            fn.ratio_report(exp_measure, fx, kind)


@pytest.mark.parametrize(
    "call",
    [
        lambda m, f: fn.energy(m, f, "mls"),
        lambda m, f: fn.energy(m, f, "weighted"),
        lambda m, f: fn.energy(m, f, "frsob"),
        lambda m, f: fn.energy(m, f, "itau"),
        lambda m, f: fn.lo_lhs(m, f, None),
    ],
    ids=["mls", "weighted", "frsob", "itau", "lo_lhs"],
)
def test_missing_r_or_tau_raises_domain_error(exp_measure, call):
    f = fn.TestFunction.from_expression("1 + x^2", positive=True)
    with pytest.raises(DomainValidationError):
        call(exp_measure, f)


def test_ratio_report_energy_guard(exp_measure):
    # nonzero lhs with vanishing derivative: guard must trip
    f = fn.TestFunction(
        value=lambda x: np.sign(np.asarray(x, float)),
        derivative=lambda x: np.zeros_like(np.asarray(x, float)),
    )
    with pytest.raises(EnergyGuardError):
        fn.ratio_report(exp_measure, f, "poincare")


def test_itau_report_carries_l2_component(exp_measure):
    fx = fn.TestFunction.from_expression("x")
    rep = fn.ratio_report(exp_measure, fx, "itau", tau=0.5)
    assert rep.parameters["l2_moment"] == pytest.approx(2.0, rel=1e-8)


def test_testfunction_derivative_check(derivative_error):
    f = fn.TestFunction.from_expression("sin(x)*exp(x/8)")
    assert derivative_error(f.value, f.derivative) <= 1e-5


def test_poincare_ratio_below_criterion_upper_bracket(
    exp_measure, gauss_measure, mu15_measure, nu2_measure
):
    # the 4 S_bp bracket is a true upper bound on the Poincare constant, so no
    # Rayleigh quotient may exceed it
    from hardylab import criteria

    fs = [
        fn.TestFunction.from_expression("x"),
        fn.TestFunction.from_expression("x + 0.2*x^3"),
        fn.TestFunction.from_expression("sin(x)"),
    ]
    for m in (exp_measure, gauss_measure, mu15_measure, nu2_measure):
        upper = 4.0 * criteria.bp(m).partial_sups[-1]
        for f in fs:
            rep = fn.ratio_report(m, f, "poincare")
            assert rep.ratio <= upper * (1.0 + 1e-9)
