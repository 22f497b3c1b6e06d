import json
import math
import statistics
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import measure as msr
from hardylab import criteria, expr, quad, scenarios
from hardylab.errors import DomainValidationError, NonIntegrableError, ParseError

# ---------------------------------------------------------------------------
# potential construction
# ---------------------------------------------------------------------------


def test_builtin_values():
    p = msr.Potential.builtin("exp")
    assert p.value(1.0) == 1.0
    assert p.value(-3.0) == 3.0
    s = msr.Potential.builtin("sinpower", 2, 1)
    assert s.value(math.pi) == pytest.approx(math.pi**2, rel=1e-14)
    g = msr.Potential.builtin("gaussian")
    assert g.value(2.0) == 2.0


def test_expression_potential():
    p = msr.Potential.from_expression("abs(x + sin(x))^2")
    assert p.value(math.pi / 2) == pytest.approx((math.pi / 2 + 1) ** 2, rel=1e-14)


@pytest.mark.parametrize(
    "family,params",
    [
        ("power", (0.5,)),  # r < 1
        ("sinpower", (1.0, 1.0)),  # alpha must exceed 1
        ("sinpower", (2.0, -0.1)),  # negative lambda
        ("cattiaux", (2.5, 3.0)),  # r outside (1,2)
        ("cattiaux", (1.5, 1.5)),  # beta - 1 below max(r/2, r - 1/r)
        ("cattiaux", (1.5, 2.2)),  # beta - 1 above r - 1/2
        ("power", ()),  # missing parameter
        ("nosuch", ()),
    ],
)
def test_builtin_parameter_validation(family, params):
    with pytest.raises(DomainValidationError):
        msr.Potential.builtin(family, *params)


def test_expression_parsed_and_compiled_once(monkeypatch):
    calls = {"parse": 0, "compile": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(expr, name, counted(name, getattr(expr, name)))
    pot = msr.Potential.from_string("expr:x^2/2+sin(x)")
    assert calls == {"parse": 1, "compile": 2}  # V and its derivative
    m = msr.normalize(pot)
    criteria.blo(m, 1.5, horizons=(25.0, 50.0))
    assert calls == {"parse": 1, "compile": 2}


def test_expression_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        msr.Potential.from_expression("abs(x")
    assert exc.value.position == 5


def test_potential_must_be_locally_bounded():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(DomainValidationError):
            msr.Potential.from_expression("log(x)")


@pytest.mark.parametrize(
    "spec",
    [
        msr.Potential.builtin("exp"),
        msr.Potential.builtin("gaussian"),
        msr.Potential.builtin("power", 1.5),
        msr.Potential.builtin("sinpower", 2, 1),
        msr.Potential.builtin("sinpower", 2, 2),
        msr.Potential.builtin("cattiaux", 1.5, 1.9),
        msr.Potential.from_expression("x^2/2 + cos(x)"),
    ],
)
def test_analytic_derivatives_match_finite_differences(spec, derivative_error):
    near_kink = lambda x: abs(x) < 0.05  # each potential's only kink is at 0
    assert derivative_error(spec.value, spec.derivative, near_kink) <= 1e-5


# Hand-written numpy closures of the families as the reference: V and V' of
# the family trees must equal them bit for bit, except cattiaux's V', whose
# closure is hand-simplified and so agrees only to rounding.


def _closure_oracle(family, p):
    """(V, V') of ``family`` as closures, V' None for floor."""
    even = lambda f: lambda x: f(np.abs(np.asarray(x, dtype=float)))
    odd = lambda df: lambda x: np.sign(np.asarray(x, dtype=float)) * df(np.abs(np.asarray(x, dtype=float)))
    if family == "exp":
        return even(lambda t: t), odd(lambda t: np.ones_like(t))
    if family == "gaussian":
        return lambda x: 0.5 * np.square(np.asarray(x, dtype=float)), lambda x: np.asarray(x, dtype=float)
    if family == "power":
        (r,) = p
        return (even(lambda t: np.power(t, r)),
                odd(lambda t: r * np.power(t, r - 1.0, where=t > 0, out=np.zeros_like(t))))
    if family == "sinpower":
        alpha, lam = p

        def deriv(t):
            u = t + lam * np.sin(t)
            return alpha * np.power(np.abs(u), alpha - 1.0) * np.sign(u) * (1.0 + lam * np.cos(t))

        return even(lambda t: np.power(np.abs(t + lam * np.sin(t)), alpha)), odd(deriv)
    if family == "cattiaux":
        r, beta = p

        def value(t):
            return np.power(t, r + 1.0) + (r + 1.0) * np.power(t, r) * np.square(np.sin(t)) + np.power(t, beta)

        def deriv(t):
            return (
                (r + 1.0) * (1.0 + np.sin(2.0 * t)) * np.power(t, r)
                + r * (r + 1.0) * np.power(t, r - 1.0, where=t > 0, out=np.zeros_like(t)) * np.square(np.sin(t))
                + beta * np.power(t, beta - 1.0, where=t > 0, out=np.zeros_like(t))
            )

        return even(value), odd(deriv)
    assert family == "floor"
    return even(np.floor), None


_ORACLE_POINTS = np.concatenate([
    [0.0, 1.0, -1.0],
    np.arange(-40, 41) * (math.pi / 2.0),
    np.random.Generator(np.random.PCG64(15)).uniform(-1000.0, 1000.0, 10**5),
])


@pytest.mark.parametrize(
    "family,params",
    [
        ("exp", ()), ("gaussian", ()), ("power", (1.0,)), ("power", (1.5,)), ("power", (2.5,)),
        ("sinpower", (2.0, 1.0)), ("sinpower", (2.0, 2.0)), ("sinpower", (1.5, 1.0)), ("sinpower", (1.5, 0.0)),
        ("sinpower", (2.0, 1e-07)),  # formatted as text, 1e-07 would not parse
        ("cattiaux", (1.5, 1.9)), ("floor", ()),
    ],
)
def test_family_trees_reproduce_the_closures(family, params):
    pot = msr.Potential.builtin(family, *params)
    value, deriv = _closure_oracle(family, params)
    x = _ORACLE_POINTS
    assert pot.value(x).tobytes() == value(x).tobytes()
    if deriv is None:
        assert pot.derivative is None
    elif family == "cattiaux":
        np.testing.assert_allclose(pot.derivative(x), deriv(x), rtol=1e-13, atol=0.0)
    else:
        assert pot.derivative(x).tobytes() == deriv(x).tobytes()


@pytest.mark.parametrize("text,slope", [("abs(x)", 0.0), ("abs(x)^1.5+0.5*x", 0.5)])
def test_abs_derivative_at_its_kink(text, slope):
    # d abs(u) = sign(u) du, which is 0 at u = 0; u/abs(u) would be nan
    # there, with a RuntimeWarning that the test settings turn into an error
    pot = msr.Potential.from_string("expr:" + text)
    assert pot.derivative(0.0) == slope
    assert pot.derivative(np.array([-1.0, 0.0, 1.0]))[1] == slope


def test_builtin_breakpoints_come_from_the_tree():
    for token in ("sinpower:2,1", "cattiaux:1.5,1.9"):
        functions = msr.Potential.from_string(token).functions
        assert "sin" in functions and "floor" not in functions
    pot = msr.Potential.builtin("cattiaux", 1.5, 1.9)
    assert pot.breakpoints(0.0, 7.0) == [math.pi, 2.0 * math.pi]
    floor = msr.Potential.builtin("floor")
    assert floor.functions == {"floor"}
    assert floor.breakpoints(-1.5, 2.5) == [-1.0, 0.0, 1.0, 2.0]


def test_floor_has_no_derivative():
    pot = msr.Potential.builtin("floor")
    assert pot.derivative is None
    assert pot.value(2.7) == 2.0
    assert pot.value(-2.7) == 2.0


def test_sinpower_zero_lambda_equals_power():
    a = msr.Potential.builtin("sinpower", 1.7, 0.0)
    b = msr.Potential.builtin("power", 1.7)
    xs = np.linspace(-20, 20, 101)
    assert np.allclose(a.value(xs), b.value(xs), rtol=1e-14)


def test_from_string_cli_syntax():
    pot = msr.Potential.from_string("sinpower:2,1")
    assert pot == msr.Potential.builtin("sinpower", 2, 1)
    assert pot.even and pot.label == "sinpower(2,1)"
    pot = msr.Potential.from_string("expr:x^2/2")
    assert pot == msr.Potential.from_expression("x^2/2")
    assert not pot.even and pot.label == "x^2/2"
    with pytest.raises(DomainValidationError):
        msr.Potential.from_string("power:0.5")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_exponential(exp_measure):
    assert math.exp(exp_measure.log_z) == pytest.approx(2.0, rel=1e-9)
    assert exp_measure.median == 0.0


def test_normalize_power_r2_matches_gamma():
    m = msr.normalize(msr.Potential.builtin("power", 2))
    assert math.exp(m.log_z) == pytest.approx(2.0 * math.gamma(1.5), rel=1e-9)
    assert math.exp(m.log_z) == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_normalize_cusp_matches_closed_form():
    # exp(-|x| - sqrt|x|) has a cusp at 0 that no refinement depth resolves;
    # the panels there hold a vanishing share of the mass and stop at the
    # negligibility floor.  With x = u^2, Z = 2 - sqrt(pi) e^(1/4) erfc(1/2)
    m = msr.normalize(msr.Potential.from_string("expr:abs(x) + sqrt(abs(x))"))
    exact = math.log(2.0 - math.sqrt(math.pi) * math.exp(0.25) * math.erfc(0.5))
    assert abs(m.log_z - exact) <= 1e-13


def test_even_measure_median_zero(nu2_measure):
    assert nu2_measure.median == 0.0
    # the left ladder's log total rounds one ulp above log(Z/2) here, and its root at p = 1/2 to -1.2e-15
    m = msr.normalize(msr.Potential(expr.parse("floor(abs(x))*2"), even=True, label="floor(abs(x))*2"))
    assert msr.quantile(nu2_measure, 0.5) == msr.quantile(m, 0.5) == 0.0


def test_truncation_defect_bound(exp_measure, gauss_measure, floor_measure, cattiaux_measure):
    uneven = msr.normalize(msr.Potential.from_expression("abs(x)^1.5+0.5*x"))
    measures = (exp_measure, gauss_measure, floor_measure, scenarios.corpus_measure("nu22"), cattiaux_measure, uneven)
    for m in measures:
        inside = 1.0 - msr.tail(m, m.truncation) - (1.0 - msr.tail(m, -m.truncation))
        assert 1.0 - inside <= 2.0 * m.eps_trunc, m.label


def test_asymmetric_median():
    # V = |x| + 0.3 x: closed-form CDF gives median log(0.35 * Z * 0.7) / 0.7
    m = msr.normalize(msr.Potential.from_expression("abs(x) + 0.3*x"))
    z = 1.0 / 1.3 + 1.0 / 0.7
    median_true = math.log(0.5 * 0.7 * z) / 0.7
    assert m.median == pytest.approx(median_true, abs=1e-12)
    assert abs(math.exp(m.log_z) - z) <= 1e-9 * z


@pytest.mark.parametrize("text", ["abs(x)+0.3*x", "abs(x)^1.5+0.5*x", "floor(abs(x)) + 0.8*floor(x)"])
def test_uneven_median_halves_the_mass(text):
    m = msr.normalize(msr.Potential.from_expression(text))
    assert abs(msr.cdf(m, m.median) - 0.5) <= 1e-13
    assert abs(msr.tail(m, m.median) - 0.5) <= 1e-13


@pytest.mark.parametrize("token", ["sinpower:2,2", "expr:floor(abs(x)) + 0.8*floor(x)"])
def test_ladder_growth_is_path_independent(token):
    # the measure's ladder is a ladder of exp(-V) grown from [0] to its end,
    # and one grown 100 and then 800 past its end is the ladder grown 800
    # past it at once, bit for bit, on each side (the left ladder of the
    # floor expression already runs to 1024); its reads inside the ladder it
    # grew from move by rounding only, and the measure's ladders and queries
    # do not change
    pot = msr.Potential.from_string(token)
    m = msr.normalize(pot)
    end = min(m.ladders[+1].edges[-1], m.ladders[-1].edges[-1])
    xs = np.linspace(-0.9 * end, 0.9 * end, 20)
    before = msr.log_tail(m, xs)
    for sign in (+1, -1):
        ladder = m.ladders[sign]
        edges, start = ladder.edges, ladder.edges[-1]
        fresh = quad.LogLadder(lambda s: -pot.value(sign * s), [0.0], ladder.ptol,
                               breakpoints=pot.side_breakpoints(sign)).grown(start)
        for name in ("edges", "cells"):
            assert np.array_equal(getattr(fresh, name), getattr(ladder, name)), (sign, name)
        stepwise = ladder.grown(start + 100.0).grown(start + 800.0)
        direct = ladder.grown(start + 800.0)
        assert stepwise.edges[-1] >= start + 800.0 > stepwise.edges[-2]
        for name in ("edges", "prefix", "suffix"):
            assert np.array_equal(getattr(stepwise, name), getattr(direct, name)), (sign, name)
        assert ladder.edges is edges
        ts = np.linspace(0.0, 0.9 * start, 20)
        assert np.allclose(direct.upper(ts), ladder.upper(ts), rtol=1e-10, atol=0.0)
    assert np.array_equal(msr.log_tail(m, xs), before)


@pytest.mark.parametrize("text", ["abs(x)+0.3*x", "abs(x)^1.5", "floor(abs(x)) + 0.5*floor(x)"])
def test_normalize_integrates_each_side_once(text, monkeypatch):
    # one ladder and one extension beyond it per side, one in all for an
    # even potential; log Z and the median read them, with no point query
    counts = {"ladders": 0, "extensions": 0, "cdf": 0}
    init, extension, cdf = quad.LogLadder.__init__, quad.log_extension, msr.cdf

    def counted(name, fn):
        def wrapper(*a, **k):
            counts[name] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(quad.LogLadder, "__init__", counted("ladders", init))
    monkeypatch.setattr(quad, "log_extension", counted("extensions", extension))
    monkeypatch.setattr(msr, "cdf", counted("cdf", cdf))
    m = msr.normalize(msr.Potential(expr.parse(text), even=text == "abs(x)^1.5", label=text))
    sides = 1 if m.is_even else 2
    assert counts == {"ladders": sides, "extensions": sides, "cdf": 0}
    assert not hasattr(quad, "integrate_log")
    assert (m.ladders[+1] is m.ladders[-1]) == m.is_even


# ---------------------------------------------------------------------------
# tail / quantile
# ---------------------------------------------------------------------------


def test_tail_exponential_values(exp_measure):
    assert msr.tail(exp_measure, 0.0) == pytest.approx(0.5, abs=1e-10)
    assert msr.tail(exp_measure, 1.0) == pytest.approx(math.exp(-1) / 2, rel=1e-9)
    assert msr.tail(exp_measure, -1.0) == pytest.approx(1 - math.exp(-1) / 2, rel=1e-9)


def test_tail_gaussian_matches_erfc(gauss_measure):
    for x in (0.5, 1.0, 2.0, 5.0):
        oracle = 0.5 * math.erfc(x / math.sqrt(2.0))
        assert msr.tail(gauss_measure, x) == pytest.approx(oracle, rel=1e-8)


def test_tail_monotone_and_even_complement(nu2_measure):
    xs = np.linspace(-6, 6, 25)
    tails = [msr.tail(nu2_measure, float(x)) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
    for x in (0.5, 1.5, 3.0):
        assert msr.tail(nu2_measure, -x) == pytest.approx(1.0 - msr.tail(nu2_measure, x), abs=1e-10)


def test_log_tail_reaches_deep_underflow(gauss_measure):
    # V(60) = 1800: far below the 1e-300 underflow floor, still exact in log space
    lt = msr.log_tail(gauss_measure, 60.0)
    oracle = -1800.0 - math.log(60.0) - 0.5 * math.log(2 * math.pi)  # Mills ratio
    assert lt == pytest.approx(oracle, abs=0.01)
    assert msr.tail(gauss_measure, 60.0) == 0.0  # documented underflow floor


def test_quantile_exponential(exp_measure):
    assert msr.quantile(exp_measure, 0.75) == pytest.approx(math.log(2.0), abs=1e-9)
    assert msr.quantile(exp_measure, 0.5) == 0.0


def test_quantile_domain(exp_measure):
    with pytest.raises(DomainValidationError):
        msr.quantile(exp_measure, 0.0)
    with pytest.raises(DomainValidationError):
        msr.quantile(exp_measure, 1.2)


_CLOSED_QUANTILES = {  # p -> the x with CDF(x) = p, for p <= 1/2
    "exponential": lambda p: math.log(2.0 * p),
    "gaussian": statistics.NormalDist().inv_cdf,
}


def test_quantile_roundtrip_grid(exp_measure, gauss_measure):
    ps = np.linspace(0.01, 0.99, 99)
    for m in (exp_measure, gauss_measure):
        q = _CLOSED_QUANTILES[m.label]
        for p in ps.tolist():
            x = msr.quantile(m, p)
            assert msr.cdf(m, x) == pytest.approx(p, abs=1e-8)
            assert x == pytest.approx(q(p) if p <= 0.5 else -q(1.0 - p), abs=1e-12)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(_CLOSED_QUANTILES))
def test_quantile_matches_closed_forms_deep_in_the_tails(name, side):
    # the left tail down to p = 1e-300; on the right, quantile(1 - p) against
    # -q(1 - (1 - p)), whose complement is exact in floats, for each 1 - p < 1
    m, q = scenarios.corpus_measure(name), _CLOSED_QUANTILES[name]
    for p in np.logspace(-300, math.log10(0.5), 121).tolist():
        if side == "left":
            got, want = msr.quantile(m, p), q(p)
        elif 1.0 - p < 1.0:
            got, want = msr.quantile(m, 1.0 - p), -q(1.0 - (1.0 - p))
        else:
            continue
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (p, got, want)


@pytest.mark.parametrize(
    "text", ["abs(x)+0.3*x", "floor(abs(x)) + 0.8*floor(x)", "abs(x)^1.5+0.5*x", "4*log(1+abs(x))"]
)
def test_quantile_round_trips_through_log_cdf(text):
    # the even heavy tail's roots lie far past its ladder's end (3.7e6 at 1e-20)
    heavy = text.startswith("4*log")
    ps = (1e-20, 1e-40) if heavy else (1e-12, 0.1, 0.4, 0.6, 0.9)
    m = msr.normalize(msr.Potential(expr.parse(text), even=heavy, label=text))
    edges = {sign: m.ladders[sign].edges for sign in (+1, -1)}
    for p in ps:
        got = msr.log_cdf(m, msr.quantile(m, p))
        assert abs(got - math.log(p)) <= 1e-12 * abs(math.log(p)), (p, got)
    assert msr.quantile(m, 0.5) == m.median
    assert all(m.ladders[sign].edges is edges[sign] for sign in (+1, -1))  # grown copies only


def test_deep_heavy_tail_quantile_searches_the_doubling_ends(monkeypatch):
    # density ~ |x|^-4, so mu((-inf, -x]) = (1 + x)^-3 / 2: the root at
    # p = 1e-300 lies about 314 doublings past the ladder's end, which are
    # searched with one extension per candidate end, not one per doubling
    m = msr.normalize(msr.Potential(expr.parse("4*log(1+abs(x))"), even=True, label="4*log(1+abs(x))"))
    calls = []
    extension = quad.log_extension
    monkeypatch.setattr(quad, "log_extension", lambda *a, **k: calls.append(a[1]) or extension(*a, **k))
    x = msr.quantile(m, 1e-300)
    assert x == -7.937005259840618e+99
    assert x == pytest.approx(1.0 - 2e-300 ** (-1.0 / 3.0), rel=1e-13)
    assert len(calls) <= 3 * math.log2(314)


@pytest.mark.parametrize("x", [1e130, 1e200])
def test_heavy_tail_past_the_unit_spacing_of_floats(x):
    # past 2^53 an extension's unit first chunk does not move its start; the
    # doubling starts at the first width that does, so the tail converges
    m = msr.normalize(msr.Potential(expr.parse("4*log(1+abs(x))"), even=True, label="4*log(1+abs(x))"))
    assert msr.log_tail(m, x) == pytest.approx(-3.0 * math.log1p(x) - math.log(2.0), rel=1e-13)


def test_tail_near_the_float_max_has_no_overflowing_midpoint():
    # panel midpoints and half-widths never form a + b, which overflows
    # within a factor of 2 of the float max (with a RuntimeWarning, an error
    # in this suite); from 5e307 the extension runs out of floats before
    # the tail converges, and says so
    m = msr.normalize(msr.Potential.from_expression("20*log(1+abs(x))"))
    assert msr.log_tail(m, 1e306) == pytest.approx(-19.0 * math.log1p(1e306) - math.log(2.0), rel=1e-13)
    for x in (5e307, 1e308, 1.7e308):
        with pytest.raises(NonIntegrableError):
            msr.log_tail(m, x)


def test_extensions_refine_at_the_ladder_tolerance(monkeypatch):
    # the mass beyond a ladder follows the measure's rel_tol as its cells
    # do: a far tail and a quantile past the ladder refine at rel_tol / 10
    m = msr.normalize(msr.Potential.builtin("exp"), rel_tol=1e-6)
    ptol, end = m.ladders[+1].ptol, float(m.ladders[+1].edges[-1])
    assert ptol == pytest.approx(1e-7, rel=1e-15)
    ptols, extensions = [], []
    refine, extension = quad.refine_log_panels, quad.log_extension
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: ptols.append(a[3]) or refine(*a, **k))
    monkeypatch.setattr(quad, "log_extension", lambda *a, **k: extensions.append(a[2]) or extension(*a, **k))
    msr.log_tail(m, 10.0 * end)
    msr.quantile(m, 1e-300)
    assert extensions and set(extensions) == {ptol}
    assert ptols and set(ptols) == {ptol}


def test_tail_where_v_overflows_is_zero(gauss_measure):
    # exp(|x|) overflows past 709.8, so exp(-V) has no mass in any doubling
    # chunk from 800: the tail is 0, not a failure to converge
    m = msr.normalize(msr.Potential.from_expression("exp(abs(x))"))
    assert msr.log_tail(m, 800.0) == -math.inf
    assert msr.tail(m, 800.0) == 0.0
    assert msr.cdf(m, -800.0) == 0.0
    # x^2/2 overflows past 1.9e154; from 1e230 on the doubling chunks reach
    # the end of the float range without mass
    for x in (1e230, 1e300):
        assert msr.log_tail(gauss_measure, x) == -math.inf
        assert msr.tail(gauss_measure, x) == 0.0
        assert msr.cdf(gauss_measure, -x) == 0.0


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_inverse_property(p):
    m = _cached_exp()
    x = msr.quantile(m, p)
    assert msr.cdf(m, x) == pytest.approx(p, abs=1e-9)


_EXP_CACHE = []


def _cached_exp():
    if not _EXP_CACHE:
        _EXP_CACHE.append(msr.normalize(msr.Potential.builtin("exp")))
    return _EXP_CACHE[0]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_deterministic(exp_measure):
    a = msr.sample(exp_measure, seed=42, count=1000)
    b = msr.sample(exp_measure, seed=42, count=1000)
    assert np.array_equal(a, b)
    c = msr.sample(exp_measure, seed=43, count=1000)
    assert not np.array_equal(a, c)


def test_sample_moments(exp_measure):
    xs = msr.sample(exp_measure, seed=7, count=1_000_000)
    assert abs(xs.mean()) <= 0.005
    assert xs.var() == pytest.approx(2.0, abs=0.02)


def test_sample_count_validation(exp_measure):
    with pytest.raises(DomainValidationError):
        msr.sample(exp_measure, seed=1, count=0)


@pytest.mark.parametrize("name", ["mu15", "exponential", "gaussian", "floor", "cattiaux", "nu22",
                                  "expr:x^2/2+floor(x)"])
def test_sampler_table_equals_three_pass_simpson(name):
    # the table evaluates the density once at the nodes; the oracle is the
    # Simpson formula with the density evaluated at each panel's left end,
    # midpoint and right end separately
    m = msr.normalize(msr.Potential.from_string(name)) if name.startswith("expr:") else scenarios.corpus_measure(name)
    T = m.truncation
    xs = np.linspace(-T, T, msr._SAMPLER_NODES)
    mids = 0.5 * (xs[:-1] + xs[1:])
    h = xs[1] - xs[0]
    dens = lambda t: np.exp(-m.potential.value(t) - m.log_z)
    seg = (dens(xs[:-1]) + 4.0 * dens(mids) + dens(xs[1:])) * (h / 6.0)
    cdf_nodes = msr.cdf(m, -T) + np.concatenate([[0.0], np.cumsum(seg)])
    table = msr._build_sampler(m)
    assert np.array_equal(table.xs, xs)
    assert np.array_equal(table.cdf, cdf_nodes)


@pytest.fixture(scope="module")
def floor_jump_measure():
    # the Simpson table of x^2/2 + floor(x) holds runs of equal nodes (3,207
    # zero-width intervals in x in [6.5, 8.09]); building it warns of nothing
    m = msr.normalize(msr.Potential.from_expression("x^2/2+floor(x)"))
    msr.sample(m, 0, 1)
    assert np.count_nonzero(np.diff(m._sampler.cdf) == 0) > 0
    return m


def _words(k, rng):
    """The raw Philox words of the uniforms k 2^-53, k clipped to [0, 2^53 - 1],
    with random low 11 bits, which the uniform drops."""
    k = np.clip(k, 0, 2**53 - 1).astype(np.uint64)
    return (k << np.uint64(11)) | rng.integers(0, 2**11, size=k.shape, dtype=np.uint64)


@pytest.mark.parametrize(
    "fixture",
    ["exp_measure", "gauss_measure", "mu15_measure", "nu2_measure", "floor_measure", "cattiaux_measure",
     "floor_jump_measure"],
)
def test_sample_bit_identical_to_interp(fixture, request):
    # the guide-table lookup from raw words must reproduce np.interp on the
    # CDF table exactly, including uniforms on a node, at either end and
    # outside the table
    m = request.getfixturevalue(fixture)
    seed, count = 11, 100_000
    draws = msr.sample(m, seed=seed, count=count)
    table = m._sampler
    cdf, xs = table.cdf, table.xs

    def oracle(w):
        u = (w >> np.uint64(11)) * 2.0**-53
        return np.interp(np.clip(u, cdf[0], cdf[-1]), cdf, xs)

    words = np.random.Philox(key=np.uint64(seed)).random_raw(count)
    assert np.array_equal(draws, oracle(words))

    # k of the first uniform k 2^-53 at or above each node, and its neighbours
    at = lambda v: np.ceil(v * 2.0**53).astype(np.int64)[:, None] + np.array([-1, 0, 1])
    # the guide table has buckets holding two or more nodes (the tails);
    # words spread over each of them take the binary-search fallback
    wide = np.flatnonzero(table.first < 0)
    assert len(wide) > 0
    in_wide = (wide[:, None] << 37) + (np.array([0.1, 0.5, 0.9]) * 2**37).astype(np.int64)
    k = np.concatenate([[0], at(cdf[[0, -1]]).ravel(), at(cdf[1:-1:7]).ravel(), in_wide.ravel()])
    if cdf[-1] > 1.0:  # the floor tables end above 1: every uniform lies under the last node
        assert at(cdf[-1:]).min() > 2**53
    rng = np.random.Generator(np.random.PCG64(5))
    special = np.append(_words(k, rng), np.uint64(2**64 - 1))
    pos = rng.choice(count, size=len(special), replace=False)
    words[pos] = special
    assert np.count_nonzero(table.first[words >> np.uint64(48)] < 0) >= in_wide.size
    want = oracle(words)
    got = table.invert(words.copy(), np.empty(count))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))

    # the table passes its monotone check, row_max, which inverts each row's
    # largest word alone, gives the largest draw of each row bit for bit, and
    # the draws of the words around every node and of the special words,
    # sorted, do not decrease
    assert table.monotone
    assert np.array_equal(msr.sample(m, seed, count // 8, 8, msr.row_max), np.max(draws.reshape(-1, 8), axis=1))
    assert _row_max_on_words(table, np.concatenate([_node_words(table._cdf), special])) == (True, True)


def _replay(words):
    """A stand-in for ``measure._stream`` whose raw words, from the draw asked
    for on, are those of ``words``."""

    def stream(key, draw):
        cursor = [draw]

        def random_raw(shape):
            size = int(np.prod(shape))
            cursor[0] += size
            return words[cursor[0] - size : cursor[0]].reshape(shape).copy()

        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))

    return stream


def _row_max_on_words(table, words):
    """Whether ``sample`` with ``row_max`` gives the largest draw of each row of
    two ``words`` when the stream is replaced by them, and whether the draws
    of the words, sorted, do not decrease (an odd last word is dropped)."""
    words, measure = words[: len(words) // 2 * 2], SimpleNamespace(_sampler=table)
    with mock.patch.object(msr, "_stream", _replay(words)):
        flat = msr.sample(measure, 0, len(words))
        got = msr.sample(measure, 0, len(words) // 2, 2, msr.row_max)
    ordered = table.invert(np.sort(words), np.empty(len(words)))
    return bool(np.array_equal(got, np.max(flat.reshape(-1, 2), axis=1))), bool(np.all(ordered[1:] >= ordered[:-1]))


def _node_words(cdf):
    """Rows of two raw words for each node c below 1: the largest uniform
    k 2^-53 below c and the first at or above it."""
    k = np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.int64)[:, None] + np.array([-1, 0])
    return np.clip(k, 0, 2**53 - 1).astype(np.uint64).ravel() << np.uint64(11)


def _ulp_steps(start, steps):
    """start, then each next value the given number of ulps above the last."""
    out = [start]
    for step in steps:
        out.append(out[-1])
        for _ in range(step):
            out[-1] = math.nextafter(out[-1], math.inf)
    return out


@st.composite
def _tables(draw):
    """Increasing xs, from ulp steps to |x| up to 1e12, and a nondecreasing
    cdf: spread over [0, 1.01], clustered near 0 or near 1, or in steps of
    a few ulps (equal nodes included)."""
    k = draw(st.integers(2, 12))
    steps = lambda lo, hi, size: draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
    if draw(st.booleans()):
        xs = np.unique(draw(st.lists(st.floats(-1e12, 1e12), min_size=k, max_size=k)))
    else:
        xs = np.array(_ulp_steps(draw(st.floats(-1e12, 1e12)), steps(1, 4, k - 1)))
    mode = draw(st.sampled_from(["spread", "near0", "near1", "ulps"]))
    if mode == "ulps":
        cdf = _ulp_steps(draw(st.floats(1e-12, 1.0)), steps(0, 3, len(xs) - 1))
    else:
        # no width below 1e-46, so every slope is finite
        lo, hi = {"spread": (1e-30, 1.01), "near0": (1e-30, 1e-9), "near1": (1.0 - 1e-9, 1.0)}[mode]
        cdf = draw(st.lists(st.just(0.0) | st.floats(lo, hi), min_size=len(xs), max_size=len(xs)))
    return xs, np.sort(np.array(cdf))


@settings(deadline=None, max_examples=200)
@given(_tables())
def test_row_max_is_the_largest_draw_on_any_table(table):
    # slope (nextafter(cdf[j + 1], -inf) - cdf[j]) + xs[j] <= xs[j + 1] makes
    # the interpolant nondecreasing, so the largest word's draw is the row's
    # largest; a table that fails it takes the general path
    xs, cdf = table
    t = msr._InverseCDF(xs, cdf)
    exact, ascending = _row_max_on_words(t, _node_words(t._cdf))
    assert exact
    assert ascending or not t.monotone


def test_row_max_falls_back_on_a_table_that_is_not_monotone():
    # found by searching random tables: the slope rounds so that the draw of
    # the largest uniform below the node at 0.974... passes the node's value
    xs, cdf = np.array([-1386307.2561283193, -0.5044082462406216]), np.array([0.0, 0.9743247235686219])
    t = msr._InverseCDF(xs, cdf)
    assert not t.monotone
    assert _row_max_on_words(t, _node_words(t._cdf)) == (True, False)



def _former_row_max_loop(table, key, n, out):
    """The row-max block loop as it was, on one slice: the row maxima of each
    block of at most ``CHUNK`` words inverted on their own, one call per block."""
    bitgen = msr._stream(key, 0).bit_generator
    rows = max(table.CHUNK // n, 1)
    for a in range(0, len(out), rows):
        take = min(rows, len(out) - a)
        table.invert(bitgen.random_raw((take, n)).max(axis=1), out[a : a + take])
    return out


@pytest.mark.parametrize("name", ["exponential", "gaussian", "mu15", "nu2", "nu15", "nu22", "floor", "cattiaux",
                                  "expr:x^2/2+floor(x)"])
def test_row_max_slices_equal_the_former_block_loop(name, monkeypatch):
    # the row maxima kept in the output's memory and inverted once per slice
    # in CHUNK-sized calls equal the former per-block inversions: n = 1, a
    # row longer than a block, and row counts that are not a multiple of the
    # rows per block, on one slice and on two
    if name.startswith("expr:"):
        m = msr.normalize(msr.Potential.from_string(name))
    else:
        m = scenarios.corpus_measure(name)
    msr.sample(m, 0, 1)
    table, key = m._sampler, np.uint64(5)
    assert table.monotone
    chunk = table.CHUNK
    for count, n in ((1, 1), (1, chunk + 3), (2**19 + 3, 1), (17, chunk + 5), (2**13 + 7, 64)):
        want = _former_row_max_loop(table, key, n, np.empty(count))
        for cpus in (1, 2):
            monkeypatch.setattr(msr, "_usable_cpus", lambda: cpus)
            assert np.array_equal(msr.sample(m, 5, count, n, msr.row_max), want)

@pytest.mark.parametrize("fixture", ["mu15_measure", "floor_measure"])
@pytest.mark.parametrize("seed", [0, 3])  # seed 0 keys Philox with the zero key
@pytest.mark.parametrize("cpus", [1, 3])
def test_sample_slices_reproduce_one_stream(fixture, seed, cpus, request, monkeypatch):
    # a call split into per-CPU slices returns the draws of the seed's one
    # stream, for any CPU count and any count % 4 (the slices start and the
    # last one ends mid-step)
    m = request.getfixturevalue(fixture)
    monkeypatch.setattr(msr, "_usable_cpus", lambda: cpus)
    starts = []
    fill = msr._fill_slice

    def recording(table, key, start, n, f, out):
        starts.append(start)
        fill(table, key, start, n, f, out)

    monkeypatch.setattr(msr, "_fill_slice", recording)
    base = 3 * 2**msr._SLICE_BITS  # three slices' worth
    stream = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(base + 3)
    msr.sample(m, seed, 1)
    cdf, xs = m._sampler.cdf, m._sampler.xs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the slice threads interleave as often as they can
    try:
        for count in (base + 1, base + 2, base + 3):
            starts.clear()
            want = np.interp(np.clip(stream[:count], cdf[0], cdf[-1]), cdf, xs)
            assert np.array_equal(msr.sample(m, seed, count), want)
            assert len(starts) == cpus
    finally:
        sys.setswitchinterval(interval)
    assert cpus == 1 or any(a % 4 for a in starts)


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("cpus", [1, 3])
def test_sample_rows_reduce_like_the_flat_draws(mu15_measure, n, seed, cpus, monkeypatch):
    # rows drawn and reduced block by block on the slice threads give f of
    # the flat draws' rows, also when a slice or the call starts or ends
    # partway through a Philox step (rows * n % 4 != 0 for n = 1 and 3)
    m = mu15_measure
    monkeypatch.setattr(msr, "_usable_cpus", lambda: cpus)
    starts = []
    fill = msr._fill_slice

    def recording(table, key, start, n, f, out):
        starts.append(start)
        fill(table, key, start, n, f, out)

    monkeypatch.setattr(msr, "_fill_slice", recording)
    f = lambda x: np.max(x, axis=1) + np.sum(x * x, axis=1)
    rows = 3 * 2**msr._SLICE_BITS // n + 1  # three slices' worth
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the slice threads interleave as often as they can
    try:
        flat = msr.sample(m, seed, rows * n)
        assert np.array_equal(msr.sample(m, seed, rows, n), flat)
        starts.clear()
        got = msr.sample(m, seed, rows, n, f)
        assert len(starts) == cpus
        top = msr.sample(m, seed, rows, n, msr.row_max)  # inverts each row's largest word alone
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, f(flat.reshape(rows, n)))
    assert np.array_equal(top, np.max(flat.reshape(rows, n), axis=1))


@pytest.mark.parametrize("name", ["exp", "gaussian"])
def test_sample_kolmogorov_smirnov(name, exp_measure, gauss_measure):
    m = exp_measure if name == "exp" else gauss_measure
    n = 100_000
    s = np.sort(msr.sample(m, seed=3, count=n))
    if name == "exp":
        cdf_true = np.where(s < 0, 0.5 * np.exp(s), 1.0 - 0.5 * np.exp(-s))
    else:
        from math import sqrt

        cdf_true = 0.5 * (1.0 + np.vectorize(math.erf)(s / sqrt(2.0)))
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(cdf_true - grid)), np.max(np.abs(cdf_true - (grid - 1.0 / n))))
    assert ks <= 1.63 / math.sqrt(n)  # 99% band


def test_queries_at_nan_raise(exp_measure):
    for query in (msr.log_tail, msr.log_cdf, msr.tail, msr.cdf, msr.n_profile):
        with pytest.raises(DomainValidationError):
            query(exp_measure, math.nan)
        with pytest.raises(DomainValidationError):
            query(exp_measure, np.array([1.0, math.nan]))


def test_queries_at_infinity_are_exact(exp_measure):
    m = exp_measure
    assert msr.tail(m, math.inf) == 0.0 and msr.cdf(m, math.inf) == 1.0
    assert msr.tail(m, -math.inf) == 1.0 and msr.cdf(m, -math.inf) == 0.0
    for x, log_tail, log_cdf in ((math.inf, -math.inf, 0.0), (-math.inf, 0.0, -math.inf)):
        assert (msr.log_tail(m, x), msr.log_cdf(m, x)) == (log_tail, log_cdf)
        assert math.copysign(1.0, max(msr.log_tail(m, x), msr.log_cdf(m, x))) == 1.0  # +0, not -0
    assert msr.n_profile(m, math.inf) == math.inf
    xs = np.array([-math.inf, 1.0, math.inf])
    assert np.array_equal(msr.tail(m, xs), [1.0, msr.tail(m, 1.0), 0.0])


def _scalar_log_beyond(m, s, sign):
    """Unnormalized log mass of exp(-V) over sign * t >= s, as one doubling
    extension from the point itself at the ladder's tolerances."""
    pot, ladder = m.potential, m.ladders[sign]
    return quad.log_extension(
        lambda t: -pot.value(sign * t), s, ladder.ptol, breakpoints=pot.side_breakpoints(sign)
    )


def _integrate_log(logf, a, b, rel_tol):
    """The former ``quad.integrate_log``: log of the integral of exp(logf)
    over [a, b] in one refinement at rel_tol's panel tolerance; [a, b]
    lies inside one ladder cell, so no breakpoint splits it."""
    ptol = max(rel_tol * 0.1, 1e-14)
    return float(np.logaddexp.reduce(quad.refine_log_panels(logf, [a], [b], ptol)[0]))


def _scalar_ladder_upper(m, ladder, s):
    """A ladder's mass from s to infinity: one integration of the partial
    cell up to the first edge at or past s, none on an edge, or None for a
    point beyond the ladder, which ``_scalar_log_side`` gives one extension."""
    edges = ladder.edges
    if s > edges[-1]:
        return None
    i = int(np.searchsorted(edges, s))
    partial = _integrate_log(ladder.logf, s, float(edges[i]), m.rel_tol) if s < edges[i] else -np.inf
    return float(np.logaddexp(partial, ladder.suffix[i]))


def _scalar_ladder_lower(m, ladder, s):
    """A ladder's mass from 0 to s inside it, as ``_scalar_ladder_upper``."""
    edges = ladder.edges
    i = int(np.searchsorted(edges, s, side="right") - 1)
    partial = _integrate_log(ladder.logf, float(edges[i]), s, m.rel_tol) if s > edges[i] else -np.inf
    return float(np.logaddexp(ladder.prefix[i], partial))


def _scalar_log_side(m, x, sign):
    """log mu([x, inf)) (sign +1) or log mu((-inf, x]) (sign -1) as a scalar
    query: in s = sign * x, the side's ladder past 0, the other side's ladder
    from an uneven measure's median to 0, and 1 - the other side beyond
    the median."""
    if sign * x < sign * m.median:
        return float(np.log1p(-math.exp(min(_scalar_log_side(m, x, -sign), -1e-18))))
    ladder, s = m.ladders[sign], sign * x
    if s <= 0.0:
        mass = np.logaddexp(ladder.suffix[0], _scalar_ladder_lower(m, m.ladders[-sign], -s))
    else:
        mass = _scalar_ladder_upper(m, ladder, s)
        if mass is None:
            mass = _scalar_log_beyond(m, s, sign)
    return float(mass - m.log_z)


def _scalar_log_tail(m, x):
    return _scalar_log_side(m, x, +1)


def _scalar_log_cdf(m, x):
    return _scalar_log_side(m, x, -1)


# The last measure has its median near -3, so its log tails between the
# median and 0 read the left ladder across the jumps at -3, -2 and -1.
# Points beyond a ladder read a grown copy of it, whose cells sum in another
# order than one extension per point.
@pytest.mark.parametrize("name", ["exponential", "gaussian", "mu15", "nu2", "nu15", "nu22", "floor", "cattiaux",
                                  "expr:abs(x)^1.5+0.5*x", "expr:x^2/2+sin(x)", "expr:floor(abs(x)) + 0.5*floor(x)",
                                  "expr:floor(abs(x)) + 0.8*floor(x)"])
def test_batched_queries_equal_scalar_queries(name):
    if name.startswith("expr:"):
        m = msr.normalize(msr.Potential.from_string(name))
    else:
        m = scenarios.corpus_measure(name)
    right, left = m.ladders[+1], m.ladders[-1]
    # built at the measure's rel_tol, the ladders equal builds on their edges
    # with panel tolerance 1e-11
    for ladder in (right, left):
        loose = quad.LogLadder(ladder.logf, ladder.edges, 1e-11)
        loose._close(ladder.suffix[-1])
        assert np.array_equal(ladder.suffix, loose.suffix)
    # 150 points per side, the median, every edge (both ladder ends among
    # them), the breakpoints, and points beyond the ladders
    lo, hi = -left.edges[-1], right.edges[-1]
    xs = np.concatenate([
        np.linspace(m.median, hi, 150), np.linspace(lo, m.median, 150), [m.median], right.edges, -left.edges,
        m.potential.breakpoints(lo, hi), [lo - 3.0, lo - 0.5, hi + 0.5, hi + 3.0],
    ])
    beyond = (xs <= lo) | (xs >= hi)
    for query, scalar in ((msr.log_tail, _scalar_log_tail), (msr.log_cdf, _scalar_log_cdf)):
        batched = query(m, xs)
        want = np.array([scalar(m, x) for x in xs.tolist()])
        assert np.array_equal(batched[~beyond], want[~beyond]), query.__name__
        err = np.abs(batched[beyond] - want[beyond])
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(want[beyond]))), query.__name__
        assert query(m, xs[1]) == batched[1]
    assert m.ladders[+1] is right and right.edges[-1] == hi


@pytest.mark.parametrize(
    "text", ["abs(x)^1.5+0.5*x", "floor(abs(x)) + 0.5*floor(x)", "floor(abs(x)) + 0.8*floor(x)"]
)
def test_queries_between_the_median_and_0_refine_once_per_side(text, monkeypatch):
    m = msr.normalize(msr.Potential.from_expression(text))
    assert m.median < 0.0
    assert m.ladders[+1].edges[0] == 0.0 == m.ladders[-1].edges[0]
    calls = []
    refine = quad.refine_log_panels
    monkeypatch.setattr(quad, "refine_log_panels", lambda *a, **k: calls.append(a) or refine(*a, **k))
    between = np.linspace(m.median, 0.0, 9)[1:]
    msr.log_tail(m, between)
    assert len(calls) == 1 and len(calls[0][1]) == 7  # the partial cells of the 7 points off the edge 0
    msr.log_cdf(m, between)
    assert len(calls) == 2 and len(calls[1][1]) == 7


@pytest.mark.parametrize("name", ["nu22", "floor", "exponential"])
def test_far_tails_match_one_extension_per_point(name):
    # nu22 is sinpower(2, 2): at x = 1e5 its log tail is about -1e10
    m = scenarios.corpus_measure(name)
    xs = np.array([20.0, 1e2, 1e3, 1e4, 1e5])
    got = msr.log_tail(m, xs)
    want = np.array([_scalar_log_tail(m, x) for x in xs.tolist()])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    if name == "exponential":
        assert got == pytest.approx(-xs - math.log(2.0), rel=1e-13)


def test_tails_past_the_ladder_do_not_depend_on_the_batch():
    # nu22's ladder ends at E = 16; every point in (E, 2E] reads one copy
    # grown to 2E, whatever other points share the query
    m = scenarios.corpus_measure("nu22")
    assert m.ladders[+1].edges[-1] == 16.0
    for x, y in ((20.8, 30.4), (30.4, 20.8), (16.5, 32.0), (32.0, 17.0)):
        assert msr.log_tail(m, [x])[0] == msr.log_tail(m, [x, y])[0], (x, y)


def test_a_long_tail_query_holds_one_block_of_partial_cells_at_a_time():
    # 20,000 points inside nu2's ladder refine their partial cells in
    # blocks of quad._LADDER_BLOCK intervals, whose nodes _gk_log evaluates
    # in blocks of quad._NODE_BLOCK panels: the traced allocations peak
    # within 3 MB, next to the 0.16 MB of each array over the points
    m = scenarios.corpus_measure("nu2")
    xs = np.random.default_rng(5).uniform(0.0, m.ladders[+1].edges[-1], 20_000)
    msr.log_tail(m, xs[:10])  # one-off costs outside the measurement
    tracemalloc.start()
    try:
        msr.log_tail(m, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


_FAR_FLOOR_TAILS = """
import json
import numpy as np
from hardylab import measure as msr, scenarios
m = scenarios.corpus_measure("floor")
xs = [2e5, 4e5]
print(json.dumps([msr.log_tail(m, x) for x in xs] + msr.log_tail(m, np.array(xs)).tolist()))
"""


def test_far_floor_tails_in_bounded_memory(bounded_python):
    # past |log mass| ~ 1e5 the float spacing of the log exceeds the panel
    # tolerance; panels within a few ulps of it are accepted instead of
    # refined until memory runs out.  At integers the floor tail is e^-x / 2
    run = bounded_python(_FAR_FLOOR_TAILS)
    assert run.returncode == 0, run.stderr[-2000:]
    want = [-2e5 - math.log(2.0), -4e5 - math.log(2.0)] * 2
    assert json.loads(run.stdout) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# profile N(t)
# ---------------------------------------------------------------------------


def test_n_profile_exponential(exp_measure):
    assert msr.n_profile(exp_measure, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert msr.n_profile(exp_measure, 1.0) == pytest.approx(1.0, rel=1e-9)
    ts = np.linspace(0, 20, 41)
    vals = [msr.n_profile(exp_measure, float(t)) for t in ts]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_n_profile_dominates_potential(nu2_measure):
    v = float(nu2_measure.potential.value(np.array([20.0]))[0])
    assert msr.n_profile(nu2_measure, 20.0) >= 0.9 * v


def test_n_profile_requires_even():
    m = msr.normalize(msr.Potential.from_expression("abs(x) + 0.3*x"))
    with pytest.raises(DomainValidationError):
        msr.n_profile(m, 1.0)


def test_normalize_raises_on_nan_potential_between_probes():
    # V is nan on |x| < 0.05, between the probe points of Potential; the
    # quadrature names the panel instead of counting it as zero mass
    pot = msr.Potential.from_expression("abs(x) + sqrt(abs(x)-0.05)*0")
    with pytest.raises(DomainValidationError, match="log-integrand is nan on the panel"):
        msr.normalize(pot)
