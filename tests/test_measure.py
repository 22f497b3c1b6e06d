import json
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import measure as msr
from hardylab import criteria, expr, quad, scenarios
from hardylab.errors import DomainValidationError, ParseError

# ---------------------------------------------------------------------------
# potential construction
# ---------------------------------------------------------------------------


def test_builtin_values():
    p = msr.make_potential(msr.PotentialSpec.builtin("exp"))
    assert p.value(1.0) == 1.0
    assert p.value(-3.0) == 3.0
    s = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 2, 1))
    assert s.value(math.pi) == pytest.approx(math.pi**2, rel=1e-14)
    g = msr.make_potential(msr.PotentialSpec.builtin("gaussian"))
    assert g.value(2.0) == 2.0


def test_expression_potential():
    p = msr.make_potential(msr.PotentialSpec.from_expression("abs(x + sin(x))^2"))
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
        msr.PotentialSpec.builtin(family, *params)


def test_expression_parsed_and_compiled_once(monkeypatch):
    calls = {"parse": 0, "compile": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(expr, name, counted(name, getattr(expr, name)))
    spec = msr.PotentialSpec.from_string("expr:x^2/2+sin(x)")
    pot = msr.make_potential(spec)
    assert calls == {"parse": 1, "compile": 2}  # V and its derivative
    m = msr.normalize(pot)
    criteria.blo(m, 1.5, horizons=(25.0, 50.0))
    assert calls == {"parse": 1, "compile": 2}


def test_expression_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        msr.PotentialSpec.from_expression("abs(x")
    assert exc.value.position == 5


def test_potential_must_be_locally_bounded():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(DomainValidationError):
            msr.make_potential(msr.PotentialSpec.from_expression("log(x)"))


@pytest.mark.parametrize(
    "spec",
    [
        msr.PotentialSpec.builtin("exp"),
        msr.PotentialSpec.builtin("gaussian"),
        msr.PotentialSpec.builtin("power", 1.5),
        msr.PotentialSpec.builtin("sinpower", 2, 1),
        msr.PotentialSpec.builtin("sinpower", 2, 2),
        msr.PotentialSpec.builtin("cattiaux", 1.5, 1.9),
        msr.PotentialSpec.from_expression("x^2/2 + cos(x)", even=False),
    ],
)
def test_analytic_derivatives_match_finite_differences(spec, derivative_error):
    pot = msr.make_potential(spec)
    near_kink = lambda x: abs(x) < 0.05  # each spec's only kink is at 0
    assert derivative_error(pot.value, pot.derivative, near_kink) <= 1e-5


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
    pot = msr.make_potential(msr.PotentialSpec.builtin(family, *params))
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
    pot = msr.make_potential(msr.PotentialSpec.from_string("expr:" + text))
    assert pot.derivative(0.0) == slope
    assert pot.derivative(np.array([-1.0, 0.0, 1.0]))[1] == slope


def test_builtin_breakpoints_come_from_the_tree():
    for token in ("sinpower:2,1", "cattiaux:1.5,1.9"):
        spec = msr.PotentialSpec.from_string(token)
        assert "sin" in spec.functions and spec.oscillation_halfperiod == math.pi and not spec.unit_breakpoints
    floor = msr.PotentialSpec.builtin("floor")
    assert floor.unit_breakpoints and floor.oscillation_halfperiod is None
    pot = msr.make_potential(msr.PotentialSpec.builtin("cattiaux", 1.5, 1.9))
    assert pot.breakpoints(0.0, 7.0) == [math.pi, 2.0 * math.pi]
    assert msr.make_potential(floor).breakpoints(-1.5, 2.5) == [-1.0, 0.0, 1.0, 2.0]


def test_floor_has_no_derivative():
    pot = msr.make_potential(msr.PotentialSpec.builtin("floor"))
    assert pot.derivative is None
    assert pot.value(2.7) == 2.0
    assert pot.value(-2.7) == 2.0


def test_sinpower_zero_lambda_equals_power():
    a = msr.make_potential(msr.PotentialSpec.builtin("sinpower", 1.7, 0.0))
    b = msr.make_potential(msr.PotentialSpec.builtin("power", 1.7))
    xs = np.linspace(-20, 20, 101)
    assert np.allclose(a.value(xs), b.value(xs), rtol=1e-14)


def test_tabulated_interpolation_and_extrapolation():
    xs = [0.0, 1.0, 2.0, 4.0]
    vs = [0.0, 1.0, 1.5, 3.5]
    pot = msr.make_potential(msr.PotentialSpec.tabulated(xs, vs, even=True))
    assert pot.value(0.5) == pytest.approx(0.5)
    assert pot.value(3.0) == pytest.approx(2.5)
    assert pot.value(-1.0) == pytest.approx(1.0)  # evenness
    # last-slope extrapolation: slope (3.5-1.5)/2 = 1 beyond x=4
    assert pot.value(6.0) == pytest.approx(5.5)
    assert pot.value(-7.0) == pytest.approx(6.5)


def test_from_string_cli_syntax():
    spec = msr.PotentialSpec.from_string("sinpower:2,1")
    assert spec.family == "sinpower" and spec.params == (2.0, 1.0)
    spec = msr.PotentialSpec.from_string("expr:x^2/2")
    assert spec.kind == "expression"
    with pytest.raises(DomainValidationError):
        msr.PotentialSpec.from_string("power:0.5")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_exponential(exp_measure):
    assert math.exp(exp_measure.log_z) == pytest.approx(2.0, rel=1e-9)
    assert exp_measure.median == 0.0


def test_normalize_power_r2_matches_gamma():
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("power", 2)))
    assert math.exp(m.log_z) == pytest.approx(2.0 * math.gamma(1.5), rel=1e-9)
    assert math.exp(m.log_z) == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_even_measure_median_zero(nu2_measure):
    assert nu2_measure.median == 0.0
    # the left ladder's log total rounds one ulp above log(Z/2) here, and its root at p = 1/2 to -1.2e-15
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("floor(abs(x))*2", even=True)))
    assert msr.quantile(nu2_measure, 0.5) == msr.quantile(m, 0.5) == 0.0


def test_truncation_defect_bound(exp_measure, gauss_measure, floor_measure, cattiaux_measure):
    uneven = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x)^1.5+0.5*x")))
    measures = (exp_measure, gauss_measure, floor_measure, scenarios.corpus_measure("nu22"), cattiaux_measure, uneven)
    for m in measures:
        inside = 1.0 - msr.tail(m, m.truncation) - (1.0 - msr.tail(m, -m.truncation))
        assert 1.0 - inside <= 2.0 * m.eps_trunc, m.label


def test_asymmetric_median():
    # V = |x| + 0.3 x: closed-form CDF gives median log(0.35 * Z * 0.7) / 0.7
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + 0.3*x")))
    z = 1.0 / 1.3 + 1.0 / 0.7
    median_true = math.log(0.5 * 0.7 * z) / 0.7
    assert m.median == pytest.approx(median_true, abs=1e-12)
    assert abs(math.exp(m.log_z) - z) <= 1e-9 * z


@pytest.mark.parametrize("text", ["abs(x)+0.3*x", "abs(x)^1.5+0.5*x", "floor(abs(x)) + 0.8*floor(x)"])
def test_uneven_median_halves_the_mass(text):
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression(text)))
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
    pot = msr.make_potential(msr.PotentialSpec.from_string(token))
    m = msr.normalize(pot)
    end = min(m.ladders[+1].edges[-1], m.ladders[-1].edges[-1])
    xs = np.linspace(-0.9 * end, 0.9 * end, 20)
    before = msr.log_tail(m, xs)
    for sign in (+1, -1):
        ladder = m.ladders[sign]
        edges, start = ladder.edges, ladder.edges[-1]
        fresh = quad.LogLadder(lambda s: -pot.value(sign * s), [0.0], ladder.ptol, ladder.max_depth, ladder.strict,
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
    spec = msr.PotentialSpec.from_expression(text, even=text == "abs(x)^1.5")
    m = msr.normalize(msr.make_potential(spec))
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
    spec = msr.PotentialSpec.from_expression(text, even=heavy)
    m = msr.normalize(msr.make_potential(spec))
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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("4*log(1+abs(x))", even=True)))
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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("4*log(1+abs(x))", even=True)))
    assert msr.log_tail(m, x) == pytest.approx(-3.0 * math.log1p(x) - math.log(2.0), rel=1e-13)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_inverse_property(p):
    m = _cached_exp()
    x = msr.quantile(m, p)
    assert msr.cdf(m, x) == pytest.approx(p, abs=1e-9)


_EXP_CACHE = []


def _cached_exp():
    if not _EXP_CACHE:
        _EXP_CACHE.append(msr.normalize(msr.make_potential(msr.PotentialSpec.builtin("exp"))))
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


@pytest.mark.parametrize(
    "fixture", ["exp_measure", "gauss_measure", "mu15_measure", "nu2_measure", "floor_measure", "cattiaux_measure"]
)
def test_sample_bit_identical_to_interp(fixture, request):
    # the guide-table lookup must reproduce np.interp on the CDF table exactly,
    # including uniforms on a node, at either end and outside the table
    m = request.getfixturevalue(fixture)
    seed, count = 11, 100_000
    draws = msr.sample(m, seed=seed, count=count)
    table = m._sampler
    cdf, xs = table.cdf, table.xs

    def oracle(u):
        return np.interp(np.clip(u, cdf[0], cdf[-1]), cdf, xs)

    u = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(count)
    assert np.array_equal(draws, oracle(u))

    nodes = cdf[1:-1:7]
    special = np.concatenate(
        [
            [0.0, cdf[0], cdf[-1], np.nextafter(cdf[0], 1.0), np.nextafter(cdf[-1], 0.0), np.nextafter(1.0, 0.0)],
            nodes,
            np.nextafter(nodes, 0.0),
            np.nextafter(nodes, 1.0),
        ]
    )
    # the guide table has buckets holding two or more nodes (the tails);
    # uniforms spread over each of them take the binary-search fallback
    wide = np.flatnonzero(table.wide)
    assert len(wide) > 0
    in_wide = table.lo_u + (wide[:, None] + np.array([0.1, 0.5, 0.9])).ravel() / table.scale
    special = np.concatenate([special, in_wide])
    pos = np.random.Generator(np.random.PCG64(5)).choice(count, size=len(special), replace=False)
    u[pos] = special
    bucket = np.empty(count, dtype=np.intp)
    table._bucket(np.clip(u, cdf[0], cdf[-1]), np.empty(count), bucket)
    assert np.count_nonzero(table.wide[bucket]) >= len(in_wide)
    want = oracle(u)
    got = table.invert(u)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("fixture", ["mu15_measure", "floor_measure"])
@pytest.mark.parametrize("batch_index", [0, 3])
@pytest.mark.parametrize("cpus", [1, 3])
def test_sample_slices_reproduce_one_stream(fixture, batch_index, cpus, request, monkeypatch):
    # a call split into per-CPU slices returns the draws of one jumped stream,
    # for any CPU count and any count % 4 (the last slice ends mid-block)
    m = request.getfixturevalue(fixture)
    monkeypatch.setattr(msr, "_usable_cpus", lambda: cpus)
    starts = []
    fill = msr._fill_slice

    def recording(table, seed, batch_index, start, view):
        starts.append(start)
        fill(table, seed, batch_index, start, view)

    monkeypatch.setattr(msr, "_fill_slice", recording)
    seed = 13
    base = 3 * 2**msr._SLICE_BITS  # three slices' worth
    bitgen = np.random.Philox(key=np.uint64(seed))
    if batch_index:
        bitgen = bitgen.jumped(batch_index)
    stream = np.random.Generator(bitgen).random(base + 3)
    msr.sample(m, seed, 1)
    cdf, xs = m._sampler.cdf, m._sampler.xs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the slice threads interleave as often as they can
    try:
        for count in (base + 1, base + 2, base + 3):
            starts.clear()
            want = np.interp(np.clip(stream[:count], cdf[0], cdf[-1]), cdf, xs)
            assert np.array_equal(msr.sample(m, seed, count, _batch_index=batch_index), want)
            assert len(starts) == cpus and all(a % 4 == 0 for a in starts)
    finally:
        sys.setswitchinterval(interval)


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
    extension from the point itself."""
    pot = m.potential
    return quad.log_extension(
        lambda t: -pot.value(sign * t), s, initial_width=1.0, breakpoints=pot.side_breakpoints(sign)
    )


def _integrate_log(logf, a, b, cfg):
    """The former ``quad.integrate_log``: log of the integral of exp(logf)
    over [a, b] in one strict refinement at cfg's panel tolerance; [a, b]
    lies inside one ladder cell, so no breakpoint splits it."""
    ptol = max(cfg.rel_tol * 0.1, 1e-14)
    return float(np.logaddexp.reduce(quad.refine_log_panels(logf, [a], [b], ptol, cfg.max_depth)[0]))


def _scalar_ladder_upper(m, ladder, s):
    """A ladder's mass from s to infinity: one integration of the partial
    cell up to the first edge at or past s, none on an edge, or None for a
    point beyond the ladder, which ``_scalar_log_side`` gives one extension."""
    edges = ladder.edges
    if s > edges[-1]:
        return None
    i = int(np.searchsorted(edges, s))
    partial = _integrate_log(ladder.logf, s, float(edges[i]), m.cfg) if s < edges[i] else -np.inf
    return float(np.logaddexp(partial, ladder.suffix[i]))


def _scalar_ladder_lower(m, ladder, s):
    """A ladder's mass from 0 to s inside it, as ``_scalar_ladder_upper``."""
    edges = ladder.edges
    i = int(np.searchsorted(edges, s, side="right") - 1)
    partial = _integrate_log(ladder.logf, float(edges[i]), s, m.cfg) if s > edges[i] else -np.inf
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
        m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_string(name)))
    else:
        m = scenarios.corpus_measure(name)
    right, left = m.ladders[+1], m.ladders[-1]
    # built at the measure's cfg, the ladders equal builds at depth 60, not
    # strict, with panel tolerance 1e-11
    for ladder in (right, left):
        loose = quad.LogLadder(ladder.logf, ladder.edges, 1e-11, 60, strict=False)
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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression(text)))
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
    m = msr.normalize(msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + 0.3*x")))
    with pytest.raises(DomainValidationError):
        msr.n_profile(m, 1.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
def test_normalize_raises_on_nan_potential_between_probes():
    # V is nan on |x| < 0.05, between make_potential's probe points; the
    # quadrature names the panel instead of counting it as zero mass
    pot = msr.make_potential(msr.PotentialSpec.from_expression("abs(x) + sqrt(abs(x)-0.05)*0"))
    with pytest.raises(DomainValidationError, match="log-integrand is nan on the panel"):
        msr.normalize(pot)


def test_tabulated_potential_full_pipeline():
    # |x| tabulated on a coarse grid is globally exact thanks to last-slope
    # extrapolation, so normalization must reproduce the closed form Z = 2
    xs = np.linspace(0.0, 10.0, 21)
    pot = msr.make_potential(msr.PotentialSpec.tabulated(xs, xs, even=True))
    m = msr.normalize(pot)
    assert math.exp(m.log_z) == pytest.approx(2.0, rel=1e-9)
    assert msr.tail(m, 1.0) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-9)
