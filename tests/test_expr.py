import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardylab import expr
from hardylab.errors import ParseError


def ev(text, x):
    return expr.evaluate(expr.compile(expr.parse(text)), x)


def run(ast, x):
    return expr.evaluate(expr.compile(ast), x)


def test_literal_and_variable():
    assert ev("2.5", 0.0) == 2.5
    assert ev("x", 3.0) == 3.0
    assert ev(".5", 1.0) == 0.5


def test_precedence_and_associativity():
    assert ev("2+3*4", 0.0) == 14.0
    assert ev("2*3+4", 0.0) == 10.0
    assert ev("2^3^2", 0.0) == 512.0  # right-associative
    assert ev("-x^2", 2.0) == -4.0  # unary minus binds below the power
    assert ev("(2+3)*4", 0.0) == 20.0
    assert ev("8/4/2", 0.0) == 1.0  # left-associative division


def test_functions():
    assert ev("abs(x)", -2.0) == 2.0
    assert ev("sin(x)", math.pi) == pytest.approx(0.0, abs=1e-12)
    assert ev("floor(x)", 2.7) == 2.0
    assert ev("sqrt(abs(x))", -9.0) == 3.0
    assert ev("exp(log(x))", 5.0) == pytest.approx(5.0, rel=1e-14)
    assert ev("abs(x + sin(x))^2", math.pi / 2) == pytest.approx((math.pi / 2 + 1) ** 2, rel=1e-14)


def test_vectorized_evaluation():
    xs = np.linspace(-3, 3, 11)
    out = ev("x^2 + cos(x)", xs)
    assert np.allclose(out, xs**2 + np.cos(xs))


@pytest.mark.parametrize(
    "bad,pos",
    [
        ("2 +", 3),  # dangling operator
        ("sin x", 4),  # missing parenthesis
        ("(1+2", 4),  # unbalanced
        ("foo(x)", 0),  # unknown function
        ("2x", 1),  # implicit multiplication not in the grammar
        ("x^-1", 2),  # exponent may not start with a minus
        ("1 # 2", 2),  # stray character
    ],
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(ParseError) as exc:
        expr.parse(bad)
    assert exc.value.position == pos


@pytest.mark.parametrize(
    "text",
    ["x^3", "sin(x)*cos(x)", "exp(x/4)", "1/(1+x^2)", "sqrt(1+x^2)", "x^2/2 + sin(2*x)"],
)
def test_symbolic_derivative_matches_finite_differences(text):
    ast = expr.parse(text)
    dast = expr.diff(ast)
    xs = np.linspace(-3.0, 3.0, 41)
    h = 1e-6
    fd = (run(ast, xs + h) - run(ast, xs - h)) / (2 * h)
    sym = run(dast, xs)
    assert np.allclose(fd, sym, rtol=1e-6, atol=1e-6)


def test_abs_derivative_is_sign_away_from_kink():
    dast = expr.diff(expr.parse("abs(x)"))
    assert run(dast, 2.0) == 1.0
    assert run(dast, -2.0) == -1.0


def test_general_power_derivative():
    # x^x at x=2: 2^2 (log 2 + 1)
    dast = expr.diff(expr.parse("x^x"))
    assert run(dast, 2.0) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)


def test_functions_used():
    used = expr.functions_used(expr.parse("abs(x) + sin(cos(x)) - floor(x)"))
    assert used == {"abs", "sin", "cos", "floor"}


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_parse_eval_roundtrip_polynomial(x):
    assert ev("3*x^2 - 2*x + 1", x) == pytest.approx(3 * x * x - 2 * x + 1, rel=1e-12, abs=1e-9)


def tree_eval(node, x):
    """The AST walker that ``compile`` replaced, kept as the oracle, at one
    point ``x`` (a numpy float64).  It runs point by point: on a whole array
    its literal arrays send ``^`` through numpy's vector pow, which can differ
    from the scalar pow by an ulp that later cancellation or exp amplifies."""
    if isinstance(node, expr.Num):
        return np.float64(node.value)
    if isinstance(node, expr.Var):
        return x
    if isinstance(node, expr.Neg):
        return -tree_eval(node.arg, x)
    if isinstance(node, expr.Call):
        return expr._NUMPY_FUNCS[node.fn](tree_eval(node.arg, x))
    left, right = tree_eval(node.left, x), tree_eval(node.right, x)
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}[node.op](left, right)


def assert_within_ulps(got, want, ulps=2):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    close = np.abs(got - want) <= ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(both_nan | (got == want) | close), (got, want)


_LEAVES = st.one_of(
    st.just(expr.Var()),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]).map(expr.Num),
    st.floats(min_value=0.0, max_value=10.0).map(expr.Num),
)
_ASTS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        kids.map(expr.Neg),
        st.builds(expr.Call, st.sampled_from(expr.FUNCTIONS), kids),
        st.builds(expr.Bin, st.sampled_from("+-*/^"), kids, kids),
    ),
    max_leaves=8,
)
_POINTS = st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=24)


@given(_ASTS, _POINTS)
def test_compiled_evaluate_matches_tree_walk(ast, points):
    xs = np.array(points)
    with np.errstate(all="ignore"):
        for node in (ast, expr.diff(ast)):
            program = expr.compile(node)
            out = expr.evaluate(program, xs)
            assert isinstance(out, np.ndarray) and out.shape == xs.shape
            assert out.flags.writeable and not np.shares_memory(out, xs)
            assert_within_ulps(out, [tree_eval(node, x) for x in xs])
            scalar = expr.evaluate(program, points[0])
            assert type(scalar) is float
            assert_within_ulps(scalar, tree_eval(node, xs[0]))


@pytest.mark.parametrize("text", ["0.5*x", "2^0.5 + 1", "x", "floor(x)"])
def test_constant_programs_return_fresh_arrays(text):
    xs = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    for node in (expr.parse(text), expr.diff(expr.parse(text))):
        out = expr.evaluate(expr.compile(node), xs)
        assert out.shape == xs.shape and out.flags.writeable and not np.shares_memory(out, xs)
        out[...] = np.nan
        want = [tree_eval(node, x) for x in xs.ravel()]
        assert np.array_equal(expr.evaluate(expr.compile(node), xs).ravel(), want)
    assert expr.evaluate(expr.compile(expr.parse("2^0.5 + 1")), 3.0) == 2.0**0.5 + 1
