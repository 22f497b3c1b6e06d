"""Closed-form transforms and quadrature evaluators for both sides of the
functional inequalities.

The two-level energy profile is H(t) = max(t^2, |t|^q) for a dual exponent
q >= 2; its convex conjugate H* has the explicit three-branch form computed
by ``h_star`` and can be cross-checked against the discrete conjugate
``legendre_numeric``.  The interpolation weight is
F(t) = log^(2/q)(1 + t) - log^(2/q)(2), and the Orlicz machinery uses
Phi(x) = x^2 log^(1 - 2/q)(e + x^2) with its Luxemburg norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .errors import BracketError, DomainValidationError, EnergyGuardError
from .quad import integrate


def _dual(r):
    """The dual exponent r' = r / (r - 1) of r in (1, 2); the one check of
    the inequality exponent r, which every function taking it calls.  r
    outside (1, 2), nan or None raises DomainValidationError."""
    if r is None or not 1.0 < r < 2.0:
        raise DomainValidationError(f"r must lie in (1, 2), got {r}")
    return r / (r - 1.0)


@dataclass(frozen=True)
class TestFunction:
    """Smooth scalar test function with an explicit derivative."""

    value: object
    derivative: object
    positive: bool = False
    label: str = ""

    @staticmethod
    def from_expression(text, positive=False):
        ast = expr_mod.parse(text)
        program, dprogram = expr_mod.compile(ast), expr_mod.compile(expr_mod.diff(ast))
        return TestFunction(
            value=lambda x: expr_mod.evaluate(program, x),
            derivative=lambda x: expr_mod.evaluate(dprogram, x),
            positive=positive,
            label=text,
        )


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs_energy: float
    ratio: float
    kind: str
    parameters: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed-form transforms
# ---------------------------------------------------------------------------


def h(r_prime, t):
    """Two-level profile max(t^2, |t|^r')."""
    if r_prime < 2.0:
        raise DomainValidationError("h requires r_prime >= 2")
    t = np.abs(np.asarray(t, dtype=float))
    out = np.maximum(t * t, np.power(t, r_prime))
    return float(out) if out.ndim == 0 else out


def h_star(r_prime, t):
    """Convex conjugate of ``h``: t^2/4, then |t|-1, then ((|t|/r')^r)/(r-1)."""
    if not r_prime > 2.0:
        raise DomainValidationError("h_star requires r_prime > 2")
    r = r_prime / (r_prime - 1.0)
    t = np.abs(np.asarray(t, dtype=float))
    if np.isnan(t).any():
        raise DomainValidationError("t must not be nan")
    with np.errstate(over="ignore"):  # a branch past the float range is inf, as is the conjugate there
        quad_branch = 0.25 * t * t
        lin_branch = t - 1.0
        pow_branch = np.power(t / r_prime, r) / (r - 1.0)
    out = np.where(t <= 2.0, quad_branch, np.where(t <= r_prime, lin_branch, pow_branch))
    return float(out) if out.ndim == 0 else out


def _lower_hull(s, gs):
    """Indices of the lower convex hull of the points (s_i, g_i), s increasing.

    A point on or above the chord of its two neighbours is never a hull
    vertex, so one vectorized pass drops all of them at once.  If none is
    dropped, the slopes increase strictly and every point is on the hull;
    otherwise Andrew's monotone chain finishes the hull of what is left.
    """
    x0, x1, x2 = s[:-2], s[1:-1], s[2:]
    y0, y1, y2 = gs[:-2], gs[1:-1], gs[2:]
    turns = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0.0
    if turns.all():
        return np.arange(len(s))
    rest = np.concatenate(([0], np.flatnonzero(turns) + 1, [len(s) - 1]))
    xs, ys = s.tolist(), gs.tolist()
    hull = []
    for i in rest.tolist():
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b unless a -> b -> i turns strictly counter-clockwise
            if (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a]) > 0.0:
                break
            hull.pop()
        hull.append(i)
    return np.array(hull)


def legendre_numeric(g, t, s_range=(-20.0, 20.0), s_steps=1_000_001):
    """Discrete conjugate max_s (t s - g(s)) over an s grid; t may be an array.

    Lucet's linear-time Legendre transform (Numer. Algorithms 16, 1997): the
    maximum over the grid is attained at a vertex of the lower convex hull of
    the points (s_i, g(s_i)), namely the one whose incoming and outgoing hull
    slopes bracket t.  That vertex and its two hull neighbours (which absorb
    rounding in the slopes) are evaluated as t s - g(s), so the result is the
    same discrete maximum as the brute force over every grid point, for any g.
    """
    lo, hi = s_range
    if not lo < hi:
        raise DomainValidationError("s_range must be increasing")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.linspace(lo, hi, s_steps)
    gs = np.asarray(g(s), dtype=float)
    hull = _lower_hull(s, gs)
    hs, hg = s[hull], gs[hull]
    slopes = np.diff(hg) / np.diff(hs)
    j = np.searchsorted(slopes, t_arr)
    cand = np.clip(j[:, None] + np.arange(-1, 2), 0, len(hull) - 1)
    best = np.max(t_arr[:, None] * hs[cand] - hg[cand], axis=1)
    return float(best[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else best


def f_r(r, t):
    """Interpolation weight log^(2/r')(1+t) - log^(2/r')(2) for t >= 0."""
    rp = _dual(r)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainValidationError("f_r requires t >= 0")
    out = np.power(np.log1p(t), 2.0 / rp) - math.pow(math.log(2.0), 2.0 / rp)
    return float(out) if out.ndim == 0 else out


def phi(r, x):
    """Young function x^2 log^(1 - 2/r')(e + x^2)."""
    rp = _dual(r)
    x = np.asarray(x, dtype=float)
    out = x * x * np.power(np.log(math.e + x * x), 1.0 - 2.0 / rp)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature functionals
# ---------------------------------------------------------------------------


def _expect(measure, integrand):
    """int integrand(x) dmu over the truncated support [-T, T], split at the
    potential's breakpoints.  Unless its first pass accepts every panel, the
    adaptive integral starts again from the cells of the measure's ladders
    inside (-T, T), mapped to x, which already resolve exp(-V)."""
    T = measure.truncation
    dens_log_z = measure.log_z

    def f(x):
        return integrand(x) * np.exp(-measure.potential.value(x) - dens_log_z)

    right, left = measure.ladders[+1].edges, measure.ladders[-1].edges
    cells = np.concatenate([-left[(left > 0.0) & (left < T)], right[right < T]])
    return integrate(f, -T, T, measure.rel_tol, breakpoints=measure.potential.breakpoints(-T, T), cells=cells).value


def luxemburg(measure, f, r):
    """Luxemburg norm: the lambda with int Phi(f/lambda) dmu = 1.

    Monotone bisection; returns 0 for f identically 0 on the support and
    raises BracketError when no lambda up to 1e6 times the natural scale
    brings the integral down to 1.
    """
    _dual(r)
    try:
        norm2_sq = _expect(measure, lambda x: np.square(f.value(x)))
    except DomainValidationError as e:
        raise BracketError(f"Phi-integral bracket failed: f is not square integrable ({e})")
    if not math.isfinite(norm2_sq):
        raise BracketError("Phi-integral bracket failed: f is not square integrable")
    if norm2_sq == 0.0:
        return 0.0

    def mean_phi(lam):
        # a non-finite Phi-integral counts as "> 1" for the bracket search
        try:
            val = _expect(measure, lambda x: phi(r, f.value(x) / lam))
        except DomainValidationError:
            return math.inf
        return val if math.isfinite(val) else math.inf

    lo = math.sqrt(norm2_sq)  # Phi(x) >= x^2 forces L >= ||f||_2
    hi = lo
    while mean_phi(hi) > 1.0:
        hi *= 2.0
        if hi > 1e6 * lo:
            raise BracketError("Phi-integral stays above 1 up to 1e6 * ||f||_2")
    if mean_phi(lo) < 1.0:
        # L can sit below ||f||_2 only by quadrature noise; tighten from below
        lo *= 0.5
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mean_phi(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def variance(measure, f):
    """Var(f) = int f^2 dmu - (int f dmu)^2."""
    m1 = _expect(measure, f.value)
    m2 = _expect(measure, lambda x: np.square(f.value(x)))
    return m2 - m1 * m1


def entropy_sq(measure, f):
    """Ent(f^2) = int f^2 log f^2 dmu - (int f^2) log(int f^2)."""
    m2 = _expect(measure, lambda x: np.square(f.value(x)))

    def tlogt(x):
        g = np.square(f.value(x))
        return np.where(g > 0.0, g * np.log(np.maximum(g, 1e-300)), 0.0)

    raw = _expect(measure, tlogt)
    if m2 <= 0.0:
        return 0.0
    return raw - m2 * math.log(m2)


_LO_LEVELS = 40  # most dyadic levels of the lo_lhs theta grid


def lo_lhs(measure, f, r):
    """Interpolated variance-type left-hand side:

        sup_theta [int f^2 - (int |f|^theta)^(2/theta)] / (2 - theta)^(2(1-1/r))

    evaluated on the dyadic grid theta_j = 2 - 2^-j accumulating at 2, with a
    three-point parabolic refinement around the grid maximum.  Levels are cut
    off once successive values differ by < 1e-10 or the numerator falls into
    cancellation noise.
    """
    _dual(r)
    expo = 2.0 * (1.0 - 1.0 / r)
    m2 = _expect(measure, lambda x: np.square(f.value(x)))
    if m2 <= 0.0:
        return 0.0

    def moment(theta):
        return _expect(measure, lambda x: np.power(np.abs(f.value(x)), theta))

    def ratio(theta):
        num = m2 - math.pow(moment(theta), 2.0 / theta)
        num = max(num, 0.0)
        return num / math.pow(2.0 - theta, expo), num

    noise_floor = 1e-10 * max(1.0, m2)
    values = []
    thetas = []
    prev = None
    for j in range(1, _LO_LEVELS + 1):
        theta = 2.0 - math.pow(2.0, -j)
        val, num = ratio(theta)
        values.append(val)
        thetas.append(theta)
        if num < noise_floor:
            break
        if prev is not None and abs(val - prev) < 1e-10:
            break
        prev = val
    best = int(np.argmax(values))
    result = values[best]
    if 0 < best < len(values) - 1:
        # parabolic refinement in the j coordinate (log2 of 2 - theta)
        y0, y1, y2 = values[best - 1], values[best], values[best + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            shift = 0.5 * (y0 - y2) / denom
            if -1.0 < shift < 1.0:
                theta_ref = 2.0 - math.pow(2.0, -(best + 1 + shift))
                result = max(result, ratio(theta_ref)[0])
    return result


_ENERGY_KINDS = ("dirichlet", "mls", "weighted", "itau", "frsob")


def energy(measure, f, kind, r=None, tau=None):
    """Named energy/weight integrals.

    dirichlet          int f'^2 dmu
    mls(r)             int H_r'(|f'|/f) f^2 dmu       (f must be positive)
    weighted(r)        int f'^2 (1 + |x|^(2-r)) dmu
    itau(tau)          int f'^2 log^(1-tau)(e + f^2/int f^2) dmu
    frsob(r)           int f^2 F_r(f^2 / int f^2) dmu  (a left-hand side)
    """
    if kind not in _ENERGY_KINDS:
        raise DomainValidationError(f"unknown energy kind {kind!r}")
    rp = _dual(r) if kind in ("mls", "weighted", "frsob") else None
    if kind == "dirichlet":
        return _expect(measure, lambda x: np.square(f.derivative(x)))
    if kind == "mls":
        if not f.positive:
            raise DomainValidationError("mls energy requires a positive test function")

        def integrand(x):
            fx = f.value(x)
            if np.any(fx <= 0.0):
                raise DomainValidationError("mls energy: test function vanishes on the support")
            ratio = np.abs(f.derivative(x)) / fx
            return h(rp, ratio) * fx * fx

        return _expect(measure, integrand)
    if kind == "weighted":
        return _expect(
            measure,
            lambda x: np.square(f.derivative(x)) * (1.0 + np.power(np.abs(x), 2.0 - r)),
        )
    if kind == "itau":
        if tau is None or not 0.0 < tau < 1.0:
            raise DomainValidationError("itau requires tau in (0, 1)")
        m2 = _expect(measure, lambda x: np.square(f.value(x)))
        if m2 <= 0.0:
            return 0.0
        return _expect(
            measure,
            lambda x: np.square(f.derivative(x))
            * np.power(np.log(math.e + np.square(f.value(x)) / m2), 1.0 - tau),
        )
    # frsob
    m2 = _expect(measure, lambda x: np.square(f.value(x)))
    if m2 <= 0.0:
        return 0.0
    return _expect(measure, lambda x: np.square(f.value(x)) * f_r(r, np.square(f.value(x)) / m2))


# inequality kind: (required parameter or None, (measure, f[, parameter]) -> (lhs, rhs energy))
INEQUALITIES = {
    "poincare": (None, lambda m, f: (variance(m, f), energy(m, f, "dirichlet"))),
    "lsi": (None, lambda m, f: (entropy_sq(m, f), energy(m, f, "dirichlet"))),
    "lo": ("r", lambda m, f, r: (lo_lhs(m, f, r), energy(m, f, "dirichlet"))),
    "mls": ("r", lambda m, f, r: (entropy_sq(m, f), energy(m, f, "mls", r=r))),
    "weighted": ("r", lambda m, f, r: (entropy_sq(m, f), energy(m, f, "weighted", r=r))),
    "frsob": ("r", lambda m, f, r: (energy(m, f, "frsob", r=r), energy(m, f, "dirichlet"))),
    "itau": ("tau", lambda m, f, tau: (entropy_sq(m, f), energy(m, f, "itau", tau=tau))),
}


def ratio_report(measure, f, kind, r=None, tau=None):
    """Pair the correct LHS and RHS for one inequality and report lhs/rhs.

    Kinds: poincare, lsi, lo, mls, weighted, frsob, itau.  A constant test
    function gives ratio 0 for every kind; a vanishing RHS with nonvanishing
    LHS raises EnergyGuardError.  For itau the report carries the second
    component (the squared L2 mass) in ``parameters``.
    """
    if kind not in INEQUALITIES:
        raise DomainValidationError(f"unknown inequality kind {kind!r}")
    name, sides = INEQUALITIES[kind]
    params = {name: {"r": r, "tau": tau}[name]} if name else {}
    if None in params.values():
        raise DomainValidationError(f"{kind} requires {name}")
    lhs, rhs = sides(measure, f, *params.values())
    if kind == "itau":
        params["l2_moment"] = _expect(measure, lambda x: np.square(f.value(x)))
    if lhs <= 1e-8:  # quadrature noise floor; constants land here
        ratio = 0.0
    elif rhs < 1e-14:
        raise EnergyGuardError(f"{kind}: energy below guard with nonzero lhs")
    else:
        ratio = lhs / rhs
    return InequalityReport(lhs=lhs, rhs_energy=rhs, ratio=ratio, kind=kind, parameters=params)
