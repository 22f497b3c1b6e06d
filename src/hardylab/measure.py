"""Potentials V and the line measures dmu = exp(-V) dx / Z they induce.

Built-in potential families (all even, evaluated at |x|):

    exp              V(x) = |x|                      symmetric exponential
    gaussian         V(x) = x^2 / 2                  standard normal
    power(r)         V(x) = |x|^r,       r >= 1
    sinpower(a, l)   V(x) = |x + l sin x|^a,  a > 1, l >= 0
    cattiaux(r, b)   V(x) = |x|^(r+1) + (r+1)|x|^r sin^2 x + |x|^b,
                     r in (1,2), max(r/2, r - 1/r) < b - 1 < r - 1/2
    floor            V(x) = floor(|x|)               no derivative

Potentials can also be given as expression strings (see expr) or as
tabulated grids (linear interpolation, last-slope extrapolation with an
extrapolation flag per query).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from . import quad as quad_mod
from .errors import BracketError, DomainValidationError
from .quad import DEFAULT_QUAD, QuadConfig

UNDERFLOW_FLOOR = 1e-300
_LOG_FLOOR = math.log(UNDERFLOW_FLOOR)
DEFAULT_EPS_TRUNC = 1e-12

_FAMILY_ARITY = {"exp": 0, "gaussian": 0, "power": 1, "sinpower": 2, "cattiaux": 2, "floor": 0}


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a potential; validated at construction."""

    kind: str  # "builtin" | "expression" | "tabulated"
    family: str | None = None
    params: tuple = ()
    expression: str | None = None
    grid_x: tuple = ()
    grid_v: tuple = ()
    even: bool = True

    def __post_init__(self):
        if self.kind == "builtin":
            self._validate_builtin()
        elif self.kind == "expression":
            expr_mod.parse(self.expression)  # raises ParseError with position
        elif self.kind == "tabulated":
            xs = np.asarray(self.grid_x, dtype=float)
            if len(xs) < 2 or np.any(np.diff(xs) <= 0):
                raise DomainValidationError("tabulated grid needs >= 2 strictly increasing nodes")
            if len(self.grid_v) != len(xs):
                raise DomainValidationError("grid_x and grid_v lengths differ")
        else:
            raise DomainValidationError(f"unknown potential kind {self.kind!r}")

    def _validate_builtin(self):
        fam = self.family
        if fam not in _FAMILY_ARITY:
            raise DomainValidationError(f"unknown builtin family {fam!r}")
        if len(self.params) != _FAMILY_ARITY[fam]:
            raise DomainValidationError(
                f"{fam} takes {_FAMILY_ARITY[fam]} parameter(s), got {len(self.params)}"
            )
        if fam == "power":
            (r,) = self.params
            if not r >= 1.0:
                raise DomainValidationError("power(r) needs r >= 1")
        elif fam == "sinpower":
            alpha, lam = self.params
            if not (alpha > 1.0 and lam >= 0.0):
                raise DomainValidationError("sinpower(alpha, lam) needs alpha > 1 and lam >= 0")
        elif fam == "cattiaux":
            r, beta = self.params
            if not (1.0 < r < 2.0):
                raise DomainValidationError("cattiaux(r, beta) needs r in (1, 2)")
            lo = max(r / 2.0, r - 1.0 / r)
            if not (lo < beta - 1.0 < r - 0.5):
                raise DomainValidationError(
                    f"cattiaux(r, beta) needs {lo:.4f} < beta - 1 < {r - 0.5:.4f}"
                )

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def builtin(family, *params):
        return PotentialSpec(kind="builtin", family=family, params=tuple(float(p) for p in params))

    @staticmethod
    def from_expression(text, even=False):
        return PotentialSpec(kind="expression", expression=text, even=even)

    @staticmethod
    def tabulated(xs, vs, even=False):
        return PotentialSpec(
            kind="tabulated", grid_x=tuple(map(float, xs)), grid_v=tuple(map(float, vs)), even=even
        )

    @staticmethod
    def from_string(token):
        """CLI syntax: ``family``, ``family:p1,p2`` or ``expr:<expression>``."""
        if token.startswith("expr:"):
            return PotentialSpec.from_expression(token[5:], even=False)
        name, _, rest = token.partition(":")
        params = [float(p) for p in rest.split(",") if p] if rest else []
        return PotentialSpec.builtin(name, *params)

    @property
    def oscillation_halfperiod(self):
        """Half oscillation period for panel splitting, or None."""
        if self.kind == "builtin":
            if self.family == "sinpower":
                return math.pi
            if self.family == "cattiaux":
                return math.pi / 2.0  # sin^2 has period pi
        if self.kind == "expression":
            fns = expr_mod.functions_used(expr_mod.parse(self.expression))
            if fns & {"sin", "cos"}:
                return math.pi
        return None

    @property
    def unit_breakpoints(self):
        """True when the potential jumps on the integer lattice."""
        if self.kind == "builtin" and self.family == "floor":
            return True
        if self.kind == "expression":
            return "floor" in expr_mod.functions_used(expr_mod.parse(self.expression))
        return False


@dataclass(frozen=True)
class Potential:
    """Pointwise evaluator for V, with optional almost-everywhere derivative."""

    value: object  # callable ndarray -> ndarray
    derivative: object | None
    spec: PotentialSpec
    kinks: tuple = ()

    @property
    def is_even(self):
        return self.spec.even

    def breakpoints(self, a, b):
        """Interior panel-split points in (a, b): oscillation and jump lattices."""
        pts = []
        half = self.spec.oscillation_halfperiod
        if half is not None:
            k0 = math.floor(a / half) + 1
            k1 = math.ceil(b / half) - 1
            if k1 >= k0:
                pts.extend(np.arange(k0, k1 + 1) * half)
        if self.spec.unit_breakpoints:
            k0 = math.floor(a) + 1
            k1 = math.ceil(b) - 1
            if k1 >= k0:
                pts.extend(float(k) for k in range(int(k0), int(k1) + 1))
        return sorted(p for p in pts if a < p < b)

    def side_breakpoints(self, center=0.0, sign=1.0):
        """``breakpoints`` in the coordinate s = sign * (x - center), as a
        callable (a, b) -> ascending breakpoints in (a, b); mirrored tails and
        one-sided scans integrate in s."""
        if sign > 0:
            return lambda a, b: [t - center for t in self.breakpoints(center + a, center + b)]
        return lambda a, b: [center - t for t in reversed(self.breakpoints(center - b, center - a))]


def _even_wrap(f):
    return lambda x: f(np.abs(np.asarray(x, dtype=float)))


def _odd_wrap(df):
    """Derivative of x -> f(|x|) is sign(x) f'(|x|)."""

    def d(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * df(np.abs(x))

    return d


def _builtin_potential(spec):
    fam, p = spec.family, spec.params
    if fam == "exp":
        value = lambda t: t
        deriv = lambda t: np.ones_like(np.asarray(t, dtype=float))
        kinks = (0.0,)
    elif fam == "gaussian":
        return Potential(
            value=lambda x: 0.5 * np.square(np.asarray(x, dtype=float)),
            derivative=lambda x: np.asarray(x, dtype=float),
            spec=spec,
            kinks=(),
        )
    elif fam == "power":
        (r,) = p
        value = lambda t: np.power(t, r)
        deriv = lambda t: r * np.power(t, r - 1.0, where=t > 0, out=np.zeros_like(t))
        kinks = (0.0,)
    elif fam == "sinpower":
        alpha, lam = p

        def value(t):
            return np.power(np.abs(t + lam * np.sin(t)), alpha)

        def deriv(t):
            u = t + lam * np.sin(t)
            return alpha * np.power(np.abs(u), alpha - 1.0) * np.sign(u) * (1.0 + lam * np.cos(t))

        kinks = (0.0,)
    elif fam == "cattiaux":
        r, beta = p

        def value(t):
            return np.power(t, r + 1.0) + (r + 1.0) * np.power(t, r) * np.square(np.sin(t)) + np.power(t, beta)

        def deriv(t):
            return (
                (r + 1.0) * (1.0 + np.sin(2.0 * t)) * np.power(t, r)
                + r * (r + 1.0) * np.power(t, r - 1.0, where=t > 0, out=np.zeros_like(t)) * np.square(np.sin(t))
                + beta * np.power(t, beta - 1.0, where=t > 0, out=np.zeros_like(t))
            )

        kinks = (0.0,)
    elif fam == "floor":
        return Potential(
            value=_even_wrap(lambda t: np.floor(t)), derivative=None, spec=spec, kinks=()
        )
    else:  # pragma: no cover - guarded by spec validation
        raise AssertionError(fam)
    return Potential(
        value=_even_wrap(value), derivative=_odd_wrap(deriv), spec=spec, kinks=kinks
    )


def _expression_potential(spec):
    ast = expr_mod.parse(spec.expression)
    base = lambda t: np.asarray(expr_mod.evaluate(ast, t), dtype=float)
    if "floor" in expr_mod.functions_used(ast):
        dbase = None
    else:
        dast = expr_mod.diff(ast)
        dbase = lambda t: np.asarray(expr_mod.evaluate(dast, t), dtype=float)
    if spec.even:
        value = _even_wrap(base)
        deriv = _odd_wrap(dbase) if dbase is not None else None
        kinks = (0.0,)
    else:
        value, deriv, kinks = base, dbase, (0.0,)
    return Potential(value=value, derivative=deriv, spec=spec, kinks=kinks)


class _Table:
    """Linear interpolation with last-slope extrapolation on both ends."""

    def __init__(self, xs, vs):
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        self.slope_lo = (self.vs[1] - self.vs[0]) / (self.xs[1] - self.xs[0])
        self.slope_hi = (self.vs[-1] - self.vs[-2]) / (self.xs[-1] - self.xs[-2])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inner = np.interp(x, self.xs, self.vs)
        lo = self.vs[0] + (x - self.xs[0]) * self.slope_lo
        hi = self.vs[-1] + (x - self.xs[-1]) * self.slope_hi
        return np.where(x < self.xs[0], lo, np.where(x > self.xs[-1], hi, inner))

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        slopes = (self.vs[idx + 1] - self.vs[idx]) / (self.xs[idx + 1] - self.xs[idx])
        slopes = np.where(x < self.xs[0], self.slope_lo, slopes)
        return np.where(x > self.xs[-1], self.slope_hi, slopes)

    def extrapolated(self, x):
        x = np.asarray(x, dtype=float)
        return (x < self.xs[0]) | (x > self.xs[-1])


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    table: object = None

    def extrapolated(self, x):
        """Flag queries outside the tabulated grid (per-point mask)."""
        x = np.asarray(x, dtype=float)
        return self.table.extrapolated(np.abs(x) if self.is_even else x)


def _tabulated_potential(spec):
    table = _Table(spec.grid_x, spec.grid_v)
    if spec.even:
        value = _even_wrap(table)
        deriv = _odd_wrap(table.deriv)
    else:
        value, deriv = table, table.deriv
    return TabulatedPotential(
        value=value, derivative=deriv, spec=spec, kinks=tuple(spec.grid_x), table=table
    )


def make_potential(spec):
    """Build the evaluator for a validated PotentialSpec.

    Built-in families come with analytic derivatives where smooth (floor has
    none); expression potentials get the symbolic a.e. derivative unless they
    contain floor.  A coarse finiteness check rejects potentials that are not
    locally bounded.
    """
    if spec.kind == "builtin":
        pot = _builtin_potential(spec)
    elif spec.kind == "expression":
        pot = _expression_potential(spec)
    else:
        pot = _tabulated_potential(spec)
    probe = np.array([-97.3, -31.7, -9.1, -1.3, -0.21, 0.17, 0.93, 7.7, 23.9, 88.1])
    vals = pot.value(probe)
    if not np.all(np.isfinite(vals)):
        bad = probe[~np.isfinite(np.asarray(vals))][0]
        raise DomainValidationError(f"potential is not finite at x={bad}")
    return pot


# ---------------------------------------------------------------------------
# Normalized measures
# ---------------------------------------------------------------------------


@dataclass
class Measure1D:
    """A probability measure exp(-V)/Z dx with cached tail machinery."""

    potential: Potential
    log_z: float
    median: float
    truncation: float
    cfg: QuadConfig = field(default_factory=lambda: DEFAULT_QUAD)
    eps_trunc: float = DEFAULT_EPS_TRUNC
    label: str = ""
    _ladders: dict = field(default_factory=dict, repr=False)  # quad.LogLadder by side
    _sampler: _InverseCDF | None = field(default=None, repr=False)
    _scans: dict = field(default_factory=dict, repr=False)  # criteria._SideScan by (sign, horizons, grid step)

    @property
    def is_even(self):
        return self.potential.is_even

    def neg_v(self, x):
        return -self.potential.value(x)

    def _ladder(self, sign):
        """The LogLadder of exp(-V), unnormalized, from the median out to
        truncation + 5 on side ``sign``, with the mass beyond that end; built
        on first use at the measure's ``cfg``.  Its edges are a linspace at
        step <= pi/8 plus the potential's breakpoints."""
        if sign not in self._ladders:
            end = sign * (self.truncation + 5.0)
            a, b = sorted((self.median, end))
            n = max(64, int(math.ceil((b - a) / (math.pi / 8.0))))
            edges = np.unique(np.concatenate([np.linspace(a, b, n + 1), self.potential.breakpoints(a, b)]))
            beyond = _log_mass_beyond(self.potential, abs(end), sign)
            ptol = max(self.cfg.rel_tol * 0.1, 1e-14)  # integrate_log's panel tolerance
            outer = {"after": beyond} if sign > 0 else {"before": beyond}
            # -V without a reference to the measure, which would make it a cycle
            pot = self.potential
            self._ladders[sign] = quad_mod.LogLadder(
                lambda x: -pot.value(x), edges, ptol, self.cfg.max_depth, strict=True, **outer
            )
        return self._ladders[sign]


def _log_mass_beyond(potential, x, sign):
    """log of the integral of exp(-V) over sign * t >= x, in doubling chunks
    split at the breakpoints."""
    return quad_mod.log_extension(
        lambda s: -potential.value(sign * s), x, initial_width=1.0,
        breakpoints=potential.side_breakpoints(0.0, sign),
    )


def normalize(potential, cfg=DEFAULT_QUAD, eps_trunc=DEFAULT_EPS_TRUNC, label=""):
    """Build the normalized measure for ``potential``.

    log Z includes the doubling-chunk tails beyond the truncation point, the
    median is found by a monotone root find on the CDF (0 exactly for even
    potentials), and non-integrable potentials raise NonIntegrableError.
    """
    trunc = quad_mod.truncation_point(potential, eps_trunc)
    neg_v = lambda x: -potential.value(x)
    core = quad_mod.integrate_log(
        neg_v, -trunc, trunc, cfg, breakpoints=potential.breakpoints(-trunc, trunc)
    ).log_value
    tail_r = _log_mass_beyond(potential, trunc, +1.0)
    tail_l = _log_mass_beyond(potential, trunc, -1.0)
    log_z = float(np.logaddexp(np.logaddexp(core, tail_r), tail_l))
    m = Measure1D(
        potential=potential,
        log_z=log_z,
        median=0.0,
        truncation=trunc,
        cfg=cfg,
        eps_trunc=eps_trunc,
        label=label or _default_label(potential.spec),
    )
    if not potential.is_even:
        m.median = _find_median(m)
    return m


def _default_label(spec):
    if spec.kind == "builtin":
        name = spec.family
        if spec.params:
            name += "(" + ",".join(f"{p:g}" for p in spec.params) + ")"
        return name
    if spec.kind == "expression":
        return spec.expression
    return "tabulated"


def _find_median(measure):
    lo, hi = -measure.truncation, measure.truncation
    f = lambda x: cdf(measure, x) - 0.5
    flo, fhi = f(lo), f(hi)
    if not flo < 0 < fhi:
        raise BracketError("median bracket failed inside [-truncation, truncation]")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < 1e-13:
            return mid
        if fm < 0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _log_mass(measure, x, sign):
    """Unnormalized log mass of exp(-V) on [x, inf) for sign +1 and on
    (-inf, x] for sign -1, at the finite points ``x`` (1-D) on that side of
    the median.  The side's ladder is built even when ``x`` is empty."""
    ladder = measure._ladder(sign)
    lo, hi = float(ladder.edges[0]), float(ladder.edges[-1])
    if sign > 0:
        inside, beyond = (lo <= x) & (x < hi), x >= hi
    else:
        inside, beyond = (lo < x) & (x <= hi), x <= lo
    out = np.empty(len(x))
    out[inside] = (ladder.upper if sign > 0 else ladder.lower)(x[inside])
    for i in np.flatnonzero(beyond):
        out[i] = _log_mass_beyond(measure.potential, sign * float(x[i]), sign)
    # between the median and a ladder built before the median was found
    for i in np.flatnonzero(~inside & ~beyond):
        a, b = (float(x[i]), lo) if sign > 0 else (hi, float(x[i]))
        bps = measure.potential.breakpoints(a, b)
        partial = quad_mod.integrate_log(measure.neg_v, a, b, measure.cfg, breakpoints=bps).log_value
        out[i] = np.logaddexp(partial, ladder.suffix[0] if sign > 0 else ladder.prefix[-1])
    return out


def _log_prob(measure, x, sign):
    """log mu([x, inf)) for sign +1 and log mu((-inf, x]) for sign -1."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise DomainValidationError("query point is nan")
    flat = np.atleast_1d(xs)
    # mass 0 past +inf (sign +1) or -inf (sign -1) and 1 past the other; finite points are overwritten
    out = np.where(sign * flat > 0, -np.inf, 0.0)
    finite = np.isfinite(flat)
    near = finite & ((flat >= measure.median) if sign > 0 else (flat <= measure.median))
    out[near] = _log_mass(measure, flat[near], sign) - measure.log_z
    far = finite & ~near
    if far.any():  # 1 - the mass on the other side
        other = _log_mass(measure, flat[far], -sign) - measure.log_z
        out[far] = np.log1p([-math.exp(min(v, -1e-18)) for v in other.tolist()])
    return float(out[0]) if xs.ndim == 0 else out


def log_tail(measure, x):
    """log of mu([x, inf)), exact in log space far beyond float underflow.

    ``x`` is a scalar (a float is returned) or a 1-D array, whose points
    inside a ladder share one batched integration.  nan raises
    DomainValidationError; -inf gives 0 and +inf gives -inf.
    """
    return _log_prob(measure, x, +1)


def log_cdf(measure, x):
    """log of mu((-inf, x]), as ``log_tail``."""
    return _log_prob(measure, x, -1)


def _exp_floored(log_p):
    """exp of a float or 1-D array of log probabilities; below 1e-300 is 0."""
    vals = [math.exp(v) if v >= _LOG_FLOOR else 0.0 for v in np.atleast_1d(log_p).tolist()]
    return vals[0] if np.ndim(log_p) == 0 else np.array(vals)


def tail(measure, x):
    """mu([x, inf)) at a scalar or 1-D ``x``; values below 1e-300 report as 0."""
    return _exp_floored(log_tail(measure, x))


def cdf(measure, x):
    """mu((-inf, x]), as ``tail``."""
    return _exp_floored(log_cdf(measure, x))


def quantile(measure, p):
    """x with CDF(x) = p to 1e-11 absolute in p (bisection + secant polish)."""
    if not 0.0 < p < 1.0:
        raise DomainValidationError("quantile requires p in (0, 1)")
    if measure.is_even and p == 0.5:
        return 0.0
    # bracket
    lo, hi = measure.median - 1.0, measure.median + 1.0
    while cdf(measure, lo) > p:
        lo = measure.median - 2.0 * (measure.median - lo)
        if measure.median - lo > 1e7:
            raise BracketError("quantile bracket expansion failed (left)")
    while cdf(measure, hi) < p:
        hi = measure.median + 2.0 * (hi - measure.median)
        if hi - measure.median > 1e7:
            raise BracketError("quantile bracket expansion failed (right)")
    flo, fhi = cdf(measure, lo) - p, cdf(measure, hi) - p
    x = 0.5 * (lo + hi)
    for it in range(200):
        fx = cdf(measure, x) - p
        if abs(fx) <= 1e-11 or hi - lo <= 1e-15 * max(1.0, abs(x)):
            return x
        if fx < 0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        # alternate secant and bisection so a stale endpoint cannot stall
        if it % 2 == 0 and fhi != flo:
            xs = hi - fhi * (hi - lo) / (fhi - flo)
        else:
            xs = 0.5 * (lo + hi)
        x = xs if lo < xs < hi else 0.5 * (lo + hi)
    return x


class _InverseCDF:
    """Piecewise-linear inverse of a CDF table, found through a guide table.

    The guide table (Chen & Asau 1974; Devroye 1986, section III.2.4) splits
    [cdf[0], cdf[-1]] into equal-width buckets.  Each bucket stores the first
    table interval a u in it can fall in; a few vectorized forward steps
    finish the search, and the draws of the few buckets that span more
    intervals than that fall back to a binary search.  The interval found is
    the one ``np.interp`` finds, and the arithmetic is its arithmetic, so
    the result is bit-identical to ``np.interp(clip(u), cdf, xs)``.
    """

    BUCKETS = 32768
    STEPS = 4
    CHUNK = 32768  # draws per pass, so the temporaries stay in cache

    def __init__(self, xs, cdf_nodes):
        self.xs, self.cdf = xs, cdf_nodes
        self.lo_u, self.hi_u = cdf_nodes[0], cdf_nodes[-1]
        self.scale = self.BUCKETS / (self.hi_u - self.lo_u)
        # bucket(.) is monotone, so a u in bucket b lies above every node of
        # a lower bucket and below every node of a higher one: the interval
        # index of u lies in [lo[b], hi[b]] exactly, with no rounding margin
        node_bucket = np.empty(len(cdf_nodes), dtype=np.intp)
        self._bucket(cdf_nodes, np.empty(len(cdf_nodes)), node_bucket)
        buckets = np.arange(self.BUCKETS)
        lo = np.maximum(np.searchsorted(node_bucket, buckets, side="left") - 1, 0)
        hi = np.searchsorted(node_bucket, buckets, side="right") - 1
        self.first = lo
        self.wide = hi - lo > self.STEPS
        # next_cdf[j] = cdf[j + 1]; +inf stops the steps at the last node
        self.next_cdf = np.append(cdf_nodes[1:], np.inf)
        # np.interp's slopes; the last node's slope multiplies u - cdf[-1] = 0
        self.slope = np.append(np.diff(xs) / np.diff(cdf_nodes), 0.0)

    def _bucket(self, u, scratch, out):
        """Bucket index of each u >= cdf[0] (truncation is floor there)."""
        np.subtract(u, self.lo_u, out=scratch)
        scratch *= self.scale
        out[:] = scratch
        np.minimum(out, self.BUCKETS - 1, out=out)

    def invert(self, u):
        """Overwrite the uniforms ``u`` with their inverse-CDF values.

        With j the last node with cdf[j] <= u, np.interp returns xs[j] when
        u == cdf[j] (so also xs[-1] when u >= cdf[-1]) and otherwise
        slope[j] * (u - cdf[j]) + xs[j].  cdf[j + 1] > u makes slope[j]
        finite, so the general formula also yields xs[j] exactly when
        u == cdf[j] (xs holds no -0.0), and slope[-1] = 0 covers the last node.
        """
        np.clip(u, self.lo_u, self.hi_u, out=u)
        size = min(len(u), self.CHUNK)
        k, j = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
        f, flag = np.empty(size), np.empty(size, dtype=bool)
        for start in range(0, len(u), self.CHUNK):
            uc = u[start : start + self.CHUNK]
            n = len(uc)
            kc, jc, fc, flagc = k[:n], j[:n], f[:n], flag[:n]
            self._bucket(uc, fc, kc)
            np.take(self.first, kc, out=jc)
            for _ in range(self.STEPS):
                np.take(self.next_cdf, jc, out=fc)
                np.less_equal(fc, uc, out=flagc)
                jc += flagc
            np.take(self.wide, kc, out=flagc)
            wide = np.flatnonzero(flagc)
            if len(wide):
                jc[wide] = np.searchsorted(self.cdf, uc[wide], side="right") - 1
            np.take(self.cdf, jc, out=fc)
            np.subtract(uc, fc, out=fc)
            np.take(self.slope, jc, out=uc)
            uc *= fc
            np.take(self.xs, jc, out=fc)
            uc += fc
        return u


def _build_sampler(measure, nodes=32769):
    """Dense Simpson CDF table on [-T, T] used for vectorized inverse sampling."""
    T = measure.truncation
    xs = np.linspace(-T, T, nodes)
    mids = 0.5 * (xs[:-1] + xs[1:])
    h = xs[1] - xs[0]
    dens = lambda t: np.exp(measure.neg_v(t) - measure.log_z)
    fa, fm, fb = dens(xs[:-1]), dens(mids), dens(xs[1:])
    seg = (fa + 4.0 * fm + fb) * (h / 6.0)
    cdf_nodes = cdf(measure, -T) + np.concatenate([[0.0], np.cumsum(seg)])
    return _InverseCDF(xs, cdf_nodes)


def sample(measure, seed, count, _batch_index=0):
    """``count`` i.i.d. draws: inverse CDF applied to a Philox uniform stream.

    Philox is counter-based, so disjoint jumped sub-streams reproduce the same
    values regardless of scheduling; identical (seed, count) give identical
    output.  Draws beyond the truncation interval (total mass <= 2 eps_trunc)
    clamp to its endpoints.  The inverse CDF is the linear interpolant of a
    Simpson CDF table, looked up through a guide table.
    """
    if count < 1:
        raise DomainValidationError("count must be >= 1")
    if measure._sampler is None:
        measure._sampler = _build_sampler(measure)
    bitgen = np.random.Philox(key=np.uint64(seed))
    if _batch_index:
        bitgen = bitgen.jumped(_batch_index)
    return measure._sampler.invert(np.random.Generator(bitgen).random(count))


def n_profile(measure, t):
    """N(t) = -log((2/Z) int_t^inf exp(-V)); requires an even measure.

    N(0) = 0, N is nondecreasing, and N(t) >= V(t) - O(log) for growing
    potentials; it is the exponential-quantile reparameterization used by the
    transport check.  ``t`` is a scalar (a float is returned) or a 1-D array.
    """
    if not measure.is_even:
        raise DomainValidationError("n_profile requires an even measure")
    if np.any(np.asarray(t) < 0):
        raise DomainValidationError("n_profile requires t >= 0")
    return -(math.log(2.0) + log_tail(measure, t))
