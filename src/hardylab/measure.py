"""Potentials V and the line measures dmu = exp(-V) dx / Z they induce.

Built-in potential families (all even, evaluated at t = |x|):

    exp              V = t                           symmetric exponential
    gaussian         V = t^2 / 2                     standard normal
    power(r)         V = t^r,            r >= 1
    sinpower(a, l)   V = |t + l sin t|^a,  a > 1, l >= 0
    cattiaux(r, b)   V = t^(r+1) + (r+1) t^r sin^2 t + t^b,
                     r in (1,2), max(r/2, r - 1/r) < b - 1 < r - 1/2
    floor            V = floor(t)                    no derivative

Each family is an expression tree (see expr) that holds its parameters'
exact floats, so built-in and expression potentials share one evaluator,
their symbolic derivatives and their breakpoints (sin and cos give the
half-period pi, floor the unit lattice).  Potentials can also be given as
tabulated grids (linear interpolation, last-slope extrapolation).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from . import quad as quad_mod
from .errors import DomainValidationError, NonIntegrableError
from .quad import DEFAULT_QUAD, QuadConfig

UNDERFLOW_FLOOR = 1e-300
_LOG_FLOOR = math.log(UNDERFLOW_FLOOR)
DEFAULT_EPS_TRUNC = 1e-12
_SLICE_BITS = 18  # a sample call splits only with at least 2^18 draws per slice
_SAMPLER_NODES = 32769  # nodes of the sampler's CDF table on [-T, T]

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
    # the expression tree and its function names, set once at construction
    ast: object = field(default=None, init=False, repr=False, compare=False)
    functions: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "builtin":
            self._validate_builtin()
            self._set_ast(_family_tree(self.family, self.params))
        elif self.kind == "expression":
            self._set_ast(expr_mod.parse(self.expression))  # raises ParseError with position
        elif self.kind == "tabulated":
            xs = np.asarray(self.grid_x, dtype=float)
            if len(xs) < 2 or np.any(np.diff(xs) <= 0):
                raise DomainValidationError("tabulated grid needs >= 2 strictly increasing nodes")
            if len(self.grid_v) != len(xs):
                raise DomainValidationError("grid_x and grid_v lengths differ")
        else:
            raise DomainValidationError(f"unknown potential kind {self.kind!r}")

    def _set_ast(self, ast):
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "functions", frozenset(expr_mod.functions_used(ast)))

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
        return math.pi if self.functions & {"sin", "cos"} else None

    @property
    def unit_breakpoints(self):
        """True when the potential jumps on the integer lattice."""
        return "floor" in self.functions


def _family_tree(family, params):
    """V of a built-in family as an expression tree in t = |x|, built from
    nodes that hold the exact parameter floats (the grammar reads no
    exponent notation, so a parameter such as 1e-07 formatted into the
    text would not parse)."""
    x, num, call = expr_mod.Var(), expr_mod.Num, expr_mod.Call
    add = lambda a, b: expr_mod.Bin("+", a, b)
    mul = lambda a, b: expr_mod.Bin("*", a, b)
    pow_ = lambda a, p: expr_mod.Bin("^", a, num(p))
    if family == "exp":
        return x
    if family == "gaussian":
        return mul(num(0.5), pow_(x, 2.0))
    if family == "power":
        return pow_(x, params[0])
    if family == "sinpower":
        alpha, lam = params
        return pow_(call("abs", add(x, mul(num(lam), call("sin", x)))), alpha)
    if family == "cattiaux":
        r, beta = params
        return add(add(pow_(x, r + 1.0), mul(mul(num(r + 1.0), pow_(x, r)), pow_(call("sin", x), 2.0))),
                   pow_(x, beta))
    return call("floor", x)


@dataclass(frozen=True)
class Potential:
    """Pointwise evaluator for V, with optional almost-everywhere derivative."""

    value: object  # callable ndarray -> ndarray
    derivative: object | None
    spec: PotentialSpec

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

    def side_breakpoints(self, sign=1.0):
        """``breakpoints`` in the coordinate s = sign * x, as a callable
        (a, b) -> ascending breakpoints in (a, b); mirrored tails and
        one-sided scans integrate in s."""
        if sign > 0:
            return self.breakpoints
        return lambda a, b: [-t for t in reversed(self.breakpoints(-b, -a))]


def _even_wrap(f):
    return lambda x: f(np.abs(np.asarray(x, dtype=float)))


def _odd_wrap(df):
    """Derivative of x -> f(|x|) is sign(x) f'(|x|)."""

    def d(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * df(np.abs(x))

    return d


def _expression_potential(spec):
    """Evaluator of a built-in or expression spec's tree (at |x| when even),
    with the symbolic a.e. derivative unless V contains floor."""
    program = expr_mod.compile(spec.ast)
    base = lambda t: expr_mod.evaluate(program, t)
    dbase = None
    if "floor" not in spec.functions:
        dprogram = expr_mod.compile(expr_mod.diff(spec.ast))
        dbase = lambda t: expr_mod.evaluate(dprogram, t)
    if spec.even:
        return Potential(value=_even_wrap(base), derivative=_odd_wrap(dbase) if dbase else None, spec=spec)
    return Potential(value=base, derivative=dbase, spec=spec)


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


def _tabulated_potential(spec):
    table = _Table(spec.grid_x, spec.grid_v)
    if spec.even:
        return Potential(value=_even_wrap(table), derivative=_odd_wrap(table.deriv), spec=spec)
    return Potential(value=table, derivative=table.deriv, spec=spec)


def make_potential(spec):
    """Build the evaluator for a validated PotentialSpec.

    Built-in and expression potentials get the symbolic a.e. derivative of
    their tree unless it contains floor.  A coarse finiteness check rejects
    potentials that are not locally bounded.
    """
    pot = _tabulated_potential(spec) if spec.kind == "tabulated" else _expression_potential(spec)
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
    """A probability measure exp(-V)/Z dx.  ``ladders[sign]``, from the
    truncation search, is the ``quad.LogLadder`` of exp(-V(sign * s)) in
    s = sign * x for side sign = +1 or -1; no query or scan changes it."""

    potential: Potential
    log_z: float
    median: float
    truncation: float
    cfg: QuadConfig = field(default_factory=lambda: DEFAULT_QUAD)
    eps_trunc: float = DEFAULT_EPS_TRUNC
    label: str = ""
    ladders: dict = field(default_factory=dict, repr=False)
    _sampler: _InverseCDF | None = field(default=None, repr=False)
    _scans: dict = field(default_factory=dict, repr=False)  # criteria._SideScan by (sign, horizons)

    @property
    def is_even(self):
        return self.potential.is_even


def normalize(potential, cfg=DEFAULT_QUAD, eps_trunc=DEFAULT_EPS_TRUNC, label=""):
    """Build the normalized measure for ``potential``.

    ``quad.truncation_point`` integrates exp(-V) once per side, into the
    ladders the measure keeps; log Z is the sum of their totals, and the
    median is 0 for even potentials and otherwise read from them.
    Non-integrable potentials raise NonIntegrableError.
    """
    trunc, ladders = quad_mod.truncation_point(potential, eps_trunc, cfg)
    log_z = float(np.logaddexp(ladders[+1].suffix[0], ladders[-1].suffix[0]))
    return Measure1D(
        potential=potential,
        log_z=log_z,
        median=0.0 if potential.is_even else _ladder_quantile(ladders, log_z, 0.5),
        truncation=trunc,
        cfg=cfg,
        eps_trunc=eps_trunc,
        label=label or _default_label(potential.spec),
        ladders=ladders,
    )


def _default_label(spec):
    if spec.kind == "builtin":
        name = spec.family
        if spec.params:
            name += "(" + ",".join(f"{p:g}" for p in spec.params) + ")"
        return name
    if spec.kind == "expression":
        return spec.expression
    return "tabulated"


def _ladder_quantile(ladders, log_z, p):
    """The x with mass p * Z on (-inf, x], from unchanged ``ladders``: -s for
    the s where the left ladder's mass beyond falls to p * Z when p <= cdf(0),
    else the s where the right one's falls to (1 - p) * Z.  A root past the
    ladder's end E (a doubling-chunk end) reads a copy grown to the first
    2^i E whose mass beyond is below the target; i is found by galloping,
    then bisecting, on the ``extension`` from each candidate end, which falls
    as the end doubles, and only that copy is built.  ``quad._lattice_root``
    finds the root in the cell the suffix names."""
    left = log_z + math.log(p)
    sign, target = (-1, left) if left <= ladders[-1].suffix[0] else (1, log_z + math.log1p(-p))
    ladder = ladders[sign]
    if ladder.suffix[-1] >= target:
        end = float(ladder.edges[-1])

        def below(i):
            try:
                return ladder.extension(math.ldexp(end, i)) < target
            except NonIntegrableError:  # out of an extension's reach: grown raises it if the search ends there
                return True

        lo, hi = 0, 1  # the mass beyond 2^lo E is not below the target
        while not below(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        ladder = ladder.grown(math.ldexp(end, hi))
    j = max(int(np.count_nonzero(ladder.suffix >= target)) - 1, 0)  # suffix[j] >= target > suffix[j + 1]
    s = quad_mod._lattice_root(
        lambda t: float(ladder.upper(np.array([t]))[0] - target),
        float(ladder.edges[j]), float(ladder.edges[j + 1]),
        float(ladder.suffix[j] - target), float(ladder.suffix[j + 1] - target), steps=2**48,
    )
    return sign * s if s else 0.0  # a root at 0 gives +0.0, not -0.0


def _log_mass(ladders, x, sign):
    """Unnormalized log mass of exp(-V) on [x, inf) for sign +1 and on
    (-inf, x] for sign -1, at the finite points ``x`` (1-D) on that side of
    the median, from unchanged ``ladders``.  In s = sign * x, points with
    s <= 0 (from an uneven median to 0) add the other ladder's mass from 0
    to -s to this side's total, points up to the end E of the side's ladder
    read it, points in (E, 2E] read one copy of it grown to 2E, and each
    point farther takes one ``log_extension`` of its own.  So a point's
    value never depends on the other points of the query."""
    ladder, other = ladders[sign], ladders[-sign]
    s, end = sign * x, ladders[sign].edges[-1]
    inner, within, far = s <= 0.0, (s > 0.0) & (s <= end), s > 2.0 * end
    near = ~inner & ~within & ~far
    out = np.empty(len(s))
    out[within] = ladder.upper(s[within])
    if near.any():
        out[near] = ladder.grown(2.0 * end).upper(s[near])
    if inner.any():
        out[inner] = np.logaddexp(ladder.suffix[0], other.lower(-s[inner]))
    out[far] = [ladder.extension(t) for t in s[far].tolist()]
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
    out[near] = _log_mass(measure.ladders, flat[near], sign) - measure.log_z
    far = finite & ~near
    if far.any():  # 1 - the mass on the other side
        other = _log_mass(measure.ladders, flat[far], -sign) - measure.log_z
        out[far] = np.log1p([-math.exp(min(v, -1e-18)) for v in other.tolist()])
    return float(out[0]) if xs.ndim == 0 else out


def log_tail(measure, x):
    """log of mu([x, inf)), exact in log space far beyond float underflow.

    ``x`` is a scalar (a float is returned) or a 1-D array, whose points
    share one batched integration of the ladder they read; see
    ``_log_mass`` for points beyond the ladder.  nan raises
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
    """x with CDF(x) = p, located as the median is: in the ladder cell (of a
    grown copy, past the ladder's end) where the log mass beyond reaches its
    target, on a lattice of 2^48 steps of the cell, so x holds the quadrature
    tolerance down to the smallest float p; p = 1/2 returns the median.  p
    outside (0, 1), or nan, raises DomainValidationError."""
    if not 0.0 < p < 1.0:
        raise DomainValidationError("quantile requires p in (0, 1)")
    return measure.median if p == 0.5 else _ladder_quantile(measure.ladders, measure.log_z, p)


class _InverseCDF:
    """Piecewise-linear inverse of a CDF table, found through a guide table.

    The guide table (Chen & Asau 1974; Devroye 1986, section III.2.4) splits
    [cdf[0], cdf[-1]] into 65,536 equal-width buckets.  Each bucket stores
    the first table interval a u in it can fall in and the one node that may
    split it (``split = cdf[first + 1]``), so a draw costs one lookup, one
    compare and one add; the draws of the buckets holding two or more nodes
    that may split them (the tails) fall back to a binary search.  Nothing
    here assumes equispaced nodes.  The interval found is the one
    ``np.interp`` finds, and the arithmetic is its arithmetic, so the result
    is bit-identical to ``np.interp(clip(u), cdf, xs)``.
    """

    BUCKETS = 65536
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
        self.wide = hi - lo > 1
        # cdf[lo + 1] is the only node that can split a narrow bucket; +inf
        # past the last node keeps u = cdf[-1] in the last interval
        self.split = np.append(cdf_nodes[1:], np.inf)[lo]
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
            np.take(self.split, kc, out=fc)
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


def _build_sampler(measure):
    """Dense Simpson CDF table on [-T, T] used for vectorized inverse sampling."""
    T = measure.truncation
    xs = np.linspace(-T, T, _SAMPLER_NODES)
    mids = 0.5 * (xs[:-1] + xs[1:])
    h = xs[1] - xs[0]
    dens = lambda t: np.exp(-measure.potential.value(t) - measure.log_z)
    fa, fm, fb = dens(xs[:-1]), dens(mids), dens(xs[1:])
    seg = (fa + 4.0 * fm + fb) * (h / 6.0)
    cdf_nodes = cdf(measure, -T) + np.concatenate([[0.0], np.cumsum(seg)])
    return _InverseCDF(xs, cdf_nodes)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_slice(table, seed, batch_index, start, view):
    """Draws start, start + 1, ... of the (seed, batch_index) stream into view.

    Philox yields four uniforms per counter step, so advancing the counter by
    start // 4 (start a multiple of 4) lands on draw ``start`` exactly."""
    bitgen = np.random.Philox(key=np.uint64(seed))
    if batch_index:
        bitgen = bitgen.jumped(batch_index)
    bitgen.advance(start // 4)
    np.random.Generator(bitgen).random(out=view)
    table.invert(view)


def sample(measure, seed, count, _batch_index=0):
    """``count`` i.i.d. draws: inverse CDF applied to a Philox uniform stream.

    Philox is counter-based, so disjoint jumped sub-streams reproduce the same
    values regardless of scheduling; identical (seed, count) give identical
    output.  One call cuts its stream into slices, one per usable CPU (the
    slice starts are multiples of 4 draws, and a call of fewer than 2^18
    draws per slice stays one slice), and fills them on threads: numpy
    releases the GIL while it draws and inverts, and each slice advances its
    own copy of the stream to its start, so the draws are the same for any
    CPU count.  Draws beyond the truncation interval (total mass <= 2
    eps_trunc) clamp to its endpoints.  The inverse CDF is the linear
    interpolant of a Simpson CDF table, looked up through a guide table.
    """
    if count < 1:
        raise DomainValidationError("count must be >= 1")
    if measure._sampler is None:
        measure._sampler = _build_sampler(measure)
    table = measure._sampler
    out = np.empty(count)
    slices = max(1, min(_usable_cpus(), count >> _SLICE_BITS))
    step = -(-count // (4 * slices)) * 4
    starts = range(0, count, step)
    if len(starts) == 1:
        _fill_slice(table, seed, _batch_index, 0, out)
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(starts) - 1) as pool:
        rest = [pool.submit(_fill_slice, table, seed, _batch_index, a, out[a : a + step]) for a in starts[1:]]
        _fill_slice(table, seed, _batch_index, 0, out[:step])
        for job in rest:
            job.result()
    return out


def n_profile(measure, t):
    """N(t) = -log((2/Z) int_t^inf exp(-V)); requires an even measure.

    N(0) = 0, N is nondecreasing, and N(t) >= V(t) - O(log) for growing
    potentials; it is the exponential-quantile reparameterization used by the
    transport check.  ``t`` is a scalar or a 1-D array, as in ``log_tail``.
    """
    if not measure.is_even:
        raise DomainValidationError("n_profile requires an even measure")
    if np.any(np.asarray(t) < 0):
        raise DomainValidationError("n_profile requires t >= 0")
    return -(math.log(2.0) + log_tail(measure, t))
