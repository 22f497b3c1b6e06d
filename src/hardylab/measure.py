"""Potentials V and the line measures dmu = exp(-V) dx / Z they induce.

Built-in potential families (all even, evaluated at t = |x|):

    exp              V = t                           symmetric exponential
    gaussian         V = t^2 / 2                     standard normal
    power(r)         V = t^r,            r >= 1
    sinpower(a, l)   V = |t + l sin t|^a,  a > 1, l >= 0
    cattiaux(r, b)   V = t^(r+1) + (r+1) t^r sin^2 t + t^b,
                     r in (1,2), max(r/2, r - 1/r) < b - 1 < r - 1/2
    floor            V = floor(t)                    no derivative

A ``Potential`` is one expression tree (see expr), compiled once with its
symbolic derivative.  Its three constructors:

    Potential.builtin(family, *params)           a family's tree, holding
                                                 the parameters' exact floats
    Potential.from_expression(text)              an expression in x
    Potential.from_string(token)                 the CLI syntax of either
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from . import quad as quad_mod
from .errors import DomainValidationError, NonIntegrableError

UNDERFLOW_FLOOR = 1e-300
_LOG_FLOOR = math.log(UNDERFLOW_FLOOR)
DEFAULT_EPS_TRUNC = 1e-12
_SLICE_BITS = 18  # a sample call splits only with at least 2^18 draws per slice
_SAMPLER_NODES = 32769  # nodes of the sampler's CDF table on [-T, T]

_FAMILY_ARITY = {"exp": 0, "gaussian": 0, "power": 1, "sinpower": 2, "cattiaux": 2, "floor": 0}


@dataclass(frozen=True)
class Potential:
    """V as an expression tree, compiled once into pointwise evaluators.

    ``value`` and ``derivative`` take an ndarray; the derivative is the
    tree's symbolic a.e. derivative, or None when V contains floor.  An even
    potential's V is the tree at |x|, with derivative sign(x) V'(|x|).  A
    coarse finiteness check rejects potentials that are not locally bounded.
    """

    ast: object
    even: bool = False
    label: str = ""
    # set once at construction from the tree
    value: object = field(init=False, repr=False, compare=False)
    derivative: object = field(init=False, repr=False, compare=False)
    functions: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        functions = frozenset(expr_mod.functions_used(self.ast))
        program = expr_mod.compile(self.ast)
        dprogram = None if "floor" in functions else expr_mod.compile(expr_mod.diff(self.ast))
        if self.even:
            value = lambda x: expr_mod.evaluate(program, np.abs(np.asarray(x, dtype=float)))

            def derivative(x):
                x = np.asarray(x, dtype=float)
                return np.sign(x) * expr_mod.evaluate(dprogram, np.abs(x))
        else:
            value = lambda x: expr_mod.evaluate(program, x)
            derivative = lambda x: expr_mod.evaluate(dprogram, x)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "derivative", None if dprogram is None else derivative)
        probe = np.array([-97.3, -31.7, -9.1, -1.3, -0.21, 0.17, 0.93, 7.7, 23.9, 88.1])
        bad = probe[~np.isfinite(value(probe))]
        if bad.size:
            raise DomainValidationError(f"potential is not finite at x={bad[0]}")

    @staticmethod
    def builtin(family, *params):
        """The even potential of a built-in family, labelled ``family(p1,p2)``."""
        params = tuple(float(p) for p in params)
        _validate_builtin(family, params)
        label = family + ("(" + ",".join(f"{p:g}" for p in params) + ")" if params else "")
        return Potential(_family_tree(family, params), even=True, label=label)

    @staticmethod
    def from_expression(text):
        """The potential of an expression in x, labelled by its text."""
        return Potential(expr_mod.parse(text), label=text)  # raises ParseError with position

    @staticmethod
    def from_string(token):
        """CLI syntax: ``family``, ``family:p1,p2`` or ``expr:<expression>``."""
        if token.startswith("expr:"):
            return Potential.from_expression(token[5:])
        name, _, rest = token.partition(":")
        params = [float(p) for p in rest.split(",") if p] if rest else []
        return Potential.builtin(name, *params)

    def breakpoints(self, a, b):
        """Interior panel-split points in (a, b): the multiples of the
        half-period pi when V holds sin or cos, the integers when it holds floor."""
        periods = [math.pi] * bool(self.functions & {"sin", "cos"}) + [1.0] * ("floor" in self.functions)
        pts = [k * p for p in periods for k in range(math.floor(a / p) + 1, math.ceil(b / p))]
        return sorted(p for p in pts if a < p < b)

    def side_breakpoints(self, sign=1.0):
        """``breakpoints`` in the coordinate s = sign * x, as a callable
        (a, b) -> ascending breakpoints in (a, b); mirrored tails and
        one-sided scans integrate in s."""
        if sign > 0:
            return self.breakpoints
        return lambda a, b: [-t for t in reversed(self.breakpoints(-b, -a))]


def _validate_builtin(fam, params):
    if fam not in _FAMILY_ARITY:
        raise DomainValidationError(f"unknown builtin family {fam!r}")
    if len(params) != _FAMILY_ARITY[fam]:
        raise DomainValidationError(f"{fam} takes {_FAMILY_ARITY[fam]} parameter(s), got {len(params)}")
    if fam == "power":
        (r,) = params
        if not r >= 1.0:
            raise DomainValidationError("power(r) needs r >= 1")
    elif fam == "sinpower":
        alpha, lam = params
        if not (alpha > 1.0 and lam >= 0.0):
            raise DomainValidationError("sinpower(alpha, lam) needs alpha > 1 and lam >= 0")
    elif fam == "cattiaux":
        r, beta = params
        if not (1.0 < r < 2.0):
            raise DomainValidationError("cattiaux(r, beta) needs r in (1, 2)")
        lo = max(r / 2.0, r - 1.0 / r)
        if not (lo < beta - 1.0 < r - 0.5):
            raise DomainValidationError(f"cattiaux(r, beta) needs {lo:.4f} < beta - 1 < {r - 0.5:.4f}")


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


# ---------------------------------------------------------------------------
# Normalized measures
# ---------------------------------------------------------------------------


@dataclass
class Measure1D:
    """A probability measure exp(-V)/Z dx.  ``ladders[sign]``, from the
    truncation search, is the ``quad.LogLadder`` of exp(-V(sign * s)) in
    s = sign * x for side sign = +1 or -1; no query or scan changes it.
    ``rel_tol``, the float it was normalized at, is its functionals' too."""

    potential: Potential
    log_z: float
    median: float
    truncation: float
    rel_tol: float = quad_mod.REL_TOL
    eps_trunc: float = DEFAULT_EPS_TRUNC
    label: str = ""
    ladders: dict = field(default_factory=dict, repr=False)
    _sampler: _InverseCDF | None = field(default=None, repr=False)
    _scans: dict = field(default_factory=dict, repr=False)  # criteria._SideScan by (sign, horizons)

    @property
    def is_even(self):
        return self.potential.even


def normalize(potential, rel_tol=quad_mod.REL_TOL, eps_trunc=DEFAULT_EPS_TRUNC, label=""):
    """Build the normalized measure for ``potential`` at the float ``rel_tol`` in (0, 1).

    ``quad.truncation_point`` integrates exp(-V) once per side, into the
    ladders the measure keeps; log Z is the sum of their totals, and the
    median is 0 for even potentials and otherwise read from them.
    Non-integrable potentials raise NonIntegrableError.
    """
    trunc, ladders = quad_mod.truncation_point(potential, eps_trunc, rel_tol)
    log_z = float(np.logaddexp(ladders[+1].suffix[0], ladders[-1].suffix[0]))
    return Measure1D(
        potential=potential,
        log_z=log_z,
        median=0.0 if potential.even else _ladder_quantile(ladders, log_z, 0.5),
        truncation=trunc,
        rel_tol=rel_tol,
        eps_trunc=eps_trunc,
        label=label or potential.label,
        ladders=ladders,
    )


def _ladder_quantile(ladders, log_z, p):
    """The x with mass p * Z on (-inf, x], from unchanged ``ladders``: -s for
    the s where the left ladder's mass beyond falls to p * Z when p <= cdf(0),
    else the s where the right one's falls to (1 - p) * Z.  A root past the
    ladder's end E (a doubling-chunk end) reads a copy grown to the first
    2^i E whose mass beyond is below the target; i is found by galloping,
    then bisecting, on the ``extension`` from each candidate end, which falls
    as the end doubles, and only that copy is built.  ``LogLadder.root``
    finds the root on 2^48 steps of the cell the suffix names."""
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
    s = ladder.root(target, ladder.edges[j], ladder.edges[j + 1], 2**48)
    return sign * s if s else 0.0  # a root at 0 gives +0.0, not -0.0


def _log_mass(ladders, x, sign):
    """Unnormalized log mass of exp(-V) on [x, inf) for sign +1 and on
    (-inf, x] for sign -1, at the finite points ``x`` (1-D) on that side of
    the median, from unchanged ``ladders``.  In s = sign * x, points with
    s <= 0 (from an uneven median to 0) add the other ladder's mass from 0
    to -s to this side's total, points up to the end E of the side's ladder
    read it, points in (E, 2E] read one copy of it grown to 2E, and the
    points farther share one lockstep ``log_extension``, which gives each
    the value of an extension of its own.  So a point's value never depends
    on the other points of the query."""
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
    if far.any():
        out[far] = ladder.extension(s[far])
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
    """Piecewise-linear inverse of a CDF table, looked up from raw Philox words.

    A raw 64-bit word w stands for the uniform u = (w >> 11) 2^-53, which is
    what ``Generator.random`` makes of it.  The guide table (Chen & Asau 1974;
    Devroye 1986, section III.2.4) splits [0, 1) into 65,536 buckets of width
    2^-16, so the bucket of u is the word's top 16 bits, w >> 48, which equals
    floor(u 2^16) exactly.  The table gains a first node 0, whose interval
    [0, cdf[0]) has slope 0 at xs[0], and the last node keeps slope 0, so a u
    below cdf[0] or past cdf[-1] maps to the end value with no clip.  A bucket
    stores the last node below it (``first``) and the one node that may split
    it (``split``), so a draw costs one lookup, one compare and one add; a
    bucket holding two or more nodes (the tails, runs of equal nodes) stores
    a negative ``first`` instead, and its draws take a binary search.  Nothing
    here assumes equispaced nodes.  The interval found is the one
    ``np.interp`` finds, and the arithmetic is its arithmetic, so the result
    is bit-identical to ``np.interp(clip(u), cdf, xs)``.
    """

    BUCKETS = 65536  # 2^16: a word's top 16 bits
    CHUNK = 32768  # draws per sampler block, so the temporaries stay in cache

    def __init__(self, xs, cdf_nodes):
        self._cdf, self._xs = np.concatenate([[0.0], cdf_nodes]), np.concatenate([xs[:1], xs])
        self.cdf, self.xs = self._cdf[1:], self._xs[1:]
        # np.interp's slopes; an interval of zero width is never the one found
        # (cdf[j + 1] > u), so its slope, like the last node's, is 0
        width = np.diff(self._cdf)
        self.slope = np.zeros(len(self._cdf))
        np.divide(np.diff(self._xs), width, out=self.slope[:-1], where=width > 0)
        # bucket b holds the nodes with floor(cdf 2^16) = b (65,536 past 1);
        # the node of index below[b] in the extended table is the last one under the bucket
        counts = np.bincount(np.minimum(cdf_nodes * self.BUCKETS, self.BUCKETS).astype(np.intp),
                             minlength=self.BUCKETS + 1)[: self.BUCKETS]
        below = np.cumsum(counts) - counts
        self.first = np.where(counts > 1, -2, below)  # -2 + (split <= u) stays negative
        # +inf past the last node keeps u >= cdf[-1] in the last interval
        self.split = np.append(cdf_nodes, np.inf)[below]
        # the interpolant is nondecreasing in u within an interval (rounding is
        # monotone and slope >= 0); across node j + 1 it is if its value at the
        # largest float below cdf[j + 1] does not pass xs[j + 1]
        last = self.slope[:-1] * (np.nextafter(self._cdf[1:], -np.inf) - self._cdf[:-1]) + self._xs[:-1]
        self.monotone = bool(np.all(last <= self._xs[1:]))

    def invert(self, w, u):
        """Overwrite ``u`` with the inverse-CDF values of the raw words ``w``
        (overwritten too).

        With j the last node with cdf[j] <= u, np.interp returns xs[j] when
        u == cdf[j] (so also xs[-1] when u >= cdf[-1]) and otherwise
        slope[j] * (u - cdf[j]) + xs[j].  cdf[j + 1] > u makes slope[j]
        finite, so the general formula also yields xs[j] exactly when
        u == cdf[j] (xs holds no -0.0), and the zero slopes of the first and
        the last node cover u outside the table.  Every index taken is in
        range, so the lookups pass mode="clip", under which numpy writes
        ``out`` directly where "raise" buffers it.  The draws of wide buckets
        are searched in ascending order, each from where the last one ended.
        """
        w >>= np.uint64(11)
        bits = w.view(np.int64)  # below 2^53 now
        u[...] = bits
        u *= 2.0**-53
        bits >>= 37  # the bucket: the word's top 16 bits
        j, f, flag = np.empty(len(u), dtype=np.intp), np.empty(len(u)), np.empty(len(u), dtype=bool)
        np.take(self.first, bits, out=j, mode="clip")
        np.take(self.split, bits, out=f, mode="clip")
        np.less_equal(f, u, out=flag)
        j += flag
        wide = np.flatnonzero(np.less(j, 0, out=flag))
        if len(wide):
            keys = u[wide]
            order = np.argsort(keys)
            j[wide[order]] = np.searchsorted(self._cdf, keys[order], side="right") - 1
        np.take(self._cdf, j, out=f, mode="clip")
        np.subtract(u, f, out=f)
        np.take(self.slope, j, out=u, mode="clip")
        u *= f
        np.take(self._xs, j, out=f, mode="clip")
        u += f
        return u


def _build_sampler(measure):
    """Dense Simpson CDF table on [-T, T] used for vectorized inverse sampling."""
    T = measure.truncation
    xs = np.linspace(-T, T, _SAMPLER_NODES)
    mids = 0.5 * (xs[:-1] + xs[1:])
    h = xs[1] - xs[0]
    dens = lambda t: np.exp(-measure.potential.value(t) - measure.log_z)
    fx, fm = dens(xs), dens(mids)
    seg = (fx[:-1] + 4.0 * fm + fx[1:]) * (h / 6.0)
    cdf_nodes = cdf(measure, -T) + np.concatenate([[0.0], np.cumsum(seg)])
    return _InverseCDF(xs, cdf_nodes)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stream_key(seed):
    """The Philox key of ``seed``; a seed outside [0, 2^64 - 1] raises
    DomainValidationError."""
    if not 0 <= seed < 2**64:
        raise DomainValidationError("seed must lie in [0, 2^64 - 1]")
    return np.uint64(seed)


def _stream(key, draw):
    """A generator on the key's Philox stream whose next uniform, and its bit
    generator's next raw word, is draw number ``draw``: Philox yields four
    words per counter step, so the counter advances by draw // 4 and the
    draw % 4 words before ``draw`` in that step are discarded."""
    bitgen = np.random.Philox(key=key)
    bitgen.advance(draw // 4)
    gen = np.random.Generator(bitgen)
    gen.random(draw % 4)
    return gen


def row_max(x):
    """np.max(x, axis=1).  As the ``f`` of ``sample`` it is recognised: the
    uniform (w >> 11) 2^-53 is nondecreasing in the raw word w, and so is a
    table's interpolant when its ``monotone`` check holds, so a row's largest
    draw is its largest word's (max F^-1(U_i) = F^-1(max U_i)), and only that
    word is inverted, with the same bits."""
    return np.max(x, axis=1)


def _fill_slice(table, key, start, n, f, out):
    """Rows start, start + 1, ... into ``out`` (row i is draws i * n to
    (i + 1) * n - 1 of the key's stream): their draws, or with ``f`` their
    values.  One block of at most ``CHUNK`` raw words (whole rows, one row
    at least) is drawn, inverted and reduced at a time; for ``row_max`` on a
    monotone table, each block's words are reduced to each row's largest,
    kept in ``out``'s memory as uint64, and only those are inverted, in
    ``CHUNK``-sized calls once the slice is drawn."""
    bitgen = _stream(key, start * n).bit_generator
    rows = max(table.CHUNK // n, 1)
    top = f is row_max and table.monotone  # invert each row's largest word alone
    block = None if f is None or top else np.empty(rows * n)
    for a in range(0, len(out), rows):
        take = min(rows, len(out) - a)
        if top:
            np.max(bitgen.random_raw((take, n)), axis=1, out=out[a : a + take].view(np.uint64))
            continue
        u = out[a : a + take] if f is None else block[: take * n]
        table.invert(bitgen.random_raw(len(u)), u)
        if f is not None:
            out[a : a + take] = f(u.reshape(take, n))
    if top:
        for a in range(0, len(out), table.CHUNK):
            chunk = out[a : a + table.CHUNK]
            table.invert(chunk.view(np.uint64).copy(), chunk)  # invert reads the words after writing u


def _on_slices(count, n, fill):
    """The results of fill(a, b) on the slices [a, b) that cut ``count`` rows
    of ``n`` draws one per usable CPU, in slice order.  A call of fewer than
    2^18 draws per slice stays one slice; the others run on threads, which
    overlap wherever numpy releases the GIL."""
    slices = max(1, min(_usable_cpus(), count * n >> _SLICE_BITS))
    step = -(-count // slices)
    bounds = [(a, min(a + step, count)) for a in range(0, count, step)]
    if len(bounds) == 1:
        return [fill(0, count)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        rest = [pool.submit(fill, a, b) for a, b in bounds[1:]]
        return [fill(*bounds[0])] + [job.result() for job in rest]


def sample(measure, seed, count, n=1, f=None):
    """``count`` rows of ``n`` i.i.d. draws: inverse CDF applied to the seed's
    Philox stream, read row after row, so row i is draws i * n to
    (i + 1) * n - 1 of that one stream.  Without ``f`` the count * n draws
    are returned; with ``f``, which maps a (rows, n) block to one value per
    row from that row alone, the ``count`` values f(row).

    Philox is counter-based, so any row can be read without the rows before
    it; identical (seed, count, n, f) give identical output.  ``_on_slices``
    cuts the rows into slices, one per usable CPU, and fills them on
    threads: each slice positions its own cursor on the stream at its first
    row, so the output is the same for any CPU count.  A slice draws raw
    64-bit words, one block of at most ``_InverseCDF.CHUNK`` at a time, and
    inverts and reduces them in place, so with ``f`` no array of all the
    draws is made.  Draw i is the inverse at the uniform (w >> 11) 2^-53 of
    its word w, which is ``Generator.random``'s draw i.  With f = ``row_max``
    only each row's largest word is inverted: the inverse is nondecreasing
    in the word, so its draw is the row's largest, bit for bit.  Draws beyond
    the truncation interval (total mass <= 2 eps_trunc) map to its endpoints.
    The inverse CDF is the linear interpolant of a Simpson CDF table, looked
    up through a guide table indexed by the word's top 16 bits.  A count or
    n below 1, or a seed outside [0, 2^64 - 1], raises DomainValidationError.
    """
    if count < 1 or n < 1:
        raise DomainValidationError("count and n must be >= 1")
    key = _stream_key(seed)
    if measure._sampler is None:
        measure._sampler = _build_sampler(measure)
    table = measure._sampler
    if f is None:  # the rows of the draws are only their order
        count, n = count * n, 1
    out = np.empty(count)
    _on_slices(count, n, lambda a, b: _fill_slice(table, key, a, n, f, out[a:b]))
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
