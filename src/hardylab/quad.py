"""Adaptive Gauss-Kronrod quadrature, in linear and in log space.

All integrands must be numpy-vectorized (ndarray in, ndarray out).  Panels
are refined by bisection with the classical G7/K15 nested pair; the error
estimate of a panel is |K15 - G7|.  Semi-infinite integrals are handled by
truncation plus geometrically growing extension chunks, never by variable
changes, so the error accounting stays uniform.

The log-space twin accumulates log-integrals of exp(g) integrands with
per-panel log-sum-exp, which keeps criterion scans usable out to potential
values of several hundred thousand where exp(V) is far beyond float range.
The nested rules share their exponentials: ``_gk_log`` shifts a panel's
node values by their maximum and exponentiates each once.
Its error control is relative to each segment (a cell, an extension chunk):
a panel's error mass must fit its width share of the segment's budget, so
panels holding a sliver of the segment's mass stop early.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DepthExhaustedError, DomainValidationError, NonIntegrableError

# 15-point Kronrod nodes on [-1, 1]; the 7 Gauss nodes sit at odd indices.
_GK_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_K15_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
_LOG_WK = np.log(_K15_WEIGHTS)
_LOG_WG = np.log(_G7_WEIGHTS)

_NEGLIGIBLE_NATS = 55.0  # a chunk this far below the running total ends an extension or a truncation search
# Panels whose |log K15 - log G7| is within this many ulps of |log K15| are
# accepted: past |log mass| ~ 1e5 the float spacing of the log exceeds ptol.
_ACCEPT_ULPS = 8
# Wider tail chunks are not split at a step, nor in an extension at the
# breakpoints: they are reached only by tails that have not fallen 55 nats
# within 4096 of their start, and would hold thousands of breakpoints.
_MAX_SPLIT_WIDTH = 4096.0
# Ladder and scan grid step; it resolves period-2pi oscillations of the potentials.
GRID_STEP = math.pi / 8.0
# An extension that has refined more panels than this without converging is
# taken as non-integrable: a persistent oscillation in unsplit chunks would
# otherwise be refined down to its own scale over ever wider chunks.  The
# test suite spends at most 2862 panels in one extension, the benchmark 155.
_EXTENSION_PANEL_BUDGET = 1 << 17


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and refinement limits for one adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_depth: int = 48

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainValidationError("rel_tol and abs_tol must be positive")
        if self.max_depth < 10:
            raise DomainValidationError("max_depth must be >= 10")


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True)
class Integral:
    value: float
    error_estimate: float
    panels_used: int


def _gk_linear(f, a, b):
    """Vectorized K15/G7 values on panels [a_i, b_i]."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    xs = mid[:, None] + hw[:, None] * _GK_NODES
    fx = np.asarray(f(xs), dtype=float)
    k = hw * (fx @ _K15_WEIGHTS)
    g = hw * (fx[:, 1::2] @ _G7_WEIGHTS)
    return k, np.abs(k - g), fx


def _gk_log_separate(gx, log_hw):
    """Log K15/G7 and err by one log-sum-exp per rule over rows of node
    values (-inf where a row's maximum is -inf), for ``_gk_log``."""
    logk, logg = np.full((2, len(gx)), -np.inf)
    for out, a in ((logk, gx + _LOG_WK), (logg, gx[:, 1::2] + _LOG_WG)):
        m = a.max(axis=1)
        finite = np.isfinite(m)
        out[finite] = m[finite] + np.log(np.exp(a[finite] - m[finite, None]).sum(axis=1))
        out += log_hw
    err = np.abs(logk - logg)
    err[np.isnan(err)] = np.inf
    err[(logk == -np.inf) & (logg == -np.inf)] = 0.0
    return logk, err


def _node_sum(t):
    """Each column's sum over the nodes, in node order (numpy sums a lone column pairwise)."""
    return t.sum(axis=0) if t.shape[1] > 1 else np.cumsum(t, axis=0)[-1]


def _gk_log(logf, a, b):
    """Log-space K15/G7: log integral of exp(logf) on each panel, and
    err = |log K15 - log G7|.  Node j of panel i sits at [j, i].  Each
    panel's node values are shifted by their maximum and exponentiated
    once, and K15 and G7 are fixed-order node sums of those times the
    weights (not a matrix product, whose order may depend on the batch).
    A panel whose maximum is -inf, whose log half-width is not finite or
    whose G7 sum underflows below the normal range takes
    ``_gk_log_separate``.  A nan or +inf node value, which reaches the
    panel's maximum, raises DomainValidationError naming the panel."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    gx = np.asarray(logf(mid + hw * _GK_NODES[:, None]), dtype=float)
    log_hw = np.log(hw)
    m = gx.max(axis=0)
    if not (m < np.inf).all():
        i = int(np.argmin(m < np.inf))
        raise DomainValidationError(f"log-integrand is {m[i]} on the panel [{a[i]:.17g}, {b[i]:.17g}]")
    shared = np.isfinite(m) & np.isfinite(log_hw)
    panels = slice(None) if shared.all() else shared.nonzero()[0]
    e = gx[:, panels] - m[panels]
    np.exp(e, out=e)
    g = _node_sum(e[1::2] * _G7_WEIGHTS[:, None])
    base = m[panels] + log_hw[panels]
    logk = np.log(_node_sum(np.multiply(e, _K15_WEIGHTS[:, None], out=e))) + base
    err = np.abs(logk - (np.log(np.maximum(g, sys.float_info.min)) + base))
    shared[panels] = g >= sys.float_info.min
    if shared.all():
        return logk, err
    out = np.empty((2, len(a)))
    out[:, panels] = logk, err
    out[:, ~shared] = _gk_log_separate(np.ascontiguousarray(gx[:, ~shared].T), log_hw[~shared])
    return out[0], out[1]


def _initial_edges(a, b, breakpoints):
    edges = [a, b]
    if breakpoints is not None:
        edges.extend(t for t in np.atleast_1d(breakpoints) if a < t < b)
    return np.unique(np.asarray(edges, dtype=float))


def integrate(f, a, b, cfg=DEFAULT_QUAD, breakpoints=None):
    """Adaptive integral of ``f`` over [a, b].

    Panels whose |K15 - G7| exceeds a width-proportional share of the global
    allowance max(abs_tol, rel_tol*|I|) are bisected, up to ``cfg.max_depth``
    generations, after which a DepthExhaustedError reports the worst panel.
    """
    if not a < b:
        raise DomainValidationError(f"need a < b, got [{a}, {b}]")
    edges = _initial_edges(a, b, breakpoints)
    pa, pb = edges[:-1].copy(), edges[1:].copy()
    depth = np.zeros(len(pa), dtype=np.int32)
    width = b - a

    done_val = 0.0
    done_err = 0.0
    done_width = 0.0
    panels_used = 0
    while len(pa):
        k, err, fx = _gk_linear(f, pa, pb)
        if not np.all(np.isfinite(fx)):
            bad = np.argwhere(~np.isfinite(fx))
            i, j = bad[0]
            raise DomainValidationError(
                f"integrand not finite near x={pa[i] + (pb[i] - pa[i]) * 0.5 * (1 + _GK_NODES[j]):.6g}"
            )
        panels_used += len(pa)
        total_est = done_val + float(np.sum(k))
        allow = max(cfg.abs_tol, cfg.rel_tol * abs(total_est))
        # width-proportional allowance, with an absolute negligibility floor so
        # integrable kinks cannot force unbounded refinement of vanishing panels
        ok = err <= allow * np.maximum((pb - pa) / width, 1e-6)
        exhausted = ~ok & (depth >= cfg.max_depth)
        if np.any(exhausted):
            worst = int(np.argmax(np.where(exhausted, err, -np.inf)))
            raise DepthExhaustedError(
                "adaptive refinement exhausted max_depth",
                (float(pa[worst]), float(pb[worst]), float(err[worst])),
            )
        done_val += float(np.sum(k[ok]))
        done_err += float(np.sum(err[ok]))
        done_width += float(np.sum((pb - pa)[ok]))
        pa, pb, depth = pa[~ok], pb[~ok], depth[~ok]
        if len(pa):
            mid = 0.5 * (pa + pb)
            pa = np.concatenate([pa, mid])
            pb = np.concatenate([mid, pb])
            depth = np.concatenate([depth + 1, depth + 1])
    return Integral(done_val, done_err, panels_used)


def refine_log_panels(logf, lo, hi, ptol, max_depth, strict=True):
    """Log integrals of exp(logf) over the intervals [lo[i], hi[i]].

    Panel i of segment s is accepted when err_i K_i / T_s <= ptol w_i / W_s
    (QUADPACK's global criterion in log space: err_i = |log K15 - log G7|,
    T_s the segment's running total, accepted plus pending, and w_i / W_s =
    2^-depth_i), or when err_i is within ``_ACCEPT_ULPS`` ulps of |log K_i|.
    Returns (seg_logs, seg_errs, panels_used); seg_errs, the accepted
    err_i K_i over each segment's total, bound its relative error by about
    ptol unless the ulp floor or a non-strict max depth accepted panels.
    The intervals are independent: each one's log integral and error are
    the same bit for bit whatever other intervals share the batch, so
    consecutive edges are passed as ``edges[:-1], edges[1:]``.
    """
    pa, pb = np.array(lo, dtype=float), np.array(hi, dtype=float)
    nseg = len(pa)
    seg = np.arange(nseg, dtype=np.int64)
    acc = np.full(nseg, -np.inf)  # accepted log mass per segment
    accerr = np.full(nseg, -np.inf)  # log of accepted absolute-in-log error mass
    panels_used = 0
    depth = 0  # every pending panel is 2^-depth of its segment
    while len(pa):
        logk, err = _gk_log(logf, pa, pb)
        panels_used += len(pa)
        tot = logk  # at depth 0 a segment's one panel is its total
        if depth:  # accepted + pending (ufunc.at is unbuffered, so repeated segments accumulate)
            tot = acc.copy()
            np.logaddexp.at(tot, seg, logk)
            tot = tot[seg]
        # log of each panel's share of its segment's total; -inf for panels without mass
        share = np.subtract(logk, tot, out=np.full(len(logk), -np.inf), where=logk > -np.inf)
        ok = (err * np.exp(share) <= math.ldexp(ptol, -depth)) | (err <= _ACCEPT_ULPS * np.spacing(np.abs(logk)))
        if depth >= max_depth and not ok.all():
            if strict:
                worst = int(np.argmax(np.where(ok, -np.inf, err)))
                raise DepthExhaustedError(
                    "log-space adaptive refinement exhausted max_depth",
                    (float(pa[worst]), float(pb[worst]), float(err[worst])),
                )
            ok[:] = True
        rejected = (~ok).nonzero()[0]
        done = slice(None) if not len(rejected) else ok.nonzero()[0]
        np.logaddexp.at(acc, seg[done], logk[done])
        np.logaddexp.at(accerr, seg[done], logk[done] + np.log(np.maximum(err[done], 1e-300)))
        if not len(rejected):
            break
        pa, pb, seg = pa[rejected], pb[rejected], seg[rejected]
        mid = 0.5 * (pa + pb)
        pa, pb, seg = np.concatenate([pa, mid]), np.concatenate([mid, pb]), np.concatenate([seg, seg])
        depth += 1
    empty = acc == -np.inf
    seg_errs = np.exp(accerr - np.where(empty, 0.0, acc))
    seg_errs[empty] = 0.0
    return acc, seg_errs, panels_used


def log_extension(logf, start, initial_width, ptol=1e-11, max_depth=48, max_chunks=400, breakpoints=None):
    """Log integral of exp(logf) over [start, +inf) by doubling chunks.

    ``breakpoints(a, b)`` lists the integrand's jump or oscillation points in
    (a, b); each chunk up to ``_MAX_SPLIT_WIDTH`` wide is split there, so
    panels never straddle a jump.  Stops once a chunk falls 55 nats below the
    running total, i.e. the remainder is a negligible relative correction.
    Raises NonIntegrableError if no convergence after ``max_chunks`` doublings
    or once the chunks have spent more than ``_EXTENSION_PANEL_BUDGET`` panels.
    The doubling starts at the first initial_width * 2^k that moves ``start``
    (past 2^53 a unit chunk is empty), so no doubling is spent on empty chunks.
    """
    total, lo, w = -np.inf, start, initial_width
    while lo + w == lo and w < math.inf:
        w *= 2.0
    spent = 0
    for _ in range(max_chunks):
        hi = lo + w
        bp = breakpoints(lo, hi) if breakpoints is not None and w <= _MAX_SPLIT_WIDTH else None
        edges = _initial_edges(lo, hi, bp)
        seg_logs, _, panels = refine_log_panels(logf, edges[:-1], edges[1:], ptol, max_depth, strict=False)
        chunk = float(np.logaddexp.reduce(seg_logs))
        total = float(np.logaddexp(total, chunk))
        if chunk < total - _NEGLIGIBLE_NATS:
            return total
        spent += panels
        if spent > _EXTENSION_PANEL_BUDGET:
            raise NonIntegrableError(
                f"tail integral starting at {start:.3g} spent {spent} panels by x={hi:.3g} without converging"
            )
        lo = hi
        w *= 2.0
    raise NonIntegrableError(
        f"tail integral starting at {start:.3g} did not converge by x={lo:.3g}"
    )


# Intervals per refine_log_panels call in a ladder's cells and partial
# cells, which bounds the memory of the refinement.
_LADDER_BLOCK = 192


def _interval_logs(logf, lo, hi, ptol, max_depth, strict):
    """Log integrals of exp(logf) over the intervals [lo[i], hi[i]], refined
    ``_LADDER_BLOCK`` intervals per ``refine_log_panels`` call."""
    blocks = range(0, len(lo), _LADDER_BLOCK)
    seg = [refine_log_panels(logf, lo[i : i + _LADDER_BLOCK], hi[i : i + _LADDER_BLOCK], ptol, max_depth, strict)[0]
           for i in blocks]
    return np.concatenate([np.empty(0), *seg])  # no intervals, no logs


def grid_steps(a, b):
    """The multiples of ``GRID_STEP`` in (a, b)."""
    steps = np.arange(math.floor(a / GRID_STEP), math.ceil(b / GRID_STEP) + 1) * GRID_STEP
    return steps[(steps > a) & (steps < b)]


class LogLadder:
    """Cumulative log integrals of exp(logf) between ascending ``edges``.

    ``prefix[i]`` is log int_edges[0]^edges[i] exp(logf), ``suffix[i]`` is
    log(int_edges[i]^edges[-1] exp(logf) + exp(after)), and ``cells`` holds
    each cell's log integral, one ``refine_log_panels`` interval at (ptol,
    max_depth, strict).  A query integrates each point's partial cell the
    same way, ``_LADDER_BLOCK`` points per call, so it equals a scalar query
    bit for bit.  A ladder given a side's ``breakpoints(a, b)`` starts at 0
    and grows over the doubling chunks [0, 1], [1, 2], [2, 4], ..., split
    at the breakpoints and, up to ``_MAX_SPLIT_WIDTH`` wide, at the
    multiples of ``GRID_STEP`` (the scan grids'), in ``truncation_point``
    and in ``grown`` alike.  An edge depends only on its position: growing
    to a, then b, equals growing to b, bit for bit.
    """

    def __init__(self, logf, edges, ptol, max_depth, strict, breakpoints=None):
        self.logf, self.ptol, self.max_depth, self.strict = logf, ptol, max_depth, strict
        self.edges, self.breakpoints = np.asarray(edges, dtype=float), breakpoints
        self.cells = _interval_logs(logf, self.edges[:-1], self.edges[1:], ptol, max_depth, strict)
        self._close(-np.inf)

    def _close(self, after=None):
        """Accumulate the cells; ``after`` defaults to one ``log_extension``."""
        if after is None:
            after = self.extension(self.edges[-1])
        self.prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(self.cells)])
        self.suffix = np.append(np.logaddexp(np.logaddexp.accumulate(self.cells[::-1])[::-1], after), after)

    def _append(self, b):
        """Append the lattice cells up to the first edge >= b and return
        their log mass; ``prefix`` and ``suffix`` wait for ``_close``."""
        new = self.edges[-1:]
        while new[-1] < b:
            hi = max(math.ldexp(1.0, math.frexp(new[-1])[1]), 1.0)  # the end of the doubling chunk holding it
            lo = 0.0 if hi == 1.0 else 0.5 * hi
            steps = grid_steps(lo, hi) if hi - lo <= _MAX_SPLIT_WIDTH else []
            chunk = np.unique(np.concatenate([[lo, hi], steps, self.breakpoints(lo, hi)]))
            new = np.concatenate([new, chunk[chunk > new[-1]]])
        new = new[: np.searchsorted(new, b) + 1]
        cells = _interval_logs(self.logf, new[:-1], new[1:], self.ptol, self.max_depth, self.strict)
        self.edges = np.concatenate([self.edges, new[1:]])
        self.cells = np.concatenate([self.cells, cells])
        return float(np.logaddexp.reduce(cells))

    def extension(self, b):
        """log int_b^inf exp(logf), by one ``log_extension`` split at the breakpoints."""
        return log_extension(self.logf, b, initial_width=1.0, breakpoints=self.breakpoints)

    def grown(self, b):
        """A copy extended to the first lattice edge >= b, with ``after`` from its new end."""
        out = copy.copy(self)
        if b > self.edges[-1]:
            out._append(b)
            out._close()
        return out

    def _partial(self, lo, hi):
        out, on = np.full(len(lo), -np.inf), lo < hi
        out[on] = _interval_logs(self.logf, lo[on], hi[on], self.ptol, self.max_depth, self.strict)
        return out

    def upper(self, x):
        """log(exp(after) + int_x^edges[-1] exp(logf)) at the points ``x`` in [edges[0], edges[-1]]."""
        k = np.searchsorted(self.edges, x)
        return np.logaddexp(self._partial(x, self.edges[k]), self.suffix[k])

    def lower(self, x):
        """log int_edges[0]^x exp(logf) at the points ``x`` in [edges[0], edges[-1]]."""
        j = np.searchsorted(self.edges, x, side="right") - 1
        return np.logaddexp(self.prefix[j], self._partial(self.edges[j], x))


def truncation_point(potential, eps, cfg=DEFAULT_QUAD):
    """Smallest X with int_X^inf exp(-V) <= eps * int_0^X exp(-V), per side,
    and the ladders of exp(-V) it reads.

    Side sign's ``LogLadder`` of exp(-V(sign * s)), s = sign * x, grows one
    doubling chunk [0, 1], [1, 2], [2, 4], ... at a time, split on the
    lattice that ``grown`` uses, up to the first chunk end B that falls 55
    nats below the running total and where the predicate holds, or up to
    2^19, the last X the search tries.
    Its cells are strict at the panel tolerance of ``cfg``, and one
    ``log_extension`` from B is the mass beyond.  h(X) = log tail(X) - log
    eps - log core(X), read from the ladder, decreases in X.  It is
    bracketed by doubling, and its root is located on the lattice that 40
    bisection steps of the bracket would visit, by a bracketed secant.
    Returns (X, {+1: right ladder, -1: left ladder}), X the larger of the
    two sides'; an even potential's one ladder serves both.  Raises
    NonIntegrableError when the predicate never holds by X = 1e6.
    """
    if not 0.0 < eps < 1.0:
        raise DomainValidationError("eps must be in (0, 1)")
    log_eps = math.log(eps)
    ptol = max(cfg.rel_tol * 0.1, 1e-14)

    def h(ladder, x):
        x = np.atleast_1d(x)
        return ladder.upper(x) - log_eps - ladder.lower(x)

    def one_side(sign):
        logf = (lambda s: -potential.value(s)) if sign > 0 else lambda s: -potential.value(sign * s)
        ladder = LogLadder(logf, [0.0], ptol, cfg.max_depth, True, breakpoints=potential.side_breakpoints(sign))
        total, hi = -np.inf, 1.0
        while True:
            chunk = ladder._append(hi)
            total = float(np.logaddexp(total, chunk))
            last = 2.0 * hi > 1e6
            if last or chunk < total - _NEGLIGIBLE_NATS:
                ladder._close()
                if last or h(ladder, hi)[0] <= 0.0:
                    break
            hi *= 2.0
        xs = 2.0 ** np.arange(round(math.log2(hi)) + 1)
        hs = h(ladder, xs)
        k = int(np.argmax(hs <= 0.0))
        if hs[k] > 0.0:
            raise NonIntegrableError(
                f"truncation search failed by X=1e6; exp(-V) at X is {math.exp(-potential.value(sign * hi)):.3g}"
            )
        lo, h_lo = (xs[k - 1], hs[k - 1]) if k else (1e-3, h(ladder, 1e-3)[0])
        x = _lattice_root(lambda t: float(h(ladder, t)[0]), float(lo), float(xs[k]), float(h_lo), float(hs[k]))
        return x, ladder

    xr, right = one_side(+1.0)
    if potential.is_even:
        return xr, {+1: right, -1: right}
    xl, left = one_side(-1.0)
    return max(xr, xl), {+1: right, -1: left}


def _lattice_root(h, lo, hi, h_lo, h_hi, steps=2**40):
    """Smallest lattice point lo + k (hi - lo) / steps, k = 0..steps, where the
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
