"""Adaptive Gauss-Kronrod quadrature, in linear and in log space.

All integrands must be numpy-vectorized (ndarray in, ndarray out).  Panels
are refined by bisection with the classical G7/K15 nested pair; the error
estimate of a panel is |K15 - G7|.  Semi-infinite integrals are handled by
truncation plus geometrically growing extension chunks, never by variable
changes, so the error accounting stays uniform.

The log-space twin accumulates log-integrals of exp(g) integrands with
per-panel log-sum-exp, which keeps criterion scans usable out to potential
values of several hundred thousand where exp(V) is far beyond float range.
"""

from __future__ import annotations

import math
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

_NEGLIGIBLE_NATS = 55.0  # panels below exp(-55) of their segment total are accepted
# Wider tail chunks are not split at breakpoints: they are reached only by
# tails that have not fallen 55 nats within 4096 of their start, and would
# hold thousands of breakpoints.
_MAX_SPLIT_WIDTH = 4096.0
# Row maxima of panel batches at least this tall are taken column by column;
# below it one np.max(axis=1) costs less than a call per column.
_COLUMN_MAX_ROWS = 128


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
    log_value: float | None = None


def _logsumexp_rows(a):
    m = np.max(a, axis=1)
    finite = np.isfinite(m)
    out = np.full(a.shape[0], -np.inf)
    if np.any(finite):
        af = a[finite]
        mf = m[finite][:, None]
        out[finite] = m[finite] + np.log(np.sum(np.exp(af - mf), axis=1))
    return out


def _gk_linear(f, a, b):
    """Vectorized K15/G7 values on panels [a_i, b_i]."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    xs = mid[:, None] + hw[:, None] * _GK_NODES
    fx = np.asarray(f(xs), dtype=float)
    k = hw * (fx @ _K15_WEIGHTS)
    g = hw * (fx[:, 1::2] @ _G7_WEIGHTS)
    return k, np.abs(k - g), fx


def _logsumexp_rows_inplace(a):
    """``_logsumexp_rows`` of a fresh C-contiguous 2-D array, overwriting it.

    The row maximum of a tall array is taken column by column, which is exact
    and avoids the per-row cost of a reduction over short rows; rows are
    summed with ``np.sum(axis=1)`` as in ``_logsumexp_rows``, so the results
    are the same bit for bit.  Rows whose maximum is not finite go through
    ``_logsumexp_rows``.
    """
    if len(a) < _COLUMN_MAX_ROWS:
        m = np.max(a, axis=1)
    else:
        m = a[:, 0].copy()
        for j in range(1, a.shape[1]):
            np.maximum(m, a[:, j], out=m)
    if not np.isfinite(m).all():
        return _logsumexp_rows(a)
    a -= m[:, None]
    np.exp(a, out=a)
    out = np.sum(a, axis=1)
    np.log(out, out=out)
    out += m
    return out


def _gk_log(logf, a, b):
    """Log-space K15/G7: log integral of exp(logf) on each panel."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    xs = mid[:, None] + hw[:, None] * _GK_NODES
    gx = np.asarray(logf(xs), dtype=float)
    log_hw = np.log(hw)
    logk = _logsumexp_rows_inplace(gx + _LOG_WK)
    logk += log_hw
    logg = _logsumexp_rows_inplace(gx[:, 1::2] + _LOG_WG)
    logg += log_hw
    # |log K - log G| ~ relative discrepancy of the two rules
    err = np.abs(logk - logg)
    err[np.isnan(err)] = np.inf
    err[np.isneginf(logk) & np.isneginf(logg)] = 0.0
    return logk, err


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

    Returns (seg_logs, seg_errs, panels_used).  seg_errs is a per-segment
    bound on the relative error, estimated from accepted |logK - logG|.
    The intervals are independent: each one's log integral and error are
    the same bit for bit whatever other intervals share the batch, so
    consecutive edges are passed as ``edges[:-1], edges[1:]``.
    """
    pa, pb = np.array(lo, dtype=float), np.array(hi, dtype=float)
    nseg = len(pa)
    seg = np.arange(nseg, dtype=np.int64)
    depth = np.zeros(nseg, dtype=np.int32)
    acc = np.full(nseg, -np.inf)  # accepted log mass per segment
    accerr = np.full(nseg, -np.inf)  # log of accepted absolute-in-log error mass
    panels_used = 0
    while len(pa):
        logk, err = _gk_log(logf, pa, pb)
        panels_used += len(pa)
        # current segment totals = accepted + pending (ufunc.at is unbuffered,
        # so duplicate segment indices accumulate correctly)
        seg_tot = acc.copy()
        np.logaddexp.at(seg_tot, seg, logk)
        negligible = logk <= seg_tot[seg] - _NEGLIGIBLE_NATS
        ok = (err <= ptol) | negligible
        exhausted = ~ok & (depth >= max_depth)
        if np.any(exhausted):
            if strict:
                worst = int(np.argmax(np.where(exhausted, err, -np.inf)))
                raise DepthExhaustedError(
                    "log-space adaptive refinement exhausted max_depth",
                    (float(pa[worst]), float(pb[worst]), float(err[worst])),
                )
            ok = ok | exhausted
        take = ok
        np.logaddexp.at(acc, seg[take], logk[take])
        np.logaddexp.at(accerr, seg[take], logk[take] + np.log(np.maximum(err[take], 1e-300)))
        pa, pb, seg, depth = pa[~take], pb[~take], seg[~take], depth[~take]
        if len(pa):
            mid = 0.5 * (pa + pb)
            pa = np.concatenate([pa, mid])
            pb = np.concatenate([mid, pb])
            seg = np.concatenate([seg, seg])
            depth = np.concatenate([depth + 1, depth + 1])
    seg_errs = np.exp(accerr - np.where(np.isneginf(acc), 0.0, acc))
    seg_errs[np.isneginf(acc)] = 0.0
    return acc, seg_errs, panels_used


def integrate_log(log_f, a, b, cfg=DEFAULT_QUAD, breakpoints=None):
    """Log-space integral: returns log of the integral of exp(log_f) on [a, b].

    ``value`` is filled whenever exp(log_value) is representable; the error
    estimate is then in value units (relative error times value).
    """
    if not a < b:
        raise DomainValidationError(f"need a < b, got [{a}, {b}]")
    edges = _initial_edges(a, b, breakpoints)
    ptol = max(cfg.rel_tol * 0.1, 1e-14)
    seg_logs, seg_errs, panels = refine_log_panels(log_f, edges[:-1], edges[1:], ptol, cfg.max_depth)
    total = float(np.logaddexp.reduce(seg_logs))
    if np.isneginf(total):
        rel = 0.0
    else:
        rel = float(np.sum(np.exp(seg_logs - total) * seg_errs))
    value = math.exp(total) if total < 709.0 else math.inf
    if total < -745.0:
        value = 0.0
    err = rel * value if math.isfinite(value) else math.inf
    return Integral(value, err, panels, log_value=total)


def log_extension(logf, start, initial_width, ptol=1e-11, max_depth=48, max_chunks=400, breakpoints=None):
    """Log integral of exp(logf) over [start, +inf) by doubling chunks.

    ``breakpoints(a, b)`` lists the integrand's jump or oscillation points in
    (a, b); each chunk up to ``_MAX_SPLIT_WIDTH`` wide is split there, so
    panels never straddle a jump.  Stops once a chunk falls 55 nats below the
    running total, i.e. the remainder is a negligible relative correction.
    Raises NonIntegrableError if no convergence after ``max_chunks`` doublings.
    """
    total = -np.inf
    lo = start
    w = initial_width
    for _ in range(max_chunks):
        hi = lo + w
        bp = breakpoints(lo, hi) if breakpoints is not None and w <= _MAX_SPLIT_WIDTH else None
        edges = _initial_edges(lo, hi, bp)
        seg_logs, _, _ = refine_log_panels(logf, edges[:-1], edges[1:], ptol, max_depth, strict=False)
        chunk = float(np.logaddexp.reduce(seg_logs))
        total = float(np.logaddexp(total, chunk))
        if chunk < total - _NEGLIGIBLE_NATS:
            return total
        lo = hi
        w *= 2.0
    raise NonIntegrableError(
        f"tail integral starting at {start:.3g} did not converge by x={lo:.3g}"
    )


# Intervals per refine_log_panels call while a ladder is built, which bounds
# the memory of the refinement on long ladders.
_LADDER_BLOCK = 192


class LogLadder:
    """Cumulative log integrals of exp(logf) between ascending ``edges``.

    ``prefix[i]`` is log(exp(before) + int_edges[0]^edges[i] exp(logf)) and
    ``suffix[i]`` is log(int_edges[i]^edges[-1] exp(logf) + exp(after)), with
    ``before`` and ``after`` the log masses beyond the two ends.  Every cell
    between consecutive edges is one ``refine_log_panels`` interval at
    (ptol, max_depth, strict).  The queries integrate each point's partial
    cell the same way, in one batch, so a query equals a scalar integration
    of its partial cell combined with the ladder, bit for bit.
    """

    def __init__(self, logf, edges, ptol, max_depth, strict, before=-np.inf, after=-np.inf):
        self.logf, self.ptol, self.max_depth, self.strict = logf, ptol, max_depth, strict
        self.edges = np.asarray(edges, dtype=float)
        lo, hi = self.edges[:-1], self.edges[1:]
        blocks = range(0, len(lo), _LADDER_BLOCK)
        seg = np.concatenate([self._logs(lo[i : i + _LADDER_BLOCK], hi[i : i + _LADDER_BLOCK]) for i in blocks])
        self.prefix = np.logaddexp(np.concatenate([[-np.inf], np.logaddexp.accumulate(seg)]), before)
        self.suffix = np.append(np.logaddexp(np.logaddexp.accumulate(seg[::-1])[::-1], after), after)

    def _logs(self, lo, hi):
        return refine_log_panels(self.logf, lo, hi, self.ptol, self.max_depth, self.strict)[0]

    def _partial(self, lo, hi, nonempty):
        out = np.full(len(lo), -np.inf)
        if nonempty.any():
            out[nonempty] = self._logs(lo[nonempty], hi[nonempty])
        return out

    def upper(self, x):
        """log(exp(after) + int_x^edges[-1] exp(logf)) at the points ``x`` in [edges[0], edges[-1]]."""
        j = np.minimum(np.searchsorted(self.edges, x, side="right") - 1, len(self.edges) - 2)
        nxt = self.edges[j + 1]
        return np.logaddexp(self._partial(x, nxt, x < nxt), self.suffix[j + 1])

    def lower(self, x):
        """log(exp(before) + int_edges[0]^x exp(logf)) at the points ``x`` in [edges[0], edges[-1]]."""
        j = np.searchsorted(self.edges, x, side="right") - 1
        left = self.edges[j]
        return np.logaddexp(self.prefix[j], self._partial(left, x, x > left))


def truncation_point(potential, eps):
    """Smallest X with int_X^inf exp(-V) <= eps * int_0^X exp(-V), per side.

    The one-sided predicate is bracketed by doubling, then located on the
    lattice that 40 bisection steps of the bracket would visit, by a
    bracketed secant on h(X) = log tail(X) - log eps - log core(X), which
    decreases in X.  Both integrals are split at ``potential.breakpoints``.
    For uneven potentials the maximum over the two sides is returned.
    Raises NonIntegrableError when the predicate never holds by X = 1e6.
    """
    if not 0.0 < eps < 1.0:
        raise DomainValidationError("eps must be in (0, 1)")
    log_eps = math.log(eps)

    def one_side(sign):
        bps = potential.side_breakpoints(0.0, sign)

        def neg_v(x):
            return -potential.value(sign * x)

        def h(x):
            core = LogLadder(neg_v, _initial_edges(0.0, x, bps(0.0, x)), 1e-9, 60, strict=False).prefix[-1]
            tail = log_extension(neg_v, x, initial_width=max(1.0, 0.05 * x), ptol=1e-9, breakpoints=bps)
            return tail - log_eps - float(core)

        lo, h_lo = 1e-3, None
        x, hx = 1.0, h(1.0)
        while hx > 0.0:
            lo, h_lo = x, hx
            x *= 2.0
            if x > 1e6:
                raise NonIntegrableError(
                    f"truncation search failed by X=1e6; exp(-V) at X is "
                    f"{math.exp(-potential.value(sign * lo)):.3g}"
                )
            hx = h(x)
        if h_lo is None:
            h_lo = h(lo)
        return _lattice_root(h, lo, x, h_lo, hx)

    xr = one_side(+1.0)
    if potential.is_even:
        return xr
    return max(xr, one_side(-1.0))


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
