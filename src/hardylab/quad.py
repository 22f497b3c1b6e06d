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
node values by their maximum and exponentiates each once, in cache-sized blocks.
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
# Bisection generations of a panel, in linear and in log space, before DepthExhaustedError.
MAX_DEPTH = 48
# Log-space width shares are floored at 2^-this (``integrate``'s at 1e-6), so cusps converge.
_FLOOR_DEPTH = 30
# Ladder and scan grid step; it resolves period-2pi oscillations of the potentials.
GRID_STEP = math.pi / 8.0
# An extension that has refined more panels than this without converging is
# taken as non-integrable: a persistent oscillation in unsplit chunks would
# otherwise be refined down to its own scale over ever wider chunks.  The
# test suite spends at most 2862 panels in one extension, the benchmark 155.
_EXTENSION_PANEL_BUDGET = 1 << 17
# Doubling chunks of one extension before it gives up: from a unit width,
# the last ends near 2^400 (2.6e120) past its start.
_EXTENSION_CHUNKS = 400
ABS_TOL = 1e-13  # absolute error floor of ``integrate``, for mean-zero integrands such as E[x]
REL_TOL = 1e-10  # default relative tolerance of ``integrate``, ``truncation_point`` and ``measure.normalize``
# Panels of one ``integrate`` call, which a mean-zero integrand refined to
# ABS_TOL would otherwise double until memory runs out.  The test suite
# spends at most 1,427 in one call (of 1,005), the benchmark 201, the README 153.
PANEL_BUDGET = 1 << 17


def _check_rel_tol(rel_tol):
    if not 0.0 < rel_tol < 1.0:
        raise DomainValidationError(f"rel_tol must lie in (0, 1), got {rel_tol}")


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
    with np.errstate(invalid="ignore"):  # -inf - -inf
        err = np.abs(logk - logg)
    err[np.isnan(err)] = np.inf
    err[(logk == -np.inf) & (logg == -np.inf)] = 0.0
    return logk, err


def _node_sum(t):
    """Each column's sum over the nodes, in node order (numpy sums a lone column pairwise)."""
    return t.sum(axis=0) if t.shape[1] > 1 else np.cumsum(t, axis=0)[-1]


# Panels per block of ``_gk_log``: unblocked, its temporaries outgrow the cache (+14% CPU per scan round).
_NODE_BLOCK = 512


def _gk_log(logf, a, b):
    """``_gk_log_block`` over consecutive blocks of ``_NODE_BLOCK`` panels."""
    if len(a) <= _NODE_BLOCK:
        return _gk_log_block(logf, a, b)
    out = np.empty((2, len(a)))
    for i in range(0, len(a), _NODE_BLOCK):
        out[:, i : i + _NODE_BLOCK] = _gk_log_block(logf, a[i : i + _NODE_BLOCK], b[i : i + _NODE_BLOCK])
    return out[0], out[1]


def _nodes(a, b):
    """The 15 nodes of each panel [a_i, b_i], node j of panel i at [j, i], and the half-widths."""
    ha, hb = 0.5 * a, 0.5 * b  # a + b overflows within a factor of 2 of the float max
    return ha + hb + (hb - ha) * _GK_NODES[:, None], hb - ha


def _gk_log_block(logf, a, b):
    """Log-space K15/G7: log integral of exp(logf) on each panel, and
    err = |log K15 - log G7|.  Node j of panel i sits at [j, i].  Each
    panel's node values are shifted by their maximum and exponentiated
    once, and K15 and G7 are fixed-order node sums of those times the
    weights (not a matrix product, whose order may depend on the batch).
    A panel whose maximum is -inf, whose log half-width is not finite or
    whose G7 sum underflows below the normal range takes
    ``_gk_log_separate``; one finiteness test of maximum + log half-width
    finds the first two.  A nan or +inf node value, which reaches the
    panel's maximum, fails the panel: its log K15 and err are nan.  -inf
    is zero mass."""
    xs, hw = _nodes(a, b)
    log_hw = np.log(hw)
    # an overflowing or nan node value fails its panel, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        gx = np.asarray(logf(xs), dtype=float)
        m = gx.max(axis=0)
        base = m + log_hw
    shared = np.isfinite(base)
    panels = slice(None) if shared.all() else shared.nonzero()[0]
    e = np.subtract(gx[:, panels], m[panels], order="C")  # a gathered copy is F-ordered
    np.exp(e, out=e)
    g = _node_sum(e[1::2] * _G7_WEIGHTS[:, None])
    base = base[panels]
    logk = np.log(_node_sum(np.multiply(e, _K15_WEIGHTS[:, None], out=e))) + base
    if isinstance(panels, slice) and g.min(initial=math.inf) >= sys.float_info.min:
        return logk, np.abs(logk - (np.log(g) + base))
    err = np.abs(logk - (np.log(np.maximum(g, sys.float_info.min)) + base))
    shared[panels] = g >= sys.float_info.min
    out = np.full((2, len(a)), np.nan)
    out[:, panels] = logk, err
    separate = ~shared & (m < np.inf)
    out[:, separate] = _gk_log_separate(np.ascontiguousarray(gx[:, separate].T), log_hw[separate])
    return out[0], out[1]


def _initial_edges(a, b, breakpoints):
    edges = [a, b]
    if breakpoints is not None:
        t = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        edges = np.concatenate([edges, t[(a < t) & (t < b)]])
    return np.unique(np.asarray(edges, dtype=float))


def _exhausted(what, pa, pb, err, limit="MAX_DEPTH"):
    """DepthExhaustedError naming the panel [pa, pb] with the largest ``err`` (-inf where accepted)."""
    i = int(np.argmax(err))
    return DepthExhaustedError(f"{what} exhausted {limit}", (float(pa[i]), float(pb[i]), float(err[i])))


def integrate(f, a, b, rel_tol=REL_TOL, breakpoints=None, cells=None):
    """Adaptive integral of ``f`` over [a, b] at the float ``rel_tol`` in (0, 1).

    Panels whose |K15 - G7| exceeds a width-proportional share of the global
    allowance max(ABS_TOL, rel_tol*|I|) are bisected, up to ``MAX_DEPTH``
    generations and ``PANEL_BUDGET`` panels, past which a DepthExhaustedError
    reports the worst panel.  With ``cells``, a first pass over [a, b] split
    at the breakpoints that rejects any panel is dropped, and the refinement
    starts again from those panels split at the cells as well; the dropped
    pass counts toward the budget.  A first pass that accepts every panel
    keeps its answer: an odd integrand cancels in a panel symmetric about 0,
    where on a split mesh its panels would refine their rounding against
    ABS_TOL.
    """
    _check_rel_tol(rel_tol)
    if not a < b:
        raise DomainValidationError(f"need a < b, got [{a}, {b}]")
    edges = _initial_edges(a, b, breakpoints)
    pa, pb = edges[:-1], edges[1:]
    width = b - a

    done_val = 0.0
    done_err = 0.0
    panels_used = 0
    depth = 0  # every pending panel has been bisected this many times
    with np.errstate(over="ignore", invalid="ignore"):  # an inf node value (nan |K - G|) raises below
        while len(pa):
            k, err, fx = _gk_linear(f, pa, pb)
            if not np.isfinite(fx).all():
                bad = np.argwhere(~np.isfinite(fx))
                i, j = bad[0]
                raise DomainValidationError(
                    f"integrand not finite near x={pa[i] + (pb[i] - pa[i]) * 0.5 * (1 + _GK_NODES[j]):.6g}"
                )
            panels_used += len(pa)
            total_est = done_val + float(k.sum())
            allow = max(ABS_TOL, rel_tol * abs(total_est))
            # width-proportional allowance, with an absolute negligibility floor so
            # integrable kinks cannot force unbounded refinement of vanishing panels
            bad = ~(err <= allow * np.maximum((pb - pa) / width, 1e-6))
            rejected = np.count_nonzero(bad)
            if rejected and depth >= MAX_DEPTH:
                raise _exhausted("adaptive refinement", pa, pb, np.where(bad, err, -np.inf))
            if panels_used + 2 * rejected > PANEL_BUDGET:
                raise _exhausted("adaptive refinement", pa, pb, np.where(bad, err, -np.inf),
                                 f"PANEL_BUDGET ({PANEL_BUDGET} panels)")
            if not rejected:
                done_val += float(k.sum())
                done_err += float(err.sum())
                break
            if cells is not None:
                edges = _initial_edges(a, b, np.concatenate([edges, cells]))
                pa, pb, cells = edges[:-1], edges[1:], None
                continue
            ok = ~bad
            done_val += float(k[ok].sum())
            done_err += float(err[ok].sum())
            pa, pb = pa[bad], pb[bad]
            mid = 0.5 * (pa + pb)
            pa, pb = np.concatenate([pa, mid]), np.concatenate([mid, pb])
            depth += 1
    return Integral(done_val, done_err, panels_used)


def refine_log_panels(logf, lo, hi, ptol):
    """Log integrals of exp(logf) over the intervals [lo[i], hi[i]].

    Panel i of segment s is accepted when err_i K_i / T_s <= ptol w_i / W_s
    (QUADPACK's global criterion in log space: err_i = |log K15 - log G7|,
    T_s the segment's running total, accepted plus pending, and w_i / W_s =
    2^-min(depth_i, 30)), or when err_i is within ``_ACCEPT_ULPS`` ulps of
    |log K_i|.  A panel whose node maximum is nan or +inf, or still rejected
    at ``MAX_DEPTH``, fails its segment (see ``_fail``), refined no further.
    Returns (seg_logs, seg_errs, panels_used, seg_panels, failures): seg_errs,
    the accepted err_i K_i over each segment's total, bound its relative
    error by about ptol, plus ptol 2^-30 per floored panel, unless the ulp
    floor accepted panels; seg_panels, which sum to panels_used, count each
    segment's; ``failures`` maps each failed segment, nan in seg_logs and
    seg_errs, to (key, error), read by ``_raise_first``.
    The intervals are independent: each one's log integral, error and
    failure are the same bit for bit whatever other intervals share the
    batch, so consecutive edges are passed as ``edges[:-1], edges[1:]``.  A
    call whose intervals all pass whole in the first pass skips the
    per-segment accumulation and the failure search (of rejected panels);
    the others add the error masses once, after the last pass.
    """
    pa, pb = np.array(lo, dtype=float), np.array(hi, dtype=float)
    nseg = len(pa)
    seg = np.arange(nseg, dtype=np.int64)
    acc = np.full(nseg, -np.inf)  # accepted log mass per segment
    accerr = np.full(nseg, -np.inf)  # log of accepted absolute-in-log error mass
    panels_used, split, errs = 0, [np.empty(0, dtype=np.int64)], []  # segments bisected; accepted ones, log errors
    failures = {}
    depth = 0  # every pending panel is 2^-depth of its segment
    while len(pa):
        logk, err = _gk_log(logf, pa, pb)
        panels_used += len(pa)
        if depth:  # accepted + pending (ufunc.at is unbuffered, so repeated segments accumulate)
            tot = acc.copy()
            with np.errstate(invalid="ignore"):  # a failed panel's nan makes its segment's total nan
                np.logaddexp.at(tot, seg, logk)
            # log of each panel's share of its segment's total; -inf for panels without mass
            share = np.subtract(logk, tot[seg], out=np.full(len(logk), -np.inf), where=logk > -np.inf)
            ok = err * np.exp(share) <= math.ldexp(ptol, -min(depth, _FLOOR_DEPTH))
        else:  # a segment's one panel is its total: its share is 1, or 0 where it has no mass and err is 0
            ok = err <= ptol
        ok |= err <= _ACCEPT_ULPS * np.spacing(np.abs(logk))
        rejected = (~ok).nonzero()[0]
        if not depth and not len(rejected):  # each segment's one panel: logaddexp(-inf, v) is v + 0.0
            acc, accerr = logk + 0.0, logk + np.log(np.maximum(err, 1e-300)) + 0.0
            break
        done = slice(None) if not len(rejected) else ok.nonzero()[0]
        segs, kept = seg[done], logk[done]
        np.logaddexp.at(acc, segs, kept)
        errs.append((segs, kept + np.log(np.maximum(err[done], 1e-300))))
        if len(rejected) and (depth >= MAX_DEPTH or np.isnan(err[rejected]).any()):
            rejected = _fail(failures, logf, depth, pa, pb, seg, err, rejected, acc)
        if not len(rejected):  # in pass order: each segment adds its error masses in the order they were accepted
            np.logaddexp.at(accerr, *map(np.concatenate, zip(*errs)))
            break
        pa, pb, seg = pa[rejected], pb[rejected], seg[rejected]
        split.append(seg)
        mid = 0.5 * pa + 0.5 * pb
        pa, pb, seg = np.concatenate([pa, mid]), np.concatenate([mid, pb]), np.concatenate([seg, seg])
        depth += 1
    empty = acc == -np.inf
    seg_errs = np.exp(accerr - np.where(empty, 0.0, acc))
    seg_errs[empty] = 0.0
    return acc, seg_errs, panels_used, 1 + 2 * np.bincount(np.concatenate(split), minlength=nseg), failures


def _fail(failures, logf, depth, pa, pb, seg, err, rejected, acc):
    """Enter in ``failures``, and mark nan in ``acc``, each segment that a
    ``rejected`` panel fails at this depth, with the error that a call for
    it alone raises: at its first panel in pass order whose log K15 is nan
    (its node maximum is read again to name it), else, at ``MAX_DEPTH``, at
    its largest err, the first on ties.  Its key is (depth, that panel's
    rank in this order over the pass).  Return the other rejected panels."""
    bad = rejected if depth >= MAX_DEPTH else rejected[np.isnan(err[rejected])]
    order = bad[np.lexsort((-err[bad], ~np.isnan(err[bad])))]  # a stable sort: pass order on ties
    segs, rank = np.unique(seg[order], return_index=True)
    worst = order[rank]
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.asarray(logf(_nodes(pa[worst], pb[worst])[0]), dtype=float).max(axis=0)
    for s, r, i, m in zip(segs.tolist(), rank.tolist(), worst.tolist(), top.tolist()):
        failures[s] = (depth, r), (
            DomainValidationError(f"log-integrand is {m} on the panel [{pa[i]:.17g}, {pb[i]:.17g}]")
            if math.isnan(err[i]) else _exhausted("log-space adaptive refinement", pa[i : i + 1], pb[i : i + 1],
                                                   err[i : i + 1]))
    acc[segs] = np.nan
    return rejected[~np.isin(seg[rejected], segs)]


def _raise_first(failures, a=0, b=math.inf):
    """Raise what one call over the intervals a..b-1 of a call that returned
    ``failures`` raises: the error of their least key (keys are unique)."""
    first = min((f for i, f in failures.items() if a <= i < b), default=None)
    if first:
        raise first[1]


# Doubling chunks of one extension refined in one call: at most this many,
# each at most _MAX_SPLIT_WIDTH wide, with at most this many segments
# together (a first chunk of more goes alone).  Normalizing the 8 corpus
# measures took 97 calls at 2 chunks, 88 at 4 and 87 at 6, where the
# chunks past the stop raised the panels from 4,262 to 5,777.  Wider chunks
# go one per call, so the panel budget bounds the memory of a call:
# batched, they took normalizing 2 log(1 + |x|) + 0.1 sin x to its
# NonIntegrableError at a peak RSS of 392 MiB instead of 82 MiB.
_EXTENSION_BATCH_CHUNKS = 4
_EXTENSION_BATCH_SEGMENTS = 64


def _tail(start, breakpoints):
    """One start's extension in ``log_extension``: the loop of one doubling
    chunk per call, fed by batches.  Yields (chunk edges, probe, alone):
    its next chunks, whether they are probed (see ``log_extension``) and
    whether they take a call of their own.  Is sent the call's segment logs,
    panel counts and failures, and its first segment's index there.  Judges
    its chunks in order, each raising what a call for it alone raises, and
    returns the log integral; chunks past the stop are dropped, unjudged."""
    total, lo, w = -np.inf, start, 1.0
    while lo + w == lo and w < math.inf:
        w *= 2.0
    spent, judged, found = 0, 0, False  # found: a probe saw the next chunk's mass
    while True:
        probe = total == -np.inf and w > _MAX_SPLIT_WIDTH and not found
        chunks, segments, a, b = [], 0, lo, w
        while len(chunks) < _EXTENSION_CHUNKS - judged and a + b != math.inf:
            split = breakpoints is not None and b <= _MAX_SPLIT_WIDTH
            edges = _initial_edges(a, a + b, breakpoints(a, a + b) if split else None)
            if chunks and not probe and (b > _MAX_SPLIT_WIDTH or len(chunks) == _EXTENSION_BATCH_CHUNKS
                                         or segments + len(edges) - 1 > _EXTENSION_BATCH_SEGMENTS):
                break
            chunks.append(edges)
            segments += len(edges) - 1
            a, b = a + b, 2.0 * b
        if not chunks:
            break
        seg_logs, seg_panels, failures, end = yield chunks, probe, not probe and w > _MAX_SPLIT_WIDTH
        for edges in chunks:
            first, end = end, end + len(edges) - 1
            _raise_first(failures, first, end)
            if probe and seg_logs[first] > -np.inf:  # the first chunk with mass is refined on its own
                found = True
                break
            log = float(np.logaddexp.reduce(seg_logs[first:end]))
            total = float(np.logaddexp(total, log))
            judged += 1
            if log < total - _NEGLIGIBLE_NATS:
                return total
            spent += int(seg_panels[first:end].sum())
            if spent > _EXTENSION_PANEL_BUDGET:
                raise NonIntegrableError(
                    f"tail integral starting at {start:.3g} spent {spent} panels by x={edges[-1]:.3g} without converging"
                )
            lo, w, found = float(edges[-1]), 2.0 * w, False
    if total == -np.inf:
        return total
    raise NonIntegrableError(f"tail integral starting at {start:.3g} did not converge by x={lo:.3g}")


def log_extension(logf, start, ptol, breakpoints=None):
    """Log integral of exp(logf) over [start, +inf) by doubling chunks,
    each refined at ptol, for a scalar ``start`` (a float is returned) or a
    1-D array of starts, which advance in lockstep.

    ``breakpoints(a, b)`` lists the integrand's jump or oscillation points in
    (a, b); each chunk up to ``_MAX_SPLIT_WIDTH`` wide is split there, so
    panels never straddle a jump.  Stops once a chunk falls 55 nats below the
    running total, i.e. the remainder is a negligible relative correction.
    A chunk without mass never stops it, since V may overflow and come back
    to finite values; if the ``_EXTENSION_CHUNKS`` doublings, or those up to
    the end of the float range, find no mass (V overflows from ``start``
    on), the result is -inf.  Otherwise they raise NonIntegrableError, as
    do chunks that spend more than ``_EXTENSION_PANEL_BUDGET`` panels.
    The doubling starts at the first unit width * 2^k that moves ``start``
    (past 2^53 a unit chunk is empty), so no doubling is spent on empty chunks.

    Each round refines the next chunks of every unfinished start (a
    ``_tail``) in a few ``refine_log_panels`` calls, and each start judges
    its own in order by their log masses and panel counts.  A start's batch
    holds up to ``_EXTENSION_BATCH_CHUNKS`` chunks and
    ``_EXTENSION_BATCH_SEGMENTS`` segments, each chunk at most
    ``_MAX_SPLIT_WIDTH`` wide; a wider chunk takes a call of its own, and
    while no mass is found the wider chunks left are probed, one panel
    each at ptol inf, read as mass or none.  The other batches share one
    call, and the probes another.  A start judging a chunk that a failed
    panel reaches raises the error of a call for that chunk alone, and the
    first start in order that raises raises.  Since
    the intervals of a call are independent, every value, error and raise
    point is that of one call per chunk, one start after another, bit for bit.
    """
    tails = [_tail(s, breakpoints) for s in np.atleast_1d(np.asarray(start, dtype=float)).tolist()]
    asks, ends = [None] * len(tails), [None] * len(tails)  # each start's next request, and its outcome

    def resume(i, reply=None):
        try:
            asks[i] = tails[i].send(reply)
        except StopIteration as stop:
            asks[i], ends[i] = None, stop.value
        except (DomainValidationError, DepthExhaustedError, NonIntegrableError) as e:
            asks[i], ends[i] = None, e

    for i in range(len(tails)):
        resume(i)
    while True:
        failed = next((i for i, end in enumerate(ends) if isinstance(end, Exception)), len(tails))
        live = [i for i in range(failed) if asks[i] is not None]  # those after a start that raised read nothing more
        calls = [[i] for i in live if asks[i][2]]  # the chunks that go alone, then the probes and the other batches
        calls += [c for probe in (True, False) if (c := [i for i in live if asks[i][1:] == (probe, False)])]
        if not calls:
            break
        for call in calls:
            edges = [e for i in call for e in asks[i][0]]
            lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
            probe = asks[call[0]][1]  # a probe's one panel per chunk is accepted whatever its error
            seg_logs, _, _, seg_panels, failures = refine_log_panels(logf, lo, hi, math.inf if probe else ptol)
            firsts = np.cumsum([0] + [sum(len(e) - 1 for e in asks[i][0]) for i in call]).tolist()
            for i, first in zip(call, firsts):
                resume(i, (seg_logs, seg_panels, failures, first))
    if failed < len(tails):
        raise ends[failed]
    return ends[0] if np.ndim(start) == 0 else np.array(ends)


# Intervals per refine_log_panels call in a ladder (a memory bound): a
# horizon-800 scan ladder, 2,043 cells (2,837 on floor), takes one call.
_LADDER_BLOCK = 4096


def _interval_logs(logf, lo, hi, ptol):
    """Log integrals of exp(logf) over the intervals [lo[i], hi[i]], by one
    ``refine_log_panels`` call per ``_LADDER_BLOCK`` intervals, and their
    failures, keyed first by their block's start (an earlier call raises first)."""
    logs, failures = [np.empty(0)], {}  # no intervals, no logs
    for i in range(0, len(lo), _LADDER_BLOCK):
        out = refine_log_panels(logf, lo[i : i + _LADDER_BLOCK], hi[i : i + _LADDER_BLOCK], ptol)
        logs.append(out[0])
        failures.update({i + j: ((i, *key), error) for j, (key, error) in out[4].items()})
    return np.concatenate(logs), failures


def grid_steps(a, b):
    """The multiples of ``GRID_STEP`` in (a, b)."""
    steps = np.arange(math.floor(a / GRID_STEP), math.ceil(b / GRID_STEP) + 1) * GRID_STEP
    return steps[(steps > a) & (steps < b)]


class LogLadder:
    """Cumulative log integrals of exp(logf) between ascending ``edges``.

    ``prefix[i]`` is log int_edges[0]^edges[i] exp(logf), ``suffix[i]`` is
    log(int_edges[i]^edges[-1] exp(logf) + exp(after)), and ``cells`` holds
    each cell's log integral at ptol, all in one ``refine_log_panels`` call
    up to ``_LADDER_BLOCK`` cells; a failed cell raises what that call
    raises.  A query integrates its points' partial cells the same way, so
    it equals a scalar query bit for bit; ``upper_lower`` refines the
    partial cells of both sides of its points in one call.  A ladder given a
    side's ``breakpoints(a, b)`` starts at 0 and grows over the doubling
    chunks [0, 1], [1, 2], [2, 4], ..., split at the breakpoints and, up to
    ``_MAX_SPLIT_WIDTH`` wide, at the multiples of ``GRID_STEP`` (the scan
    grids'), in ``truncation_point`` and in ``grown`` alike.  An edge depends only on
    its position: growing to a, then b, equals growing to b, bit for bit,
    and growing by several chunks in one call, then cutting back to a chunk
    end, equals growing chunk by chunk.
    """

    def __init__(self, logf, edges, ptol, breakpoints=None):
        self.logf, self.ptol = logf, ptol
        self.edges, self.breakpoints = np.asarray(edges, dtype=float), breakpoints
        self.cells, failures = _interval_logs(logf, self.edges[:-1], self.edges[1:], ptol)
        _raise_first(failures)
        self._close(-np.inf)

    def _close(self, after=None):
        """Accumulate the cells; ``after`` defaults to one ``log_extension``."""
        if after is None:
            after = self.extension(self.edges[-1])
        self.prefix = np.concatenate([[-np.inf], np.logaddexp.accumulate(self.cells)])
        self.suffix = np.append(np.logaddexp(np.logaddexp.accumulate(self.cells[::-1])[::-1], after), after)

    def _lattice(self, lo, hi):
        """The edges in (lo, hi] of the doubling chunks from ``lo`` to ``hi``
        (0 or chunk ends): the chunk ends, the breakpoints and, in chunks up
        to ``_MAX_SPLIT_WIDTH`` wide, the multiples of ``GRID_STEP``."""
        ends = 2.0 ** np.arange(round(math.log2(lo)) + 1 if lo else 0, round(math.log2(hi)) + 1)
        top = min(hi, 2.0 * _MAX_SPLIT_WIDTH)  # the chunk ending there is the last that is split at the steps
        steps = grid_steps(lo, top) if lo < top else []
        return np.unique(np.concatenate([ends, steps, self.breakpoints(lo, hi)]))

    def _extend(self, new):
        """Append the cells up to the ascending edges ``new`` past the end
        in one ``_interval_logs``; return their log integrals and failures.
        ``prefix`` and ``suffix`` wait for ``_close``."""
        edges = np.concatenate([self.edges[-1:], new])
        cells, failures = _interval_logs(self.logf, edges[:-1], edges[1:], self.ptol)
        self.edges = np.concatenate([self.edges, new])
        self.cells = np.concatenate([self.cells, cells])
        return cells, failures

    def _append(self, b):
        """Append the lattice cells up to the first edge >= b."""
        end = float(self.edges[-1])
        start = math.ldexp(1.0, math.frexp(end)[1] - 1) if end >= 1.0 else 0.0  # of the chunk past the end
        new = self._lattice(start, max(2.0 ** math.ceil(math.log2(b)), 1.0))
        new = new[new > end]
        _raise_first(self._extend(new[: np.searchsorted(new, b) + 1])[1])

    def _cut(self, end):
        """A copy ending at the edge ``end``; its ``prefix`` and ``suffix`` wait for ``_close``."""
        out, n = copy.copy(self), int(np.searchsorted(self.edges, end)) + 1
        out.edges, out.cells = self.edges[:n].copy(), self.cells[: n - 1].copy()
        return out

    def extension(self, b):
        """log int_b^inf exp(logf) for a scalar or 1-D ``b``, by one lockstep
        ``log_extension`` split at the breakpoints, at the ladder's own ptol."""
        return log_extension(self.logf, b, self.ptol, self.breakpoints)

    def grown(self, b):
        """A copy extended to the first lattice edge >= b, with ``after`` from its new end."""
        out = copy.copy(self)
        if b > self.edges[-1]:
            out._append(b)
            out._close()
        return out

    def _partial(self, lo, hi):
        out, on = np.full(len(lo), -np.inf), lo < hi
        out[on], failures = _interval_logs(self.logf, lo[on], hi[on], self.ptol)
        _raise_first(failures)
        return out

    def upper(self, x):
        """log(exp(after) + int_x^edges[-1] exp(logf)) at the points ``x`` in [edges[0], edges[-1]]."""
        k = np.searchsorted(self.edges, x)
        return np.logaddexp(self._partial(x, self.edges[k]), self.suffix[k])

    def lower(self, x):
        """log int_edges[0]^x exp(logf) at the points ``x`` in [edges[0], edges[-1]]."""
        j = np.searchsorted(self.edges, x, side="right") - 1
        return np.logaddexp(self.prefix[j], self._partial(self.edges[j], x))

    def upper_lower(self, x):
        """``upper(x)`` and ``lower(x)``, their partial cells in one ``_partial``."""
        k, j = np.searchsorted(self.edges, x), np.searchsorted(self.edges, x, side="right") - 1
        part = self._partial(np.concatenate([x, self.edges[j]]), np.concatenate([self.edges[k], x]))
        return np.logaddexp(part[: len(x)], self.suffix[k]), np.logaddexp(self.prefix[j], part[len(x) :])


# New cells of the doubling chunks a truncation search refines in one call:
# the chunks up to this many (the first always), each at most
# _MAX_SPLIT_WIDTH wide, up to the last chunk it tries.  Normalizing the 8
# corpus measures took 93 calls and 2,894 panels at 50 cells, 88 and 4,262
# at 100, 86 and 8,694 at 200 (17% slower) and 92 and 19,414 at 400: the
# cells past the stop of a steep tail cost more panels than they save calls.
_LADDER_BATCH_CELLS = 100


def truncation_point(potential, eps, rel_tol=REL_TOL):
    """Smallest X with int_X^inf exp(-V) <= eps * int_0^X exp(-V), per side,
    and the ladders of exp(-V) it reads.

    Side sign's ``LogLadder`` of exp(-V(sign * s)), s = sign * x, grows over
    the doubling chunks [0, 1], [1, 2], [2, 4], ..., split on the lattice
    that ``grown`` uses, up to the first chunk end B that falls 55 nats
    below the running total and where the predicate holds, or up to 2^19,
    the last X the search tries.  The chunks are refined in batches of up
    to ``_LADDER_BATCH_CELLS`` new cells, each chunk at most
    ``_MAX_SPLIT_WIDTH`` wide, walked in order and cut back to B; a chunk
    raises, as it is walked, what growing it alone raises.  Its cells are refined at the panel tolerance max(rel_tol / 10, 1e-14)
    for the float ``rel_tol`` in (0, 1), and one ``log_extension`` from B
    is the mass beyond.  h(X) = log tail(X) - log eps - log core(X), read
    from the ladder (both partial cells in one call), decreases in X.  It is
    bracketed by doubling, and its root is located on the lattice that 40
    bisection steps of the bracket would visit, by a bracketed secant.
    Returns (X, {+1: right ladder, -1: left ladder}), X the larger of the
    two sides'; an even potential's one ladder serves both.  Raises
    NonIntegrableError when the predicate never holds by X = 1e6.
    """
    _check_rel_tol(rel_tol)
    if not 0.0 < eps < 1.0:
        raise DomainValidationError("eps must be in (0, 1)")
    log_eps = math.log(eps)
    ptol = max(rel_tol * 0.1, 1e-14)

    def h(ladder, x):
        upper, lower = ladder.upper_lower(np.atleast_1d(x))
        return upper - log_eps - lower

    def grow(ladder):
        """The ladder cut at B, and B."""
        total, hi = -np.inf, 1.0
        while True:
            # a chunk past the first joins a batch only if it starts below
            # (_LADDER_BATCH_CELLS + 1) GRID_STEP: later ones hold more steps than a batch
            ends = [hi]
            while 2.0 * ends[-1] <= 1e6 and ends[-1] <= min(_MAX_SPLIT_WIDTH, (_LADDER_BATCH_CELLS + 1) * GRID_STEP):
                ends.append(2.0 * ends[-1])
            edges = ladder._lattice(0.5 * hi if hi > 1.0 else 0.0, ends[-1])
            cuts = np.searchsorted(edges, ends, side="right").tolist()  # new cells up to each chunk end
            n = max(int(np.searchsorted(cuts, _LADDER_BATCH_CELLS, side="right")), 1)
            cells, failures = ladder._extend(edges[: cuts[n - 1]])
            for first, stop, end in zip([0, *cuts], cuts[:n], ends):
                _raise_first(failures, first, stop)
                chunk = float(np.logaddexp.reduce(cells[first:stop]))
                total = float(np.logaddexp(total, chunk))
                last = 2.0 * end > 1e6
                if last or chunk < total - _NEGLIGIBLE_NATS:
                    cut = ladder._cut(end)
                    cut._close()
                    if last or h(cut, end)[0] <= 0.0:
                        return cut, end
            hi = 2.0 * ends[n - 1]

    def one_side(sign):
        logf = (lambda s: -potential.value(s)) if sign > 0 else lambda s: -potential.value(sign * s)
        ladder, hi = grow(LogLadder(logf, [0.0], ptol, breakpoints=potential.side_breakpoints(sign)))
        xs = 2.0 ** np.arange(round(math.log2(hi)) + 1)
        hs = h(ladder, xs)
        k = int(np.argmax(hs <= 0.0))
        if hs[k] > 0.0:
            raise NonIntegrableError(
                f"truncation search failed by X=1e6; exp(-V) at X is {math.exp(-potential.value(sign * hi)):.3g}"
            )
        lo = xs[k - 1] if k else 1e-3
        # h at the bracket's ends and every edge between them, read from the ladder (1e-3 is no edge)
        pts = np.concatenate([[lo], ladder.edges[(ladder.edges > lo) & (ladder.edges < xs[k])], xs[k : k + 1]])
        return _lattice_root(lambda t: h(ladder, t), pts, h(ladder, pts), 2**40), ladder

    xr, right = one_side(+1.0)
    if potential.even:
        return xr, {+1: right, -1: right}
    xl, left = one_side(-1.0)
    return max(xr, xl), {+1: right, -1: left}


def _inverse_estimate(p, v):
    """The position where the curve through the points (p[k], v[k]), v
    strictly decreasing, crosses 0: Neville's scheme for p as a polynomial
    in v, relative to p[0]."""
    x = [t - p[0] for t in p]
    for d in range(1, len(p)):
        x = [(v[k] * x[k + 1] - v[k + d] * x[k]) / (v[k] - v[k + d]) for k in range(len(x) - 1)]
    return p[0] + x[0]


def _lattice_root(h, xs, hs, steps):
    """Smallest lattice point lo + k (hi - lo) / steps, k = 0..steps, lo =
    xs[0] and hi = xs[-1], where the decreasing h is <= 0, given its values
    ``hs`` at the ascending points ``xs`` with hs[-1] <= 0.  When hs[0] > 0
    this is the point that bisection of [lo, hi] down to one lattice step
    returns.  ``h`` maps an array of points to an array.

    The known points narrow the lattice to the part between the last of
    them with h > 0 and the first with h <= 0, at no call of h.  Each call
    then reads a fan of lattice points inside that bracket: the rounded
    estimate c and c -+ 1, 2, 4, ... out to the bracket's ends, so the
    bracket shrinks to about the estimate's error, and at least halves.
    The estimate inverts the cubic through the bracket's ends and the
    nearest known point past each, or the secant of the ends where it falls
    outside them.
    """
    xs, hs = np.asarray(xs, dtype=float), np.asarray(hs, dtype=float)
    i = int(np.argmax(hs <= 0.0))
    lo, hi = float(xs[0]), float(xs[-1])
    if i == 0:
        return lo
    w = (hi - lo) / steps
    a, b = float(xs[i - 1]), float(xs[i])
    # k_lo: the last lattice point <= a, where h > 0; k_hi: the first >= b, where h <= 0
    k_lo = min(max(math.floor((a - lo) / w), 0), steps)
    while k_lo < steps and lo + (k_lo + 1) * w <= a:
        k_lo += 1
    while k_lo > 0 and lo + k_lo * w > a:
        k_lo -= 1
    k_hi = min(max(math.ceil((b - lo) / w), k_lo + 1), steps)
    while k_hi > k_lo + 1 and lo + (k_hi - 1) * w >= b:
        k_hi -= 1
    while k_hi < steps and lo + k_hi * w < b:
        k_hi += 1
    # the known points in lattice units; pos[i - 1] and pos[i] bracket the root
    pos, val = ((xs - lo) / w).tolist(), hs.tolist()
    while k_hi - k_lo > 1:
        near = slice(max(i - 2, 0), i + 2)
        p, v = pos[near], val[near]
        est = _inverse_estimate(p, v) if all(u > t for u, t in zip(v, v[1:])) else math.nan
        if not pos[i - 1] < est < pos[i]:
            est = pos[i] - val[i] * (pos[i] - pos[i - 1]) / (val[i] - val[i - 1])
        c = round(est) if math.isfinite(est) else (k_lo + k_hi) // 2
        c = min(max(c, k_lo + 1), k_hi - 1)
        fan = 1 << np.arange(max(c - k_lo, k_hi - c).bit_length(), dtype=np.int64)
        ks = np.concatenate([c - fan[::-1], [c], c + fan])
        ks = ks[(ks > k_lo) & (ks < k_hi)]
        hk = np.asarray(h(lo + ks * w), dtype=float)
        j = int(np.argmax(hk <= 0.0)) if (hk <= 0.0).any() else len(ks)
        if j < len(ks):
            k_hi = int(ks[j])
        if j:
            k_lo = int(ks[j - 1])
        pos[i:i] = ks.tolist()
        val[i:i] = hk.tolist()
        i += j
    return lo + k_hi * w
