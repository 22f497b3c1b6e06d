"""Hardy-type criterion scans for one-dimensional measures.

Each criterion is a supremum, over x on one side of the median m, of

    tail-mass factor  x  growing-weight integral from m to x,

with the density n = exp(-V)/Z entering through 1/n or a power of it:

    bp         mu([x,oo)) * int_m^x 1/n                        (Poincare)
    bls        mu([x,oo)) log(1/mu([x,oo))) * int_m^x 1/n       (log-Sobolev)
    blo(r)     mu([x,oo)) log^(2/r')(1 + 1/(2 mu([x,oo)))) * int_m^x 1/n
    bmls(r)    mu([x,oo)) log(1/mu([x,oo))) * (int_m^x n^-(r-1))^(1/(r-1))
    bweighted(r)  mu((x,oo)) log(1/mu) * int_0^x exp(V - log(1+|t|^(2-r)))

``KINDS`` holds one row per kind: the weight log-integrand (exp(V),
n^-(r-1) or exp(V)/(1+|x|^(2-r))), the inner transform of the weight log
mass, the log of the tail post-factor, whether r is required, whether the
measure must be even, and the bracket rule.  Every kind runs the same scan
from its row, and the five public scans are lookups into the table.

All tail masses and weight integrals are accumulated in log space with
per-panel log-sum-exp, so the scans stay meaningful far beyond the range
where exp(V) or exp(-V) is representable.  Partial suprema are recorded at
each requested horizon; on a grid of step pi/8 (which resolves period-2pi
oscillations of the potentials) plus golden-section refinement around the
running argmax.  The refinements of one scan run in lockstep, and each call
of the criterion value evaluates every probe of the next three steps that
the brackets could need.  That relies on an invariant of the measure's
queries: a point's tail and weight masses are the same bit for bit in any
batch of points.  A bounded criterion yields a constant bracket where the
theory provides one: [S, 4S] for bp, and an upper constant
235 * C_P + 2^(r'+1) * S for bmls when a bp result is supplied.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import measure as msr
from . import quad as quad_mod
from .errors import DomainValidationError, HardyLabError

DEFAULT_HORIZONS = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
PLATEAU_TOL = 0.05
SLOPE_FLOOR = 0.02
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 40  # golden-section steps per bracket
_LOOKAHEAD = 3  # golden-section steps per batch of probes

# two-sided 95% Student quantiles by degrees of freedom
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365, 8: 2.306}


@dataclass(frozen=True)
class BoundednessVerdict:
    """Decision layer over a partial-supremum scan."""

    label: str  # bounded | divergent | inconclusive
    plateau_ratio: float
    growth_exponent: tuple | None  # (slope, lo95, hi95) of log S vs log X


@dataclass(frozen=True)
class CriterionResult:
    kind: str
    side: str  # plus | minus | max
    horizons: tuple
    partial_sups: tuple  # exp of log_partial_sups; inf when beyond float range
    log_partial_sups: tuple
    argmax: tuple  # x location of the running sup per horizon
    verdict: BoundednessVerdict
    bracket: tuple | None = None
    r: float | None = None
    sides: dict | None = None

    @property
    def sup(self):
        return self.partial_sups[-1]

    @property
    def final_argmax(self):
        return self.argmax[-1]


def _t95(dof):
    if dof < 1:
        return math.inf
    return _T95.get(dof, 1.96 + 2.0 / dof)


def growth_fit(xs, log_ys):
    """OLS slope of log y vs log x with a 95% confidence interval.

    ``log_ys`` is already on the log scale so that double-exponentially
    divergent scans (values beyond float range) still classify.
    """
    lx, ly = np.log(xs), np.asarray(log_ys, dtype=float)
    n = len(lx)
    if n < 2:
        return None
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = n - 2
    if dof <= 0:
        return (slope, -math.inf, math.inf)
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    t = _t95(dof)
    return (slope, slope - t * se, slope + t * se)


def classify(horizons, log_sups):
    """bounded when the sups plateau; divergent when the fitted log-log slope
    over the last half of horizons is positive with 95% confidence; otherwise
    inconclusive."""
    log_sups = np.asarray(log_sups, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    k = len(horizons)
    mid = (k - 1) // 2
    with np.errstate(over="ignore"):
        plateau_ratio = float(np.exp(log_sups[-1] - log_sups[mid]))
    fit = growth_fit(horizons[k // 2 :], log_sups[k // 2 :])
    if plateau_ratio <= 1.0 + PLATEAU_TOL:
        label = "bounded"
    elif fit is not None and fit[1] > SLOPE_FLOOR:
        label = "divergent"
    else:
        label = "inconclusive"
    return BoundednessVerdict(label=label, plateau_ratio=plateau_ratio, growth_exponent=fit)


def _validate_horizons(horizons, median):
    horizons = tuple(float(x) for x in horizons)
    if len(horizons) < 2 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise DomainValidationError("horizons must be increasing with >= 2 entries")
    if horizons[0] <= abs(median) + 1.0:
        raise DomainValidationError("first horizon must clear the median")
    return horizons


class _SideScan:
    """One-sided scan state in t = sign * x, from the median t0 = sign * m.

    The grid is t0, t_end, the ``extra`` points, and the multiples of
    ``quad.GRID_STEP`` and the breakpoints in between; those multiples and
    breakpoints in (0, 8192) are edges of ``ladders`` (this side's grown to
    t_end), which splits its chunks up to ``quad._MAX_SPLIT_WIDTH`` wide at
    the same points.
    ``v`` is V in the side coordinate, t -> V(sign * t).  ``_side_scan``
    keeps the scan on the measure and ``weight_ladder`` each weight by its
    key; ``hyp_mls_check`` reads a weight and grows no ladder.
    """

    def __init__(self, measure, sign, t_end, extra):
        self.measure, self.sign = measure, sign
        pot = measure.potential
        t0 = sign * measure.median
        bps = pot.side_breakpoints(sign)(t0, t_end)
        self.grid = np.unique(np.concatenate([[t0, t_end], extra, quad_mod.grid_steps(t0, t_end), bps]))
        self.v = pot.value if sign > 0 else lambda t: pot.value(sign * np.asarray(t, dtype=float))
        self._weights = {}

    @functools.cached_property
    def ladders(self):
        """The measure's ladders, this side's as a copy grown to t_end."""
        return {**self.measure.ladders, self.sign: self.measure.ladders[self.sign].grown(self.grid[-1])}

    def weight_ladder(self, key, g):
        """Ladder of exp(g) on the grid (panel tolerance 1e-9, depth 60, not
        strict), whose ``prefix`` is log int_t0^t exp(g); ``key`` names g."""
        if key not in self._weights:
            self._weights[key] = quad_mod.LogLadder(g, self.grid, 1e-9, 60, strict=False)
        return self._weights[key]


def _golden_max(f, a, b):
    """Golden-section maxima of f on the brackets [a[i], b[i]], in lockstep.

    Each bracket follows the scalar search exactly (same probes, same float
    operations, ties and nan going to the right-hand point).  A step's
    probe depends only on the bracket and the branches taken so far, so
    every probe the next ``_LOOKAHEAD`` steps could need (one for the known
    branch, then two, then four: 7 per bracket) is evaluated in one call of
    ``f``, which maps an array of points to their values, and the steps are
    replayed from those values.  This needs each value to be independent
    of the batch it is evaluated in.  A batch that raises a ``HardyLabError``
    or meets a numpy floating-point error is dropped, and its steps call
    ``f`` on their actual probes one step at a time, so an error or warning
    comes from a probe that the scalar search evaluates, never from a
    speculative one.  Returns the arrays of argmax points and values.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    n, cols = len(a), np.arange(len(a))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fcd = f(np.concatenate([c, d]))
    fc, fd = fcd[:n], fcd[n:]
    for done in range(0, _GOLDEN_ITERS, _LOOKAHEAD):
        # the brackets after each of the next steps, one row per choice of
        # the branches so far (the first is known): in row i of step j >= 1
        # the step went left unless bit j - 1 of i is set
        states, probes, left = (a[None], b[None], c[None], d[None]), [], (fc >= fd)[None]
        for j in range(min(_LOOKAHEAD, _GOLDEN_ITERS - done)):
            if j:
                states = tuple(np.concatenate([s, s]) for s in states)
                left = np.repeat([True, False], 1 << (j - 1))[:, None]
            # left: b, d = d, c, then a new c; right: a, c = c, d, then a new d
            sa, sb, sc, sd = states
            sb, sa = np.where(left, sd, sb), np.where(left, sa, sc)
            kept = np.where(left, sc, sd)
            probe = np.where(left, sb - _INVPHI * (sb - sa), sa + _INVPHI * (sb - sa))
            states = (sa, sb, np.where(left, probe, kept), np.where(left, kept, probe))
            probes.append(probe)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                flat = f(np.concatenate([p.ravel() for p in probes]))
            values = np.split(flat, np.cumsum([p.size for p in probes[:-1]]))
        except (HardyLabError, FloatingPointError):
            values = None
        row = np.zeros(n, dtype=np.intp)
        for j, probe in enumerate(probes):
            left = fc >= fd
            if j:
                row += np.where(left, 0, 1 << (j - 1))
            f_probe = f(probe[row, cols]) if values is None else values[j].reshape(probe.shape)[row, cols]
            f_kept = np.where(left, fc, fd)
            fc, fd = np.where(left, f_probe, f_kept), np.where(left, f_kept, f_probe)
        a, b, c, d = (s[row, cols] for s in states)
    at_c = fc >= fd
    return np.where(at_c, c, d), np.where(at_c, fc, fd)


# Rows of the kind table.  A weight returns its ladder cache key with its
# log-integrand in t; the key holds r only where the integrand reads it, so
# bp, bls and blo at any r share one exp(V) ladder.  Post-factors stay in
# log form, so scans survive criterion values beyond float range.


def _exp_v(scan, r):
    return "exp(V)", scan.v


def _density_power(scan, r):
    return ("n^-(r-1)", r), lambda t: (r - 1.0) * scan.v(t)


def _weighted(scan, r):
    def g(t):
        return scan.v(t) - np.log1p(np.power(np.abs(t), 2.0 - r))

    return ("exp(V)/(1+|x|^(2-r))", r), g


def _identity(j, r):
    return j


def _over_r_minus_1(j, r):
    return j / (r - 1.0)


def _no_post(l, r):
    return np.zeros_like(l)


def _log_log_inverse(l, r):
    return np.log(np.maximum(-l, 1e-300))


def _blo_post(l, r):
    # log^(2/r')(1 + 1/(2 tail)), with the exact 1/(2 tail) argument
    return (2.0 / (r / (r - 1.0))) * np.log(np.logaddexp(0.0, -(l + math.log(2.0))))


def _bp_bracket(s, r, bp_result):
    return (s, 4.0 * s)


def _bmls_bracket(s, r, bp_result):
    if bp_result is None or bp_result.bracket is None:
        return None
    return (0.0, 235.0 * bp_result.bracket[1] + math.pow(2.0, r / (r - 1.0) + 1.0) * s)


@dataclass(frozen=True)
class _Kind:
    """One criterion kind: the log criterion value at a point is
    l + transform(j, r) + log_post(l - log Z, r), where l is the log of
    int exp(-V) over the tail and j the weight log mass from the median."""

    weight: object  # (scan, r) -> (cache key, log-integrand of s)
    transform: object  # (j, r) -> transformed weight log mass
    log_post: object  # (array of normalized tail log masses, r) -> logs of the tail post-factor
    needs_r: bool = False
    needs_even: bool = False
    bracket: object = None  # (S, r, bp_result) -> bracket of a bounded scan, or None


KINDS = {
    "bp": _Kind(_exp_v, _identity, _no_post, bracket=_bp_bracket),
    "bls": _Kind(_exp_v, _identity, _log_log_inverse),
    "blo": _Kind(_exp_v, _identity, _blo_post, needs_r=True),
    "bmls": _Kind(_density_power, _over_r_minus_1, _log_log_inverse, needs_r=True, bracket=_bmls_bracket),
    "bweighted": _Kind(_weighted, _identity, _log_log_inverse, needs_r=True, needs_even=True),
}


def _add_post(vals, l_norm, row, r):
    """Add the row's log post-factor at the normalized tail log masses
    ``l_norm`` to the finite entries of ``vals``, in place."""
    finite = np.isfinite(vals)
    vals[finite] += row.log_post(l_norm[finite], r)
    return vals


def _side_scan(measure, sign, horizons):
    """The measure's scan state for one side and horizon tuple, built once."""
    key = (sign, horizons)
    if key not in measure._scans:
        measure._scans[key] = _SideScan(measure, sign, horizons[-1], extra=horizons)
    return measure._scans[key]


def _scan_side(measure, kind, r, horizons, sign):
    scan = _side_scan(measure, sign, horizons)
    row = KINDS[kind]
    weight = scan.weight_ladder(*row.weight(scan, r))
    tail_logs = msr._log_mass(scan.ladders, sign * scan.grid, sign)

    lvals = tail_logs + row.transform(weight.prefix, r)
    lvals[0] = -np.inf
    _add_post(lvals, tail_logs - measure.log_z, row, r)

    def log_values_at(t):
        l_abs = msr._log_mass(scan.ladders, sign * t, sign)
        return _add_post(l_abs + row.transform(weight.lower(t), r), l_abs - measure.log_z, row, r)

    # Golden-section refinement around a window's grid argmax happens only
    # when it beats the running best, which is never below the running grid
    # maximum; so every window that beats the grid maximum so far is refined
    # up front, all in one lockstep search, and the loop below adopts the
    # results exactly as a sequential scan would.
    grid = scan.grid
    windows, brackets = [], {}
    lo_idx, grid_best = 1, -np.inf
    for k, t_hzn in enumerate(horizons):
        hi_idx = int(np.searchsorted(grid, t_hzn, side="right"))
        j = None
        if hi_idx > lo_idx:
            j = int(np.argmax(lvals[lo_idx:hi_idx])) + lo_idx
            lo_idx = hi_idx
            if lvals[j] > grid_best:
                grid_best = lvals[j]
                a = grid[j - 1]
                # the sup runs over (m, X]: never refine past the horizon
                b = min(grid[min(j + 1, len(grid) - 1)], t_hzn)
                if b > a:
                    brackets[k] = (a, b)
        windows.append(j)
    refined = {}
    if brackets:
        t_ref, v_ref = _golden_max(log_values_at, *np.array(list(brackets.values())).T)
        refined = dict(zip(brackets, zip(t_ref.tolist(), v_ref.tolist())))

    log_sups, argmaxes = [], []
    best, best_t = -np.inf, float("nan")
    for k, j in enumerate(windows):
        if j is not None and lvals[j] > best:
            best, best_t = float(lvals[j]), float(grid[j])
            if k in refined and refined[k][1] > best:
                best_t, best = refined[k]
        log_sups.append(best)
        argmaxes.append(sign * best_t)
    return _result(kind, "plus" if sign > 0 else "minus", r, horizons, log_sups, argmaxes)


def _result(kind, side, r, horizons, log_sups, argmax, **extra):
    """The result of a scan: its verdict and sups come from its log sups."""
    with np.errstate(over="ignore"):
        sups = tuple(float(np.exp(v)) for v in log_sups)
    return CriterionResult(kind=kind, side=side, horizons=tuple(horizons), partial_sups=sups,
                           log_partial_sups=tuple(log_sups), argmax=tuple(argmax),
                           verdict=classify(horizons, log_sups), r=r, **extra)


def _combine(measure, kind, r, horizons, bp_result=None):
    row = KINDS[kind]
    if row.needs_r:
        _check_r(r)
    if row.needs_even and not measure.is_even:
        raise DomainValidationError(f"{kind} requires an even measure")
    horizons = _validate_horizons(horizons, measure.median)
    plus = _scan_side(measure, kind, r, horizons, +1)
    if measure.is_even:
        minus = replace(plus, side="minus", argmax=tuple(-a for a in plus.argmax))
    else:
        minus = _scan_side(measure, kind, r, horizons, -1)
    log_sups = tuple(
        max(a, b) for a, b in zip(plus.log_partial_sups, minus.log_partial_sups)
    )
    argmax = tuple(
        pa if sa >= sb else ma
        for sa, sb, pa, ma in zip(
            plus.log_partial_sups, minus.log_partial_sups, plus.argmax, minus.argmax
        )
    )
    res = _result(kind, "max", r, horizons, log_sups, argmax, sides={"plus": plus, "minus": minus})
    if row.bracket is not None and res.verdict.label == "bounded":
        res = replace(res, bracket=row.bracket(res.sup, r, bp_result))
    return res


# ---------------------------------------------------------------------------
# public criterion scans
# ---------------------------------------------------------------------------


def bp(measure, horizons=DEFAULT_HORIZONS):
    """Poincare criterion scan; bounded verdicts carry the bracket [S, 4S]
    for the Poincare constant."""
    return _combine(measure, "bp", None, horizons)


def bls(measure, horizons=DEFAULT_HORIZONS):
    """Log-Sobolev criterion scan.  The two-sided comparability constants are
    not pinned by the theory, so no bracket is attached."""
    return _combine(measure, "bls", None, horizons)


def blo(measure, r, horizons=DEFAULT_HORIZONS):
    """Interpolation-family criterion with tail weight log^(2/r')(1 + 1/(2 tail)).

    The exact 1/(2 tail) argument is kept (not the simplified 1/tail); the two
    differ by bounded factors only but the scan matches the sharp form.
    """
    return _combine(measure, "blo", r, horizons)


def bmls(measure, r, horizons=DEFAULT_HORIZONS, bp_result=None):
    """Two-level criterion with density power n^-(r-1).

    When a bp scan of the same measure is supplied and both verdicts are
    bounded, the bracket carries the constructive upper constant
    235 * (4 S_bp) + 2^(r'+1) * S.
    """
    return _combine(measure, "bmls", r, horizons, bp_result)


def bweighted(measure, r, horizons=DEFAULT_HORIZONS):
    """Criterion for the weighted log-Sobolev inequality with weight
    (1 + |x|^(2-r)); requires an even measure."""
    return _combine(measure, "bweighted", r, horizons)


def _check_r(r):
    if r is None or not 1.0 < r < 2.0:
        raise DomainValidationError(f"r must lie in (1, 2), got {r}")


@dataclass(frozen=True)
class HypMlsResult:
    holds: bool
    worst_ratio: float
    arg: float
    eps: float


def hyp_mls_check(measure, r, eps, horizons=DEFAULT_HORIZONS):
    """Check n(x)^-(r-1) >= eps * int_m^x n^-(r-1) on the scan grid.

    Returns the smallest observed ratio and where it occurs.  For piecewise
    potentials the dips sit just before the jump points, so those points are
    added to the grid.
    """
    _check_r(r)
    if eps <= 0:
        raise DomainValidationError("eps must be positive")
    horizons = _validate_horizons(horizons, measure.median)
    worst, arg = math.inf, math.nan
    for sign in (+1.0, -1.0):
        bps = measure.potential.side_breakpoints(sign)(sign * measure.median + 1e-9, horizons[-1])
        scan = _SideScan(measure, sign, horizons[-1], extra=[b - 1e-9 for b in bps])
        key, g = KINDS["bmls"].weight(scan, r)
        ratio = np.exp(g(scan.grid[1:]) - scan.weight_ladder(key, g).prefix[1:])
        j = int(np.argmin(ratio))
        if ratio[j] < worst:
            worst, arg = float(ratio[j]), float(sign * scan.grid[j + 1])
        if measure.is_even:
            break
    return HypMlsResult(holds=bool(worst >= eps), worst_ratio=worst, arg=arg, eps=eps)


@dataclass(frozen=True)
class AsymptoticScans:
    x: np.ndarray
    br_ratio: np.ndarray  # V / V'^(r')
    weighted_ratio: np.ndarray  # V / (|x|^(2-r) V'^2)
    vpp_ratio: np.ndarray  # V'' / V'^2 with finite-difference V''
    br_tail_max: float
    weighted_tail_max: float
    vpp_tail_max: float


def asymptotic_conditions(measure, r, horizons=DEFAULT_HORIZONS):
    """Derivative-based sufficient-condition diagnostics at the multiples of
    ``quad.GRID_STEP`` in (max(median, 0), X_end) and at X_end.

    Requires a potential with a derivative field; the three scans are the
    growth ratio V/V'^(r'), the weighted ratio V/(|x|^(2-r) V'^2), and the
    curvature ratio V''/V'^2, each with the maximum over the tail window
    [X_end/2, X_end].
    """
    _check_r(r)
    pot = measure.potential
    if pot.derivative is None:
        raise DomainValidationError("asymptotic_conditions requires a derivative field")
    horizons = _validate_horizons(horizons, measure.median)
    x_end = horizons[-1]
    x = np.append(quad_mod.grid_steps(max(measure.median, 0.0), x_end), x_end)
    rp = r / (r - 1.0)
    V = pot.value(x)
    Vp = pot.derivative(x)
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    Vpp = (pot.derivative(x + h) - pot.derivative(x - h)) / (2.0 * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        br = V / np.power(np.abs(Vp), rp)
        wr = V / (np.power(np.abs(x), 2.0 - r) * Vp * Vp)
        vr = Vpp / (Vp * Vp)
    tail_mask = x >= 0.5 * x_end
    return AsymptoticScans(
        x=x,
        br_ratio=br,
        weighted_ratio=wr,
        vpp_ratio=vr,
        br_tail_max=float(np.nanmax(np.where(np.isfinite(br[tail_mask]), br[tail_mask], np.nan))),
        weighted_tail_max=float(np.max(wr[tail_mask])),
        vpp_tail_max=float(np.nanmax(np.abs(np.where(np.isfinite(vr[tail_mask]), vr[tail_mask], np.nan)))),
    )


@dataclass(frozen=True)
class TailScaleTable:
    x: np.ndarray
    theta: np.ndarray  # inf{h > 0 : V(x+h) >= V(x) + 1}, capped at 10
    capped: np.ndarray
    ratio_theta: np.ndarray  # int_x^inf exp(-V) / (theta exp(-V(x)))
    ratio_deriv: np.ndarray  # int_x^inf exp(-V) / (exp(-V(x)) / V'(x)); nan if V' <= 0


def _theta_scale(pot, x, cap=10.0):
    v0 = float(pot.value(np.array([x]))[0]) + 1.0
    hs = np.linspace(0.0, cap, 2001)[1:]
    vals = pot.value(x + hs)
    idx = np.argmax(vals >= v0)
    if vals[idx] < v0:
        return cap, True
    lo = hs[idx - 1] if idx > 0 else 0.0
    hi = hs[idx]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if float(pot.value(np.array([x + mid]))[0]) >= v0:
            hi = mid
        else:
            lo = mid
    return hi, False


def tail_asymptotics(measure, x_grid):
    """theta(x) tail-scale diagnostics for an even measure.

    theta is the distance over which V climbs by 1 (capped at 10 with a
    flag); the two ratios compare the true unnormalized tail with the
    theta-scale and the 1/V' approximations.
    """
    if not measure.is_even:
        raise DomainValidationError("tail_asymptotics requires an even measure")
    pot = measure.potential
    x = np.asarray(x_grid, dtype=float)
    theta = np.empty(len(x))
    capped = np.zeros(len(x), dtype=bool)
    r_theta = np.empty(len(x))
    r_deriv = np.full(len(x), np.nan)
    l_abs = msr.log_tail(measure, x) + measure.log_z
    for i, xi in enumerate(x):
        theta[i], capped[i] = _theta_scale(pot, float(xi))
        v = float(pot.value(np.array([xi]))[0])
        r_theta[i] = math.exp(l_abs[i] + v) / theta[i]
        if pot.derivative is not None:
            vp = float(pot.derivative(np.array([xi]))[0])
            if vp > 0:
                r_deriv[i] = math.exp(l_abs[i] + v) * vp
    return TailScaleTable(x=x, theta=theta, capped=capped, ratio_theta=r_theta, ratio_deriv=r_deriv)
