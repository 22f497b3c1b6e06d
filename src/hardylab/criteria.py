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
each requested horizon, on a grid of step pi/8 (which resolves period-2pi
oscillations of the potentials).  The grid argmax of every window between
two horizons is refined by a multisection search over its two grid cells,
and the searches of one scan run in lockstep: each call of the criterion
value evaluates 7 points of every bracket.  That relies on an invariant of
the measure's queries: a point's tail and weight masses are the same bit
for bit in any batch of points.  A bounded criterion yields a constant
bracket where the theory provides one: [S, 4S] for bp, and an upper constant
235 * C_P + 2^(r'+1) * S for bmls, with C_P = 4 S_bp from its own bp scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr as expr_mod
from . import measure as msr
from . import quad as quad_mod
from .errors import DomainValidationError
from .functionals import _dual

DEFAULT_HORIZONS = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
PLATEAU_TOL = 0.05
SLOPE_FLOOR = 0.02
_SECTIONS = 8  # equal cells per bracket and call: each call shrinks it 4x
_SECTION_CALLS = 14  # 4^-14 = 3.7e-9 of the bracket is left

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
    if not all(math.isfinite(x) for x in horizons):
        raise DomainValidationError(f"horizons must be finite, got {horizons}")
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
        """Ladder of exp(g) on the grid at panel tolerance 1e-9, whose
        ``prefix`` is log int_t0^t exp(g); ``key`` names g."""
        if key not in self._weights:
            self._weights[key] = quad_mod.LogLadder(g, self.grid, 1e-9)
        return self._weights[key]


def _section_max(f, a, b):
    """Multisection maxima of f on the brackets [a[i], b[i]], in lockstep.

    Each of ``_SECTION_CALLS`` calls of ``f``, which maps an array of
    points to their values, evaluates the interior points of ``_SECTIONS``
    equal cells of every bracket; each bracket then shrinks to the two cells
    around its largest value (nan counting as -inf, ties going left).  A
    point's value must not depend on the batch it is evaluated in, so each
    bracket follows the scalar search exactly.  Returns the arrays of the
    last call's argmax points and values.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    cols, steps = np.arange(len(a)), np.arange(_SECTIONS + 1.0)
    for _ in range(_SECTION_CALLS):
        nodes = a[:, None] + ((b - a) / _SECTIONS)[:, None] * steps
        vals = f(nodes[:, 1:-1].ravel()).reshape(len(a), _SECTIONS - 1)
        vals = np.where(np.isnan(vals), -np.inf, vals)
        k = np.argmax(vals, axis=1) + 1
        a, b = nodes[cols, k - 1], nodes[cols, k + 1]
    return nodes[cols, k], vals[cols, k - 1]


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
    return (2.0 / _dual(r)) * np.log(np.logaddexp(0.0, -(l + math.log(2.0))))


def _bp_bracket(measure, horizons, s, r):
    return (s, 4.0 * s)


def _bmls_bracket(measure, horizons, s, r):
    c_p = bp(measure, horizons).bracket  # reuses the side scans cached on the measure
    if c_p is None:
        return None
    rp = _dual(r)  # 2^(r'+1) overflows from r' = 1023 on (r near 1): the constant reports as inf
    return (0.0, 235.0 * c_p[1] + (math.pow(2.0, rp + 1.0) * s if rp < 1023.0 else math.inf))


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
    bracket: object = None  # (measure, horizons, S, r) -> bracket of a bounded scan, or None


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

    def log_values_at(t):
        l_abs = msr._log_mass(scan.ladders, sign * t, sign)
        return _add_post(l_abs + row.transform(weight.lower(t), r), l_abs - measure.log_z, row, r)

    # at a grid point the weight's partial cell is empty, so ``lower`` reads
    # its prefix; at the median that is -inf
    lvals = log_values_at(scan.grid)

    # every window's grid argmax j is refined on [grid[j-1], grid[j+1]],
    # all in one lockstep search; the sup runs over (m, X]: never refine
    # past the horizon
    grid, hzn = scan.grid, np.array(horizons)
    ends = np.searchsorted(grid, hzn, side="right")
    js = np.array([int(np.argmax(lvals[lo:hi])) + lo for lo, hi in zip([1, *ends[:-1]], ends)])
    b = np.minimum(grid[np.minimum(js + 1, len(grid) - 1)], hzn)
    t_ref, v_ref = _section_max(log_values_at, grid[js - 1], b)
    refined = v_ref > lvals[js]
    log_sups, argmaxes = [], []
    best, best_t = -np.inf, float("nan")
    for v, t in zip(np.where(refined, v_ref, lvals[js]).tolist(), np.where(refined, t_ref, grid[js]).tolist()):
        if v > best:
            best, best_t = v, t
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


def _combine(measure, kind, r, horizons):
    row = KINDS[kind]
    if row.needs_r:
        _dual(r)
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
        res = replace(res, bracket=row.bracket(measure, horizons, res.sup, r))
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


def bmls(measure, r, horizons=DEFAULT_HORIZONS):
    """Two-level criterion with density power n^-(r-1).

    A bounded verdict runs a bp scan of the measure at the same horizons;
    when that is bounded too, the bracket carries the constructive upper
    constant 235 * (4 S_bp) + 2^(r'+1) * S.
    """
    return _combine(measure, "bmls", r, horizons)


def bweighted(measure, r, horizons=DEFAULT_HORIZONS):
    """Criterion for the weighted log-Sobolev inequality with weight
    (1 + |x|^(2-r)); requires an even measure."""
    return _combine(measure, "bweighted", r, horizons)


@dataclass(frozen=True)
class HypMlsResult:
    holds: bool
    worst_ratio: float
    arg: float
    eps: float
    unresolved_from: float  # the first grid point whose ratio is rounding, nearest the median; nan if none


# Largest rounding, 2 ulps of the larger of its two logs, that a hyp ratio
# may carry: from |log| = 2^32 (4.3e9) on, a ratio is left out of the minimum.
_HYP_LOG_ROUNDING = 1e-6


def hyp_mls_check(measure, r, eps, horizons=DEFAULT_HORIZONS):
    """Check n(x)^-(r-1) >= eps * int_m^x n^-(r-1) on the scan grid.

    Returns the smallest observed ratio and where it occurs.  For piecewise
    potentials the dips sit just before the jump points, so those points are
    added to the grid.  A ratio is exp of a difference of two logs near
    (r-1)V, which is rounding where they carry more than ``_HYP_LOG_ROUNDING``:
    those points are left out, and the first from the median is ``unresolved_from``.
    Raises DomainValidationError where no point is left.
    """
    _dual(r)
    if not 0.0 < eps < math.inf:
        raise DomainValidationError(f"eps must be finite and positive, got {eps}")
    horizons = _validate_horizons(horizons, measure.median)
    worst, arg, unresolved, reach = math.inf, math.nan, math.nan, math.inf
    for sign in (+1.0, -1.0):
        bps = measure.potential.side_breakpoints(sign)(sign * measure.median + 1e-9, horizons[-1])
        scan = _SideScan(measure, sign, horizons[-1], extra=[b - 1e-9 for b in bps])
        key, g = KINDS["bmls"].weight(scan, r)
        lg, lp = g(scan.grid[1:]), scan.weight_ladder(key, g).prefix[1:]
        resolved = 2.0 * np.spacing(np.maximum(np.abs(lg), np.abs(lp))) <= _HYP_LOG_ROUNDING
        with np.errstate(over="ignore"):  # an inf ratio is never the smallest
            ratio = np.where(resolved, np.exp(lg - lp), np.inf)
        j = int(np.argmin(ratio))
        if ratio[j] < worst:
            worst, arg = float(ratio[j]), float(sign * scan.grid[j + 1])
        k = int(np.argmin(resolved))
        if not resolved[k] and scan.grid[k + 1] - scan.grid[0] < reach:
            unresolved, reach = float(sign * scan.grid[k + 1]), scan.grid[k + 1] - scan.grid[0]
        if measure.is_even:
            break
    if math.isnan(arg):
        raise DomainValidationError(f"no hyp ratio is resolved: its logs carry rounding from x = {unresolved:.6g} on")
    return HypMlsResult(holds=bool(worst >= eps), worst_ratio=worst, arg=arg, eps=eps, unresolved_from=unresolved)


@dataclass(frozen=True)
class AsymptoticScans:
    x: np.ndarray
    br_ratio: np.ndarray  # V / V'^(r')
    weighted_ratio: np.ndarray  # V / (|x|^(2-r) V'^2)
    vpp_ratio: np.ndarray  # V'' / V'^2
    br_tail_max: float
    weighted_tail_max: float
    vpp_tail_max: float


def asymptotic_conditions(measure, r, horizons=DEFAULT_HORIZONS):
    """Derivative-based sufficient-condition diagnostics at the multiples of
    ``quad.GRID_STEP`` in (max(median, 0), X_end) and at X_end.

    Requires a potential with a derivative field; the three scans are the
    growth ratio V/V'^(r'), the weighted ratio V/(|x|^(2-r) V'^2), and the
    curvature ratio V''/V'^2 (V'' the tree's second symbolic derivative),
    each with the maximum over the tail window [X_end/2, X_end].
    """
    rp = _dual(r)
    pot = measure.potential
    if pot.derivative is None:
        raise DomainValidationError("asymptotic_conditions requires a derivative field")
    horizons = _validate_horizons(horizons, measure.median)
    x_end = horizons[-1]
    x = np.append(quad_mod.grid_steps(max(measure.median, 0.0), x_end), x_end)
    V = pot.value(x)
    Vp = pot.derivative(x)
    second = expr_mod.compile(expr_mod.diff(expr_mod.diff(pot.ast)))
    Vpp = expr_mod.evaluate(second, np.abs(x) if pot.even else x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # an inf power sends its ratio to 0
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


_THETA_CAP = 10.0  # tail_asymptotics flags a theta that reaches it


def _theta_scale(pot, x):
    """theta and its cap flag at the points ``x``: a 2,000-step scan of
    (0, _THETA_CAP] for the first step where V has climbed by 1, then 50
    bisection steps, each for up to 256 points at once (bounding memory)."""
    theta, capped = np.empty(len(x)), np.empty(len(x), dtype=bool)
    hs = np.linspace(0.0, _THETA_CAP, 2001)[1:]
    for rows in (slice(i, i + 256) for i in range(0, len(x), 256)):
        xr = x[rows]
        v0 = pot.value(xr) + 1.0
        vals = pot.value(xr[:, None] + hs)
        idx = np.argmax(vals >= v0[:, None], axis=1)
        capped[rows] = vals[np.arange(len(xr)), idx] < v0
        lo, hi = np.where(idx > 0, hs[idx - 1], 0.0), hs[idx]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            up = pot.value(xr + mid) >= v0
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        theta[rows] = np.where(capped[rows], _THETA_CAP, hi)
    return theta, capped


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
    if not (x.ndim == 1 and len(x) and np.all(np.isfinite(x))):
        raise DomainValidationError("x_grid must be finite and nonempty")
    theta, capped = _theta_scale(pot, x)
    r_deriv = np.full(len(x), np.nan)
    # tail / exp(-V(x)) overflows to inf where V climbs far faster than linearly
    with np.errstate(over="ignore"):
        scale = np.exp(msr.log_tail(measure, x) + measure.log_z + pot.value(x))
        r_theta = scale / theta
        if pot.derivative is not None:
            vp = pot.derivative(x)
            np.multiply(scale, vp, out=r_deriv, where=vp > 0)
    return TailScaleTable(x=x, theta=theta, capped=capped, ratio_theta=r_theta, ratio_deriv=r_deriv)
