"""Monte Carlo verification of product-measure concentration bounds.

Both experiments draw from mu^(0x)n with the counter-based Philox
generator in one ``measure.sample`` call (row i is draws i * n to
(i + 1) * n - 1 of the seed's one stream, filled in per-CPU slices, the
same draws for any CPU count, so results are bit-for-bit reproducible):
each raw 64-bit word is inverted through a guide table indexed by its top
16 bits, with no clip.  They reduce the draws to one value per row in
cache-sized blocks as they are made, and report their empirical tails with
99% binomial radii; the max statistic inverts only each row's largest word,
whose draw is the row's largest, bit for bit, since the inverse CDF is
nondecreasing in the word.  The gradient check runs on the same slices.
Deviation experiments tabulate two-sided empirical tails of a statistic
with known Lipschitz constants and compare them with the two-level bound

    2 exp(-1/2 min(t^2 / (C L2^2), t^r / (C^(r-1) L_{r,2}^r))).

Set-enlargement experiments use the two-level cost

    F_A(x) = inf_{a in A} sum_i min(|x_i - a_i|^2, |x_i - a_i|^r)

against the bound exp(-K t) with K = (1/32) min(1/C, 1/C^(r-1)); A is a
halfspace, where the cost is exact up to floating-point rounding (a
minimization over how the excess splits between the quadratic and the
power branch, checked against brute force in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measure as measure_mod
from .errors import DomainValidationError
from .functionals import _dual

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_ROW_BLOCK = 4096  # rows per block of the gradient check


@dataclass(frozen=True)
class ExperimentReport:
    measure_label: str
    n: int
    statistic: str
    count: int
    seed: int
    t_grid: tuple
    empirical_tail: tuple
    confidence: tuple  # 99% binomial radii (incl. centering-bias fold)
    bound_tail: tuple
    margins: tuple  # bound - (empirical + confidence)
    constants: dict = field(default_factory=dict)


def two_level_bound(C, r, A, B, t):
    """2 exp(-1/2 min(t^2/(C A^2), t^r/(C^(r-1) B^r))), capped at 1.

    A bounds the Euclidean gradient norm, B the (r', 2) mixed norm.
    """
    _check_constants(C, r, A, B)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # an exponent past the float range is inf: the bound is 0
        expo = 0.5 * np.minimum(t * t / (C * A * A), np.power(np.abs(t), r) / (C ** (r - 1.0) * B**r))
    out = np.minimum(2.0 * np.exp(-expo), 1.0)
    return float(out) if out.ndim == 0 else out


def _check_constants(C, r, A=1.0, B=1.0):
    if not (C > 0 and A > 0 and B > 0):
        raise DomainValidationError("C, A, B must be positive")
    _dual(r)


def _statistic(name, beta=None):
    """Statistic and its L_{r,2} Lipschitz constant as a function of (n, r);
    its Euclidean constant L2 is 1 for all three.  The max is
    ``measure.row_max``, which ``measure.sample`` recognises and computes
    from each row's largest raw word alone."""
    if name == "mean_scaled":  # L_{r,2} = n^(1/r' - 1/2)
        return lambda x: np.sum(x, axis=1) / math.sqrt(x.shape[1]), lambda n, r: n ** (1.0 - 1.0 / r - 0.5)
    if name == "max":
        return measure_mod.row_max, lambda n, r: 1.0
    if name == "softmax":
        if beta is None or not 0.0 < beta < math.inf:
            raise DomainValidationError("softmax statistic needs a finite beta > 0")

        def f(x):
            # log(mean(exp)), not log(sum(exp)): it drops the constant log(n) / beta,
            # which no deviation reads and which swamps the values' digits for a tiny beta
            m = np.max(x, axis=1, keepdims=True)
            w = x - m
            with np.errstate(over="ignore"):  # w <= 0 overflows only to -inf, whose expm1 is -1
                w *= beta
                return (m + np.log1p(np.mean(np.expm1(w, out=w), axis=1, keepdims=True)) / beta)[:, 0]

        return f, lambda n, r: 1.0
    raise DomainValidationError(f"unknown statistic {name!r}")


def _checked_grid(n, count, t_grid, C, r):
    _check_constants(C, r)
    if n < 1 or count < 1:
        raise DomainValidationError("n and count must be >= 1")
    t_grid = tuple(float(t) for t in t_grid)
    if not all(map(math.isfinite, t_grid)):
        raise DomainValidationError("t_grid must be finite")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise DomainValidationError("t_grid must be increasing")
    return t_grid


def _tail_report(measure, n, statistic, count, seed, t_grid, tails, bound, constants):
    """The report of the empirical ``tails`` against ``bound`` at ``t_grid``,
    with 99% binomial radii (the variance floored at 1/(4 count)) and the
    one-sided margins bound - (tail + radius)."""
    conf = tuple(_Z99 * math.sqrt(max(p * (1.0 - p), 0.25 / count) / count) for p in tails)
    margins = tuple(b - (e + c) for b, e, c in zip(bound, tails, conf))
    return ExperimentReport(measure.label, n, statistic, count, seed, t_grid, tuple(tails), conf, tuple(bound),
                            margins, constants)


def deviation_experiment(measure, n, statistic, t_grid, count, seed, C, r, beta=None):
    """Two-sided tails of a statistic of mu^(0x)n against the two-level bound
    with L2 = 1 and the statistic's L_{r,2}.

    Centering uses the empirical grand mean; its O(1/sqrt(count)) bias is
    folded into the tail conservatively by shifting the threshold down by
    the 99% standard error of the mean before counting exceedances.  Raises
    DomainValidationError for n or count below 1, a t_grid that does not
    increase, C <= 0 or r outside (1, 2), and a statistic whose values, mean
    or standard error is not finite.
    """
    t_grid = _checked_grid(n, count, t_grid, C, r)
    f, lr2_fn = _statistic(statistic, beta)
    values = measure_mod.sample(measure, seed, count, n, f)
    # an overflow, or a value that is not finite, leaves the mean or its error not finite
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        se_mean = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se_mean)):
        raise DomainValidationError("the statistic, its mean or its standard error is not finite")
    dev = np.abs(values - mean)
    shift = _Z99 * se_mean
    tails = [float(np.mean(dev >= max(t - shift, 0.0))) for t in t_grid]
    lr2 = lr2_fn(n, r)
    bound = [float(two_level_bound(C, r, 1.0, lr2, t)) for t in t_grid]
    label = f"softmax({beta:g})" if statistic == "softmax" else statistic
    constants = {"C": C, "r": r, "L2": 1.0, "Lr2": lr2, "mean": mean, "se_mean": se_mean}
    return _tail_report(measure, n, label, count, seed, t_grid, tails, bound, constants)


# ---------------------------------------------------------------------------
# two-level enlargement costs
# ---------------------------------------------------------------------------


def g_cost(x, r):
    """sum_i min(x_i^2, |x_i|^r) for a point or batch of points."""
    out = _abs_cost(np.abs(np.atleast_2d(np.asarray(x, dtype=float))), r)
    return float(out[0]) if out.shape == (1,) else out


def _abs_cost(a, r):
    """sum_i min(a_i^2, a_i^r) of the rows of a = |x|, which is left as it is."""
    with np.errstate(over="ignore"):  # a cost past the float range is inf
        sq = a * a  # the in-place minimum keeps two batch-sized temporaries, not three
        return np.sum(np.minimum(sq, np.power(a, r), out=sq), axis=1)


def _halfspace_cost(s, n, r):
    """Exact F_A for the halfspace sum <= c from the excesses s = (sum x - c)+
    of rows x in R^n, up to floating-point rounding.

    The minimizer moves mass only downward with total s, so
    F_A(x) = min { sum_i phi(d_i) : d >= 0, sum d = s } with
    phi(d) = min(d^2, d^r).  Both branches of phi are convex, hence within
    the class of coordinates above 1 (paying d^r) and within the class below
    1 (paying d^2) an even split is optimal.  Enumerating the power-class
    size k and minimizing the convex one-dimensional class-mass split
    g(m) = k (m/k)^r + (s-m)^2/(n-k) over m in [max(k, s-(n-k)), s] is
    therefore exact; tests compare it with a brute-force minimization.

    g'(m) is concave and increasing, so Newton on g'(m) = 0 started at the
    left end of the interval climbs monotonically to the root (or stays put
    when g' >= 0 there) and never overshoots.  A row whose step does not
    move it (or makes it nan) would stay put from then on, so each step
    runs only on the rows that still move.  A cost past the float range is
    inf, with no warning.
    """
    with np.errstate(over="ignore"):
        best = np.where(s <= n, s * s / n, np.inf)  # k = 0: all in the quadratic branch
        rows = np.flatnonzero((s > 0.0) & (s < np.inf))  # s = inf keeps cost inf
        for k in range(1, n + 1):
            rows = rows[s[rows] >= k]  # k power coords at >= 1 need s >= k
            if len(rows) == 0:
                break
            sk = s[rows]
            nq = n - k
            if nq == 0:
                cost = k * np.power(sk / k, r)
            else:
                m = np.maximum(float(k), sk - nq)  # quad coords at <= 1
                live, ml, sl = np.arange(len(m)), m, sk
                while len(live):
                    p = np.power(ml / k, r - 1.0)
                    gp = r * p - 2.0 * (sl - ml) / nq
                    gpp = r * (r - 1.0) * p / ml + 2.0 / nq
                    m_next = np.clip(ml - gp / gpp, ml, sl)
                    moved = m_next > ml  # False for a nan step
                    m[live] = m_next
                    live, ml, sl = live[moved], m_next[moved], sl[moved]
                cost = k * np.power(m / k, r) + np.square(sk - m) / nq
            best[rows] = np.minimum(best[rows], cost)
    return np.where(s > 0.0, best, 0.0)


def enlargement_experiment(measure, n, t_grid, count, seed, C, r):
    """Empirical tail of F_A versus exp(-K t), A the halfspace at the
    empirical median of the coordinate sum (so mu^(0x)n(A) >= 1/2 up to
    Monte Carlo error).  F_A depends on a row only through its sum, so only
    the sums are kept.  The input checks, radii and margins are those of
    ``deviation_experiment``."""
    t_grid = _checked_grid(n, count, t_grid, C, r)
    sums = measure_mod.sample(measure, seed, count, n, lambda x: np.sum(x, axis=1))
    c = float(np.median(sums))
    costs = _halfspace_cost(np.maximum(sums - c, 0.0), n, r)
    K = (1.0 / 32.0) * min(1.0 / C, 1.0 / C ** (r - 1.0))
    # strict exceedance: F_A has an atom of mass ~1/2 at 0, so this makes the
    # t = 0 entry the complement of the base set rather than the constant 1
    tails = [float(np.mean(costs > t)) for t in t_grid]
    bound = [math.exp(-K * t) for t in t_grid]
    constants = {"C": C, "r": r, "K": K, "halfspace_c": c}
    return _tail_report(measure, n, "enlargement_cost", count, seed, t_grid, tails, bound, constants)


def lipschitz_gradient_check(r, t, count, seed, box, n):
    """Worst gradient-budget ratios for the clipped cost min(G, t).

    Draws ``count`` points in the cube [-box, box]^n (radially thinned so
    small costs are well represented), keeps those with G(x) < t, and at
    each computes the exact a.e. gradient of G:

        dG_i = 2 x_i            when |x_i| < 1,
        dG_i = r sgn(x_i) |x_i|^(r-1)   when |x_i| > 1.

    Returns (max sum dG_i^2 / (4t), max sum |dG_i|^r' / (2^r' t), accepted),
    both ratios provably <= 1, the second read as sum (|dG_i| / 2)^r' / t
    where 2^r' t is past the float range (r near 1).  The count * n
    coordinates are the first draws of the seed's Philox stream and the
    count radial scales the next ones.  ``measure._on_slices`` cuts the
    points into per-CPU slices on threads; a slice positions a cursor for
    its coordinates and one for its scales with ``measure._stream`` and
    processes its points in blocks of ``_ROW_BLOCK`` rows, so nothing of
    size count is held.  Every value of a point depends on that point alone,
    and the slices' results combine by max and by sum, so the result is the
    same for any CPU count.
    """
    rp = _dual(r)
    if not (0.0 < t < math.inf and 0.0 < box < math.inf):
        raise DomainValidationError("t and box must be finite and positive")
    if n < 1 or count < 1:
        raise DomainValidationError("n and count must be >= 1")
    key = measure_mod._stream_key(seed)
    scale = 2.0**rp * t if rp < 1024.0 else math.inf  # 2^r' overflows from r' = 1024 on

    def check(start, stop):
        coords, scales = measure_mod._stream(key, start * n), measure_mod._stream(key, count * n + start)
        ratio_sq = ratio_rp = -math.inf
        accepted = 0
        for a in range(start, stop, _ROW_BLOCK):
            rows = min(_ROW_BLOCK, stop - a)
            block = coords.uniform(-1.0, 1.0, size=(rows, n))
            block *= box * scales.uniform(0.0, 1.0, size=(rows, 1))
            np.abs(block, out=block)  # every value below reads |x| alone
            kept = block[_abs_cost(block, r) < t]
            kept = kept[np.all(np.abs(kept - 1.0) > 1e-12, axis=1)]  # off the kinks of G
            if len(kept) == 0:
                continue
            grad, big = 2.0 * kept, kept >= 1.0
            grad[big] = r * np.power(kept[big], r - 1.0)
            ratio_sq = max(ratio_sq, float(np.max(np.sum(grad * grad, axis=1) / (4.0 * t))))
            sums = (np.sum(np.power(grad, rp), axis=1) / scale if scale < math.inf
                    else np.sum(np.power(0.5 * grad, rp), axis=1) / t)
            ratio_rp = max(ratio_rp, float(np.max(sums)))
            accepted += len(kept)
        return ratio_sq, ratio_rp, accepted

    ratios_sq, ratios_rp, accepted = zip(*measure_mod._on_slices(count, n, check))
    if sum(accepted) == 0:
        raise DomainValidationError("no sampled points satisfied G(x) < t; shrink the box")
    return max(ratios_sq), max(ratios_rp), sum(accepted)


def transport_check(measure, alpha):
    """Quantile-growth condition for the two-level transport inequality.

    Over all pairs of the grid linspace(-40, 40, 400), computes the infimum of

        (1 + |N(|x|) sgn x - N(|y|) sgn y|) / |x - y|^alpha,

    with N the exponential-reparameterization profile of the even measure.
    A strictly positive infimum (reported with its witness pair) is the
    numerical content of the condition.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainValidationError("alpha must lie in (1, 2]")
    if not measure.is_even:
        raise DomainValidationError("transport_check requires an even measure")
    x = np.linspace(-40.0, 40.0, 400)
    mags = np.unique(np.abs(x))
    n_of = dict(zip(mags.tolist(), measure_mod.n_profile(measure, mags).tolist()))
    signed_n = np.array([math.copysign(n_of[abs(v)], v) if v != 0 else 0.0 for v in x])
    ii, jj = np.triu_indices(len(x), k=1)
    dn = np.abs(signed_n[ii] - signed_n[jj])
    dx = np.abs(x[ii] - x[jj])
    ratios = (1.0 + dn) / np.power(dx, alpha)
    k = int(np.argmin(ratios))
    return {
        "b_alpha_inf": float(ratios[k]),
        "witness": (float(x[ii[k]]), float(x[jj[k]])),
        "alpha": float(alpha),
        "grid_size": int(len(x)),
    }
