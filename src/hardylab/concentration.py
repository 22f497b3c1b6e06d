"""Monte Carlo verification of product-measure concentration bounds.

Deviation experiments draw from mu^(0x)n with the counter-based Philox
generator (disjoint jumped streams per batch, merged in fixed batch order;
each batch is filled in per-CPU slices of its stream, the same draws for
any CPU count, so results are bit-for-bit reproducible), hold one batch at
a time, tabulate two-sided empirical tails of a statistic with known
Lipschitz constants, and compare them with the two-level bound

    2 exp(-1/2 min(t^2 / (C L2^2), t^r / (C^(r-1) L_{r,2}^r))).

Set-enlargement experiments use the two-level cost

    F_A(x) = inf_{a in A} sum_i min(|x_i - a_i|^2, |x_i - a_i|^r)

against the bound exp(-K t) with K = (1/32) min(1/C, 1/C^(r-1)); for a
halfspace A the cost is exact up to floating-point rounding (a minimization
over how the excess splits between the quadratic and the power branch,
checked against brute force in the tests).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import measure as measure_mod
from .errors import DomainValidationError

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_BATCH = 50_000
_SOFTMAX_ROWS = 4096


@dataclass(frozen=True)
class Halfspace:
    """A = { x : sum_i x_i <= c }."""

    c: float


@dataclass(frozen=True)
class PointSet:
    points: tuple  # tuple of n-vectors


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

    def to_json(self):
        return json.dumps(
            {
                "measure": self.measure_label,
                "n": self.n,
                "statistic": self.statistic,
                "count": self.count,
                "seed": self.seed,
                "t_grid": list(self.t_grid),
                "empirical_tail": list(self.empirical_tail),
                "confidence": list(self.confidence),
                "bound_tail": list(self.bound_tail),
                "margins": list(self.margins),
                "constants": self.constants,
            },
            indent=2,
        )

    def to_csv(self, basepath):
        """Write (t, tail) curves: <basepath>_empirical.csv and <basepath>_bound.csv."""
        paths = []
        for name, ys in (("empirical", self.empirical_tail), ("bound", self.bound_tail)):
            path = f"{basepath}_{name}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t", "tail"])
                w.writerows(zip(self.t_grid, ys))
            paths.append(path)
        return paths


def two_level_bound(C, r, A, B, t):
    """2 exp(-1/2 min(t^2/(C A^2), t^r/(C^(r-1) B^r))), capped at 1.

    A bounds the Euclidean gradient norm, B the (r', 2) mixed norm.
    """
    if not (C > 0 and A > 0 and B > 0):
        raise DomainValidationError("C, A, B must be positive")
    if not 1.0 < r < 2.0:
        raise DomainValidationError("r must lie in (1, 2)")
    t = np.asarray(t, dtype=float)
    expo = 0.5 * np.minimum(t * t / (C * A * A), np.power(np.abs(t), r) / (C ** (r - 1.0) * B**r))
    out = np.minimum(2.0 * np.exp(-expo), 1.0)
    return float(out) if out.ndim == 0 else out


def _statistic(name, beta=None):
    """Statistic and its (L2, L_{r,2}) Lipschitz constants as functions of (n, r)."""
    if name == "mean_scaled":
        return (
            lambda x: np.sum(x, axis=1) / math.sqrt(x.shape[1]),
            lambda n, r: 1.0,
            lambda n, r: n ** (1.0 - 1.0 / r - 0.5),  # n^(1/r' - 1/2)
        )
    if name == "max":
        return (lambda x: np.max(x, axis=1), lambda n, r: 1.0, lambda n, r: 1.0)
    if name == "softmax":
        if beta is None or beta <= 0:
            raise DomainValidationError("softmax statistic needs beta > 0")

        def f(x):
            # row blocks keep the temporaries small; each row's value is the
            # one-shot formula's, bit for bit
            out = np.empty(x.shape[0])
            for a in range(0, x.shape[0], _SOFTMAX_ROWS):
                block = x[a : a + _SOFTMAX_ROWS]
                m = np.max(block, axis=1, keepdims=True)
                w = block - m
                w *= beta
                out[a : a + len(block)] = (m + np.log(np.sum(np.exp(w, out=w), axis=1, keepdims=True)) / beta)[:, 0]
            return out

        return (f, lambda n, r: 1.0, lambda n, r: 1.0)
    raise DomainValidationError(f"unknown statistic {name!r}")


def _batched_samples(measure, n, count, seed):
    """Yield samples[batch, n]; fixed batch size, one jumped stream per batch."""
    done = 0
    batch_index = 0
    while done < count:
        take = min(_BATCH, count - done)
        # no local holds a batch while the next one is drawn
        yield measure_mod.sample(measure, seed, take * n, _batch_index=batch_index).reshape(take, n)
        done += take
        batch_index += 1


def deviation_experiment(measure, n, statistic, t_grid, count, seed, C, r, beta=None):
    """Two-sided tails of a statistic of mu^(0x)n against the two-level bound.

    Centering uses the empirical grand mean; its O(1/sqrt(count)) bias is
    folded into the tail conservatively by shifting the threshold down by
    the 99% standard error of the mean before counting exceedances.
    """
    if n < 1 or count < 1:
        raise DomainValidationError("n and count must be >= 1")
    t_grid = tuple(float(t) for t in t_grid)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise DomainValidationError("t_grid must be increasing")
    f, l2_fn, lr2_fn = _statistic(statistic, beta)
    values = np.empty(count)
    pos = 0
    for batch in _batched_samples(measure, n, count, seed):
        values[pos : pos + len(batch)] = f(batch)
        pos += len(batch)
        del batch  # freed before the next batch is drawn
    mean = float(values.mean())
    se_mean = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    dev = np.abs(values - mean)
    shift = _Z99 * se_mean
    emp, conf = [], []
    for t in t_grid:
        p = float(np.mean(dev >= max(t - shift, 0.0)))
        emp.append(p)
        conf.append(_Z99 * math.sqrt(max(p * (1.0 - p), 0.25 / count) / count))
    l2, lr2 = l2_fn(n, r), lr2_fn(n, r)
    bound = [float(two_level_bound(C, r, l2, lr2, t)) for t in t_grid]
    margins = [b - (e + c) for b, e, c in zip(bound, emp, conf)]
    return ExperimentReport(
        measure_label=measure.label,
        n=n,
        statistic=statistic if beta is None else f"softmax({beta:g})",
        count=count,
        seed=seed,
        t_grid=t_grid,
        empirical_tail=tuple(emp),
        confidence=tuple(conf),
        bound_tail=tuple(bound),
        margins=tuple(margins),
        constants={"C": C, "r": r, "L2": l2, "Lr2": lr2, "mean": mean, "se_mean": se_mean},
    )


# ---------------------------------------------------------------------------
# two-level enlargement costs
# ---------------------------------------------------------------------------


def g_cost(x, r):
    """sum_i min(x_i^2, |x_i|^r) for a point or batch of points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.abs(x)
    sq = a * a  # the in-place ufuncs below keep two batch-sized temporaries, not four
    out = np.sum(np.minimum(sq, np.power(a, r, out=a), out=sq), axis=1)
    return float(out[0]) if out.shape == (1,) else out


def _halfspace_cost(x, c, r):
    """Exact F_A for the halfspace sum <= c (vectorized over rows), up to
    floating-point rounding.

    The minimizer moves mass only downward with total s = (sum x - c)+, so
    F_A(x) = min { sum_i phi(d_i) : d >= 0, sum d = s } with
    phi(d) = min(d^2, d^r).  Both branches of phi are convex, hence within
    the class of coordinates above 1 (paying d^r) and within the class below
    1 (paying d^2) an even split is optimal.  Enumerating the power-class
    size k and minimizing the convex one-dimensional class-mass split
    g(m) = k (m/k)^r + (s-m)^2/(n-k) over m in [max(k, s-(n-k)), s] is
    therefore exact; tests compare it with a brute-force minimization.

    g'(m) is concave and increasing, so Newton on g'(m) = 0 started at the
    left end of the interval climbs monotonically to the root (or stays put
    when g' >= 0 there) and never overshoots; it stops once no row moves.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[1]
    s = np.maximum(np.sum(x, axis=1) - c, 0.0)
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
            while True:
                p = np.power(m / k, r - 1.0)
                gp = r * p - 2.0 * (sk - m) / nq
                gpp = r * (r - 1.0) * p / m + 2.0 / nq
                m_next = np.clip(m - gp / gpp, m, sk)
                if np.array_equal(m_next, m, equal_nan=True):  # nan rows stop too
                    break
                m = m_next
            cost = k * np.power(m / k, r) + np.square(sk - m) / nq
        best[rows] = np.minimum(best[rows], cost)
    return np.where(s > 0.0, best, 0.0)


def f_a_cost(x, A, r):
    """Two-level transport cost to the set A.

    Finite point sets are handled by exact brute force; halfspaces by the
    class-split minimization of _halfspace_cost, exact up to rounding.
    """
    if not 1.0 < r < 2.0:
        raise DomainValidationError("r must lie in (1, 2)")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    single = x.shape[0] == 1
    if isinstance(A, Halfspace):
        out = _halfspace_cost(x, A.c, r)
    elif isinstance(A, PointSet):
        pts = np.asarray(A.points, dtype=float)
        if pts.size == 0:
            raise DomainValidationError("empty point set")
        pts = np.atleast_2d(pts)
        d = np.abs(x[:, None, :] - pts[None, :, :])
        out = np.min(np.sum(np.minimum(d * d, np.power(d, r)), axis=2), axis=1)
    else:
        raise DomainValidationError("A must be a Halfspace or a PointSet")
    return float(out[0]) if single else out


def enlargement_experiment(measure, n, t_grid, count, seed, C, r):
    """Empirical tail of F_A versus exp(-K t), A the halfspace at the
    empirical median of the coordinate sum (so mu^(0x)n(A) >= 1/2 up to
    Monte Carlo error).  One-sided margins carry 99% binomial radii."""
    if n < 1 or count < 1:
        raise DomainValidationError("n and count must be >= 1")
    t_grid = tuple(float(t) for t in t_grid)
    samples = np.empty((count, n))
    pos = 0
    for batch in _batched_samples(measure, n, count, seed):
        samples[pos : pos + len(batch)] = batch
        pos += len(batch)
        del batch  # freed before the next batch is drawn
    sums = samples.sum(axis=1)
    c = float(np.median(sums))
    costs = _halfspace_cost(samples, c, r)
    K = (1.0 / 32.0) * min(1.0 / C, 1.0 / C ** (r - 1.0))
    emp, conf, bound = [], [], []
    # strict exceedance: F_A has an atom of mass ~1/2 at 0, so this makes the
    # t = 0 entry the complement of the base set rather than the constant 1
    for t in t_grid:
        p = float(np.mean(costs > t))
        emp.append(p)
        conf.append(_Z99 * math.sqrt(max(p * (1.0 - p), 0.25 / count) / count))
        bound.append(math.exp(-K * t))
    margins = [b - (e + cf) for b, e, cf in zip(bound, emp, conf)]
    return ExperimentReport(
        measure_label=measure.label,
        n=n,
        statistic="enlargement_cost",
        count=count,
        seed=seed,
        t_grid=t_grid,
        empirical_tail=tuple(emp),
        confidence=tuple(conf),
        bound_tail=tuple(bound),
        margins=tuple(margins),
        constants={"C": C, "r": r, "K": K, "halfspace_c": c},
    )


def lipschitz_gradient_check(r, t, count, seed, box, n=8):
    """Worst gradient-budget ratios for the clipped cost min(G, t).

    Draws ``count`` points in the cube [-box, box]^n (radially thinned so
    small costs are well represented), keeps those with G(x) < t, and at
    each computes the exact a.e. gradient of G:

        dG_i = 2 x_i            when |x_i| < 1,
        dG_i = r sgn(x_i) |x_i|^(r-1)   when |x_i| > 1.

    Returns (max sum dG_i^2 / (4t), max sum |dG_i|^r' / (2^r' t), accepted),
    both ratios provably <= 1.
    """
    if not 1.0 < r < 2.0:
        raise DomainValidationError("r must lie in (1, 2)")
    if t <= 0 or box <= 0:
        raise DomainValidationError("t and box must be positive")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x = rng.uniform(-1.0, 1.0, size=(count, n))
    scale = rng.uniform(0.0, 1.0, size=(count, 1))
    x *= box * scale
    G = g_cost(x, r)
    keep = (G < t) & np.all(np.abs(np.abs(x) - 1.0) > 1e-12, axis=1)
    x = x[keep]
    if len(x) == 0:
        raise DomainValidationError("no sampled points satisfied G(x) < t; shrink the box")
    a = np.abs(x)
    grad = np.where(a < 1.0, 2.0 * a, r * np.power(a, r - 1.0))
    rp = r / (r - 1.0)
    ratio_sq = float(np.max(np.sum(grad * grad, axis=1) / (4.0 * t)))
    ratio_rp = float(np.max(np.sum(np.power(grad, rp), axis=1) / (2.0**rp * t)))
    return ratio_sq, ratio_rp, int(len(x))


def transport_check(measure, alpha, x_grid=None):
    """Quantile-growth condition for the two-level transport inequality.

    Over all pairs of a symmetric grid, computes the infimum of

        (1 + |N(|x|) sgn x - N(|y|) sgn y|) / |x - y|^alpha,

    with N the exponential-reparameterization profile of the even measure.
    A strictly positive infimum (reported with its witness pair) is the
    numerical content of the condition.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainValidationError("alpha must lie in (1, 2]")
    if not measure.is_even:
        raise DomainValidationError("transport_check requires an even measure")
    if x_grid is None:
        x_grid = np.linspace(-40.0, 40.0, 400)
    x = np.unique(np.asarray(x_grid, dtype=float))
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
