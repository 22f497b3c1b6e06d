"""Workload plans and reference checks for the hardylab benchmark.

A plan is the operation list of one run.  Each workload is a list of strata;
a stratum fixes the command, the potential and the kind, and appears once per
round, with the number of rounds fixed by the run length.  The seed chooses
only the free parameters inside each stratum and the order of the operations
within each round, so cost and failure counts stay comparable across seeds.
Every operation is an argv for ``hardylab.cli.run``, except the 401-point
Legendre conjugate, which has no CLI form and calls
``functionals.legendre_numeric`` as the ``legendre-closed-form`` scenario does.

Each operation carries reference checks against closed forms, the paper's
verdict table (as encoded by the ``repro`` scenarios) and the scenario
tolerances.  Checks marked ``known_defect`` fail at the commit that defined
the benchmark for a reason recorded in ROADMAP item 3; they still count as
failed operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Constructive modified log-Sobolev constant for mu15 (power:1.5, r = 1.5):
# scenarios._constructive_constant("mu15", 1.5) = 235 * 4 S_bp + 2^(r'+1) S_bmls,
# evaluated once when the benchmark was defined and kept fixed here so that
# the montecarlo workload runs no criterion scan.
C_MU15 = 328.36
MC_R = 1.5

LEGENDRE_T = np.linspace(-20.0, 20.0, 401)
# s-grid of step 2e-4 on [-12, 12]: the kinks of H at |s| = 1 lie on the grid,
# the error stays under 1e-6 for r' in [2.5, 8], and one conjugate costs about
# as much as a spectral gap.  Its 401 x s_steps temporaries are faulted in
# afresh on every call; at step 1e-4 they took 1.5 GB and twice the cost of
# back-to-back calls, and their varying cost made the runs noisy.
LEGENDRE_S_RANGE = (-12.0, 12.0)
LEGENDRE_S_STEPS = 120_001

QUANTILE_DEFECT = "ROADMAP item 3 (quantiles): root-find on the linear CDF loses x accuracy for p <= 1e-9"
VERDICT_DEFECT = "ROADMAP item 3 (verdicts): classify reads exponential divergence as inconclusive"
STEPWISE_DEFECT = "verdicts (ROADMAP item 3 family): stepwise bmls partial sups on nu2 just above r0 read as inconclusive"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def exp_tail(x):
    """mu([x, inf)) for V = |x|, x >= 0."""
    return 0.5 * math.exp(-x)


def gauss_tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def exp_quantile(p):
    return math.log(2.0 * p) if p < 0.5 else -math.log(2.0 * (1.0 - p))


def gauss_quantile(p):
    """Inverse standard normal CDF by Newton steps on log Phi."""
    if p > 0.5:
        return -gauss_quantile(1.0 - p)
    target = math.log(p)
    x = -math.sqrt(-2.0 * target) if p < 0.3 else 0.0
    for _ in range(100):
        log_phi = math.log(0.5 * math.erfc(-x / math.sqrt(2.0)))
        log_dens = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
        step = (log_phi - target) / math.exp(log_dens - log_phi)
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def power_log_z(a):
    """log int exp(-|x|^a) dx = log(2 Gamma(1 + 1/a))."""
    return math.log(2.0) + math.lgamma(1.0 + 1.0 / a)


def h_star(rp, t):
    """Conjugate of max(t^2, |t|^r'): t^2/4, then |t| - 1, then (|t|/r')^r/(r-1)."""
    r = rp / (rp - 1.0)
    a = np.abs(np.asarray(t, dtype=float))
    return np.where(a <= 2.0, 0.25 * a * a, np.where(a <= rp, a - 1.0, np.power(a / rp, r) / (r - 1.0)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def row(rows, name):
    for entry in rows:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


@dataclass(frozen=True)
class Check:
    name: str
    reference: str  # printable reference
    read: Callable  # report rows -> returned value
    accept: Callable  # returned value -> bool
    known_defect: str = ""

    def run(self, rows):
        """(passed, returned value) for one report."""
        try:
            got = self.read(rows)
        except (KeyError, IndexError, TypeError) as e:
            return False, f"unreadable ({type(e).__name__}: {e})"
        try:
            return bool(self.accept(got)), got
        except (TypeError, ValueError):
            return False, got


def near(name, row_name, ref, tol, rel=False, index=None, known_defect=""):
    """|returned - ref| <= tol (times |ref| when rel)."""

    def read(rows):
        v = row(rows, row_name)["value"]
        return v[index] if index is not None else v

    bound = tol * abs(ref) if rel else tol
    return Check(name, f"{ref!r} +- {bound:.3g}", read, lambda v: abs(v - ref) <= bound, known_defect)


def verdict(name, row_name, ref, known_defect=""):
    return Check(name, ref, lambda rows: row(rows, row_name)["verdict"], lambda v: v == ref, known_defect)


def at_most(name, row_name, bound):
    return Check(name, f"<= {bound!r}", lambda rows: row(rows, row_name)["value"], lambda v: v <= bound)


def all_at_least(name, row_name, bound):
    return Check(name, f"all >= {bound!r}", lambda rows: row(rows, row_name)["value"], lambda v: min(v) >= bound)


# ---------------------------------------------------------------------------
# operations and strata
# ---------------------------------------------------------------------------

LEGENDRE = "legendre-numeric"  # argv[0] of the one non-CLI operation


@dataclass(frozen=True)
class Op:
    id: int
    stratum: str
    argv: tuple  # hardylab CLI argv, or (LEGENDRE, r') for the conjugate
    checks: tuple = ()

    def label(self):
        if self.argv[0] == LEGENDRE:
            return (f"functionals.legendre_numeric(h(r'={self.argv[1]}), t=linspace(-20, 20, 401), "
                    f"s_range={LEGENDRE_S_RANGE}, s_steps={LEGENDRE_S_STEPS})")
        return "hardylab " + " ".join(self.argv)


@dataclass(frozen=True)
class Stratum:
    name: str
    make: Callable  # rng -> (argv, checks)


def _u(rng, lo, hi, digits=3):
    return round(rng.uniform(lo, hi), digits)


def _logu(rng, lo, hi):
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.4g}")


def _fixed(argv, checks=()):
    return lambda rng: (tuple(argv), tuple(checks))


def _criteria(potential, kind, *extra):
    return ("criteria", "--potential", potential, "--kind", kind, *extra)


def _scan_row(kind):
    return f"{kind} partial sups"


# -- scan ---------------------------------------------------------------------


def _blo_power(rng):
    a, r = _u(rng, 1.2, 2.0), _u(rng, 1.1, 1.9)
    return _criteria(f"power:{a}", "blo", "--r", str(r)), ()


def _bmls_nu2(lo, hi, known_defect=""):
    """bmls on nu2 above r0 = 1.2, where the paper's table (threshold-alpha2) is divergent.

    At the commit that defined the benchmark, r in [1.25, 1.28] gives stepwise
    partial sups (log S up 0.5 per two horizon doublings) that classify reads
    as inconclusive; from r = 1.29 on the verdict is divergent.
    """

    def make(rng):
        r = _u(rng, lo, hi)
        return _criteria("sinpower:2,1", "bmls", "--r", str(r)), (
            verdict(f"bmls r={r} above r0=1.2 divergent", _scan_row("bmls"), "divergent", known_defect),
        )

    return make


def _bweighted_nu15(rng):
    return _criteria("sinpower:1.5,1", "bweighted", "--r", str(_u(rng, 1.2, 1.8))), ()


def _hyp_cattiaux(rng):
    return _criteria("cattiaux:1.5,1.9", "hyp", "--r", str(_u(rng, 1.2, 1.8)), "--eps", str(_u(rng, 0.05, 0.2))), ()


def _blo_floor(rng):
    r = _u(rng, 1.2, 1.8)
    return _criteria("floor", "blo", "--r", str(r)), (
        verdict(f"floor blo r={r} divergent", _scan_row("blo"), "divergent"),
    )


def _blo_expr(rng):
    return _criteria("expr:x^2/2+sin(x)", "blo", "--r", str(_u(rng, 1.1, 1.9))), ()


def _distinct(rng, lo, hi, k):
    vals = set()
    while len(vals) < k:
        vals.add(_u(rng, lo, hi))
    return sorted(vals)


def _sweep(alpha):
    """threshold-scan over six r, three on each side of r0 = 3a/(2a+1).

    The paper's verdict table is bounded below r0 and divergent above.  No r
    is drawn within 0.05 of r0, where the growth exponent goes to 0;
    threshold-alpha2 probes r0 - 0.05 and r0 + 0.10.
    """
    r0 = 3.0 * alpha / (2.0 * alpha + 1.0)

    def make(rng):
        rs = _distinct(rng, 1.01, r0 - 0.05, 3) + _distinct(rng, r0 + 0.05, 1.9, 3)
        checks = tuple(
            verdict(f"alpha={alpha:g} r={r:g} {v}", f"blo(alpha={alpha:g}, r={r:g})", v)
            for r, v in ((r, "bounded" if r < r0 else "divergent") for r in rs)
        )
        return ("threshold-scan", "--alphas", f"{alpha:g}", "--rs", ",".join(f"{r:g}" for r in rs)), checks

    return make


SCAN = (
    Stratum("bp-exp", _fixed(_criteria("exp", "bp"), (
        near("S_bp(exp) = 1 +- 0.01", _scan_row("bp"), 1.0, 0.01, index=-1),
        verdict("exp bp bounded", _scan_row("bp"), "bounded"),
    ))),
    Stratum("bls-gaussian", _fixed(_criteria("gaussian", "bls"), (
        verdict("gaussian bls bounded", _scan_row("bls"), "bounded"),
    ))),
    Stratum("blo-power", _blo_power),
    Stratum("bmls-nu2", _bmls_nu2(1.30, 1.6)),
    Stratum("bmls-nu2-near", _bmls_nu2(1.25, 1.28, STEPWISE_DEFECT)),
    Stratum("bweighted-nu15", _bweighted_nu15),
    Stratum("hyp-cattiaux", _hyp_cattiaux),
    Stratum("bweighted-cattiaux", _fixed(_criteria("cattiaux:1.5,1.9", "bweighted", "--r", "1.5"), (
        verdict("cattiaux bweighted r=1.5 divergent", _scan_row("bweighted"), "divergent"),
    ))),
    Stratum("bp-nu22", _fixed(_criteria("sinpower:2,2", "bp"), (
        verdict("nu22 bp divergent at default horizons", _scan_row("bp"), "divergent", VERDICT_DEFECT),
    ))),
    Stratum("bp-floor", _fixed(_criteria("floor", "bp"), (
        verdict("floor bp bounded", _scan_row("bp"), "bounded"),
    ))),
    Stratum("blo-floor", _blo_floor),
    Stratum("bp-expr-uneven", _fixed(_criteria("expr:abs(x)^1.5+0.5*x", "bp"))),
    Stratum("blo-expr-osc", _blo_expr),
    Stratum("sweep-a2", _sweep(2.0)),
)


# -- certify ------------------------------------------------------------------


def _spectral(potential, *extra):
    return ("spectral", "--potential", potential, *extra)


def _gap_floor_check(expect_gap):
    def read(rows):
        return row(rows, "gap")["value"], row(rows, "gap resolution floor")["value"]

    if expect_gap:
        return Check("gap above resolution floor", "gap > floor", read, lambda v: v[0] > v[1])
    return Check("gap at or under resolution floor", "gap <= floor", read, lambda v: v[0] <= v[1])


def _evaluate(potential, f, kind, *extra):
    return ("evaluate", "--potential", potential, "--f", f, "--kind", kind, *extra)


def _sane():
    return Check("finite lhs >= 0 and energy > 0", "finite, lhs >= 0, rhs > 0",
                 lambda rows: (row(rows, "lhs")["value"], row(rows, "rhs energy")["value"]),
                 lambda v: math.isfinite(v[0]) and math.isfinite(v[1]) and v[0] >= 0.0 and v[1] > 0.0)


def _eval_poincare(rng):
    b = _u(rng, 0.0, 0.1)
    return _evaluate("exp", f"x+{b}*x^3", "poincare"), (
        _sane(), at_most("Var/energy <= C_P(exp) = 4", "ratio", 4.0))


def _eval_lsi(rng):
    b = _u(rng, 0.0, 0.2)
    return _evaluate("gaussian", f"x+{b}*x^3", "lsi"), (
        _sane(), at_most("Ent/energy <= C_LS(gaussian) = 2", "ratio", 2.0))


def lo_lhs_exp(a, r):
    """lo_lhs(f = a x) under exp on its documented grid theta_j = 2 - 2^-j.

    With E|x|^theta = Gamma(theta + 1), the grid value is
    a^2 (2 - Gamma(theta + 1)^(2/theta)) / (2 - theta)^(2(1 - 1/r)); for
    r = 1.01 its maximum is at theta_1 = 1.5, the first grid point, where no
    parabolic refinement applies.
    """
    theta = 1.5
    return a * a * (2.0 - math.gamma(theta + 1.0) ** (2.0 / theta)) / (2.0 - theta) ** (2.0 * (1.0 - 1.0 / r))


def _eval_lo(rng):
    # The criteria-ordering check "lo_lhs(r = 1.01, x) within 5% of Var" is a
    # strict xfail of the test suite (unattainable as stated), so the
    # reference here is the closed form on the lo_lhs grid.
    a = _u(rng, 0.5, 2.0)
    return _evaluate("exp", f"{a}*x", "lo", "--r", "1.01"), (
        _sane(), near("lo lhs = closed form on the theta grid", "lhs", lo_lhs_exp(a, 1.01), 1e-6, rel=True))


def _eval_mls(rng):
    k = _u(rng, 4.0, 8.0)
    return _evaluate("exp", f"exp(x/{k})", "mls", "--positive", "--r", str(_u(rng, 1.2, 1.8))), (_sane(),)


def _eval_weighted(rng):
    return _evaluate("sinpower:2,1", "x", "weighted", "--r", str(_u(rng, 1.2, 1.8))), (_sane(),)


def _eval_frsob(rng):
    return _evaluate("gaussian", "x", "frsob", "--r", str(_u(rng, 1.2, 1.8))), (_sane(),)


def _eval_itau(rng):
    return _evaluate("power:1.5", "sin(x)", "itau", "--tau", str(_u(rng, 0.2, 0.8))), (_sane(),)


_QUANTILE_DEPTH = {"central": (0.05, 0.95), "moderate": (1e-6, 1e-3), "deep": (1e-20, 1e-9)}


def _measure_info(family, depth):
    tail_fn, q_fn, log_z, x_max = {
        "exp": (exp_tail, exp_quantile, math.log(2.0), 60.0),
        "gaussian": (gauss_tail, gauss_quantile, 0.5 * math.log(2.0 * math.pi), 35.0),
    }[family]

    def make(rng):
        xs = sorted(_u(rng, 0.5, x_max, 2) for _ in range(3))
        lo, hi = _QUANTILE_DEPTH[depth]
        ps = sorted(_u(rng, lo, hi) if depth == "central" else _logu(rng, lo, hi) for _ in range(2))
        checks = [near(f"log_z = {log_z:.6f}", "log_z", log_z, 1e-9)]
        checks += [near(f"tail({x:g})", f"tail({x:g})", tail_fn(x), 1e-8, rel=True) for x in xs]
        checks += [
            near(f"quantile({p:g}) in x", f"quantile({p:g})", q_fn(p), 1e-6 * max(1.0, abs(q_fn(p))),
                 known_defect=QUANTILE_DEFECT if depth == "deep" else "")
            for p in ps
        ]
        argv = ("measure", "info", "--potential", family, "--tail-at", *map(str, xs), "--quantile-at", *map(str, ps))
        return argv, tuple(checks)

    return make


def _measure_power(rng):
    a = _u(rng, 1.2, 2.5)
    return ("measure", "info", "--potential", f"power:{a}"), (
        near(f"log_z = log(2 Gamma(1 + 1/{a}))", "log_z", power_log_z(a), 1e-9),)


def _transport(rng):
    alpha = _u(rng, 1.2, 2.0)
    return ("concentration", "--mode", "transport", "--potential", "sinpower:1.5,1", "--alpha", str(alpha)), (
        Check("b_alpha_inf > 0", "> 0", lambda rows: row(rows, "b_alpha_inf")["value"], lambda v: v > 0.0),)


def legendre_check(rp):
    return Check("max |numeric - h_star| <= 1e-4", "<= 1e-4",
                 lambda rows: float(np.max(np.abs(np.asarray(row(rows, "numeric conjugate")["value"])
                                                  - h_star(rp, LEGENDRE_T)))),
                 lambda v: v <= 1e-4)


def _legendre(rng):
    rp = _u(rng, 2.5, 8.0)
    return (LEGENDRE, rp), (legendre_check(rp),)


CERTIFY = (
    Stratum("gap-gaussian", _fixed(_spectral("gaussian", "--N", "4000"), (
        near("1/gap(gaussian) = 1 +- 0.02", "poincare constant estimate", 1.0, 0.02),))),
    Stratum("gap-exp", _fixed(_spectral("exp", "--X", "80", "--N", "8000"), (
        near("1/gap(exp) = 4 +- 0.05", "poincare constant estimate", 4.0, 0.05),))),
    Stratum("gap-nu2", _fixed(_spectral("sinpower:2,1", "--N", "4000"), (_gap_floor_check(True),))),
    *(
        Stratum(f"gap-nu22-X{X}", _fixed(_spectral("sinpower:2,2", "--X", str(X), "--N", "4000"),
                                             (_gap_floor_check(False),)))
        for X in (20, 40, 80)
    ),
    Stratum("eval-poincare", _eval_poincare),
    Stratum("eval-lsi", _eval_lsi),
    Stratum("eval-lo", _eval_lo),
    Stratum("eval-mls", _eval_mls),
    Stratum("eval-weighted", _eval_weighted),
    Stratum("eval-frsob", _eval_frsob),
    Stratum("eval-itau", _eval_itau),
    *(
        Stratum(f"info-{family}-{depth}", _measure_info(family, depth))
        for family in ("exp", "gaussian")
        for depth in ("central", "moderate", "deep")
    ),
    Stratum("info-power", _measure_power),
    Stratum("transport", _transport),
    Stratum("legendre", _legendre),
)


# -- montecarlo ---------------------------------------------------------------


def _deviation(statistic):
    def make(rng):
        extra = ("--beta", str(_u(rng, 1.0, 4.0))) if statistic == "softmax" else ()
        argv = ("concentration", "--mode", "deviation", "--potential", "power:1.5", "--n", "64",
                "--statistic", statistic, *extra, "--count", "100000", "--C", str(C_MU15), "--r", str(MC_R),
                "--seed", str(rng.randrange(2**31)))
        return argv, (all_at_least("deviation margins >= 0", "margins", 0.0),)

    return make


def _enlargement(rng):
    argv = ("concentration", "--mode", "enlargement", "--potential", "power:1.5", "--n", "16", "--t-grid", "2,4,8",
            "--count", "50000", "--C", str(C_MU15), "--r", str(MC_R), "--seed", str(rng.randrange(2**31)))
    return argv, (all_at_least("enlargement margins >= 0", "margins", 0.0),)


def _gradcheck(rng):
    r = rng.choice((1.2, 1.5, 1.8))
    t = _u(rng, 0.5, 10.0)
    box = round(1.0 + t ** (1.0 / r), 4)  # gradient-bounds scenario box
    argv = ("concentration", "--mode", "gradcheck", "--n", "8", "--r", str(r), "--t", str(t), "--box", str(box),
            "--count", "200000", "--seed", str(rng.randrange(2**31)))
    return argv, (
        at_most("quadratic budget ratio <= 1", "max quadratic budget ratio", 1.0 + 1e-9),
        at_most("dual-power budget ratio <= 1", "max dual-power budget ratio", 1.0 + 1e-9),
    )


MONTECARLO = (
    Stratum("dev-mean", _deviation("mean_scaled")),
    Stratum("dev-max", _deviation("max")),
    Stratum("dev-softmax", _deviation("softmax")),
    Stratum("enlargement", _enlargement),
    Stratum("gradcheck", _gradcheck),
)

WORKLOADS = {"scan": SCAN, "certify": CERTIFY, "montecarlo": MONTECARLO}

# Nominal seconds of one round at the commit that defined the benchmark; the
# number of rounds, and so every stratum count, depends on --seconds only.
ROUND_SECONDS = {"scan": 11.0, "certify": 8.0, "montecarlo": 5.5}

# One typical operation per workload, run during set-up to warm lazy state.
# Each costs a few tenths of a second, so that set-up time is not mostly the
# import, whose duration varies most from run to run.
WARMUP = {
    "scan": ("criteria", "--potential", "sinpower:2,1", "--kind", "blo", "--r", "1.15"),
    "certify": ("spectral", "--potential", "gaussian", "--N", "4000"),
    "montecarlo": ("concentration", "--mode", "deviation", "--potential", "power:1.5", "--n", "64",
                   "--count", "20000", "--C", str(C_MU15), "--r", str(MC_R)),
}


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def plan(workload, seed, rounds):
    """The operation list of one run: fixed stratum counts, seeded parameters and order.

    Rounds run one after the other, each stratum once per round in a seeded
    order, so the repeats of a stratum are spread over the whole run and a
    slow spell of the machine reaches at most a few of them.
    """
    rng = random.Random(f"{workload}:{seed}")
    drafts = []
    for _ in range(rounds):
        one_round = []
        for stratum in WORKLOADS[workload]:
            argv, checks = stratum.make(rng)
            one_round.append((stratum.name, argv, checks))
        rng.shuffle(one_round)
        drafts += one_round
    return [Op(i, name, argv, checks) for i, (name, argv, checks) in enumerate(drafts)]
