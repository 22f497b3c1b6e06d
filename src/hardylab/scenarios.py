"""Named end-to-end verification scenarios.

Each scenario bundles one headline property of the laboratory (a constant
bracket, a threshold, a counterexample, a Monte Carlo bound check) into a
single reproducible run, returning per-check pass/fail lines.  They back
both the acceptance test suite and the ``repro`` CLI subcommand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import concentration as conc
from . import criteria
from . import functionals as fn
from . import measure as msr
from . import spectral


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            out.append(f"[{'PASS' if c.passed else 'FAIL'}] {self.name}: {c.name} ({c.detail})")
        return out


def _check(name, passed, detail=""):
    return Check(name=name, passed=bool(passed), detail=detail)


@functools.lru_cache(maxsize=None)
def corpus_measure(name):
    families = {
        "exponential": ("exp",),
        "gaussian": ("gaussian",),
        "mu15": ("power", 1.5),
        "nu2": ("sinpower", 2, 1),
        "nu15": ("sinpower", 1.5, 1),
        "nu22": ("sinpower", 2, 2),
        "floor": ("floor",),
        "cattiaux": ("cattiaux", 1.5, 1.9),
    }
    return msr.normalize(msr.Potential.builtin(*families[name]), label=name)


def _corpus_best_f(name):
    if name == "exponential":
        return fn.TestFunction(
            value=lambda x: np.sign(x) * (np.exp(np.abs(x) / 2.0) - 1.0),
            derivative=lambda x: 0.5 * np.exp(np.abs(x) / 2.0),
            label="sign(x)(e^{|x|/2}-1)",
        )
    if name == "gaussian":
        return fn.TestFunction.from_expression("x + 0.1*x^3")
    return fn.TestFunction.from_expression("x")


# ---------------------------------------------------------------------------


def legendre_closed_form():
    checks = []
    ts = np.linspace(-20.0, 20.0, 401)
    for rp in (3.0, 13.0 / 3.0, 6.0):
        closed = fn.h_star(rp, ts)
        numeric = fn.legendre_numeric(lambda s: fn.h(rp, s), ts, s_range=(-12.0, 12.0), s_steps=1_000_001)
        gap = float(np.max(np.abs(closed - numeric)))
        checks.append(_check(f"conjugate match r'={rp:.4g}", gap <= 1e-4, f"max|diff|={gap:.2e}"))
        for brk in (2.0, rp):
            left = fn.h_star(rp, brk - 1e-13)
            right = fn.h_star(rp, brk + 1e-13)
            jump = abs(left - right)
            checks.append(
                _check(f"branch continuity r'={rp:.4g} at t={brk:.4g}", jump <= 1e-12, f"jump={jump:.2e}")
            )
    return ScenarioResult("legendre-closed-form", tuple(checks))


def legendre_lower_bound():
    checks = []
    ts = np.linspace(-20.0, 20.0, 401)
    for rp in (3.0, 13.0 / 3.0, 6.0):
        r = rp / (rp - 1.0)
        lower = 0.25 * np.minimum(ts * ts, np.power(np.abs(ts), r))
        worst = float(np.min(fn.h_star(rp, ts) - lower))
        checks.append(_check(f"conjugate >= quarter-min r'={rp:.4g}", worst >= -1e-12, f"min slack={worst:.2e}"))
    return ScenarioResult("legendre-lower-bound", tuple(checks))


def poincare_bracket():
    checks = []
    setups = {
        "exponential": dict(X=80.0, N=8000),
        "gaussian": dict(X=None, N=4000),
        "mu15": dict(X=None, N=4000),
        "nu2": dict(X=None, N=4000),
    }
    for name, kw in setups.items():
        m = corpus_measure(name)
        gap = spectral.spectral_gap(spectral.discretize(m, X=kw["X"], N=kw["N"]))
        cp_est = 1.0 / gap
        ray = fn.ratio_report(m, _corpus_best_f(name), "poincare").ratio
        sbp = criteria.bp(m).partial_sups[-1]
        checks.append(
            _check(
                f"{name} triangle",
                ray <= cp_est <= 4.0 * sbp,
                f"rayleigh={ray:.4f} <= 1/gap={cp_est:.4f} <= 4*S_BP={4 * sbp:.4f}",
            )
        )
        if name == "exponential":
            checks.append(_check("exponential 1/gap = 4 +- 0.05", abs(cp_est - 4.0) <= 0.05, f"1/gap={cp_est:.4f}"))
            checks.append(_check("exponential S_BP = 1 +- 0.01", abs(sbp - 1.0) <= 0.01, f"S_BP={sbp:.6f}"))
        if name == "gaussian":
            checks.append(_check("gaussian 1/gap = 1 +- 0.02", abs(cp_est - 1.0) <= 0.02, f"1/gap={cp_est:.6f}"))
    return ScenarioResult("poincare-bracket", tuple(checks))


def threshold_alpha2():
    m = corpus_measure("nu2")
    checks = []
    lo_bounded = criteria.blo(m, 1.15)
    checks.append(
        _check("blo r=1.15 below threshold bounded", lo_bounded.verdict.label == "bounded",
               f"verdict={lo_bounded.verdict.label}, plateau={lo_bounded.verdict.plateau_ratio:.4f}")
    )
    lo_div = criteria.blo(m, 1.30)
    slope = lo_div.verdict.growth_exponent[0] if lo_div.verdict.growth_exponent else float("nan")
    target = 2.0 * (2.0 / (1.30 / 0.30) - 1.0 / 3.0)
    checks.append(
        _check("blo r=1.30 above threshold divergent", lo_div.verdict.label == "divergent",
               f"verdict={lo_div.verdict.label}")
    )
    checks.append(
        _check("blo r=1.30 growth exponent within 50%", abs(slope - target) <= 0.5 * target,
               f"slope={slope:.4f} target={target:.4f}")
    )
    m115 = criteria.bmls(m, 1.15)
    m130 = criteria.bmls(m, 1.30)
    checks.append(
        _check("bmls agrees at r=1.15", m115.verdict.label == lo_bounded.verdict.label,
               f"bmls={m115.verdict.label}")
    )
    checks.append(
        _check("bmls agrees at r=1.30", m130.verdict.label == lo_div.verdict.label,
               f"bmls={m130.verdict.label}")
    )
    return ScenarioResult("threshold-alpha2", tuple(checks))


def counterexample_weighted():
    m = corpus_measure("cattiaux")
    checks = []
    scans = criteria.asymptotic_conditions(m, 1.5)
    checks.append(
        _check("growth ratio tail max <= 0.05", scans.br_tail_max <= 0.05, f"max={scans.br_tail_max:.4f}")
    )
    ks = np.arange(10, 41)
    xk = ks * math.pi - math.pi / 4.0
    idx = np.array([int(np.argmin(np.abs(scans.x - v))) for v in xk])
    wr = scans.weighted_ratio[idx]
    monotone = bool(np.all(np.diff(wr) > 0))
    factor = float(wr[-1] / wr[0])
    checks.append(_check("weighted ratio monotone along k=10..40", monotone, f"monotone={monotone}"))
    checks.append(
        _check("weighted ratio grows >= 10x over k=10..40", factor >= 10.0, f"factor={factor:.3f}")
    )
    rw = criteria.bweighted(m, 1.5)
    checks.append(_check("weighted criterion divergent", rw.verdict.label == "divergent", f"verdict={rw.verdict.label}"))
    rm = criteria.bmls(m, 1.5)
    checks.append(_check("two-level criterion bounded", rm.verdict.label == "bounded", f"verdict={rm.verdict.label}"))
    return ScenarioResult("counterexample-weighted", tuple(checks))


def poincare_failure_lambda2():
    m = corpus_measure("nu22")
    checks = []
    horizons = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 70.0)
    res = criteria.bp(m, horizons=horizons)
    x3, x10 = 7.0 * math.pi, 21.0 * math.pi
    i3 = next(i for i, h in enumerate(horizons) if h >= x3)
    i10 = next(i for i, h in enumerate(horizons) if h >= x10)
    log_ratio = res.log_partial_sups[i10] - res.log_partial_sups[i3]
    checks.append(
        _check("bp sup grows >= 10x from x_3 to x_10", log_ratio >= math.log(10.0),
               f"log ratio={log_ratio:.1f}")
    )
    checks.append(_check("bp divergent", res.verdict.label == "divergent", f"verdict={res.verdict.label}"))
    gaps = [spectral.spectral_gap(spectral.discretize(m, X=X, N=4000)) for X in (20.0, 40.0, 80.0)]
    mono = gaps[0] > gaps[1] >= gaps[2]
    checks.append(
        _check("spectral gap collapses as X doubles", mono,
               "gaps=" + ", ".join(f"{g:.2e}" for g in gaps))
    )
    return ScenarioResult("poincare-failure-lambda2", tuple(checks))


def floor_split():
    m = corpus_measure("floor")
    checks = []
    rb = criteria.bp(m)
    checks.append(_check("bp bounded", rb.verdict.label == "bounded",
                         f"verdict={rb.verdict.label}, S={rb.partial_sups[-1]:.4f}"))
    for r in (1.2, 1.5, 1.8):
        rl = criteria.blo(m, r)
        checks.append(_check(f"blo r={r} divergent", rl.verdict.label == "divergent",
                             f"verdict={rl.verdict.label}"))
    return ScenarioResult("floor-split", tuple(checks))


@functools.lru_cache(maxsize=None)
def _constructive_constant(name, r):
    """Upper mLS constant 235 * C_P_upper + 2^(r'+1) * S_mls from the scans."""
    bracket = criteria.bmls(corpus_measure(name), r).bracket
    if bracket is None:
        raise RuntimeError(f"no constructive constant for {name}: bmls or bp not bounded")
    return bracket[1]


def concentration_deviation():
    m = corpus_measure("mu15")
    r = 1.5
    C = _constructive_constant("mu15", r)
    checks = []
    rep = conc.deviation_experiment(
        m, n=64, statistic="mean_scaled", t_grid=(1.0, 2.0, 3.0), count=1_000_000, seed=20240817, C=C, r=r
    )
    ok = all(mg >= 0.0 for mg in rep.margins)
    checks.append(
        _check("deviation margins >= 0 at t=1,2,3", ok,
               f"C={C:.1f}, margins=" + ", ".join(f"{v:.4f}" for v in rep.margins))
    )
    rep2 = conc.enlargement_experiment(m, n=16, t_grid=(2.0, 4.0, 8.0), count=200_000, seed=20240818, C=C, r=r)
    ok2 = all(mg >= 0.0 for mg in rep2.margins)
    checks.append(
        _check("enlargement margins >= 0 at t=2,4,8", ok2,
               "margins=" + ", ".join(f"{v:.4f}" for v in rep2.margins))
    )
    return ScenarioResult("concentration-deviation", tuple(checks))


def gradient_bounds():
    checks = []
    for r in (1.2, 1.5, 1.8):
        for t in (0.5, 2.0, 10.0):
            box = 1.0 + t ** (1.0 / r)
            ratio_sq, ratio_rp, accepted = conc.lipschitz_gradient_check(
                r, t, count=100_000, seed=411, box=box, n=8
            )
            worst = max(ratio_sq, ratio_rp)
            checks.append(
                _check(f"gradient budget r={r} t={t}", worst <= 1.0 + 1e-9,
                       f"max ratio={worst:.6f}, points={accepted}")
            )
    return ScenarioResult("gradient-bounds", tuple(checks))


def transport_quantile():
    m = corpus_measure("nu15")
    checks = []
    res = conc.transport_check(m, 1.5)
    checks.append(
        _check("pairwise quantile infimum positive", res["b_alpha_inf"] > 0.0,
               f"inf={res['b_alpha_inf']:.4f} at pair {res['witness']}")
    )
    ts = np.linspace(10.0, 40.0, 31)
    ratios = msr.n_profile(m, ts) / m.potential.value(ts)
    lo, hi = float(ratios.min()), float(ratios.max())
    checks.append(
        _check("profile/potential ratio in [0.9, 1.5] on [10, 40]", lo >= 0.9 and hi <= 1.5,
               f"range=[{lo:.4f}, {hi:.4f}]")
    )
    return ScenarioResult("transport-quantile", tuple(checks))


def criteria_ordering():
    checks = []
    for name in ("exponential", "gaussian", "mu15", "nu2"):
        m = corpus_measure(name)
        bp_res = criteria.bp(m)
        for r in (1.2, 1.5, 1.8):
            rp = fn._dual(r)
            lo_res = criteria.blo(m, r)
            offset = (2.0 / rp) * math.log(math.log(2.0))
            ok = all(
                b <= l - offset + 1e-9
                for b, l in zip(bp_res.log_partial_sups, lo_res.log_partial_sups)
            )
            checks.append(_check(f"{name} r={r}: S_bp <= S_blo/log^(2/r')(2)", ok, "every horizon"))
    m = corpus_measure("exponential")
    fx = fn.TestFunction.from_expression("x")
    val = fn.lo_lhs(m, fx, 1.01)
    var = fn.variance(m, fx)
    checks.append(
        _check("lo_lhs(r=1.01, f=x) within 5% of variance", abs(val - var) <= 0.05 * var,
               f"lo_lhs={val:.4f}, variance={var:.4f}")
    )
    return ScenarioResult("criteria-ordering", tuple(checks))


def luxemburg_machinery():
    m = corpus_measure("exponential")
    r = 1.5
    fs = [
        fn.TestFunction.from_expression("x"),
        fn.TestFunction.from_expression("x^2"),
        fn.TestFunction.from_expression("sin(x)"),
        fn.TestFunction.from_expression("exp(x/4)", positive=True),
        fn.TestFunction.from_expression("1/(1+x^2)", positive=True),
    ]
    checks = []
    from .functionals import _expect, phi

    for f in fs:
        L = fn.luxemburg(m, f, r)
        resid = abs(_expect(m, lambda x: phi(r, f.value(x) / L)) - 1.0)
        m2 = _expect(m, lambda x: np.square(f.value(x)))
        L3 = fn.luxemburg(
            m,
            fn.TestFunction(value=lambda x: 3.0 * f.value(x), derivative=lambda x: 3.0 * f.derivative(x)),
            r,
        )
        homog = abs(L3 - 3.0 * L) / (3.0 * L)
        ok = resid <= 1e-8 and L * L >= m2 - 1e-9 and homog <= 1e-8
        checks.append(
            _check(f"luxemburg fixed point for {f.label}", ok,
                   f"residual={resid:.2e}, homogeneity={homog:.2e}, L^2 - m2={L * L - m2:.3e}")
        )
    return ScenarioResult("luxemburg-Phi", tuple(checks))


SCENARIOS = {
    "legendre-closed-form": legendre_closed_form,
    "legendre-lower-bound": legendre_lower_bound,
    "poincare-bracket": poincare_bracket,
    "threshold-alpha2": threshold_alpha2,
    "counterexample-weighted": counterexample_weighted,
    "poincare-failure-lambda2": poincare_failure_lambda2,
    "floor-split": floor_split,
    "concentration-deviation": concentration_deviation,
    "gradient-bounds": gradient_bounds,
    "transport-quantile": transport_quantile,
    "criteria-ordering": criteria_ordering,
    "luxemburg-Phi": luxemburg_machinery,
}


@functools.lru_cache(maxsize=None)
def run_scenario(name):
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    return SCENARIOS[name]()
