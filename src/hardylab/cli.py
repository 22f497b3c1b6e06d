"""Command-line front end: batch analyses with machine-readable reports.

Every report embeds the flags its command read (tolerances and seed
included) so it can be reproduced from its own header; a flag that the
chosen ``criteria`` or ``evaluate`` kind or ``concentration`` mode does not
read is refused unless it keeps its default.  Exit codes: 0 success, 2 flag
validation error, 3 numerical failure, a parameter outside its domain (a
missing ``--r`` or ``--tau`` that the kind requires included), an array
too large for memory or a report that cannot be written.  A reader that
closes the pipe early (``| head``) changes neither the code nor stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from . import concentration as conc
from . import criteria
from . import functionals as fn
from . import measure as msr
from . import scenarios
from . import spectral
from .errors import HardyLabError
from .quad import REL_TOL

def _clean(x):
    if isinstance(x, (np.floating, np.integer)):
        return _clean(x.item())
    if isinstance(x, float):
        if x != x:
            return None
        if x in (float("inf"), float("-inf")):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, np.ndarray):
        return [_clean(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, dict):
        return {k: _clean(v) for k, v in x.items()}
    return x


def _flags_read(args):
    """The flags a command read: its ``reads`` set where it has one, else all."""
    reads = getattr(args, "reads", None)
    return reads(args) if reads else set(vars(args)) - {"func"}


def _report(args, kind, results):
    read = _flags_read(args)
    config = {k: _clean(v) for k, v in vars(args).items() if k in read}
    doc = {"config": config, "kind": kind, "results": _clean(results), "version": __version__}
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except OSError as e:  # the rest goes to devnull, so the flush at exit prints nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(e, BrokenPipeError):  # a reader that is gone (Python docs, "Note on SIGPIPE")
                raise
    return doc


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _measure_from_args(args):
    potential = msr.Potential.from_string(args.potential)
    return msr.normalize(potential, rel_tol=args.rel_tol, eps_trunc=args.eps_trunc)


def _add_output(p):
    p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")


def _add_common(p):
    """``--output`` and the tolerances that ``_measure_from_args`` reads."""
    _add_output(p)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=REL_TOL,
                   help="quadrature relative tolerance")
    p.add_argument("--eps-trunc", dest="eps_trunc", type=float, default=msr.DEFAULT_EPS_TRUNC,
                   help="relative tail mass at the truncation point")


def _add_potential(p):
    p.add_argument(
        "--potential",
        required=True,
        help="family[:p1,p2] (exp, gaussian, power:r, sinpower:a,l, cattiaux:r,b, floor) "
        "or expr:<expression>",
    )


class _SubParser(argparse.ArgumentParser):
    """Subcommand parser that documents every default in its help text and
    refuses (exit 2) a flag given a value other than its default that the
    command does not read, where a ``reads`` default names what it reads."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "reads", None):
            read = _flags_read(namespace)
            unread = [k for k, v in vars(namespace).items() if k not in read and v != self.get_default(k)]
            if unread:
                flags = ", ".join("--" + k.replace("_", "-") for k in unread)
                choice = "kind" if "kind" in read else "mode"
                self.error(f"{flags}: not read by --{choice} {getattr(namespace, choice)}")
        return namespace, extras


def _floats(text):
    """A comma-separated list of floats, such as ``25,50,100``."""
    return tuple(float(v) for v in text.split(","))


def cmd_measure(args):
    m = _measure_from_args(args)
    with np.errstate(over="ignore"):  # a Z past the float range reports as inf
        z = float(np.exp(m.log_z))
    results = [
        {"name": "Z", "value": z},
        {"name": "log_z", "value": m.log_z},
        {"name": "median", "value": m.median},
        {"name": "truncation", "value": m.truncation},
    ]
    if args.tail_at:  # one batched query, equal to one query per point bit for bit
        tails = msr.tail(m, np.array(args.tail_at)).tolist()
        results += [{"name": f"tail({x:g})", "value": t} for x, t in zip(args.tail_at, tails)]
    for p in args.quantile_at:
        results.append({"name": f"quantile({p:g})", "value": msr.quantile(m, p)})
    _report(args, "measure-info", results)
    return 0


def _criteria_reads(args):
    read = {"command", "kind", "output", "potential", "rel_tol", "eps_trunc", "horizons"}
    if args.kind in ("hyp", "asymptotics") or (args.kind in criteria.KINDS and criteria.KINDS[args.kind].needs_r):
        read.add("r")
    read.add("eps" if args.kind == "hyp" else "csv")
    return read


def cmd_criteria(args):
    m = _measure_from_args(args)
    kind = args.kind
    results = []
    if kind in criteria.KINDS:
        needs_r = criteria.KINDS[kind].needs_r
        if needs_r and args.r is None:
            raise HardyLabError(f"--r is required for kind {kind}")
        params = {"r": args.r} if needs_r else {}
        # looked up at call time, so a wrapper set on the module sees the call
        res = getattr(criteria, kind)(m, horizons=args.horizons, **params)
        entry = {
            "name": f"{kind} partial sups",
            "value": list(res.partial_sups),
            "verdict": res.verdict.label,
            "argmax": res.final_argmax,
        }
        if res.bracket is not None:
            entry["bracket"] = list(res.bracket)
        results.append(entry)
        results.append({"name": "log partial sups", "value": list(res.log_partial_sups)})
        results.append({"name": "plateau ratio", "value": res.verdict.plateau_ratio})
        if res.verdict.growth_exponent:
            results.append({"name": "growth exponent (slope, lo95, hi95)",
                            "value": list(res.verdict.growth_exponent)})
        if args.csv:
            _write_csv(args.csv, ["horizon", "partial_sup"], list(zip(res.horizons, res.partial_sups)))
    elif kind == "hyp":
        res = criteria.hyp_mls_check(m, args.r, args.eps, horizons=args.horizons)
        results.append(
            {"name": "hyp holds", "value": 1.0 if res.holds else 0.0, "verdict": str(res.holds)}
        )
        results.append({"name": "worst ratio", "value": res.worst_ratio, "argmax": res.arg,
                        "unresolved_from": res.unresolved_from})
    elif kind == "asymptotics":
        res = criteria.asymptotic_conditions(m, args.r, horizons=args.horizons)
        results.append({"name": "growth ratio tail max", "value": res.br_tail_max})
        results.append({"name": "weighted ratio tail max", "value": res.weighted_tail_max})
        results.append({"name": "curvature ratio tail max", "value": res.vpp_tail_max})
        if args.csv:
            _write_csv(
                args.csv,
                ["x", "br_ratio", "weighted_ratio", "vpp_ratio"],
                list(zip(res.x, res.br_ratio, res.weighted_ratio, res.vpp_ratio)),
            )
    elif kind == "tailscale":
        grid = np.arange(1.0, args.horizons[-1], 2.0)
        res = criteria.tail_asymptotics(m, grid)
        results.append({"name": "theta", "value": list(res.theta)})
        results.append({"name": "ratio vs theta-scale", "value": list(res.ratio_theta)})
        if args.csv:
            _write_csv(
                args.csv,
                ["x", "theta", "ratio_theta", "ratio_deriv"],
                list(zip(res.x, res.theta, res.ratio_theta, res.ratio_deriv)),
            )
    else:
        raise HardyLabError(f"unknown criteria kind {kind!r}")
    _report(args, f"criteria-{kind}", results)
    return 0


def cmd_spectral(args):
    m = _measure_from_args(args)
    op = spectral.discretize(m, X=args.X, N=args.N)
    gap = spectral.spectral_gap(op)
    floor = spectral.gap_resolution(op)
    resolved = gap > floor
    results = [
        {"name": "gap", "value": gap},
        {"name": "gap resolved", "value": 1.0 if resolved else 0.0, "verdict": str(resolved)},
        # a gap under the floor is rounding noise, and so would be its inverse
        {"name": "poincare constant estimate", "value": (1.0 / gap) if resolved else None},
        {"name": "gap resolution floor", "value": floor},
        {"name": "truncation mass", "value": op.truncation_mass},
    ]
    _report(args, "spectral", results)
    return 0


def _evaluate_reads(args):
    # the kind's r or tau, if any, and --positive where the mls energy checks it
    extra = {fn.INEQUALITIES[args.kind][0], "positive" if args.kind == "mls" else None} - {None}
    return {"command", "kind", "output", "potential", "rel_tol", "eps_trunc", "f", *extra}


def cmd_evaluate(args):
    m = _measure_from_args(args)
    f = fn.TestFunction.from_expression(args.f, positive=args.positive)
    rep = fn.ratio_report(m, f, args.kind, r=args.r, tau=args.tau)
    results = [
        {"name": "lhs", "value": rep.lhs},
        {"name": "rhs energy", "value": rep.rhs_energy},
        {"name": "ratio", "value": rep.ratio},
    ]
    for k, v in rep.parameters.items():
        results.append({"name": f"param {k}", "value": v})
    _report(args, f"evaluate-{args.kind}", results)
    return 0


def cmd_legendre(args):
    val = fn.h_star(args.rprime, args.t)
    results = [{"name": "h_star", "value": val}]
    if args.numeric:
        num = fn.legendre_numeric(lambda s: fn.h(args.rprime, s), args.t)
        results.append({"name": "numeric conjugate", "value": num})
    _report(args, "legendre", results)
    return 0


def cmd_threshold_scan(args):
    results = []
    rows = []
    for alpha in args.alphas:
        m = msr.normalize(msr.Potential.builtin("sinpower", alpha, 1.0))
        r0 = 3.0 * alpha / (2.0 * alpha + 1.0)
        results.append({"name": f"r0(alpha={alpha:g})", "value": r0})
        for r in args.rs:
            res = criteria.blo(m, r, horizons=args.horizons)
            slope = res.verdict.growth_exponent[0] if res.verdict.growth_exponent else None
            rows.append((alpha, r, res.verdict.label, slope))
            results.append(
                {
                    "name": f"blo(alpha={alpha:g}, r={r:g})",
                    "value": slope,
                    "verdict": res.verdict.label,
                }
            )
    if args.csv:
        _write_csv(args.csv, ["alpha", "r", "verdict", "growth_exponent"], rows)
    _report(args, "threshold-scan", results)
    return 0


_MEASURE_FLAGS = {"potential", "rel_tol", "eps_trunc"}
_EXPERIMENT_FLAGS = _MEASURE_FLAGS | {"n", "t_grid", "count", "seed", "C", "r", "csv"}
_CONCENTRATION_FLAGS = {
    "deviation": _EXPERIMENT_FLAGS | {"statistic", "beta"},
    "enlargement": _EXPERIMENT_FLAGS,
    "gradcheck": {"n", "r", "t", "box", "count", "seed"},
    "transport": _MEASURE_FLAGS | {"alpha"},
}


def _concentration_reads(args):
    return {"command", "mode", "output", *_CONCENTRATION_FLAGS[args.mode]}


def cmd_concentration(args):
    results = []
    if args.mode in ("deviation", "enlargement"):
        m = _measure_from_args(args)
        if args.mode == "deviation":
            rep = conc.deviation_experiment(
                m, n=args.n, statistic=args.statistic, t_grid=args.t_grid,
                count=args.count, seed=args.seed, C=args.C, r=args.r, beta=args.beta,
            )
        else:
            rep = conc.enlargement_experiment(
                m, n=args.n, t_grid=args.t_grid, count=args.count, seed=args.seed, C=args.C, r=args.r
            )
        results.extend(_experiment_results(rep))
        if args.csv:
            for name, tail in (("empirical", rep.empirical_tail), ("bound", rep.bound_tail)):
                _write_csv(f"{args.csv}_{name}.csv", ["t", "tail"], list(zip(rep.t_grid, tail)))
    elif args.mode == "gradcheck":
        ratio_sq, ratio_rp, accepted = conc.lipschitz_gradient_check(
            args.r, args.t, args.count, args.seed, box=args.box, n=args.n
        )
        results.append({"name": "max quadratic budget ratio", "value": ratio_sq})
        results.append({"name": "max dual-power budget ratio", "value": ratio_rp})
        results.append({"name": "accepted points", "value": accepted})
    elif args.mode == "transport":
        m = _measure_from_args(args)
        res = conc.transport_check(m, args.alpha)
        results.append({"name": "b_alpha_inf", "value": res["b_alpha_inf"]})
        results.append({"name": "witness pair", "value": list(res["witness"])})
    else:
        raise HardyLabError(f"unknown concentration mode {args.mode!r}")
    _report(args, f"concentration-{args.mode}", results)
    return 0


def _experiment_results(rep):
    return [
        {"name": "t grid", "value": list(rep.t_grid)},
        {"name": "empirical tail", "value": list(rep.empirical_tail)},
        {"name": "confidence radius", "value": list(rep.confidence)},
        {"name": "bound tail", "value": list(rep.bound_tail)},
        {"name": "margins", "value": list(rep.margins)},
        {"name": "constants", "value": json.dumps(rep.constants)},
    ]


def cmd_repro(args):
    res = scenarios.run_scenario(args.name)
    for line in res.lines():
        print(line, file=sys.stderr)
    results = [
        {"name": c.name, "value": 1.0 if c.passed else 0.0, "verdict": "pass" if c.passed else "fail"}
        for c in res.checks
    ]
    _report(args, f"repro-{args.name}", results)
    return 0 if res.passed else 3


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Functional-inequality laboratory for one-dimensional measures exp(-V)/Z.",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    p = sub.add_parser("measure", help="normalization, median, truncation, tails, quantiles")
    ps = p.add_subparsers(dest="subcommand", required=True)
    pi = ps.add_parser("info")
    _add_potential(pi)
    _add_common(pi)
    pi.add_argument("--tail-at", type=float, nargs="*", default=[], dest="tail_at")
    pi.add_argument("--quantile-at", type=float, nargs="*", default=[], dest="quantile_at")
    pi.set_defaults(func=cmd_measure)

    p = sub.add_parser("criteria", help="Hardy-type criterion scans and diagnostics")
    _add_potential(p)
    _add_common(p)
    p.add_argument("--kind", required=True,
                   choices=[*criteria.KINDS, "hyp", "asymptotics", "tailscale"])
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.1, help="threshold for the hyp check")
    p.add_argument("--horizons", type=_floats, default=criteria.DEFAULT_HORIZONS)
    p.add_argument("--csv", default=None, help="also write curve data to this CSV path")
    p.set_defaults(func=cmd_criteria, reads=_criteria_reads)

    p = sub.add_parser("spectral", help="discrete generator spectral gap")
    _add_potential(p)
    _add_common(p)
    p.add_argument("--X", type=float, default=None, help="truncation half-width (default: measure truncation)")
    p.add_argument("--N", type=int, default=4000)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("evaluate", help="evaluate one inequality on a test function")
    _add_potential(p)
    _add_common(p)
    p.add_argument("--f", required=True, help="test function expression")
    p.add_argument("--kind", required=True,
                   choices=list(fn.INEQUALITIES))
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--positive", action="store_true", help="assert the test function is positive")
    p.set_defaults(func=cmd_evaluate, reads=_evaluate_reads)

    p = sub.add_parser("legendre", help="closed-form conjugate of the two-level profile")
    p.add_argument("--rprime", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--numeric", action="store_true", help="also run the brute-force conjugate")
    _add_output(p)
    p.set_defaults(func=cmd_legendre)

    p = sub.add_parser("threshold-scan", help="verdict matrix over (alpha, r) for oscillating potentials")
    _add_output(p)
    p.add_argument("--alphas", type=_floats, default=(1.25, 1.5, 2.0, 3.0))
    p.add_argument("--rs", type=_floats,
                   default=tuple(round(1.05 + 0.05 * k, 2) for k in range(18)))
    p.add_argument("--horizons", type=_floats, default=criteria.DEFAULT_HORIZONS)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_threshold_scan)

    p = sub.add_parser("concentration", help="Monte Carlo concentration experiments")
    _add_common(p)
    p.add_argument("--mode", required=True, choices=["deviation", "enlargement", "gradcheck", "transport"])
    p.add_argument("--potential", default="power:1.5")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--statistic", default="mean_scaled", choices=["mean_scaled", "max", "softmax"])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--t-grid", dest="t_grid", type=_floats, default=(1.0, 2.0, 3.0))
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--r", type=float, default=1.5)
    p.add_argument("--t", type=float, default=2.0, help="gradcheck threshold")
    p.add_argument("--box", type=float, default=2.0, help="gradcheck sampling half-width")
    p.add_argument("--alpha", type=float, default=1.5, help="transport exponent")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_concentration, reads=_concentration_reads)

    p = sub.add_parser("repro", help="run a named verification scenario end-to-end")
    p.add_argument("--name", required=True, choices=sorted(scenarios.SCENARIOS))
    _add_output(p)
    p.set_defaults(func=cmd_repro)

    return ap


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except HardyLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # e.g. a spectral --N whose matrix does not fit
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # a report, --output or --csv file on a full disk or in a missing directory
        print(f"error: cannot write the report: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:
        print(f"numerical assertion failed: {e}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
