"""hardylab benchmark: closed-loop workloads timed end to end, traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload scan --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all            # scan, certify, montecarlo

One client in one process runs the operations of one workload back to back,
each a hardylab command through ``hardylab.cli.run(argv)`` with ``--output``
into a scratch directory inside the checkout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same operations once untraced and
once with every public function of each layer wrapped (see tracing.py) and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

An operation fails when it raises, exits non-zero or misses a reference check;
``failed`` counts those, and the share is printed as ``failed_frac``.
``correct`` is false when any failure is not one of the known defects named
in workloads.py, or when the traced and untraced passes give different output
digests.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan", "certify", "montecarlo")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


@dataclass
class Outcome:
    op: object
    seconds: float
    rows: list | None
    error: str | None
    failures: list  # (check, returned) pairs that did not pass

    @property
    def failed(self):
        return self.error is not None or bool(self.failures)

    @property
    def unexpected(self):
        return self.error is not None or any(not c.known_defect for c, _ in self.failures)


def _load_package():
    """Import hardylab from this checkout's src/ and the benchmark modules."""
    if not (SRC / "hardylab" / "__init__.py").is_file():
        sys.exit(f"bench: no hardylab sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import hardylab.cli  # noqa: F401
    from hardylab import functionals  # noqa: F401

    if Path(hardylab.cli.__file__).resolve().parent != SRC / "hardylab":
        sys.exit(f"bench: imported hardylab from {hardylab.cli.__file__}, not from {SRC}")


def execute(op, outdir):
    """Run one operation; return its report rows.  Raises on a non-zero exit."""
    from hardylab import cli, functionals

    from bench import workloads as wl

    if op.argv[0] == wl.LEGENDRE:
        rp = op.argv[1]
        num = functionals.legendre_numeric(lambda s: functionals.h(rp, s), wl.LEGENDRE_T,
                                           s_range=wl.LEGENDRE_S_RANGE, s_steps=wl.LEGENDRE_S_STEPS)
        return [{"name": "numeric conjugate", "value": [float(v) for v in num]}]
    path = os.path.join(outdir, f"op{op.id}.json")
    code = cli.run([*op.argv, "--output", path])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    with open(path) as fh:
        return json.load(fh)["results"]


def run_ops(ops, outdir, tracer=None):
    """Closed loop: each operation starts when the previous one has ended."""
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.begin(op.id)
        t0 = time.perf_counter()
        try:
            rows, error = execute(op, outdir), None
        except Exception as e:  # one failing operation must not stop the run
            rows, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        outcomes.append(Outcome(op, dt, rows, error, []))
    for o in outcomes:
        if o.rows is not None:
            for check in o.op.checks:
                ok, got = check.run(o.rows)
                if not ok:
                    o.failures.append((check, got))
    return outcomes


def digest(outcomes):
    """sha256 over every operation's report rows, in operation order."""
    h = hashlib.sha256()
    per_op = []
    for o in outcomes:
        text = json.dumps(o.rows if o.rows is not None else o.error, sort_keys=True)
        d = hashlib.sha256(text.encode()).hexdigest()
        per_op.append(d[:16])
        h.update(d.encode())
    return h.hexdigest(), per_op


def headline(outcomes):
    from bench import workloads as wl

    out = {}
    for o in outcomes:
        if o.rows is None:
            continue
        try:
            if o.op.stratum == "bp-exp":
                out["S_bp(exponential)"] = wl.row(o.rows, "bp partial sups")["value"][-1]
            elif o.op.stratum == "gap-gaussian":
                out["1/gap(gaussian)"] = wl.row(o.rows, "poincare constant estimate")["value"]
            elif o.op.stratum == "transport":
                out.setdefault("b_alpha_inf", []).append(wl.row(o.rows, "b_alpha_inf")["value"])
            elif o.op.argv[:3] in (("concentration", "--mode", "deviation"), ("concentration", "--mode", "enlargement")):
                out.setdefault(f"margins[{o.op.stratum}]", []).append(wl.row(o.rows, "margins")["value"])
        except KeyError:
            pass
    return out


def environment():
    import ctypes

    import numpy as np

    with open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), platform.processor())
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    blas_threads = None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                blas_threads = fn()
                break
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "openblas_threads": blas_threads,
    }


def tail_percentile(times):
    """(percentile, value): the highest nearest-rank percentile with TAIL_BEYOND operations beyond it."""
    s = sorted(times)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / len(s), s[k]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_failures(outcomes):
    for o in outcomes:
        if o.error is not None:
            print(f"  FAIL op {o.op.id} [{o.op.stratum}] {o.op.label()}: {o.error}")
        for check, got in o.failures:
            tag = f"  (known: {check.known_defect})" if check.known_defect else ""
            print(f"  FAIL op {o.op.id} [{o.op.stratum}] {o.op.label()}: {check.name}: "
                  f"reference {check.reference}, returned {got!r}{tag}")


def run_workload(workload, seed, seconds, trace):
    _load_package()
    import_s = time.perf_counter() - _T_START
    from bench import tracing
    from bench import workloads as wl

    rounds = wl.rounds_for(workload, seconds)
    if trace:
        # every operation runs twice below, so half the rounds keep the run
        # about as long as an untraced one
        rounds = max(1, rounds // 2)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as outdir:
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = wl.plan(workload, seed, rounds)
            warm = run_ops([wl.Op(-1, "warmup", wl.WARMUP[workload])], outdir)[0]
            reps.append(time.perf_counter() - t0)
            if warm.error is not None:
                print(f"  warm-up failed: {warm.error}")
        setup_s = import_s + statistics.median(reps)

        if not trace:
            t0 = time.perf_counter()
            outcomes = run_ops(ops, outdir)
            phase_s = time.perf_counter() - t0
        else:
            # Each operation runs untraced and traced back to back, so that the
            # overhead compares runs made under the same machine load; the order
            # alternates because a repeat runs faster than a first run.
            tracer = tracing.Tracer()
            outcomes, traced = [], []
            for op in ops:
                if op.id % 2:
                    outcomes += run_ops([op], outdir)
                with tracer:
                    traced += run_ops([op], outdir, tracer)
                if not op.id % 2:
                    outcomes += run_ops([op], outdir)

    by_stratum = {}
    for o in outcomes:
        by_stratum.setdefault(o.op.stratum, []).append(o.seconds)
    times = [o.seconds for o in outcomes]
    n = len(outcomes)
    n_failed = sum(o.failed for o in outcomes)
    run_digest, op_digests = digest(outcomes)
    correct = not any(o.unexpected for o in outcomes)

    print(f"workload {workload}  seed {seed}  {n} ops in {rounds} round(s), closed loop, 1 client, 1 process")
    for name, ts in sorted(by_stratum.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"  stratum {name:<24} n={len(ts):<3} median {statistics.median(ts):8.3f} s")
    _print_failures(outcomes)
    record = {"workload": workload, "seed": seed, "digest": run_digest, "op_digests": op_digests,
              "headline": headline(outcomes), "environment": environment()}

    if not trace:
        pct, tail_v = tail_percentile(times)
        # Throughput at the stated mix from per-stratum medians: every run has
        # the same count of each stratum, and one operation caught in a slow
        # spell of a shared machine does not set the figure.
        mix_s = sum(len(ts) * statistics.median(ts) for ts in by_stratum.values())
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "op_s_p50": _metric(statistics.median(times), "s"),
            "op_s_tail": _metric(tail_v, "s"),
            "ops_per_s": _metric(n / mix_s, "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups (import once {import_s:.3f} s)",
            "op_s_p50": f"n={n} ops",
            "op_s_tail": f"p{pct:.1f}, n={n} ops, {n - round(pct * n / 100)} beyond",
            "ops_per_s": f"n={n} ops, per-stratum medians sum to {mix_s:.2f} s; timed phase {phase_s:.2f} s",
            "peak_rss_mb": "ru_maxrss, 1 process",
        }
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:>12.6g} {m['unit']:<4} ({samples[name]})")
        print(f"  {'failed_frac':<12} {n_failed / n:>12.6g} {'1':<4} ({n_failed} of {n} ops)")
    else:
        traced_digest, _ = digest(traced)
        record["traced_digest"] = traced_digest
        if traced_digest != run_digest:
            print("  FAIL traced and untraced runs gave different output digests")
            correct = False
        correct = correct and not any(o.unexpected for o in traced)
        n_failed = sum(o.failed for o in traced)
        values = tracing.layer_metrics(tracer.spans)
        untraced_s, traced_s = sum(times), sum(o.seconds for o in traced)
        # median of paired ratios: a first call that pays one-off costs (the
        # first 770 MB Legendre grid faults its pages in) does not dominate
        values["bench.trace_overhead_frac"] = statistics.median(
            t.seconds / u.seconds for t, u in zip(traced, outcomes)) - 1.0
        metrics = {name: _metric(values[name], unit) for name, unit in _per_layer_units().items()}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
        print(f"  traced {traced_s:.2f} s vs untraced {untraced_s:.2f} s over {n} ops, each run both ways")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": correct, "attempted": n, "failed": n_failed, "metrics": metrics}


def _per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {workload} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0, help="nominal length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One BLAS thread: every workload is one client in one process, and the
    # machines this runs on share few cores.  numpy is not imported yet.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
