"""Spans around the public functions of each hardylab layer, recorded from outside.

``Tracer.install()`` replaces every public function of the layer modules, in
every hardylab module namespace that holds it, by a wrapper that records a
span (name, start, end, parent, op id, work count).  ``Tracer.remove()`` puts
the original objects back.  Spans stay in memory; ``layer_metrics`` turns them
into the per-layer numbers.  The package itself is not modified.

Only the outermost call of a recursion family opens a span (``log_tail`` and
``log_cdf`` call each other, ``expr.evaluate`` recurses over the tree, and
criterion/functional/concentration entry points call their siblings), so
counts and times are not double counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "hardylab"
# The cli layer is not wrapped: its time is what an operation spends outside
# the top-level spans of every other layer.
LAYERS = ("expr", "quad", "measure", "criteria", "spectral", "functionals", "concentration")

# Recursion families: a call inside an open span of the same family records
# nothing.  The tail/CDF queries form one family; criteria, functionals and
# concentration each form one; every other function is its own family.
_QUERIES = {"measure.log_tail", "measure.log_cdf", "measure.tail", "measure.cdf", "measure.n_profile"}
_MODULE_FAMILIES = ("criteria", "functionals", "concentration")
_SCANS = {
    f"criteria.{n}"
    for n in ("bp", "bls", "blo", "bmls", "bweighted", "hyp_mls_check", "asymptotic_conditions", "tail_asymptotics")
}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _legendre_pairs(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    t = a["t"]
    return (len(t) if hasattr(t, "__len__") else 1) * int(a["s_steps"])


# Work counts read from arguments or return values: (fn, args, kwargs, result) -> int
_WORK = {
    "quad.refine_log_panels": lambda fn, a, k, out: int(out[2]),
    "quad.integrate": lambda fn, a, k, out: int(out.panels_used),
    "measure.sample": lambda fn, a, k, out: int(len(out)),
    "spectral.spectral_gap": lambda fn, a, k, out: int(len(_bound(fn, a, k)["op"].diag)),
    "functionals.legendre_numeric": _legendre_pairs,
    "concentration.deviation_experiment": lambda fn, a, k, out: int(out.count),
    "concentration.enlargement_experiment": lambda fn, a, k, out: int(out.count),
    "concentration.lipschitz_gradient_check": lambda fn, a, k, out: int(_bound(fn, a, k)["count"]),
}

# Span record fields
NAME, START, END, PARENT, OP, WORK = range(6)
ROOT = "op"


def _family(name):
    layer = name.split(".", 1)[0]
    if layer in _MODULE_FAMILIES:
        return layer
    return "measure.query" if name in _QUERIES else name


class Tracer:
    """Records spans while installed; one operation at a time, single thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = set()
        self._op = None
        self._patched = []  # (namespace module, attribute, original)

    # -- installation ---------------------------------------------------------

    def _public_functions(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                yield f"{layer}.{attr}", obj

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._public_functions()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return self

    def remove(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name, fn):
        family = _family(name)
        work = _WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None or family in tracer._open:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer._stack[-1], tracer._op, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._open.add(family)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._stack.pop()
                tracer._open.discard(family)
            if work is not None:
                rec[WORK] = work(fn, args, kwargs, out)
            return out

        return wrapper

    def begin(self, op_id):
        """Open the root span of one operation."""
        if self._op is not None:
            raise RuntimeError("operation already open")
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append([ROOT, 0.0, 0.0, -1, op_id, 0])
        self.spans[-1][START] = perf_counter()

    def end(self):
        self.spans[self._stack[0]][END] = perf_counter()
        self._op = None
        self._stack = []
        self._open = set()


def self_times(spans):
    """Duration minus the durations of direct children, per span."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _inside(spans, names):
    """inside[i]: span i or one of its ancestors is named in ``names``."""
    flag = [False] * len(spans)
    for i, s in enumerate(spans):  # parents are recorded before their children
        flag[i] = s[NAME] in names or (s[PARENT] >= 0 and flag[s[PARENT]])
    return flag


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans):
    """Per-layer totals over all recorded operations (see BENCHMARK.json)."""
    own = self_times(spans)
    in_trunc = _inside(spans, {"quad.truncation_point"})
    in_scan = _inside(spans, _SCANS)
    n = {}
    t = {}
    w = {}
    self_t = {}
    trunc_panels = scan_panels = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        key = "measure.query" if name in _QUERIES else ("criteria.scan" if name in _SCANS else name)
        n[key] = n.get(key, 0) + 1
        t[key] = t.get(key, 0.0) + dur
        w[key] = w.get(key, 0) + s[WORK]
        self_t[key] = self_t.get(key, 0.0) + own[i]
        if name == "quad.refine_log_panels":
            trunc_panels += s[WORK] if in_trunc[i] else 0
            scan_panels += s[WORK] if in_scan[i] else 0
    mc_s = t.get("concentration.deviation_experiment", 0.0) + t.get("concentration.enlargement_experiment", 0.0)
    rows = w.get("concentration.deviation_experiment", 0) + w.get("concentration.enlargement_experiment", 0)
    scans = n.get("criteria.scan", 0)
    return {
        "quad.log_calls": n.get("quad.refine_log_panels", 0),
        "quad.log_panels": w.get("quad.refine_log_panels", 0),
        "quad.log_s": t.get("quad.refine_log_panels", 0.0),
        "quad.log_panels_per_s": _rate(w.get("quad.refine_log_panels", 0), t.get("quad.refine_log_panels", 0.0)),
        "quad.extension_calls": n.get("quad.log_extension", 0),
        "quad.truncation_calls": n.get("quad.truncation_point", 0),
        "quad.truncation_s": t.get("quad.truncation_point", 0.0),
        "quad.truncation_panels": trunc_panels,
        "quad.lin_panels": w.get("quad.integrate", 0),
        "quad.lin_s": t.get("quad.integrate", 0.0),
        "measure.normalize_calls": n.get("measure.normalize", 0),
        "measure.normalize_s": t.get("measure.normalize", 0.0),
        "measure.normalize_self_s": self_t.get("measure.normalize", 0.0),
        "measure.query_calls": n.get("measure.query", 0),
        "measure.query_s": t.get("measure.query", 0.0),
        "measure.quantile_calls": n.get("measure.quantile", 0),
        "measure.quantile_s": t.get("measure.quantile", 0.0),
        "measure.sample_draws": w.get("measure.sample", 0),
        "measure.sample_s": t.get("measure.sample", 0.0),
        "measure.draws_per_s": _rate(w.get("measure.sample", 0), t.get("measure.sample", 0.0)),
        "criteria.scans": scans,
        "criteria.scan_s": t.get("criteria.scan", 0.0),
        "criteria.scan_self_s": self_t.get("criteria.scan", 0.0),
        "criteria.panels_per_scan": _rate(scan_panels, scans),
        "spectral.gap_calls": n.get("spectral.spectral_gap", 0),
        "spectral.gap_s": t.get("spectral.spectral_gap", 0.0),
        "spectral.unknowns_per_s": _rate(w.get("spectral.spectral_gap", 0), t.get("spectral.spectral_gap", 0.0)),
        "spectral.discretize_s": t.get("spectral.discretize", 0.0),
        "functionals.eval_calls": n.get("functionals.ratio_report", 0),
        "functionals.eval_s": t.get("functionals.ratio_report", 0.0),
        "functionals.legendre_pairs": w.get("functionals.legendre_numeric", 0),
        "functionals.legendre_s": t.get("functionals.legendre_numeric", 0.0),
        "concentration.rows": rows,
        "concentration.self_s": sum(v for k, v in self_t.items() if k.startswith("concentration.")),
        "concentration.rows_per_s": _rate(rows, mc_s),
        "concentration.gradcheck_points": w.get("concentration.lipschitz_gradient_check", 0),
        "concentration.transport_s": t.get("concentration.transport_check", 0.0),
        "expr.parse_calls": n.get("expr.parse", 0),
        "expr.parse_s": t.get("expr.parse", 0.0),
        "expr.evaluate_s": t.get("expr.evaluate", 0.0),
        "cli.self_s": self_t.get(ROOT, 0.0),
    }
