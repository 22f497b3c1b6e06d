"""Tests of the benchmark harness itself, at tiny sizes."""

import collections
import importlib
import inspect

import pytest

from bench import run, tracing
from bench import workloads as wl

EXP_INFO = ("measure", "info", "--potential", "exp", "--tail-at", "1")


def _module_functions():
    snap = {}
    for layer in (*tracing.LAYERS, "cli", "scenarios"):
        mod = importlib.import_module(f"hardylab.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                snap[(layer, attr)] = obj
    pkg = importlib.import_module("hardylab")
    for attr, obj in vars(pkg).items():
        if inspect.isfunction(obj):
            snap[("", attr)] = obj
    return snap


def _get(layer, attr):
    return getattr(importlib.import_module(f"hardylab.{layer}" if layer else "hardylab"), attr)


def test_wrappers_restore_original_attributes():
    before = _module_functions()
    tracer = tracing.Tracer()
    with tracer:
        patched = {(mod.__name__, attr) for mod, attr, _ in tracer._patched}
        assert ("hardylab.quad", "refine_log_panels") in patched
        assert ("hardylab.functionals", "integrate") in patched  # bound by `from .quad import integrate`
        assert _get("quad", "refine_log_panels") is not before[("quad", "refine_log_panels")]
    assert _module_functions() == before
    for key, obj in before.items():
        assert _get(*key) is obj


def test_spans_nest_and_self_times_add_up(tmp_path):
    ops = [wl.Op(0, "t", EXP_INFO), wl.Op(1, "t", ("evaluate", "--potential", "gaussian", "--f", "x",
                                                  "--kind", "poincare"))]
    tracer = tracing.Tracer()
    with tracer:
        outcomes = run.run_ops(ops, str(tmp_path), tracer)
    assert not any(o.failed for o in outcomes)
    spans = tracer.spans
    own = tracing.self_times(spans)
    names = {s[tracing.NAME] for s in spans}
    assert {"measure.normalize", "quad.truncation_point", "quad.refine_log_panels", "functionals.ratio_report",
            "quad.integrate", "expr.parse"} <= names
    for i, s in enumerate(spans):
        p = s[tracing.PARENT]
        if p < 0:
            assert s[tracing.NAME] == tracing.ROOT
            continue
        parent = spans[p]
        assert parent[tracing.OP] == s[tracing.OP]
        assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
        assert own[i] >= 0.0
    for op_id in (0, 1):
        root = next(s for s in spans if s[tracing.OP] == op_id and s[tracing.PARENT] < 0)
        total = sum(own[i] for i, s in enumerate(spans) if s[tracing.OP] == op_id)
        assert total == pytest.approx(root[tracing.END] - root[tracing.START], rel=1e-9, abs=1e-12)
    # recursion families: no query span inside another, no evaluate inside evaluate
    assert "expr.evaluate" in names
    for s in spans:
        if s[tracing.PARENT] < 0:
            continue
        parent = spans[s[tracing.PARENT]][tracing.NAME]
        if s[tracing.NAME].startswith("measure.log_"):
            assert not parent.startswith("measure.log_")
        if s[tracing.NAME] == "expr.evaluate":
            assert parent != "expr.evaluate"
    metrics = tracing.layer_metrics(spans)
    assert metrics["measure.normalize_calls"] == 2
    assert metrics["functionals.eval_calls"] == 1
    assert metrics["quad.log_panels"] > 0 and metrics["quad.lin_panels"] > 0


def test_second_seed_changes_parameters_not_stratum_counts():
    for workload in wl.WORKLOADS:
        a, b = wl.plan(workload, 1, 2), wl.plan(workload, 2, 2)
        assert collections.Counter(o.stratum for o in a) == collections.Counter(o.stratum for o in b)
        assert sorted(o.argv for o in a) != sorted(o.argv for o in b)
        assert [o.argv for o in wl.plan(workload, 1, 2)] == [o.argv for o in a]
        for stratum in wl.WORKLOADS[workload]:
            assert sum(o.stratum == stratum.name for o in a) == 2
        k = len(wl.WORKLOADS[workload])  # each round holds every stratum once
        assert all(len({o.stratum for o in a[i:i + k]}) == k for i in range(0, len(a), k))


def test_wrong_reference_counts_as_failed(tmp_path):
    right = wl.near("log_z", "log_z", 0.6931471805599453, 1e-9)
    wrong = wl.near("log_z (deliberately wrong)", "log_z", 0.5, 1e-9)
    outcomes = run.run_ops([wl.Op(0, "t", EXP_INFO, (right,)), wl.Op(1, "t", EXP_INFO, (wrong,))], str(tmp_path))
    assert [o.failed for o in outcomes] == [False, True]
    assert outcomes[1].unexpected
    assert sum(o.failed for o in outcomes) / len(outcomes) > 0.0


def test_closed_forms():
    assert wl.gauss_quantile(1e-9) == pytest.approx(-5.997807015007687, rel=1e-12)
    assert wl.gauss_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)
    assert wl.exp_quantile(wl.exp_tail(3.0)) == pytest.approx(-3.0, rel=1e-14)
    assert wl.h_star(3.0, [1.0, 2.5, 6.0]).tolist() == pytest.approx([0.25, 1.5, 2.0 ** 1.5 / 0.5])


def test_tail_percentile_leaves_ten_beyond():
    pct, value = run.tail_percentile(list(range(1, 31)))
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)
