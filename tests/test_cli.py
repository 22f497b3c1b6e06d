import csv
import json
import math

import jsonschema
import pytest

from hardylab import cli

# every report's shape: config, kind, version and named results
JSON_SCHEMA = {
    "type": "object",
    "required": ["config", "kind", "results", "version"],
    "properties": {
        "config": {"type": "object"},
        "kind": {"type": "string"},
        "version": {"type": "string"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value"],
                "properties": {
                    "name": {"type": "string"},
                    "value": {
                        "type": ["number", "array", "string", "null"],
                        "items": {"type": ["number", "string", "null"]},
                    },
                    "verdict": {"type": "string"},
                    "bracket": {
                        "type": "array",
                        # ``cli._clean`` writes an infinite constant as "inf" or "-inf"
                        "items": {"anyOf": [{"type": "number"}, {"enum": ["inf", "-inf"]}]},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "argmax": {"type": "number"},
                },
            },
        },
    },
}


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


def get(doc, name):
    for row in doc["results"]:
        if row["name"] == name:
            return row
    raise KeyError(name)


def test_measure_info(capsys):
    argv = ["measure", "info", "--potential", "exp", "--tail-at", "1.0", "--quantile-at", "1e-320"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    jsonschema.validate(doc, JSON_SCHEMA)
    assert get(doc, "Z")["value"] == pytest.approx(2.0, rel=1e-8)
    assert get(doc, "median")["value"] == 0.0
    assert get(doc, "tail(1)")["value"] == pytest.approx(math.exp(-1) / 2, rel=1e-8)
    # log(2p) = -736.134..., with p the subnormal float nearest 1e-320 (printed as 9.99989e-321)
    assert get(doc, f"quantile({1e-320:g})")["value"] == pytest.approx(math.log(2.0 * 1e-320), rel=1e-12)
    assert doc["config"]["potential"] == "exp"  # reproducible header


def test_measure_info_tails_equal_scalar_queries(capsys):
    # the --tail-at points share one batched query, which equals a query per point
    xs = [-3.0, 0.25, 7.5, 40.0, 200.0, 1e5]
    code, doc = run_json(capsys, ["measure", "info", "--potential", "sinpower:2,1", "--tail-at", *map(str, xs)])
    m = cli.msr.normalize(cli.msr.Potential.from_string("sinpower:2,1"))
    assert code == 0 and [get(doc, f"tail({x:g})")["value"] for x in xs] == [cli.msr.tail(m, x) for x in xs]


def test_runs_in_one_process_share_no_list_defaults(capsys):
    # the parser is built once per process; a second run must not see the
    # --tail-at and --quantile-at values of the first through their [] defaults
    first = ["measure", "info", "--potential", "exp", "--tail-at", "1.0", "2.0", "--quantile-at", "0.25"]
    code, doc = run_json(capsys, first)
    assert code == 0 and [row["name"] for row in doc["results"]][4:] == ["tail(1)", "tail(2)", "quantile(0.25)"]
    code, doc = run_json(capsys, ["measure", "info", "--potential", "exp"])
    assert code == 0
    assert [row["name"] for row in doc["results"]] == ["Z", "log_z", "median", "truncation"]
    assert doc["config"]["tail_at"] == [] and doc["config"]["quantile_at"] == []
    assert cli.build_parser() is cli.build_parser()


def test_legendre_subcommand(capsys):
    code, doc = run_json(capsys, ["legendre", "--rprime", "3", "--t", "2"])
    assert code == 0
    assert get(doc, "h_star")["value"] == pytest.approx(1.0, abs=1e-14)


def test_criteria_bp_json_and_csv(capsys, tmp_path):
    path = str(tmp_path / "bp.csv")
    code, doc = run_json(
        capsys,
        ["criteria", "--potential", "exp", "--kind", "bp", "--horizons", "25,50,100", "--csv", path,
         "--rel-tol", "1e-9"],
    )
    assert code == 0 and doc["config"]["rel_tol"] == 1e-9
    jsonschema.validate(doc, JSON_SCHEMA)
    row = get(doc, "bp partial sups")
    assert row["verdict"] == "bounded"
    assert row["bracket"][0] == pytest.approx(1.0, abs=1e-8)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["horizon", "partial_sup"]
    assert len(rows) == 4
    float(rows[1][0]), float(rows[1][1])


def test_criteria_blo_threshold(capsys):
    code, doc = run_json(
        capsys,
        ["criteria", "--potential", "sinpower:2,1", "--kind", "blo", "--r", "1.15",
         "--horizons", "25,50,100,200"],
    )
    assert code == 0
    assert get(doc, "blo partial sups")["verdict"] == "bounded"


@pytest.mark.parametrize("potential, verdict, bp_calls", [("sinpower:2,1", "divergent", 0), ("gaussian", "bounded", 1)])
def test_criteria_bmls_runs_bp_only_when_bounded(capsys, monkeypatch, potential, verdict, bp_calls):
    # the bp scan feeds only the upper constant of a bounded bmls verdict
    calls, bp = [], cli.criteria.bp
    monkeypatch.setattr(cli.criteria, "bp", lambda *a, **k: calls.append(1) or bp(*a, **k))
    code, doc = run_json(capsys, ["criteria", "--potential", potential, "--kind", "bmls", "--r", "1.4"])
    row = get(doc, "bmls partial sups")
    assert code == 0 and row["verdict"] == verdict and len(calls) == bp_calls
    assert ("bracket" in row) == (verdict == "bounded")


def test_spectral_subcommand(capsys):
    code, doc = run_json(capsys, ["spectral", "--potential", "gaussian", "--N", "2000"])
    assert code == 0
    assert get(doc, "gap")["value"] == pytest.approx(1.0, abs=0.01)
    assert get(doc, "gap resolved")["verdict"] == "True"
    assert get(doc, "poincare constant estimate")["value"] == pytest.approx(1.0, abs=0.01)


def test_spectral_unresolved_gap_has_no_estimate(capsys):
    # nu22 at X = 20: the gap sits under the resolution floor, so it is
    # reported as computed but gives no Poincare constant estimate
    code, doc = run_json(capsys, ["spectral", "--potential", "sinpower:2,2", "--X", "20"])
    assert code == 0
    jsonschema.validate(doc, JSON_SCHEMA)
    gap, floor = get(doc, "gap")["value"], get(doc, "gap resolution floor")["value"]
    assert 0.0 <= gap <= floor
    assert get(doc, "gap resolved") == {"name": "gap resolved", "value": 0.0, "verdict": "False"}
    assert get(doc, "poincare constant estimate")["value"] is None


def test_evaluate_subcommand(capsys):
    code, doc = run_json(
        capsys, ["evaluate", "--potential", "gaussian", "--f", "x", "--kind", "poincare"]
    )
    assert code == 0
    assert get(doc, "ratio")["value"] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("kind, extra, params", [
    ("poincare", [], set()),
    ("lo", ["--r", "1.5"], {"r"}),
    ("itau", ["--tau", "0.5"], {"tau"}),
    ("mls", ["--r", "1.5", "--positive"], {"r", "positive"}),
])
def test_evaluate_config_holds_the_flags_read(capsys, kind, extra, params):
    f = "exp(x/4)" if kind == "mls" else "x"
    code, doc = run_json(capsys, ["evaluate", "--potential", "gaussian", "--f", f, "--kind", kind, *extra])
    assert code == 0
    assert set(doc["config"]) == {"command", "kind", "output", "potential", "rel_tol", "eps_trunc", "f"} | params


def test_concentration_gradcheck(capsys):
    code, doc = run_json(
        capsys,
        ["concentration", "--mode", "gradcheck", "--r", "1.5", "--t", "2.0",
         "--count", "20000", "--seed", "1", "--box", "1.5", "--n", "4"],
    )
    assert code == 0
    assert get(doc, "max quadratic budget ratio")["value"] <= 1.0 + 1e-9


def test_concentration_csv_curves(capsys, tmp_path):
    base = str(tmp_path / "curve")
    code, doc = run_json(
        capsys,
        ["concentration", "--mode", "deviation", "--potential", "power:1.5", "--n", "2", "--t-grid", "1,2",
         "--count", "5000", "--seed", "2", "--C", "3", "--r", "1.5", "--csv", base],
    )
    assert code == 0
    for name, row in (("empirical", "empirical tail"), ("bound", "bound tail")):
        with open(f"{base}_{name}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "tail"]
        assert [[float(v) for v in r] for r in rows[1:]] == [[1.0, get(doc, row)["value"][0]],
                                                              [2.0, get(doc, row)["value"][1]]]


# the flags each concentration mode reads, besides command, mode and output
CONCENTRATION_FLAGS = {
    "deviation": {"potential", "rel_tol", "eps_trunc", "n", "statistic", "beta", "t_grid", "count", "seed", "C", "r",
                  "csv"},
    "enlargement": {"potential", "rel_tol", "eps_trunc", "n", "t_grid", "count", "seed", "C", "r", "csv"},
    "gradcheck": {"n", "r", "t", "box", "count", "seed"},
    "transport": {"potential", "rel_tol", "eps_trunc", "alpha"},
}


@pytest.mark.parametrize("mode", sorted(CONCENTRATION_FLAGS))
def test_concentration_config_holds_the_flags_read(capsys, mode):
    extra = [] if mode == "transport" else ["--count", "200"]
    code, doc = run_json(capsys, ["concentration", "--mode", mode, *extra])
    assert code == 0
    assert set(doc["config"]) == {"command", "mode", "output"} | CONCENTRATION_FLAGS[mode]


@pytest.mark.parametrize("argv", [
    ["concentration", "--mode", "gradcheck", "--rel-tol", "5", "--eps-trunc", "7", "--potential", "nosuch"],
    ["concentration", "--mode", "gradcheck", "--statistic", "max"],
    ["concentration", "--mode", "enlargement", "--beta", "2"],
    ["concentration", "--mode", "deviation", "--alpha", "2"],
    ["concentration", "--mode", "transport", "--count", "10"],
    ["criteria", "--potential", "exp", "--kind", "bp", "--r", "1.5"],
    ["criteria", "--potential", "exp", "--kind", "blo", "--r", "1.5", "--eps", "0.2"],
    ["criteria", "--potential", "exp", "--kind", "hyp", "--r", "1.5", "--csv", "hyp.csv"],
    ["criteria", "--potential", "exp", "--kind", "tailscale", "--r", "1.5"],
    ["evaluate", "--potential", "gaussian", "--f", "x", "--kind", "poincare", "--r", "1.5", "--tau", "0.3"],
    ["evaluate", "--potential", "gaussian", "--f", "x", "--kind", "itau", "--tau", "0.3", "--r", "1.5"],
    ["evaluate", "--potential", "gaussian", "--f", "x", "--kind", "lo", "--r", "1.5", "--positive"],
])
def test_unread_flags_exit_code_2(capsys, argv):
    assert cli.run(argv) == 2
    assert "not read by" in capsys.readouterr().err


def test_flags_at_their_defaults_are_accepted(capsys):
    code, doc = run_json(capsys, ["concentration", "--mode", "gradcheck", "--count", "100",
                                  "--potential", "power:1.5", "--alpha", "1.5"])
    assert code == 0 and "potential" not in doc["config"]


def test_threshold_scan_small(capsys, tmp_path):
    path = str(tmp_path / "scan.csv")
    code, doc = run_json(
        capsys,
        ["threshold-scan", "--alphas", "2", "--rs", "1.15,1.3",
         "--horizons", "25,50,100,200,400,800", "--csv", path],
    )
    assert code == 0
    assert get(doc, "r0(alpha=2)")["value"] == pytest.approx(1.2)
    assert get(doc, "blo(alpha=2, r=1.15)")["verdict"] == "bounded"
    assert get(doc, "blo(alpha=2, r=1.3)")["verdict"] == "divergent"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "r", "verdict", "growth_exponent"]


def test_validation_error_exit_code_2(capsys):
    assert cli.run(["criteria", "--potential", "exp"]) == 2  # missing --kind
    assert cli.run(["nonsense"]) == 2
    # the tolerance flags exist only where a measure is built from --potential
    assert cli.run(["legendre", "--rprime", "3", "--t", "2", "--rel-tol", "1e-6"]) == 2
    assert cli.run(["repro", "--name", "legendre-lower-bound", "--eps-trunc", "1e-9"]) == 2
    # the absolute quadrature tolerance is a constant, not a flag
    for argv in (["threshold-scan"], ["criteria", "--potential", "exp", "--kind", "bp"],
                 ["measure", "info", "--potential", "exp"], ["spectral", "--potential", "exp"],
                 ["concentration", "--mode", "transport"],
                 ["evaluate", "--potential", "gaussian", "--f", "x", "--kind", "poincare"]):
        assert cli.run([*argv, "--abs-tol", "1e-9"]) == 2


def test_numerical_failure_exit_code_3(capsys):
    # flat potential is not integrable: diagnosed during normalization
    code = cli.run(["measure", "info", "--potential", "expr:0*x"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error" in err
    # V is nan on |x| < 0.05, between the probe points of Potential
    assert cli.run(["measure", "info", "--potential", "expr:abs(x) + sqrt(abs(x)-0.05)*0"]) == 3
    assert "log-integrand is nan" in capsys.readouterr().err
    assert cli.run(["concentration", "--mode", "enlargement", "--t-grid", "8,4,2", "--count", "100"]) == 3
    assert "t_grid must be increasing" in capsys.readouterr().err
    for last in ("inf", "nan"):
        for kind in (["bp"], ["hyp", "--r", "1.5", "--eps", "0.1"]):
            assert cli.run(["criteria", "--potential", "exp", "--kind", *kind, "--horizons", f"25,{last}"]) == 3
            assert "horizons must be finite" in capsys.readouterr().err
    for x in ("0", "-5"):
        assert cli.run(["spectral", "--potential", "exp", f"--X={x}"]) == 3
        assert "finite X > 0" in capsys.readouterr().err
    # non-finite or out-of-range values that would give a report of nulls or unrefined panels
    for argv, message in (
        (["measure", "info", "--potential", "exp", "--rel-tol", "inf"], "rel_tol"),
        (["concentration", "--mode", "deviation", "--t-grid", "1,nan", "--count", "100"], "t_grid must be finite"),
        (["criteria", "--potential", "exp", "--kind", "hyp", "--r", "1.5", "--eps", "nan"], "eps must be finite"),
        (["concentration", "--mode", "gradcheck", "--n", "0"], "n and count"),
        (["concentration", "--mode", "gradcheck", "--t", "inf"], "t and box must be finite"),
        (["concentration", "--mode", "deviation", "--statistic", "softmax", "--beta", "nan"], "finite beta"),
        (["legendre", "--rprime", "3", "--t", "nan"], "t must not be nan"),
        (["criteria", "--potential", "exp", "--kind", "tailscale", "--horizons", "1"], "x_grid must be finite"),
        # exp(V differences) overflows on a coarse grid, and h * h underflows to 0 on a tiny one
        (["spectral", "--potential", "gaussian", "--X", "1e5", "--N", "200"], "matrix entry is not finite"),
        (["spectral", "--potential", "gaussian", "--X", "1e-300"], "matrix entry is not finite"),
        # a seed that keys no Philox stream
        (["concentration", "--mode", "deviation", "--count", "100", "--seed=-1"], "seed must lie"),
        (["concentration", "--mode", "gradcheck", "--count", "100", "--seed=-1"], "seed must lie"),
        (["concentration", "--mode", "deviation", "--count", "100", "--seed", str(2**64)], "seed must lie"),
        (["concentration", "--mode", "gradcheck", "--count", "100", "--seed", str(2**64)], "seed must lie"),
        # constants outside the two-level bound: a traceback, nulls or wrong costs before
        *((["concentration", "--mode", "enlargement", "--count", "100", *flag], message) for flag, message in (
            (["--C", "0"], "C, A, B must be positive"), (["--C", "-5"], "C, A, B must be positive"),
            (["--C", "nan"], "C, A, B must be positive"), (["--r", "2.5"], "r must lie"),
            (["--r", "0.5"], "r must lie"), (["--r", "nan"], "r must lie"),
        )),
        # a softmax of tiny beta overflows: its values, or their squared deviations
        *((["concentration", "--mode", "deviation", "--statistic", "softmax", "--beta", beta, "--n", "3",
            "--count", "100"], "not finite") for beta in ("1e-320", "1e-300")),
        # every cost overflows to inf, which G < t rejects, with no RuntimeWarning
        (["concentration", "--mode", "gradcheck", "--n", "8", "--r", "1.5", "--t", "3", "--box", "1e200",
          "--count", "100000"], "no sampled points"),
    ):
        assert cli.run(argv) == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, name, key, value", [
    # 2^(r'+1) with r' = 10001 is past the float range: the bmls upper constant reports as inf
    (["criteria", "--potential", "expr:x^4-3*x^2", "--kind", "bmls", "--r", "1.0001",
      "--horizons", "100,200,400,800,1600"], "bmls partial sups", "bracket", [0.0, "inf"]),
    # so is 2^r' in the dual-power budget ratio, read as sum (g/2)^r' / t, which underflows
    (["concentration", "--mode", "gradcheck", "--n", "1", "--r", "1.0001", "--t", "1e+300", "--box", "1000",
      "--count", "1", "--seed", "3"], "max dual-power budget ratio", "value", 0.0),
    # Z = exp(1000.92) overflows; log Z is finite
    (["measure", "info", "--potential", "expr:x^2/2-1000"], "Z", "value", "inf"),
])
def test_values_past_the_float_range_exit_code_0(capsys, argv, name, key, value):
    # a traceback or a RuntimeWarning (an error under pytest) before
    code, doc = run_json(capsys, argv)
    assert code == 0 and capsys.readouterr().err == ""
    jsonschema.validate(doc, JSON_SCHEMA)
    assert get(doc, name)[key] == value


def test_out_of_memory_exit_code_3(capsys, monkeypatch):
    # a spectral --N whose matrices do not fit; the allocation is not attempted
    def discretize(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)")

    monkeypatch.setattr(cli.spectral, "discretize", discretize)
    assert cli.run(["spectral", "--potential", "gaussian", "--N", "100000000000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Unable to allocate" in err


def test_measure_info_nonfinite_points(capsys):
    code = cli.run(["measure", "info", "--potential", "exp", "--tail-at", "nan"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    for x, tail in (("inf", 0.0), ("-inf", 1.0)):
        code, doc = run_json(capsys, ["measure", "info", "--potential", "exp", f"--tail-at={x}"])
        assert code == 0
        assert get(doc, f"tail({x})")["value"] == tail


@pytest.mark.parametrize("command, kind", [
    *(("criteria", k) for k in ("blo", "bmls", "bweighted", "hyp", "asymptotics")),
    *(("evaluate", k) for k in ("lo", "mls", "weighted", "frsob", "itau")),
])
def test_missing_r_is_numerical_validation(capsys, command, kind):
    # no --r (or --tau for itau): an error line and exit 3, not a traceback
    extra = ["--f", "x"] if command == "evaluate" else []
    code = cli.run([command, "--potential", "exp", "--kind", kind, *extra])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_repro_scenario_smoke(capsys):
    code = cli.run(["repro", "--name", "legendre-lower-bound"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    jsonschema.validate(doc, JSON_SCHEMA)
    assert "[PASS]" in captured.err


def test_output_file_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    code = cli.run(["legendre", "--rprime", "3", "--t", "6", "--output", path])
    assert code == 0
    with open(path) as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, JSON_SCHEMA)
    assert get(doc, "h_star")["value"] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
