import csv
import json
import math

import jsonschema
import pytest

from hardylab import cli


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
    jsonschema.validate(doc, cli.JSON_SCHEMA)
    assert get(doc, "Z")["value"] == pytest.approx(2.0, rel=1e-8)
    assert get(doc, "median")["value"] == 0.0
    assert get(doc, "tail(1)")["value"] == pytest.approx(math.exp(-1) / 2, rel=1e-8)
    # log(2p) = -736.134..., with p the subnormal float nearest 1e-320 (printed as 9.99989e-321)
    assert get(doc, f"quantile({1e-320:g})")["value"] == pytest.approx(math.log(2.0 * 1e-320), rel=1e-12)
    assert doc["config"]["potential"] == "exp"  # reproducible header


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
    jsonschema.validate(doc, cli.JSON_SCHEMA)
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
    jsonschema.validate(doc, cli.JSON_SCHEMA)
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


def test_concentration_gradcheck(capsys):
    code, doc = run_json(
        capsys,
        ["concentration", "--mode", "gradcheck", "--r", "1.5", "--t", "2.0",
         "--count", "20000", "--seed", "1", "--box", "1.5", "--n", "4"],
    )
    assert code == 0
    assert get(doc, "max quadratic budget ratio")["value"] <= 1.0 + 1e-9


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


def test_validation_error_exit_code_2():
    assert cli.run(["criteria", "--potential", "exp"]) == 2  # missing --kind
    assert cli.run(["nonsense"]) == 2
    # the tolerance flags exist only where a measure is built from --potential
    assert cli.run(["legendre", "--rprime", "3", "--t", "2", "--rel-tol", "1e-6"]) == 2
    assert cli.run(["repro", "--name", "legendre-lower-bound", "--eps-trunc", "1e-9"]) == 2
    assert cli.run(["threshold-scan", "--abs-tol", "1e-9"]) == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
def test_numerical_failure_exit_code_3(capsys):
    # flat potential is not integrable: diagnosed during normalization
    code = cli.run(["measure", "info", "--potential", "expr:0*x"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error" in err
    # V is nan on |x| < 0.05, between the probe points of make_potential
    assert cli.run(["measure", "info", "--potential", "expr:abs(x) + sqrt(abs(x)-0.05)*0"]) == 3
    assert "log-integrand is nan" in capsys.readouterr().err


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
    jsonschema.validate(doc, cli.JSON_SCHEMA)
    assert "[PASS]" in captured.err


def test_output_file_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    code = cli.run(["legendre", "--rprime", "3", "--t", "6", "--output", path])
    assert code == 0
    with open(path) as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, cli.JSON_SCHEMA)
    assert get(doc, "h_star")["value"] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
