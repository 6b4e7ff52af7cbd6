"""Command-line behavior: exit codes, report shape, and file outputs.

Runs the entry point in-process so exit codes and JSON bytes can be
asserted without shelling out. The quadratic well is the workhorse
scene here because its whole tower is one point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morin import cli
from morin.cli import _clean, main

QW = "scenes/quadratic_well.scene"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


# -- failure paths ------------------------------------------------------------


def test_missing_scene_is_a_usage_error(capsys):
    code, out = run(capsys, "check", "scenes/absent.scene")
    assert code == 1
    assert "error:" in out.err and out.out == ""


def test_malformed_scene_value_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.scene"
    path.write_text("[scene]\nambient_dim = 2\nvars = x1, x2\n[coframe]\nn = two\n")
    code, out = run(capsys, "check", str(path))
    assert code == 1 and out.out == ""
    assert out.err.startswith("error: line 5: bad n: ")
    assert "Traceback" not in out.err


def test_stratum_out_of_range(capsys):
    code, out = run(capsys, "zeros", QW, "--stratum", "4")
    assert code == 1 and "out of range" in out.err


def test_covector_weight_count_checked(capsys):
    code, out = run(capsys, "zeros", QW, "--a", "1,2,3")
    assert code == 1 and "weights" in out.err


def test_zero_covector_rejected(capsys):
    code, out = run(capsys, "zeros", QW, "--a", "0")
    assert code == 1 and "nonzero" in out.err


def test_empty_covector_weights_rejected(capsys):
    # an empty --a used to fall through to the scene's weights
    code, out = run(capsys, "zeros", QW, "--a", "")
    assert code == 1 and out.out == ""
    assert out.err.startswith("error: bad --a value: ")


def test_negative_tol_rejected(capsys):
    code, out = run(capsys, "strata", QW, "--tol", "-2")
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_rejected(capsys, value):
    code, out = run(capsys, "strata", QW, "--tol", value)
    assert code == 1 and "finite" in out.err and out.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_covector_weight_rejected(capsys, value):
    code, out = run(capsys, "zeros", QW, "--a", value)
    assert code == 1 and "finite" in out.err and out.out == ""
    assert "Traceback" not in out.err


def test_negative_seed_rejected(capsys):
    # numpy's default_rng would raise on it with a traceback
    code, out = run(capsys, "euler", "scenes/torus.scene", "--seed", "-1")
    assert code == 1 and out.out == ""
    assert out.err == "error: --seed must be nonnegative\n"


def test_oracle_grid_budget(capsys):
    code, out = run(capsys, "oracle", "scenes/swallowtail.scene", "--grid", "300")
    assert code == 1 and "budget" in out.err


def test_unknown_command(capsys):
    code, out = run(capsys, "frobnicate", QW)
    assert code == 1


# -- report envelope ----------------------------------------------------------


def test_strata_report_shape(capsys):
    code, out = run(capsys, "strata", QW, "--no-timings")
    assert code == 0
    report = json.loads(out.out)
    assert report["schema_version"] == "1"
    assert report["command"] == "strata"
    assert report["scene"]["name"] == "quadratic_well"
    assert len(report["scene"]["digest"]) == 64
    assert report["diagnostics"]["tolerances"] == {"residual": 1e-9, "rank": 1e-8}
    assert "timings" not in report
    block = report["results"]["strata"]["1"]
    assert block["exact_count"] == 1
    x = block["points"][0]["x"]
    assert abs(x[0]) < 1e-6 and abs(x[1]) < 1e-6


def test_timings_present_by_default(capsys):
    code, out = run(capsys, "strata", QW)
    report = json.loads(out.out)
    assert report["timings"]["total_s"] > 0


def test_tol_flag_scales_scene_tolerances(capsys):
    code, out = run(capsys, "strata", QW, "--no-timings", "--tol", "10")
    report = json.loads(out.out)
    assert report["diagnostics"]["tolerances"]["residual"] == pytest.approx(1e-8)
    assert report["diagnostics"]["tolerances"]["rank"] == pytest.approx(1e-7)


def test_out_file_and_quiet_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "strata", QW, "--no-timings", "--out", str(target))
    assert code == 0 and out.out == ""
    assert json.loads(target.read_text())["command"] == "strata"


def test_repeated_runs_are_byte_identical(capsys):
    _, first = run(capsys, "strata", QW, "--no-timings")
    _, second = run(capsys, "strata", QW, "--no-timings")
    assert first.out == second.out


def test_csv_points_file(tmp_path, capsys):
    code, out = run(
        capsys, "strata", QW, "--no-timings", "--csv", str(tmp_path / "pts")
    )
    assert code == 0
    lines = (tmp_path / "pts" / "stratum_1.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,depth,type,component"
    assert lines[1].endswith(",1,A1,-1")


def test_csv_curve_components(tmp_path, capsys):
    code, out = run(
        capsys,
        "strata",
        "scenes/hyperboloid.scene",
        "--depth",
        "1",
        "--no-timings",
        "--csv",
        str(tmp_path / "pts"),
    )
    assert code == 0
    rows = (tmp_path / "pts" / "stratum_1.csv").read_text().splitlines()[1:]
    components = {row.rsplit(",", 1)[1] for row in rows}
    assert {"0", "1"} <= components


# -- command results ----------------------------------------------------------


def test_check_quadratic_well(capsys):
    code, out = run(capsys, "check", QW, "--no-timings")
    assert code == 0
    report = json.loads(out.out)
    assert report["results"]["morin"]["verdict"] == "morin"
    assert report["results"]["corank1"]["passed"] is True
    assert report["exit_code"] == 0


def test_zeros_unrestricted_quadratic_well(capsys):
    code, out = run(capsys, "zeros", QW, "--no-timings")
    assert code == 0
    props = json.loads(out.out)["results"]["properties"]
    assert props["count"] == 1 and props["all_nondegenerate"]


def test_zeros_explicit_weights_echoed(capsys):
    code, out = run(capsys, "zeros", QW, "--no-timings", "--a", "2")
    assert code == 0
    assert json.loads(out.out)["results"]["weights"] == [2.0]


def test_euler_inconclusive_on_open_surface(capsys):
    code, out = run(capsys, "euler", "scenes/hyperboloid.scene", "--no-timings")
    assert code == 3
    report = json.loads(out.out)
    assert report["results"]["congruence_holds"] is None
    assert report["exit_code"] == 3


def test_oracle_refuses_strata_that_are_not_points(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a stratum that is not a point set")

    monkeypatch.setattr(cli, "grid_oracle", no_scan)
    note = "stratum is not zero-dimensional; the scan reports isolated solutions only"
    for scene, depth, stratum_dim in (("torus", 1, 1), ("swallowtail", 1, 2), ("swallowtail", 2, 1)):
        argv = ("oracle", f"scenes/{scene}.scene", "--depth", str(depth), "--grid", "128")
        code, out = run(capsys, *argv, "--no-timings")
        assert code == 3
        assert json.loads(out.out)["results"] == {
            "depth": depth,
            "resolution": 128,
            "stratum_dim": stratum_dim,
            "note": note,
        }
    # the depth and grid-budget checks come first
    code, out = run(capsys, "oracle", "scenes/torus.scene", "--depth", "3")
    assert code == 1 and "out of range" in out.err
    code, out = run(capsys, "oracle", "scenes/torus.scene", "--depth", "1", "--grid", "300")
    assert code == 1 and "budget" in out.err


def test_oracle_first_stratum_quadratic_well(capsys):
    code, out = run(capsys, "oracle", QW, "--no-timings", "--grid", "64")
    assert code == 0
    results = json.loads(out.out)["results"]
    assert results["count"] == 1 and results["stratum_dim"] == 0
    root = results["roots"][0]
    assert abs(root[0]) < 1e-4 and abs(root[1]) < 1e-4


# -- start-up -----------------------------------------------------------------

# Prints, as JSON pairs, the scipy modules loaded after ``import morin.cli``
# and after each command of the argv list given as its argument.
_SCIPY_PROBE = """
import contextlib, io, json, sys
from morin.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = [["import morin.cli", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv + ["--no-timings"])
    loaded.append([" ".join(argv), scipy_modules()])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_where_it_is_used():
    # every command runs in a fresh process, so a module loaded at import
    # is start-up paid on every run; only the gelsy least-squares solve of
    # zeros --stratum and euler needs scipy, and the oracle's cluster
    # labels and matching are numpy
    argvs = [[cmd, f"scenes/{s}.scene"] for s in ("quadratic_well", "hyperboloid")
             for cmd in ("check", "strata", "zeros")]
    argvs += [["oracle", "scenes/torus.scene", "--depth", "2", "--grid", "32"],
              ["oracle", QW, "--depth", "1", "--grid", "32"]]
    argvs.append(["zeros", QW, "--stratum", "1"])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300, check=True,
    )
    *numpy_only, (_, stratum) = json.loads(probe.stdout)
    assert [step for step, modules in numpy_only if modules] == []
    assert len(numpy_only) == 9 and "scipy.linalg" in stratum


# -- serialization helper -----------------------------------------------------


def test_clean_handles_numpy_and_nonfinite():
    import numpy as np

    data = {
        "a": np.float64(1.5),
        "b": np.array([1, 2]),
        "c": float("inf"),
        "d": float("nan"),
        "e": np.bool_(True),
        3: "int key",
    }
    out = _clean(data)
    assert out["a"] == 1.5 and out["b"] == [1, 2]
    assert out["c"] == "inf" and out["d"] == "nan"
    assert out["e"] is True and out["3"] == "int key"
    json.dumps(out)
