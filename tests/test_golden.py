"""Golden report corpus: every subcommand that classifies, on every scene,
the restricted zeros of ``zeros --stratum 1``, and the depth-2 oracle scan
of two scenes.

Each file under ``tests/golden/`` holds the argv, exit code and
``--no-timings`` report of one CLI run, recorded by
``tests/golden/record.py``. A rerun must give the same exit code, and a
report whose verdicts, counts, strings and flags match exactly; floats
must agree to 1e-9 relative, so BLAS differences between machines do not
trip it.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from morin.cli import main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def _mismatch(expected, actual, path="report"):
    """Where ``actual`` first departs from ``expected``, or None."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            return None
        return f"{path}: {actual!r} != {expected!r}"
    if type(expected) is not type(actual):
        return f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = _mismatch(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _mismatch(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"


def test_corpus_is_complete():
    names = {p.stem for p in GOLDEN}
    scenes = {p.stem for p in Path("scenes").glob("*.scene")}
    expected = {f"{c}_{s}" for c in ("check", "strata", "zeros", "euler") for s in scenes}
    expected |= {f"zeros_stratum1_{s}" for s in scenes}
    expected |= {f"oracle_depth2_{s}" for s in ("hyperboloid", "sphere_w")}
    assert names == expected


def test_mismatch_tolerates_roundoff_only():
    assert _mismatch({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}) is None
    assert _mismatch({"a": 1.0}, {"a": 1.0 + 1e-6}) == "report.a: 1.000001 != 1.0"
    assert _mismatch({"n": 1}, {"n": 1.0}) is not None
    assert _mismatch([True], [1]) is not None
    assert _mismatch({"a": 1}, {"b": 1}) is not None


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_report_matches_golden(path):
    record = json.loads(path.read_text())
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(record["argv"])
    assert code == record["exit_code"]
    report = json.loads(out.getvalue()) if out.getvalue() else None
    assert _mismatch(record["report"], report) is None
