"""Reference reports and the comparison every benchmark report must pass.

The references are the ``--no-timings`` reports and exit codes of every
invocation, recorded from the unmodified program with ``record.py``.
Verdicts, counts, flags, strings and exit codes must match exactly; floats
must agree to 1e-9 relative (1e-12 absolute near zero), so BLAS rounding
differences between machines do not count as failures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list:
    return json.loads(reference_path(workload).read_text())


def write_reference(workload: str, invocations: list) -> None:
    rows = [
        {"argv": inv["argv"], "exit_code": inv["exit_code"], "report": json.loads(inv["stdout"])}
        for inv in invocations
    ]
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")


def difference(got, want, where: str = "report"):
    """First place where ``got`` departs from ``want``, or None."""
    if isinstance(want, bool) or isinstance(got, bool) or want is None or isinstance(want, str):
        return None if type(got) is type(want) and got == want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if not isinstance(got, (int, float)):
            return f"{where}: {got!r} != {want!r}"
        if isinstance(want, int) and isinstance(got, int):
            return None if got == want else f"{where}: {got} != {want}"
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return None if ok else f"{where}: {got!r} != {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = difference(g, w, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in sorted(want):
            diff = difference(got[key], want[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    return f"{where}: unexpected reference value {want!r}"


def check_invocation(inv: dict, ref: dict):
    """Why an invocation's outcome differs from its reference, or None."""
    if inv["error"] is not None:
        return f"raised {inv['error']}"
    if inv["argv"] != ref["argv"]:
        return f"argv {inv['argv']} != reference {ref['argv']}"
    if inv["exit_code"] == 1:
        return f"exit code 1: {inv['stderr'].strip()}"
    if inv["exit_code"] != ref["exit_code"]:
        return f"exit code {inv['exit_code']} != {ref['exit_code']}"
    try:
        report = json.loads(inv["stdout"])
    except ValueError:
        return "report is not JSON"
    return difference(report, ref["report"])
