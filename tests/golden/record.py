"""Record the golden report corpus under ``tests/golden/``.

One JSON file per invocation: the ``--no-timings`` report of ``check``,
``strata``, ``zeros``, ``euler`` and ``zeros --stratum 1`` on each shipped
scene, and of ``oracle --depth 2 --grid 64`` on the scenes in
``ORACLE_SCENES``, with its argv and exit code. ``tests/test_golden.py``
reruns every file and compares.
Record only from a program whose reports are known good:

    PYTHONPATH=src python tests/golden/record.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from morin.cli import main

HERE = Path(__file__).resolve().parent
COMMANDS = ("check", "strata", "zeros", "euler")
SCENES = ("hyperboloid", "quadratic_well", "sphere_v", "sphere_w", "swallowtail", "torus")
# the depth-2 scans that take about a second; the other scenes take 5-10 s
ORACLE_SCENES = ("hyperboloid", "sphere_w")


def run(argv):
    """Exit code and parsed report of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    return code, (json.loads(text) if text else None)


def invocations():
    """(file stem, argv) of every golden report."""
    for command in COMMANDS:
        for scene in SCENES:
            yield f"{command}_{scene}", [command, f"scenes/{scene}.scene", "--no-timings"]
    for scene in SCENES:
        argv = ["zeros", f"scenes/{scene}.scene", "--stratum", "1", "--no-timings"]
        yield f"zeros_stratum1_{scene}", argv
    for scene in ORACLE_SCENES:
        argv = ["oracle", f"scenes/{scene}.scene", "--depth", "2", "--grid", "64", "--no-timings"]
        yield f"oracle_depth2_{scene}", argv


def main_record():
    for stem, argv in invocations():
        code, report = run(argv)
        path = HERE / f"{stem}.json"
        record = {"argv": argv, "exit_code": code, "report": report}
        path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
        print(f"{path.name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    main_record()
