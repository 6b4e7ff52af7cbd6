"""Record the golden report corpus under ``tests/golden/``.

One JSON file per invocation: the ``--no-timings`` report of ``check``,
``strata``, ``zeros`` and ``euler`` on each shipped scene, with its argv
and exit code. ``tests/test_golden.py`` reruns every file and compares.
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


def run(argv):
    """Exit code and parsed report of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    return code, (json.loads(text) if text else None)


def main_record():
    for command in COMMANDS:
        for scene in SCENES:
            argv = [command, f"scenes/{scene}.scene", "--no-timings"]
            code, report = run(argv)
            path = HERE / f"{command}_{scene}.json"
            record = {"argv": argv, "exit_code": code, "report": report}
            path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
            print(f"{path.name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    main_record()
