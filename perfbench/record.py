"""Record the reference reports the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Run from the repository root on the unmodified program. Runs one untraced
pass of each named workload (all of them by default) and writes its
``--no-timings`` reports and exit codes to ``perfbench/reference/``.
"""

from __future__ import annotations

import sys
import time

from check import write_reference
from run import RUN_LIMIT_S, spawn
from workloads import WORKLOADS


def main(argv) -> int:
    for name in argv or WORKLOADS:
        result = spawn(name, "pass", time.monotonic() + RUN_LIMIT_S)
        for inv in result["invocations"]:
            if inv["error"] is not None:
                sys.stderr.write(f"error: {inv['metric']} raised {inv['error']}\n")
                return 1
        write_reference(name, result["invocations"])
        print(name, [inv["exit_code"] for inv in result["invocations"]])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
