"""One fresh process of a benchmark run: set up, then optionally one pass.

    python3 perfbench/worker.py <workload> setup|pass|trace

``setup`` imports ``morin.cli`` and parses the workload's scenes, then
stops. ``pass`` also runs every invocation of the workload once through
``morin.cli.main``; ``trace`` does the same with every layer traced. The
process prints one JSON object on its standard output. CLI reports are
captured in memory and returned in that object.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def run_invocations(invocations, cli) -> list:
    out = []
    for inv in invocations:
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(inv.cli_argv())
        except Exception as exc:  # counted as a failed invocation
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        out.append({
            "metric": inv.metric,
            "argv": inv.cli_argv(),
            "exit_code": code,
            "seconds": seconds,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()[-2000:],
            "error": error,
        })
    return out


def main(argv) -> int:
    name, mode = argv
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, scenes

    import morin.cli
    from morin.model import load_scene

    for scene in scenes(name):
        load_scene(scene)
    result = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        start = time.perf_counter()
        result["invocations"] = run_invocations(WORKLOADS[name], morin.cli)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["provenance"] = provenance()
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["covered_s"] = tracer.covered_s()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
