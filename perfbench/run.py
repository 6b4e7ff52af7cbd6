"""Benchmark of the morin CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload verify|census|oracle|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload is a closed loop of sequential
``morin.cli.main`` invocations, one client, no added threads. Every process
below is a fresh ``worker.py``: two set-up probes, then passes of the whole
workload until ``--seconds`` have gone (at least one). Each pass parses
its scenes fresh, as a user's CLI call would, and every report is checked
against the reference recorded from the unmodified program (``check.py``).

With ``--trace 0`` the last line of output carries the end-to-end metrics.
With ``--trace 1`` the run makes one traced pass instead, and the last line
carries the per-layer metrics measured by ``tracer.py`` from outside the
package. Traced reports pass the same check. ``perfbench/.state`` keeps, for
each workload and source, the untraced pass times of earlier runs and the
counters of the last traced run. The tracing overhead is the traced wall
time minus the median untraced one; when no earlier run recorded one, an
untraced pass follows the traced pass. The traced counters must equal those
of the previous traced run. The lines before the last one give every metric by
name and unit, the per-invocation seconds and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_invocation, load_reference, reference_path
from tracer import COUNTERS, TARGETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # every worker of one workload must end by then

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def per_layer_units() -> dict:
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({key: "count" for key in COUNTERS})
    units["solver.solve_points.yield"] = "fraction"
    units["cli.report_bytes"] = "bytes"
    for key in ("wall_s", "untraced_wall_s", "overhead_s", "unattributed_s"):
        units[f"trace.{key}"] = "s"
    return units


PER_LAYER = per_layer_units()


def worker_env() -> dict:
    """The caller's environment with OpenBLAS capped at one thread per CPU."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    asked = env.get("OPENBLAS_NUM_THREADS", "")
    env["OPENBLAS_NUM_THREADS"] = str(min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 else nproc)
    return env


def spawn(name: str, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, mode],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {mode} worker ran past the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name} {mode} worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    files = [*sorted((ROOT / "src" / "morin").glob("*.py")), *sorted((ROOT / "scenes").glob("*")),
             *sorted(HERE.glob("*.py"))]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def load_state(name: str) -> dict:
    path = STATE / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_state(name: str, state: dict) -> None:
    STATE.mkdir(exist_ok=True)
    tmp = STATE / f"{name}.tmp"
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, STATE / f"{name}.json")


def check_reports(runs: list, refs: list) -> tuple:
    """Invocations checked and the failures among them."""
    failures = []
    checked = 0
    for p in runs:
        checked += len(refs)
        if len(p["invocations"]) != len(refs):
            failures += [f"{len(p['invocations'])} invocations, reference has {len(refs)}"] * len(refs)
            continue
        for inv, ref in zip(p["invocations"], refs):
            why = check_invocation(inv, ref)
            if why:
                failures.append(f"{inv['metric']}: {why}")
    return checked, failures


def per_layer(traced: dict, untraced_wall_s: float) -> dict:
    layers = dict(traced["layers"])
    seeds = layers["solver.solve_points.seeds"]
    layers["solver.solve_points.yield"] = layers["solver.solve_points.converged"] / seeds if seeds else 0.0
    layers["cli.report_bytes"] = sum(len(inv["stdout"]) for inv in traced["invocations"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.untraced_wall_s"] = untraced_wall_s
    layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall_s
    layers["trace.unattributed_s"] = traced["wall_s"] - traced["covered_s"]
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; traced runs give per-layer metrics only."""
    refs = load_reference(name)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Earlier runs of this source in this checkout left their untraced pass
    # times and the last traced run's counters here.
    key = f"{name}:{source_digest()}"
    state = load_state(name).get(key, {"untraced_wall_s": [], "counters": None})
    passes, setups, traced = [], [], None
    if trace:
        traced = spawn(name, "trace", deadline)
        if not state["untraced_wall_s"]:
            passes.append(spawn(name, "pass", deadline))
    else:
        setups = [spawn(name, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(spawn(name, "pass", deadline))
            setups.append(passes[-1]["setup_s"])
    state["untraced_wall_s"] += [p["wall_s"] for p in passes]

    checked, failures = check_reports(passes + ([traced] if traced else []), refs)
    ok_frac = (checked - len(failures)) / checked
    env = (traced or passes[0])["provenance"]
    attempted = checked + 1
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        failures.append(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    res = {"workload": name, "failures": failures}
    if trace:
        res["layers"] = per_layer(traced, statistics.median(state["untraced_wall_s"]))
        counters = {k: v for k, v in res["layers"].items() if PER_LAYER[k] in ("count", "bytes")}
        before = state["counters"]
        attempted += 1
        if before is not None and counters != before:
            diffs = [f"{k}: {v} != {before.get(k)}" for k, v in counters.items() if v != before.get(k)]
            failures.append("traced counters differ from the previous traced run: " + "; ".join(diffs))
        env["counters_compared"] = before is not None
        state["counters"] = counters
    else:
        res["end_to_end"] = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_frac": ok_frac,
        }
        res["invocation_s"] = {
            inv.metric: statistics.median(p["invocations"][i]["seconds"] for p in passes)
            for i, inv in enumerate(WORKLOADS[name])
        }
    save_state(name, {**load_state(name), key: state})
    env.update({"workload": name, "seed": seed, "passes": len(passes), "setup_samples": len(setups),
                "git_sha": git_sha(), "source_sha256": source_digest()})
    res.update({"attempted": attempted, "provenance": env})
    return res


def print_table(res: dict) -> None:
    name = res["workload"]
    print(f"== {name}")
    if "end_to_end" in res:
        for key, unit in END_TO_END.items():
            print(f"{name}  {key:<48} {res['end_to_end'][key]:>16.6f} {unit}")
        for key, value in res["invocation_s"].items():
            print(f"{name}  {key:<48} {value:>16.6f} s")
    else:
        for key, unit in PER_LAYER.items():
            print(f"{name}  {key:<48} {res['layers'][key]:>16.6f} {unit}")
        print(f"{name}  (no layer queues or worker threads: no waiting time to report)")
    for why in res["failures"]:
        print(f"{name}  FAILED {why}")
    print(json.dumps({"provenance": res["provenance"]}, sort_keys=True))


def metrics(res: dict) -> dict:
    """The declared metrics of one workload: per-layer if traced, else end-to-end."""
    if "layers" in res:
        return {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    return {k: {"value": res["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "morin" / "cli.py").is_file() or not (ROOT / "scenes").is_dir():
            raise BenchError(f"no morin source tree under {ROOT}")
        for name in names:
            if not reference_path(name).is_file():
                raise BenchError(f"missing reference reports for {name}")
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    for res in results:
        print_table(res)
    if len(results) == 1:
        values = metrics(results[0])
    else:
        # every workload's metrics under its name, with the per-invocation seconds
        values = {}
        for res in results:
            extra = {k: {"value": v, "unit": "s"} for k, v in res.get("invocation_s", {}).items()}
            for k, v in {**metrics(res), **extra}.items():
                values[f"{res['workload']}.{k}"] = v
    failed = sum(len(res["failures"]) for res in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(res["attempted"] for res in results),
        "failed": failed,
        "metrics": values,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
