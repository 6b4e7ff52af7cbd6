"""Command-line front end with bit-stable JSON reports.

Subcommands: ``check`` (corank and fold-chain verdict), ``strata`` (stratum
point clouds and curves), ``zeros`` (covector zeros with nondegeneracy),
``euler`` (mod-2 Euler congruence), ``oracle`` (derivative-free root scan of
a chart system). Reports go to stdout as JSON, or to ``--out``; point clouds
additionally to per-stratum CSV files under ``--csv``.

Exit codes: 0 success (property holds / coframe is Morin), 2 a checked
property definitely fails, 3 a verdict stayed inconclusive or a precondition
was not met, 1 usage or scene errors. Two runs with the same scene and seed
produce byte-identical JSON once ``--no-timings`` strips the only
nondeterministic fields. Non-finite floats appear as strings ("inf", "nan")
so the output stays valid JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    AnalysisError,
    check_corank1,
    check_morin,
    compute_strata,
    euler_congruence,
    find_restricted_zeros,
    find_xi_zeros,
    nondegeneracy,
)
from .model import Scene, SceneError, corank_system, draw_covector, load_scene
from .solver import grid_oracle, match_point_sets

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3


class CliError(Exception):
    """Bad command line or unusable request; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on its own, which would collide with the
    # "property fails" exit; route everything through CliError instead
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# Report plumbing.

def _clean(value):
    """Recursively convert to JSON-serializable, deterministic values."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else repr(f)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _emit(report: dict, args) -> None:
    text = json.dumps(_clean(report), sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, scene: Scene, args, started: float) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "scene": {
            "path": args.scene,
            "name": scene.name,
            "digest": scene.digest(),
            "ambient_dim": scene.ambient_dim,
            "coframe_size": scene.n,
            "manifold_dim": scene.manifold_dim,
            "max_depth": scene.max_depth,
        },
        "options": {
            "seed": args.seed,
            "tol": args.tol,
            "grid": args.grid,
            "csv": args.csv,
        },
        "diagnostics": {
            "tolerances": {
                "residual": scene.tol_residual,
                "rank": scene.tol_rank,
            },
        },
        "results": {},
    }
    if not args.no_timings:
        report["timings"] = {"total_s": time.perf_counter() - started}
    return report


def _load(args) -> Scene:
    scene = load_scene(args.scene)
    updates = {}
    if args.tol is not None:
        if args.tol <= 0:
            raise CliError("--tol must be positive")
        updates["tol_residual"] = scene.tol_residual * args.tol
        updates["tol_rank"] = scene.tol_rank * args.tol
    if args.grid is not None:
        updates["grid"] = args.grid
    return replace(scene, **updates) if updates else scene


def _weights(scene: Scene, args) -> np.ndarray:
    """Effective covector weights: --a, then the scene block, then a draw."""
    if getattr(args, "a", None):
        try:
            vals = np.array([float(v) for v in args.a.split(",")], dtype=float)
        except ValueError as err:
            raise CliError(f"bad --a value: {err}") from None
        if len(vals) != scene.n:
            raise CliError(f"--a needs {scene.n} comma-separated weights")
        if not np.any(vals):
            raise CliError("--a must be nonzero")
        return vals
    if args.seed is None and scene.covector is not None:
        return np.array(scene.covector, dtype=float)
    return draw_covector(scene.n, scene.rng_seed if args.seed is None else args.seed)


def _classification_rows(result) -> dict:
    """Point clouds and curves per depth, JSON-shaped, sorted."""
    out = {}
    for k in sorted(result.points):
        exact = [c.as_dict() for c in result.exact_depth(k)]
        closure = [c.as_dict() for c in result.points[k]]
        curves = [
            {
                "closed": c.closed,
                "length": c.length,
                "points": c.points,
            }
            for c in result.curves.get(k, [])
        ]
        out[str(k)] = {
            "points": closure,
            "exact_count": len(exact),
            "curves": curves,
        }
    return out


def _write_csv(result, scene: Scene, directory: str) -> list:
    """One CSV per stratum depth: x columns, depth, type, component.

    Isolated points carry component -1; traced polylines number their
    component so a plotter can split them.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    header = [*scene.var_names, "depth", "type", "component"]
    written = []
    for k in sorted(set(result.points) | set(result.curves)):
        path = root / f"stratum_{k}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for cls in result.points.get(k, []):
                writer.writerow([*(repr(float(v)) for v in cls.x), cls.depth, cls.kind, -1])
            for i, curve in enumerate(result.curves.get(k, [])):
                for row in curve.points:
                    writer.writerow([*(repr(float(v)) for v in row), k, f"A{k}", i])
        written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_check(scene: Scene, args, report: dict) -> int:
    corank = check_corank1(scene)
    strata = compute_strata(scene)
    morin = check_morin(scene, strata=strata)
    report["results"] = {
        "corank1": corank,
        "morin": morin,
        "strata_counts": {str(k): len(strata.exact_depth(k)) for k in strata.points},
        "curves": {
            str(k): [{"closed": c.closed, "length": c.length} for c in cs]
            for k, cs in strata.curves.items()
        },
    }
    report["diagnostics"]["notes"] = list(strata.notes)
    if not corank["passed"]:
        return EXIT_FAILS
    if corank["inconclusive"] or morin["verdict"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK if morin["verdict"] == "morin" else EXIT_FAILS


def _cmd_strata(scene: Scene, args, report: dict) -> int:
    depth = args.depth if args.depth is not None else scene.max_depth
    if not (1 <= depth <= scene.n):
        raise CliError(f"--depth {depth} out of range 1..{scene.n}")
    result = compute_strata(scene, max_depth=depth)
    report["results"] = {
        "max_depth": depth,
        "strata": _classification_rows(result),
        "notes": list(result.notes),
    }
    if args.csv:
        report["diagnostics"]["csv_files"] = _write_csv(result, scene, args.csv)
    return EXIT_OK


def _cmd_zeros(scene: Scene, args, report: dict) -> int:
    k = args.stratum
    if not (0 <= k <= scene.n):
        raise CliError(f"--stratum {k} out of range 0..{scene.n}")
    weights = _weights(scene, args)
    strata = compute_strata(scene)
    if k == 0:
        records = find_xi_zeros(scene, weights)
    else:
        records = find_restricted_zeros(scene, k, weights, strata=strata)
    records = [nondegeneracy(scene, r, weights) for r in records]

    deepest = np.array([c.x for c in strata.exact_depth(scene.max_depth)])
    distances = []
    for r in records:
        if len(deepest):
            distances.append(float(np.min(np.linalg.norm(deepest - r.x, axis=1))))
    on_first = [
        bool(r.classification is not None and r.classification.depth >= max(1, k))
        for r in records
    ]
    properties = {
        "count": len(records),
        "count_mod_2": len(records) % 2,
        "all_nondegenerate": all(r.nondegenerate == "yes" for r in records),
        "all_on_stratum": all(on_first) if records else True,
        "min_distance_to_deepest": min(distances) if distances else None,
        "flagged": sum(1 for r in records if r.flags),
    }
    if k >= 1 and len(deepest):
        properties["deepest_points_included"] = all(
            any(np.linalg.norm(r.x - p) <= 1e-6 * scene.box_diameter() for r in records)
            for p in deepest
        )
    report["results"] = {
        "stratum": k,
        "weights": [float(w) for w in weights],
        "records": [r.as_dict() for r in records],
        "properties": properties,
    }
    bad = any(r.nondegenerate != "yes" for r in records) or any(
        "unclear" in f for r in records for f in r.flags
    )
    return EXIT_INCONCLUSIVE if bad else EXIT_OK


def _cmd_euler(scene: Scene, args, report: dict) -> int:
    result = euler_congruence(scene, seed=args.seed)
    report["results"] = result.as_dict()
    if result.congruence_holds is True:
        return EXIT_OK
    if result.congruence_holds is False:
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


def _cmd_oracle(scene: Scene, args, report: dict) -> int:
    depth = args.depth if args.depth is not None else 1
    if not (1 <= depth <= scene.n):
        raise CliError(f"--depth {depth} out of range 1..{scene.n}")
    resolution = args.grid if args.grid is not None else scene.grid
    if resolution ** scene.ambient_dim > 2 ** 24:
        raise CliError(
            f"grid {resolution} in dimension {scene.ambient_dim} exceeds the "
            "scan budget; pass a smaller --grid"
        )
    chart = None
    if depth == 1:
        system = corank_system(scene)
        expected = None
    else:
        strata = compute_strata(scene, max_depth=depth)
        expected = np.array([c.x for c in strata.exact_depth(depth)])
        best, best_margin = None, -1.0
        for chain in strata.chains:
            if chain.depth < depth:
                continue
            margin = 1.0
            if len(expected):
                margin = float(np.min(chain.chart(depth).validity_margin(expected)))
            if margin > best_margin:
                best, best_margin = chain, margin
        if best is None:
            report["results"] = {"depth": depth, "roots": [], "note": "no chart chain reaches this depth"}
            return EXIT_INCONCLUSIVE
        chart = best.chart(depth)
        system = chart.equations
    roots = grid_oracle(system, scene.box, resolution, tol_residual=scene.tol_residual)
    roots = roots[np.lexsort(roots.T[::-1])] if len(roots) else roots
    report["results"] = {
        "depth": depth,
        "resolution": resolution,
        "stratum_dim": scene.stratum_dim(depth),
        "raw_roots": roots,
        "raw_count": len(roots),
    }
    if chart is not None:
        # chart equations describe the stratum only where the chart is
        # valid; roots in the degenerate region are construction artifacts
        margins = chart.validity_margin(roots) if len(roots) else np.zeros(0)
        keep = margins >= 1e-2
        report["results"]["validity_margins"] = margins
        roots = roots[keep]
    report["results"]["roots"] = roots
    report["results"]["count"] = len(roots)
    if scene.stratum_dim(depth) > 0:
        report["results"]["note"] = (
            "stratum is not zero-dimensional; the scan reports isolated "
            "solutions only"
        )
    if expected is not None:
        report["results"]["solver_match"] = match_point_sets(roots, expected, 1e-3)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "strata": _cmd_strata,
    "zeros": _cmd_zeros,
    "euler": _cmd_euler,
    "oracle": _cmd_oracle,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="morin", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("scene", help="scene file path")
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--csv", help="directory for per-stratum CSV point clouds")
    common.add_argument("--seed", type=int, default=None, help="covector draw seed")
    common.add_argument(
        "--tol", type=float, default=None,
        help="multiply the scene's residual and rank tolerances by this factor",
    )
    common.add_argument("--no-timings", action="store_true", help="omit timing fields")
    common.add_argument(
        "--grid", type=int, default=None,
        help="override the scene grid (solver seeding and oracle resolution)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common], help="corank-1 and fold-chain verdict")
    p_strata = sub.add_parser("strata", parents=[common], help="stratum points and curves")
    p_strata.add_argument("--depth", type=int, default=None, help="deepest stratum to compute")
    p_zeros = sub.add_parser("zeros", parents=[common], help="covector zeros with nondegeneracy")
    p_zeros.add_argument("--a", help="comma-separated covector weights")
    p_zeros.add_argument("--stratum", type=int, default=0,
                         help="restriction depth (0 = whole manifold)")
    sub.add_parser("euler", parents=[common], help="mod-2 Euler congruence")
    p_oracle = sub.add_parser("oracle", parents=[common], help="derivative-free chart root scan")
    p_oracle.add_argument("--depth", type=int, default=None, help="chart depth to scan")
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        scene = _load(args)
        report = _envelope(args.command, scene, args, started)
        code = _COMMANDS[args.command](scene, args, report)
    except (CliError, SceneError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR
    except AnalysisError as err:
        sys.stderr.write(f"inconclusive: {err}\n")
        return EXIT_INCONCLUSIVE
    report["exit_code"] = code
    if not args.no_timings:
        report["timings"]["total_s"] = time.perf_counter() - started
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
