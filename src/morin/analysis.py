"""Geometric analysis of corank-1 coframe degeneracies.

Builds on the chart machinery in :mod:`morin.model`: point classification
along the stratum tower, genericity verification of a coframe, zeros of a
weighted covector and of its restrictions to strata (through a multiplier
system), nondegeneracy via bordered determinants, and a mod-2 Euler
characteristic congruence assembled from those zero counts.

Every verdict in this module is tri-state (``yes`` / ``no`` /
``inconclusive``). Rank decisions are only trusted when their singular
value gap clears ``TRUST_GAP``; stratum membership is decided by the
first-order distance estimate |value| / |gradient|, with a refusal band
between the acceptance and rejection radii. Borderline numerics therefore
surface as ``inconclusive`` rather than as confident claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .expr import (
    System,
    const,
    differentiate,
    eval_block,
    mul,
    simplify,
    sub,
    symbolic_determinant,
    var,
)
from .linalg import RankReport, determinant, least_squares, numeric_rank
from .model import (
    VALIDITY_FACTOR,
    Scene,
    build_chain,
    build_chain_at,
    corank_system,
    draw_covector,
)
from .solver import (
    cell_centers,
    greedy_dedup,
    grid_seeds,
    lattice_points,
    solve_points,
    trace_curves,
)

TRUST_GAP = 100.0  # minimum singular-value gap ratio for a definite rank verdict
MEMBER_RADIUS = 1e-6  # stratum membership: first-order distance per box diameter
REJECT_RADIUS = 1e-4  # beyond this (relative) distance a point is off the stratum
BOUNDARY_FRACTION = 0.05  # shell width (per axis) for the compactness surrogate
MAX_REDRAWS = 10  # covector redraw attempts before giving up on genericity


class AnalysisError(RuntimeError):
    """A precondition failed or genericity could not be reached."""


def _trusted(report: RankReport, rank: int) -> str:
    """Tri-state verdict for the claim ``numeric rank == rank``."""
    if report.rank != rank:
        measured = report.gap_ratio if not report.full else report.full_rank_margin
        return "no" if measured >= TRUST_GAP else "inconclusive"
    measured = report.full_rank_margin if report.full else report.gap_ratio
    return "yes" if measured >= TRUST_GAP else "inconclusive"


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows are dropped.

    Rank and span questions should not depend on equation scaling, so
    every stacked-gradient rank test goes through this."""
    norms = np.linalg.norm(mat, axis=1)
    keep = norms > 0
    return mat[keep] / norms[keep, None]


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``rows``."""
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.count_nonzero(sv > 1e-12 * (sv[0] if len(sv) else 1.0)))
    return vt[rank:].T


def _omega_scale(scene: Scene) -> float:
    """Largest coframe row norm over a coarse box lattice.

    The restriction-rank test needs an external scale: a single row shrinking
    to zero at a point still has full rank relative to its own largest
    singular value, so the cutoff must reference how big the coframe is
    elsewhere. Computed once per scene (the lattice never changes).
    """

    def build() -> float:
        pts = grid_seeds(scene.box, 6, cap=4096)
        norms = np.linalg.norm(scene.omega_at(pts), axis=2)
        finite = norms[np.isfinite(norms)]
        scale = float(finite.max()) if len(finite) else 1.0
        return max(scale, 1e-12)

    return scene.memo(("omega_scale",), build)


def _restriction_corank(restriction: np.ndarray, n: int, cut: float) -> tuple:
    """Corank of the tangent-space restriction with a trust measure.

    Singular values are compared against the absolute cutoff ``cut``; the
    trust measure is how far the nearest singular value stays from it on
    either side (the refusal band sits at ``TRUST_GAP``).
    """
    sv = np.linalg.svd(restriction, compute_uv=False) if restriction.size else np.zeros(0)
    sv = np.concatenate([sv, np.zeros(n - len(sv))]) if len(sv) < n else sv
    rank = int(np.count_nonzero(sv > cut))
    kept = sv[rank - 1] / cut if rank else math.inf
    dropped = cut / sv[rank] if rank < n and sv[rank] > 0 else math.inf
    return n - rank, float(min(kept, dropped))


def _intersection_dim(omega_vals, base_grads, conormal_grads, tol) -> tuple:
    """dim(span of coframe restrictions ∩ conormal of the previous stratum).

    The coframe restriction to the tangent space kills exactly the part of
    the row span lying in the manifold conormal, so the intrinsic dimension
    is dim(A ∩ W) - dim(A ∩ B) with A the ambient coframe rows, W the
    ambient conormal of the previous stratum and B ⊆ W the manifold
    conormal. Trust is the weakest of the rank verdicts involved.
    """
    A = _unit_rows(omega_vals)
    B = _unit_rows(base_grads)
    W = _unit_rows(conormal_grads)
    ra = numeric_rank(A, tol)
    rw = numeric_rank(W, tol)
    raw = numeric_rank(np.vstack([A, W]) if len(W) else A, tol)
    reports = [ra, rw, raw]
    dim_aw = ra.rank + rw.rank - raw.rank
    if len(B):
        rb = numeric_rank(B, tol)
        rab = numeric_rank(np.vstack([A, B]), tol)
        reports += [rb, rab]
        dim_ab = ra.rank + rb.rank - rab.rank
    else:
        dim_ab = 0
    trust = "yes"
    for rep in reports:
        measured = rep.full_rank_margin if rep.full else rep.gap_ratio
        if measured < TRUST_GAP:
            trust = "inconclusive"
    return dim_aw - dim_ab, trust


# ---------------------------------------------------------------------------
# Point classification.

@dataclass(frozen=True, eq=False)
class Classification:
    """Stratum type of one point.

    ``kind`` is ``regular``, ``A1`` … ``A<n>``, or ``inconclusive``;
    ``depth`` is the stratum depth (0 for regular, -1 when inconclusive).
    ``intersection_dims`` holds, for each depth reached, the dimension of
    the intersection between the coframe row span and the conormal of the
    previous stratum; a depth-k point must show 0, 1, …, k-1.
    """

    x: np.ndarray
    kind: str
    depth: int
    intersection_dims: tuple
    margins: dict
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "kind": self.kind,
            "depth": self.depth,
            "intersection_dims": list(self.intersection_dims),
            "note": self.note,
        }


def _membership(scene: Scene, expr, point: np.ndarray) -> tuple:
    """Tri-state test whether ``expr = 0`` passes through ``point``.

    Uses the first-order distance |value| / |gradient| relative to the box
    diameter. A vanishing gradient falls back to the absolute residual.
    """
    system = System([expr], len(point))
    value = abs(float(system.values(point)[0, 0]))
    grad = system.jacobian(point)[0, 0]
    gnorm = float(np.linalg.norm(grad))
    diam = scene.box_diameter()
    if gnorm * diam <= value * 1e-12:
        verdict = "yes" if value <= 100.0 * scene.tol_residual else "no"
        return verdict, math.inf if value == 0 else value
    dist = value / gnorm
    if dist <= MEMBER_RADIUS * diam:
        return "yes", dist / diam
    if dist > REJECT_RADIUS * diam:
        return "no", dist / diam
    return "inconclusive", dist / diam


def classify_point(scene: Scene, point) -> Classification:
    """Walk the stratum tower at one point and name its type.

    The chart chain is rebuilt with every selection made at the point
    itself, so membership is judged by the best-adapted chart available
    (a chart carried over from elsewhere can degenerate here and vouch
    for points it should reject). The walk stops at the first depth whose
    determinant clearly misses the point; a verdict inside the refusal
    band, an untrusted rank, or an intersection dimension off its
    expected value yields ``inconclusive``.
    """
    x = np.asarray(point, dtype=float)
    omega_vals = scene.omega_at(x)[0]
    base_grads = System(scene.constraints, len(x)).jacobian(x)[0]
    if not (np.all(np.isfinite(omega_vals)) and np.all(np.isfinite(base_grads))):
        return Classification(
            x, "inconclusive", -1, (), {}, note="coframe values not finite here"
        )
    # Degeneracy lives in the restriction to the tangent space, and a row
    # shrinking to zero is as degenerate as rows becoming parallel, so the
    # raw coframe values are projected onto an orthonormal tangent basis
    # and rank-tested against the coframe's own scale over the box.
    n = scene.n
    if len(base_grads):
        g_rep = numeric_rank(_unit_rows(base_grads), scene.tol_rank)
        if _trusted(g_rep, scene.num_constraints) != "yes":
            return Classification(
                x,
                "inconclusive",
                -1,
                (),
                {},
                note="constraint gradients degenerate here",
            )
        restriction = omega_vals @ _null_space(base_grads)
    else:
        restriction = omega_vals
    cut = scene.tol_rank * _omega_scale(scene)
    corank, measured = _restriction_corank(restriction, n, cut)
    margins = {"restriction_rank": float(measured)}
    if measured < TRUST_GAP:
        return Classification(
            x, "inconclusive", -1, (), margins, note="coframe restriction rank unclear"
        )
    if corank <= 0:
        return Classification(x, "regular", 0, (), margins)
    if corank >= 2:
        return Classification(
            x,
            "inconclusive",
            -1,
            (),
            margins,
            note=f"coframe corank {corank} exceeds 1",
        )

    chain = build_chain_at(scene, x)
    chart1 = chain.chart(1)
    resid = float(np.max(np.abs(chart1.residuals(x.reshape(1, -1)))))
    margins["first_chart_residual"] = resid
    if resid > 1000.0 * scene.tol_residual:
        for e in chart1.equations:
            verdict, _ = _membership(scene, e, x)
            if verdict == "no":
                return Classification(
                    x, "regular", 0, (), margins, note="off the first stratum"
                )
        return Classification(
            x, "inconclusive", -1, (), margins, note="first chart residual unclear"
        )

    depth = 1
    dims = []
    inconclusive_note = ""
    for k in range(1, chain.depth + 1):
        prev_eqs = scene.constraints if k == 1 else chain.chart(k - 1).equations
        dim, trust = _intersection_dim(
            omega_vals, base_grads, System(prev_eqs, len(x)).jacobian(x)[0], scene.tol_rank
        )
        dims.append(dim)
        if trust != "yes" or dim != k - 1:
            inconclusive_note = (
                f"intersection dimension {dim} at depth {k} (expected {k - 1})"
                if trust == "yes"
                else f"intersection rank untrusted at depth {k}"
            )
            break
        if k == chain.depth:
            depth = k
            break
        nxt = chain.chart(k + 1)
        verdict, dist = _membership(scene, nxt.delta, x)
        margins[f"depth_{k + 1}_distance"] = float(dist)
        validity = float(nxt.validity_margin(x.reshape(1, -1))[0])
        margins[f"depth_{k + 1}_validity"] = validity
        if verdict == "yes" and validity < VALIDITY_FACTOR * scene.tol_rank:
            inconclusive_note = f"chart invalid at depth {k + 1}"
            break
        if verdict == "inconclusive":
            inconclusive_note = f"membership unclear at depth {k + 1}"
            break
        if verdict == "no":
            depth = k
            break
        depth = k + 1
    if inconclusive_note:
        return Classification(
            x, "inconclusive", -1, tuple(dims), margins, note=inconclusive_note
        )
    if not chain.complete and depth == chain.depth and depth < min(scene.max_depth, n):
        return Classification(
            x,
            "inconclusive",
            -1,
            tuple(dims),
            margins,
            note="; ".join(chain.notes) or "chain stopped early",
        )
    return Classification(x, f"A{depth}", depth, tuple(dims), margins)


# ---------------------------------------------------------------------------
# Strata discovery.

@dataclass(eq=False)
class StrataResult:
    """Every stratum the pipeline could certify, with raw samples kept.

    ``points[k]`` are conclusive classifications of depth >= k (so the
    list for k is the closure sample of that stratum); ``curves`` holds
    traced polylines for strata of dimension one; ``samples[k]`` are the
    raw solver outputs before verification, used downstream as seeds.
    """

    scene: Scene
    chains: list
    points: dict
    curves: dict
    samples: dict
    notes: list

    def exact_depth(self, depth: int) -> list:
        return [c for c in self.points.get(depth, []) if c.depth == depth]


def _farthest_subset(points: np.ndarray, count: int) -> list:
    """Greedy farthest-point subset (indices), deterministic."""
    if not len(points):
        return []
    chosen = [0]
    dist = np.linalg.norm(points - points[0], axis=1)
    while len(chosen) < min(count, len(points)):
        idx = int(np.argmax(dist))
        if dist[idx] <= 0:
            break
        chosen.append(idx)
        dist = np.minimum(dist, np.linalg.norm(points - points[idx], axis=1))
    return chosen


def compute_strata(
    scene: Scene,
    *,
    max_depth: int | None = None,
    anchor_count: int = 4,
    sample_grid: int = 12,
) -> StrataResult:
    """Locate, verify, and classify the stratum tower.

    Depth 1 comes from the pivot-free corank system (every maximal minor),
    so no chart choice can hide part of it. Deeper strata are proposed by
    chart chains anchored at a farthest-point subset of the depth-1
    samples, then every candidate is re-verified by
    :func:`classify_point`, which rebuilds the chain at the candidate.
    Chart-boundary impostors (points where a foreign chart degenerates)
    fail that re-anchored test and are dropped.
    """
    depth_cap = scene.max_depth if max_depth is None else min(max_depth, scene.n)
    notes: list = []

    first = corank_system(scene)
    opts = scene.solve_options(min(scene.grid, sample_grid), dedup_radius=5e-3)
    outcome = solve_points(first, opts)
    sigma1 = outcome.coordinates()
    samples = {1: sigma1 if len(sigma1) else np.zeros((0, scene.ambient_dim))}
    curves = {}
    if scene.stratum_dim(1) == 1:
        curves[1] = trace_curves(first, opts)
    points: dict = {}
    if not len(sigma1):
        notes.append("no first-stratum points found")
        return StrataResult(scene, [], points, curves, samples, notes)

    # classification cost scales with sample count; a farthest-point subset
    # keeps coverage while the full sample set stays available as seeds
    subset = _farthest_subset(sigma1, 120)
    classified1 = [classify_point(scene, sigma1[i]) for i in subset]
    points[1] = [c for c in classified1 if c.depth >= 1]
    dropped = len(classified1) - len(points[1])
    if dropped:
        notes.append(f"depth 1: {dropped} sample(s) failed verification")

    if depth_cap < 2:
        return StrataResult(scene, [], points, curves, samples, notes)

    anchors = samples[1][_farthest_subset(samples[1], anchor_count)]
    chains = []
    for anchor in anchors:
        chain = build_chain(scene, anchor, max_depth=depth_cap, sample_grid=sample_grid)
        chains.append(chain)
        for note in chain.notes:
            if note not in notes:
                notes.append(note)

    diam = scene.box_diameter()
    for k in range(2, depth_cap + 1):
        prev = samples.get(k - 1)
        # Anchors picked by spread alone can all share one blind spot (on a
        # symmetric scene the farthest points are symmetry images, and their
        # charts may all degenerate at the very points sought). Anchor extra
        # chains until every previous-stratum sample sits inside some
        # chart's validity region.
        active = [c for c in chains if c.depth >= k]
        if prev is not None and len(prev):
            covered = np.zeros(len(prev), dtype=bool)
            for chain in active:
                covered |= chain.chart(k).validity_margin(prev) >= 1e-2
            added = 0
            while not covered.all() and added < 8:
                idx = int(np.argmin(covered))
                extra = build_chain(
                    scene, prev[idx], max_depth=depth_cap, sample_grid=sample_grid
                )
                chains.append(extra)
                for note in extra.notes:
                    if note not in notes:
                        notes.append(note)
                if extra.depth >= k:
                    active.append(extra)
                    covered |= extra.chart(k).validity_margin(prev) >= 1e-2
                covered[idx] = True
                added += 1
        # Grid seeds alone can all fall into a foreign chart's spurious zero
        # set (its audits reject them there); points of the previous stratum
        # sit where the audits vanish, so Newton started from them walks
        # along the stratum into the depth-k locus.
        seeds = grid_seeds(scene.box, opts.grid)
        if prev is not None and len(prev):
            seeds = np.vstack([prev, seeds])
        raw: list = []
        for chain in active:
            chart = chain.chart(k)
            result = solve_points(chart.equations, opts, seeds=seeds, audits=chart.audits)
            raw.extend(p.x for p in result.points)
        if scene.stratum_dim(k) == 1:
            best = next((c for c in chains if c.depth >= k), None)
            if best is not None:
                traced = trace_curves(best.chart(k).equations, opts)
                kept_curves = []
                for curve in traced:
                    probe = curve.points[:: max(1, len(curve.points) // 5)]
                    verdicts = [classify_point(scene, q) for q in probe]
                    if verdicts and all(v.depth >= k for v in verdicts):
                        kept_curves.append(curve)
                        raw.extend(probe)
                if kept_curves:
                    curves[k] = kept_curves
        if not raw:
            samples[k] = np.zeros((0, scene.ambient_dim))
            points[k] = []
            notes.append(f"depth {k}: no candidate points")
            continue
        stacked = np.array(raw)
        stacked = stacked[greedy_dedup(stacked, 1e-6 * diam)]
        stacked = stacked[np.lexsort(stacked.T[::-1])]
        samples[k] = stacked
        verified = []
        for p in stacked:
            cls = classify_point(scene, p)
            if cls.depth >= k:
                verified.append(cls)
        points[k] = verified
        if len(verified) < len(stacked):
            notes.append(
                f"depth {k}: rejected {len(stacked) - len(verified)} candidate(s) "
                "under re-anchored charts"
            )
    return StrataResult(scene, chains, points, curves, samples, notes)


# ---------------------------------------------------------------------------
# Genericity checks.

def check_corank1(scene: Scene, samples: int = 300) -> dict:
    """Verify the corank-1 conditions over sampled points.

    Samples the manifold (Gauss-Newton projection of a seed lattice onto
    the constraints), asserting the coframe rank never drops below n-1,
    and checks at every first-stratum point that the stratum's chart
    equations have a full-rank Jacobian (the locus is cut transversally).
    For n >= 2, additionally solves for rank-(n-2) points directly; any
    hit is a violation.
    """
    n, N = scene.n, scene.ambient_dim
    report = {
        "passed": True,
        "manifold_samples": 0,
        "rank_violations": [],
        "transversality_failures": [],
        "deep_rank_points": [],
        "sigma1_points": 0,
        "inconclusive": [],
    }
    per_axis = max(8, int(round(samples ** (1.0 / N))))
    opts = scene.solve_options(per_axis, dedup_radius=1e-4)
    if scene.constraints:
        projected = solve_points(scene.constraints, opts)
        pts = projected.coordinates()
    else:
        pts = grid_seeds(scene.box, per_axis, cap=samples * 4)
    report["manifold_samples"] = int(len(pts))
    cut = scene.tol_rank * _omega_scale(scene)
    constraints = System(scene.constraints, N)
    for p in np.asarray(pts, dtype=float).reshape(-1, N):
        omega_vals = scene.omega_at(p)[0]
        base = constraints.jacobian(p)[0]
        if not (np.all(np.isfinite(omega_vals)) and np.all(np.isfinite(base))):
            continue
        restriction = omega_vals @ _null_space(base) if len(base) else omega_vals
        corank, measured = _restriction_corank(restriction, n, cut)
        if corank >= 2:
            if measured >= TRUST_GAP:
                report["rank_violations"].append([float(v) for v in p])
            else:
                report["inconclusive"].append([float(v) for v in p])

    sigma1 = solve_points(corank_system(scene), opts)
    report["sigma1_points"] = len(sigma1.points)
    for sp in sigma1.points:
        chain = build_chain_at(scene, sp.x, max_depth=1)
        grads = System(chain.chart(1).equations, N).jacobian(sp.x)[0]
        rep = numeric_rank(_unit_rows(grads), scene.tol_rank)
        verdict = _trusted(rep, len(chain.chart(1).equations))
        if verdict == "no":
            report["transversality_failures"].append([float(v) for v in sp.x])
        elif verdict == "inconclusive":
            report["inconclusive"].append([float(v) for v in sp.x])

    if n >= 2:
        # restriction rank <= n-2 means the stack [coframe; constraint
        # grads] drops to n-2+c, i.e. all its (n-1+c)-minors vanish
        sym_rows = [list(row) for row in scene.omega]
        for g in scene.constraints:
            sym_rows.append([differentiate(g, s) for s in range(N)])
        size = n - 1 + len(scene.constraints)
        deep = list(scene.constraints)
        for rows in combinations(range(len(sym_rows)), size):
            for cols in combinations(range(N), size):
                deep.append(
                    symbolic_determinant([[sym_rows[r][c] for c in cols] for r in rows])
                )
        hits = solve_points(deep, opts)
        for sp in hits.points:
            omega_vals = scene.omega_at(sp.x)[0]
            base = constraints.jacobian(sp.x)[0]
            restriction = omega_vals @ _null_space(base) if len(base) else omega_vals
            corank, measured = _restriction_corank(restriction, n, cut)
            if corank >= 2 and measured >= TRUST_GAP:
                report["deep_rank_points"].append([float(v) for v in sp.x])

    report["passed"] = not (
        report["rank_violations"]
        or report["transversality_failures"]
        or report["deep_rank_points"]
    )
    return report


def check_morin(
    scene: Scene,
    k_max: int | None = None,
    *,
    strata: StrataResult | None = None,
) -> dict:
    """Decide whether the coframe's degeneracies are all of fold-chain type.

    For each depth k: first test whether the depth-k determinant vanishes
    identically along the previous stratum (evaluated on its samples,
    against the determinant's scale over the box); then, at every
    verified depth-k point, require the expected intersection dimension
    and a full-rank stacked gradient including the new determinant.
    Verdict is ``morin``, ``not_morin``, or ``inconclusive`` with
    witnesses.
    """
    if strata is None:
        strata = compute_strata(scene, max_depth=k_max)
    depth_cap = scene.max_depth if k_max is None else min(k_max, scene.n)
    witnesses: list = []
    verdict = "morin"
    counts = {k: len(strata.exact_depth(k)) for k in strata.points}
    rng = np.random.default_rng(scene.rng_seed)
    box = np.array(scene.box, dtype=float)
    probe = rng.uniform(box[:, 0], box[:, 1], size=(64, scene.ambient_dim))

    for k in range(2, depth_cap + 1):
        prev = strata.samples.get(k - 1)
        if prev is None or not len(prev):
            break
        for chain in strata.chains:
            if chain.depth < k:
                continue
            chart = chain.chart(k)
            valid = chart.validity_margin(prev) >= VALIDITY_FACTOR * scene.tol_rank
            if np.count_nonzero(valid) < 5:
                continue
            on_stratum = np.max(
                np.abs(eval_block([chart.delta], prev[valid])[0])
            )
            scale = np.max(np.abs(eval_block([chart.delta], probe)[0]))
            if scale > 0 and on_stratum <= 1e-8 * scale:
                verdict = "not_morin"
                witnesses.append(
                    {
                        "depth": k,
                        "reason": (
                            "the depth determinant vanishes identically on the "
                            "previous stratum, so the gradient stack with its "
                            "differential cannot reach full rank there"
                        ),
                        "stratum_max": float(on_stratum),
                        "box_scale": float(scale),
                    }
                )
                break
        if verdict == "not_morin":
            break

        for cls in strata.exact_depth(k):
            chain = build_chain_at(scene, cls.x)
            if chain.depth < k:
                witnesses.append(
                    {
                        "depth": k,
                        "point": [float(v) for v in cls.x],
                        "reason": "no chart chain reaches this depth here",
                    }
                )
                verdict = "inconclusive" if verdict == "morin" else verdict
                continue
            grads = System(chain.chart(k).equations, scene.ambient_dim).jacobian(cls.x)[0]
            rep = numeric_rank(_unit_rows(grads), scene.tol_rank)
            trust = _trusted(rep, len(chain.chart(k).equations))
            det = (
                determinant(grads)
                if grads.shape[0] == grads.shape[1]
                else None
            )
            if trust == "no":
                verdict = "not_morin"
                witnesses.append(
                    {
                        "depth": k,
                        "point": [float(v) for v in cls.x],
                        "reason": "stacked chart gradients drop rank",
                        "rank": rep.rank,
                    }
                )
            elif trust == "inconclusive":
                if verdict == "morin":
                    verdict = "inconclusive"
                witnesses.append(
                    {
                        "depth": k,
                        "point": [float(v) for v in cls.x],
                        "reason": "gradient rank borderline",
                    }
                )
            else:
                witnesses.append(
                    {
                        "depth": k,
                        "point": [float(v) for v in cls.x],
                        "reason": "conditions hold",
                        "rank_margin": float(
                            rep.full_rank_margin if rep.full else rep.gap_ratio
                        ),
                        "stack_det": None if det is None else float(det),
                    }
                )

    inconclusive1 = [c for c in strata.points.get(1, []) if c.kind == "inconclusive"]
    if inconclusive1 and verdict == "morin":
        verdict = "inconclusive"
    return {
        "verdict": verdict,
        "witnesses": witnesses,
        "counts": counts,
        "notes": list(strata.notes),
    }


# ---------------------------------------------------------------------------
# Zeros of the weighted covector and its restrictions.

@dataclass(eq=False)
class ZeroRecord:
    """One zero of the weighted covector, possibly restricted to a stratum.

    ``stratum_depth`` 0 means the unrestricted covector on the manifold;
    depth k >= 1 means the restriction to the depth-k stratum, where the
    zero condition is expressed through multipliers against the chart
    equations. ``flags`` lists every cross-check violation; nothing is
    silently dropped.
    """

    x: np.ndarray
    stratum_depth: int
    multipliers: tuple
    residual: float
    classification: Classification | None = None
    nondegenerate: str = "inconclusive"
    bordered_det: float = 0.0
    flags: tuple = ()

    def as_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "stratum_depth": self.stratum_depth,
            "multipliers": [float(v) for v in self.multipliers],
            "residual": float(self.residual),
            "classification": (
                None if self.classification is None else self.classification.as_dict()
            ),
            "nondegenerate": self.nondegenerate,
            "bordered_det": float(self.bordered_det),
            "flags": list(self.flags),
        }


def _covector_exprs(scene: Scene, weights) -> list:
    return [simplify(e) for e in scene.covector_field(weights)]


def _multiplier_system(scene: Scene, equations, xi_exprs) -> list:
    """Equations stating "xi lies in the gradient span of ``equations``".

    Returns the chart equations followed by one balance equation per
    ambient coordinate; multiplier j is the variable with index
    ``ambient_dim + j``.
    """
    N = scene.ambient_dim
    system = [simplify(e) for e in equations]
    for s in range(N):
        expr = xi_exprs[s]
        for j, eq in enumerate(equations):
            expr = sub(expr, mul(var(N + j), differentiate(eq, s)))
        system.append(simplify(expr))
    return system


def _multiplier_seeds(scene: Scene, equations, xi_exprs, xs: np.ndarray) -> np.ndarray:
    """Concatenate least-squares multiplier guesses onto point seeds."""
    if not len(xs):
        return np.zeros((0, scene.ambient_dim + len(equations)))
    xi_vals = eval_block(xi_exprs, xs).T
    grads = System(equations, scene.ambient_dim).jacobian(xs)
    seeds = []
    for x, G, xi in zip(xs, grads, xi_vals):
        lam = least_squares(G.T, xi, scene.tol_rank).solution if len(G) else []
        seeds.append(np.concatenate([x, np.asarray(lam, dtype=float)]))
    return np.array(seeds)


def find_xi_zeros(scene: Scene, weights) -> list:
    """Zeros of the weighted covector on the manifold.

    Solves constraints plus all covector components (overdetermined) and
    cross-checks each zero: it must lie on the first stratum and must not
    lie on the second. Violations are flagged on the record.
    """
    xi = _covector_exprs(scene, weights)
    system = list(scene.constraints) + xi
    opts = scene.solve_options(min(scene.grid, 14))
    outcome = solve_points(system, opts)
    records = []
    for sp in outcome.points:
        cls = classify_point(scene, sp.x)
        flags = []
        if cls.kind == "regular":
            flags.append("zero off the first stratum")
        elif cls.kind == "inconclusive":
            flags.append(f"stratum membership unclear: {cls.note}")
        elif cls.depth >= 2:
            flags.append("zero on the second stratum")
        records.append(
            ZeroRecord(
                x=sp.x,
                stratum_depth=0,
                multipliers=(),
                residual=sp.residual,
                classification=cls,
                flags=tuple(flags),
            )
        )
    return records


def find_restricted_zeros(
    scene: Scene,
    k: int,
    weights,
    *,
    strata: StrataResult | None = None,
) -> list:
    """Zeros of the weighted covector restricted to the depth-k stratum.

    States the critical-point condition with multipliers over every chart
    equation of the stratum (constraints included) and solves in the
    joint point-multiplier space, seeding from the stratum samples. Each
    solution is re-verified against a chart rebuilt at the point itself:
    the multipliers must reproduce the covector there, and a
    rank-deficient multiplier solve marks the record inconclusive instead
    of trusting it.
    """
    if k < 1 or k > scene.n:
        raise AnalysisError(f"restriction depth {k} not in 1..{scene.n}")
    if strata is None:
        strata = compute_strata(scene, max_depth=k)
    xi = _covector_exprs(scene, weights)
    N = scene.ambient_dim
    diam = scene.box_diameter()

    seeds_x = [strata.samples.get(k, np.zeros((0, N)))]
    seeds_x.append(strata.samples.get(1, np.zeros((0, N))) if k == 1 else np.zeros((0, N)))
    xs = np.vstack([s for s in seeds_x if len(s)]) if any(len(s) for s in seeds_x) else None

    candidates: list = []
    for chain in strata.chains or []:
        if chain.depth < k:
            continue
        equations = chain.chart(k).equations
        system = _multiplier_system(scene, equations, xi)
        chart_samples = chain.chart(k).samples
        pool = [xs] if xs is not None else []
        if chart_samples is not None and len(chart_samples):
            pool.append(np.asarray(chart_samples))
        if not pool:
            continue
        stacked = np.vstack(pool)
        seeds = _multiplier_seeds(scene, equations, xi, stacked)
        opts = scene.solve_options(min(scene.grid, 12), dedup_radius=1e-6)
        outcome = solve_points(
            system, opts, seeds=seeds, var_dim=N + len(equations)
        )
        candidates.extend(sp.x[:N] for sp in outcome.points)
    if k == 1 and scene.n == 1 and not strata.chains:
        # depth one of a single one-form needs no multiplier system: the
        # stratum is zero-dimensional and every point of it is a zero
        candidates.extend(np.asarray(p, dtype=float) for p in strata.samples.get(1, []))

    kept: list = []
    for x in candidates:
        if any(np.linalg.norm(x - r.x) <= 1e-6 * diam for r in kept):
            continue
        rec = _verify_restricted_zero(scene, k, x, xi)
        if rec is not None:
            kept.append(rec)
    kept.sort(key=lambda r: tuple(r.x))
    return kept


def _verify_restricted_zero(scene: Scene, k: int, x: np.ndarray, xi_exprs) -> ZeroRecord | None:
    """Re-anchored verification of one restricted-zero candidate."""
    cls = classify_point(scene, x)
    if cls.kind == "regular" or (0 <= cls.depth < k):
        return None
    chain = build_chain_at(scene, x, max_depth=k)
    if chain.depth < k:
        return None
    system = System(chain.chart(k).equations, len(x))
    resid_eqs = float(np.max(np.abs(system.values(x))))
    xi_vals = eval_block(xi_exprs, x.reshape(1, -1))[:, 0]
    G = system.jacobian(x)[0]
    ls = least_squares(G.T, xi_vals, scene.tol_rank)
    resid = max(resid_eqs, ls.residual_norm)
    scale = max(1.0, float(np.max(np.abs(xi_vals))), float(np.max(np.abs(G))))
    if resid > 1e-6 * scale:
        return None
    flags = []
    if cls.kind == "inconclusive":
        flags.append(f"stratum membership unclear: {cls.note}")
    elif cls.depth >= k + 2:
        flags.append(f"restricted zero on the depth-{k + 2} stratum")
    if ls.rank_deficient:
        flags.append("multiplier solve rank-deficient")
    return ZeroRecord(
        x=x,
        stratum_depth=k,
        multipliers=tuple(float(v) for v in ls.solution),
        residual=float(resid),
        classification=cls,
        flags=tuple(flags),
    )


def nondegeneracy(
    scene: Scene,
    record: ZeroRecord,
    weights,
) -> ZeroRecord:
    """Bordered-determinant nondegeneracy verdict for one zero record.

    The multiplier system's Jacobian in the joint point-multiplier space
    is exactly the bordered matrix (covector Jacobian minus multiplier
    curvature, bordered by the chart equation gradients), so the zero is
    nondegenerate precisely when that square matrix has full rank with a
    trusted margin. The raw determinant is recorded alongside. Returns a
    new record; the input is not mutated.
    """
    xi = _covector_exprs(scene, weights)
    N = scene.ambient_dim
    k = record.stratum_depth
    if k == 0:
        equations = list(scene.constraints)
        lam = np.zeros(len(equations))
    else:
        chain = build_chain_at(scene, record.x, max_depth=k)
        if chain.depth < k:
            return ZeroRecord(
                **{**_record_fields(record), "nondegenerate": "inconclusive",
                   "flags": record.flags + ("no chart chain at the zero",)}
            )
        equations = list(chain.chart(k).equations)
        lam = np.asarray(record.multipliers, dtype=float)
        if len(lam) != len(equations):
            G = System(equations, N).jacobian(record.x)[0]
            xi_vals = eval_block(xi, record.x.reshape(1, -1))[:, 0]
            lam = least_squares(G.T, xi_vals, scene.tol_rank).solution

    system = _multiplier_system(scene, equations, xi)
    q = len(equations)
    joint = np.concatenate([record.x, lam])
    J = System(system, N + q).jacobian(joint)[0]
    rep = numeric_rank(_unit_rows(J), scene.tol_rank)
    verdict = _trusted(rep, N + q)
    det = determinant(J) if J.shape[0] == J.shape[1] else 0.0
    return ZeroRecord(
        **{
            **_record_fields(record),
            "nondegenerate": {"yes": "yes", "no": "no"}.get(verdict, "inconclusive"),
            "bordered_det": float(det),
        }
    )


def _record_fields(record: ZeroRecord) -> dict:
    return {
        "x": record.x,
        "stratum_depth": record.stratum_depth,
        "multipliers": record.multipliers,
        "residual": record.residual,
        "classification": record.classification,
        "nondegenerate": record.nondegenerate,
        "bordered_det": record.bordered_det,
        "flags": record.flags,
    }


def zero_census(
    scene: Scene,
    weights,
    *,
    strata: StrataResult | None = None,
) -> dict:
    """All zeros for one covector draw: unrestricted plus every depth.

    Returns ``{"unrestricted": [records], "restricted": {k: [records]}}``
    with nondegeneracy assessed on every record.
    """
    if strata is None:
        strata = compute_strata(scene)
    unrestricted = [
        nondegeneracy(scene, r, weights) for r in find_xi_zeros(scene, weights)
    ]
    restricted = {}
    for k in range(1, scene.n):
        records = find_restricted_zeros(scene, k, weights, strata=strata)
        restricted[k] = [nondegeneracy(scene, r, weights) for r in records]
    return {"unrestricted": unrestricted, "restricted": restricted}


def covector_sweep(
    scene: Scene,
    *,
    count: int = 20,
    seed: int | None = None,
    strata: StrataResult | None = None,
) -> list:
    """Zero censuses for ``count`` seeded covector draws, in draw order.

    Draw ``i`` uses covector seed ``seed + i`` (the scene's seed when
    ``seed`` is None), so the output is deterministic for a fixed seed.
    The draws run one after another and share what does not depend on the
    weights: the scene memo (minors, depth determinants, coframe scale)
    and the expression caches. None of these is safe to mutate from
    several threads.
    """
    if strata is None:
        strata = compute_strata(scene)
    base = scene.rng_seed if seed is None else seed
    out = []
    for i in range(count):
        weights = draw_covector(scene.n, base + i)
        census = zero_census(scene, weights, strata=strata)
        out.append({"draw": i, "weights": [float(w) for w in weights], "census": census})
    return out


# ---------------------------------------------------------------------------
# Euler characteristic mod 2.

@dataclass(eq=False)
class CongruenceReport:
    """Mod-2 bookkeeping between manifold and stratum Euler numbers.

    ``counts`` holds the zero counts that stand in for the parities;
    ``independent`` collects Euler numbers known by other means (Morse
    counting for surfaces, closed-curve count for one-dimensional strata,
    cardinality for zero-dimensional ones). ``congruence_holds`` is None
    when a precondition failed or a verdict stayed inconclusive.
    """

    counts: dict
    parities: dict
    congruence_holds: bool | None
    independent: dict
    decomposition: dict
    draws: list
    notes: list

    def as_dict(self) -> dict:
        return {
            "counts": self.counts,
            "parities": self.parities,
            "congruence_holds": self.congruence_holds,
            "independent": self.independent,
            "decomposition": self.decomposition,
            "draws": self.draws,
            "notes": self.notes,
        }


def manifold_reaches_boundary(scene: Scene, resolution: int = 48) -> bool:
    """Compactness surrogate: does the manifold approach the box walls?

    Scans the constraint residual on a lattice; a cell is suspect when
    the residual could vanish inside it (same local-slope bound the scan
    oracle uses). True when any suspect cell sits within five percent of
    a wall. Unconstrained scenes fill space and always return True.
    """
    if not scene.constraints:
        return True
    box = scene.box
    pts = lattice_points(cell_centers(box, resolution))
    constraints = System(scene.constraints, scene.ambient_dim)
    vals = np.max(np.abs(constraints.values(pts)), axis=1)
    cell = np.array([(hi - lo) / resolution for lo, hi in box])
    half_diag = 0.5 * float(np.linalg.norm(cell))
    grads = np.max(np.linalg.norm(constraints.jacobian(pts), axis=2), axis=1)
    suspect = vals <= 1.5 * grads * half_diag + 10.0 * scene.tol_residual
    shell = np.zeros(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        margin = BOUNDARY_FRACTION * (hi - lo)
        shell |= (pts[:, axis] <= lo + margin) | (pts[:, axis] >= hi - margin)
    return bool(np.any(suspect & shell))


def euler_via_morse(scene: Scene, seed: int = 0) -> int:
    """Euler number of a constrained surface by critical-point counting.

    Finds the critical points of a random linear height on the surface
    through the multiplier system, classifies each by the sign of the
    restricted curvature determinant on the tangent plane, and sums the
    signs. Requires one constraint in ambient dimension three and a
    surface that stays inside the box; degenerate draws are retried.
    """
    if scene.ambient_dim != 3 or scene.num_constraints != 1:
        raise AnalysisError(
            "Morse counting needs one constraint in ambient dimension 3"
        )
    if manifold_reaches_boundary(scene):
        raise AnalysisError("surface reaches the box boundary; count unreliable")
    g = scene.constraints[0]
    N = 3
    grad_exprs = [differentiate(g, s) for s in range(N)]
    gradient = System(grad_exprs, N)
    opts = scene.solve_options(min(scene.grid, 12), dedup_radius=1e-5)
    surface = solve_points(scene.constraints, opts).coordinates()
    if not len(surface):
        raise AnalysisError("no surface points found in the box")

    for attempt in range(MAX_REDRAWS):
        a = draw_covector(N, seed + attempt)
        system = [simplify(g)]
        for s in range(N):
            system.append(simplify(sub(const(float(a[s])), mul(var(N), grad_exprs[s]))))
        grads = gradient.values(surface)
        lam0 = (grads @ a) / np.maximum(np.einsum("ij,ij->i", grads, grads), 1e-30)
        seeds = np.column_stack([surface, lam0])
        outcome = solve_points(system, opts, seeds=seeds, var_dim=N + 1)
        if not outcome.points:
            continue
        total = 0
        degenerate = False
        for sp in outcome.points:
            x, lam = sp.x[:N], sp.x[N]
            grad = gradient.values(x)[0]
            hess = gradient.jacobian(x)[0]
            tangent = _null_space(grad.reshape(1, -1))
            restricted = tangent.T @ (-lam * hess) @ tangent
            rep = numeric_rank(restricted, scene.tol_rank)
            if not rep.full or rep.full_rank_margin < TRUST_GAP:
                degenerate = True
                break
            total += 1 if determinant(restricted) > 0 else -1
        if not degenerate:
            return total
    raise AnalysisError("all height draws hit a degenerate critical point")


def euler_congruence(
    scene: Scene,
    *,
    seed: int | None = None,
    weights=None,
    strata: StrataResult | None = None,
) -> CongruenceReport:
    """Mod-2 comparison of the manifold Euler number with its strata.

    The manifold parity comes from counting zeros of a weighted covector;
    each stratum parity comes from the restricted zero counts (cardinality
    for the deepest, zero-dimensional stratum). A draw is accepted only if
    every zero is nondegenerate and unflagged; otherwise the covector is
    redrawn. Independent Euler numbers (surface Morse count, closed-curve
    count) are attached where available.
    """
    notes: list = []
    draws: list = []
    if manifold_reaches_boundary(scene):
        notes.append(
            "manifold approaches the box boundary; the count cannot certify "
            "a closed manifold"
        )
        return CongruenceReport({}, {}, None, {}, {}, draws, notes)
    if strata is None:
        strata = compute_strata(scene)

    n = scene.n
    base = scene.rng_seed if seed is None else seed
    # A weight vector fixed in the scene counts as the first draw, but only
    # when the caller did not ask for a specific seed.
    prefer_scene = weights is None and seed is None and scene.covector is not None
    attempts = 1 if weights is not None else MAX_REDRAWS
    census = None
    for attempt in range(attempts):
        if weights is not None:
            a = np.asarray(weights, dtype=float)
        elif prefer_scene and attempt == 0:
            a = np.asarray(scene.covector, dtype=float)
        else:
            a = draw_covector(n, base + attempt)
        trial = zero_census(scene, a, strata=strata)
        problems = []
        for rec in trial["unrestricted"] + [
            r for k in trial["restricted"] for r in trial["restricted"][k]
        ]:
            if rec.nondegenerate != "yes":
                problems.append(f"degenerate zero at {np.round(rec.x, 6).tolist()}")
            for fl in rec.flags:
                if "unclear" in fl or "rank-deficient" in fl:
                    problems.append(fl)
        draws.append(
            {
                "weights": [float(v) for v in a],
                "accepted": not problems,
                "problems": problems,
            }
        )
        if not problems:
            census = trial
            break
    if census is None:
        notes.append("no covector draw passed the genericity audit")
        return CongruenceReport({}, {}, None, {}, {}, draws, notes)

    counts = {"unrestricted": len(census["unrestricted"])}
    for k in range(1, n):
        counts[f"restricted_{k}"] = len(census["restricted"][k])
    deepest = strata.exact_depth(n)
    counts[f"deepest_{n}"] = len(deepest)

    parities = {"manifold": counts["unrestricted"] % 2, "strata": {}}
    for k in range(1, n):
        parities["strata"][k] = counts[f"restricted_{k}"] % 2
    parities["strata"][n] = counts[f"deepest_{n}"] % 2
    strata_parity = sum(parities["strata"].values()) % 2
    holds = parities["manifold"] == strata_parity

    decomposition = {}
    for k in range(1, n):
        recs = census["restricted"][k]
        on_k = sum(1 for r in recs if r.classification and r.classification.depth == k)
        on_k1 = sum(
            1 for r in recs if r.classification and r.classification.depth == k + 1
        )
        expected = len(strata.exact_depth(k + 1))
        decomposition[k] = {
            "on_depth_k": on_k,
            "on_depth_k_plus_1": on_k1,
            "total": len(recs),
            "consistent": on_k + on_k1 == len(recs) and on_k1 == expected,
        }
        if not decomposition[k]["consistent"]:
            notes.append(f"restricted zeros at depth {k} split inconsistently")

    independent = {}
    if scene.stratum_dim(1) == 1 and 1 in strata.curves:
        if strata.curves[1] and all(c.closed for c in strata.curves[1]):
            independent["first_stratum"] = 0
    if n in strata.points:
        independent[f"depth_{n}"] = len(deepest)
    if scene.ambient_dim == 3 and scene.num_constraints == 1:
        try:
            independent["manifold_morse"] = euler_via_morse(scene, seed=base)
        except AnalysisError as err:
            notes.append(f"surface Morse count unavailable: {err}")
    if "manifold_morse" in independent:
        if independent["manifold_morse"] % 2 != parities["manifold"]:
            holds = None
            notes.append("Morse count parity disagrees with the zero count")

    return CongruenceReport(
        counts=counts,
        parities=parities,
        congruence_holds=holds,
        independent=independent,
        decomposition=decomposition,
        draws=draws,
        notes=notes,
    )
