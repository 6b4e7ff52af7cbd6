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
from dataclasses import dataclass, replace
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
from .linalg import RankTable, determinant, gelsy_solve, least_squares, numeric_rank
from .model import (
    VALIDITY_FACTOR,
    ChartChain,
    Scene,
    build_chain,
    build_chain_at,
    build_chains_at,
    corank_system,
    covector_weights,
    draw_covector,
    index_groups,
    scene_seed,
)
from .solver import (
    _SCAN_CHUNK,
    capped_resolution,
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


def _trusted(table: RankTable, rank: int) -> np.ndarray:
    """Tri-state verdicts for the claims ``numeric rank == rank``, one per
    entry of ``table``."""
    verdicts = np.where(table.rank == rank, "yes", "no")
    return np.where(table.margin >= TRUST_GAP, verdicts, "inconclusive")


def _unit_rank(stack: np.ndarray, tol: float) -> RankTable:
    """:func:`numeric_rank` of each matrix of a stack, shape (P, m, N),
    with its rows scaled to unit length and its zero rows dropped.

    Rank and span questions should not depend on equation scaling, so
    every stacked-gradient rank test goes through this. The matrices that
    keep as many rows are ranked in one stack; padding them to one shape
    would change the singular values. Each row norm sums the row as a
    one-matrix call sums it when the stack is C-contiguous.
    """
    norms = np.linalg.norm(stack, axis=-1)
    keep = norms > 0
    counts = np.count_nonzero(keep, axis=1)
    rank = np.zeros(len(stack), dtype=int)
    full = np.zeros(len(stack), dtype=bool)
    margin = np.zeros(len(stack))
    for count in np.unique(counts):
        group = counts == count
        rows = stack[group][keep[group]] / norms[group][keep[group]][:, None]
        table = numeric_rank(rows.reshape(group.sum(), count, stack.shape[2]), tol)
        rank[group], full[group], margin[group] = table
    return RankTable(rank, full, margin)


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


def _jacobians(equation_sets, points):
    """The Jacobians of the points' equations at those points, as
    ``(group, stack)`` pairs: one ``System.jacobian`` call per distinct
    equations and point dimension, for the point indices ``group``. Each
    stack is C-contiguous, every block laid out as a one-point call lays
    it out."""
    keys = [(tuple(eqs), len(x)) for eqs, x in zip(equation_sets, points)]
    for group in index_groups(keys):
        equations, dim = keys[group[0]]
        jac = System(equations, dim).jacobian(np.array([points[i] for i in group]))
        yield group, np.ascontiguousarray(jac)


def _gradient_verdicts(scene: Scene, equation_sets, points) -> tuple:
    """Whether each point's equations have full-rank stacked gradients
    there: lists ``(verdicts, ranks, margins, dets)``, one entry per
    point, with the :func:`_trusted` verdict on the :func:`_unit_rank` of
    the gradients, and the determinant of the raw gradients where they
    are square (None otherwise). Each distinct equation set and point
    dimension takes one stack."""
    count = len(points)
    verdicts = np.empty(count, dtype=object)
    dets = np.full(count, None, dtype=object)
    rank, margin = np.zeros(count, dtype=int), np.zeros(count)
    for group, jac in _jacobians(equation_sets, points):
        table = _unit_rank(jac, scene.tol_rank)
        verdicts[group] = _trusted(table, jac.shape[1])
        rank[group], margin[group] = table.rank, table.margin
        if jac.shape[1] == jac.shape[2]:
            dets[group] = determinant(jac)
    return verdicts.tolist(), rank.tolist(), margin.tolist(), dets.tolist()


def _restriction_coranks(scene: Scene, omega_vals, base_grads) -> list:
    """Corank of the coframe's restriction to the tangent space at each
    point of a stack, with a trust measure: ``(corank, measured)`` pairs.

    A row shrinking to zero is as degenerate as rows becoming parallel, so
    the raw coframe values are projected onto an orthonormal tangent basis
    and their singular values compared against ``tol_rank`` times the
    coframe's own scale over the box. The trust measure is how far the
    nearest singular value stays from that cutoff on either side (the
    refusal band sits at ``TRUST_GAP``). The null spaces take one stacked
    SVD, and the restrictions one per tangent dimension.
    """
    n = scene.n
    # contiguous blocks, laid out as a one-point call lays out its matrices
    omega_vals = np.ascontiguousarray(omega_vals)
    base_grads = np.ascontiguousarray(base_grads)
    if not len(omega_vals):
        return []
    cut = scene.tol_rank * _omega_scale(scene)
    if base_grads.shape[1]:
        _, sv, vt = np.linalg.svd(base_grads)
        # the null space of each gradient block: the rows of vt past its rank
        ranks = np.count_nonzero(sv > 1e-12 * sv[:, :1], axis=1)
    else:
        vt, ranks = None, np.zeros(len(omega_vals), dtype=int)
    # each restriction's singular values, padded with zeros to n
    sigma = np.zeros((len(omega_vals), n))
    for group in index_groups(ranks.tolist()):
        restriction = omega_vals[group]
        if vt is not None:
            restriction = restriction @ vt[group, ranks[group[0]]:].transpose(0, 2, 1)
        if restriction.size:
            values = np.linalg.svd(restriction, compute_uv=False)
            sigma[group, : values.shape[1]] = values
    rank = np.count_nonzero(sigma > cut, axis=1)
    at = np.arange(len(sigma))
    first_dropped = sigma[at, np.minimum(rank, n - 1)]
    with np.errstate(divide="ignore"):
        kept = np.where(rank > 0, sigma[at, rank - 1] / cut, math.inf)
        dropped = np.where((rank < n) & (first_dropped > 0), cut / first_dropped, math.inf)
    return list(zip((n - rank).tolist(), np.minimum(kept, dropped).tolist()))


def _intersection_dims(omega_vals, base_grads, conormal_grads, tol) -> tuple:
    """dim(span of coframe restrictions ∩ conormal of the previous stratum)
    at each point of the stacks, with its trust: arrays ``(dims,
    trusted)``.

    The coframe restriction to the tangent space kills exactly the part of
    the row span lying in the manifold conormal, so the intrinsic dimension
    is dim(A ∩ W) - dim(A ∩ B) with A the ambient coframe rows, W the
    ambient conormal of the previous stratum and B ⊆ W the manifold
    conormal. A point is trusted when every rank involved clears
    ``TRUST_GAP``. Each rank is one :func:`_unit_rank` of a stack; where B
    has no nonzero row, [A;B] keeps the rows of A, so dim(A ∩ B) is 0 and
    the margins add nothing.
    """
    ra = _unit_rank(omega_vals, tol)
    rw = _unit_rank(conormal_grads, tol)
    raw = _unit_rank(np.concatenate([omega_vals, conormal_grads], axis=1), tol)
    dims = ra.rank + rw.rank - raw.rank
    margins = [ra.margin, rw.margin, raw.margin]
    if base_grads.shape[1]:
        rb = _unit_rank(base_grads, tol)
        rab = _unit_rank(np.concatenate([omega_vals, base_grads], axis=1), tol)
        dims -= ra.rank + rb.rank - rab.rank
        margins += [rb.margin, rab.margin]
    return dims, np.all(np.array(margins) >= TRUST_GAP, axis=0)


# ---------------------------------------------------------------------------
# Point classification.

@dataclass(frozen=True, eq=False)
class Classification:
    """Stratum type of one point.

    ``kind`` is ``regular``, ``A1`` … ``A<n>``, or ``inconclusive``;
    ``depth`` is the stratum depth (0 for regular, -1 when inconclusive).
    ``intersection_dims`` holds, for each depth reached, the dimension of
    the intersection between the coframe row span and the conormal of the
    previous stratum; a depth-k point must show 0, 1, …, k-1. ``chain`` is
    the chart chain the walk used, built at ``x``; None when the walk
    stopped before building one. Reports leave it out.
    """

    x: np.ndarray
    kind: str
    depth: int
    intersection_dims: tuple
    note: str = ""
    chain: ChartChain | None = None

    def as_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "kind": self.kind,
            "depth": self.depth,
            "intersection_dims": list(self.intersection_dims),
            "note": self.note,
        }


def _memberships(scene: Scene, exprs, points) -> list:
    """Tri-state test whether each ``expr = 0`` passes through each point:
    one list of verdicts per point, in the order of ``exprs``.

    Uses the first-order distance |value| / |gradient| relative to the box
    diameter. A vanishing gradient falls back to the absolute residual.
    """
    system = System(exprs, scene.ambient_dim)
    values = system.values(points)
    grads = system.jacobian(points)
    diam = scene.box_diameter()
    out = []
    for vals, gs in zip(values.tolist(), grads):
        verdicts = []
        for value, grad in zip(vals, gs):
            value = abs(value)
            gnorm = float(np.linalg.norm(grad))
            if gnorm * diam <= value * 1e-12:
                verdicts.append("yes" if value <= 100.0 * scene.tol_residual else "no")
                continue
            dist = value / gnorm
            if dist <= MEMBER_RADIUS * diam:
                verdicts.append("yes")
            elif dist > REJECT_RADIUS * diam:
                verdicts.append("no")
            else:
                verdicts.append("inconclusive")
        out.append(verdicts)
    return out


def classify_point(scene: Scene, point) -> Classification:
    """:func:`classify_points` at one point."""
    x = np.asarray(point, dtype=float)
    return classify_points(scene, x.reshape(1, -1))[0]


def classify_points(scene: Scene, points) -> list:
    """Walk the stratum tower at each point and name its type.

    The chart chain is built with every selection made at the point
    itself, so membership is judged by the best-adapted chart available
    (a chart carried over from elsewhere can degenerate here and vouch
    for points it should reject); the result keeps it. The walk stops at
    the first depth whose determinant clearly misses the point; a verdict
    inside the refusal band, an untrusted rank, or an intersection
    dimension off its expected value yields ``inconclusive``.

    ``points`` has shape (P, N). The coframe, the constraint gradients,
    the restriction ranks and the pivots of all points are taken in one
    call each; from there the points whose charts share a selection take
    one call each for residuals, memberships, ranks and margins, depth by
    depth. Each point gets the verdict it would get alone.
    """
    N = scene.ambient_dim
    X = np.asarray(points, dtype=float).reshape(-1, N)
    out: list = [None] * len(X)

    def stop(i, kind, depth, dims=(), note="", chain=None):
        out[i] = Classification(X[i], kind, depth, tuple(dims), note, chain)

    omega = scene.omega_at(X)
    base = System(scene.constraints, N).jacobian(X)
    finite = np.isfinite(omega).all(axis=(1, 2)) & np.isfinite(base).all(axis=(1, 2))
    for i in np.flatnonzero(~finite):
        stop(i, "inconclusive", -1, note="coframe values not finite here")
    live = np.flatnonzero(finite)
    # contiguous blocks, laid out as a one-point call lays out its matrices
    omega = np.ascontiguousarray(omega[live])
    base = np.ascontiguousarray(base[live])
    if scene.num_constraints and len(live):
        table = _unit_rank(base, scene.tol_rank)
        trusted = _trusted(table, scene.num_constraints) == "yes"
        for i in live[~trusted]:
            stop(i, "inconclusive", -1, note="constraint gradients degenerate here")
        live, omega, base = live[trusted], omega[trusted], base[trusted]

    walk = []
    for j, (corank, measured) in enumerate(_restriction_coranks(scene, omega, base)):
        if measured < TRUST_GAP:
            stop(live[j], "inconclusive", -1, note="coframe restriction rank unclear")
        elif corank <= 0:
            stop(live[j], "regular", 0)
        elif corank >= 2:
            stop(live[j], "inconclusive", -1, note=f"coframe corank {corank} exceeds 1")
        else:
            walk.append(j)
    if not walk:
        return out
    # from here on j numbers the walking points: X[idx[j]], omega[j], chains[j]
    idx, omega, base = live[walk], omega[walk], base[walk]
    chains = build_chains_at(scene, X[idx])

    def by_chart(members, depth):
        """``members`` grouped by their depth-``depth`` chart selection, as
        (group, chart, points)."""
        keys = [chains[j].chart(depth).selection for j in members]
        for group in index_groups(keys):
            group = [members[g] for g in group]
            yield group, chains[group[0]].chart(depth), X[idx[group]]

    walking = []
    for group, chart1, pts in by_chart(range(len(idx)), 1):
        unclear = np.max(np.abs(chart1.residuals(pts)), axis=1) > 1000.0 * scene.tol_residual
        walking += [j for j, bad in zip(group, unclear) if not bad]
        if not unclear.any():
            continue
        off = [j for j, bad in zip(group, unclear) if bad]
        for j, verdicts in zip(off, _memberships(scene, chart1.equations, pts[unclear])):
            if "no" in verdicts:
                stop(idx[j], "regular", 0, note="off the first stratum", chain=chains[j])
            else:
                note = "first chart residual unclear"
                stop(idx[j], "inconclusive", -1, note=note, chain=chains[j])

    depths = dict.fromkeys(walking, 1)
    dims: dict = {j: [] for j in walking}
    notes = dict.fromkeys(walking, "")
    k = 1
    while walking:
        walking.sort()
        if k == 1:
            conormal = base[walking]
        else:
            equations = [chains[j].chart(k - 1).equations for j in walking]
            conormal = np.empty((len(walking), len(equations[0]), N))
            for group, jac in _jacobians(equations, X[idx[walking]]):
                conormal[group] = jac
        found, trusted = _intersection_dims(
            omega[walking], base[walking], conormal, scene.tol_rank
        )
        deeper = []
        for j, dim, trust in zip(walking, found.tolist(), trusted.tolist()):
            dims[j].append(dim)
            if not trust:
                notes[j] = f"intersection rank untrusted at depth {k}"
            elif dim != k - 1:
                notes[j] = f"intersection dimension {dim} at depth {k} (expected {k - 1})"
            elif k == chains[j].depth:
                depths[j] = k
            else:
                deeper.append(j)
        walking = []
        for group, nxt, pts in by_chart(deeper, k + 1):
            verdicts = _memberships(scene, [nxt.delta], pts)
            margins = nxt.validity_margin(pts).tolist()
            for j, (verdict,), margin in zip(group, verdicts, margins):
                if verdict == "yes" and margin < VALIDITY_FACTOR * scene.tol_rank:
                    notes[j] = f"chart invalid at depth {k + 1}"
                elif verdict == "inconclusive":
                    notes[j] = f"membership unclear at depth {k + 1}"
                elif verdict == "no":
                    depths[j] = k
                else:
                    depths[j] = k + 1
                    walking.append(j)
        k += 1

    for j, depth in depths.items():
        chain = chains[j]
        if notes[j]:
            stop(idx[j], "inconclusive", -1, dims[j], notes[j], chain)
        elif not chain.complete and depth == chain.depth and depth < min(scene.max_depth, scene.n):
            note = "; ".join(chain.notes) or "chain stopped early"
            stop(idx[j], "inconclusive", -1, dims[j], note, chain)
        else:
            stop(idx[j], f"A{depth}", depth, dims[j], chain=chain)
    return out


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


def compute_strata(scene: Scene, *, max_depth: int | None = None) -> StrataResult:
    """Locate, verify, and classify the stratum tower.

    Depth 1 comes from the pivot-free corank system (every maximal minor),
    so no chart choice can hide part of it. Deeper strata are proposed by
    chart chains anchored at a farthest-point subset of the depth-1
    samples, each distinct chain listed once, then every candidate is
    re-verified by :func:`classify_points`, which rebuilds the chain at the
    candidate.
    Chart-boundary impostors (points where a foreign chart degenerates)
    fail that re-anchored test and are dropped.
    """
    depth_cap = scene.max_depth if max_depth is None else min(max_depth, scene.n)
    notes: list = []

    first = corank_system(scene)
    opts = scene.solve_options(min(scene.grid, 12), dedup_radius=5e-3)
    outcome = solve_points(first, opts)
    sigma1 = outcome.coordinates()
    samples = {1: sigma1 if len(sigma1) else np.zeros((0, scene.ambient_dim))}
    curves = {}
    if scene.stratum_dim(1) == 1:
        curves[1] = trace_curves(first, opts)
    points: dict = {}
    if not len(sigma1):
        notes.append("no first-stratum points found")
        return StrataResult([], points, curves, samples, notes)

    # classification cost scales with sample count; a farthest-point subset
    # keeps coverage while the full sample set stays available as seeds
    subset = _farthest_subset(sigma1, 120)
    classified1 = classify_points(scene, sigma1[subset])
    points[1] = [c for c in classified1 if c.depth >= 1]
    dropped = len(classified1) - len(points[1])
    if dropped:
        notes.append(f"depth 1: {dropped} sample(s) failed verification")

    if depth_cap < 2:
        return StrataResult([], points, curves, samples, notes)

    # anchors that make the same depth-1 selection share one chain
    anchors = samples[1][_farthest_subset(samples[1], 4)]
    chains = []

    def adopt(chain) -> bool:
        """List ``chain`` and its notes not yet taken, unless it is listed."""
        if chain in chains:
            return False
        chains.append(chain)
        for note in chain.notes:
            if note not in notes:
                notes.append(note)
        return True

    for anchor in anchors:
        adopt(build_chain(scene, anchor, max_depth=depth_cap))

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
                extra = build_chain(scene, prev[idx], max_depth=depth_cap)
                # a chain already listed is already counted in ``covered``
                if adopt(extra) and extra.depth >= k:
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
        # chains that share a depth-k chart solve it once
        for equations, audits in dict.fromkeys(
            (c.chart(k).equations, c.chart(k).audits) for c in active
        ):
            result = solve_points(equations, opts, seeds=seeds, audits=audits)
            raw.extend(p.x for p in result.points)
        if scene.stratum_dim(k) == 1:
            best = next((c for c in chains if c.depth >= k), None)
            if best is not None:
                traced = trace_curves(best.chart(k).equations, opts)
                probes = [c.points[:: max(1, len(c.points) // 5)] for c in traced]
                verdicts = iter(classify_points(scene, np.concatenate(probes)) if probes else ())
                kept_curves = []
                for curve, probe in zip(traced, probes):
                    on_stratum = [next(verdicts).depth >= k for _ in probe]
                    if len(probe) and all(on_stratum):
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
        verified = [cls for cls in classify_points(scene, stacked) if cls.depth >= k]
        points[k] = verified
        if len(verified) < len(stacked):
            notes.append(
                f"depth {k}: rejected {len(stacked) - len(verified)} candidate(s) "
                "under re-anchored charts"
            )
    return StrataResult(chains, points, curves, samples, notes)


# ---------------------------------------------------------------------------
# Genericity checks.

def check_corank1(scene: Scene) -> dict:
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
    per_axis = max(8, int(round(300 ** (1.0 / N))))
    opts = scene.solve_options(per_axis, dedup_radius=1e-4)
    if scene.constraints:
        projected = solve_points(scene.constraints, opts)
        pts = projected.coordinates()
    else:
        pts = grid_seeds(scene.box, per_axis, cap=4 * 300)
    report["manifold_samples"] = int(len(pts))
    constraints = System(scene.constraints, N)
    pts = np.asarray(pts, dtype=float).reshape(-1, N)
    omega_vals, base = scene.omega_at(pts), constraints.jacobian(pts)
    finite = np.isfinite(omega_vals).all(axis=(1, 2)) & np.isfinite(base).all(axis=(1, 2))
    coranks = _restriction_coranks(scene, omega_vals[finite], base[finite])
    for p, (corank, measured) in zip(pts[finite], coranks):
        if corank >= 2:
            if measured >= TRUST_GAP:
                report["rank_violations"].append([float(v) for v in p])
            else:
                report["inconclusive"].append([float(v) for v in p])

    sigma1 = solve_points(corank_system(scene), opts).coordinates().reshape(-1, N)
    report["sigma1_points"] = len(sigma1)
    chains = build_chains_at(scene, sigma1, max_depth=1)
    verdicts, _, _, _ = _gradient_verdicts(scene, [c.chart(1).equations for c in chains], sigma1)
    for x, verdict in zip(sigma1, verdicts):
        if verdict == "no":
            report["transversality_failures"].append([float(v) for v in x])
        elif verdict == "inconclusive":
            report["inconclusive"].append([float(v) for v in x])

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
        hits = solve_points(deep, opts).coordinates().reshape(-1, N)
        coranks = _restriction_coranks(scene, scene.omega_at(hits), constraints.jacobian(hits))
        for x, (corank, measured) in zip(hits, coranks):
            if corank >= 2 and measured >= TRUST_GAP:
                report["deep_rank_points"].append([float(v) for v in x])

    report["passed"] = not (
        report["rank_violations"]
        or report["transversality_failures"]
        or report["deep_rank_points"]
    )
    return report


def check_morin(scene: Scene, *, strata: StrataResult | None = None) -> dict:
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
        strata = compute_strata(scene)
    witnesses: list = []
    verdict = "morin"
    counts = {k: len(strata.exact_depth(k)) for k in strata.points}
    rng = np.random.default_rng(scene.rng_seed)
    box = np.array(scene.box, dtype=float)
    probe = rng.uniform(box[:, 0], box[:, 1], size=(64, scene.ambient_dim))

    for k in range(2, scene.max_depth + 1):
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

        found = strata.exact_depth(k)
        # the walk that found depth k ran on a chain reaching it
        equations = [cls.chain.chart(k).equations for cls in found]
        verdicts = _gradient_verdicts(scene, equations, [cls.x for cls in found])
        for cls, trust, rank, margin, det in zip(found, *verdicts):
            if trust == "no":
                verdict = "not_morin"
                witnesses.append(
                    {
                        "depth": k,
                        "point": [float(v) for v in cls.x],
                        "reason": "stacked chart gradients drop rank",
                        "rank": rank,
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
                        "rank_margin": margin,
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
    silently dropped. ``system`` is the :func:`_multiplier_system` the
    zero was verified on, over the point and its multipliers: that of the
    chart equations at depth k, of the constraints at depth 0, where the
    multipliers are zero. Reports leave it out.
    """

    x: np.ndarray
    stratum_depth: int
    multipliers: tuple
    residual: float
    classification: Classification | None = None
    nondegenerate: str = "inconclusive"
    bordered_det: float = 0.0
    flags: tuple = ()
    system: tuple = ()

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


def _multiplier_system(scene: Scene, equations, xi_exprs) -> tuple:
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
    return tuple(system)


def _multiplier_seeds(scene: Scene, equations, xi_exprs, xs: np.ndarray) -> np.ndarray:
    """Concatenate least-squares multiplier guesses onto point seeds.

    The guesses are one :func:`morin.linalg.gelsy_solve` of the stacked
    gradients: per seed the solve that :func:`least_squares` makes, without
    the rank and residual diagnostics it adds, which a seed does not use.
    """
    if not len(xs):
        return np.zeros((0, scene.ambient_dim + len(equations)))
    xi_vals = eval_block(xi_exprs, xs).T
    grads = System(equations, scene.ambient_dim).jacobian(xs)
    if not np.all(np.isfinite(xi_vals)):
        raise ValueError("rhs contains nan or inf")
    lams = gelsy_solve(grads.transpose(0, 2, 1), xi_vals, scene.tol_rank)
    return np.concatenate([xs, lams], axis=1)


def find_xi_zeros(scene: Scene, weights) -> list:
    """Zeros of the weighted covector on the manifold.

    Solves constraints plus all covector components (overdetermined) and
    cross-checks each zero: it must lie on the first stratum and must not
    lie on the second. Violations are flagged on the record.
    """
    xi = scene.covector_field(weights)
    system = list(scene.constraints) + xi
    opts = scene.solve_options(min(scene.grid, 14))
    outcome = solve_points(system, opts)
    records = []
    found = classify_points(scene, outcome.coordinates())
    multiplier_system = _multiplier_system(scene, scene.constraints, xi)
    for sp, cls in zip(outcome.points, found):
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
                system=multiplier_system,
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
    solution is re-verified on the chart its classification built at the
    point itself: the multipliers must reproduce the covector there, and a
    rank-deficient multiplier solve marks the record inconclusive instead
    of trusting it.
    """
    if k < 1 or k > scene.n:
        raise AnalysisError(f"restriction depth {k} not in 1..{scene.n}")
    if strata is None:
        strata = compute_strata(scene, max_depth=k)
    xi = scene.covector_field(weights)
    N = scene.ambient_dim
    diam = scene.box_diameter()

    xs = strata.samples.get(k, np.zeros((0, N)))
    systems: dict = {}

    def system_of(equations) -> tuple:
        """The multiplier system of chart equations, built once per call."""
        if equations not in systems:
            systems[equations] = _multiplier_system(scene, equations, xi)
        return systems[equations]

    candidates: list = []
    for chain in strata.chains or []:
        if chain.depth < k:
            continue
        equations = chain.chart(k).equations
        chart_samples = chain.chart(k).samples
        stacked = xs if chart_samples is None else np.vstack([xs, chart_samples])
        if not len(stacked):
            continue
        seeds = _multiplier_seeds(scene, equations, xi, stacked)
        opts = scene.solve_options(min(scene.grid, 12), dedup_radius=1e-6)
        outcome = solve_points(
            system_of(equations), opts, seeds=seeds, var_dim=N + len(equations)
        )
        candidates.extend(sp.x[:N] for sp in outcome.points)
    if k == 1 and scene.n == 1 and not strata.chains:
        # depth one of a single one-form needs no multiplier system: the
        # stratum is zero-dimensional and every point of it is a zero
        candidates.extend(np.asarray(p, dtype=float) for p in strata.samples.get(1, []))

    candidates = np.reshape(candidates, (-1, N))
    found = classify_points(scene, candidates)
    charts = [_verification_chart(scene, k, x, cls) for x, cls in zip(candidates, found)]
    verified = [None] * len(candidates)
    for group in index_groups(charts):
        equations = charts[group[0]]
        if equations is None:
            continue
        at = candidates[group]
        chart = System(equations, N)
        resid_eqs = np.max(np.abs(chart.values(at)), axis=1)
        xi_vals = eval_block(xi, at).T
        # contiguous blocks, laid out as a one-point call lays out its matrix
        G = np.ascontiguousarray(chart.jacobian(at))
        lams, resid_ls, deficient = least_squares(
            G.transpose(0, 2, 1), xi_vals, scene.tol_rank
        )
        # the larger of the two, the first where they tie or one is nan
        resid = np.where(resid_ls > resid_eqs, resid_ls, resid_eqs)
        scale = np.maximum(
            1.0, np.maximum(np.max(np.abs(xi_vals), axis=1), np.max(np.abs(G), axis=(1, 2)))
        )
        for i, lam, r, bad, off in zip(group, lams, resid, deficient, resid > 1e-6 * scale):
            if off:
                continue
            cls = found[i]
            flags = []
            if cls.kind == "inconclusive":
                flags.append(f"stratum membership unclear: {cls.note}")
            elif cls.depth >= k + 2:
                flags.append(f"restricted zero on the depth-{k + 2} stratum")
            if bad:
                flags.append("multiplier solve rank-deficient")
            verified[i] = ZeroRecord(
                x=candidates[i],
                stratum_depth=k,
                multipliers=tuple(float(v) for v in lam),
                residual=float(r),
                classification=cls,
                flags=tuple(flags),
                system=system_of(equations),
            )
    verified = [rec for rec in verified if rec is not None]
    xs = np.reshape([rec.x for rec in verified], (-1, N))
    kept = [verified[i] for i in greedy_dedup(xs, 1e-6 * diam)]
    kept.sort(key=lambda r: tuple(r.x))
    return kept


def _verification_chart(scene: Scene, k: int, x: np.ndarray, cls: Classification):
    """The depth-k chart equations a restricted-zero candidate ``x`` is
    verified on: those of the chain its classification ``cls`` built at
    ``x``, re-anchored there where that chain stops short. None where the
    candidate lies off the stratum or no chain reaches depth k."""
    if cls.kind == "regular" or (0 <= cls.depth < k):
        return None
    chain = cls.chain
    if chain is None or chain.depth < k:
        # the walk stopped before building a chain, or at the scene's depth cap
        chain = build_chain_at(scene, x, max_depth=k)
    return chain.chart(k).equations if chain.depth >= k else None


def nondegeneracy(scene: Scene, records) -> list:
    """Bordered-determinant nondegeneracy verdict for each zero record.

    The Jacobian of a record's multiplier system in the joint
    point-multiplier space is exactly the bordered matrix (covector
    Jacobian minus multiplier curvature, bordered by the chart equation
    gradients), so the zero is nondegenerate precisely when that square
    matrix has full rank with a trusted margin. The raw determinant is
    recorded alongside. At depth 0 the multipliers are zero. Returns new
    records in input order; the inputs are not mutated.
    """
    N = scene.ambient_dim
    points = [
        np.concatenate(
            [rec.x, rec.multipliers if rec.stratum_depth else np.zeros(len(rec.system) - N)]
        )
        for rec in records
    ]
    verdicts, _, _, dets = _gradient_verdicts(scene, [rec.system for rec in records], points)
    return [
        replace(rec, nondegenerate=verdict, bordered_det=0.0 if det is None else float(det))
        for rec, verdict, det in zip(records, verdicts, dets)
    ]


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
    unrestricted = nondegeneracy(scene, find_xi_zeros(scene, weights))
    restricted = {}
    for k in range(1, scene.n):
        records = find_restricted_zeros(scene, k, weights, strata=strata)
        restricted[k] = nondegeneracy(scene, records)
    return {"unrestricted": unrestricted, "restricted": restricted}


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


def manifold_reaches_boundary(scene: Scene) -> bool:
    """Compactness surrogate: does the manifold approach the box walls?

    Looks at the shell of a lattice of 48 cells per axis, coarser where
    that would pass 48^3 cells (as :func:`grid_seeds` caps its seeds): the
    cells within five percent of a wall, or in the outermost cell layer. A
    shell cell is suspect when the constraint residual could vanish inside
    it (same local-slope bound the scan oracle uses), and the verdict is
    True when one is. The shell is evaluated in blocks of ``_SCAN_CHUNK``
    cells up to the first block holding a suspect cell, and the verdict is
    kept on the scene, so a command scans once. Unconstrained scenes fill
    space and always return True.
    """
    if not scene.constraints:
        return True

    def build() -> bool:
        box = scene.box
        resolution = capped_resolution(len(box), 48, 48 ** 3)
        axes = cell_centers(box, resolution)
        cell = np.array([(hi - lo) / resolution for lo, hi in box])
        half_diag = 0.5 * float(np.linalg.norm(cell))
        shell = np.zeros((resolution,) * len(box), dtype=bool)
        for axis, ((lo, hi), centers) in enumerate(zip(box, axes)):
            # a coarse lattice puts no cell center within five percent of a wall
            margin = max(BOUNDARY_FRACTION * (hi - lo), cell[axis])
            near = (centers <= lo + margin) | (centers >= hi - margin)
            shell |= near.reshape((-1,) + (1,) * (len(box) - axis - 1))
        flat = np.flatnonzero(shell)
        constraints = System(scene.constraints, scene.ambient_dim)
        for start in range(0, flat.size, _SCAN_CHUNK):
            pts = lattice_points(axes, flat[start : start + _SCAN_CHUNK])
            vals = np.max(np.abs(constraints.values(pts)), axis=1)
            grads = np.max(np.linalg.norm(constraints.jacobian(pts), axis=2), axis=1)
            if np.any(vals <= 1.5 * grads * half_diag + 10.0 * scene.tol_residual):
                return True
        return False

    return scene.memo(("reaches_boundary",), build)


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
    N = 3
    gradient = System([differentiate(scene.constraints[0], s) for s in range(N)], N)
    opts = scene.solve_options(min(scene.grid, 12), dedup_radius=1e-5)
    surface = solve_points(scene.constraints, opts).coordinates()
    if not len(surface):
        raise AnalysisError("no surface points found in the box")

    for attempt in range(MAX_REDRAWS):
        a = draw_covector(N, seed + attempt)
        system = _multiplier_system(scene, scene.constraints, [const(float(v)) for v in a])
        grads = gradient.values(surface)
        lam0 = (grads @ a) / np.maximum(np.einsum("ij,ij->i", grads, grads), 1e-30)
        seeds = np.column_stack([surface, lam0])
        outcome = solve_points(system, opts, seeds=seeds, var_dim=N + 1)
        if not outcome.points:
            continue
        critical = outcome.coordinates()
        x, lam = critical[:, :N], critical[:, N]
        # a critical point has a nonzero gradient (lam * grad = a), so the
        # last two right singular vectors of its gradient span the tangent
        # plane, and each restricted curvature is 2 x 2
        _, _, vt = np.linalg.svd(gradient.values(x)[:, None, :])
        tangent = vt[:, 1:].transpose(0, 2, 1)
        # contiguous blocks, laid out as a one-point call lays out its matrix
        hess = np.ascontiguousarray(gradient.jacobian(x))
        restricted = tangent.transpose(0, 2, 1) @ (-lam[:, None, None] * hess) @ tangent
        table = numeric_rank(restricted, scene.tol_rank)
        if np.all(table.full & (table.margin >= TRUST_GAP)):
            return int(np.sum(np.where(determinant(restricted) > 0, 1, -1)))
    raise AnalysisError("all height draws hit a degenerate critical point")


def euler_congruence(
    scene: Scene,
    *,
    seed: int | None = None,
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
    census = None
    for attempt in range(MAX_REDRAWS):
        a = covector_weights(scene, seed, attempt)
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
            independent["manifold_morse"] = euler_via_morse(scene, seed=scene_seed(scene, seed))
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
