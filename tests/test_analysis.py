"""Tests for point classification, stratum towers, and Euler counting.

Golden values come from the closed-form geometry of the scene fixtures:
the torus degenerates on two circles with four cusp points on the x3 = 0
plane, the hyperboloid carries one cusp pair, the swallowtail coframe
has a single depth-3 point at the origin, and the sphere pair separates
a well-behaved frame from one whose depth determinant dies identically.
"""

import math
import tracemalloc
from dataclasses import replace
from typing import NamedTuple
from unittest.mock import patch

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morin.analysis import (
    TRUST_GAP,
    AnalysisError,
    _farthest_subset,
    _gradient_verdicts,
    _intersection_dims,
    _memberships,
    _multiplier_seeds,
    _multiplier_system,
    _omega_scale,
    _trusted,
    _unit_rank,
    check_corank1,
    check_morin,
    classify_point,
    classify_points,
    compute_strata,
    euler_congruence,
    euler_via_morse,
    find_restricted_zeros,
    find_xi_zeros,
    manifold_reaches_boundary,
    nondegeneracy,
    zero_census,
)
from morin.cli import main
from morin.expr import System, differentiate, eval_block
from morin.linalg import RankTable, determinant, least_squares, numeric_rank
from morin.model import (
    VALIDITY_FACTOR,
    _sigma1_charts,
    build_chain,
    build_chain_at,
    covector_weights,
    draw_covector,
    load_scene,
    parse_scene,
    select_pivots,
)
from morin.solver import (
    _SCAN_CHUNK,
    capped_resolution,
    cell_centers,
    lattice_points,
    match_point_sets,
    solve_points,
)

TORUS_CUSPS = np.array(
    [[-3.0, 3.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [3.0, -3.0, 0.0]]
)
HYPERBOLOID_CUSPS = np.array([[-1.0, -2.0, 0.0], [1.0, 2.0, 0.0]])


# -- pointwise classification -------------------------------------------------


def test_torus_cusp_point_classifies_depth_two(torus_scene):
    cls = classify_point(torus_scene, [3.0, -3.0, 0.0])
    assert cls.kind == "A2" and cls.depth == 2
    assert cls.intersection_dims == (0, 1)


def test_torus_circle_point_classifies_depth_one(torus_scene):
    # x1 = -x2, sqrt(x2^2 + x3^2) = 3: on the outer degeneracy circle
    x2 = 3.0 * math.cos(0.7)
    x3 = 3.0 * math.sin(0.7)
    cls = classify_point(torus_scene, [-x2, x2, x3])
    assert cls.kind == "A1" and cls.depth == 1
    assert cls.intersection_dims == (0,)


def test_chart_boundary_impostor_rejected(torus_scene):
    # chart-2 equations of a badly anchored chain vanish near this point,
    # but a chain rebuilt on the spot shows a clean nonzero determinant
    cls = classify_point(torus_scene, [1.2614e-05, -1.2615e-05, 3.0])
    assert cls.depth == 1


def test_torus_regular_point(torus_scene):
    x = [-2.5 + math.sqrt(0.75), 2.5, 0.0]
    cls = classify_point(torus_scene, x)
    assert cls.kind == "regular" and cls.depth == 0


def test_torus_frame_pole_is_inconclusive(torus_scene):
    cls = classify_point(torus_scene, [0.5, 0.0, 0.0])
    assert cls.kind == "inconclusive"
    assert "finite" in cls.note


def test_hyperboloid_cusps_classify(hyperboloid_scene):
    for p in HYPERBOLOID_CUSPS:
        cls = classify_point(hyperboloid_scene, p)
        assert cls.kind == "A2" and cls.intersection_dims == (0, 1)


def test_quadratic_well_origin_depth_one(quadratic_well_scene):
    cls = classify_point(quadratic_well_scene, [0.0, 0.0])
    assert cls.depth == 1


def test_swallowtail_origin_depth_three(swallowtail_scene):
    cls = classify_point(swallowtail_scene, np.zeros(3))
    assert cls.kind == "A3" and cls.depth == 3
    assert cls.intersection_dims == (0, 1, 2)


def test_classification_serializes(torus_scene):
    d = classify_point(torus_scene, [3.0, -3.0, 0.0]).as_dict()
    assert set(d) == {"x", "kind", "depth", "intersection_dims", "note"}
    assert all(isinstance(v, float) for v in d["x"])


def test_classification_keeps_the_chain_it_walked(
    torus_scene, torus_strata, swallowtail_scene
):
    cases = [(torus_scene, p) for p in TORUS_CUSPS]
    cases += [(torus_scene, p) for p in torus_strata.samples[1][:4]]
    cases.append((swallowtail_scene, np.zeros(3)))
    for scene, x in cases:
        walked = classify_point(scene, x).chain
        rebuilt = build_chain_at(scene, x)
        assert walked.depth == rebuilt.depth
        for k in range(1, rebuilt.depth + 1):
            got, expected = walked.chart(k).equations, rebuilt.chart(k).equations
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))
    # the walk stops before any chain where the coframe is not finite
    assert classify_point(torus_scene, (0.0, 0.0, 0.0)).chain is None


# -- the batched walk against the per-point walk it replaced ------------------
#
# The reference below is the one-point tower walk that ``classify_points``
# replaced, with its rank, corank and membership helpers. Its ranks are
# the per-matrix reports that the rank tables replaced.


class _Report(NamedTuple):
    """One matrix's rank decision, as the per-matrix reports gave it."""

    rank: int
    full: bool
    gap_ratio: float
    full_rank_margin: float

    @property
    def margin(self) -> float:
        return self.full_rank_margin if self.full else self.gap_ratio


def _reference_unit_rows(mat):
    """Rows scaled to unit length, zero rows dropped, one matrix at a time."""
    norms = np.linalg.norm(mat, axis=1)
    keep = norms > 0
    return mat[keep] / norms[keep, None]


def _reference_null_space(rows):
    """Orthonormal basis (columns) of the null space of ``rows``, from the
    matrix's own SVD."""
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.count_nonzero(sv > 1e-12 * (sv[0] if len(sv) else 1.0)))
    return vt[rank:].T


def _reference_rank(mat, tol) -> _Report:
    """The rank decision for one matrix from its own SVD."""
    if not mat.size:
        return _Report(0, True, math.inf, math.inf)
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = sv[0]
    if smax == 0.0:
        return _Report(0, False, 0.0, 0.0)
    rank = int(np.count_nonzero(sv > tol * smax))
    if rank == len(sv):
        gap = math.inf
    elif rank == 0:
        gap = 0.0
    else:
        # a gap past the float range (sv[rank] subnormal) is an infinite one
        with np.errstate(over="ignore"):
            gap = math.inf if sv[rank] == 0.0 else float(sv[rank - 1] / sv[rank])
    # a cutoff rounded to zero makes the margin inf, or nan at a zero sv[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        margin = float(sv[-1] / (tol * smax))
    return _Report(rank, rank == len(sv), gap, margin)


def _reference_restriction_corank(scene, omega_vals, base_grads):
    n = scene.n
    restriction = omega_vals @ _reference_null_space(base_grads) if len(base_grads) else omega_vals
    cut = scene.tol_rank * _omega_scale(scene)
    sv = np.linalg.svd(restriction, compute_uv=False) if restriction.size else np.zeros(0)
    sv = np.concatenate([sv, np.zeros(n - len(sv))]) if len(sv) < n else sv
    rank = int(np.count_nonzero(sv > cut))
    kept = sv[rank - 1] / cut if rank else math.inf
    dropped = cut / sv[rank] if rank < n and sv[rank] > 0 else math.inf
    return n - rank, float(min(kept, dropped))


def _reference_intersection_dim(omega_vals, base_grads, conormal_grads, tol):
    A = _reference_unit_rows(omega_vals)
    B = _reference_unit_rows(base_grads)
    W = _reference_unit_rows(conormal_grads)
    ra = _reference_rank(A, tol)
    rw = _reference_rank(W, tol)
    raw = _reference_rank(np.vstack([A, W]) if len(W) else A, tol)
    reports = [ra, rw, raw]
    dim_aw = ra.rank + rw.rank - raw.rank
    if len(B):
        rb = _reference_rank(B, tol)
        rab = _reference_rank(np.vstack([A, B]), tol)
        reports += [rb, rab]
        dim_ab = ra.rank + rb.rank - rab.rank
    else:
        dim_ab = 0
    trust = "inconclusive" if any(rep.margin < TRUST_GAP for rep in reports) else "yes"
    return dim_aw - dim_ab, trust


def _reference_membership(scene, expr, point):
    system = System([expr], len(point))
    value = abs(float(system.values(point)[0, 0]))
    gnorm = float(np.linalg.norm(system.jacobian(point)[0, 0]))
    diam = scene.box_diameter()
    if gnorm * diam <= value * 1e-12:
        return "yes" if value <= 100.0 * scene.tol_residual else "no"
    dist = value / gnorm
    if dist <= 1e-6 * diam:
        return "yes"
    return "no" if dist > 1e-4 * diam else "inconclusive"


def _reference_classify(scene, point):
    """Kind, depth, intersection dimensions, note and chain of the
    one-point walk."""
    x = np.asarray(point, dtype=float)
    omega_vals = scene.omega_at(x)[0]
    base_grads = System(scene.constraints, len(x)).jacobian(x)[0]
    if not (np.all(np.isfinite(omega_vals)) and np.all(np.isfinite(base_grads))):
        return "inconclusive", -1, (), "coframe values not finite here", None
    if len(base_grads):
        g_rep = _reference_rank(_reference_unit_rows(base_grads), scene.tol_rank)
        if _reference_trusted(g_rep, scene.num_constraints) != "yes":
            return "inconclusive", -1, (), "constraint gradients degenerate here", None
    corank, measured = _reference_restriction_corank(scene, omega_vals, base_grads)
    if measured < TRUST_GAP:
        return "inconclusive", -1, (), "coframe restriction rank unclear", None
    if corank <= 0:
        return "regular", 0, (), "", None
    if corank >= 2:
        return "inconclusive", -1, (), f"coframe corank {corank} exceeds 1", None

    chain = build_chain_at(scene, x)
    chart1 = chain.chart(1)
    resid = float(np.max(np.abs(chart1.residuals(x.reshape(1, -1)))))
    if resid > 1000.0 * scene.tol_residual:
        for e in chart1.equations:
            if _reference_membership(scene, e, x) == "no":
                return "regular", 0, (), "off the first stratum", chain
        return "inconclusive", -1, (), "first chart residual unclear", chain

    depth = 1
    dims = []
    note = ""
    for k in range(1, chain.depth + 1):
        prev_eqs = scene.constraints if k == 1 else chain.chart(k - 1).equations
        dim, trust = _reference_intersection_dim(
            omega_vals, base_grads, System(prev_eqs, len(x)).jacobian(x)[0], scene.tol_rank
        )
        dims.append(dim)
        if trust != "yes" or dim != k - 1:
            note = (
                f"intersection dimension {dim} at depth {k} (expected {k - 1})"
                if trust == "yes"
                else f"intersection rank untrusted at depth {k}"
            )
            break
        if k == chain.depth:
            depth = k
            break
        nxt = chain.chart(k + 1)
        verdict = _reference_membership(scene, nxt.delta, x)
        validity = float(nxt.validity_margin(x.reshape(1, -1))[0])
        if verdict == "yes" and validity < VALIDITY_FACTOR * scene.tol_rank:
            note = f"chart invalid at depth {k + 1}"
            break
        if verdict == "inconclusive":
            note = f"membership unclear at depth {k + 1}"
            break
        if verdict == "no":
            depth = k
            break
        depth = k + 1
    if note:
        return "inconclusive", -1, tuple(dims), note, chain
    if not chain.complete and depth == chain.depth and depth < min(scene.max_depth, scene.n):
        note = "; ".join(chain.notes) or "chain stopped early"
        return "inconclusive", -1, tuple(dims), note, chain
    return f"A{depth}", depth, tuple(dims), "", chain


_SPECIAL_POINTS = [
    (0.0, 0.0, 0.0),  # the torus pole: its coframe is nan
    (math.nan, 0.0, 1.0),
    (1.0, math.inf, 0.0),
    (-math.inf, 2.0, math.nan),
]


@pytest.fixture(scope="module")
def sample_pools(torus_scene, torus_strata, hyperboloid_scene, hyperboloid_strata,
                 swallowtail_scene, swallowtail_strata):
    pools = []
    for scene, strata in [
        (torus_scene, torus_strata),
        (swallowtail_scene, swallowtail_strata),
        (hyperboloid_scene, hyperboloid_strata),
    ]:
        pts = np.vstack([strata.samples[k] for k in sorted(strata.samples)] + [_SPECIAL_POINTS])
        pools.append((scene, pts))
    return pools


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_batched_walk_matches_the_per_point_walk(sample_pools, data):
    scene, pool = data.draw(st.sampled_from(sample_pools))
    picks = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pool) - 1),
                st.sampled_from([0.0, 0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.3]),
                st.integers(0, scene.ambient_dim - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # a pool point, or one nudged along an axis off its stratum
    X = pool[[i for i, _, _ in picks]].copy()
    for row, (_, step, axis) in enumerate(picks):
        X[row, axis] += step
    got = classify_points(scene, X)
    assert len(got) == len(X)
    for x, cls in zip(X, got):
        kind, depth, dims, note, chain = _reference_classify(scene, x)
        assert (cls.kind, cls.depth, cls.intersection_dims, cls.note) == (kind, depth, dims, note)
        assert cls.x.tobytes() == x.tobytes()
        if chain is None:
            assert cls.chain is None
            continue
        assert (cls.chain.depth, cls.chain.complete, cls.chain.notes) == (
            chain.depth, chain.complete, chain.notes
        )
        for a, b in zip(cls.chain.charts, chain.charts):
            assert len(a.equations) == len(b.equations)
            assert all(e is f for e, f in zip(a.equations, b.equations))


def test_classifying_no_points_gives_no_classifications(torus_scene):
    assert classify_points(torus_scene, np.zeros((0, 3))) == []


# -- stratum towers -----------------------------------------------------------


def test_torus_first_stratum_is_two_closed_curves(torus_strata):
    curves = torus_strata.curves.get(1, [])
    assert len(curves) == 2
    assert all(c.closed for c in curves)


def test_torus_cusp_golden_points(torus_strata):
    found = np.array([c.x for c in torus_strata.exact_depth(2)])
    report = match_point_sets(found, TORUS_CUSPS, tol=1e-6)
    assert report["bijective"], report


def test_torus_depth_two_intersection_dims(torus_strata):
    for cls in torus_strata.exact_depth(2):
        assert cls.intersection_dims == (0, 1)
    for cls in torus_strata.exact_depth(1):
        assert cls.intersection_dims == (0,)


def test_hyperboloid_strata_golden(hyperboloid_strata):
    curves = hyperboloid_strata.curves.get(1, [])
    assert len(curves) == 2 and not any(c.closed for c in curves)
    found = np.array([c.x for c in hyperboloid_strata.exact_depth(2)])
    assert match_point_sets(found, HYPERBOLOID_CUSPS, tol=1e-6)["bijective"]


def test_anchors_with_one_selection_share_one_chain(torus_scene, torus_strata):
    scene = torus_scene
    sigma1 = torus_strata.samples[1]
    groups: dict = {}
    for anchor in sigma1[_farthest_subset(sigma1, 4)]:
        (pivot,) = select_pivots(scene, [anchor])
        selected = _sigma1_charts(scene, [pivot], [anchor])[0].selected_cols
        groups.setdefault((pivot.rows, pivot.cols, selected), []).append(anchor)
    assert len(groups) == 2 and max(len(g) for g in groups.values()) >= 2
    chains = [build_chain(scene, group[0]) for group in groups.values()]
    assert chains[0] is not chains[1]
    listed = torus_strata.chains
    assert all(c in listed for c in chains)
    assert len({id(c) for c in listed}) == len(listed)
    for group, chain in zip(groups.values(), chains):
        assert all(build_chain(scene, a) is chain for a in group)
        # built from the group's last anchor, on a scene with an empty memo
        fresh = build_chain(replace(scene), group[-1])
        assert fresh is not chain
        assert (fresh.complete, fresh.notes) == (chain.complete, chain.notes)
        assert fresh.depth == chain.depth
        for want, got in zip(chain.charts, fresh.charts):
            assert got.equations == want.equations and got.audits == want.audits
            assert got.supplements == want.supplements
            if want.samples is None:
                assert got.samples is None
            else:
                assert got.samples.tobytes() == want.samples.tobytes()


def _record_bits(record):
    return (
        record.x.tobytes(),
        np.array(record.multipliers).tobytes(),
        np.float64(record.residual).tobytes(),
        record.flags,
        record.system,
        repr(record.as_dict()),
    )


def test_listing_every_chain_twice_changes_no_result(torus_scene, torus_strata):
    doubled = replace(torus_strata, chains=torus_strata.chains * 2)
    weights = draw_covector(2, 42)
    want = find_restricted_zeros(torus_scene, 1, weights, strata=torus_strata)
    got = find_restricted_zeros(torus_scene, 1, weights, strata=doubled)
    assert want and [_record_bits(r) for r in got] == [_record_bits(r) for r in want]
    assert repr(check_morin(torus_scene, strata=doubled)) == repr(
        check_morin(torus_scene, strata=torus_strata)
    )


def test_chains_that_share_a_chart_solve_it_once(torus_scene):
    # every anchor lists a copy of its chain, so the four anchors' two
    # selections come as four chains; each depth-2 chart is solved once
    def copied(*args, **kwargs):
        return replace(build_chain(*args, **kwargs))

    solved = []

    def spy(equations, opts, **kwargs):
        if "audits" in kwargs:
            solved.append((tuple(equations), kwargs["audits"]))
        return solve_points(equations, opts, **kwargs)

    want = compute_strata(torus_scene)
    with patch("morin.analysis.build_chain", copied), patch("morin.analysis.solve_points", spy):
        got = compute_strata(torus_scene)
    charts = [(c.chart(2).equations, c.chart(2).audits) for c in got.chains]
    assert len(charts) == 4 and len(set(charts)) == 2
    assert solved == list(dict.fromkeys(charts))
    assert got.samples.keys() == want.samples.keys()
    for k in want.samples:
        assert got.samples[k].tobytes() == want.samples[k].tobytes()
    assert [repr(c.as_dict()) for c in got.points[2]] == [repr(c.as_dict()) for c in want.points[2]]


# -- corank and fold-chain checks ---------------------------------------------


def test_corank_check_passes_on_torus(torus_scene):
    report = check_corank1(torus_scene)
    assert report["passed"] and not report["rank_violations"]
    assert report["sigma1_points"] > 0


def test_corank_check_passes_on_quadratic_well(quadratic_well_scene):
    report = check_corank1(quadratic_well_scene)
    assert report["passed"] and not report["deep_rank_points"]


def test_torus_is_morin_with_clean_determinants(torus_scene, torus_strata):
    report = check_morin(torus_scene, strata=torus_strata)
    assert report["verdict"] == "morin"
    holds = [w for w in report["witnesses"] if w["reason"] == "conditions hold"]
    assert len(holds) == 4
    dets = sorted(abs(w["stack_det"]) for w in holds)
    # two cusps on each circle; |det| = 128/3 inner, 128 outer
    assert dets[0] == pytest.approx(128.0 / 3.0, rel=1e-6)
    assert dets[-1] == pytest.approx(128.0, rel=1e-6)
    assert all(w["rank_margin"] >= 1e4 for w in holds)


def test_sphere_v_fails_with_identically_zero_determinant(sphere_v_scene):
    report = check_morin(sphere_v_scene)
    assert report["verdict"] == "not_morin"
    reasons = " ".join(w["reason"] for w in report["witnesses"])
    assert "vanishes identically" in reasons and "rank" in reasons


# -- covector zeros -----------------------------------------------------------


def test_torus_zero_census_golden(torus_scene, torus_strata):
    census = zero_census(torus_scene, [1.0, 0.0], strata=torus_strata)
    unrest = census["unrestricted"]
    rest = census["restricted"][1]
    assert len(unrest) == 4 and len(rest) == 8
    expected = np.array(
        [[0.0, 0.0, -3.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 3.0]]
    )
    found = np.array([r.x for r in unrest])
    assert match_point_sets(found, expected, tol=1e-6)["bijective"]
    assert all(r.nondegenerate == "yes" for r in unrest + rest)
    assert all(r.classification.depth == 1 for r in unrest)
    deep = [r for r in rest if r.classification.depth == 2]
    assert len(deep) == 4


def test_unrestricted_zero_bordered_dets(torus_scene):
    records = nondegeneracy(torus_scene, find_xi_zeros(torus_scene, [1.0, 0.0]))
    dets = sorted(abs(r.bordered_det) for r in records)
    assert dets[0] == pytest.approx(16.0 / 3.0, rel=1e-6)
    assert dets[-1] == pytest.approx(16.0, rel=1e-6)


def test_nondegeneracy_returns_new_record(torus_scene):
    record = find_xi_zeros(torus_scene, [1.0, 0.0])[0]
    (out,) = nondegeneracy(torus_scene, [record])
    assert out is not record
    assert record.nondegenerate == "inconclusive"
    assert out.nondegenerate == "yes"


def test_restricted_zero_seeds_each_sample_once(torus_scene, torus_strata):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["seeds"])
        return solve_points(*args, **kwargs)

    with patch("morin.analysis.solve_points", spy):
        find_restricted_zeros(torus_scene, 1, [1.0, 0.0], strata=torus_strata)
    samples = torus_strata.samples[1]
    assert seen and len(samples)
    for seeds in seen:
        assert len(np.unique(seeds, axis=0)) == len(seeds)
        assert np.array_equal(seeds[:, : torus_scene.ambient_dim], samples)


def _reference_trusted(report, rank):
    """The trust rule with each branch spelled out: the reference for
    ``_trusted`` and the margin of a rank table."""
    if report.rank != rank:
        measured = report.gap_ratio if not report.full else report.full_rank_margin
        return "no" if measured >= TRUST_GAP else "inconclusive"
    measured = report.full_rank_margin if report.full else report.gap_ratio
    return "yes" if measured >= TRUST_GAP else "inconclusive"


def _reference_nondegeneracy(scene, record, weights):
    """Nondegeneracy with the chart chain rebuilt at the zero, and the
    multipliers solved again when their count disagrees with the chart's:
    the reference for the chart a record keeps. Returns the verdict, the
    bits of the bordered determinant and the flags."""
    xi = scene.covector_field(weights)
    N = scene.ambient_dim
    k = record.stratum_depth
    if k == 0:
        equations = list(scene.constraints)
        lam = np.zeros(len(equations))
    else:
        chain = build_chain_at(scene, record.x, max_depth=k)
        if chain.depth < k:
            return "inconclusive", None, record.flags + ("no chart chain at the zero",)
        equations = list(chain.chart(k).equations)
        lam = np.asarray(record.multipliers, dtype=float)
        if len(lam) != len(equations):
            G = System(equations, N).jacobian(record.x)[0]
            xi_vals = eval_block(xi, record.x.reshape(1, -1))[:, 0]
            lam = least_squares(G.T[None], xi_vals[None], scene.tol_rank)[0][0]
    system = _multiplier_system(scene, equations, xi)
    q = len(equations)
    J = System(system, N + q).jacobian(np.concatenate([record.x, lam]))[0]
    rep = _reference_rank(_reference_unit_rows(J), scene.tol_rank)
    det = determinant(J[None])[0] if J.shape[0] == J.shape[1] else 0.0
    return _reference_trusted(rep, N + q), np.float64(det).tobytes(), record.flags


def _assert_reference_nondegeneracy(scene, records, weights):
    assert records
    for record, out in zip(records, nondegeneracy(scene, records)):
        got = (out.nondegenerate, np.float64(out.bordered_det).tobytes(), out.flags)
        assert got == _reference_nondegeneracy(scene, record, weights)


def test_nondegeneracy_matches_the_chain_rebuilding_reference(
    torus_scene, torus_strata, sphere_v_scene
):
    weights = [1.0, 0.0]
    records = find_xi_zeros(torus_scene, weights)
    records += find_restricted_zeros(torus_scene, 1, weights, strata=torus_strata)
    assert {r.stratum_depth for r in records} == {0, 1}
    _assert_reference_nondegeneracy(torus_scene, records, weights)
    # the records of `zeros sphere_v --stratum 1`
    scene = sphere_v_scene
    weights = scene.covector or draw_covector(scene.n, scene.rng_seed)
    records = find_restricted_zeros(scene, 1, weights, strata=compute_strata(scene))
    _assert_reference_nondegeneracy(scene, records, weights)


def test_one_census_draw_builds_each_multiplier_system_once(sphere_v_scene):
    scene = sphere_v_scene
    strata = compute_strata(scene)
    built, systems = [], []

    def spy(scene, equations, xi):
        built.append((tuple(equations), tuple(xi)))
        systems.append(_multiplier_system(scene, equations, xi))
        return systems[-1]

    with patch("morin.analysis._multiplier_system", spy):
        census = zero_census(scene, draw_covector(scene.n, 42), strata=strata)
        records = census["unrestricted"] + census["restricted"][1]
        assert {r.stratum_depth for r in records} == {0, 1}
        # each record carries a system of its draw, so assessing it builds none
        assert all(any(r.system is system for system in systems) for r in records)
        nondegeneracy(scene, records)
    assert len(built) >= 3 and len(set(built)) == len(built)


def _one_point_verdict(scene, equations, x):
    """The gradient verdict of one point spelled out: the reference for
    ``_gradient_verdicts``."""
    J = System(equations, len(x)).jacobian(x)[0]
    rep = _reference_rank(_reference_unit_rows(J), scene.tol_rank)
    det = determinant(J[None])[0] if J.shape[0] == J.shape[1] else None
    return _reference_trusted(rep, len(equations)), rep.rank, rep.margin, det


def _verdict_bits(verdict, rank, margin, det):
    return (
        verdict,
        rank,
        np.float64(margin).tobytes(),
        None if det is None else np.float64(det).tobytes(),
    )


def test_gradient_verdicts_are_bitwise_the_one_point_path(torus_scene, torus_strata):
    # chart equations at their samples (3 columns, 2 or 3 rows) and the
    # multiplier systems at seeded point-multiplier pairs (3 + q columns),
    # interleaved so that every group takes points from across the list
    xi = torus_scene.covector_field([1.0, 0.0])
    items = []
    for chain in torus_strata.chains:
        for k in range(1, chain.depth + 1):
            equations = chain.chart(k).equations
            xs = torus_strata.samples[k][:6]
            items += [(equations, x) for x in xs]
            system = _multiplier_system(torus_scene, equations, xi)
            items += [(system, p) for p in _multiplier_seeds(torus_scene, equations, xi, xs)]
    items = items[::2] + items[1::2]
    assert len({(len(eqs), len(x)) for eqs, x in items}) >= 3
    got = _gradient_verdicts(torus_scene, [eqs for eqs, _ in items], [x for _, x in items])
    assert all(len(column) == len(items) for column in got)
    for (equations, x), out in zip(items, zip(*got)):
        want = _one_point_verdict(torus_scene, equations, x)
        assert _verdict_bits(*out) == _verdict_bits(*want)


def test_multiplier_seeds_are_bitwise_the_least_squares_solutions(torus_scene, torus_strata):
    xi = torus_scene.covector_field([1.0, 0.0])
    for chain in torus_strata.chains:
        for k in range(1, chain.depth + 1):
            equations = chain.chart(k).equations
            xs = torus_strata.samples[k]
            seeds = _multiplier_seeds(torus_scene, equations, xi, xs)
            grads = System(equations, 3).jacobian(xs)
            xi_vals = eval_block(xi, xs).T
            for seed, x, G, v in zip(seeds, xs, grads, xi_vals):
                lam = least_squares(G.T[None], v[None], torus_scene.tol_rank)[0][0]
                assert seed.tobytes() == np.concatenate([x, lam]).tobytes()
    # the covector is nan on the torus pole
    with pytest.raises(ValueError, match="rhs contains nan or inf"):
        _multiplier_seeds(torus_scene, equations, xi, np.zeros((1, 3)))


def test_restricted_depth_out_of_range_raises(torus_scene):
    with pytest.raises(AnalysisError):
        find_restricted_zeros(torus_scene, 5, [1.0, 0.0])


# -- Euler counting -----------------------------------------------------------


def test_torus_congruence_uses_scene_covector(torus_euler):
    report = torus_euler
    assert report.congruence_holds is True
    assert report.counts == {"unrestricted": 4, "restricted_1": 8, "deepest_2": 4}
    assert report.parities == {"manifold": 0, "strata": {1: 0, 2: 0}}
    assert report.independent["manifold_morse"] == 0
    assert report.independent["first_stratum"] == 0
    assert report.draws[0]["weights"] == [1.0, 0.0]
    assert report.draws[0]["accepted"]


def test_torus_decomposition_consistent(torus_euler):
    block = torus_euler.decomposition[1]
    assert block["consistent"]
    assert block["on_depth_k"] + block["on_depth_k_plus_1"] == block["total"]


def test_hyperboloid_congruence_refuses_open_surface(hyperboloid_scene):
    report = euler_congruence(hyperboloid_scene)
    assert report.congruence_holds is None
    assert any("boundary" in n for n in report.notes)
    with pytest.raises(AnalysisError):
        euler_via_morse(hyperboloid_scene)


def _reference_restricted_curvatures(gradient, critical):
    """The restricted curvature of each critical point ``(x, lam)`` of a
    height on a surface, one point at a time, on a tangent basis from the
    gradient's own SVD."""
    restricted = []
    for sp in critical:
        x, lam = sp[:3], sp[3]
        grad = gradient.values(x)[0]
        hess = gradient.jacobian(x)[0]
        tangent = _reference_null_space(grad.reshape(1, -1))
        restricted.append(tangent.T @ (-lam * hess) @ tangent)
    return np.stack(restricted)


def test_morse_index_signs_are_the_restricted_curvature_signs(
    torus_scene, sphere_v_scene, sphere_w_scene
):
    # (-1)^(qN) times the sign of the bordered determinant is the sign of
    # the restricted curvature's determinant at every critical point
    for scene in (torus_scene, sphere_v_scene, sphere_w_scene):
        gradient = System([differentiate(scene.constraints[0], s) for s in range(3)], 3)
        parity = (-1) ** (scene.num_constraints * scene.ambient_dim)
        for seed in range(5):
            audited = []

            def spy(scene, equation_sets, points):
                out = _gradient_verdicts(scene, equation_sets, points)
                audited.append((np.array(points), out[0], out[3]))
                return out

            with patch("morin.analysis._gradient_verdicts", spy):
                count = euler_via_morse(scene, seed=seed)
            assert audited
            for critical, verdicts, dets in audited:
                want = np.sign(determinant(_reference_restricted_curvatures(gradient, critical)))
                signs = parity * np.sign(dets)
                kept = np.array(verdicts) == "yes"
                assert np.array_equal(signs[kept], want[kept])
            critical, verdicts, dets = audited[-1]
            assert set(verdicts) == {"yes"} and count == parity * int(np.sum(np.sign(dets)))


@pytest.mark.parametrize(
    ("constraints", "box", "grid", "chi"),
    [
        (["x1^2 + 2*x2^2 + 3*x3^2 - 1"], [(-2.0, 2.0)] * 3, None, 2),
        # a genus-2 surface: the tube around the figure eight x2^2 = -p(x1)
        (
            ["(x1*(x1-1)^2*(x1-2) + x2^2)^2 + x3^2 - 0.01"],
            [(-1.0, 3.0), (-1.5, 1.5), (-0.5, 0.5)],
            48,
            -2,
        ),
    ],
)
def test_morse_count_is_the_euler_number(constraints, box, grid, chi):
    assert euler_via_morse(_flat_scene(constraints, box, grid=grid)) == chi


@pytest.mark.parametrize(
    ("path", "chi"),
    [
        ("scenes/torus.scene", 0),
        ("scenes/sphere_w.scene", 2),
        ("scenes/sphere_v.scene", 2),
        ("tests/golden/generated/s2_two_constraints.scene", 2),
        ("tests/golden/generated/s3_quaternion.scene", 0),
    ],
)
def test_covector_index_sum_is_the_morse_count(path, chi):
    # Poincare-Hopf: the indices of the covector's zeros on M sum to
    # chi(M), each index (-1)^(qN) times the sign of its bordered
    # determinant, whatever the weights; a Morse count in any dimension
    # and codimension gives the same integer
    scene = load_scene(path)
    assert euler_via_morse(scene) == chi
    parity = (-1) ** (scene.num_constraints * scene.ambient_dim)
    for seed in (None, 42, 1, 2):
        records = nondegeneracy(scene, find_xi_zeros(scene, covector_weights(scene, seed)))
        assert all(rec.nondegenerate == "yes" for rec in records)
        assert parity * int(np.sum(np.sign([rec.bordered_det for rec in records]))) == chi


def test_boundary_surrogate(torus_scene, hyperboloid_scene, quadratic_well_scene):
    assert not manifold_reaches_boundary(torus_scene)
    assert manifold_reaches_boundary(hyperboloid_scene)
    # an unconstrained scene fills space: no cell is evaluated
    assert _spied_scan(quadratic_well_scene, _SCAN_CHUNK) == (True, [])
    # S^2 x R crosses the walls of its 4-D box, seen on the capped lattice
    assert manifold_reaches_boundary(load_scene("tests/golden/generated/s2_cross_line.scene"))


def _flat_scene(constraints, box, grid=None):
    """A scene on the given constraints and box with the constant 1-frame
    along the first axis, on the default grid unless ``grid`` is given."""
    dim = len(box)
    names = ", ".join(f"x{i + 1}" for i in range(dim))
    return parse_scene(
        f"[scene]\nambient_dim = {dim}\nvars = {names}\n[manifold]\n"
        + "".join(f"constraint = {c}\n" for c in constraints)
        + f"[coframe]\nn = 1\nomega_1 = {', '.join(['1'] + ['0'] * (dim - 1))}\n"
        + f"[solver]\nbox = {', '.join(f'{lo!r}:{hi!r}' for lo, hi in box)}\n"
        + (f"grid = {grid}\n" if grid else "")
    )


def whole_lattice_suspects(scene):
    """The suspect shell cells of the compactness scan as one bool per cell
    of the whole lattice, in C order, computed over the whole lattice at
    once as the scan did before it streamed its shell."""
    box = scene.box
    resolution = capped_resolution(len(box), 48, 48**3)
    pts = lattice_points(cell_centers(box, resolution))
    constraints = System(scene.constraints, scene.ambient_dim)
    vals = np.max(np.abs(constraints.values(pts)), axis=1)
    cell = np.array([(hi - lo) / resolution for lo, hi in box])
    half_diag = 0.5 * float(np.linalg.norm(cell))
    grads = np.max(np.linalg.norm(constraints.jacobian(pts), axis=2), axis=1)
    suspect = vals <= 1.5 * grads * half_diag + 10.0 * scene.tol_residual
    shell = np.zeros(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        margin = max(0.05 * (hi - lo), cell[axis])
        shell |= (pts[:, axis] <= lo + margin) | (pts[:, axis] >= hi - margin)
    return suspect & shell, shell, pts


def _spied_scan(scene, chunk):
    """The verdict of a scan with blocks of ``chunk`` cells, and the points
    of each block, checked to reach values and jacobian alike."""
    calls = []

    class Spy(System):
        def values(self, points):
            calls.append(("values", np.array(points)))
            return super().values(points)

        def jacobian(self, points):
            calls.append(("jacobian", np.array(points)))
            return super().jacobian(points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("morin.analysis.System", Spy)
        mp.setattr("morin.analysis._SCAN_CHUNK", chunk)
        verdict = manifold_reaches_boundary(scene)
    assert [kind for kind, _ in calls] == ["values", "jacobian"] * (len(calls) // 2)
    blocks = [pts for _, pts in calls[::2]]
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(calls[::2], calls[1::2]))
    return verdict, blocks


@st.composite
def scan_scenes(draw):
    """Spheres (cut by a plane from three dimensions on) in boxes of two to
    six dimensions, whose radius puts the manifold anywhere from deep
    inside the shell's inner edge to across the walls: the lattice is 48
    per axis up to three dimensions, capped above (18, 10 and 8 per axis)."""
    dim = draw(st.integers(2, 6))
    lo = [draw(st.sampled_from([-2.0, -1.5, -1.0, -0.75])) for _ in range(dim)]
    hi = [draw(st.sampled_from([0.75, 1.0, 1.5, 2.5])) for _ in range(dim)]
    radius = draw(st.floats(0.3, 1.2))
    center = [draw(st.sampled_from([0.0, 0.1, -0.2])) for _ in range(dim)]
    sphere = " + ".join(f"(x{i + 1} - {c!r})^2" for i, c in enumerate(center))
    constraints = [f"{sphere} - {radius * radius!r}"]
    if dim >= 3 and draw(st.booleans()):
        constraints.append(f"x1 - {draw(st.sampled_from([0.0, 0.5]))!r} * x{dim}")
    return _flat_scene(constraints, list(zip(lo, hi)))


@given(scene=scan_scenes(), chunk=st.sampled_from([97, -1, 0, 1, _SCAN_CHUNK]))
@settings(max_examples=40, deadline=None)
def test_boundary_scan_matches_the_whole_lattice_form(scene, chunk):
    # The verdict, and the blocks up to the first holding a suspect cell,
    # against the whole-lattice form, with blocks of 97 cells, of the shell
    # size less one (a last block of one cell), exactly and plus one, and
    # of _SCAN_CHUNK.
    suspects, shell, pts = whole_lattice_suspects(scene)
    on_shell = np.flatnonzero(shell)
    size = len(on_shell)
    if chunk in (-1, 0, 1):
        chunk += size
    verdict, blocks = _spied_scan(scene, chunk)
    assert verdict == bool(np.any(suspects))
    hits = np.flatnonzero(suspects[on_shell])
    stop = hits[0] // chunk + 1 if len(hits) else -(-size // chunk)
    assert len(blocks) == stop
    want = pts[on_shell[: stop * chunk]]
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    assert max(map(len, blocks)) <= chunk


def _center_index(box, resolution, pts):
    """The lattice index of each point, which must be a cell center of the
    lattice of ``resolution`` cells per axis over the box."""
    centers = cell_centers(box, resolution)
    index = np.column_stack(
        [np.minimum(np.searchsorted(c, col), resolution - 1) for c, col in zip(centers, pts.T)]
    )
    assert all(np.array_equal(c[i], col) for c, i, col in zip(centers, index.T, pts.T))
    return index


def test_boundary_scan_lattice_is_capped():
    # 18 cells per axis: the largest count whose lattice fits under 48^3.
    # Every evaluated point is a cell center of that lattice and no call
    # passes the block. The margin is one cell (2/9, more than five percent
    # of 4) and the second centers lie 1.5 cells from a wall, so a scan
    # that finds no suspect cell evaluates the outermost layer, each cell
    # once: 18^4 - 16^4 cells.
    sphere = _flat_scene(["x1^2 + x2^2 + x3^2 + x4^2 - 1"], [(-2.0, 2.0)] * 4)
    verdict, blocks = _spied_scan(sphere, _SCAN_CHUNK)
    assert not verdict and max(map(len, blocks)) <= _SCAN_CHUNK
    index = _center_index(sphere.box, 18, np.concatenate(blocks))
    assert np.any((index == 0) | (index == 17), axis=1).all()
    assert len(np.unique(index, axis=0)) == len(index) == 18**4 - 16**4
    # 6 cells per axis in six dimensions, the largest count under 48^3;
    # there no cell center lies within five percent of a wall, the
    # outermost layer still counts as the boundary shell, and its first
    # block holds a suspect cell
    plane = _flat_scene(["x1 + x2 + x3 + x4 + x5 + x6"], [(-1.0, 1.0)] * 6)
    verdict, blocks = _spied_scan(plane, _SCAN_CHUNK)
    assert verdict and len(blocks) == 1 and len(blocks[0]) == _SCAN_CHUNK
    index = _center_index(plane.box, 6, blocks[0])
    assert np.any((index == 0) | (index == 5), axis=1).all()


def test_boundary_scan_memory_stays_under_a_few_blocks():
    # A 4-D scene at the 18^4 cap, whose scan finds no suspect cell and so
    # evaluates its whole shell (39,440 cells): the whole-lattice form
    # peaked at 12.6 MB, the streamed scan holds the shell's mask and
    # indices and one block's arrays, about 2.5 MB
    sphere = _flat_scene(["x1^2 + x2^2 + x3^2 + x4^2 - 1"], [(-2.0, 2.0)] * 4)
    tracemalloc.start()
    try:
        assert not manifold_reaches_boundary(sphere)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_euler_scans_for_the_boundary_once(monkeypatch, capsys):
    # euler_congruence and euler_via_morse both need the verdict; the
    # scene keeps it, so one command scans one lattice
    scans = []

    def counting(box, resolution):
        scans.append(resolution)
        return cell_centers(box, resolution)

    monkeypatch.setattr("morin.analysis.cell_centers", counting)
    assert main(["euler", "scenes/torus.scene", "--seed", "42", "--no-timings"]) == 0
    assert '"manifold_morse": 0' in capsys.readouterr().out
    assert scans == [48]


# -- helpers ------------------------------------------------------------------


_MARGINS = st.one_of(
    st.sampled_from([0.0, TRUST_GAP, math.nan, math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_REPORTS = st.builds(
    lambda rank, size, gap, margin: _Report(rank, rank == size, gap, margin),
    st.integers(0, 4),
    st.integers(0, 4),
    _MARGINS,
    _MARGINS,
)


def _table(reports) -> RankTable:
    return RankTable(
        np.array([r.rank for r in reports], dtype=int),
        np.array([r.full for r in reports], dtype=bool),
        np.array([r.margin for r in reports], dtype=float),
    )


@given(st.lists(_REPORTS, min_size=5, max_size=5), st.integers(0, 4), st.booleans())
@settings(max_examples=200, deadline=None)
def test_trust_rule_matches_the_spelled_out_formulas(reports, rank, with_base):
    assert _trusted(_table(reports), rank).tolist() == [
        _reference_trusted(rep, rank) for rep in reports
    ]
    # _intersection_dims ranks three stacks, or five when there is a base;
    # a nan margin, which no finite matrix gives, counts as untrusted there
    # as in _trusted
    used = reports if with_base else reports[:3]
    base = np.ones((1, 1, 3)) if with_base else np.zeros((1, 0, 3))
    with patch("morin.analysis.numeric_rank", side_effect=[_table([r]) for r in used]):
        dims, trusted = _intersection_dims(np.eye(3)[None], base, np.ones((1, 2, 3)), 1e-8)
    ra, rw, raw, *rest = used
    want = ra.rank + rw.rank - raw.rank
    if rest:
        rb, rab = rest
        want -= ra.rank + rb.rank - rab.rank
    assert dims.tolist() == [want]
    assert trusted.tolist() == [all(r.margin >= TRUST_GAP for r in used)]


def _rank_bits(rank, full, margin) -> tuple:
    return int(rank), bool(full), np.float64(margin).tobytes()


# zeros, small integers and tiny values make rank-deficient matrices, zero
# rows and subnormal singular values common; the rest spreads singular
# values over many decades
_RANK_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-12, 3e7, 1e-310, 5e-324]),
    st.floats(-10.0, 10.0, allow_subnormal=False),
)


@st.composite
def _rank_stacks(draw):
    """C-contiguous (P, m, N) stacks with N up to 16: some matrices zero,
    some with zero rows, some with a row that a subnormal nudge sets apart
    from another, and some with a row scaled down to subnormal size."""
    P, m, N = draw(st.integers(1, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 16))
    a = draw(hnp.arrays(float, (P, m, N), elements=_RANK_ENTRY))
    for p in range(P):
        kind = draw(st.sampled_from(["plain", "zero", "zero row", "nudged", "scaled"]))
        if kind == "zero":
            a[p] = 0.0
        elif kind == "zero row" and m:
            a[p, draw(st.integers(0, m - 1))] = 0.0
        elif kind == "nudged" and m > 1 and N:
            a[p, -1] = a[p, 0]
            a[p, -1, draw(st.integers(0, N - 1))] += draw(st.sampled_from([1e-310, -5e-324]))
        elif kind == "scaled" and m:
            a[p, -1] *= draw(st.sampled_from([1e-310, 1e-320]))
    return a


@given(_rank_stacks(), st.sampled_from([1e-8, 1e-3, 0.5]))
# a subnormal sv[rank], raw and after unit scaling, whose gap overflows to inf
@example(np.array([[[1.0, 0.0], [0.0, 1e-310]], [[1.0, 0.0], [1.0, 1e-310]]]), 1e-8)
# a zero row in one matrix of two
@example(np.array([[[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]], [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]]), 1e-8)
@settings(max_examples=300, deadline=None)
def test_rank_tables_are_bitwise_the_per_matrix_reports(stack, tol):
    raw, unit = numeric_rank(stack, tol), _unit_rank(stack, tol)
    for p, m in enumerate(stack):
        want = _reference_rank(m, tol)
        assert _rank_bits(*(column[p] for column in raw)) == _rank_bits(
            want.rank, want.full, want.margin
        )
        want = _reference_rank(_reference_unit_rows(m), tol)
        assert _rank_bits(*(column[p] for column in unit)) == _rank_bits(
            want.rank, want.full, want.margin
        )


def test_membership_tri_state(torus_scene):
    g = torus_scene.constraints[0]
    pts = np.array([[3.0, -3.0, 0.0], [5.0, 5.0, 5.0]])
    (on,), (off,) = _memberships(torus_scene, [g], pts)
    assert on == "yes" and off == "no"


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_farthest_subset_properties(pts, count):
    arr = np.array(pts, dtype=float)
    idx = _farthest_subset(arr, count)
    assert idx and idx[0] == 0
    assert len(idx) == len(set(idx)) <= count
    chosen = arr[idx]
    # greedy spread never picks a duplicate location
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            assert np.linalg.norm(chosen[i] - chosen[j]) > 0
