"""Tests for the point solver, the curve tracer, and the scan oracle.

Fixtures reuse the bundled scenes whose solution sets are known exactly:
the tilted torus (two degeneracy circles, four covector zeros on the
axis) and the hyperboloid pair (two isolated deep-stratum points).
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from morin import solver
from morin.expr import eval_block, parse, simplify
from morin.model import build_chain, corank_system, load_scene
from morin.solver import (
    _SCAN_CHUNK,
    SolveOptions,
    TracedCurve,
    _cell_slope,
    _face_dilation,
    _lattice_chunks,
    _local_slope,
    _scan_box,
    _scan_clusters,
    greedy_dedup,
    grid_oracle,
    cell_centers,
    grid_seeds,
    in_box,
    lattice_points,
    match_point_sets,
    solve_points,
    trace_curves,
)

V2 = ("x1", "x2")


def system2(*texts):
    return [parse(t, V2) for t in texts]


def torus_zero_system():
    sc = load_scene("scenes/torus.scene")
    return list(sc.constraints) + list(sc.covector_field(sc.covector)), sc


def hyperboloid_depth2():
    sc = load_scene("scenes/hyperboloid.scene")
    chain = build_chain(sc, anchor=(1.0, 2.0, 0.0))
    return chain.chart(2), sc


def torus_depth2():
    sc = load_scene("scenes/torus.scene")
    chain = build_chain(sc, anchor=(-3.0, 3.0, 0.0))
    return chain.chart(2), sc


# -- options and seeding ------------------------------------------------------


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(box=())
    with pytest.raises(ValueError):
        SolveOptions(box=((1.0, -1.0),))
    with pytest.raises(ValueError):
        SolveOptions(box=((-1.0, 1.0),), grid=4)
    with pytest.raises(ValueError):
        SolveOptions(box=((-1.0, 1.0),), tol_residual=0.0)
    opts = SolveOptions(box=((-3.0, 3.0), (-4.0, 4.0)))
    assert opts.diameter == pytest.approx(10.0)


def test_grid_seeds_cap_and_coverage():
    seeds = grid_seeds(((-1.0, 1.0), (-1.0, 1.0)), grid=10)
    assert seeds.shape == (100, 2)
    assert in_box(seeds, ((-1.0, 1.0), (-1.0, 1.0))).all()
    capped = grid_seeds(((0.0, 1.0),) * 4, grid=64, cap=10_000)
    assert capped.shape[0] <= 10_000
    assert capped.shape[0] >= 8**4


def test_in_box_slack():
    box = ((0.0, 1.0),)
    assert not in_box([[1.0 + 1e-12]], box)[0]
    assert in_box([[1.0 + 1e-12]], box, slack=1e-9)[0]


# -- point solving ------------------------------------------------------------


def test_solves_plane_intersection():
    eqs = system2("x1^2 + x2^2 - 25", "x1 - x2 - 1")
    opts = SolveOptions(box=((-6.0, 6.0), (-6.0, 6.0)), grid=8)
    out = solve_points(eqs, opts)
    assert out.coordinates() == pytest.approx(np.array([[-3.0, -4.0], [4.0, 3.0]]))
    assert all(p.residual <= opts.tol_residual for p in out.points)
    assert all(p.jacobian_rank.full for p in out.points)
    assert out.stats["seeds"] == 64 and out.stats["converged"] == 2


def test_result_is_sorted_and_deduplicated():
    eqs = system2("(x1^2 - 1) * (x1 - 2)", "x2")
    opts = SolveOptions(box=((-3.0, 3.0), (-3.0, 3.0)), grid=12)
    out = solve_points(eqs, opts)
    xs = out.coordinates()[:, 0]
    assert xs == pytest.approx([-1.0, 1.0, 2.0])
    assert list(xs) == sorted(xs)
    assert out.stats["deduplicated"] > 0


def test_audit_equations_reject_roots():
    eqs = system2("x1^2 - 1", "x2")
    audit = system2("x1 - 1")  # only the root at x1 = 1 passes
    opts = SolveOptions(box=((-2.0, 2.0), (-2.0, 2.0)), grid=8)
    out = solve_points(eqs, opts, audits=audit)
    assert out.coordinates() == pytest.approx(np.array([[1.0, 0.0]]))
    assert out.stats["audit_rejected"] > 0


def test_no_solutions_is_clean():
    out = solve_points(
        system2("x1^2 + x2^2 + 1"),
        SolveOptions(box=((-2.0, 2.0), (-2.0, 2.0)), grid=8),
    )
    assert out.points == []
    assert out.coordinates().shape == (0, 0)


def test_explicit_seeds_and_extra_variables():
    # one boxed variable, one free multiplier: x1^2 = 1, t = 2 x1
    eqs = [parse("x1^2 - 1", ("x1", "t")), parse("t - 2*x1", ("x1", "t"))]
    seeds = np.array([[0.5, 0.0], [-0.5, 0.0]])
    opts = SolveOptions(box=((-2.0, 2.0),))
    out = solve_points(eqs, opts, seeds=seeds, var_dim=2)
    assert out.coordinates() == pytest.approx(np.array([[-1.0, -2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="seeds"):
        solve_points(eqs, opts, var_dim=2)


def test_out_of_box_roots_are_dropped():
    eqs = system2("x1 - 3", "x2")
    opts = SolveOptions(box=((-1.0, 1.0), (-1.0, 1.0)), grid=8)
    out = solve_points(eqs, opts)
    assert out.points == []
    assert out.stats["out_of_box"] > 0


def test_torus_covector_zeros():
    system, sc = torus_zero_system()
    opts = SolveOptions(box=sc.box, grid=12)
    out = solve_points(system, opts)
    expect = np.array([[0, 0, -3.0], [0, 0, -1.0], [0, 0, 1.0], [0, 0, 3.0]])
    report = match_point_sets(out.coordinates(), expect, tol=1e-7)
    assert report["bijective"], report


def test_hyperboloid_deep_points():
    chart, sc = hyperboloid_depth2()
    opts = SolveOptions(box=sc.box, grid=12)
    out = solve_points(chart.equations, opts, audits=chart.audits)
    expect = np.array([[-1.0, -2.0, 0.0], [1.0, 2.0, 0.0]])
    assert out.coordinates() == pytest.approx(expect, abs=1e-7)


# -- curve tracing ------------------------------------------------------------


def test_traces_circle_closed():
    eqs = system2("x1^2 + x2^2 - 4")
    opts = SolveOptions(box=((-3.0, 3.0), (-3.0, 3.0)))
    curves = trace_curves(eqs, opts)
    assert len(curves) == 1
    c = curves[0]
    assert isinstance(c, TracedCurve)
    assert c.closed and not c.reached_boundary
    assert c.length == pytest.approx(4 * math.pi, rel=1e-3)
    assert np.allclose(np.linalg.norm(c.points, axis=1), 2.0, atol=1e-6)


def test_traces_open_segment_to_boundary():
    eqs = system2("x2 - x1")
    opts = SolveOptions(box=((-1.0, 1.0), (-1.0, 1.0)))
    curves = trace_curves(eqs, opts)
    assert len(curves) == 1
    c = curves[0]
    assert not c.closed and c.reached_boundary
    assert c.length == pytest.approx(2 * math.sqrt(2.0), rel=1e-2)


def test_traces_both_torus_degeneracy_circles():
    sc = load_scene("scenes/torus.scene")
    curves = trace_curves(corank_system(sc), SolveOptions(box=sc.box))
    assert len(curves) == 2
    assert all(c.closed for c in curves)
    radii = sorted(np.hypot(c.points[:, 1], c.points[:, 2]).mean() for c in curves)
    assert radii == pytest.approx([1.0, 3.0], abs=1e-4)
    for c in curves:
        assert np.max(np.abs(c.points[:, 0] + c.points[:, 1])) < 1e-6
    lengths = sorted(c.length for c in curves)
    assert lengths == pytest.approx([7.6404, 22.9213], rel=1e-3)


def test_empty_curve_set():
    curves = trace_curves(
        system2("x1^2 + x2^2 + 1"),
        SolveOptions(box=((-2.0, 2.0), (-2.0, 2.0))),
    )
    assert curves == []


# -- scan oracle --------------------------------------------------------------


def test_oracle_agrees_with_solver_on_torus_zeros():
    system, sc = torus_zero_system()
    reps = grid_oracle(system, sc.box, resolution=96)
    solved = solve_points(system, SolveOptions(box=sc.box, grid=12)).coordinates()
    report = match_point_sets(reps, solved, tol=1e-3)
    assert report["bijective"], report
    assert report["max_distance"] < 1e-4


def test_oracle_agrees_with_solver_on_hyperboloid():
    chart, sc = hyperboloid_depth2()
    reps = grid_oracle(chart.equations, sc.box, resolution=96)
    expect = np.array([[-1.0, -2.0, 0.0], [1.0, 2.0, 0.0]])
    report = match_point_sets(reps, expect, tol=1e-3)
    assert report["bijective"], report


def test_oracle_rejects_positive_minimum():
    # residual dips to 0.02 near (1, 0) but never to zero
    eqs = system2("x1^2 + x2^2 - 1", "x1 - 1.02")
    reps = grid_oracle(eqs, ((-2.0, 2.0), (-2.0, 2.0)), resolution=64)
    assert reps.shape == (0, 2)


def test_oracle_separates_close_roots():
    eqs = system2("(x1 - 0.05) * (x1 + 0.05)", "x2")
    reps = grid_oracle(eqs, ((-1.0, 1.0), (-1.0, 1.0)), resolution=64)
    expect = np.array([[-0.05, 0.0], [0.05, 0.0]])
    assert match_point_sets(reps, expect, tol=1e-4)["bijective"]


def test_oracle_empty_system_set():
    sc = load_scene("scenes/hyperboloid.scene")
    system = list(sc.constraints) + list(sc.covector_field(sc.covector))
    reps = grid_oracle(system, sc.box, resolution=64)
    assert reps.shape == (0, 3)


def test_oracle_of_no_equations_is_empty():
    assert grid_oracle([], ((-1.0, 1.0),) * 2, resolution=8, levels=3).shape == (0, 2)


POLE_SYSTEM = ("1/x1 - x2", "x1^2 + x2^2 - 1")


def test_oracle_scan_of_a_pole_raises_no_warning():
    # 1/x1 is inf at the cell centers on x1 = 0 (odd resolutions) and huge
    # next to them; its slope overflows to inf, the value meant there.
    # Scanned first, its slope is taken on the whole lattice; second, only
    # at the cells the circle leaves open.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for texts in (POLE_SYSTEM, POLE_SYSTEM[::-1]):
            for resolution in (15, 64):
                grid_oracle(system2(*texts), ((-1.0, 1.0),) * 2, resolution=resolution)


@pytest.mark.xfail(
    strict=True,
    reason="the scan accepts cells next to a pole: there the local slope of "
    "1/x1 is huge or inf, so both the admission and the leaf bound pass",
)
def test_oracle_finds_no_root_next_to_a_pole():
    # 1/x1 = x2 and x1^2 + x2^2 = 1 give x1^4 - x1^2 + 1 = 0: no real root
    reps = grid_oracle(system2(*POLE_SYSTEM), ((-1.0, 1.0),) * 2, resolution=64)
    assert reps.shape == (0, 2)


# -- the scan against the implementation it replaced ------------------------
#
# The scan used to build each lattice whole with meshgrid, read nan
# residuals as inf and then every non-finite one as the largest float
# through two nan_to_num passes, fill a zeroed buffer per axis for the
# slope, find each cluster with one ``labels == lab`` pass, and keep every
# level's arrays alive while it recursed. These copies of it pin the
# rewrite to the same bits.


def old_scan_box(eqs, box, resolution, chunk=200_000):
    axes = [lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.empty((len(eqs), len(pts)))
    for lo_i in range(0, len(pts), chunk):
        block = eval_block(eqs, pts[lo_i : lo_i + chunk])
        vals[:, lo_i : lo_i + chunk] = np.abs(np.nan_to_num(block, nan=np.inf))
    return vals.reshape((len(eqs),) + (resolution,) * len(box)), axes


def old_local_slope(values, box, resolution):
    out = np.zeros_like(values)
    work = np.nan_to_num(values, nan=np.inf)
    for axis, (lo, hi) in enumerate(box):
        size = (hi - lo) / resolution
        ax = axis + 1
        diffs = np.abs(np.diff(work, axis=ax))
        diffs = np.nan_to_num(diffs, nan=0.0, posinf=0.0)
        shape_lo = [slice(None)] * work.ndim
        shape_hi = [slice(None)] * work.ndim
        shape_lo[ax] = slice(0, work.shape[ax] - 1)
        shape_hi[ax] = slice(1, work.shape[ax])
        axis_slope = np.zeros_like(work)
        view_lo = axis_slope[tuple(shape_lo)]
        np.maximum(view_lo, diffs, out=view_lo)
        view_hi = axis_slope[tuple(shape_hi)]
        np.maximum(view_hi, diffs, out=view_hi)
        with np.errstate(over="ignore"):
            out = np.maximum(out, axis_slope / size)
    return out


def old_scan_level(eqs, box, resolution, tol_residual, levels_left, min_half_diag, accept_half_diag):
    """One level of the old scan: its finite values, slope and mask, and per
    cluster a leaf point or the ``(sub_box, child_res)`` it rescanned."""
    dim = len(box)
    values, axes = old_scan_box(eqs, box, resolution)
    finite_vals = np.nan_to_num(values, nan=np.inf)
    slope = old_local_slope(values, box, resolution)
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in box))
    tau = 1.5 * slope * half_diag + 10.0 * tol_residual
    mask = np.all(finite_vals <= tau, axis=0)
    worst = finite_vals.max(axis=0)
    flat_vals = finite_vals.reshape(len(eqs), -1)
    flat_slope = slope.reshape(len(eqs), -1)
    labels, count = ndimage.label(mask, structure=np.ones((3,) * dim, dtype=int))
    items: list = []
    for lab in range(1, count + 1):
        where = labels == lab
        if levels_left <= 1 or half_diag <= min_half_diag:
            if half_diag > accept_half_diag:
                continue
            flat = np.where(where, worst, np.inf).ravel()
            j = int(np.argmin(flat))
            bound = 4.0 * flat_slope[:, j] * half_diag + 50.0 * tol_residual
            if np.any(flat_vals[:, j] > bound):
                continue
            idx = np.unravel_index(j, worst.shape)
            items.append(np.array([axes[a][idx[a]] for a in range(dim)]))
            continue
        idx = np.argwhere(where)
        sub_box = []
        degenerate = False
        shrink = 0.0
        for axis, (lo, hi) in enumerate(box):
            size = (hi - lo) / resolution
            i_min, i_max = idx[:, axis].min(), idx[:, axis].max()
            s_lo = max(lo, lo + (i_min - 1) * size)
            s_hi = min(hi, lo + (i_max + 2) * size)
            if not s_lo < s_hi:
                degenerate = True
                break
            sub_box.append((s_lo, s_hi))
            shrink = max(shrink, (s_hi - s_lo) / (hi - lo))
        if degenerate:
            continue
        child_res = min(2 * resolution, 128) if shrink > 0.6 else 16
        items.append((tuple(sub_box), child_res))
    return finite_vals, slope, mask, items


def old_grid_oracle(system, box, resolution, *, tol_residual=1e-9, levels=24):
    eqs = [simplify(e) for e in system]
    diam = float(np.linalg.norm([hi - lo for lo, hi in box]))

    def scan(box, resolution, levels_left):
        reps = []
        items = old_scan_level(
            eqs, box, resolution, tol_residual, levels_left, 5e-7 * diam, 2e-3 * diam
        )[-1]
        for item in items:
            if isinstance(item, np.ndarray):
                reps.append(item)
            else:
                reps.extend(scan(item[0], item[1], levels_left - 1))
        return reps

    reps = scan(tuple(box), resolution, levels)
    if not reps:
        return np.zeros((0, len(box)))
    pts = np.array(reps)
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts[greedy_dedup(pts, 1e-6 * diam)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Equations with nan (sqrt, log and 0/0 off their domains), +inf and -inf
# (1/x1 and log(x1^2) on a lattice through x1 = 0) next to smooth ones.
_SCAN_EQS = (
    "sqrt(x1) - x2",
    "1/x1 - x2",
    "log(x1^2) + x2",
    "x1/x1 - x2",
    "x1^2 + x2^2 - 1",
    "sin(3*x1) - x2",
    "(x1 - 0.05) * (x1 + 0.05)",
    "x2 - x1 / 2",
)
_V3 = ("x1", "x2", "x3")


@st.composite
def scan_cases(draw):
    # Boxes symmetric about 0 with an odd resolution put a cell center on
    # x1 = 0 exactly; two or three equations make isolated roots likely.
    dim = draw(st.sampled_from([2, 3]))
    names = V2 if dim == 2 else _V3
    texts = draw(st.lists(st.sampled_from(_SCAN_EQS), min_size=4 - dim, max_size=2))
    if dim == 3:
        texts.append(draw(st.sampled_from(["x3", "x3 - x1 * x2", "1/x3 - x1"])))
    spans = st.sampled_from([(-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5), (-0.3, 1.4), (0.0, 1.7)])
    box = tuple(draw(spans) for _ in range(dim))
    resolution = draw(st.sampled_from([8, 9, 16] if dim == 3 else [8, 15, 32]))
    levels = draw(st.integers(1, 3) if dim == 3 else st.sampled_from([1, 2, 6, 10]))
    return [simplify(parse(t, names)) for t in texts], box, resolution, levels


def scan_case(texts, box, resolution, levels):
    return [simplify(parse(t, V2)) for t in texts], box, resolution, levels


@given(case=scan_cases(), chunk=st.sampled_from([5, 64, _SCAN_CHUNK]))
# the pole of 1/x1 at a cell center gives 36 leaves, the nan half-plane of
# sqrt(x1) three roots on its edge
@example(case=scan_case(["1/x1 - x2", "x1^2 + x2^2 - 1"], ((-1.0, 1.0),) * 2, 15, 6), chunk=64)
@example(case=scan_case(["sqrt(x1) - x2", "sin(3*x1) - x2"], ((-2.0, 2.0),) * 2, 15, 10), chunk=5)
@settings(max_examples=60, deadline=None)
def test_scan_matches_the_implementation_it_replaced(case, chunk):
    eqs, box, resolution, levels = case
    tol = 1e-9
    # accept leaves with coarse cells too, so the leaf test runs at level 1
    finite_vals, slope, mask, items = old_scan_level(eqs, box, resolution, tol, levels, 1e-7, 0.5)
    values, axes = _scan_box(eqs, box, resolution, chunk=chunk)
    assert same_bits(values, finite_vals)
    assert np.all(np.isfinite(values))
    assert same_bits(_local_slope(values, box, resolution), slope)
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in box))
    passes = finite_vals <= 1.5 * slope * half_diag + 10.0 * tol
    assert same_bits(np.all(passes, axis=0), mask)
    # the cascade: equation k is known only on the face dilation of the
    # cells the equations before it left open, and its slope there must
    # still be the old one at every open cell
    open_before = np.ones(mask.shape, dtype=bool)
    for k in range(len(eqs)):
        dilated = ndimage.binary_dilation(open_before)
        assert same_bits(_face_dilation(open_before), dilated)
        known = np.where(dilated, finite_vals[k], np.nan).ravel()
        cells = np.flatnonzero(open_before)
        assert same_bits(
            _cell_slope(known, cells, box, resolution), slope[k].ravel()[cells]
        )
        open_before &= passes[k]
    got = _scan_clusters(eqs, box, resolution, tol, levels, 1e-7, 0.5)
    assert len(got) == len(items)
    for g, w in zip(got, items):
        if isinstance(w, np.ndarray):
            assert same_bits(g, w)
        else:
            assert same_bits(np.array(g[0]), np.array(w[0])) and g[1] == w[1]
    want = old_grid_oracle(eqs, box, resolution, tol_residual=tol, levels=levels)
    for order in itertools.permutations(eqs):
        got = grid_oracle(list(order), box, resolution, tol_residual=tol, levels=levels)
        assert same_bits(got, want)


def test_oracle_on_torus_zeros_matches_the_implementation_it_replaced():
    system, sc = torus_zero_system()
    want = old_grid_oracle(system, sc.box, 48)
    assert len(want) == 4
    assert same_bits(grid_oracle(system, sc.box, 48), want)


def test_cascade_evaluates_later_equations_only_near_open_cells(monkeypatch):
    chart, sc = torus_depth2()
    eqs = [simplify(e) for e in chart.equations]
    assert len(eqs) == 3
    resolution, tol = 48, sc.tol_residual
    finite_vals, slope, mask, items = old_scan_level(eqs, sc.box, resolution, tol, 24, 1e-7, 1e-3)
    points = [0] * len(eqs)

    def counting(exprs, pts, strict=False):
        (k,) = [k for k, e in enumerate(eqs) if len(exprs) == 1 and exprs[0] is e]
        points[k] += len(pts)
        return eval_block(exprs, pts, strict)

    monkeypatch.setattr(solver, "eval_block", counting)
    got = _scan_clusters(eqs, sc.box, resolution, tol, 24, 1e-7, 1e-3)
    assert len(got) == len(items) > 0
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in sc.box))
    passes = finite_vals <= 1.5 * slope * half_diag + 10.0 * tol
    assert points[0] == resolution**3
    for k in range(1, len(eqs)):
        open_before = np.all(passes[:k], axis=0)
        assert 0 < points[k] <= np.count_nonzero(ndimage.binary_dilation(open_before))
    # at this resolution the first equation already closes most cells
    assert sum(points) < 1.5 * resolution**3


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("resolution", [16, 17, 64, 128])
def test_dense_chunks_are_bitwise_lattice_points(dim, resolution):
    axes = cell_centers(((-1.3, 2.0), (0.1, 0.7), (-5.0, -4.9))[:dim], resolution)
    total = resolution**dim
    for chunk in sorted({_SCAN_CHUNK, 4097, 7 if total <= 5000 else _SCAN_CHUNK}):
        covered = 0
        for start, pts in _lattice_chunks(axes, chunk):
            assert start == covered and len(pts) == min(chunk, total - start)
            want = lattice_points(axes, np.arange(start, start + len(pts)))
            assert pts.shape == want.shape and pts.tobytes() == want.tobytes()
            covered += len(pts)
        assert covered == total


def test_oracle_memory_stays_at_one_level():
    # The zero set of x1 - x2 is a plane across the whole box, so every
    # level rescans the whole box at 128 cells per axis until the levels
    # run out; a scan that kept each level's arrays would grow with depth.
    box = ((-1.0, 1.0),) * 3
    eqs = [parse("x1 - x2", _V3)]
    one_level = 8 * len(eqs) * 128**3  # the values array of one level
    tracemalloc.start()
    try:
        reps = grid_oracle(eqs, box, resolution=128, levels=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reps.shape == (0, 3)
    assert peak < 6 * one_level, peak / one_level


# -- deduplication -----------------------------------------------------------


def greedy_loop(pts, radius):
    """The quadratic greedy rule that ``greedy_dedup`` must reproduce."""
    kept = []
    for i in range(len(pts)):
        if all(np.linalg.norm(pts[i] - pts[j]) > radius for j in kept):
            kept.append(i)
    return kept


@given(
    centers=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=6
    ),
    count=st.sampled_from([1, 2, 40, 1000]),
    spread=st.sampled_from([0.0, 1e-12, 1e-9, 0.3]),
    radius=st.sampled_from([1e-6, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_greedy_dedup_matches_loop(centers, count, spread, radius, seed):
    # Centers on a lattice of half the radius put many pairs at exactly
    # the radius (and at zero distance); a small spread makes dense
    # clusters of near-coincident points and pairs a hair either side.
    rng = np.random.default_rng(seed)
    lattice = np.array(centers, dtype=float) * (0.5 * radius)
    pts = lattice[rng.integers(len(lattice), size=count)]
    pts = pts + spread * radius * rng.standard_normal(pts.shape)
    assert greedy_dedup(pts, radius) == greedy_loop(pts, radius)


def test_greedy_dedup_radius_is_inclusive():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.75]])
    assert np.linalg.norm(pts[3] - pts[0]) == 1.0
    assert greedy_dedup(pts, 1.0) == greedy_loop(pts, 1.0) == [0]
    assert greedy_dedup(pts, 0.5) == greedy_loop(pts, 0.5) == [0, 3, 4]


# -- set matching -------------------------------------------------------------


def test_match_is_permutation_invariant():
    A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    B = A[::-1] + 1e-6
    report = match_point_sets(A, B, tol=1e-3)
    assert report["bijective"]
    assert report["max_distance"] == pytest.approx(1e-6 * math.sqrt(2.0))


def test_match_detects_count_and_distance_failures():
    A = [[0.0, 0.0]]
    assert not match_point_sets(A, [], tol=1.0)["bijective"]
    far = match_point_sets(A, [[0.5, 0.0]], tol=0.1)
    assert not far["bijective"] and far["max_distance"] == pytest.approx(0.5)
    assert match_point_sets([], [], tol=1.0)["bijective"]
