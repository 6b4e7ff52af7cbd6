"""Tests for the point solver, the curve tracer, and the scan oracle.

Fixtures reuse the bundled scenes whose solution sets are known exactly:
the tilted torus (two degeneracy circles, four covector zeros on the
axis) and the hyperboloid pair (two isolated deep-stratum points).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morin.expr import parse
from morin.model import build_chain, corank_system, load_scene
from morin.solver import (
    SolveOptions,
    TracedCurve,
    greedy_dedup,
    grid_oracle,
    grid_seeds,
    in_box,
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
