"""Tests for the point solver, the curve tracer, and the scan oracle.

Fixtures reuse the bundled scenes whose solution sets are known exactly:
the tilted torus (two degeneracy circles, four covector zeros on the
axis) and the hyperboloid pair (two isolated deep-stratum points).
"""

import itertools
import math
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from morin import analysis, cli, solver
from morin.expr import System, eval_block, eval_lattice, parse, simplify
from morin.analysis import _multiplier_seeds, _multiplier_system
from morin.model import (
    SupplementSelection,
    build_chain,
    build_chain_at,
    build_delta,
    corank_system,
    draw_covector,
    load_scene,
)
from morin.solver import (
    _FLOAT_MAX,
    _SCAN_CHUNK,
    _SLAB,
    SolveOptions,
    TracedCurve,
    _beyond,
    _cell_slope,
    _face_dilation,
    _label_clusters,
    _local_slope,
    _nearest_distances,
    _open_cells,
    _row_norms,
    _scan_clusters,
    _slabs,
    _window,
    capped_resolution,
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolveOptions(box=((-1.0, 1.0),), tol_residual=bad)
        with pytest.raises(ValueError):
            SolveOptions(box=((-1.0, 1.0),), tol_rank=bad)
    opts = SolveOptions(box=((-3.0, 3.0), (-4.0, 4.0)))
    assert opts.diameter == pytest.approx(10.0)


def test_grid_seeds_cap_and_coverage():
    seeds = grid_seeds(((-1.0, 1.0), (-1.0, 1.0)), grid=10)
    assert seeds.shape == (100, 2)
    assert in_box(seeds, ((-1.0, 1.0), (-1.0, 1.0))).all()
    capped = grid_seeds(((0.0, 1.0),) * 4, grid=64, cap=10_000)
    assert capped.shape[0] <= 10_000
    assert capped.shape[0] >= 8**4


@pytest.mark.parametrize("cap", [24_000, 48**3, 4096, 1200])
def test_capped_lattices_hold_at_most_the_cap_in_every_dimension(cap):
    for dim in range(1, 17):
        for grid in (6, 8, 12, 14, 17, 48, 64, 300):
            r = capped_resolution(dim, grid, cap)
            assert 2 <= r <= max(grid, 2)
            assert r**dim <= max(cap, 2**dim)
            # the largest such count
            assert r == grid or r == 2 or (r + 1) ** dim > cap


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


# -- Gauss-Newton against the implementation it replaced ----------------------


# a norm past the float range is inf, the norm meant there
@np.errstate(over="ignore")
def _reference_solve_points(system, opts, *, seeds, audits=(), var_dim=None):
    """``solve_points`` as it was before each trial round became one
    evaluation call: the residuals evaluated again at every loop head, and
    each halving of the step evaluated in its own call. Seeds are given."""
    boxed = len(opts.box)
    dim = boxed if var_dim is None else var_dim
    eqs = solver._compile(system, dim)
    X = np.asarray(seeds, dtype=float).reshape(-1, dim).copy()
    stats = {
        "seeds": len(X),
        "converged": 0,
        "dropped": 0,
        "out_of_box": 0,
        "audit_rejected": 0,
        "deduplicated": 0,
    }
    center = np.array([(lo + hi) / 2 for lo, hi in opts.box])
    escape = solver._ESCAPE_FACTOR * max(opts.diameter, 1.0)
    lam = np.full(len(X), 1e-10)
    iters = np.zeros(len(X), dtype=int)
    active = np.ones(len(X), dtype=bool)
    done: list = []

    for _ in range(opts.max_iterations):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        P = X[idx]
        R = eqs.values(P)
        finite = np.all(np.isfinite(R), axis=1)
        resnorm = np.where(finite, np.max(np.abs(R), axis=1, initial=0.0), np.inf)
        conv = finite & (resnorm <= opts.tol_residual)
        for j in np.flatnonzero(conv):
            done.append((idx[j], P[j].copy(), float(resnorm[j]), int(iters[idx[j]])))
        active[idx[conv]] = False
        gone = ~finite
        gone |= np.linalg.norm(P[:, :boxed] - center, axis=1) > escape
        active[idx[gone]] = False
        stats["dropped"] += int(np.count_nonzero(gone & ~conv))
        live = ~conv & ~gone
        if not np.any(live):
            continue
        sub = idx[live]
        P, R = P[live], R[live]
        J = eqs.jacobian(P)
        bad_j = ~np.all(np.isfinite(J.reshape(len(P), -1)), axis=1)
        if np.any(bad_j):
            active[sub[bad_j]] = False
            stats["dropped"] += int(np.count_nonzero(bad_j))
            keep = ~bad_j
            sub, P, R, J = sub[keep], P[keep], R[keep], J[keep]
            if not len(P):
                continue
        H = np.einsum("pei,pej->pij", J, J)
        g = np.einsum("pei,pe->pi", J, R)
        scale = np.trace(H, axis1=1, axis2=2) / dim + 1e-30
        A = H + (lam[sub] * scale)[:, None, None] * np.eye(dim)
        try:
            step = np.linalg.solve(A, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.array(
                [np.linalg.lstsq(A[p], g[p], rcond=None)[0] for p in range(len(P))]
            )
        bad_s = ~np.all(np.isfinite(step), axis=1)
        if np.any(bad_s):
            step[bad_s] = 0.0
        old = np.linalg.norm(R, axis=1)
        accepted = np.zeros(len(P), dtype=bool)
        alpha = np.ones(len(P))
        newX = P.copy()
        for _half in range(6):
            trial = ~accepted
            if not np.any(trial):
                break
            cand = P[trial] - alpha[trial, None] * step[trial]
            Rc = eqs.values(cand)
            ok = np.all(np.isfinite(Rc), axis=1)
            newnorm = np.where(ok, np.linalg.norm(np.nan_to_num(Rc), axis=1), np.inf)
            good = newnorm <= old[trial] * (1.0 - 1e-4 * alpha[trial])
            tpos = np.flatnonzero(trial)
            newX[tpos[good]] = cand[good]
            accepted[tpos[good]] = True
            alpha[tpos[~good]] *= 0.5
        lam[sub[accepted]] = np.maximum(lam[sub[accepted]] * 0.3, 1e-12)
        lam[sub[~accepted]] *= 30.0
        stalled = ~accepted & (lam[sub] > 1e6)
        active[sub[stalled]] = False
        stats["dropped"] += int(np.count_nonzero(stalled))
        X[sub] = newX
        iters[sub] += 1

    if not done:
        return [], stats
    pts = np.array([d[1] for d in done])
    res = np.array([d[2] for d in done])
    its = np.array([d[3] for d in done])
    R = eqs.values(pts)
    strict = np.all(np.isfinite(R), axis=1) & (
        np.max(np.abs(R), axis=1, initial=0.0) <= opts.tol_residual
    )
    inside = in_box(pts, opts.box, slack=1e-9 * opts.diameter)
    stats["out_of_box"] = int(np.count_nonzero(strict & ~inside))
    keep = strict & inside
    if audits:
        audit_vals = solver._compile(audits, dim).values(pts)
        audit_ok = np.all(
            np.abs(np.nan_to_num(audit_vals, nan=np.inf)) <= 10.0 * opts.tol_residual,
            axis=1,
        )
        stats["audit_rejected"] = int(np.count_nonzero(keep & ~audit_ok))
        keep &= audit_ok
    pts, res, its = pts[keep], res[keep], its[keep]
    if not len(pts):
        return [], stats
    order = np.argsort(res, kind="stable")
    pts, res, its = pts[order], res[order], its[order]
    kept = greedy_dedup(pts, opts.dedup_radius * max(opts.diameter, 1.0))
    stats["deduplicated"] = len(pts) - len(kept)
    pts, res, its = pts[kept], res[kept], its[kept]
    order = np.lexsort(pts.T[::-1])
    pts, res, its = pts[order], res[order], its[order]
    stats["converged"] = len(pts)
    return [(pts[i], res[i], its[i]) for i in range(len(pts))], stats


def _swallowtail_chart():
    """Two swallowtail chart equations: the depth-1 determinant and the
    depth-2 one over coframe rows 2 and 3, which raise x3 to the powers 2
    and 3 and reach degree 4 in it."""
    sc = load_scene("scenes/swallowtail.scene")
    first = build_chain_at(sc, (0.5, 0.0, 0.0), max_depth=1).chart(1).equations
    delta = build_delta(sc, first, SupplementSelection((1, 2), 1.0))
    return list(first) + [delta], (), sc.box


def _gauss_newton_cases() -> dict:
    torus = load_scene("scenes/torus.scene")
    chart, _ = torus_depth2()
    return {
        "torus_corank": (corank_system(torus), (), torus.box),
        "torus_depth2": (list(chart.equations), chart.audits, torus.box),
        "swallowtail": _swallowtail_chart(),
        "pole": (system2("1/x1 - x2", "x1^2 + x2^2 - 1"), (), ((-1.0, 1.0),) * 2),
        # at x1 = 0 the residuals are finite and the Jacobian is not
        "kink": (
            [
                parse(t, ("x1",))
                for t in ("sqrt(x1^2 + x1) - sqrt(0.75)", "x1^3 - 0.125", "x1^2 - 0.25")
            ],
            (),
            ((-1.0, 1.0),),
        ),
    }


_GN_CASES = _gauss_newton_cases()

_STAT_GROUPS = (
    "converged",
    "dropped",
    "out_of_iterations",
    "out_of_box",
    "audit_rejected",
    "deduplicated",
)


def _assert_stats_add_up(stats):
    assert sum(stats[key] for key in _STAT_GROUPS) == stats["seeds"], stats


# coordinates that make a seed's residuals non-finite, overflow its norms
# or put it past the escape radius (1e4 is more than 20 diameters from
# every box here), and 0.0, where the kink's Jacobian is not finite
_ODD_COORDINATES = (math.nan, math.inf, -math.inf, 1e200, -1e200, 1e4, -1e4, 0.0)


@pytest.mark.parametrize("case", sorted(_GN_CASES))
@given(
    picks=st.one_of(st.none(), st.lists(st.integers(0, 10**6), min_size=1, max_size=300)),
    odd=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 7), st.sampled_from(_ODD_COORDINATES)),
        max_size=12,
    ),
    max_iterations=st.sampled_from([1, 3, 60]),
)
@example(picks=None, odd=[], max_iterations=60)
@settings(max_examples=25, deadline=None)
def test_gauss_newton_rounds_are_bitwise_the_sequential_loop(case, picks, odd, max_iterations):
    equations, audits, box = _GN_CASES[case]
    grid = grid_seeds(box, 12)
    seeds = grid if picks is None else grid[[i % len(grid) for i in picks]]
    # each odd seed is a copy of a seed with one coordinate replaced
    for at, axis, value in odd:
        row = seeds[at % len(seeds)].copy()
        row[axis % len(row)] = value
        seeds = np.insert(seeds, at % (len(seeds) + 1), row, axis=0)
    opts = SolveOptions(box=box, grid=12, max_iterations=max_iterations)
    out = solve_points(equations, opts, seeds=seeds, audits=audits)
    want, want_stats = _reference_solve_points(equations, opts, seeds=seeds, audits=audits)
    assert {key: out.stats[key] for key in want_stats} == want_stats
    _assert_stats_add_up(out.stats)
    assert len(out.points) == len(want)
    for got, (x, res, its) in zip(out.points, want):
        assert got.x.tobytes() == x.tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(res).tobytes()
        assert got.iterations == its


@pytest.mark.parametrize("case", sorted(_GN_CASES))
def test_every_solved_point_alone_meets_the_residual_tolerance(case):
    # a seed converges on the residuals of its batch; evaluated alone, its
    # point must pass the same test
    equations, audits, box = _GN_CASES[case]
    opts = SolveOptions(box=box, grid=12)
    system = System(equations, len(box))
    for seeds in (None, grid_seeds(box, 12)[::-1]):
        for point in solve_points(equations, opts, seeds=seeds, audits=audits).points:
            residuals = system.values(point.x[None])
            assert np.isfinite(residuals).all()
            assert np.max(np.abs(residuals)) <= opts.tol_residual


@pytest.mark.parametrize(
    "equations, box, seed, outcome",
    [
        # the escape test's distance overflows
        (system2("x1 - x2"), ((-1.0, 1.0),) * 2, [1e200, 0.0], "dropped"),
        # the residual norm overflows, and so does the Hessian: every step
        # is zero and passes, so the seed iterates in place
        ([parse("exp(x1 * 800) - 1", ("x1",))], ((-1.0, 1.0),), [0.5], "out_of_iterations"),
    ],
)
def test_gauss_newton_norms_past_the_float_range_raise_no_warning(equations, box, seed, outcome):
    opts = SolveOptions(box=box)
    out = solve_points(equations, opts, seeds=[seed])
    want, want_stats = _reference_solve_points(equations, opts, seeds=[seed])
    assert out.points == want == []
    assert {key: out.stats[key] for key in want_stats} == want_stats
    assert out.stats[outcome] == 1
    _assert_stats_add_up(out.stats)


def _special_floats():
    finite = st.floats(-10.0, 10.0, allow_nan=False)
    special = st.sampled_from([0.0, -0.0, 1e-300, 1e300, np.inf, -np.inf, np.nan])
    return st.one_of(finite, finite, finite, special)


@pytest.mark.parametrize("case", sorted(_GN_CASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_eval_block_rows_do_not_depend_on_the_batch(case, data):
    equations, _, box = _GN_CASES[case]
    exprs = [simplify(e) for e in equations]
    shape = st.tuples(st.integers(1, 40), st.just(len(box)))
    points = data.draw(hnp.arrays(np.float64, shape, elements=_special_floats()))
    order = np.array(data.draw(st.permutations(range(len(points)))), dtype=int)

    def canonical(vals):
        # only a nan's sign bit may depend on the batch
        return np.where(np.isnan(vals), np.nan, vals).tobytes()

    batch = eval_block(exprs, points)
    shuffled = eval_block(exprs, points[order])
    for i in range(len(points)):
        one = eval_block(exprs, points[i])[:, 0]
        assert canonical(one) == canonical(batch[:, i])
    assert canonical(shuffled) == canonical(batch[:, order])


def test_residual_norms_do_not_depend_on_the_batch():
    # 9 equations: from 8 on, numpy sums a strided row in another order
    # than a contiguous one, and System.values rows are strided
    names = ("x1", "x2", "x3")
    system = System(
        [
            parse(f"x1^{k % 3 + 1} * {k + 1.3} - sin(x2 * {k + 0.7}) + exp(x3 / {k + 2})", names)
            for k in range(9)
        ],
        3,
    )
    points = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3))
    batch = _row_norms(system.values(points))
    for i in range(len(points)):
        assert batch[i].tobytes() == _row_norms(system.values(points[i : i + 1]))[0].tobytes()


def old_escape(X, center, radius):
    """The escape test of a Gauss-Newton round before ``_beyond``."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(X - center, axis=1) > radius


@given(
    dim=st.integers(1, 10),
    radius=st.sampled_from([20.0, 20.0 * math.sqrt(3.0), 2000.0, 1e150, 1e300, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_escape_test_is_bitwise_the_norm_it_replaced(dim, radius, seed):
    # Rows a few ulps either side of the escape radius and of the edges of
    # the band that _beyond decides without np.linalg.norm, along an axis
    # and in random directions around a center off the origin; rows well
    # inside and outside, and rows with coordinates that are not finite or
    # whose squares pass the float range. From 8 coordinates on numpy sums
    # a contiguous row pairwise, not left to right as _beyond does.
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    scales = [1 + (e + k) * eps for e in (0, dim + 4, -(dim + 4)) for k in range(-3, 4)]
    dirs = rng.standard_normal((300, dim))
    dirs[:20] = np.eye(dim)[rng.integers(dim, size=20)]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    center = rng.uniform(-3.0, 3.0, dim)
    reach = min(radius, 1e300) * rng.choice(scales + [0.0, 0.5, 2.0], size=(300, 1))
    with np.errstate(over="ignore"):
        X = center + dirs * reach
    odd = rng.choice([math.nan, math.inf, -math.inf, 1e160, -1e200, 0.0, 1.0], size=(40, dim))
    X = np.concatenate([X, odd])
    assert _beyond(X, center, radius).tobytes() == old_escape(X, center, radius).tobytes()


def test_escape_test_of_a_row_that_is_not_finite_is_the_norms():
    # a nan coordinate makes the norm nan, which is not past the radius, so
    # the row stays live and its residuals decide; an inf coordinate, or
    # squares past the float range, put the row past it
    X = np.array(
        [
            [math.nan, 0.0, 0.0],
            [0.0, math.inf, 0.0],
            [-math.inf, math.nan, 1.0],
            [1e200, 0.0, 0.0],
            [1e160, 1e160, 1e160],
            [30.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    center = np.array([1.0, -1.0, 0.5])
    want = [False, True, False, True, True, True, False]
    assert old_escape(X, center, 20.0).tolist() == want
    assert _beyond(X, center, 20.0).tolist() == want


def test_stats_sort_every_seed_into_one_group():
    torus = load_scene("scenes/torus.scene")
    opts = torus.solve_options(12)
    # the first-stratum samples of `compute_strata`
    out = solve_points(corank_system(torus), torus.solve_options(12, dedup_radius=5e-3))
    _assert_stats_add_up(out.stats)
    samples = out.coordinates()
    chart, _ = torus_depth2()
    out = solve_points(chart.equations, opts, audits=chart.audits)
    _assert_stats_add_up(out.stats)
    assert out.stats["audit_rejected"] > 0
    # the multiplier system of `find_restricted_zeros(torus, 1, ...)`,
    # where some seeds are still iterating when the iterations run out
    xi = torus.covector_field(draw_covector(2, 42))
    equations = build_chain_at(torus, samples[0], max_depth=1).chart(1).equations
    seeds = _multiplier_seeds(torus, equations, xi, samples)
    out = solve_points(
        _multiplier_system(torus, equations, xi),
        opts,
        seeds=seeds,
        var_dim=torus.ambient_dim + len(equations),
    )
    _assert_stats_add_up(out.stats)
    assert out.stats["out_of_iterations"] > 0


# per command, its Gauss-Newton convergence passes with each grid-seeded
# system converged once per scene, against its solves
_CONVERGENCE_PASSES = [
    (["check", "scenes/swallowtail.scene"], 7, 11),
    (["check", "scenes/torus.scene"], 8, 9),
    (["check", "scenes/sphere_v.scene"], 8, 9),
    (["euler", "scenes/torus.scene", "--seed", "42"], 10, 11),
    (["zeros", "scenes/torus.scene", "--stratum", "1", "--seed", "42"], 7, 8),
]


@pytest.mark.parametrize("argv, passes, solves", _CONVERGENCE_PASSES)
def test_a_command_converges_each_grid_seeded_system_once(
    monkeypatch, capsys, argv, passes, solves
):
    # every solve is checked against a fresh one, whose pass is not counted
    converge, solve = solver._converge, solver.solve_points
    counts = {"passes": 0, "solves": 0}
    fresh = []

    def counted(*args):
        counts["passes"] += not fresh
        return converge(*args)

    def checked(system, opts, **kw):
        counts["solves"] += 1
        out = solve(system, opts, **kw)
        fresh.append(True)
        want = solve(system, replace(opts, memo=None), **kw)
        fresh.pop()
        assert out.stats == want.stats
        assert [(p.x.tobytes(), p.residual, p.iterations) for p in out.points] == [
            (p.x.tobytes(), p.residual, p.iterations) for p in want.points
        ]
        return out

    monkeypatch.setattr(solver, "_converge", counted)
    monkeypatch.setattr(solver, "solve_points", checked)
    monkeypatch.setattr(analysis, "solve_points", checked)
    cli.main([*argv, "--no-timings"])
    capsys.readouterr()
    assert counts == {"passes": passes, "solves": solves}


def test_a_replaced_scene_shares_no_converged_pool(monkeypatch):
    converge = solver._converge
    passes = []
    monkeypatch.setattr(solver, "_converge", lambda *args: passes.append(1) or converge(*args))
    torus = load_scene("scenes/torus.scene")
    system = corank_system(torus)
    first = solve_points(system, torus.solve_options(12, dedup_radius=5e-3))
    again = solve_points(system, torus.solve_options(12, dedup_radius=2e-3))
    assert len(passes) == 1 and again.stats["seeds"] == first.stats["seeds"]
    for changed in (replace(torus), replace(torus, tol_residual=1e-10)):
        opts = changed.solve_options(12, dedup_radius=5e-3)
        out = solve_points(system, opts)
        assert out.stats == solve_points(system, replace(opts, memo=None)).stats
    assert len(passes) == 5
    # on one scene, a solve under another tolerance converges afresh
    solve_points(system, replace(torus.solve_options(12), tol_residual=1e-10))
    assert len(passes) == 6


def test_selection_leaves_the_converged_pool_as_it_was():
    chart, _ = torus_depth2()
    torus = load_scene("scenes/torus.scene")
    opts = torus.solve_options(12)
    solve_points(chart.equations, opts, audits=chart.audits)
    [pool] = [v for k, v in torus._memo.items() if k[0] == "converged"]
    before = [a.copy() for a in pool[:3]] + [dict(pool[3])]
    out = solve_points(chart.equations, replace(opts, dedup_radius=1e-3), audits=chart.audits)
    assert out.stats["audit_rejected"] > 0 and out.points
    for a, b in zip(pool[:3], before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert pool[3] == before[3]
    assert not any(np.shares_memory(p.x, pool[0]) for p in out.points)


# -- curve tracing ------------------------------------------------------------


def test_traces_circle_closed():
    eqs = system2("x1^2 + x2^2 - 4")
    opts = SolveOptions(box=((-3.0, 3.0), (-3.0, 3.0)))
    curves = trace_curves(eqs, opts)
    assert len(curves) == 1
    c = curves[0]
    assert isinstance(c, TracedCurve)
    assert c.closed
    assert c.length == pytest.approx(4 * math.pi, rel=1e-3)
    assert np.allclose(np.linalg.norm(c.points, axis=1), 2.0, atol=1e-6)


def test_traces_open_segment_to_boundary():
    eqs = system2("x2 - x1")
    opts = SolveOptions(box=((-1.0, 1.0), (-1.0, 1.0)))
    curves = trace_curves(eqs, opts)
    assert len(curves) == 1
    c = curves[0]
    assert not c.closed
    # both ends traced out of the box
    assert not in_box(c.points[[0, -1]], opts.box).any()
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


def whole_nearest(A, B):
    """The consumption distances of ``trace_curves`` before they were
    blocked: every seed-vertex difference at once."""
    return np.min(np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2), axis=1)


_COUNTS = ("zero", "one", "below", "at", "above", "many")


@given(
    dim=st.integers(2, 10),
    block=st.sampled_from([1, 2, 7, 12]),
    seeds=st.sampled_from(_COUNTS),
    vertices=st.sampled_from(_COUNTS[1:]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_consumption_distances_are_bitwise_the_whole_form(dim, block, seeds, vertices, ties, seed):
    # Seed and vertex counts at 0, 1 and one below, at and above the pair
    # block, and past it, with the block patched small; on a half-integer
    # lattice many distances tie. From 8 coordinates on numpy sums each
    # contiguous difference row pairwise.
    counts = {"zero": 0, "one": 1, "below": block - 1, "at": block, "above": block + 1}
    counts["many"] = 3 * block + 2
    rng = np.random.default_rng(seed)

    def draw(count):
        if ties:
            return 0.5 * rng.integers(-2, 3, size=(count, dim))
        return rng.standard_normal((count, dim)) * rng.choice([1e-3, 1.0, 1e3])

    A, B = draw(counts[seeds]), draw(max(1, counts[vertices]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_PAIR_BLOCK", block)
        got = _nearest_distances(A, B)
    assert got.tobytes() == whole_nearest(A, B).tobytes()


@pytest.mark.parametrize(
    "seeds, vertices",
    [(1, 4095), (2, 4096), (1, 4097), (4095, 1), (4096, 1), (4097, 3), (65, 64)],
)
def test_consumption_distances_at_the_pair_block(seeds, vertices):
    rng = np.random.default_rng(seeds + vertices)
    A, B = rng.standard_normal((seeds, 3)), rng.standard_normal((vertices, 3))
    assert _nearest_distances(A, B).tobytes() == whole_nearest(A, B).tobytes()


def test_consumption_memory_does_not_grow_with_the_curve():
    # The longest curve _trace_one gives (4,000 steps each way) against
    # thousands of seeds: the whole form held seeds x vertices x dim
    # floats, 576 MB for the larger case; the blocks hold a few arrays of
    # _PAIR_BLOCK rows whatever the sizes
    rng = np.random.default_rng(5)
    for seeds, vertices in ((30, 81), (300, 801), (3000, 8001)):
        A, B = rng.standard_normal((seeds, 3)), rng.standard_normal((vertices, 3))
        d, peak = traced_peak(lambda: _nearest_distances(A, B))
        assert d.shape == (seeds,) and peak < 500_000, (seeds, vertices, peak)


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


def test_oracle_tolerance_must_be_positive_and_finite():
    eqs = [parse("x1 - x2", ("x1", "x2"))]
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_residual"):
            grid_oracle(eqs, ((-1.0, 1.0),) * 2, resolution=8, tol_residual=bad)


def test_oracle_resolution_and_levels_must_leave_a_slope_and_a_level():
    # one cell per axis has no neighbor, so every slope was 0 and the root
    # at (0.3, -0.2) went unseen; zero cells divided by zero, and zero
    # levels scanned nothing
    eqs = system2("x1 - 0.3", "x2 + 0.2")
    box = ((-1.0, 1.0),) * 2
    for bad in (1, 0, -3):
        with pytest.raises(ValueError, match="resolution"):
            grid_oracle(eqs, box, resolution=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="levels"):
            grid_oracle(eqs, box, resolution=8, levels=bad)
    root = np.array([[0.3, -0.2]])
    assert match_point_sets(grid_oracle(eqs, box, resolution=2), root, tol=1e-6)["bijective"]
    # one level, a leaf, with cells small enough to accept a root
    reps = grid_oracle(eqs, box, resolution=256, levels=1)
    assert match_point_sets(reps, root, tol=1e-2)["bijective"]


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


def level_with_dense_windows(eqs, box, resolution, tol, half_diag, chunk, want):
    """``_open_cells`` of a level as ``(mask, passed)``, the mask set at
    the flat indices it returns, checking that they are sorted and
    distinct, and that the dense equation's window on each slab, the slab
    and its neighbour planes, is bitwise ``want`` there and all finite."""
    slabs = iter(_slabs(resolution, len(box), chunk))

    def dense_slope(values, planes, *args):
        s = next(slabs)
        lo, hi = _window(s, resolution)
        assert same_bits(values, want[:, lo:hi])
        assert same_bits(values[:, planes], want[:, s])
        assert np.all(np.isfinite(values))
        return _local_slope(values, planes, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_local_slope", dense_slope)
        flat, passed = _open_cells(eqs, box, resolution, tol, half_diag, chunk)
    assert next(slabs, None) is None
    assert np.all(np.diff(flat) > 0)
    mask = np.zeros((resolution,) * len(box), dtype=bool)
    mask.flat[flat] = True
    return mask, passed


def pass_shares(passes) -> list:
    """Per equation, the share of the cells the equations before it left
    open that pass it too, as a scan level reports it."""
    open_ = np.ones(passes.shape[1:], dtype=bool)
    shares = []
    for p in passes:
        before = np.count_nonzero(open_)
        open_ &= p
        shares.append(np.count_nonzero(open_) / before if before else 0.0)
    return shares


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
# a leaf level whose two clusters each hold two open cells of equal worst
# residual, so the first in C order is the one kept
@example(
    case=scan_case(["(x1 - 0.05) * (x1 + 0.05)", "x2 - x1 / 2"], ((-0.5, 0.5),) * 2, 32, 1),
    chunk=_SCAN_CHUNK,
)
# one leaf level with 121 clusters (the pole case's 36 leaves come from 22
# leaf levels of at most two clusters each)
@example(case=scan_case(["sin(8*x1)", "sin(8*x2)"], ((-2.0, 2.0),) * 2, 32, 1), chunk=64)
@settings(max_examples=60, deadline=None)
def test_scan_matches_the_implementation_it_replaced(case, chunk):
    eqs, box, resolution, levels = case
    tol = 1e-9
    # accept leaves with coarse cells too, so the leaf test runs at level 1
    finite_vals, slope, mask, items = old_scan_level(eqs, box, resolution, tol, levels, 1e-7, 0.5)
    # the dense slope: each slab with its neighbour planes, in a work
    # buffer that every slab reuses
    slabs = _slabs(resolution, len(box), chunk)
    work = np.empty(2 * finite_vals.size)
    for s in slabs:
        lo, hi = _window(s, resolution)
        planes = slice(s.start - lo, min(s.stop, resolution) - lo)
        got = _local_slope(finite_vals[:, lo:hi], planes, box, resolution, work)
        assert same_bits(got, np.ascontiguousarray(slope[:, s]))
    assert same_bits(_local_slope(finite_vals, slice(None), box, resolution), slope)
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in box))
    passes = finite_vals <= 1.5 * slope * half_diag + 10.0 * tol
    assert same_bits(np.all(passes, axis=0), mask)
    # the level's loop with each equation taking the dense pass: its window
    # on each slab holds the old values, all finite, and the mask and the
    # pass shares are those of testing every equation on every cell
    for j in range(len(eqs)):
        mask_j, passed = level_with_dense_windows(
            eqs[j:] + eqs[:j], box, resolution, tol, half_diag, chunk, finite_vals[j : j + 1]
        )
        assert same_bits(mask_j, mask)
        assert passed == pass_shares(np.concatenate([passes[j:], passes[:j]]))
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
            _cell_slope(known, cells, box, resolution, mask.shape), slope[k].ravel()[cells]
        )
        open_before &= passes[k]
    # the level at slabs of the drawn size, of one plane, of two, and of
    # uneven runs, so open cells lie on slab edges and halo planes; then at
    # the drawn size with every eval_block call, the later equations' and
    # the leaf's, cut into chunks of 5 points
    plane = resolution ** (len(box) - 1)
    runs = [(slab, _SCAN_CHUNK) for slab in (chunk, plane, 2 * plane, (resolution // 2 + 1) * plane)]
    for slab, scan_chunk in runs + [(chunk, 5)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_SCAN_CHUNK", scan_chunk)
            points, rescans = _scan_clusters(eqs, box, resolution, tol, levels, 1e-7, 0.5, chunk=slab)
        # a level is a leaf or it is not
        assert not (points and rescans)
        got = points + rescans
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SCAN_CHUNK", 5)
        assert same_bits(grid_oracle(eqs, box, resolution, tol_residual=tol, levels=levels), want)


@st.composite
def slope_cases(draw):
    """Finite nonnegative values, as the scan holds them, on a lattice of
    ``resolution`` cells per axis in a box whose sides differ, and the
    axis-0 slabs to take the slope on: uneven cuts, or runs of ``planes``
    planes whose last one may be short or overrun the lattice, as
    ``_slabs`` gives them."""
    dim = draw(st.integers(1, 3))
    resolution = draw(st.integers(1, 9 if dim == 3 else 17))
    spans = st.sampled_from([(-1.0, 1.0), (-2.0, 2.0), (-0.3, 1.4), (0.0, 1e-3), (-1e3, 1e3)])
    box = tuple(draw(spans) for _ in range(dim))
    # 0 next to the largest float overflows the slope to inf on small cells
    elements = st.one_of(
        st.sampled_from([0.0, _FLOAT_MAX, 1e300, 5e-324]), st.floats(0.0, 10.0)
    )
    shape = (draw(st.integers(1, 2)),) + (resolution,) * dim
    values = draw(hnp.arrays(float, shape, elements=elements))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, resolution - 1)))) if resolution > 1 else []
        bounds = [0, *cuts, resolution]
        slabs = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    else:
        planes = draw(st.integers(1, resolution + 1))
        slabs = [slice(p, p + planes) for p in range(0, resolution, planes)]
    return values, box, resolution, slabs


def slope_case(values, box, cuts):
    resolution = values.shape[1]
    bounds = [0, *cuts, resolution]
    return values, box, resolution, [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@given(case=slope_cases())
# one-plane slabs first, inside and last, on a non-cubic box
@example(
    case=slope_case(
        np.array([0.0, _FLOAT_MAX, 3.0, 0.0, 1e300] * 25).reshape(1, 5, 5, 5),
        ((0.0, 1e-3), (-1.0, 1.0), (-0.3, 1.4)),
        [1, 2, 4],
    )
)
@settings(max_examples=150, deadline=None)
def test_slab_slope_is_bitwise_the_whole_lattice_slope(case):
    values, box, resolution, slabs = case
    want = old_local_slope(values, box, resolution)
    for slab in slabs:
        got = _local_slope(values, slab, box, resolution)
        assert same_bits(got, np.ascontiguousarray(want[:, slab]))


_LATTICE_TERMS = (*_SCAN_EQS, "exp(x1) - x2", "cos(x1 * x2)", "exp(x2 / x1)", "cos(x1)^2", "0.5")
_LATTICE_TERMS_3 = ("x3", "x3 - x1 * x2", "1/x3 - x1", "exp(x3) * cos(x1)")


@st.composite
def lattice_exprs(draw, names):
    """A few scan-style terms joined by arithmetic, maybe inside a
    function, simplified or as parsed."""
    terms = _LATTICE_TERMS + (_LATTICE_TERMS_3 if len(names) == 3 else ())
    text = f"({draw(st.sampled_from(terms))})"
    for _ in range(draw(st.integers(0, 2))):
        text += f" {draw(st.sampled_from('+-*/'))} ({draw(st.sampled_from(terms))})"
    fn = draw(st.sampled_from(["", "exp", "cos", "sin", "sqrt", "log"]))
    e = parse(f"{fn}({text})" if fn else text, names)
    return simplify(e) if draw(st.booleans()) else e


def lattice_case(texts, box, shape, cuts):
    return [parse(t, V2) for t in texts], box, shape, cuts


@st.composite
def lattice_cases(draw):
    # odd counts on boxes symmetric about 0 put a cell center on 0 exactly,
    # where 1/x1, log(x1^2), sqrt and x1/x1 give inf, -inf and nan
    dim = draw(st.sampled_from([2, 3]))
    exprs = draw(st.lists(lattice_exprs(V2 if dim == 2 else _V3), min_size=1, max_size=3))
    spans = st.sampled_from([(-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5), (-0.3, 1.4)])
    box = tuple(draw(spans) for _ in range(dim))
    shape = tuple(draw(st.sampled_from([1, 3, 5, 7, 9, 16])) for _ in range(dim))
    cuts = sorted(draw(st.sets(st.integers(1, shape[0] - 1)))) if shape[0] > 1 else []
    return exprs, box, shape, cuts


@given(case=lattice_cases())
@example(
    case=lattice_case(
        ["1/x1 - x2", "log(x1^2) + x2", "sqrt(x1) - x2", "x1/x1 - x2"],
        ((-1.0, 1.0), (-2.0, 2.0)),
        (9, 5),
        [2, 3, 7],
    )
)
@settings(max_examples=100, deadline=None)
def test_lattice_evaluation_is_bitwise_lattice_points(case):
    exprs, box, shape, cuts = case
    axes = [cell_centers([span], n)[0] for span, n in zip(box, shape)]
    want = eval_block(exprs, lattice_points(axes)).reshape(len(exprs), *shape)
    # uneven slabs of axis-0 planes, as the scan takes them
    bounds = [0, *cuts, shape[0]]
    got = np.concatenate(
        [eval_lattice(exprs, [axes[0][a:b], *axes[1:]]) for a, b in zip(bounds, bounds[1:])],
        axis=1,
    )
    assert same_bits(got, want)


def test_lattice_evaluation_rejects_a_missing_variable():
    axes = cell_centers(((-1.0, 1.0),) * 2, 3)
    e = parse("x3 - x1", _V3)
    with pytest.raises(ValueError) as lattice:
        eval_lattice([e], axes)
    with pytest.raises(ValueError) as block:
        eval_block([e], lattice_points(axes))
    assert str(lattice.value) == str(block.value)


@st.composite
def sparse_masks(draw):
    dim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 9 if dim < 4 else 5)) for _ in range(dim))
    size = draw(st.sampled_from([12, 80]))
    cells = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in shape]), max_size=size))
    mask = np.zeros(shape, dtype=bool)
    for cell in cells:
        mask[cell] = True
    return mask


def faces_mask():
    # open cells on every face, edge and corner of a 3-D lattice
    mask = np.zeros((6, 7, 5), dtype=bool)
    mask[0, 3, 2] = mask[5, 0, 0] = mask[5, 6, 4] = mask[2, 6, 1] = mask[3, 2, 4] = True
    mask[1:3, 0, 4] = True
    return mask


def wrapping_mask(shape):
    """Isolated cells on every face, where the cell at the end of a row and
    the one starting the next row are both set: a flat offset that wraps a
    row would join them."""
    mask = np.zeros(shape, dtype=bool)
    for cell in itertools.product(*map(range, shape)):
        *rest, last = cell
        if last in (0, shape[-1] - 1) and all(c % 2 == 0 for c in rest[:-1]):
            mask[cell] = (rest[-1] if rest else 0) % 2 == (last > 0)
    return mask


def diagonal_mask(shape, flip=()):
    # a chain of cells joined through corners only
    mask = np.zeros(shape, dtype=bool)
    for i in range(min(shape)):
        mask[tuple(n - 1 - i if ax in flip else i for ax, n in enumerate(shape))] = True
    return mask


def single_cell(shape, cell):
    mask = np.zeros(shape, dtype=bool)
    mask[cell] = True
    return mask


@given(mask=sparse_masks())
@example(mask=faces_mask())
@example(mask=np.ones((4, 3), dtype=bool))
@example(mask=np.zeros((3, 3, 3), dtype=bool))
@example(mask=wrapping_mask((5, 5, 6)))
@example(mask=wrapping_mask((6, 5)))
@example(mask=diagonal_mask((5, 5, 5)))
@example(mask=diagonal_mask((6, 4), flip=(1,)))
@example(mask=diagonal_mask((3, 4, 3, 3), flip=(0, 2)))
@example(mask=single_cell((1, 1, 1), (0, 0, 0)))
@example(mask=single_cell((3, 5), (2, 4)))
@settings(max_examples=200, deadline=None)
def test_cluster_labels_of_the_open_cells_match_the_whole_mask(mask):
    full, _ = ndimage.label(mask, structure=np.ones((3,) * mask.ndim, dtype=int))
    # the runs joined a whole block at a time, and two at a time
    for block in (solver._RUN_BLOCK, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_RUN_BLOCK", block)
            labels, objects = _label_clusters(np.flatnonzero(mask), mask.shape)
        assert objects == ndimage.find_objects(full)
        # one label per open cell, in C order
        assert np.array_equal(labels, full[full > 0])


def test_oracle_on_torus_zeros_matches_the_implementation_it_replaced():
    system, sc = torus_zero_system()
    want = old_grid_oracle(system, sc.box, 48)
    assert len(want) == 4
    assert same_bits(grid_oracle(system, sc.box, 48), want)


def test_oracle_root_level_above_128_matches_the_implementation_it_replaced():
    # a root lattice finer than any rescan takes, with rescans below it
    eqs = system2("x1^2 + x2^2 - 1", "x2 - x1 / 2")
    box = ((-1.5, 1.5), (-1.2, 1.3))
    want = old_grid_oracle(eqs, box, 300, levels=3)
    assert len(want) == 2
    assert same_bits(grid_oracle(eqs, box, 300, levels=3), want)


def test_cascade_evaluates_later_equations_only_near_open_cells(monkeypatch):
    chart, sc = torus_depth2()
    eqs = [simplify(e) for e in chart.equations]
    assert len(eqs) == 3
    resolution, tol = 48, sc.tol_residual
    finite_vals, slope, mask, items = old_scan_level(eqs, sc.box, resolution, tol, 24, 1e-7, 1e-3)
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in sc.box))
    passes = finite_vals <= 1.5 * slope * half_diag + 10.0 * tol

    def which(exprs):
        (k,) = [k for k, e in enumerate(eqs) if len(exprs) == 1 and exprs[0] is e]
        return k

    def counting_lattice(exprs, axes):
        dense[which(exprs)] += math.prod(map(len, axes))
        return eval_lattice(exprs, axes)

    def counting_block(exprs, pts):
        sparse[which(exprs)] += len(pts)
        return eval_block(exprs, pts)

    monkeypatch.setattr(solver, "eval_lattice", counting_lattice)
    monkeypatch.setattr(solver, "eval_block", counting_block)
    # the whole lattice in one slab, and slabs of one, two and seven
    # planes, whose windows carry the later equations' values over
    for chunk in (_SLAB, 48**2, 2 * 48**2, 7 * 48**2):
        dense = [0] * len(eqs)
        sparse = [0] * len(eqs)
        points, rescans = _scan_clusters(eqs, sc.box, resolution, tol, 24, 1e-7, 1e-3, chunk=chunk)
        assert points == [] and len(rescans) == len(items) > 0
        # exactly one equation on the whole lattice, and only through the
        # broadcast lattice evaluation
        assert dense == [resolution**3, 0, 0] and sparse[0] == 0
        # each later one once at every open cell and axis neighbour, and
        # nowhere else
        for k in range(1, len(eqs)):
            open_before = np.all(passes[:k], axis=0)
            assert 0 < sparse[k] == np.count_nonzero(ndimage.binary_dilation(open_before))
        # at this resolution the first equation already closes most cells
        assert sum(sparse) < 0.5 * resolution**3


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("resolution", [16, 17, 64, 128])
def test_dense_chunks_are_bitwise_lattice_points(dim, resolution):
    # the dense pass takes one slab of axis-0 planes per call; read at the
    # coordinate expressions, with each coordinate taking the dense pass,
    # each slab's window gives the lattice points, and the level's mask and
    # pass shares are those of testing every coordinate on the lattice
    box = ((-1.3, 2.0), (0.1, 0.7), (-5.0, -4.9))[:dim]
    coords = [parse(name, _V3) for name in _V3[:dim]]
    axes = cell_centers(box, resolution)
    want = np.abs(lattice_points(axes)).T.reshape((dim,) + (resolution,) * dim)
    # wide enough that |x1| and |x2| pass in a band of planes each
    half_diag, tol = 0.1, 1e-9
    slope = np.concatenate([old_local_slope(want[k : k + 1], box, resolution) for k in range(dim)])
    passes = want <= 1.5 * slope * half_diag + 10.0 * tol
    assert np.any(passes[0]) and np.any(passes[1])
    for chunk in sorted({_SLAB, 4097, 7}):
        for j in range(dim):
            mask, passed = level_with_dense_windows(
                coords[j:] + coords[:j], box, resolution, tol, half_diag, chunk, want[j : j + 1]
            )
            assert same_bits(mask, np.all(passes, axis=0))
            assert passed == pass_shares(np.concatenate([passes[j:], passes[:j]]))


def traced_peak(scan):
    """``scan()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = scan()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_oracle_memory_stays_at_one_level():
    # The zero set of x1 - x2 is a plane across the whole box, so every
    # level rescans the whole box at 128 cells per axis until the levels
    # run out; a scan that kept each level's arrays would grow with depth.
    box = ((-1.0, 1.0),) * 3
    eqs = [parse("x1 - x2", _V3)]
    one_level = 8 * len(eqs) * 128**3  # a float array over one level
    reps, peak = traced_peak(lambda: grid_oracle(eqs, box, resolution=128, levels=5))
    assert reps.shape == (0, 3)
    assert peak < one_level, peak / one_level


def test_oracle_scan_of_the_torus_cusps_holds_under_one_lattice_array():
    # The benchmark's scan: the torus depth-2 chart at 128 cells per axis,
    # whose rescans climb back to 128^3 levels. A level streams its lattice
    # slab by slab and holds no float array over it: only its bool mask,
    # its cluster labels and buffers a few planes thick.
    chart, sc = torus_depth2()
    one_array = 8 * 128**3
    reps, peak = traced_peak(
        lambda: grid_oracle(chart.equations, sc.box, resolution=128, tol_residual=sc.tol_residual)
    )
    assert len(reps) > 0
    assert peak < one_array, peak / one_array


def test_oracle_root_level_at_256_cells_per_axis_holds_under_one_lattice_array():
    # The largest 3-D lattice the CLI's 2^24-cell budget admits. The plane
    # x1 = x2 keeps cells open across the whole box, so the clusters'
    # bounding box is the whole lattice too, and the one level is a leaf.
    box = ((-1.0, 1.0),) * 3
    one_array = 8 * 256**3
    reps, peak = traced_peak(lambda: grid_oracle([parse("x1 - x2", _V3)], box, 256, levels=1))
    assert reps.shape == (1, 3)
    assert peak < one_array, peak / one_array


# -- the scan levels' thread pool ---------------------------------------------


def on_workers(monkeypatch, workers) -> list:
    """Let ``grid_oracle`` run up to ``workers`` levels at once on a host of
    any CPU count, and record the thread of every level in the list
    returned."""
    monkeypatch.setattr(solver, "_SCAN_WORKERS", workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    threads: list = []
    scan = solver._scan_clusters

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return scan(*args, **kwargs)

    monkeypatch.setattr(solver, "_scan_clusters", recorded)
    return threads


def pool_case(name):
    """``grid_oracle``'s arguments for one of the scans the pool runs."""
    if name.startswith("torus"):
        chart, sc = torus_depth2()
        return (chart.equations, sc.box, int(name.split("_")[1])), sc.tol_residual
    if name == "hyperboloid":
        chart, sc = hyperboloid_depth2()
        return (chart.equations, sc.box, sc.grid), sc.tol_residual
    return (system2(*POLE_SYSTEM), ((-1.0, 1.0),) * 2, 64), 1e-9


@pytest.mark.parametrize("name", ["torus_64", "torus_128", "hyperboloid", "pole"])
def test_oracle_levels_on_two_threads_give_the_bits_of_one(name):
    args, tol = pool_case(name)
    got = {}
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            threads = on_workers(mp, workers)
            got[workers] = grid_oracle(*args, tol_residual=tol)
        # every level ran on a pool thread, on two of them when two may run
        assert threading.get_ident() not in threads
        assert len(set(threads)) == min(workers, len(threads))
    assert len(got[1]) > 0
    assert same_bits(got[2], got[1])


def test_a_failing_level_propagates_and_leaves_no_thread_behind(monkeypatch):
    on_workers(monkeypatch, 2)
    calls = itertools.count(1)
    scan = solver._scan_clusters

    def fail_third(*args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("the third level failed")
        return scan(*args, **kwargs)

    monkeypatch.setattr(solver, "_scan_clusters", fail_third)
    before = threading.active_count()
    args, tol = pool_case("pole")
    with pytest.raises(RuntimeError, match="the third level failed"):
        grid_oracle(*args, tol_residual=tol)
    assert threading.active_count() == before


def test_oracle_levels_run_in_the_callers_context(monkeypatch):
    seen = []

    def record(*args, **kwargs):
        seen.append((np.geterr()["under"], threading.current_thread() is threading.main_thread()))
        return [], []

    monkeypatch.setattr(solver, "_scan_clusters", record)
    args, tol = pool_case("pole")
    with np.errstate(under="warn"):
        grid_oracle(*args, tol_residual=tol)
    assert np.geterr()["under"] != "warn"
    assert seen == [("warn", False)]


# -- deduplication -----------------------------------------------------------


def greedy_loop(pts, radius):
    """The quadratic greedy rule that ``greedy_dedup`` must reproduce."""
    kept = []
    for i in range(len(pts)):
        if all(np.linalg.norm(pts[i] - pts[j]) > radius for j in kept):
            kept.append(i)
    return kept


@given(
    dim=st.integers(1, 6),
    centers=st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=1, max_size=6),
    count=st.sampled_from([1, 2, 40, 1000]),
    spread=st.sampled_from([0.0, 1e-12, 1e-9, 0.3]),
    radius=st.sampled_from([1e-7, 1e-6, 1e-3, 0.5, 1.0]),
    offset=st.sampled_from([0.0, 100.0, -100.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
@example(dim=3, centers=[[0] * 6, [1] * 6], count=1000, spread=1e-9, radius=1e-6, offset=100.0, seed=0)
def test_greedy_dedup_matches_loop(dim, centers, count, spread, radius, offset, seed):
    # Centers on a lattice of half the radius put many pairs at exactly
    # the radius (and at zero distance); a small spread makes dense
    # clusters of near-coincident points and pairs a hair either side.
    # Near +-100 a coordinate's ulp (1.4e-14) exceeds 1e-9 of a 1e-6 radius.
    rng = np.random.default_rng(seed)
    lattice = offset + np.array(centers, dtype=float)[:, :dim] * (0.5 * radius)
    pts = lattice[rng.integers(len(lattice), size=count)]
    pts = pts + spread * radius * rng.standard_normal(pts.shape)
    assert greedy_dedup(pts, radius) == greedy_loop(pts, radius)


@given(
    dim=st.integers(1, 6),
    radius=st.sampled_from([1e-7, 1e-6, 1e-3, 1.0]),
    offset=st.sampled_from([0.0, 0.7, 100.0, -100.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_greedy_dedup_matches_loop_at_the_band_edges(dim, radius, offset, seed):
    # Pairs a few ulps either side of the radius and of the edges of the
    # band that ``greedy_dedup`` decides without ``np.linalg.norm``, along
    # an axis and in random directions, in either visit order. The pairs
    # lie eight radii apart, so ``greedy_loop`` keeps a pair's second point
    # iff the pair is farther apart than the radius.
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    scales = [1 + (e + k) * eps for e in (0, dim + 4, -(dim + 4)) for k in range(-3, 4)]
    dirs = rng.standard_normal((300, dim))
    dirs[:20] = np.eye(dim)[rng.integers(dim, size=20)]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    first = offset + radius * rng.uniform(-1, 1, (300, dim))
    first[:, 0] += 8 * radius * np.arange(300)
    second = first + dirs * (radius * rng.choice(scales, size=(300, 1)))
    pairs = np.stack([first, second], axis=1)
    swap = rng.random(300) < 0.5
    pairs[swap] = pairs[swap, ::-1]
    pts = pairs.reshape(-1, dim)
    want = [k for k in range(len(pts)) if k % 2 == 0 or np.linalg.norm(pts[k] - pts[k - 1]) > radius]
    assert greedy_dedup(pts, radius) == want
    assert greedy_loop(pts[:80], radius) == [k for k in want if k < 80]


def test_greedy_dedup_covers_a_difference_rounded_down_onto_the_radius():
    # 1 - 2**-53 - (-2**-52) is 1 + 2**-53, a tie that rounds to even: 1.0,
    # so the pair is one radius apart, while -2**-52 + 1 rounds to
    # 1 - 2**-52, below the second point; a window of exactly the radius
    # around the first point misses it
    pts = np.array([[-(2.0**-52)], [1 - 2.0**-53]])
    assert np.linalg.norm(pts[1] - pts[0]) == 1.0 and pts[0, 0] + 1.0 < pts[1, 0]
    assert greedy_dedup(pts, 1.0) == greedy_loop(pts, 1.0) == [0]


def test_greedy_dedup_memory_stays_bounded_on_coincident_points():
    # thousands of seeds converging to one point: the candidate pairs of one
    # block, never those of all points, are held at once
    pts = np.tile([0.25, -1.5, 3.0], (24_000, 1))
    kept, peak = traced_peak(lambda: greedy_dedup(pts, 1e-6))
    assert kept == [0]
    assert peak < 8 * 24_000**2 / 1000, peak


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


def unique_optimum(cost, cols) -> bool:
    """Whether every other assignment costs more than ``cols`` does, by
    more than rounding: forbidding any one of its pairs raises the least
    sum."""
    best = math.fsum(cost[np.arange(len(cost)), cols])
    for i, j in enumerate(cols):
        barred = cost.copy()
        barred[i, j] = math.inf
        try:
            rows, alt = linear_sum_assignment(barred)
        except ValueError:  # no other assignment
            continue
        if math.fsum(barred[rows, alt]) <= best + 1e-9 * (1.0 + best):
            return False
    return True


@given(n=st.integers(1, 10), ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_least_sum_assignment_matches_scipy(n, ties, seed):
    rng = np.random.default_rng(seed)
    if ties:
        # small integers: exact sums and many optimal assignments
        found = expected = None
        cost = rng.integers(0, 4, size=(n, n)).astype(float)
    else:
        # points with repeats on both sides, the expected set a noisy
        # shuffle of the found one
        found = rng.random((n, 2))[rng.integers(0, max(1, n - 1), size=n)]
        expected = found[rng.permutation(n)] + rng.normal(0.0, 10.0 ** rng.uniform(-9, -1), (n, 2))
        expected[rng.random(n) < 0.2] = found[0]
        cost = np.linalg.norm(found[:, None, :] - expected[None, :, :], axis=2)
    cols = solver._least_sum_assignment(cost)
    assert sorted(cols) == list(range(n))
    rows, want = linear_sum_assignment(cost)
    total = math.fsum(cost[rows, want])
    assert math.fsum(cost[np.arange(n), cols]) == total
    if unique_optimum(cost, want):
        assert list(cols) == list(want)
        if found is not None:
            worst = float(cost[rows, want].max())
            tol = float(np.median(cost))
            assert match_point_sets(found, expected, tol) == {
                "found": n,
                "expected": n,
                "bijective": worst <= tol,
                "max_distance": worst,
            }


def test_least_sum_assignment_refuses_nan_and_infeasible_costs():
    cost = np.arange(9.0).reshape(3, 3)
    cost[1, 2] = math.nan
    with pytest.raises(ValueError):
        solver._least_sum_assignment(cost)
    with pytest.raises(ValueError):
        match_point_sets([[0.0, math.nan]], [[0.0, 0.0]], tol=1.0)
    with pytest.raises(ValueError):
        solver._least_sum_assignment(np.array([[1.0, math.inf], [2.0, math.inf]]))
    # an infinite entry off the assignment is no obstacle
    assert list(solver._least_sum_assignment(np.array([[math.inf, 1.0], [2.0, math.inf]]))) == [1, 0]
