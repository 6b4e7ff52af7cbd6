"""Root finding for symbolic equation systems.

Three independent mechanisms, deliberately overlapping so results can be
cross-checked:

* ``solve_points``: batched damped Gauss-Newton from a deterministic seed
  grid (or caller-provided seeds), with strict residual rechecks, box and
  audit filters, per-point Jacobian rank reports, and deduplication.
* ``trace_curves``: predictor-corrector continuation along one-dimensional
  solution sets, detecting closed loops and box exits.
* ``grid_oracle``: a dense multi-level scan that never uses derivatives,
  serving as an independent check on the Gauss-Newton results for systems
  with isolated solutions.

Everything here is deterministic: no randomness, stable orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .expr import System, eval_block, simplify
from .linalg import RankReport, numeric_ranks

_SEED_CAP = 24_000  # total Gauss-Newton seeds, keeps dense grids tractable
_ESCAPE_FACTOR = 20.0  # drop iterates this many diameters from the box center


@dataclass(frozen=True)
class SolveOptions:
    """Shared numeric configuration.

    ``box`` bounds the first ``len(box)`` variables; extra variables (e.g.
    multipliers) are unconstrained and require explicit seeds.
    ``dedup_radius`` is relative to the box diameter.
    """

    box: tuple
    grid: int = 64
    tol_residual: float = 1e-9
    tol_rank: float = 1e-8
    max_iterations: int = 60
    dedup_radius: float = 1e-6

    def __post_init__(self):
        if not self.box:
            raise ValueError("box must not be empty")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad box interval {lo}:{hi}")
        if self.grid < 8:
            raise ValueError("grid resolution must be at least 8")
        if self.tol_residual <= 0 or self.tol_rank <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm([hi - lo for lo, hi in self.box]))


@dataclass(frozen=True, eq=False)
class SolvedPoint:
    x: np.ndarray
    residual: float
    jacobian_rank: RankReport
    iterations: int


@dataclass(eq=False)
class SolveOutcome:
    points: list
    stats: dict = field(default_factory=dict)

    def coordinates(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 0))
        return np.array([p.x for p in self.points])


def _compile(system, dim: int) -> System:
    return System([simplify(e) for e in system], dim)


def greedy_dedup(pts, radius: float) -> list:
    """Indices of the points kept by greedy deduplication, in visit order.

    Points are visited in order; a point is kept iff
    ``np.linalg.norm(pts[i] - pts[j]) > radius`` for every point ``j`` kept
    before it. Each kept point asks a KD-tree for its ball at a slightly
    inflated radius, so roundoff in the tree's own distances never hides a
    neighbour, and every later neighbour is confirmed with that exact
    expression before it is marked covered. Only kept points query, so the
    cost follows the number of distinct points, not its square. Points
    must be finite.
    """
    pts = np.asarray(pts, dtype=float)
    tree = cKDTree(pts)
    covered = np.zeros(len(pts), dtype=bool)
    kept = []
    for i in range(len(pts)):
        if covered[i]:
            continue
        kept.append(i)
        for j in tree.query_ball_point(pts[i], radius * (1.0 + 1e-9)):
            if j > i and not covered[j] and np.linalg.norm(pts[j] - pts[i]) <= radius:
                covered[j] = True
    return kept


def cell_centers(box, resolution: int) -> list:
    """Per-axis cell-center coordinates of a uniform lattice over the box."""
    return [lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution for lo, hi in box]


def lattice_points(axes, flat=None) -> np.ndarray:
    """The points of the lattice spanned by ``axes`` at the C-order flat
    indices ``flat`` (the whole lattice when None), one point per row; in
    C order the last axis varies fastest."""
    shape = tuple(len(a) for a in axes)
    if flat is None:
        flat = np.arange(math.prod(shape))
    return np.stack([a[i] for a, i in zip(axes, np.unravel_index(flat, shape))], axis=-1)


def grid_seeds(box, grid: int, cap: int = _SEED_CAP) -> np.ndarray:
    """Cell-center seed lattice over the box, capped in total size.

    The per-axis count is reduced (never below 8) until the full lattice
    fits under ``cap``, keeping seeding deterministic and affordable in
    any dimension.
    """
    dim = len(box)
    per_axis = min(grid, max(8, int(round(cap ** (1.0 / dim)))))
    return lattice_points(cell_centers(box, per_axis))


def in_box(points, box, slack: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside the box on the boxed coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    ok = np.ones(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        ok &= (pts[:, axis] >= lo - slack) & (pts[:, axis] <= hi + slack)
    return ok


def solve_points(
    system,
    opts: SolveOptions,
    *,
    seeds=None,
    audits=(),
    var_dim: int | None = None,
) -> SolveOutcome:
    """All isolated solutions of ``system`` inside the box.

    Damped Gauss-Newton with backtracking runs from every seed in
    parallel. Survivors must pass a strict residual recheck, the box test
    (with a tiny relative slack), and every audit equation within ten
    times the residual tolerance. Duplicates are merged keeping the lower
    residual; the result is ordered lexicographically by coordinates.
    """
    boxed = len(opts.box)
    dim = boxed if var_dim is None else var_dim
    if dim < boxed:
        raise ValueError("var_dim smaller than the box dimension")
    eqs = _compile(system, dim)
    if seeds is None:
        if dim != boxed:
            raise ValueError("seeds are required when variables exceed the box")
        X = grid_seeds(opts.box, opts.grid)
    else:
        X = np.asarray(seeds, dtype=float).reshape(-1, dim).copy()
    stats = {
        "seeds": len(X),
        "converged": 0,
        "dropped": 0,
        "out_of_box": 0,
        "audit_rejected": 0,
        "deduplicated": 0,
    }
    if not len(X):
        return SolveOutcome([], stats)

    center = np.array([(lo + hi) / 2 for lo, hi in opts.box])
    escape = _ESCAPE_FACTOR * max(opts.diameter, 1.0)
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
        return SolveOutcome([], stats)

    pts = np.array([d[1] for d in done])
    res = np.array([d[2] for d in done])
    its = np.array([d[3] for d in done])

    # strict recheck (paranoia against accumulation in the batched path)
    R = eqs.values(pts)
    strict = np.all(np.isfinite(R), axis=1) & (
        np.max(np.abs(R), axis=1, initial=0.0) <= opts.tol_residual
    )
    inside = in_box(pts, opts.box, slack=1e-9 * opts.diameter)
    stats["out_of_box"] = int(np.count_nonzero(strict & ~inside))
    keep = strict & inside
    if audits:
        audit_vals = _compile(audits, dim).values(pts)
        audit_ok = np.all(
            np.abs(np.nan_to_num(audit_vals, nan=np.inf))
            <= 10.0 * opts.tol_residual,
            axis=1,
        )
        stats["audit_rejected"] = int(np.count_nonzero(keep & ~audit_ok))
        keep &= audit_ok
    pts, res, its = pts[keep], res[keep], its[keep]
    if not len(pts):
        return SolveOutcome([], stats)

    order = np.argsort(res, kind="stable")
    pts, res, its = pts[order], res[order], its[order]
    radius = opts.dedup_radius * max(opts.diameter, 1.0)
    kept = greedy_dedup(pts, radius)
    stats["deduplicated"] = len(pts) - len(kept)
    pts, res, its = pts[kept], res[kept], its[kept]

    order = np.lexsort(pts.T[::-1])
    pts, res, its = pts[order], res[order], its[order]
    ranks = numeric_ranks(eqs.jacobian(pts), opts.tol_rank)
    points = [
        SolvedPoint(
            x=pts[i],
            residual=float(res[i]),
            jacobian_rank=ranks[i],
            iterations=int(its[i]),
        )
        for i in range(len(pts))
    ]
    stats["converged"] = len(points)
    return SolveOutcome(points, stats)


# ---------------------------------------------------------------------------
# Curve tracing.

@dataclass(eq=False)
class TracedCurve:
    """Polyline along a one-dimensional solution component.

    ``closed`` means the trace returned to its start; closed curves repeat
    the first vertex at the end. ``reached_boundary`` marks components
    that leave the box (both ends, after stitching the reverse trace).
    ``step_collapsed`` flags an abandoned trace whose corrector forced the
    step below the useful minimum; treat the component as unresolved.
    """

    points: np.ndarray
    closed: bool
    reached_boundary: bool = False
    step_collapsed: bool = False

    @property
    def length(self) -> float:
        d = np.diff(self.points, axis=0)
        return float(np.sum(np.linalg.norm(d, axis=1)))


def _curve_tangent(J: np.ndarray, tol: float) -> np.ndarray | None:
    u, s, vt = np.linalg.svd(J)
    dim = J.shape[1]
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    if rank != dim - 1:
        return None
    return vt[-1]


def _correct(eqs: System, x, tol, max_iter=10):
    """Project a predictor point back onto the solution set."""
    x = x.copy()
    for it in range(max_iter):
        r = eqs.values(x)[0]
        if not np.all(np.isfinite(r)):
            return None, it
        if np.max(np.abs(r), initial=0.0) <= tol:
            return x, it
        J = eqs.jacobian(x)[0]
        if not np.all(np.isfinite(J)):
            return None, it
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        x = x - step
    return None, max_iter


def _trace_one(eqs: System, start, direction, opts, h0, max_steps):
    """Trace from ``start`` along ``direction`` until closure, exit, or stall.

    Returns (vertices list excluding start, closed, boundary, collapsed).
    """
    tol = 10.0 * opts.tol_residual
    h_min = 1e-6 * opts.diameter
    path = []
    x = start.copy()
    t_prev = direction
    h = h0
    closed = boundary = collapsed = False
    for step_no in range(max_steps):
        J = eqs.jacobian(x)[0]
        t = _curve_tangent(J, opts.tol_rank)
        if t is None:
            break
        if float(t @ t_prev) < 0:
            t = -t
        moved = None
        while h >= h_min:
            cand, iters = _correct(eqs, x + h * t, tol)
            if cand is not None and np.linalg.norm(cand - x) > 0.1 * h:
                moved = cand
                if iters <= 3:
                    h = min(h * 1.4, h0)
                break
            h *= 0.5
        if moved is None:
            collapsed = True
            break
        x, t_prev = moved, t
        path.append(x.copy())
        if not in_box(x.reshape(1, -1), opts.box)[0]:
            boundary = True
            break
        if step_no >= 4 and np.linalg.norm(x - start) < 1.3 * h0:
            closed = True
            break
    return path, closed, boundary, collapsed


def trace_curves(
    system,
    opts: SolveOptions,
    *,
    seeds=None,
    step: float | None = None,
    max_steps: int = 4000,
) -> list:
    """Trace the one-dimensional solution set of ``system`` inside the box.

    Seeds default to a deduplicated Gauss-Newton pass. Each unconsumed
    seed starts a predictor-corrector trace; seeds near an already traced
    component are consumed. Curves come back sorted by their smallest
    vertex, closed loops first as traced.
    """
    dim = len(opts.box)
    eqs = _compile(system, dim)
    if seeds is None:
        sample_opts = replace(opts, grid=min(opts.grid, 12), dedup_radius=2e-3)
        seeds = solve_points(eqs.equations, sample_opts).coordinates()
    seeds = np.asarray(seeds, dtype=float).reshape(-1, dim)
    if not len(seeds):
        return []
    h0 = step if step is not None else 5e-3 * opts.diameter

    consumed = np.zeros(len(seeds), dtype=bool)
    curves = []
    for i in range(len(seeds)):
        if consumed[i]:
            continue
        consumed[i] = True
        x0, _ = _correct(eqs, seeds[i], 10 * opts.tol_residual)
        if x0 is None:
            continue
        J = eqs.jacobian(x0)[0]
        t0 = _curve_tangent(J, opts.tol_rank)
        if t0 is None:
            continue
        fwd, closed, bnd_f, col_f = _trace_one(eqs, x0, t0, opts, h0, max_steps)
        if closed:
            pts = np.array([x0] + fwd + [x0])
            curve = TracedCurve(pts, True, False, col_f)
        else:
            bwd, _, bnd_b, col_b = _trace_one(eqs, x0, -t0, opts, h0, max_steps)
            pts = np.array(list(reversed(bwd)) + [x0] + fwd)
            curve = TracedCurve(pts, False, bnd_f and bnd_b, col_f or col_b)
        curves.append(curve)
        todo = np.flatnonzero(~consumed)
        if todo.size:
            d = np.min(
                np.linalg.norm(
                    seeds[todo][:, None, :] - curve.points[None, :, :], axis=2
                ),
                axis=1,
            )
            consumed[todo[d < 2.0 * h0]] = True
    curves.sort(key=lambda c: tuple(np.min(c.points, axis=0)))
    return curves


# ---------------------------------------------------------------------------
# Dense-grid oracle.

_SCAN_CHUNK = 16_384  # lattice points per eval_block call; cache-sized
_FLOAT_MAX = np.finfo(float).max


def _residuals(eqs, pts) -> np.ndarray:
    """Abs residuals of ``eqs`` at the points ``pts``, shape ``(len(eqs),
    len(pts))``. Every nan or infinite residual is stored as the largest
    finite float, so the result holds finite numbers only."""
    block = eval_block(eqs, pts)
    return np.fmin(np.abs(block, out=block), _FLOAT_MAX, out=block)


def _lattice_chunks(axes, chunk=_SCAN_CHUNK):
    """The whole lattice of ``axes`` in C order, ``chunk`` points at a time.

    Yields ``(start, points)``, where ``points`` is bitwise
    ``lattice_points(axes, np.arange(start, start + len(points)))``. The
    points are a view of one template, rebuilt in place for each chunk, so
    use them before asking for the next. The template holds the lattice
    of the inner axes, repeated to cover a chunk at any offset; a chunk
    only refills the outer-axis column.
    """
    dim = len(axes)
    inner = lattice_points(axes[1:]) if dim > 1 else np.zeros((1, 0))
    size = len(inner)
    total = len(axes[0]) * size
    reps = -(-chunk // size) + 1
    template = np.empty((reps * size, dim))
    template[:, 1:] = np.tile(inner, (reps, 1))
    for start in range(0, total, chunk):
        first, offset = divmod(start, size)
        outer = axes[0][first : first + reps]
        template[: len(outer) * size, 0].reshape(len(outer), size)[:] = outer[:, None]
        yield start, template[offset : offset + min(chunk, total - start)]


def _scan_box(eqs, box, resolution, chunk=_SCAN_CHUNK):
    """Per-equation abs residuals (``_residuals``) on the whole cell-center
    lattice.

    Returns ``(values, axes)``; ``values`` has shape ``(len(eqs),) +
    (resolution,) * len(box)``. The points are built one chunk at a time,
    so beyond ``values`` the memory used is a few chunks.
    """
    axes = cell_centers(box, resolution)
    values = np.empty((len(eqs), resolution ** len(box)))
    for start, pts in _lattice_chunks(axes, chunk):
        values[:, start : start + len(pts)] = _residuals(eqs, pts)
    return values.reshape((len(eqs),) + (resolution,) * len(box)), axes


def _local_slope(values, box, resolution) -> np.ndarray:
    """Per-cell, per-equation slope estimate: the largest finite
    difference to any axis neighbor, divided by the cell size along that
    axis. The leading axis of ``values`` indexes equations, and
    ``values`` must be finite."""
    out = np.zeros_like(values)
    for ax, (lo, hi) in enumerate(box, start=1):
        step = np.diff(values, axis=ax)
        np.abs(step, out=step)
        # a difference near the largest float over a cell size below 1
        # overflows to inf, the slope meant there
        with np.errstate(over="ignore"):
            step /= (hi - lo) / resolution
        # each cell is the low end of one difference and the high end of
        # another; dividing by a positive size keeps the order, so this is
        # the maximum of the scaled differences on both sides
        n = values.shape[ax]
        for part in (slice(0, n - 1), slice(1, n)):
            view = out[(slice(None),) * ax + (part,)]
            np.maximum(view, step, out=view)
    return out


def _cell_slope(values, cells, box, resolution) -> np.ndarray:
    """``_local_slope`` of one equation at the lattice cells with C-order
    flat indices ``cells`` only. ``values`` is that equation's flat array
    of finite residuals; it is read at ``cells`` and at their axis
    neighbors, nowhere else."""
    dim = len(box)
    coords = np.unravel_index(cells, (resolution,) * dim)
    here = values[cells]
    out = np.zeros(len(cells))
    for ax, (lo, hi) in enumerate(box):
        stride = resolution ** (dim - 1 - ax)
        at = coords[ax]
        # a cell with no neighbor on one side stands in for it: a zero
        # difference, which leaves the maximum as it is; |b - a| is
        # exactly |a - b|, so each difference has the bits of the dense one
        for nb in (cells - stride * (at > 0), cells + stride * (at < resolution - 1)):
            step = values[nb] - here
            np.abs(step, out=step)
            with np.errstate(over="ignore"):
                step /= (hi - lo) / resolution
            np.maximum(out, step, out=out)
    return out


def _face_dilation(mask) -> np.ndarray:
    """``mask`` with every axis neighbor of a set cell set too, clipped to
    the lattice: ``ndimage.binary_dilation`` with its default structure,
    about 20 times faster on a 128^3 mask."""
    out = mask.copy()
    for ax in range(mask.ndim):
        low = (slice(None),) * ax + (slice(0, -1),)
        high = (slice(None),) * ax + (slice(1, None),)
        out[low] |= mask[high]
        out[high] |= mask[low]
    return out


def grid_oracle(
    system,
    box,
    resolution: int = 128,
    *,
    tol_residual: float = 1e-9,
    levels: int = 24,
) -> np.ndarray:
    """Isolated solutions located purely by multi-level dense scanning.

    Never evaluates a derivative, so it is an independent check on the
    Gauss-Newton solver. A cell is a candidate when every equation on its
    own could reach zero inside the cell, each judged against that
    equation's locally observed slope (a shared threshold would let the
    steepest equation mask the whole box); a nan or infinite residual
    counts as the largest finite float. Candidate cells form clusters,
    every cluster's bounding box is rescanned at higher resolution
    (re-labeled, so merged clusters split), and a leaf survives only if
    its best residual has shrunk in proportion to the final cell size,
    again equation by equation. Roots that stay in one cluster through
    every level merge into one answer. Only meaningful for systems whose
    solution set is a finite point set.

    Each level tests the equations in turn (see ``_scan_clusters``): the
    first on the whole lattice, each later one only where the earlier ones
    left cells open. The decisions, and so the result, are bitwise those
    of testing every equation on every cell, in any order of the
    equations. A level frees its lattice arrays before it rescans its
    clusters, so memory stays at about one level's arrays, whatever the
    depth.
    """
    eqs = [simplify(e) for e in system]
    dim = len(box)
    if not eqs:
        # every cell stays open, so each level rescans the whole box, and
        # its leaf cells are too coarse to accept a root
        return np.zeros((0, dim))
    diam = float(np.linalg.norm([hi - lo for lo, hi in box]))
    reps = _scan_level(
        eqs,
        tuple(box),
        resolution,
        tol_residual,
        levels,
        5e-7 * diam,
        2e-3 * diam,
    )
    if not reps:
        return np.zeros((0, dim))
    pts = np.array(reps)
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    return pts[greedy_dedup(pts, 1e-6 * diam)]


def _scan_level(
    eqs, box, resolution, tol_residual, levels_left, min_half_diag, accept_half_diag
) -> list:
    reps: list = []
    for item in _scan_clusters(
        eqs, box, resolution, tol_residual, levels_left, min_half_diag, accept_half_diag
    ):
        if isinstance(item, np.ndarray):
            reps.append(item)
        else:
            sub_box, child_res = item
            reps.extend(
                _scan_level(
                    eqs,
                    sub_box,
                    child_res,
                    tol_residual,
                    levels_left - 1,
                    min_half_diag,
                    accept_half_diag,
                )
            )
    return reps


def _scan_clusters(
    eqs, box, resolution, tol_residual, levels_left, min_half_diag, accept_half_diag
) -> list:
    """One scan level's outcome, cluster by cluster in label order: a leaf
    representative point, or a ``(sub_box, child_resolution)`` to rescan.

    A cell stays open iff every equation k passes ``values[k] <= 1.5 *
    slope[k] * half_diag + 10 * tol``, and that test reads equation k at
    the cell and at its axis neighbors only. So the equations are tested
    in turn: the first is evaluated on the whole lattice, each later one
    only at the cells still open and their axis neighbors (the face
    dilation of the open mask), and its slope is taken at the open cells.
    Evaluation is elementwise, ``|b - a|`` is exactly ``|a - b|`` and
    maxima are exact, so every value and slope read is bitwise the one a
    whole-lattice scan of every equation gives, and so are the mask, the
    leaf argmin and the leaf bound. The lattice arrays die when this
    returns."""
    dim = len(box)
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in box))
    leaf = levels_left <= 1 or half_diag <= min_half_diag
    if leaf and half_diag > accept_half_diag:
        # a root cell satisfies V <= slope * half_diag for every equation,
        # while a positive minimum of some V fails once the cell is small;
        # clusters whose cells never got small are plateaus, not roots
        return []
    shape = (resolution,) * dim
    first, axes = _scan_box(eqs[:1], box, resolution)
    # flat per-equation arrays; a later equation's are read only where
    # they were filled: values at the dilated cells, slopes at open ones
    values = [first.ravel()]
    slopes = [_local_slope(first, box, resolution).ravel()]
    mask = values[0] <= 1.5 * slopes[0] * half_diag + 10.0 * tol_residual
    for eq in eqs[1:]:
        needed = np.flatnonzero(_face_dilation(mask.reshape(shape)))
        vals = np.empty(mask.size)
        for start in range(0, len(needed), _SCAN_CHUNK):
            part = needed[start : start + _SCAN_CHUNK]
            vals[part] = _residuals([eq], lattice_points(axes, part))[0]
        open_cells = np.flatnonzero(mask)
        slope = np.empty(mask.size)
        slope[open_cells] = _cell_slope(vals, open_cells, box, resolution)
        tau = 1.5 * slope[open_cells] * half_diag + 10.0 * tol_residual
        mask[open_cells] = vals[open_cells] <= tau
        values.append(vals)
        slopes.append(slope)
    mask = mask.reshape(shape)
    labels, _ = ndimage.label(mask, structure=np.ones((3,) * dim, dtype=int))
    if leaf:
        # the worst equation at each open cell; no other cell is read
        open_cells = np.flatnonzero(mask)
        worst = np.zeros(mask.size)
        worst[open_cells] = np.max([v[open_cells] for v in values], axis=0)
        worst = worst.reshape(shape)
    out: list = []
    for lab, cells in enumerate(ndimage.find_objects(labels), start=1):
        if leaf:
            # the first best cell in C order: offsets inside the bounding
            # box keep the order of the whole lattice
            sub = np.where(labels[cells] == lab, worst[cells], np.inf)
            local = np.unravel_index(int(np.argmin(sub)), sub.shape)
            idx = tuple(s.start + k for s, k in zip(cells, local))
            j = np.ravel_multi_index(idx, shape)
            bound = 4.0 * np.array([s[j] for s in slopes]) * half_diag + 50.0 * tol_residual
            if np.any(np.array([v[j] for v in values]) > bound):
                continue
            out.append(np.array([axes[a][idx[a]] for a in range(dim)]))
            continue
        sub_box = []
        shrink = 0.0
        for (lo, hi), s in zip(box, cells):
            size = (hi - lo) / resolution
            s_lo = max(lo, lo + (s.start - 1) * size)
            s_hi = min(hi, lo + (s.stop + 1) * size)
            if not s_lo < s_hi:
                break
            sub_box.append((s_lo, s_hi))
            shrink = max(shrink, (s_hi - s_lo) / (hi - lo))
        else:
            # a cluster spanning its whole box would recurse forever at
            # fixed resolution; finer cells restore progress (thinner mask
            # next level)
            child_res = min(2 * resolution, 128) if shrink > 0.6 else 16
            out.append((tuple(sub_box), child_res))
    return out


def match_point_sets(found, expected, tol: float) -> dict:
    """Optimal one-to-one matching report between two point sets.

    ``bijective`` is True when the sets have equal size and the optimal
    assignment pairs every point within ``tol``.
    """
    report = {
        "found": len(found),
        "expected": len(expected),
        "bijective": False,
        "max_distance": math.inf,
    }
    if len(found) != len(expected):
        return report
    if not len(found):
        report["bijective"] = True
        report["max_distance"] = 0.0
        return report
    A = np.asarray(found, dtype=float).reshape(len(found), -1)
    B = np.asarray(expected, dtype=float).reshape(len(expected), -1)
    cost = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    report["max_distance"] = worst
    report["bijective"] = bool(worst <= tol)
    return report
