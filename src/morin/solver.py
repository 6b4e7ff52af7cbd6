"""Root finding for symbolic equation systems.

Three independent mechanisms, deliberately overlapping so results can be
cross-checked:

* ``solve_points``: batched damped Gauss-Newton from a deterministic seed
  grid (or caller-provided seeds), with box and audit filters, and
  deduplication.
* ``trace_curves``: predictor-corrector continuation along one-dimensional
  solution sets, detecting closed loops and box exits.
* ``grid_oracle``: a dense multi-level scan that never uses derivatives,
  serving as an independent check on the Gauss-Newton results for systems
  with isolated solutions.

Everything here is deterministic: no randomness, stable orderings.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .expr import System, eval_block, eval_lattice, simplify

_SEED_CAP = 24_000  # total Gauss-Newton seeds, keeps dense grids tractable
_ESCAPE_FACTOR = 20.0  # drop iterates this many diameters from the box center
_PAIR_BLOCK = 1 << 12  # candidate pairs per greedy_dedup block


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
        # written so that a nan fails too
        if not (0 < self.tol_residual < math.inf and 0 < self.tol_rank < math.inf):
            raise ValueError("tolerances must be positive and finite")

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm([hi - lo for lo, hi in self.box]))


@dataclass(frozen=True, eq=False)
class SolvedPoint:
    x: np.ndarray
    residual: float
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


def _row_norms(R) -> np.ndarray:
    """Euclidean norm of each row of ``R``, its squares summed left to
    right, so a row gets the same bits in any batch (``np.linalg.norm``
    sums a contiguous row of 8 or more entries pairwise, a strided one left
    to right, and reduces short contiguous rows about ten times slower).
    A row with a nan, or past the float range, has an inf norm."""
    sq = np.zeros(len(R))
    with np.errstate(over="ignore"):
        for col in R.T:
            sq += col * col
    sq[np.isnan(sq)] = np.inf
    return np.sqrt(sq)


def _beyond(X, center, radius: float) -> np.ndarray:
    """``np.linalg.norm(X - center, axis=1) > radius`` for a C-ordered
    ``X``, with the same bits. Each row's squares are summed left to right
    and compared with the squared edges of a band of ``(dim + 4) * eps *
    radius`` around the radius, as in ``greedy_dedup``; only a row inside
    the band is confirmed with that exact expression. A row with a nan is
    beyond in neither form, and one whose squares pass the float range in
    both; outside radii where that holds every row is confirmed."""
    rel = (X.shape[1] + 4) * float(np.finfo(float).eps)
    band = rel * radius if 2.0**-500 <= radius <= 2.0**500 else math.inf
    lo, hi = max(0.0, radius - band), radius + band
    with np.errstate(over="ignore"):
        off = X - center
        sq = off[:, 0] * off[:, 0]
        for k in range(1, off.shape[1]):
            sq += off[:, k] * off[:, k]
        far = sq > hi * hi
        unsure = np.flatnonzero((sq >= lo * lo) & (sq <= hi * hi))
        if unsure.size:
            far[unsure] = np.linalg.norm(off[unsure], axis=1) > radius
    return far


def greedy_dedup(pts, radius: float) -> list:
    """Indices of the points kept by greedy deduplication, in visit order.

    Points are visited in order; a point is kept iff
    ``np.linalg.norm(pts[i] - pts[j]) > radius`` for every point ``j`` kept
    before it. Points must be finite.

    Candidates come from a sweep over the sorted coordinate of widest
    spread: a pair within the radius differs there by at most the radius,
    and the window is widened by a few ulps of the radius and of the
    coordinate so that no rounding hides a neighbour. The points not yet
    covered are taken in visit order in blocks of at most ``_PAIR_BLOCK``
    candidate pairs (a single point's window may hold more), and a block's
    pairs get their distances at once. Small blocks waste few windows on
    points that an earlier point of their block covers, and keep memory
    bounded however many points coincide. A distance outside a band of
    ``(dim + 4) * eps * radius`` around the radius decides its pair as
    ``np.linalg.norm`` would, since both are a sum of ``dim`` squares
    rounded within that band (Higham 2002, section 3.1); one inside the
    band is confirmed with that exact expression.
    """
    pts = np.asarray(pts, dtype=float)
    if not len(pts):
        return []
    rel = (pts.shape[1] + 4) * np.finfo(float).eps
    # outside these radii a square may under- or overflow, so every
    # candidate is confirmed
    band = rel * radius if 2.0**-500 <= radius <= 2.0**500 else math.inf
    key = pts[:, int(np.argmax(np.ptp(pts, axis=0)))]
    w = max(radius, 2.0**-500) * (1 + rel)
    w += 2 * np.spacing(np.max(np.abs(key)) + w)
    order = np.argsort(key, kind="stable")
    lo = np.searchsorted(key[order], key - w, "left")
    count = np.searchsorted(key[order], key + w, "right") - lo
    covered = np.zeros(len(pts), dtype=bool)
    kept = []
    start = 0
    while True:
        todo = start + np.flatnonzero(~covered[start:])
        if not len(todo):
            return kept
        block = todo[: max(1, np.searchsorted(np.cumsum(count[todo]), _PAIR_BLOCK, "right"))]
        start = block[-1] + 1
        c = count[block]
        I = np.repeat(block, c)
        J = order[np.arange(len(I)) + np.repeat(lo[block] - np.cumsum(c) + c, c)]
        later = J > I
        I, J = I[later], J[later]
        dist = _row_norms(pts[J] - pts[I])
        close = dist < radius - band
        for k in np.flatnonzero(~close & (dist <= radius + band)):
            close[k] = np.linalg.norm(pts[J[k]] - pts[I[k]]) <= radius
        I, J = I[close], J[close]
        ends = np.searchsorted(I, block, "right").tolist()
        for i, a, b in zip(block.tolist(), np.searchsorted(I, block).tolist(), ends):
            if not covered[i]:
                kept.append(i)
                covered[J[a:b]] = True


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


def capped_resolution(dim: int, grid: int, cap: int) -> int:
    """Per-axis count of a ``grid``-per-axis lattice in ``dim`` dimensions,
    reduced (never below 8) until the full lattice fits under ``cap``."""
    return min(grid, max(8, int(round(cap ** (1.0 / dim)))))


def grid_seeds(box, grid: int, cap: int = _SEED_CAP) -> np.ndarray:
    """Cell-center seed lattice over the box, capped in total size by
    :func:`capped_resolution`, keeping seeding deterministic and affordable
    in any dimension."""
    return lattice_points(cell_centers(box, capped_resolution(len(box), grid, cap)))


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
    parallel. A seed converges when its residuals are finite and within
    ``tol_residual``, as they are when its point is evaluated alone; the
    converged points must pass the box test (with a tiny relative slack)
    and every audit equation within ten times the residual tolerance.
    Duplicates are merged keeping the lower residual; the result is
    ordered lexicographically by coordinates.

    A round makes two evaluation calls: the full steps, then every halving
    1/2 ... 1/32 of the failed ones, stacked. A point takes its first step
    that passes and keeps that step's residuals, so no iterate is
    evaluated twice; ``eval_block`` gives a finite row the same bits in
    any batch, and so does ``_row_norms``, so each decision is that of
    evaluating the trial alone.

    The rounds carry only the live seeds, in seed order: compact arrays of
    iterates, residuals and their norms, damping and rounds taken, cut by
    one boolean index when seeds converge, turn non-finite, escape, meet a
    non-finite Jacobian or stall. Each evaluation, stacked solve and test
    sees the rows, in the order and layout, that a mask over all seeds gave
    it, so every float and count keeps its bits. A norm past the float
    range is inf: such an iterate escapes, and from such residuals every
    trial step passes.

    ``stats`` puts every seed in exactly one of ``converged``, ``dropped``
    (not finite, escaped or stalled), ``out_of_iterations``,
    ``out_of_box``, ``audit_rejected`` and ``deduplicated``.
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
        "out_of_iterations": 0,
        "out_of_box": 0,
        "audit_rejected": 0,
        "deduplicated": 0,
    }
    if not len(X):
        return SolveOutcome([], stats)

    center = np.array([(lo + hi) / 2 for lo, hi in opts.box])
    escape = _ESCAPE_FACTOR * max(opts.diameter, 1.0)
    # the live seeds' iterates, residuals (a row per equation), norms, damping, rounds
    P = X
    R = eqs.values(P).T
    N = _row_norms(R.T)
    lam = np.full(len(P), 1e-10)
    its = np.zeros(len(P), dtype=int)
    found: list = []  # per round, the converged seeds' rows of P, res and its
    halves = 0.5 ** np.arange(1, 6)[:, None]  # the step fractions of a backtrack

    for _ in range(opts.max_iterations):
        if not len(P):
            break
        # nan for a seed with a nan residual, inf for one with an inf
        res = np.abs(R).max(axis=0, initial=0.0)
        conv = res <= opts.tol_residual
        if conv.any():
            found.append((P[conv], res[conv], its[conv]))
        live = np.isfinite(res) & ~_beyond(P[:, :boxed], center, escape) & ~conv
        if not live.all():
            P, R, N, lam, its = P[live], R[:, live], N[live], lam[live], its[live]
            if not len(P):
                break
        J = eqs.jacobian(P)
        ok = np.isfinite(J).all(axis=(1, 2))
        if not ok.all():
            P, R, N, lam, its, J = P[ok], R[:, ok], N[ok], lam[ok], its[ok], J[ok]
            if not len(P):
                break
        H = np.einsum("pei,pej->pij", J, J)
        # a row per seed, as einsum's order of summation may follow layout
        g = np.einsum("pei,pe->pi", J, np.ascontiguousarray(R.T))
        scale = H.trace(axis1=1, axis2=2) / dim + 1e-30
        A = H + (lam * scale)[:, None, None] * np.eye(dim)
        try:
            step = np.linalg.solve(A, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.array(
                [np.linalg.lstsq(A[p], g[p], rcond=None)[0] for p in range(len(P))]
            )
        step[~np.isfinite(step).all(axis=1)] = 0.0
        cand = P - step
        Rc = eqs.values(cand).T
        Nc = _row_norms(Rc.T)
        accepted = Nc <= N * (1.0 - 1e-4)
        P = np.where(accepted[:, None], cand, P)
        R = np.where(accepted, Rc, R)
        N = np.where(accepted, Nc, N)
        fail = np.flatnonzero(~accepted)
        if fail.size:
            # row h * len(fail) + i tries the halving h + 1 of failed point i
            cand = (P[fail] - halves[..., None] * step[fail]).reshape(-1, dim)
            Rc = eqs.values(cand).T
            Nc = _row_norms(Rc.T)
            good = Nc.reshape(5, fail.size) <= N[fail] * (1.0 - 1e-4 * halves)
            hit = good.any(axis=0)
            at = fail[hit]
            rows = (good.argmax(axis=0) * fail.size + np.arange(fail.size))[hit]
            P[at], R[:, at], N[at] = cand[rows], Rc[:, rows], Nc[rows]
            accepted[at] = True
        lam = np.where(accepted, np.maximum(lam * 0.3, 1e-12), lam * 30.0)
        its += 1
        keep = accepted | (lam <= 1e6)  # a failed step with damping past 1e6 stalls
        if not keep.all():
            P, R, N, lam, its = P[keep], R[:, keep], N[keep], lam[keep], its[keep]
    # a seed that neither converged nor ran out of rounds was dropped
    stats["out_of_iterations"] = len(P)
    stats["dropped"] = len(X) - len(P) - sum(len(part[1]) for part in found)

    if not found:
        return SolveOutcome([], stats)

    pts, res, its = (np.concatenate(parts) for parts in zip(*found))

    keep = in_box(pts, opts.box, slack=1e-9 * opts.diameter)
    stats["out_of_box"] = int(np.count_nonzero(~keep))
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
    points = [
        SolvedPoint(x=pts[i], residual=float(res[i]), iterations=int(its[i]))
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
    the first vertex at the end. ``step_collapsed`` flags an abandoned
    trace whose corrector forced the step below the useful minimum; treat
    the component as unresolved.
    """

    points: np.ndarray
    closed: bool
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


def _correct(eqs: System, x, tol):
    """Project a predictor point back onto the solution set."""
    x = x.copy()
    for it in range(10):
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
    return None, 10


def _trace_one(eqs: System, start, direction, opts, h0):
    """Trace from ``start`` along ``direction`` until closure, exit, or stall.

    Returns (vertices list excluding start, closed, collapsed).
    """
    tol = 10.0 * opts.tol_residual
    h_min = 1e-6 * opts.diameter
    path = []
    x = start.copy()
    t_prev = direction
    h = h0
    closed = collapsed = False
    for step_no in range(4000):
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
            break
        if step_no >= 4 and np.linalg.norm(x - start) < 1.3 * h0:
            closed = True
            break
    return path, closed, collapsed


def _nearest_distances(A, B) -> np.ndarray:
    """``np.min(np.linalg.norm(A[:, None] - B[None], axis=2), axis=1)``,
    the distance from each row of ``A`` to its nearest row of the nonempty
    ``B``, with the same bits: blocks of at most ``_PAIR_BLOCK`` pairs,
    each a contiguous ``(rows, cols, dim)`` difference as the whole form's,
    folded with ``np.minimum``, so memory stays bounded however many seeds
    and vertices there are."""
    d = np.full(len(A), np.inf)
    cols = max(1, min(len(B), _PAIR_BLOCK))
    rows = max(1, _PAIR_BLOCK // cols)
    for i in range(0, len(A), rows):
        near = d[i : i + rows]
        for j in range(0, len(B), cols):
            diff = A[i : i + rows, None, :] - B[None, j : j + cols, :]
            np.minimum(near, np.min(np.linalg.norm(diff, axis=2), axis=1), out=near)
    return d


def trace_curves(system, opts: SolveOptions) -> list:
    """Trace the one-dimensional solution set of ``system`` inside the box.

    Seeds come from a deduplicated Gauss-Newton pass. Each unconsumed
    seed starts a predictor-corrector trace; seeds within two initial
    steps of a traced curve's vertex are consumed. Curves come back sorted
    by their smallest vertex, closed loops first as traced.
    """
    dim = len(opts.box)
    eqs = _compile(system, dim)
    sample_opts = replace(opts, grid=min(opts.grid, 12), dedup_radius=2e-3)
    seeds = solve_points(eqs.equations, sample_opts).coordinates().reshape(-1, dim)
    if not len(seeds):
        return []
    h0 = 5e-3 * opts.diameter

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
        fwd, closed, col_f = _trace_one(eqs, x0, t0, opts, h0)
        if closed:
            curve = TracedCurve(np.array([x0] + fwd + [x0]), True, col_f)
        else:
            bwd, _, col_b = _trace_one(eqs, x0, -t0, opts, h0)
            pts = np.array(list(reversed(bwd)) + [x0] + fwd)
            curve = TracedCurve(pts, False, col_f or col_b)
        curves.append(curve)
        todo = np.flatnonzero(~consumed)
        if todo.size:
            near = _nearest_distances(seeds[todo], curve.points) < 2.0 * h0
            consumed[todo[near]] = True
    curves.sort(key=lambda c: tuple(np.min(c.points, axis=0)))
    return curves


# ---------------------------------------------------------------------------
# Dense-grid oracle.

_SCAN_CHUNK = 16_384  # lattice points per eval_block call; cache-sized
_SLAB = 65_536  # lattice points per dense eval_lattice call: 4 planes of 128^2
_RUN_BLOCK = 16_384  # runs whose neighbor rows _label_clusters searches at once
_FLOAT_MAX = np.finfo(float).max
_SCAN_WORKERS = 2  # scan levels in flight at once, at most one per CPU


def _finite_abs(block, out=None) -> np.ndarray:
    """``|block|``, in place or into ``out``, every nan or infinite entry
    stored as the largest finite float, so the result holds finite numbers
    only."""
    out = np.abs(block, out=block if out is None else out)
    return np.fmin(out, _FLOAT_MAX, out=out)


def _slabs(resolution, dim, chunk=_SLAB):
    """Slices of axis-0 planes covering a ``resolution ** dim`` lattice,
    each about ``chunk`` points and at least one plane."""
    planes = max(1, chunk // resolution ** (dim - 1))
    return [slice(p, p + planes) for p in range(0, resolution, planes)]


def _window(s, n) -> tuple:
    """The first and past-the-last axis-0 planes of the run of planes
    ``s`` (a slab or two) of an ``n``-plane lattice with one neighbour
    plane on each side, clipped to the lattice."""
    return max(s.start - 1, 0), min(s.stop + 1, n)


def _along(ax, s) -> tuple:
    """The index taking ``s`` along axis ``ax`` and everything before it."""
    return (slice(None),) * ax + (s,)


def _fold_steps(out, line, ax, step, size) -> None:
    """Raise ``out`` to the absolute difference of each position of
    ``line`` to either neighbor along axis ``ax``, divided by ``size``.
    ``step`` is scratch of the shape of ``line`` less one position along
    ``ax``."""
    np.subtract(line[_along(ax, slice(1, None))], line[_along(ax, slice(None, -1))], out=step)
    np.abs(step, out=step)
    step /= size
    for side in (slice(None, -1), slice(1, None)):
        np.maximum(out[_along(ax, side)], step, out=out[_along(ax, side)])


def _local_slope(values, planes, box, resolution, work=None) -> np.ndarray:
    """Per-cell, per-equation slope estimate on the axis-0 planes
    ``planes`` (a slice) of the lattice: the largest finite difference to
    any axis neighbor, divided by the cell size along that axis.

    The leading axis of ``values`` indexes equations, and ``values`` must
    be finite and nonnegative. The axis-0 differences are folded over the
    window of ``planes`` (``_window``), so they read the planes next to
    ``planes`` where there are any; every other axis reads ``planes``
    only. The differences are nonnegative, so folding them into zeros
    leaves their maximum as it is.

    ``work``, a flat float buffer of at least twice the size of the
    window, holds the window's differences and scratch; the result is a
    view of it. By default a new one is taken.
    """
    n = values.shape[1]
    start, stop, _ = planes.indices(n)
    w0, w1 = _window(slice(start, stop), n)
    window = values[:, w0:w1]
    if work is None:
        work = np.empty(2 * window.size)
    out = work[: window.size].reshape(window.shape)
    out[...] = 0.0
    slab = slice(start - w0, stop - w0)
    # a difference near the largest float over a cell size below 1
    # overflows to inf, the slope meant there
    with np.errstate(over="ignore"):
        for ax, (lo, hi) in enumerate(box, 1):
            line, into = (window, out) if ax == 1 else (window[:, slab], out[:, slab])
            less = line.shape[:ax] + (line.shape[ax] - 1,) + line.shape[ax + 1 :]
            step = work[window.size : window.size + math.prod(less)].reshape(less)
            _fold_steps(into, line, ax, step, (hi - lo) / resolution)
    return out[:, slab]


def _cell_slope(values, cells, box, resolution, shape) -> np.ndarray:
    """``_local_slope`` of one equation at the cells with C-order flat
    indices ``cells`` of an array of ``shape``, from ``values``, that
    equation's finite residuals on the array, flattened. It is read at
    ``cells`` and at their axis neighbors, nowhere else. The array is a scan
    window, a run of axis-0 planes of the lattice (``_window``), and
    ``cells`` lie on its first or last plane only where that is the
    lattice's first or last."""
    coords = np.unravel_index(cells, shape)
    here = values[cells]
    out = np.zeros(len(cells))
    for ax, (lo, hi) in enumerate(box):
        stride = math.prod(shape[ax + 1 :])
        at = coords[ax]
        # a cell with no neighbor on one side stands in for it: a zero
        # difference, which leaves the maximum as it is; |b - a| is
        # exactly |a - b|, so each difference has the bits of the dense one
        for nb in (cells - stride * (at > 0), cells + stride * (at < shape[ax] - 1)):
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
        low, high = _along(ax, slice(0, -1)), _along(ax, slice(1, None))
        out[low] |= mask[high]
        out[high] |= mask[low]
    return out


def _hook(parent, a, b) -> np.ndarray:
    """``parent`` with the trees of the nodes ``a[i]`` and ``b[i]`` joined
    for every ``i``.

    ``parent`` is a forest in which every node points at its root, the
    least node of its tree. Each round hooks the larger root of every edge
    that still joins two trees onto the least root it meets
    (``np.minimum.at``), then jumps pointers (``parent[parent]``) until
    every node points at its root again, which is still the least node of
    its tree. An edge once joined stays joined, and every round joins at
    least one more.
    """
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return parent
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent = up


def _label_clusters(flat, shape) -> tuple:
    """``ndimage.label`` and ``ndimage.find_objects`` of the bool mask of
    ``shape`` whose set cells have the sorted C-order flat indices
    ``flat``, face, edge and corner neighbors connected, computed from
    those cells alone, so memory scales with the set cells, not their
    bounding box or the lattice.

    Returns ``(labels, objects)``: the label of each set cell in C order,
    the clusters numbered from 1 by their first cell in C order, and each
    label's slices in the lattice.

    The set cells fall into runs, stretches of consecutive cells along the
    last axis. A run meets, in each of the ``(3^(d-1) - 1) / 2`` rows
    next to its own that follow it in C order, the runs there that overlap
    it widened by one cell at either end: a contiguous range of runs, found
    with ``np.searchsorted`` on the runs' first and last cells. The runs are
    addressed in the lattice padded by one cell at both ends of every axis,
    so a row outside the lattice holds no run rather than wrapping onto the
    next one. ``_hook`` joins the runs ``_RUN_BLOCK`` at a time, and a
    cluster's slices span the first and last cells of its runs.
    """
    dim = len(shape)
    if not flat.size:
        return flat, []
    start = np.empty(flat.size, dtype=bool)
    start[0] = True
    np.not_equal(flat[1:], flat[:-1] + 1, out=start[1:])
    start |= flat % shape[-1] == 0
    heads = np.flatnonzero(start)
    first = np.stack(np.unravel_index(flat[heads], shape), axis=1)
    last = np.stack(np.unravel_index(flat[np.append(heads[1:], flat.size) - 1], shape), axis=1)
    stride = np.cumprod([1] + [n + 2 for n in shape[:0:-1]])[::-1]
    begin, end = (first + 1) @ stride, (last + 1) @ stride
    # the padded offsets from a row to the neighbor rows after it, one per
    # row of ``steps``
    rows = [np.dot(p, stride[:-1]) for p in itertools.product((-1, 0, 1), repeat=dim - 1)]
    steps = np.array([r for r in rows if r > 0], dtype=np.intp)[:, None]
    parent = np.arange(heads.size)
    for lo in range(0, heads.size if steps.size else 0, _RUN_BLOCK):
        runs = np.arange(lo, min(lo + _RUN_BLOCK, heads.size))
        # per neighbor row and run, the ``count`` runs from ``meet`` on
        meet = np.searchsorted(end, begin[runs] + (steps - 1)).ravel()
        count = np.searchsorted(begin, end[runs] + (steps + 1), "right").ravel() - meet
        np.maximum(count, 0, out=count)
        a = np.repeat(np.tile(runs, len(steps)), count)
        b = np.arange(a.size) + np.repeat(meet - (np.cumsum(count) - count), count)
        parent = _hook(parent, a, b)
    roots = np.cumsum(parent == np.arange(heads.size))
    cluster = roots[parent] - 1
    low = np.full((roots[-1], dim), max(shape))
    np.minimum.at(low, cluster, first)
    high = np.zeros((roots[-1], dim), dtype=np.intp)
    np.maximum.at(high, cluster, last + 1)
    objects = [tuple(map(slice, lo, hi)) for lo, hi in zip(low.tolist(), high.tolist())]
    return cluster[np.cumsum(start) - 1] + 1, objects


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
    (re-labeled, so merged clusters split), and at the last level each
    cluster gives one point, provided its cells have become small: the
    candidate test itself then bounds every residual there in proportion
    to the cell size, equation by equation. Roots that stay in one cluster
    through every level merge into one answer, and the answers come
    lexsorted. Only meaningful for systems whose solution set is a finite
    point set. ``resolution`` must be at least 2 (a lone cell has no
    neighbor to take a slope from), ``levels`` at least 1 and
    ``tol_residual`` positive and finite.

    Each level tests the equations in turn (see ``_scan_clusters``): the
    first on the whole lattice, each later one only where the earlier ones
    left cells open. The root scan takes the equations by node count; a
    rescan takes them by the share of cells each passed in its parent's
    scan times its node count, so the dense pass goes to a cheap,
    selective equation. The decisions, and so the result, are bitwise
    those of testing every equation on every cell, in any order of the
    equations. A level is one pass over windows of two slabs of axis-0
    planes (``_open_cells``) and holds no array over the lattice, only the
    flat indices of its open cells; its cluster labels
    (``_label_clusters``) are arrays over the open cells too. It frees its
    buffers before it rescans its clusters.

    A level depends only on the box its parent handed it, so the levels
    run on a pool of ``min(2, CPUs)`` threads (``_SCAN_WORKERS``), one
    level per thread at a time, each in a copy of the caller's context;
    numpy releases the interpreter lock in its loops. A finished level's
    points join the answers and its rescans the work list, which is taken
    last in, first out, so the list stays short. The answers are
    lexsorted and deduplicated at the end, so the order in which levels
    finish changes nothing. Memory stays at about two levels' buffers and
    open cells, whatever the depth; an exception in a level propagates
    once the other level in flight has finished.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    # written so that a nan fails too
    if not 0 < tol_residual < math.inf:
        raise ValueError("tol_residual must be positive and finite")
    eqs = sorted((simplify(e) for e in system), key=lambda e: e.node_count)
    dim = len(box)
    if not eqs:
        # every cell stays open, so each level rescans the whole box, and
        # its leaf cells are too coarse to accept a root
        return np.zeros((0, dim))
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    diam = float(np.linalg.norm([hi - lo for lo, hi in box]))
    workers = min(_SCAN_WORKERS, len(os.sched_getaffinity(0)))
    reps: list = []
    work = [(tuple(box), resolution, levels, eqs)]
    running: dict = {}  # each level in flight, by its future: its levels left
    with ThreadPoolExecutor(workers) as pool:
        while work or running:
            while work and len(running) < workers:
                sub_box, res, levels_left, order = work.pop()
                # the level runs in a copy of this thread's context, so it
                # sees the caller's numpy error state
                args = (order, sub_box, res, tol_residual, levels_left, 5e-7 * diam, 2e-3 * diam)
                level = pool.submit(contextvars.copy_context().run, _scan_clusters, *args)
                running[level] = levels_left
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for level in done:
                points, rescans = level.result()
                reps += points
                left = running.pop(level) - 1
                work += [(sub, sub_res, left, sub_eqs) for sub, sub_res, sub_eqs in rescans]
    if not reps:
        return np.zeros((0, dim))
    pts = np.array(reps)
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    return pts[greedy_dedup(pts, 1e-6 * diam)]


def _open_cells(eqs, box, resolution, tol_residual, half_diag, chunk=_SLAB) -> tuple:
    """The open cells of one scan level, taken in one pass over slabs of
    ``chunk`` lattice points (``_slabs``), two slabs at a time.

    Returns ``(flat, passed)``: the sorted C-order flat indices of the
    open cells in the lattice, and per equation k the share of the cells
    open before its test that passed it.

    Each pair of slabs is tested on its ``_window``, whose open cells are
    the bool array ``open_``. The first equation is evaluated at every
    cell, slab by slab, in a buffer of one slab's window that keeps the
    planes it shares with the next one, so no plane is evaluated twice; its
    slope and test are taken in ``work``. Each later equation is then
    evaluated in ``work`` over the whole window, at the open cells and
    their axis neighbours only, which is all its test reads, and the cells
    that fail it are closed. Its values on the window's last two planes,
    and where they are set, are copied for the next window, whose first two
    planes they are, so no cell is evaluated twice either. Every float
    buffer is the size of a few windows and dies with the call; the open
    cells are kept as indices, pair by pair, with no array over the
    lattice.
    """
    dim, n = len(box), resolution
    axes = cell_centers(box, n)
    lanes = (n,) * (dim - 1)  # the shape of one axis-0 plane
    plane = n ** (dim - 1)
    slabs = _slabs(n, dim, chunk)
    rows = min(slabs[0].stop + 2, n)  # the most planes a slab's window holds
    dense = np.empty((1, rows) + lanes)
    work = np.empty(2 * rows * plane)  # holds the window of two slabs
    # per later equation, its values on the last two planes of the window
    # before, and where they are set
    carried = np.empty((len(eqs) - 1, 2 * plane))
    known = np.empty((len(eqs) - 1, 2) + lanes, dtype=bool)
    found = []  # the open cells' flat indices, pair by pair
    left = [0] * len(eqs)  # the cells open after each equation's test
    d_lo = d_hi = 0  # ``dense`` holds planes d_lo to d_hi - 1
    for i in range(0, len(slabs), 2):
        pair = slabs[i : i + 2]
        first, last = pair[0].start, min(pair[-1].stop, n)
        lo, hi = _window(slice(first, last), n)
        open_ = np.zeros((hi - lo,) + lanes, dtype=bool)
        flat_open = open_.reshape(-1)
        for s in pair:
            w0, w1 = _window(s, n)
            dense[:, : d_hi - w0] = dense[:, w0 - d_lo : d_hi - d_lo]
            if w1 > d_hi:
                lattice = [axes[0][d_hi:w1], *axes[1:]]
                _finite_abs(eval_lattice(eqs[:1], lattice), out=dense[:, d_hi - w0 : w1 - w0])
            d_lo, d_hi = w0, w1
            planes = slice(s.start - w0, min(s.stop, n) - w0)
            slope = _local_slope(dense[:, : w1 - w0], planes, box, n, work)[0]
            here = dense[0, planes]
            # past the window's block of ``work``, which holds the slope
            tau = np.multiply(slope, 1.5, out=work[-slope.size :].reshape(slope.shape))
            tau *= half_diag
            tau += 10.0 * tol_residual
            np.less_equal(here, tau, out=open_[s.start - lo : min(s.stop, n) - lo])
        window = work[: flat_open.size]
        for k in range(1, len(eqs)):
            need = _face_dilation(open_)
            if lo:  # the first two planes are the last two of the window before
                window[: 2 * plane] = carried[k - 1]
                need[:2] &= ~known[k - 1]
            at = np.flatnonzero(need)
            for start in range(0, at.size, _SCAN_CHUNK):
                part = at[start : start + _SCAN_CHUNK]
                block = eval_block([eqs[k]], lattice_points(axes, part + lo * plane))
                window[part] = _finite_abs(block)[0]
            # a window with one after it holds two slabs and their two
            # neighbour planes, four planes or more, so the two planes it
            # carries on are not the two trimmed above
            carried[k - 1] = window[-2 * plane :]
            known[k - 1] = need[-2:]
            cells = np.flatnonzero(flat_open)
            left[k - 1] += cells.size
            v = window[cells]
            slope = _cell_slope(window, cells, box, n, open_.shape)
            ok = v <= 1.5 * slope * half_diag + 10.0 * tol_residual
            flat_open[cells[~ok]] = False
        cells = np.flatnonzero(open_[first - lo : last - lo])
        left[-1] += cells.size
        found.append(cells + first * plane)
    passed = [a / b if b else 0.0 for a, b in zip(left, [n**dim] + left[:-1])]
    return np.concatenate(found), passed


def _scan_clusters(
    eqs, box, resolution, tol_residual, levels_left, min_half_diag, accept_half_diag, chunk=_SLAB
) -> tuple:
    """One scan level's outcome, ``(points, rescans)``, cluster by cluster
    in label order: at a leaf, one representative point per cluster and no
    rescans; otherwise no points and a ``(sub_box, child_resolution,
    child_eqs)`` per cluster to rescan.

    A cell stays open iff every equation k passes ``values[k] <= 1.5 *
    slope[k] * half_diag + 10 * tol``, and that test reads equation k at
    the cell and at its axis neighbors only. So ``_open_cells`` tests the
    equations in turn on each window of two slabs of ``chunk`` lattice
    points: the first on every cell, each later one only at the cells
    still open and their axis neighbors.
    Evaluation is elementwise, ``|b - a|`` is exactly ``|a - b|`` and
    maxima are exact, so every value and slope read is bitwise the one a
    whole-lattice scan of every equation gives, and so is the set of open
    cells, which ``_open_cells`` returns as sorted flat indices.
    ``_label_clusters`` labels those cells alone, in arrays that scale with
    them, not with their bounding box, numbered as ``ndimage.label``
    numbers the whole mask.

    At a leaf, each cluster's representative is its open cell of least
    worst residual, the first in C order on ties; the test that kept the
    cell open already bounds every residual there by the cell size. The
    worst residuals are evaluated after the level at its open cells, with
    ``eval_block``, whose values at a point are bitwise those the level's
    own evaluation took there.
    ``child_eqs`` is ``eqs`` stably sorted by the share of cells each
    equation passed here times its node count.

    A level reads its arguments and returns new lists, and of the
    expression layer it touches only the plan cache, which is locked, so
    ``grid_oracle`` runs two levels at once on two threads.
    """
    dim = len(box)
    half_diag = 0.5 * math.sqrt(sum(((hi - lo) / resolution) ** 2 for lo, hi in box))
    leaf = levels_left <= 1 or half_diag <= min_half_diag
    if leaf and half_diag > accept_half_diag:
        # a root cell satisfies V <= slope * half_diag for every equation,
        # while a positive minimum of some V fails once the cell is small;
        # clusters whose cells never got small are plateaus, not roots
        return [], []
    flat, passed = _open_cells(eqs, box, resolution, tol_residual, half_diag, chunk)
    labels, objects = _label_clusters(flat, (resolution,) * dim)
    if leaf:
        axes = cell_centers(box, resolution)
        worst = np.empty(flat.size)
        for start in range(0, flat.size, _SCAN_CHUNK):
            part = flat[start : start + _SCAN_CHUNK]
            block = eval_block(eqs, lattice_points(axes, part))
            worst[start : start + part.size] = _finite_abs(block).max(axis=0)
        order = np.lexsort((worst, labels))
        first = order[np.flatnonzero(np.diff(labels[order], prepend=0))]
        idx = np.unravel_index(flat[first], (resolution,) * dim)
        return list(np.stack([axes[a][idx[a]] for a in range(dim)], axis=1)), []
    child_eqs = [
        eq for _, eq in sorted(zip(passed, eqs), key=lambda t: t[0] * t[1].node_count)
    ]
    out: list = []
    for cells in objects:
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
            out.append((tuple(sub_box), child_res, child_eqs))
    return [], out


def _least_sum_assignment(cost) -> np.ndarray:
    """The column of each row in an assignment of least sum on the square
    ``cost`` matrix.

    The shortest augmenting path method with row and column potentials
    (Kuhn-Munkres in its O(n^3) form), the method behind scipy's
    ``linear_sum_assignment``: row by row, the cheapest path in reduced
    costs from the new row to a free column, Dijkstra style, then a flip of
    the assignment along it. Raises ``ValueError`` on a nan or -inf entry,
    or when infinite entries leave no finite assignment.
    """
    n = len(cost)
    if not np.all(cost > -math.inf):
        raise ValueError("cost matrix holds nan or -inf")
    # rows and columns count from 1; column 0 starts every path
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    owner = np.zeros(n + 1, dtype=int)  # the row of each column, 0 if none
    for row in range(1, n + 1):
        owner[0] = row
        gap = np.full(n + 1, math.inf)  # least reduced cost into each column
        via = np.zeros(n + 1, dtype=int)  # the column before it on that path
        done = np.zeros(n + 1, dtype=bool)
        j = 0
        while owner[j]:
            done[j] = True
            reduced = cost[owner[j] - 1] - u[owner[j]] - v[1:]
            closer = ~done[1:] & (reduced < gap[1:])
            gap[1:][closer] = reduced[closer]
            via[1:][closer] = j
            free = np.flatnonzero(~done)
            j_next = free[np.argmin(gap[free])]
            delta = gap[j_next]
            if delta == math.inf:
                raise ValueError("cost matrix is infeasible")
            u[owner[done]] += delta
            v[done] -= delta
            gap[~done] -= delta
            j = j_next
        while j:
            owner[j] = owner[via[j]]
            j = via[j]
    cols = np.empty(n, dtype=int)
    cols[owner[1:] - 1] = np.arange(n)
    return cols


def match_point_sets(found, expected, tol: float) -> dict:
    """Optimal one-to-one matching report between two point sets.

    The assignment is one of least summed Euclidean distance
    (``_least_sum_assignment``); ``max_distance`` is its largest distance.
    ``bijective`` is True when the sets have equal size and that assignment
    pairs every point within ``tol``. A nan coordinate raises
    ``ValueError``.
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
    worst = float(cost[np.arange(len(cost)), _least_sum_assignment(cost)].max())
    report["max_distance"] = worst
    report["bijective"] = bool(worst <= tol)
    return report
