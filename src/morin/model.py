"""Scenes and the chart systems that cut out coframe degeneracy strata.

A scene is an implicit manifold ``M = {G = 0}`` in R^N carrying an ordered
family of n covector fields (rows of a symbolic matrix ``omega``; a vector
frame is identified with its metric-dual coframe, so both inputs share one
representation). The rank of ``omega`` restricted to points of M drops by
one on a nested family of strata, and each stratum is presented to the
numeric layer as an explicit list of ambient equations:

* depth 1: the constraints plus a selected subset of bordered minors built
  around a pivot submatrix that stays invertible near the anchor;
* depth k >= 2: the previous system plus one new scalar equation, the
  determinant of the previous system's gradients stacked with a supplement
  of coframe rows.

Chart data is only trustworthy where the pivot minor and the supplement
stay nondegenerate; every chart therefore exposes a dimensionless validity
margin, and chain construction records anchors and the sample clouds used
for hint audits so callers can re-anchor when a margin collapses.

A scene used down to depth k needs k+1 continuous derivatives; this is
documented, not enforced.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    Expr,
    System,
    differentiate,
    eval_block,
    format_expr,
    parse,
    simplify,
    symbolic_determinant,
)
from .linalg import numeric_rank, numeric_ranks

VALIDITY_FACTOR = 10.0  # margins below VALIDITY_FACTOR * tol_rank are unusable

HINT_AUDIT_SAMPLES = 50
HINT_RATIO_BOUND = 1e8

_SECTIONS = ("scene", "manifold", "coframe", "covector", "solver", "hints")


class SceneError(ValueError):
    """Malformed scene text or inconsistent scene data."""


@dataclass(frozen=True, eq=False)
class Scene:
    """Implicit manifold with a coframe, plus solver configuration.

    ``omega[i][s]`` is the coefficient of dx_s in the i-th covector field.
    ``covector`` stores fixed combination weights for the n fields, or None
    when the weights should be drawn from ``rng_seed``.
    """

    name: str
    ambient_dim: int
    var_names: tuple
    constraints: tuple
    omega: tuple
    frame_mode: str = "coframe"
    box: tuple = ()
    covector: tuple | None = None
    rng_seed: int = 0
    tol_residual: float = 1e-9
    tol_rank: float = 1e-8
    grid: int = 64
    max_depth: int | None = None
    hints: Mapping = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        N = self.ambient_dim
        if N < 1 or N > 16:
            raise SceneError(f"ambient dimension {N} out of range 1..16")
        if len(self.var_names) != N:
            raise SceneError("variable count does not match ambient dimension")
        n = len(self.omega)
        if n < 1:
            raise SceneError("coframe must have at least one covector")
        if any(len(row) != N for row in self.omega):
            raise SceneError("every coframe row needs one component per variable")
        if self.frame_mode not in ("frame", "coframe"):
            raise SceneError(f"unknown frame mode {self.frame_mode!r}")
        if n > self.manifold_dim:
            raise SceneError(
                f"coframe size {n} exceeds manifold dimension {self.manifold_dim}"
            )
        box = self.box if self.box else tuple((-5.0, 5.0) for _ in range(N))
        if len(box) != N:
            raise SceneError("box must give one interval per variable")
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise SceneError(f"bad box interval {lo}:{hi}")
        object.__setattr__(self, "box", tuple((float(l), float(h)) for l, h in box))
        if self.covector is not None:
            if len(self.covector) != n:
                raise SceneError("covector needs one weight per coframe row")
            if not any(v != 0.0 for v in self.covector):
                raise SceneError("covector must be nonzero")
        if self.tol_residual <= 0 or self.tol_rank <= 0:
            raise SceneError("tolerances must be positive")
        if self.grid < 8:
            raise SceneError("grid resolution must be at least 8")
        depth = self.max_depth if self.max_depth is not None else n
        if not (1 <= depth <= n):
            raise SceneError(f"max depth {depth} out of range 1..{n}")
        object.__setattr__(self, "max_depth", depth)
        for k in self.hints:
            if not (2 <= k <= n):
                raise SceneError(f"hint depth {k} out of range 2..{n}")

    # -- basic derived quantities --------------------------------------

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def manifold_dim(self) -> int:
        return self.ambient_dim - len(self.constraints)

    def stratum_dim(self, depth: int) -> int:
        return self.n - depth

    def equation_count(self, depth: int) -> int:
        """Ambient equations cutting the depth-k stratum (its codimension)."""
        if depth == 0:
            return self.num_constraints
        c, m, n = self.num_constraints, self.manifold_dim, self.n
        return c + (m - n + 1) + (depth - 1)

    def box_diameter(self) -> float:
        return float(np.linalg.norm([hi - lo for lo, hi in self.box]))

    def solve_options(self, grid: int, **fields):
        """Solver settings over this scene's box and tolerances; ``fields``
        sets the remaining ``SolveOptions`` fields."""
        from .solver import SolveOptions

        return SolveOptions(
            box=self.box,
            grid=grid,
            tol_residual=self.tol_residual,
            tol_rank=self.tol_rank,
            **fields,
        )

    # -- evaluation helpers --------------------------------------------

    def omega_at(self, points) -> np.ndarray:
        """Coframe component matrix at each point, shape (P, n, N)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        flat = [comp for row in self.omega for comp in row]
        vals = eval_block(flat, pts)
        return vals.T.reshape(len(pts), self.n, self.ambient_dim)

    def covector_field(self, weights) -> list:
        """Components of the weighted covector combination, as expressions.

        Weights are folded in as exact constants so repeated runs with the
        same weights build identical trees.
        """
        from .expr import Const, add, mul

        w = [Const(float(c)) for c in weights]
        comps = []
        for s in range(self.ambient_dim):
            acc = Const(0)
            for i in range(self.n):
                acc = add(acc, mul(w[i], self.omega[i][s]))
            comps.append(simplify(acc))
        return comps

    # -- identity --------------------------------------------------------

    def canonical_text(self) -> str:
        lines = [f"scene {self.ambient_dim} " + ",".join(self.var_names)]
        for g in self.constraints:
            lines.append("constraint " + format_expr(g, self.var_names))
        lines.append(f"coframe {self.n} {self.frame_mode}")
        for row in self.omega:
            lines.append(
                "omega " + " | ".join(format_expr(e, self.var_names) for e in row)
            )
        if self.covector is None:
            lines.append(f"covector - seed {self.rng_seed}")
        else:
            vals = ",".join(repr(float(v)) for v in self.covector)
            lines.append(f"covector {vals} seed {self.rng_seed}")
        lines.append("box " + " ".join(f"{lo!r}:{hi!r}" for lo, hi in self.box))
        lines.append(
            f"tol_residual {self.tol_residual!r} tol_rank {self.tol_rank!r} "
            f"grid {self.grid} max_depth {self.max_depth}"
        )
        for k in sorted(self.hints):
            lines.append(f"hint {k} " + format_expr(self.hints[k], self.var_names))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def memo(self, key, build):
        """``build()``, computed on first use and kept on this scene under
        ``key``.

        For pieces that depend on the scene alone: bordered minors, depth
        determinants, the coframe scale. Charts built at the same
        selections then share one expression object, so derivative and
        evaluation-plan caches hit by identity. ``dataclasses.replace``
        starts a new scene with an empty memo.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value


# ---------------------------------------------------------------------------
# Scene text format.
#
#   [scene]     ambient_dim = 3
#               vars = x1, x2, x3
#   [manifold]  constraint = <expr>          (repeatable, may be absent)
#   [coframe]   n = 2
#               mode = frame | coframe
#               omega_1 = <expr>, <expr>, <expr>
#   [covector]  a = 1, 0                     (optional)
#               rng_seed = 0
#   [solver]    box = -5:5, -5:5, -5:5
#               tol_residual = 1e-9
#               tol_rank = 1e-8
#               grid = 64
#               max_depth = 2
#   [hints]     delta_2 = <expr>
#
# '#' starts a comment. Unknown sections or keys are rejected.

def parse_scene(text: str, name: str = "scene") -> Scene:
    sections: dict = {s: [] for s in _SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise SceneError(f"line {lineno}: unknown section [{current}]")
            continue
        if current is None:
            raise SceneError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise SceneError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current].append((lineno, key.lower(), value))

    def single(sec: str, key: str, default=None, required=False):
        found = [(ln, v) for ln, k, v in sections[sec] if k == key]
        if len(found) > 1:
            raise SceneError(f"line {found[1][0]}: duplicate key {key!r}")
        if not found:
            if required:
                raise SceneError(f"missing {key!r} in section [{sec}]")
            return default
        return found[0][1]

    def check_known(sec: str, known: set):
        for ln, k, _ in sections[sec]:
            if k not in known:
                raise SceneError(f"line {ln}: unknown key {k!r} in [{sec}]")

    check_known("scene", {"ambient_dim", "vars"})
    check_known("manifold", {"constraint"})
    check_known("covector", {"a", "rng_seed"})
    check_known("solver", {"box", "tol_residual", "tol_rank", "grid", "max_depth"})

    try:
        ambient_dim = int(single("scene", "ambient_dim", required=True))
    except ValueError as e:
        raise SceneError(f"bad ambient_dim: {e}") from None
    var_names = tuple(
        v.strip() for v in single("scene", "vars", required=True).split(",")
    )

    constraints = tuple(
        parse(v, var_names) for ln, k, v in sections["manifold"] if k == "constraint"
    )

    n = int(single("coframe", "n", required=True))
    mode = single("coframe", "mode", default="coframe").lower()
    omega_keys = {f"omega_{i + 1}" for i in range(n)}
    check_known("coframe", {"n", "mode"} | omega_keys)
    omega = []
    for i in range(n):
        row_text = single("coframe", f"omega_{i + 1}", required=True)
        comps = [parse(part.strip(), var_names) for part in row_text.split(",")]
        if len(comps) != ambient_dim:
            raise SceneError(
                f"omega_{i + 1} has {len(comps)} components, expected {ambient_dim}"
            )
        omega.append(tuple(comps))

    a_text = single("covector", "a")
    covector = None
    if a_text is not None:
        covector = tuple(float(v) for v in a_text.split(","))
    rng_seed = int(single("covector", "rng_seed", default="0"))

    box_text = single("solver", "box")
    box: tuple = ()
    if box_text is not None:
        pairs = []
        for part in box_text.split(","):
            lo, _, hi = part.partition(":")
            if not _:
                raise SceneError(f"bad box interval {part.strip()!r}")
            pairs.append((float(lo), float(hi)))
        box = tuple(pairs)

    hints = {}
    for ln, k, v in sections["hints"]:
        if not k.startswith("delta_"):
            raise SceneError(f"line {ln}: unknown key {k!r} in [hints]")
        try:
            depth = int(k.split("_", 1)[1])
        except ValueError:
            raise SceneError(f"line {ln}: bad hint key {k!r}") from None
        hints[depth] = parse(v, var_names)

    return Scene(
        name=name,
        ambient_dim=ambient_dim,
        var_names=var_names,
        constraints=constraints,
        omega=tuple(omega),
        frame_mode=mode,
        box=box,
        covector=covector,
        rng_seed=rng_seed,
        tol_residual=float(single("solver", "tol_residual", default="1e-9")),
        tol_rank=float(single("solver", "tol_rank", default="1e-8")),
        grid=int(single("solver", "grid", default="64")),
        max_depth=(
            int(single("solver", "max_depth"))
            if single("solver", "max_depth") is not None
            else None
        ),
        hints=hints,
    )


def load_scene(path) -> Scene:
    from pathlib import Path

    p = Path(path)
    return parse_scene(p.read_text(), name=p.stem)


def draw_covector(n: int, seed: int) -> np.ndarray:
    """Unit-length weight vector drawn reproducibly from ``seed``."""
    rng = np.random.default_rng(seed)
    while True:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            return v / norm


# ---------------------------------------------------------------------------
# Pivot selection and the depth-1 chart.

@dataclass(frozen=True)
class PivotSelection:
    """An (n-1)x(n-1) coframe submatrix kept invertible on the chart domain.

    ``rows`` and ``cols`` are ascending index tuples; ``value`` is the
    submatrix determinant at the anchor. For n = 1 the pivot is empty and
    its determinant is one by convention.
    """

    rows: tuple
    cols: tuple
    value: float


def select_pivot(scene: Scene, point) -> PivotSelection:
    """Largest-magnitude (n-1)-minor of the coframe matrix at ``point``.

    Ties are broken lexicographically on (rows, cols), first by iterating
    row subsets, then column subsets, and keeping strict improvements only.
    All minors are taken in one stacked determinant call.
    """
    n, N = scene.n, scene.ambient_dim
    k = n - 1
    if k == 0:
        return PivotSelection((), (), 1.0)
    mat = scene.omega_at(point)[0]
    subsets = list(product(combinations(range(n), k), combinations(range(N), k)))
    rows = np.array([r for r, _ in subsets])
    cols = np.array([c for _, c in subsets])
    # det sums the logs of the LU pivots, so a singular minor warns on its
    # way to an exact 0, and a coframe that is not finite here on its way
    # to a nan that loses every comparison below
    with np.errstate(divide="ignore", invalid="ignore"):
        dets = np.linalg.det(mat[rows[:, :, None], cols[:, None, :]]).tolist()
    best = None
    for (r, c), d in zip(subsets, dets):
        if best is None or abs(d) > abs(best.value):
            best = PivotSelection(r, c, d)
    return best


def bordered_minors(scene: Scene, pivot: PivotSelection) -> tuple:
    """All n x n minors of the coframe matrix that contain the pivot.

    Returns (column, expression) pairs in ascending column order; the
    minor rows/columns are sorted ascending, which fixes every sign.
    Built once per scene and pivot.
    """
    n, N = scene.n, scene.ambient_dim

    def build() -> tuple:
        (extra_row,) = set(range(n)) - set(pivot.rows)
        rows = sorted(pivot.rows + (extra_row,))
        out = []
        for j in range(N):
            if j in pivot.cols:
                continue
            cols = sorted(pivot.cols + (j,))
            sub = [[scene.omega[r][c] for c in cols] for r in rows]
            out.append((j, symbolic_determinant(sub)))
        return tuple(out)

    return scene.memo(("bordered_minors", pivot.rows, pivot.cols), build)


@dataclass(eq=False)
class StratumChart:
    """Ambient equation system for one stratum depth.

    ``equations`` always lists the constraints first, then the selected
    bordered minors, then one determinant per extra depth. ``audits`` are
    the unselected bordered minors; genuine stratum points satisfy them
    too, so they filter numerical impostors.
    """

    scene: Scene
    depth: int
    equations: tuple
    new_equations: tuple
    audits: tuple
    pivot: PivotSelection
    supplements: tuple  # SupplementSelection per depth 2..depth
    anchor: np.ndarray
    selected_cols: tuple = ()
    audit_cols: tuple = ()
    samples: np.ndarray | None = None
    hint_used: bool = False
    hint_note: str | None = None

    @property
    def delta(self) -> Expr | None:
        return self.new_equations[0] if self.depth >= 2 else None

    def residuals(self, points) -> np.ndarray:
        return System(self.equations, self.scene.ambient_dim).values(points)

    def validity_margin(self, points) -> np.ndarray:
        """Dimensionless chart-quality margin at each point.

        The minimum of the pivot margin (smallest singular value of the
        pivot submatrix over the largest of the full coframe matrix) and
        each supplement margin (smallest singular value of the selected
        coframe rows, normalized and projected off the base conormal).
        Margins below ``VALIDITY_FACTOR * tol_rank`` mark points where the
        chart's description of the stratum cannot be trusted.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        omega_vals = self.scene.omega_at(pts)
        scale = _coframe_scale(omega_vals)
        live = scale > 0
        margins = np.where(live, np.inf, 0.0)
        if self.pivot.rows:
            rows, cols = list(self.pivot.rows), list(self.pivot.cols)
            sub = omega_vals[live][:, rows, :][:, :, cols]
            pm = np.zeros(len(pts))
            pm[live] = np.linalg.svd(sub, compute_uv=False)[:, -1] / scale[live]
            margins = np.minimum(margins, pm)
        for idx, sup in enumerate(self.supplements):
            # the supplement of depth idx + 2 is measured over the
            # conormal of depth idx
            base = self.equations[: self.scene.equation_count(idx)]
            margins = np.minimum(
                margins,
                _projected_margins(
                    omega_vals[:, list(sup.indices), :],
                    System(base, self.scene.ambient_dim).jacobian(pts),
                    scale,
                    self.scene.tol_rank,
                ),
            )
        return margins


def _coframe_scale(omega_vals: np.ndarray) -> np.ndarray:
    """Largest singular value of each coframe matrix of the stack, one
    stacked SVD; 0 where the matrix is not finite (LAPACK would fail the
    whole stack on it) and where the largest value is not finite."""
    finite = np.isfinite(omega_vals).all(axis=(1, 2))
    scale = np.zeros(len(omega_vals))
    scale[finite] = np.linalg.svd(omega_vals[finite], compute_uv=False)[:, 0]
    scale[~np.isfinite(scale)] = 0.0
    return scale


def build_sigma1_chart(scene: Scene, pivot: PivotSelection, anchor) -> StratumChart:
    """Depth-1 chart: constraints plus a greedy transversal minor subset.

    Candidates are the bordered minors. Each is scored by the norm of its
    raw gradient at the anchor after projecting off the span of the
    constraint gradients and previously chosen minors; the top
    ``m - n + 1`` scores win. Raw (unnormalized) gradients matter: near a
    chart boundary all candidate gradients become parallel and only their
    magnitudes tell a regular cut from a degenerate one. The rest become
    audit equations.
    """
    anchor = np.asarray(anchor, dtype=float)
    N = scene.ambient_dim
    need = scene.manifold_dim - scene.n + 1
    minors = bordered_minors(scene, pivot)
    if need > len(minors):
        raise SceneError("not enough bordered minors to cut the first stratum")

    candidates = list(scene.constraints) + [e for _, e in minors]
    grads = System(candidates, N).jacobian(anchor)[0]
    minor_grads = grads[len(scene.constraints):]

    basis: list = []

    def extend_basis(g: np.ndarray):
        r = g.copy()
        for b in basis:
            r = r - (r @ b) * b
        norm = np.linalg.norm(r)
        if norm > 0 and np.all(np.isfinite(r)):
            basis.append(r / norm)

    def perp_norm(g: np.ndarray) -> float:
        if not np.all(np.isfinite(g)):
            return 0.0
        r = g.copy()
        for b in basis:
            r = r - (r @ b) * b
        return float(np.linalg.norm(r))

    for g in grads[: len(scene.constraints)]:
        extend_basis(g)
    chosen: list = []
    remaining = list(range(len(minors)))
    for _ in range(need):
        best_idx, best_score = None, -1.0
        for idx in remaining:
            score = perp_norm(minor_grads[idx])
            if score > best_score:
                best_idx, best_score = idx, score
        chosen.append(best_idx)
        remaining.remove(best_idx)
        extend_basis(minor_grads[best_idx])
    chosen.sort()
    equations = tuple(scene.constraints) + tuple(minors[i][1] for i in chosen)
    audits = tuple(minors[i][1] for i in remaining)
    return StratumChart(
        scene=scene,
        depth=1,
        equations=equations,
        new_equations=tuple(minors[i][1] for i in chosen),
        audits=audits,
        pivot=pivot,
        supplements=(),
        anchor=anchor,
        selected_cols=tuple(minors[i][0] for i in chosen),
        audit_cols=tuple(minors[i][0] for i in remaining),
    )


# ---------------------------------------------------------------------------
# Supplements and the depth-k determinant.

@dataclass(frozen=True)
class SupplementSelection:
    """Coframe rows whose classes stay independent over the base conormal.

    ``margin`` is the smallest singular value of the selected raw rows
    after projection off the base conormal, relative to the coframe's
    largest singular value; it lies in [0, 1].
    """

    indices: tuple
    margin: float


def _projected_margins(w, q, scale, tol_rank: float) -> np.ndarray:
    """Supplement margins: the smallest singular value of each block of
    selected raw coframe rows ``w[p]`` after projection off the row span of
    the base gradients ``q[p]``, over the coframe scale ``scale[p]``.

    Raw rows matter: a selected row shrinking to zero makes the depth
    determinant vanish spuriously, and normalization would hide that. The
    span keeps the singular directions above ``tol_rank`` times the
    largest; a non-finite ``q[p]`` skips the projection, and ``scale[p]``
    of 0 (a coframe that is not finite) gives margin 0. Each step is one
    stacked LAPACK call or stacked product, which gives each block the
    bits of a call on it alone.
    """
    out = np.zeros(len(w))
    live = np.flatnonzero(scale > 0)
    if not len(live):
        return out
    w, q = w[live], q[live]
    if q.shape[1]:
        proj = np.flatnonzero(np.isfinite(q).all(axis=(1, 2)))
        _, s, vt = np.linalg.svd(q[proj], full_matrices=False)
        top = s[:, 0]
        cut = tol_rank * np.where(top > 0, top, 1.0)
        # singular values descend, so the kept ones are a prefix of each row
        kept = np.count_nonzero(s > cut[:, None], axis=1)
        for size in np.unique(kept[kept > 0]):
            group = kept == size
            basis = vt[group, :size, :]
            rows = proj[group]
            w[rows] -= (w[rows] @ basis.transpose(0, 2, 1)) @ basis
    sv = np.linalg.svd(w, compute_uv=False)
    out[live] = (sv[:, -1] if sv.shape[1] else scale[live]) / scale[live]
    return out


def select_supplement(
    scene: Scene, base_equations, depth: int, anchor
) -> SupplementSelection | None:
    """Pick ``n - depth + 1`` coframe rows independent over the base conormal.

    Subsets failing the rank test (stacked rank must exceed the base rank
    by exactly the subset size) are excluded; among the rest the largest
    margin wins, ties going to the lexicographically first subset. Returns
    None when no subset qualifies at this anchor, or when the coframe or
    the base gradients are not finite there. The subsets are ranked and
    measured as one stack each.
    """
    n = scene.n
    r = n - depth + 1
    anchor = np.asarray(anchor, dtype=float).reshape(1, -1)
    q = System(base_equations, scene.ambient_dim).jacobian(anchor)
    omega_vals = scene.omega_at(anchor)
    if not (np.isfinite(q).all() and np.isfinite(omega_vals).all()):
        return None
    base_rank = numeric_rank(q[0], scene.tol_rank).rank if q.size else 0
    subsets = list(combinations(range(n), r))
    rows = omega_vals[0][np.array(subsets)]
    stacks = np.concatenate([np.repeat(q, len(subsets), axis=0), rows], axis=1)
    ok = [
        i
        for i, rep in enumerate(numeric_ranks(stacks, scene.tol_rank))
        if rep.rank == base_rank + r
    ]
    margins = _projected_margins(
        rows[ok],
        np.repeat(q, len(ok), axis=0),
        np.repeat(_coframe_scale(omega_vals), len(ok)),
        scene.tol_rank,
    )
    best = None
    for i, margin in zip(ok, margins.tolist()):
        if best is None or margin > best.margin:
            best = SupplementSelection(subsets[i], margin)
    return best


def build_delta(scene: Scene, prev_equations, supplement: SupplementSelection) -> Expr:
    """Determinant equation appended at depth k.

    Rows: gradients of all previous chart equations, then the supplement
    coframe rows, in that order. The row count must equal the ambient
    dimension; anything else is a chain-construction bug.
    """
    N = scene.ambient_dim
    rows = [
        [differentiate(eq, s) for s in range(N)] for eq in prev_equations
    ]
    for i in supplement.indices:
        rows.append(list(scene.omega[i]))
    if len(rows) != N:
        raise SceneError(
            f"delta matrix has {len(rows)} rows for ambient dimension {N}"
        )
    return symbolic_determinant(rows)


# ---------------------------------------------------------------------------
# Chain construction.

@dataclass(eq=False)
class ChartChain:
    """Charts for depths 1..K around one anchor, deepest first built last."""

    scene: Scene
    charts: tuple
    complete: bool
    notes: tuple

    def chart(self, depth: int) -> StratumChart:
        return self.charts[depth - 1]

    @property
    def depth(self) -> int:
        return len(self.charts)


def _audit_hint(scene: Scene, hint: Expr, auto: Expr, samples) -> tuple:
    """Value-proportionality audit; returns (accept, note)."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    pts = pts[:HINT_AUDIT_SAMPLES]
    va, vh = eval_block([auto, hint], pts)
    scale = np.max(np.abs(va)) if va.size else 0.0
    usable = np.abs(va) > max(1e-6 * scale, 1e-300)
    if usable.sum() < 5:
        return False, "hint audit: too few usable stratum samples"
    ratios = vh[usable] / va[usable]
    if not np.all(np.isfinite(ratios)):
        return False, "hint audit: ratio not finite on stratum samples"
    mags = np.abs(ratios)
    if mags.min() < 1.0 / HINT_RATIO_BOUND or mags.max() > HINT_RATIO_BOUND:
        return False, "hint audit: ratio magnitude out of bounds"
    if np.any(ratios > 0) and np.any(ratios < 0):
        return False, "hint audit: ratio changes sign across stratum samples"
    return True, (
        f"hint accepted: ratio magnitude in "
        f"[{mags.min():.3e}, {mags.max():.3e}] over {int(usable.sum())} samples"
    )


def build_chain(
    scene: Scene,
    anchor,
    *,
    max_depth: int | None = None,
    sample_grid: int = 12,
    hints: Mapping | None = None,
) -> ChartChain:
    """Build charts depth by depth around ``anchor``.

    The anchor should lie on (or very near) the first stratum. Deeper
    anchors are chosen automatically: the previous system is sampled over
    the scene box, samples are filtered by chart validity, and the sample
    with the largest margin anchors the next supplement selection. User
    hint equations replace the automatic determinant only after the
    value-proportionality audit over those samples passes.

    The chain stops early (``complete`` False, reason in ``notes``) when a
    stratum yields no usable samples or no supplement qualifies.
    """
    from .solver import solve_points

    anchor = np.asarray(anchor, dtype=float)
    if hints is None:
        hints = scene.hints
    depth_cap = scene.max_depth if max_depth is None else max_depth
    depth_cap = min(depth_cap, scene.n)

    pivot = select_pivot(scene, anchor)
    chart = build_sigma1_chart(scene, pivot, anchor)
    charts = [chart]
    notes: list = []

    for k in range(2, depth_cap + 1):
        prev = charts[-1]
        opts = scene.solve_options(min(scene.grid, sample_grid), dedup_radius=1e-3)
        outcome = solve_points(prev.equations, opts, audits=prev.audits)
        if not outcome.points:
            notes.append(f"depth {k}: no samples found on the previous stratum")
            return ChartChain(scene, tuple(charts), False, tuple(notes))
        samples = np.array([p.x for p in outcome.points])
        margins = prev.validity_margin(samples)
        ok = margins >= VALIDITY_FACTOR * scene.tol_rank
        if not np.any(ok):
            notes.append(f"depth {k}: every stratum sample fails chart validity")
            return ChartChain(scene, tuple(charts), False, tuple(notes))
        samples, margins = samples[ok], margins[ok]
        order = np.argsort(-margins, kind="stable")

        supplement = None
        anchor_k = None
        base = prev.equations[: scene.equation_count(k - 2)]
        for idx in order[:8]:
            cand = select_supplement(scene, base, k, samples[idx])
            if cand is not None:
                supplement, anchor_k = cand, samples[idx]
                break
        if supplement is None:
            notes.append(f"depth {k}: no coframe supplement qualifies at any anchor")
            return ChartChain(scene, tuple(charts), False, tuple(notes))

        if any(c.hint_used for c in charts):
            delta = build_delta(scene, prev.equations, supplement)
        else:
            delta = _chart_delta(scene, prev, supplement)
        hint_used, hint_note = False, None
        if k in hints:
            accept, hint_note = _audit_hint(scene, hints[k], delta, samples)
            if accept:
                delta = simplify(hints[k])
                hint_used = True
            notes.append(f"depth {k}: {hint_note}")

        charts.append(
            StratumChart(
                scene=scene,
                depth=k,
                equations=prev.equations + (delta,),
                new_equations=(delta,),
                audits=prev.audits,
                pivot=pivot,
                supplements=prev.supplements + (supplement,),
                anchor=np.asarray(anchor_k, dtype=float),
                selected_cols=prev.selected_cols,
                audit_cols=prev.audit_cols,
                samples=samples,
                hint_used=hint_used,
                hint_note=hint_note,
            )
        )
    return ChartChain(scene, tuple(charts), True, tuple(notes))


def build_chain_at(
    scene: Scene,
    point,
    *,
    max_depth: int | None = None,
) -> ChartChain:
    """Chain with every selection made at one point, without sampling.

    Used to re-verify a candidate under the chart best adapted to it: the
    pivot and every supplement are chosen at ``point`` itself, so the
    resulting chain has the largest margins available there. No stratum
    sampling happens and hints are ignored. Charts at the same selections
    share their minors and determinants through the scene memo.
    """
    point = np.asarray(point, dtype=float)
    depth_cap = scene.max_depth if max_depth is None else max_depth
    depth_cap = min(depth_cap, scene.n)

    pivot = select_pivot(scene, point)
    chart = build_sigma1_chart(scene, pivot, point)
    charts = [chart]
    notes: list = []
    for k in range(2, depth_cap + 1):
        prev = charts[-1]
        base = prev.equations[: scene.equation_count(k - 2)]
        supplement = select_supplement(scene, base, k, point)
        if supplement is None:
            notes.append(f"depth {k}: no coframe supplement qualifies here")
            return ChartChain(scene, tuple(charts), False, tuple(notes))
        delta = _chart_delta(scene, prev, supplement)
        charts.append(
            StratumChart(
                scene=scene,
                depth=k,
                equations=prev.equations + (delta,),
                new_equations=(delta,),
                audits=prev.audits,
                pivot=pivot,
                supplements=prev.supplements + (supplement,),
                anchor=point,
                selected_cols=prev.selected_cols,
                audit_cols=prev.audit_cols,
            )
        )
    return ChartChain(scene, tuple(charts), True, tuple(notes))


def _chart_delta(scene: Scene, prev: StratumChart, supplement: SupplementSelection) -> Expr:
    """``build_delta`` over a hint-free chart ``prev``, built once per scene:
    the pivot, the selected minors and the supplements fix the equations."""
    key = (
        "delta",
        prev.depth + 1,
        prev.pivot.rows,
        prev.pivot.cols,
        prev.selected_cols,
        tuple(s.indices for s in prev.supplements),
        supplement.indices,
    )
    return scene.memo(key, lambda: build_delta(scene, prev.equations, supplement))


# ---------------------------------------------------------------------------
# Pivot-free description of the first stratum.

def corank_system(scene: Scene) -> list:
    """Constraints plus every maximal minor of the coframe matrix.

    Cuts out exactly the locus where the coframe rank drops (all n x n
    minors vanish), with no pivot choice. Used for discovering the first
    stratum and for tracing it across chart boundaries.
    """
    n, N = scene.n, scene.ambient_dim

    def build() -> tuple:
        eqs = list(scene.constraints)
        for cols in combinations(range(N), n):
            sub = [[scene.omega[r][c] for c in cols] for r in range(n)]
            eqs.append(symbolic_determinant(sub))
        return tuple(eqs)

    return list(scene.memo(("corank_system",), build))
