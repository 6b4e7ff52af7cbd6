"""Tests for scene parsing and the stratum chart machinery.

The geometric fixtures have known closed forms: a tilted torus whose
degenerate locus is two circles, a hyperboloid sheet pair, a sphere
carrying two different rank-one coframes, a swallowtail coframe on flat
3-space, and a one-form gradient well in the plane. Expected pivots,
minors, and determinants below were derived by hand from those formulas.
"""

import math
from dataclasses import replace
from itertools import combinations

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morin.expr import const, differentiate, eval_block, mul, parse, simplify
from morin.linalg import numeric_rank
from morin.model import (
    HINT_AUDIT_SAMPLES,
    VALIDITY_FACTOR,
    PivotSelection,
    Scene,
    SceneError,
    SupplementSelection,
    _audit_hint,
    _coframe_scale,
    _projected_margins,
    _sigma1_charts,
    bordered_minors,
    build_chain,
    build_chain_at,
    build_delta,
    corank_system,
    covector_weights,
    draw_covector,
    load_scene,
    parse_scene,
    scene_seed,
    select_pivots,
    select_supplement,
)

SCENES = "scenes"


def scene(name: str) -> Scene:
    return load_scene(f"{SCENES}/{name}.scene")


MINIMAL = """
[scene]
ambient_dim = 2
vars = x1, x2

[coframe]
n = 1
omega_1 = 2*x1, 2*x2
"""


# -- parsing ------------------------------------------------------------------


def test_minimal_scene_defaults():
    sc = parse_scene(MINIMAL)
    assert sc.ambient_dim == 2 and sc.n == 1
    assert sc.num_constraints == 0 and sc.manifold_dim == 2
    assert sc.box == ((-5.0, 5.0), (-5.0, 5.0))
    assert sc.covector is None
    assert sc.max_depth == 1
    assert sc.tol_residual == 1e-9 and sc.tol_rank == 1e-8


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(SceneError, match="unknown section"):
        parse_scene(MINIMAL + "\n[turbo]\nx = 1\n")
    with pytest.raises(SceneError, match="unknown key"):
        parse_scene(MINIMAL + "\n[solver]\nspeed = 11\n")
    with pytest.raises(SceneError, match="before any section"):
        parse_scene("ambient_dim = 2\n")
    with pytest.raises(SceneError, match="key = value"):
        parse_scene("[scene]\nambient_dim\n")


def test_parse_rejects_duplicates_and_bad_shapes():
    with pytest.raises(SceneError, match="duplicate"):
        parse_scene(MINIMAL + "\n[coframe]\nn = 1\n")
    with pytest.raises(SceneError, match="components"):
        parse_scene(MINIMAL.replace("2*x1, 2*x2", "2*x1"))
    with pytest.raises(SceneError, match="box interval"):
        parse_scene(MINIMAL + "\n[solver]\nbox = 0, 1\n")


# (id, scene text, line, key) of one malformed value each
_MALFORMED = [
    ("n", MINIMAL.replace("n = 1", "n = one"), 7, "n"),
    ("a", MINIMAL + "\n[covector]\na = x\n", 11, "a"),
    ("rng_seed", MINIMAL + "\n[covector]\nrng_seed = 1.5\n", 11, "rng_seed"),
    ("box", MINIMAL + "\n[solver]\nbox = -5:5, -5:five\n", 11, "box"),
    ("tol_residual", MINIMAL + "\n[solver]\ntol_residual = tiny\n", 11, "tol_residual"),
    ("tol_rank", MINIMAL + "\n[solver]\ntol_rank = 1e-8x\n", 11, "tol_rank"),
    ("grid", MINIMAL + "\n[solver]\ngrid = 64.0\n", 11, "grid"),
    ("max_depth", MINIMAL + "\n[solver]\nmax_depth = deep\n", 11, "max_depth"),
    ("repeated_var", MINIMAL.replace("vars = x1, x2", "vars = x1, x1"), 4, "vars"),
    ("shadowing_var", MINIMAL.replace("vars = x1, x2", "vars = x1, sin"), 4, "vars"),
    ("constraint", MINIMAL + "\n[manifold]\nconstraint = x1 +\n", 11, "constraint"),
    ("omega", MINIMAL.replace("2*x1, 2*x2", "2*x1, 2*(x2"), 8, "omega_1"),
    ("delta", MINIMAL + "\n[hints]\ndelta_2 = x1 *\n", 11, "delta_2"),
]


@pytest.mark.parametrize(
    "text, line, key", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED]
)
def test_parse_names_the_line_of_a_malformed_value(text, line, key):
    with pytest.raises(SceneError, match=f"^line {line}: bad {key}: "):
        parse_scene(text)


def test_scene_validation_bounds():
    with pytest.raises(SceneError):
        parse_scene(MINIMAL.replace("n = 1", "n = 3"))  # n > m
    with pytest.raises(SceneError):
        parse_scene(MINIMAL + "\n[solver]\nbox = 1:0, 0:1\n")
    with pytest.raises(SceneError):
        parse_scene(MINIMAL + "\n[solver]\ngrid = 4\n")
    with pytest.raises(SceneError):
        parse_scene(MINIMAL + "\n[solver]\nmax_depth = 2\n")
    with pytest.raises(SceneError):
        parse_scene(MINIMAL + "\n[covector]\na = 0\n")


@pytest.mark.parametrize("field", ["tol_residual", "tol_rank", "covector"])
def test_scene_rejects_non_finite_tolerances_and_weights(field):
    sc = parse_scene(MINIMAL)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(SceneError, match="finite"):
            replace(sc, **{field: (value,) if field == "covector" else value})
    key, section = ("a", "covector") if field == "covector" else (field, "solver")
    with pytest.raises(SceneError, match="finite"):
        parse_scene(MINIMAL + f"\n[{section}]\n{key} = nan\n")


def test_scene_rejects_a_negative_covector_seed():
    # numpy's default_rng raises on a negative seed, but only once a
    # command draws a covector, seconds into its work
    with pytest.raises(SceneError, match="seed must be nonnegative"):
        parse_scene(MINIMAL + "\n[covector]\nrng_seed = -1\n")
    with pytest.raises(SceneError, match="seed must be nonnegative"):
        replace(parse_scene(MINIMAL), rng_seed=-3)
    assert replace(parse_scene(MINIMAL), rng_seed=0).rng_seed == 0


def test_covector_weights_take_the_scene_block_only_as_the_unseeded_first_draw():
    fixed = parse_scene(MINIMAL + "\n[covector]\na = 2\nrng_seed = 5\n")
    drawn = replace(fixed, covector=None)
    assert covector_weights(fixed, None).tolist() == [2.0]
    for sc in (fixed, drawn):
        assert np.array_equal(covector_weights(sc, None, 1), draw_covector(1, 6))
        assert np.array_equal(covector_weights(sc, 3), draw_covector(1, 3))
        assert np.array_equal(covector_weights(sc, 3, 2), draw_covector(1, 5))
    assert np.array_equal(covector_weights(drawn, None), draw_covector(1, 5))
    # a seed of 0 is a seed: the scene's rng_seed stands in for None only
    assert scene_seed(fixed, None) == 5 and scene_seed(fixed, 0) == 0


def test_equation_count_bookkeeping():
    sc = scene("torus")  # N=3, c=1, n=2, m=2
    assert sc.equation_count(0) == 1
    assert sc.equation_count(1) == 2  # constraint + (m - n + 1) minors
    assert sc.equation_count(2) == 3
    assert sc.stratum_dim(1) == 1 and sc.stratum_dim(2) == 0
    sw = scene("swallowtail")  # N=3, c=0, n=3
    assert sw.equation_count(1) == 1
    assert sw.equation_count(3) == 3


def test_canonical_digest_is_stable():
    sc1 = parse_scene(MINIMAL, name="a")
    sc2 = parse_scene(MINIMAL + "\n# a trailing comment\n", name="a")
    assert sc1.digest() == sc2.digest()
    sc3 = parse_scene(MINIMAL.replace("2*x2", "3*x2"), name="a")
    assert sc3.digest() != sc1.digest()


def test_all_bundled_scenes_load():
    names = [
        "torus",
        "hyperboloid",
        "sphere_v",
        "sphere_w",
        "swallowtail",
        "quadratic_well",
    ]
    for name in names:
        sc = scene(name)
        assert sc.name == name
        assert sc.ambient_dim in (2, 3)


# -- covector handling --------------------------------------------------------


def test_draw_covector_is_reproducible_unit_length():
    v1 = draw_covector(3, seed=7)
    v2 = draw_covector(3, seed=7)
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert not np.array_equal(v1, draw_covector(3, seed=8))


def test_covector_field_folds_weights():
    sc = scene("torus")  # a = (1, 0): the field is the first coframe row
    xi = sc.covector_field(sc.covector)
    pts = np.array([[0.3, -0.1, 2.2], [1.0, 0.5, -1.5]])
    rows = sc.omega_at(pts)[:, 0, :]
    for s in range(3):
        for p in range(2):
            assert eval_block([xi[s]], pts[p])[0, 0] == pytest.approx(rows[p, s], rel=1e-12)


def test_covector_field_mixes_rows():
    sc = scene("swallowtail")
    xi = sc.covector_field((1.0, 0.5, 0.25))
    pt = (0.4, -0.7, 1.1)
    om = sc.omega_at(pt)[0]
    expect = 1.0 * om[0] + 0.5 * om[1] + 0.25 * om[2]
    got = [eval_block([c], pt)[0, 0] for c in xi]
    assert got == pytest.approx(list(expect), rel=1e-12)


# -- pivot selection ----------------------------------------------------------


def test_pivot_on_sphere_v():
    sc = scene("sphere_v")
    sel = select_pivots(sc, [(0.0, 1.0, 0.0)])[0]
    assert sel == PivotSelection(rows=(0,), cols=(0,), value=-2.0)


def test_pivot_on_torus_at_oblique_point():
    # On the outer circle at angle pi/6 the largest entry is row 1, col 0.
    x = (-3 * math.sin(math.pi / 6), 3 * math.sin(math.pi / 6), 3 * math.cos(math.pi / 6))
    sel = select_pivots(scene("torus"), [x])[0]
    assert sel.rows == (1,) and sel.cols == (0,)
    assert sel.value == pytest.approx(-math.sqrt(3.0))


def test_pivot_for_one_form_is_empty():
    sel = select_pivots(scene("quadratic_well"), [(1.0, 2.0)])[0]
    assert sel.rows == () and sel.cols == () and sel.value == 1.0


def test_pivot_prefers_largest_minor():
    sc = scene("swallowtail")
    sel = select_pivots(sc, [(0.0, 0.0, 2.0)])[0]  # third row = (4, 2, 34)
    assert sel.rows == (0, 1) or 2 in sel.rows
    mat = sc.omega_at((0.0, 0.0, 2.0))[0]
    sub = mat[np.ix_(sel.rows, sel.cols)]
    assert abs(np.linalg.det(sub)) == pytest.approx(abs(sel.value))


# -- bordered minors and depth-1 charts ---------------------------------------


def test_bordered_minor_formulas_hyperboloid():
    sc = scene("hyperboloid")
    pivot = select_pivots(sc, [(1.0, 2.0, 0.0)])[0]
    assert pivot == PivotSelection(rows=(0,), cols=(0,), value=1.0)
    minors = bordered_minors(sc, pivot)
    cols = [j for j, _ in minors]
    assert cols == [1, 2]
    x = (0.7, -1.3, 0.4)
    om = scene("hyperboloid").omega_at(x)[0]
    for j, expr in minors:
        expect = om[0, 0] * om[1, j] - om[0, j] * om[1, 0]
        assert eval_block([expr], x)[0, 0] == pytest.approx(expect, rel=1e-12)


def test_sigma1_chart_picks_regular_minor():
    sc = scene("hyperboloid")
    chart = _sigma1_charts(sc, select_pivots(sc, [(1.0, 2.0, 0.0)]), [(1.0, 2.0, 0.0)])[0]
    assert len(chart.equations) == 2
    assert chart.selected_cols == (2,)
    assert chart.audits == tuple(e for j, e in bordered_minors(sc, chart.pivot) if j == 1)
    # selected minor is x1 * (2 x1 - x2) up to sign
    e = chart.equations[-1]
    vals = [eval_block([e], p)[0, 0] for p in [(1.0, 2.0, 0.0), (2.0, 4.0, 1.0)]]
    assert vals == pytest.approx([0.0, 0.0], abs=1e-12)


def test_sigma1_chart_near_chart_boundary_uses_raw_magnitudes():
    # Near the torus pole circle both candidate minors have nearly parallel
    # gradients; only the raw magnitude identifies the transversal one.
    sc = scene("torus")
    x = (1.2614e-05, -1.2615e-05, 3.0)
    chart = _sigma1_charts(sc, select_pivots(sc, [x]), [x])[0]
    assert chart.selected_cols == (1,)


def test_one_form_chart_equations_are_components():
    sc = scene("quadratic_well")
    chart = _sigma1_charts(sc, select_pivots(sc, [(1.0, 1.0)]), [(1.0, 1.0)])[0]
    assert len(chart.equations) == 2  # both components of the one-form
    assert [eval_block([e], (0.0, 0.0))[0, 0] for e in chart.equations] == [0.0, 0.0]


def test_constant_coframe_has_empty_stratum():
    sc = parse_scene(
        """
[scene]
ambient_dim = 2
vars = x1, x2

[coframe]
n = 1
omega_1 = 1, 0
"""
    )
    chart = _sigma1_charts(sc, select_pivots(sc, [(0.3, 0.4)]), [(0.3, 0.4)])[0]
    vals = [eval_block([e], (0.1, 2.0))[0, 0] for e in chart.equations]
    assert max(abs(v) for v in vals) == 1.0  # one equation is the constant 1


# -- supplements and determinants ---------------------------------------------


def test_supplement_on_hyperboloid():
    sc = scene("hyperboloid")
    anchor = (1.0, 2.0, 0.0)
    chart = _sigma1_charts(sc, select_pivots(sc, [anchor]), [anchor])[0]
    sup = select_supplement(sc, chart.equations[:1], 2, anchor)
    assert sup is not None and sup.indices == (0,)
    assert sup.margin > 0.9


def test_supplement_margin_sees_raw_row_size():
    sc = parse_scene(
        """
[scene]
ambient_dim = 3
vars = x1, x2, x3

[manifold]
constraint = x1^2 + x2^2 + x3^2 - 1

[coframe]
n = 2
omega_1 = -(2*x2), 2*x1, 0
omega_2 = -(4*x2), 4*x1, 0
"""
    )
    # parallel rows: the doubled row has the larger raw margin and wins
    sup = select_supplement(sc, sc.constraints, 2, (0.0, 1.0, 0.0))
    assert sup is not None and sup.indices == (1,)
    assert sup.margin == pytest.approx(2.0 / math.sqrt(5.0))


def test_supplement_breaks_exact_ties_lexicographically():
    sc = parse_scene(
        """
[scene]
ambient_dim = 3
vars = x1, x2, x3

[manifold]
constraint = x1^2 + x2^2 + x3^2 - 1

[coframe]
n = 2
omega_1 = -(2*x2), 2*x1, 0
omega_2 = -(2*x2), 2*x1, 0
"""
    )
    sup = select_supplement(sc, sc.constraints, 2, (0.0, 1.0, 0.0))
    assert sup is not None and sup.indices == (0,)


def test_supplement_rejects_dependent_rows():
    sc = parse_scene(
        """
[scene]
ambient_dim = 3
vars = x1, x2, x3

[manifold]
constraint = x1^2 + x2^2 + x3^2 - 1

[coframe]
n = 2
omega_1 = 2*x1, 2*x2, 2*x3
omega_2 = 4*x1, 4*x2, 4*x3
"""
    )
    # every coframe row is parallel to the constraint normal
    sup = select_supplement(sc, sc.constraints, 2, (0.0, 0.0, 1.0))
    assert sup is None


def test_delta_requires_square_stack():
    sc = scene("hyperboloid")
    anchor = (1.0, 2.0, 0.0)
    chart = _sigma1_charts(sc, select_pivots(sc, [anchor]), [anchor])[0]
    sup = select_supplement(sc, chart.equations[:1], 2, anchor)
    build_delta(sc, chart.equations, sup)
    with pytest.raises(ValueError, match="rows"):
        build_delta(sc, chart.equations[:1], sup)


def test_delta_formula_hyperboloid():
    sc = scene("hyperboloid")
    anchor = (1.0, 2.0, 0.0)
    chart = _sigma1_charts(sc, select_pivots(sc, [anchor]), [anchor])[0]
    sup = select_supplement(sc, chart.equations[:1], 2, anchor)
    delta = build_delta(sc, chart.equations, sup)
    expect = parse(
        "2 * (x3 * (2 * x1 - x2) * (4 * x1 - x2)) + 2 * (x1^2 * x3)",
        sc.var_names,
    )
    for p in [(0.5, -1.1, 0.8), (2.0, 4.0, 1.7), (-1.0, -2.0, 0.0)]:
        got, want = eval_block([delta, expect], p)[:, 0]
        assert got == pytest.approx(want, rel=1e-12)


# -- chains -------------------------------------------------------------------


def test_full_chain_on_swallowtail():
    sc = scene("swallowtail")
    chain = build_chain(sc, anchor=(0.5, 0.0, 0.0))
    assert chain.complete and chain.depth == 3
    c3 = chain.chart(3)
    x = (0.3, -0.9, 0.7)
    got = [eval_block([e], x)[0, 0] for e in c3.equations]
    expect = [
        x[1] + 2 * x[0] * x[2] + 4 * x[2] ** 3,
        2 * x[0] + 12 * x[2] ** 2,
        24 * x[2],
    ]
    assert got == pytest.approx(expect, rel=1e-12)


def test_chain_stops_when_no_deeper_points_exist():
    sc = scene("sphere_w")
    chain = build_chain(sc, anchor=(1.0, 0.0, 0.0), max_depth=2)
    assert chain.depth == 2 or not chain.complete


def test_chain_at_point_rejects_torus_impostor():
    sc = scene("torus")
    impostor = np.array([1.2614e-05, -1.2615e-05, 3.0])  # first stratum only
    genuine = np.array([3.0, -3.0, 0.0])
    chain_i = build_chain_at(sc, impostor)
    chain_g = build_chain_at(sc, genuine)
    assert chain_i.complete and chain_g.complete
    di = eval_block([chain_i.chart(2).delta], impostor)[0, 0]
    dg = eval_block([chain_g.chart(2).delta], genuine)[0, 0]
    assert abs(di) > 1.0  # clearly nonzero: not on the deeper stratum
    assert abs(dg) < 1e-9


def test_chain_at_point_shares_cache():
    sc = scene("torus")
    first = build_chain_at(sc, (3.0, -3.0, 0.0))
    second = build_chain_at(sc, (1.0, -1.0, 0.0))
    # same selections: the same minors and delta objects, not copies
    assert first.chart(2).supplements == second.chart(2).supplements
    assert first.chart(2).delta is second.chart(2).delta
    assert first.chart(1).equations == second.chart(1).equations
    assert all(a is b for a, b in zip(first.chart(1).equations, second.chart(1).equations))
    # a replaced scene starts with an empty memo; its rebuilt delta is
    # still the first one, because equal trees are one object
    other = replace(sc, grid=32)
    assert other._memo == {} and sc._memo
    assert build_chain_at(other, (3.0, -3.0, 0.0)).chart(2).delta is first.chart(2).delta
    assert other._memo


def test_chart_validity_margin_scale_free():
    sc = scene("torus")
    chain = build_chain_at(sc, (3.0, -3.0, 0.0))
    c2 = chain.chart(2)
    on_stratum = c2.validity_margin((3.0, -3.0, 0.0))[0]
    assert on_stratum > VALIDITY_FACTOR * sc.tol_rank
    assert on_stratum <= 1.0 + 1e-12


def test_corank_system_covers_all_charts():
    sc = scene("torus")
    eqs = corank_system(sc)
    assert len(eqs) == 1 + 3  # constraint + C(3, 2) maximal minors
    for p in [(0.0, 0.0, 3.0), (3.0, -3.0, 0.0), (0.0, 0.0, 1.0)]:
        vals = [eval_block([e], p)[0, 0] for e in eqs]
        assert max(abs(v) for v in vals) < 1e-9


# -- hint audits --------------------------------------------------------------


def _hint_fixture():
    sc = scene("hyperboloid")
    anchor = (1.0, 2.0, 0.0)
    chart = _sigma1_charts(sc, select_pivots(sc, [anchor]), [anchor])[0]
    sup = select_supplement(sc, chart.equations[:1], 2, anchor)
    auto = build_delta(sc, chart.equations, sup)
    ts = np.linspace(1.0, 3.0, 30)
    samples = np.stack([ts, 2 * ts, np.sqrt(ts**2 - 1.0)], axis=1)
    return sc, auto, samples


def test_hint_audit_accepts_constant_multiple():
    sc, auto, samples = _hint_fixture()
    hint = simplify(mul(const(-3.0), auto))
    accept, note = _audit_hint(sc, hint, auto, samples)
    assert accept and "accepted" in note


def test_hint_audit_rejects_sign_flip_and_wrong_scale():
    sc, auto, samples = _hint_fixture()
    flipping = mul(parse("x3 - 1", sc.var_names), auto)
    accept, note = _audit_hint(sc, simplify(flipping), auto, samples)
    assert not accept and "sign" in note
    tiny = simplify(mul(const(1e-12), auto))
    accept, note = _audit_hint(sc, tiny, auto, samples)
    assert not accept and "magnitude" in note


def test_hint_audit_needs_enough_samples():
    sc, auto, samples = _hint_fixture()
    accept, note = _audit_hint(sc, auto, auto, samples[:3])
    assert not accept and "too few" in note
    assert HINT_AUDIT_SAMPLES >= 5


def test_chain_reports_hint_use():
    sc = scene("hyperboloid")
    hint = parse("2*(x3*(2*x1 - x2)*(4*x1 - x2)) + 2*(x1^2*x3)", sc.var_names)
    chain = build_chain(sc, anchor=(1.0, 2.0, 0.0), hints={2: hint})
    assert chain.complete
    assert chain.chart(2).hint_used
    assert any("accepted" in n for n in chain.notes)


# -- stacked margin, pivot and supplement kernels -----------------------------
#
# The references below are the per-point loops these kernels replaced. The
# one departure: a point whose coframe is not finite gets margin 0, where
# the loop's SVD raised for the whole batch.


def _reference_margins(omega_vals, q, indices, tol):
    out = np.zeros(len(omega_vals))
    for p in range(len(omega_vals)):
        w = omega_vals[p][list(indices), :].astype(float)
        if not np.all(np.isfinite(omega_vals[p])):
            continue
        scale = np.linalg.svd(omega_vals[p], compute_uv=False)[0]
        if scale <= 0 or not math.isfinite(scale):
            continue
        qp = q[p]
        if qp.shape[0] and np.all(np.isfinite(qp)):
            _, s, vt = np.linalg.svd(qp, full_matrices=False)
            keep = s > tol * (s[0] if s.size and s[0] > 0 else 1.0)
            basis = vt[keep]
            w = w - (w @ basis.T) @ basis
        sv = np.linalg.svd(w, compute_uv=False)
        out[p] = (sv[-1] if sv.size else scale) / scale
    return out


def _reference_validity(chart, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    omega_vals = chart.scene.omega_at(pts)
    N = chart.scene.ambient_dim
    margins = np.full(len(pts), np.inf)
    for p, om in enumerate(omega_vals):
        if not np.all(np.isfinite(om)):
            margins[p] = 0.0
            continue
        if chart.pivot.rows:
            sub = om[list(chart.pivot.rows), :][:, list(chart.pivot.cols)]
            smin = np.linalg.svd(sub, compute_uv=False)[-1]
            smax = np.linalg.svd(om, compute_uv=False)[0]
            margins[p] = min(margins[p], smin / smax if smax > 0 else 0.0)
    for idx, sup in enumerate(chart.supplements):
        base = chart.equations[: chart.scene.equation_count(idx)]
        flat = [differentiate(e, s) for e in base for s in range(N)]
        q = eval_block(flat, pts).T.reshape(len(pts), len(base), N)
        margins = np.minimum(
            margins, _reference_margins(omega_vals, q, sup.indices, chart.scene.tol_rank)
        )
    return margins


def _reference_pivot(sc, point):
    n, N = sc.n, sc.ambient_dim
    mat = sc.omega_at(point)[0]
    best = None
    for rows in combinations(range(n), n - 1):
        sub_rows = mat[list(rows), :]
        for cols in combinations(range(N), n - 1):
            with np.errstate(divide="ignore", invalid="ignore"):
                d = float(np.linalg.det(sub_rows[:, list(cols)]))
            if best is None or abs(d) > abs(best.value):
                best = PivotSelection(rows, cols, d)
    return best


def _reference_supplement(sc, base, depth, anchor):
    n, N = sc.n, sc.ambient_dim
    r = n - depth + 1
    anchor = np.asarray(anchor, dtype=float)
    flat = [differentiate(eq, s) for eq in base for s in range(N)]
    q = eval_block(flat, anchor).reshape(len(base), N)
    base_rank = numeric_rank(q[None], sc.tol_rank).rank[0] if q.size else 0
    omega_vals = sc.omega_at(anchor)
    best = None
    for subset in combinations(range(n), r):
        stack = np.vstack([q, omega_vals[0][list(subset), :]])
        if numeric_rank(stack[None], sc.tol_rank).rank[0] != base_rank + r:
            continue
        margin = float(_reference_margins(omega_vals, q[None], subset, sc.tol_rank)[0])
        if best is None or margin > best.margin:
            best = SupplementSelection(subset, margin)
    return best


_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e-9, 4e6]),
    st.floats(-10.0, 10.0, allow_subnormal=False),
)
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _margin_inputs(draw):
    """Coframe values (P, n, N), base gradients (P, E, N) and one row subset;
    some points carry a nan or inf in the coframe or in the gradients, and
    some gradient blocks repeat a row so the kept span varies in size."""
    P = draw(st.integers(0, 6))
    n = draw(st.integers(1, 4))
    N = draw(st.integers(n, 5))
    E = draw(st.integers(0, 4))
    omega = draw(hnp.arrays(float, (P, n, N), elements=_ENTRY))
    q = draw(hnp.arrays(float, (P, E, N), elements=_ENTRY))
    if E > 1:
        for p in range(P):
            if draw(st.booleans()):
                q[p, -1] = draw(st.sampled_from([1.0, 1e-10])) * q[p, 0]
    for p in range(P):
        where = draw(st.sampled_from(["none", "none", "coframe", "gradients"]))
        if where == "coframe":
            omega[p, draw(st.integers(0, n - 1)), draw(st.integers(0, N - 1))] = draw(_SPECIAL)
        elif where == "gradients" and E:
            q[p, draw(st.integers(0, E - 1)), draw(st.integers(0, N - 1))] = draw(_SPECIAL)
    size = draw(st.integers(1, n))
    indices = tuple(sorted(draw(st.permutations(range(n)))[:size]))
    return omega, q, indices


@given(_margin_inputs(), st.sampled_from([1e-8, 1e-2, 0.3]))
@settings(max_examples=200, deadline=None)
def test_projected_margins_are_bitwise_the_per_point_loop(inputs, tol):
    omega, q, indices = inputs
    got = _projected_margins(omega[:, list(indices), :], q, _coframe_scale(omega), tol)
    assert got.tobytes() == _reference_margins(omega, q, indices, tol).tobytes()


_TORUS_POINTS = st.lists(
    st.tuples(*[st.floats(-5.0, 5.0, allow_subnormal=False)] * 3)
    | st.sampled_from([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, -3.0, 0.0)]),
    min_size=1,
    max_size=5,
)


@given(_TORUS_POINTS)
@settings(max_examples=60, deadline=None)
def test_chart_kernels_are_bitwise_the_per_point_loops(points):
    # the torus coframe is nan on the x2 = x3 = 0 pole line
    sc = scene("torus")
    chain = build_chain_at(sc, (3.0, -3.0, 0.0))
    for chart in chain.charts:
        got = chart.validity_margin(points)
        assert got.tobytes() == _reference_validity(chart, points).tobytes()
    for p, got in zip(points, select_pivots(sc, points)):
        want = _reference_pivot(sc, p)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    for p in points:
        # on the pole the reference refuses the nan matrices; the kernel
        # returns None there, as where no subset qualifies
        try:
            want = _reference_supplement(sc, sc.constraints, 2, p)
        except ValueError as err:
            assert str(err) == "matrix contains nan or inf"
            want = None
        assert select_supplement(sc, sc.constraints, 2, p) == want


@given(st.lists(st.tuples(*[st.floats(-2.0, 2.0, allow_subnormal=False)] * 3), min_size=1, max_size=4))
@example([(0.0, 0.0, 5.4650830973618086e-160)])  # a singular minor; det warned
@settings(max_examples=40, deadline=None)
def test_pivot_and_supplement_are_bitwise_the_loops_on_swallowtail(points):
    sc = scene("swallowtail")
    chain = build_chain_at(sc, (0.0, 0.0, 0.0))
    for p, got in zip(points, select_pivots(sc, points)):
        want = _reference_pivot(sc, p)
        assert (got.rows, got.cols, got.value) == (want.rows, want.cols, want.value)
        for depth in (2, 3):
            base = chain.chart(depth - 1).equations[: sc.equation_count(depth - 2)]
            assert select_supplement(sc, base, depth, p) == _reference_supplement(sc, base, depth, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chain_at_the_torus_pole_stops_early():
    # at (0, 0, 0) the coframe is nan, so is the pivot value, and no
    # supplement can be measured: the chain stops after depth 1
    sc = scene("torus")
    assert select_supplement(sc, sc.constraints, 2, (0.0, 0.0, 0.0)) is None
    chain = build_chain_at(sc, (0.0, 0.0, 0.0))
    assert chain.depth == 1 and not chain.complete
    assert chain.notes == ("depth 2: no coframe supplement qualifies here",)


def test_margins_on_the_torus_pole_are_zero_not_an_error():
    # x2 = x3 = 0 makes the coframe nan; the SVD used to fail the whole batch
    sc = scene("torus")
    chain = build_chain_at(sc, (3.0, -3.0, 0.0))
    pts = np.array([[0.0, 0.0, 0.0], [3.0, -3.0, 0.0]])
    for chart in chain.charts:
        margins = chart.validity_margin(pts)
        assert margins[0] == 0.0
        assert margins[1] == chart.validity_margin(pts[1])[0] > 0.0
