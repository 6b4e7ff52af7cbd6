"""End-to-end acceptance gate: one test per shipped guarantee.

Each test states a user-facing promise of the package: golden stratum
points on the two reference surfaces, the mod-2 Euler congruence, the
negative control that must fail, covector-zero properties over twenty
seeded draws, solver/oracle agreement, derivative hygiene, byte-level
determinism of the CLI, and a control on S^3 whose strata are all empty.
Tolerances are part of the contract
and appear literally in the assertions.
"""

import json

import numpy as np
import pytest

from morin.analysis import (
    _unit_rank,
    check_morin,
    euler_congruence,
    euler_via_morse,
    find_xi_zeros,
)
from morin.cli import main
from morin.expr import System, differentiate, eval_block
from morin.model import build_chain_at, corank_system, draw_covector, load_scene
from morin.solver import grid_oracle, match_point_sets

from morin.expr import symbolic_determinant

TORUS = "scenes/torus.scene"
HYPERBOLOID = "scenes/hyperboloid.scene"

TORUS_CUSPS = np.array(
    [[-3.0, 3.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [3.0, -3.0, 0.0]]
)
HYPERBOLOID_CUSPS = np.array([[-1.0, -2.0, 0.0], [1.0, 2.0, 0.0]])


def _cusp_points(strata):
    return np.array([c.x for c in strata.exact_depth(2)])


def test_01_hyperboloid_cusp_pair_with_full_rank_stack(
    hyperboloid_scene, hyperboloid_strata, tmp_path, capsys
):
    out = tmp_path / "strata.json"
    code = main(
        ["strata", HYPERBOLOID, "--depth", "2", "--no-timings", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    block = json.loads(out.read_text())["results"]["strata"]["2"]
    found = np.array([p["x"] for p in block["points"] if p["depth"] == 2])
    report = match_point_sets(found, HYPERBOLOID_CUSPS, tol=1e-6)
    assert report["bijective"] and report["max_distance"] <= 1e-6

    morin = check_morin(hyperboloid_scene, strata=hyperboloid_strata)
    assert morin["verdict"] == "morin"
    holds = {
        tuple(np.round(w["point"], 6)): w
        for w in morin["witnesses"]
        if w["reason"] == "conditions hold" and w["depth"] == 2
    }
    ratios = []
    for p in HYPERBOLOID_CUSPS:
        w = holds[tuple(np.round(p, 6))]
        ratios.append(abs(w["stack_det"]) / (4.0 * abs(p[0])))
        assert w["rank_margin"] >= 1e4
        chain = build_chain_at(hyperboloid_scene, p)
        grads = System(chain.chart(2).equations, len(p)).jacobian(p)[0]
        table = _unit_rank(grads[None], hyperboloid_scene.tol_rank)
        assert table.full[0]
        assert table.margin[0] >= 1e4
    # determinant magnitude is 4*|x1| times one positive chart factor
    assert ratios[0] > 0
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)


def test_02_torus_two_closed_curves_four_cusps_check_passes(torus_strata, capsys):
    curves = torus_strata.curves.get(1, [])
    assert len(curves) == 2 and all(c.closed for c in curves)
    report = match_point_sets(_cusp_points(torus_strata), TORUS_CUSPS, tol=1e-6)
    assert report["bijective"] and report["max_distance"] <= 1e-6
    code = main(["check", TORUS, "--no-timings"])
    capsys.readouterr()
    assert code == 0


def test_03_torus_euler_congruence_and_morse_count(
    torus_scene, torus_strata, torus_euler
):
    report = torus_euler
    assert report.counts["unrestricted"] % 2 == 0
    assert report.parities["manifold"] == 0
    assert report.counts["restricted_1"] % 2 == 0
    assert report.parities["strata"][1] == 0
    assert report.counts["deepest_2"] == 4
    assert report.congruence_holds is True
    assert euler_via_morse(torus_scene) == 0
    curves = torus_strata.curves.get(1, [])
    assert all(c.closed for c in curves)
    assert report.independent["first_stratum"] == 0


def test_04_sphere_frames_split_into_failure_and_pass(sphere_w_scene, capsys):
    code = main(["check", "scenes/sphere_v.scene", "--no-timings"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    reasons = " ".join(
        w["reason"] for w in report["results"]["morin"]["witnesses"]
    )
    assert "rank" in reasons

    code = main(["check", "scenes/sphere_w.scene", "--no-timings"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["strata_counts"].get("2", 0) == 0

    euler = euler_congruence(sphere_w_scene)
    assert euler.congruence_holds is True
    assert euler.counts["unrestricted"] == 2
    assert euler.parities["manifold"] == 0
    assert euler.independent["manifold_morse"] == 2


def _sweep_cases(torus_scene, torus_strata, torus_sweep,
                 hyperboloid_scene, hyperboloid_strata, hyperboloid_sweep):
    yield torus_scene, torus_strata, torus_sweep
    yield hyperboloid_scene, hyperboloid_strata, hyperboloid_sweep


def test_05_twenty_draws_zeros_land_on_first_stratum(
    torus_scene, torus_strata, torus_sweep,
    hyperboloid_scene, hyperboloid_strata, hyperboloid_sweep,
):
    for scene, strata, sweep in _sweep_cases(
        torus_scene, torus_strata, torus_sweep,
        hyperboloid_scene, hyperboloid_strata, hyperboloid_sweep,
    ):
        assert len(sweep) == 20
        sigma1 = corank_system(scene)
        cusps = _cusp_points(strata)
        unrestricted_parities = set()
        restricted_parities = set()
        for entry in sweep:
            census = entry["census"]
            unrest = census["unrestricted"]
            rest = census["restricted"][1]
            unrestricted_parities.add(len(unrest) % 2)
            restricted_parities.add(len(rest) % 2)
            for record in unrest:
                residual = np.max(
                    np.abs(eval_block(sigma1, record.x.reshape(1, -1)))
                )
                assert residual <= 10.0 * scene.tol_residual
                assert np.min(np.linalg.norm(cusps - record.x, axis=1)) > 1e-3
            # no third stratum exists for a two-coframe; the census can
            # only restrict to depth one and never classifies deeper
            # than two
            assert set(census["restricted"]) == {1}
            for record in rest:
                assert record.classification.depth <= 2
            for cusp in cusps:
                gap = min(np.linalg.norm(r.x - cusp) for r in rest)
                assert gap <= 1e-6
        assert len(unrestricted_parities) == 1
        assert len(restricted_parities) == 1


def test_06_twenty_draws_zeros_all_nondegenerate(
    torus_scene, torus_strata, torus_sweep,
    hyperboloid_scene, hyperboloid_strata, hyperboloid_sweep,
):
    for scene, strata, sweep in _sweep_cases(
        torus_scene, torus_strata, torus_sweep,
        hyperboloid_scene, hyperboloid_strata, hyperboloid_sweep,
    ):
        threshold = 10.0 * scene.tol_residual
        for entry in sweep:
            census = entry["census"]
            records = census["unrestricted"] + census["restricted"][1]
            assert all(r.nondegenerate == "yes" for r in records)
            for record in census["unrestricted"]:
                if record.classification.depth != 1:
                    continue
                partner = min(
                    census["restricted"][1],
                    key=lambda r: np.linalg.norm(r.x - record.x),
                )
                assert np.linalg.norm(partner.x - record.x) <= 1e-6
                above = (
                    abs(record.bordered_det) > threshold,
                    abs(partner.bordered_det) > threshold,
                )
                assert above[0] == above[1]
                assert all(above)


def test_07_grid_oracle_matches_solver_clusters(
    torus_scene, torus_strata, hyperboloid_scene, hyperboloid_strata
):
    for scene, strata, weights in (
        (torus_scene, torus_strata, [1.0, 0.0]),
        (hyperboloid_scene, hyperboloid_strata, draw_covector(2, 0)),
    ):
        cusps = _cusp_points(strata)
        best = max(
            (c for c in strata.chains if c.depth >= 2),
            key=lambda c: float(np.min(c.chart(2).validity_margin(cusps))),
        )
        chart = best.chart(2)
        roots = grid_oracle(
            chart.equations, scene.box, 128, tol_residual=scene.tol_residual
        )
        roots = roots[chart.validity_margin(roots) >= 1e-2]
        report = match_point_sets(roots, cusps, tol=1e-3)
        assert report["bijective"], report

        zero_system = list(scene.constraints) + list(scene.covector_field(weights))
        solved = np.array([r.x for r in find_xi_zeros(scene, weights)])
        roots = grid_oracle(
            zero_system, scene.box, 128, tol_residual=scene.tol_residual
        )
        report = match_point_sets(roots, solved, tol=1e-3)
        assert report["bijective"] and len(roots) > 0, report


def test_08_symbolic_derivatives_and_determinants_agree():
    rng = np.random.default_rng(12345)
    for name in (
        "torus", "hyperboloid", "sphere_v", "sphere_w",
        "swallowtail", "quadratic_well",
    ):
        scene = load_scene(f"scenes/{name}.scene")
        box = np.array(scene.box, dtype=float)
        pts = rng.uniform(box[:, 0], box[:, 1], size=(100, scene.ambient_dim))
        exprs = list(scene.constraints) + [e for row in scene.omega for e in row]
        for expr in exprs:
            for s in range(scene.ambient_dim):
                sym = eval_block([differentiate(expr, s)], pts)[0]
                h = 1e-5 * np.maximum(1.0, np.abs(pts[:, s]))
                hi = pts.copy()
                hi[:, s] += h
                lo = pts.copy()
                lo[:, s] -= h
                fd = (eval_block([expr], hi)[0] - eval_block([expr], lo)[0]) / (
                    2.0 * h
                )
                ok = np.isfinite(sym) & np.isfinite(fd)
                assert np.count_nonzero(ok) >= 90
                rel = np.abs(sym[ok] - fd[ok]) / np.maximum(1.0, np.abs(sym[ok]))
                assert np.max(rel) <= 1e-5

    from morin.expr import const

    origin = np.zeros(1)
    for _ in range(100):
        size = int(rng.integers(1, 5))
        entries = rng.integers(-80, 80, size=(size, size)) / 16.0
        sym = eval_block(
            [symbolic_determinant([[const(v) for v in row] for row in entries])],
            origin,
        )[0, 0]
        num = float(np.linalg.det(entries))
        assert abs(sym - num) <= 1e-10 * max(1.0, abs(num))


def test_09_euler_cli_runs_are_byte_identical(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        target = tmp_path / f"{tag}.json"
        code = main(
            ["euler", TORUS, "--seed", "42", "--no-timings", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


S3_QUATERNION = "tests/golden/generated/s3_quaternion.scene"


def test_10_s3_quaternion_frame_is_a_control_with_every_stratum_empty(capsys):
    # x -> (ix, jx, kx) is orthonormal on S^3 and never degenerates, and
    # chi(S^3) = 0: Fukuda's congruence holds with every count 0
    assert main(["check", S3_QUATERNION, "--no-timings"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["corank1"]["passed"] and results["corank1"]["sigma1_points"] == 0
    assert results["strata_counts"] == {}
    assert results["morin"]["verdict"] == "morin"
    assert main(["euler", S3_QUATERNION, "--seed", "42", "--no-timings"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["congruence_holds"] is True
    assert results["counts"] == {
        "unrestricted": 0, "restricted_1": 0, "restricted_2": 0, "deepest_3": 0
    }
    assert results["independent"]["manifold_morse"] == 0
