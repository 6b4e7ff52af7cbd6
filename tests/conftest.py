"""Session-wide fixtures for the expensive geometric computations.

Stratum towers and sweeps of covector draws take seconds each; computing them
once and sharing across test modules keeps the whole suite fast without
weakening any assertion.
"""

import pytest

from morin.analysis import compute_strata, euler_congruence, zero_census
from morin.model import draw_covector, load_scene


def _scene(name):
    return load_scene(f"scenes/{name}.scene")


@pytest.fixture(scope="session")
def torus_scene():
    return _scene("torus")


@pytest.fixture(scope="session")
def hyperboloid_scene():
    return _scene("hyperboloid")


@pytest.fixture(scope="session")
def sphere_v_scene():
    return _scene("sphere_v")


@pytest.fixture(scope="session")
def sphere_w_scene():
    return _scene("sphere_w")


@pytest.fixture(scope="session")
def swallowtail_scene():
    return _scene("swallowtail")


@pytest.fixture(scope="session")
def quadratic_well_scene():
    return _scene("quadratic_well")


@pytest.fixture(scope="session")
def torus_strata(torus_scene):
    return compute_strata(torus_scene)


@pytest.fixture(scope="session")
def hyperboloid_strata(hyperboloid_scene):
    return compute_strata(hyperboloid_scene)


@pytest.fixture(scope="session")
def swallowtail_strata(swallowtail_scene):
    return compute_strata(swallowtail_scene)


def _sweep(scene, strata, count=20, seed=7):
    """Zero censuses of ``count`` covector draws, draw ``i`` from seed
    ``seed + i``, one after another."""
    out = []
    for i in range(count):
        weights = draw_covector(scene.n, seed + i)
        census = zero_census(scene, weights, strata=strata)
        out.append({"draw": i, "weights": [float(w) for w in weights], "census": census})
    return out


@pytest.fixture(scope="session")
def torus_sweep(torus_scene, torus_strata):
    return _sweep(torus_scene, torus_strata)


@pytest.fixture(scope="session")
def hyperboloid_sweep(hyperboloid_scene, hyperboloid_strata):
    return _sweep(hyperboloid_scene, hyperboloid_strata)


@pytest.fixture(scope="session")
def torus_euler(torus_scene, torus_strata):
    return euler_congruence(torus_scene, strata=torus_strata)
