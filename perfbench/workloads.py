"""The benchmark's workloads: fixed sequences of ``morin`` CLI invocations.

Every invocation is an argument list for ``morin.cli.main``, run with
``--no-timings`` so its report can be compared with the reference recorded
for it. Scene paths are relative to the repository root, which is the
working directory of every benchmark process. BENCHMARK.json says why each
workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    metric: str  # the invocation's seconds are reported under this name
    argv: tuple

    def cli_argv(self) -> list:
        return [*self.argv, "--no-timings"]


# The covector seed of the census invocations. It stays fixed whatever the
# workload seed is: on the torus the cost of euler + zeros moves by about
# 40% between covector seeds (21.9 s at seed 1, 30.5 s at seed 0 on a
# 2-CPU machine), more than any run-to-run bound can absorb.
CENSUS_SEED = "42"

WORKLOADS = {
    "verify": (
        Invocation("check.swallowtail_s", ("check", "scenes/swallowtail.scene")),
        Invocation("check.torus_s", ("check", "scenes/torus.scene")),
        Invocation("check.sphere_v_s", ("check", "scenes/sphere_v.scene")),
    ),
    "census": (
        Invocation("euler.torus_s", ("euler", "scenes/torus.scene", "--seed", CENSUS_SEED)),
        Invocation(
            "zeros.torus_s",
            ("zeros", "scenes/torus.scene", "--stratum", "1", "--seed", CENSUS_SEED),
        ),
    ),
    "oracle": (
        Invocation(
            "oracle.torus_s",
            ("oracle", "scenes/torus.scene", "--depth", "2", "--grid", "128"),
        ),
    ),
}


def scenes(name: str) -> list:
    """Scene files the workload's invocations read."""
    return sorted({inv.argv[1] for inv in WORKLOADS[name]})
