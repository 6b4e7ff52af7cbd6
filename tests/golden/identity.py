"""Compare the CLI's output in two source trees, byte for byte.

    python tests/golden/identity.py PARENT_ROOT

Runs every argv below in a fresh ``python`` process in PARENT_ROOT and in
the tree holding this script, with the tree as working directory and its
``src`` on ``PYTHONPATH``, and compares stdout, stderr and exit code. The
argvs are the golden reports' (``record.invocations()``), the
benchmark's invocations (``perfbench/workloads.py``), ``euler --seed
42`` and ``zeros --seed 42`` on every scene, ``zeros --stratum 2`` and
``--stratum 3`` with ``--seed 42`` on the swallowtail, the one scene with
restricted zeros below depth 1, and ``check``, ``strata``, ``euler --seed
42`` and ``zeros --stratum 1 --seed 42`` on every generated scene, all
with ``--no-timings``. A generated scene is named by its absolute path in the
tree holding this script, so both trees run the same file. Each
difference is printed; the exit code is 1 if there is any, else 0.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]

import record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = "import sys; from morin.cli import main; sys.exit(main(sys.argv[1:]))"


def argvs() -> list:
    golden = [argv for _, argv in record.invocations()]
    bench = [inv.cli_argv() for invocations in WORKLOADS.values() for inv in invocations]
    seeded = [
        [command, f"scenes/{s}.scene", "--seed", "42", "--no-timings"]
        for s in record.SCENES
        for command in ("euler", "zeros")
    ]
    deep = [
        ["zeros", "scenes/swallowtail.scene", "--stratum", k, "--seed", "42", "--no-timings"]
        for k in ("2", "3")
    ]
    generated = [
        [command, str(scene), *options, "--no-timings"]
        for scene in sorted((HERE / "generated").glob("*.scene"))
        for command, *options in (
            ["check"],
            ["strata"],
            ["euler", "--seed", "42"],
            ["zeros", "--stratum", "1", "--seed", "42"],
        )
    ]
    return golden + bench + seeded + deep + generated


def run(root: Path, argv: list) -> tuple:
    """stdout, stderr and exit code of one CLI run in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
    )
    return done.stdout, done.stderr, done.returncode


def first_difference(a: bytes, b: bytes) -> str:
    """The first line where ``a`` and ``b`` differ, as both read it."""
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {i}: {x[:120]!r} != {y[:120]!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def main(args) -> int:
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    parent = Path(args[0]).resolve()
    cases = argvs()
    differ = 0
    for argv in cases:
        got = dict(zip(("stdout", "stderr", "exit code"), run(ROOT, argv)))
        want = dict(zip(("stdout", "stderr", "exit code"), run(parent, argv)))
        diffs = [key for key in got if got[key] != want[key]]
        differ += bool(diffs)
        for key in diffs:
            if key == "exit code":
                detail = f"{got[key]} != {want[key]}"
            else:
                detail = first_difference(got[key], want[key])
            print(f"{' '.join(argv)}: {key} differs, {detail}")
    print(f"{len(cases)} argvs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
