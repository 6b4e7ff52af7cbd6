"""Tests for the dense linear-algebra wrappers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morin.linalg import (
    MAX_DIM,
    RankTable,
    determinant,
    gelsy_solve,
    least_squares,
    numeric_rank,
)

RNG = np.random.default_rng(991)


def _random_rank_r(m, n, r, rng):
    """Matrix with exact rank r and singular values in [1, 10]."""
    u, _ = np.linalg.qr(rng.normal(size=(m, m)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = np.zeros((m, n))
    s[:r, :r] = np.diag(rng.uniform(1.0, 10.0, size=r))
    return u @ s @ v


# -- validation ---------------------------------------------------------------


def test_dimension_cap():
    for shape in [(MAX_DIM + 1, 2), (2, MAX_DIM + 1)]:
        with pytest.raises(ValueError, match="exceeds the 64 cap"):
            numeric_rank(np.zeros((1,) + shape))
    numeric_rank(np.zeros((1, MAX_DIM, MAX_DIM)))


def test_rejects_non_finite_and_non_2d():
    with pytest.raises(ValueError, match="nan or inf"):
        numeric_rank(np.array([[[1.0, np.nan]]]))
    for flat in [np.zeros(3), np.eye(2)]:
        for call in (numeric_rank, determinant):
            with pytest.raises(ValueError, match="expected a matrix stack"):
                call(flat)
    with pytest.raises(ValueError, match="expected a matrix stack"):
        least_squares(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        determinant(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        numeric_rank(np.eye(2)[None], tol=0.0)


# -- numeric rank -------------------------------------------------------------


def _one(matrix, tol=1e-8):
    """The rank, full flag and margin of one matrix, as Python values."""
    table = numeric_rank(np.asarray(matrix, dtype=float)[None], tol)
    return int(table.rank[0]), bool(table.full[0]), float(table.margin[0])


def test_rank_of_identity():
    rank, full, margin = _one(np.eye(4))
    assert rank == 4 and full
    assert margin == pytest.approx(1e8)


def test_rank_one_matrix():
    rank, full, margin = _one([[1.0, 2.0], [2.0, 4.0]])
    assert rank == 1 and not full
    assert margin > 1e15  # the rejected singular value is roundoff


def test_rank_zero_matrix():
    assert _one(np.zeros((3, 3))) == (0, False, 0.0)


def test_empty_matrix_is_vacuously_full_rank():
    assert _one(np.zeros((0, 3))) == (0, True, math.inf)


def test_gap_ratio_reflects_separation():
    rank, full, margin = _one(np.diag([1.0, 1e-2, 1e-12]))
    assert rank == 2 and not full
    assert margin == pytest.approx(1e10, rel=1e-6)


def test_rank_invariant_under_permutation_and_scaling():
    # Permutations, a global scale anywhere in [1e-3, 1e3], and mild
    # per-row/column rescaling must not change the rank decision.
    for trial in range(40):
        rng = np.random.default_rng(1000 + trial)
        m, n = rng.integers(2, 9, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = _random_rank_r(m, n, r, rng)
        assert _one(a)[0] == r
        p = rng.permutation(m)
        q = rng.permutation(n)
        scale = 10.0 ** rng.uniform(-3, 3)
        rows = rng.uniform(0.5, 2.0, size=m)
        cols = rng.uniform(0.5, 2.0, size=n)
        b = scale * (rows[:, None] * a[p][:, q] * cols[None, :])
        assert _one(b)[0] == r


# -- determinant --------------------------------------------------------------


def _det(matrix) -> float:
    """The determinant of one matrix, from its one-matrix stack."""
    return float(determinant(np.asarray(matrix, dtype=float)[None])[0])


def test_determinant_golden():
    assert _det([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0, abs=1e-12)
    assert determinant(np.zeros((2, 0, 0))).tolist() == [1.0, 1.0]
    assert determinant(np.zeros((0, 3, 3))).shape == (0,)


def test_determinant_of_singular_matrix_is_tiny():
    assert _det([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-12)


def test_determinant_product_property():
    for trial in range(30):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        lhs = _det(a @ b)
        rhs = _det(a) * _det(b)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_determinant_transpose_and_scaling():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(5, 5))
    assert _det(a.T) == pytest.approx(_det(a), rel=1e-10)
    assert _det(2.0 * a) == pytest.approx(2.0 ** 5 * _det(a), rel=1e-10)
    # each determinant of a stack has the bits of its one-matrix stack
    stack = rng.normal(size=(7, 4, 4)).transpose(0, 2, 1)
    assert [_bits(d) for d in determinant(stack)] == [_bits(_det(m)) for m in stack]


# -- least squares ------------------------------------------------------------


def _lstsq(a, b, tol=1e-8):
    """The solution, residual norm and rank flag of one matrix, from its
    one-matrix stack."""
    x, resid, deficient = least_squares(np.asarray(a)[None], np.asarray(b)[None], tol)
    return x[0], float(resid[0]), bool(deficient[0])


def test_consistent_system_has_negligible_residual():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 4))
    x_true = rng.normal(size=4)
    x, resid, deficient = _lstsq(a, a @ x_true)
    assert resid <= 1e-10
    assert not deficient
    assert np.allclose(x, x_true, atol=1e-8)


def test_overdetermined_matches_reference_solver():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(10, 3))
    b = rng.normal(size=10)
    x, resid, _ = _lstsq(a, b)
    ref, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(x, ref, atol=1e-10)
    assert resid == pytest.approx(np.linalg.norm(a @ ref - b), rel=1e-12)


def test_rank_deficiency_is_flagged_not_fatal():
    rng = np.random.default_rng(7)
    col = rng.normal(size=6)
    a = np.column_stack([col, 2.0 * col, rng.normal(size=6)])
    b = a @ np.array([1.0, 0.0, 3.0])
    x, resid, deficient = _lstsq(a, b)
    assert deficient
    assert np.all(np.isfinite(x))
    assert resid <= 1e-10


def test_lstsq_shape_validation():
    with pytest.raises(ValueError, match="rhs has shape"):
        least_squares(np.eye(3)[None], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="rhs has shape"):
        least_squares(np.eye(3)[None], np.zeros(3))
    with pytest.raises(ValueError, match="rhs contains nan or inf"):
        least_squares(np.eye(2)[None], np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="matrix contains nan or inf"):
        least_squares([[[1.0, np.nan]]], np.zeros((1, 1)))
    with pytest.raises(ValueError, match="exceeds the 64 cap"):
        least_squares(np.zeros((1, 65, 1)), np.zeros((1, 65)))
    with pytest.raises(ValueError, match="tol must be positive"):
        least_squares(np.eye(2)[None], np.zeros((1, 2)), tol=0.0)


def test_lstsq_rank_flag_is_numeric_rank():
    rng = np.random.default_rng(8)
    for cols in range(1, 5):
        for rank in range(cols + 1):
            a = rng.normal(size=(6, rank)) @ rng.normal(size=(rank, cols))
            want = _one(a)[0] < cols
            assert _lstsq(a, rng.normal(size=6))[2] == want


def test_report_types():
    assert isinstance(numeric_rank(np.eye(2)[None]), RankTable)
    x, resid, deficient = least_squares(np.stack([np.eye(2)] * 3), np.zeros((3, 2)))
    assert (x.shape, resid.shape, deficient.shape) == ((3, 2), (3,), (3,))
    assert (x.dtype, resid.dtype, deficient.dtype) == (float, float, bool)


def _reference_least_squares(a, b, tol):
    """The one-matrix least squares of the parent tree, spelled out: one
    gelsy solve, the norm of the residual vector and the rank flag of the
    matrix alone. The reference for a stack's entries."""
    x = gelsy_solve(a, b, tol)
    resid = float(np.linalg.norm(a @ x - b))
    return x, resid, bool(numeric_rank(a[None], tol).rank[0] < a.shape[1])


@st.composite
def _lstsq_stacks(draw):
    """(P, m, n) stacks with right-hand sides, P <= 16 and m, n <= 6, tall,
    wide, square or empty; some of a lower rank, as a product of thinner
    factors, and some as transposed views of C-contiguous (P, n, m)
    stacks, the layout of transposed Jacobians."""
    P, m, n = draw(st.integers(0, 16)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    a = draw(hnp.arrays(float, (P, m, n), elements=_ENTRY))
    rank = draw(st.integers(0, min(m, n)))
    if rank < min(m, n):
        left = draw(hnp.arrays(float, (P, m, rank), elements=_ENTRY))
        a = left @ draw(hnp.arrays(float, (P, rank, n), elements=_ENTRY))
    if draw(st.booleans()):
        a = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
    return a, draw(hnp.arrays(float, (P, m), elements=_ENTRY))


@given(_lstsq_stacks(), st.sampled_from([1e-8, 1e-12, 1e-3]))
@settings(max_examples=200, deadline=None)
def test_least_squares_of_a_stack_is_bitwise_the_one_matrix_form(problem, tol):
    a, b = problem
    x, resid, deficient = least_squares(a, b, tol)
    assert (x.shape, resid.shape, deficient.shape) == ((len(a), a.shape[2]), (len(a),), (len(a),))
    for p in range(len(a)):
        want_x, want_resid, want_deficient = _reference_least_squares(a[p], b[p], tol)
        assert x[p].tobytes() == want_x.tobytes()
        assert _bits(resid[p]) == _bits(want_resid)
        assert bool(deficient[p]) == want_deficient


# -- the stacked rank kernel --------------------------------------------------

# small integers and zeros make rank-deficient matrices common; the rest
# spreads singular values over many decades
_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-12, 3e7]),
    st.floats(-10.0, 10.0, allow_subnormal=False),
)


@st.composite
def _stacks(draw):
    """(P, m, n) stacks, 1 <= m, n <= 5, some with a repeated row, some as
    a non-contiguous transposed or reversed view."""
    P, m, n = draw(st.integers(0, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = draw(hnp.arrays(float, (P, m, n), elements=_ENTRY))
    if m > 1 and draw(st.booleans()):
        a[:, -1] = a[:, 0]
    view = draw(st.sampled_from(["plain", "transposed", "reversed"]))
    if view == "transposed":
        return a.transpose(0, 2, 1)
    if view == "reversed":
        return a[:, ::-1, :]
    return a


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _entries(table, p) -> tuple:
    return int(table.rank[p]), bool(table.full[p]), _bits(table.margin[p])


@given(_stacks(), st.sampled_from([1e-8, 1e-3, 0.5]))
@settings(max_examples=150, deadline=None)
def test_numeric_ranks_are_bitwise_numeric_rank(stack, tol):
    # each matrix's entry of a stack is the entry of its one-matrix stack
    table = numeric_rank(stack, tol)
    assert all(len(column) == len(stack) for column in table)
    for p in range(len(stack)):
        assert _entries(table, p) == _entries(numeric_rank(stack[p : p + 1], tol), 0)


@given(_stacks(), st.data())
@settings(max_examples=60, deadline=None)
def test_numeric_ranks_refuse_what_numeric_rank_refuses(stack, data):
    # one non-finite matrix makes the stack raise as it raises alone
    if not len(stack):
        return
    stack = stack.copy()
    p = data.draw(st.integers(0, len(stack) - 1))
    stack[p, -1, 0] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    with pytest.raises(ValueError) as one:
        numeric_rank(stack[p : p + 1])
    with pytest.raises(ValueError) as stacked:
        numeric_rank(stack)
    assert str(stacked.value) == str(one.value)


def test_numeric_ranks_refuse_oversized_and_flat_input():
    for shape in [(MAX_DIM + 1, 2), (2, MAX_DIM + 1)]:
        with pytest.raises(ValueError) as one:
            numeric_rank(np.zeros((1,) + shape))
        with pytest.raises(ValueError) as stacked:
            numeric_rank(np.zeros((3,) + shape))
        assert str(stacked.value) == str(one.value)
    with pytest.raises(ValueError, match="ndim 2"):
        numeric_rank(np.eye(3))
    with pytest.raises(ValueError, match="tol"):
        numeric_rank(np.zeros((1, 2, 2)), 0.0)


def test_numeric_ranks_of_empty_matrices():
    for shape in [(2, 0, 3), (2, 3, 0), (0, 2, 2)]:
        table = numeric_rank(np.zeros(shape))
        assert table.rank.tolist() == [0] * shape[0]
        assert table.full.tolist() == [True] * shape[0]
        assert table.margin.tolist() == [math.inf] * shape[0]


# -- gelsy without the scipy.linalg package -----------------------------------

ROOT = Path(__file__).resolve().parent.parent


@st.composite
def _gelsy_problems(draw):
    """A stack of (m, n) matrices, m, n <= 8, tall, wide or square, with a
    right-hand side of shape (m,) or (m, k): entries from ``_ENTRY``, and
    some matrices of a lower rank, as a product of thinner factors."""
    count = draw(st.integers(1, 3))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a = draw(hnp.arrays(float, (count, m, n), elements=_ENTRY))
    rank = draw(st.integers(0, min(m, n)))
    if rank < min(m, n):
        left = draw(hnp.arrays(float, (count, m, rank), elements=_ENTRY))
        a = left @ draw(hnp.arrays(float, (count, rank, n), elements=_ENTRY))
    cols = draw(st.sampled_from([(), (1,), (3,)]))
    b = draw(hnp.arrays(float, (count, m, *cols), elements=_ENTRY))
    return a, b


@given(_gelsy_problems(), st.sampled_from([1e-8, 1e-12, 1e-3]))
@settings(max_examples=150, deadline=None)
def test_gelsy_solve_is_bitwise_scipy_lstsq(problem, tol):
    import scipy.linalg

    a, b = problem
    stacked = gelsy_solve(a, b, tol)
    for i in range(len(a)):
        want = scipy.linalg.lstsq(a[i], b[i], cond=tol, lapack_driver="gelsy")[0]
        got = gelsy_solve(a[i], b[i], tol)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert stacked[i].tobytes() == want.tobytes()


def test_gelsy_solve_of_empty_matrices_is_scipy_lstsq():
    import scipy.linalg

    for a, b in [
        (np.zeros((0, 3)), np.zeros(0)),
        (np.zeros((3, 0)), np.ones(3)),
        (np.zeros((3, 0)), np.ones((3, 2))),
        (np.zeros((0, 0)), np.zeros((0, 1))),
    ]:
        want = scipy.linalg.lstsq(a, b, cond=1e-8, lapack_driver="gelsy")[0]
        got = gelsy_solve(a, b, 1e-8)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert gelsy_solve(np.zeros((2, 3, 0)), np.ones((2, 3)), 1e-8).shape == (2, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gelsy_solve_refuses_nonfinite_entries(bad):
    a, b = np.eye(3), np.ones(3)
    for where in ("a", "b"):
        args = {"a": a.copy(), "b": b.copy()}
        args[where].flat[-1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            gelsy_solve(args["a"], args["b"], 1e-8)
        with pytest.raises(ValueError, match="infs or NaNs"):
            gelsy_solve(args["a"][None], args["b"][None], 1e-8)


# Solves seeded problems with gelsy_solve, then imports scipy.linalg and
# solves them again, or the other way round; prints the loaded scipy
# modules and whether both rounds gave the same bytes.
_GELSY_PROBE = """
import sys
import numpy as np
from morin.linalg import gelsy_solve

rng = np.random.default_rng(7)
problems = [(rng.normal(size=(m, n)), rng.normal(size=m)) for m in range(1, 9) for n in range(1, 9)]

def solve():
    return b"".join(gelsy_solve(a, b, 1e-8).tobytes() for a, b in problems)

if sys.argv[1] == "first":
    before = solve()
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    import scipy.linalg
else:
    import scipy.linalg
    before = solve()
    loaded = []
after = solve()
want = b"".join(
    scipy.linalg.lstsq(a, b, cond=1e-8, lapack_driver="gelsy")[0].tobytes() for a, b in problems
)
print(loaded, before == after == want, __import__("hashlib").sha256(after).hexdigest())
"""


def test_gelsy_solve_gives_the_same_bits_before_and_after_scipy_linalg():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = [
        subprocess.run(
            [sys.executable, "-c", _GELSY_PROBE, order],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        for order in ("first", "last")
    ]
    assert out[0][:2] == ["['scipy.linalg._flapack']", "True"]
    assert out[1][:2] == ["[]", "True"]
    assert out[0][2] == out[1][2]
