"""Dense numeric helpers with explicit rank diagnostics.

Thin wrappers around LAPACK for the three operations the geometry code
needs: numeric rank with a gap diagnostic, determinants, and least squares
with rank-deficiency reporting. Rank and determinant go through numpy.
The least-squares solve is LAPACK's gelsy, which numpy lacks:
:func:`gelsy_solve` calls ``dgelsy`` from scipy's f2py LAPACK extension
``scipy.linalg._flapack``, loaded by file on the first solve, so that
neither ``scipy/__init__`` nor ``scipy.linalg`` runs and importing this
module loads no scipy. Every helper takes a stack of matrices, shape
(P, m, n), and gives each matrix the bits it gives alone. Matrices are
capped at 64 rows/columns; everything here is small and dense, and the cap
turns an upstream logic error (a runaway system builder) into a clear
failure.

Rank decisions follow the usual SVD convention: singular values above
``tol * sigma_max`` count. The quality of each is reported, not assumed: its
``margin`` is the ratio of the last accepted to the first rejected
singular value, or at full rank how far the smallest one clears the
cutoff, so callers can refuse to trust borderline verdicts.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

MAX_DIM = 64

DEFAULT_RANK_TOL = 1e-8


def _stack(a, square: bool = False) -> np.ndarray:
    """``a`` as a float stack of matrices, shape (P, m, n).

    Raises ValueError for another number of axes, a matrix dimension above
    ``MAX_DIM``, a matrix that is not square where ``square`` asks for one,
    or a non-finite entry.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 3:
        raise ValueError(f"expected a matrix stack, got array of ndim {m.ndim}")
    rows, cols = m.shape[1:]
    if rows > MAX_DIM or cols > MAX_DIM:
        raise ValueError(f"matrix shape {(rows, cols)} exceeds the {MAX_DIM} cap")
    if square and rows != cols:
        raise ValueError(f"expected a square matrix, got shape {(rows, cols)}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix contains nan or inf")
    return m


class RankTable(NamedTuple):
    """Rank decisions for a stack of matrices, one entry per matrix.

    Attributes
    ----------
    rank : ndarray of int
        Number of singular values above ``tol * sigma_max``.
    full : ndarray of bool
        Whether the rank equals the smaller dimension (vacuously true for
        an empty matrix).
    margin : ndarray of float
        How far the decision sits from its cutoff. At full rank it is
        ``sigma_min / (tol * sigma_max)``, above one, and infinite for an
        empty matrix. Below full rank it is the gap ratio
        ``sigma[rank-1] / sigma[rank]``: zero at rank zero, and infinite
        where ``sigma[rank]`` is zero or so small (subnormal) that the
        ratio passes the float range.
    """

    rank: np.ndarray
    full: np.ndarray
    margin: np.ndarray


def numeric_rank(a, tol: float = DEFAULT_RANK_TOL) -> RankTable:
    """Numeric rank of every matrix of a stack ``a``, shape ``(P, m, n)``,
    with its margin, from one stacked SVD.

    LAPACK factors a stack one matrix at a time, so each entry holds the
    bits that its matrix gives alone. One oversized or non-finite matrix
    makes the whole call raise a ValueError, as does a ``tol`` that is
    not positive.
    """
    m = _stack(a)
    if tol <= 0:
        raise ValueError("tol must be positive")
    count = len(m)
    if m.shape[1] * m.shape[2] == 0:
        return RankTable(
            np.zeros(count, dtype=int), np.ones(count, dtype=bool), np.full(count, math.inf)
        )
    sv = np.linalg.svd(m, compute_uv=False)
    cut = tol * sv[:, 0]
    rank = (sv > cut[:, None]).sum(axis=1)
    full = rank == sv.shape[1]
    # the last kept and the first dropped value, where the rank has them
    at = np.arange(count)
    kept, dropped = sv[at, rank - 1], sv[at, np.minimum(rank, sv.shape[1] - 1)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gap = np.where(rank == 0, 0.0, kept / dropped)
        margin = np.where(full, sv[:, -1] / cut, gap)
    return RankTable(rank, full, margin)


def determinant(a) -> np.ndarray:
    """Determinants of a stack of square matrices, shape (P, n, n), by LU
    factorization with pivoting, each with the bits of its matrix alone
    (one for an empty matrix)."""
    return np.linalg.det(_stack(a, square=True))


def least_squares(a, b, tol: float = DEFAULT_RANK_TOL) -> tuple:
    """Minimize ``|a[p] @ x - b[p]|`` for every matrix of a stack ``a``,
    shape (P, m, n), and right-hand side ``b``, shape (P, m), by
    column-pivoted QR.

    Returns the arrays ``(solution, residual_norm, rank_deficient)``:
    solutions of shape (P, n), the Euclidean norms of their residuals,
    and whether each matrix's :func:`numeric_rank` at ``tol`` falls below
    its column count, where its solution is one of many minimizers. All
    come from one :func:`gelsy_solve` and one rank table, and each entry
    holds the bits its matrix and right-hand side give alone.
    """
    m = _stack(a)
    # contiguous, so each residual row is laid out as a 1-D residual is
    rhs = np.ascontiguousarray(b, dtype=float)
    if rhs.shape != m.shape[:2]:
        raise ValueError(f"rhs has shape {rhs.shape}, the matrix stack {m.shape}")
    if rhs.size and not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains nan or inf")
    x = gelsy_solve(m, rhs, tol)
    r = (m @ x[:, :, None])[:, :, 0] - rhs
    # a row's norm as a batched matmul keeps the bits of its 1-D norm
    resid = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    return x, resid, numeric_rank(m, tol).rank < m.shape[2]


@cache
def _flapack():
    """scipy's f2py LAPACK extension, loaded once by file.

    ``scipy.linalg.lapack`` re-exports its routines, but importing the
    package costs a fresh process 0.22-0.29 s and about 17 MB (scipy 1.17),
    mostly ``scipy._lib._array_api`` cloning the numpy namespace; loading
    the extension alone runs neither ``scipy/__init__`` nor
    ``scipy.linalg/__init__``. It registers itself in ``sys.modules``
    under its own name, where a later ``import scipy.linalg`` finds it.
    """
    name = "scipy.linalg._flapack"
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    stem = Path(spec.submodule_search_locations[0], "linalg", "_flapack")
    paths = [f"{stem}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if Path(p).is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension {paths[0]} is missing", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader)
    )
    loader.exec_module(module)
    return module


def gelsy_solve(a, b, tol: float) -> np.ndarray:
    """A minimizer of ``|a @ x - b|`` from LAPACK's complete orthogonal
    factorization with column pivoting (gelsy), singular values below
    ``tol * sigma_max`` treated as zero.

    ``a`` is one matrix, shape (m, n), or a stack of them, shape
    (..., m, n); ``b`` has the same leading axes followed by (m,) or
    (m, k), and the result the same leading axes followed by (n,) or
    (n, k). Each matrix is its own ``dgelsy`` call with the arguments
    ``scipy.linalg.lstsq(a, b, cond=tol, lapack_driver="gelsy")`` passes,
    so each solution has its bits; the finiteness check and the workspace
    query are made once per stack. Raises ValueError on a nan or inf entry.
    """
    a = np.asarray_chkfinite(a, dtype=float)
    b = np.asarray_chkfinite(b, dtype=float)
    *stack, m, n = a.shape
    rhs = b.shape[len(stack) + 1:]
    out = np.zeros((*stack, n, *rhs))
    if m == 0 or n == 0:
        return out
    lapack = _flapack()
    work, info = lapack.dgelsy_lwork(m, n, rhs[0] if rhs else 1, tol)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork = int(work)
    for i in np.ndindex(*stack):
        rows = b[i]
        if m < n:  # LAPACK returns the solution in b, so b needs n rows
            rows = np.zeros((n, *rhs))
            rows[:m] = b[i]
        _, x, _, _, info = lapack.dgelsy(
            a[i], rows, np.zeros((n, 1), dtype=np.int32), tol, lwork, False, False
        )
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gelsy")
        out[i] = x[:n]
    return out
