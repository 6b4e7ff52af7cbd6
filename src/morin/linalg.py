"""Dense numeric helpers with explicit rank diagnostics.

Thin wrappers around LAPACK for the three operations the geometry code
needs: numeric rank with a gap diagnostic, determinants, and least squares
with rank-deficiency reporting. Rank and determinant go through numpy.
The least-squares solve is LAPACK's gelsy, which numpy lacks:
:func:`gelsy_solve` calls ``dgelsy`` from scipy's f2py LAPACK extension
``scipy.linalg._flapack``, loaded by file on the first solve, so that
neither ``scipy/__init__`` nor ``scipy.linalg`` runs and importing this
module loads no scipy. Matrices are capped at 64 rows/columns; everything
here is small and dense, and the cap turns an upstream logic error (a
runaway system builder) into a clear failure.

Rank decisions follow the usual SVD convention: singular values above
``tol * sigma_max`` count. The quality of that decision is reported, not
assumed: ``gap_ratio`` is the ratio of the last accepted to the first
rejected singular value (infinite when nothing was rejected), so callers
can refuse to trust borderline verdicts.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

MAX_DIM = 64

DEFAULT_RANK_TOL = 1e-8


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a float matrix.

    Raises ValueError for non-2d input, dimensions above ``MAX_DIM``, or
    non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return _checked(m, square)


def _checked(m: np.ndarray, square: bool) -> np.ndarray:
    """The checks of :func:`as_matrix` on the last two axes of ``m``."""
    rows, cols = m.shape[-2:]
    if rows > MAX_DIM or cols > MAX_DIM:
        raise ValueError(f"matrix shape {(rows, cols)} exceeds the {MAX_DIM} cap")
    if square and rows != cols:
        raise ValueError(f"expected a square matrix, got shape {(rows, cols)}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains nan or inf")
    return m


@dataclass(frozen=True)
class RankReport:
    """Outcome of a numeric rank decision.

    Attributes
    ----------
    rank : int
        Number of singular values above ``tol * sigma_max``.
    singular_values : ndarray
        All singular values, descending.
    gap_ratio : float
        ``sigma[rank-1] / sigma[rank]``; infinite when the matrix has full
        rank (nothing rejected), zero when the rank is zero.
    full_rank_margin : float
        ``sigma_min / (tol * sigma_max)``; above one iff the matrix has
        full rank, and its size measures how far the smallest singular
        value sits from the cutoff.
    """

    rank: int
    singular_values: np.ndarray
    gap_ratio: float
    full_rank_margin: float

    @property
    def full(self) -> bool:
        return self.rank == len(self.singular_values)

    @property
    def margin(self) -> float:
        """How far the decision sits from its cutoff: ``full_rank_margin``
        at full rank, else ``gap_ratio``."""
        return self.full_rank_margin if self.full else self.gap_ratio


def numeric_rank(a, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Numeric rank of ``a`` with gap diagnostics: :func:`numeric_ranks` of
    the one-matrix stack of ``a``.

    Parameters
    ----------
    a : array-like, shape (m, n)
    tol : float
        Relative singular-value threshold, must be positive.
    """
    return _stack_reports(as_matrix(a)[None], tol)[0]


def numeric_ranks(a, tol: float = DEFAULT_RANK_TOL) -> list:
    """:func:`numeric_rank` of every matrix of a stack ``a``, shape
    ``(P, m, n)``, from one stacked SVD.

    LAPACK factors a stack one matrix at a time, so each report holds the
    bits that its matrix gives alone. One oversized or non-finite matrix
    makes the whole call raise a ValueError.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 3:
        raise ValueError(f"expected a matrix stack, got array of ndim {m.ndim}")
    return _stack_reports(_checked(m, False), tol)


def _stack_reports(m: np.ndarray, tol: float) -> list:
    """The reports of :func:`numeric_ranks` for a stack ``m`` that passed
    :func:`_checked`."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if m.shape[1] * m.shape[2] == 0:
        return [RankReport(0, np.empty(0), math.inf, math.inf) for _ in m]
    return [_rank_report(sv, tol) for sv in np.linalg.svd(m, compute_uv=False)]


def _rank_report(sv: np.ndarray, tol: float) -> RankReport:
    """The rank decision for descending singular values ``sv``."""
    smax = sv[0]
    if smax == 0.0:
        return RankReport(0, sv, 0.0, 0.0)
    rank = int(np.count_nonzero(sv > tol * smax))
    if rank == len(sv):
        gap = math.inf
    elif rank == 0:
        gap = 0.0
    else:
        # a gap past the float range (sv[rank] subnormal) is an infinite one
        with np.errstate(over="ignore"):
            gap = math.inf if sv[rank] == 0.0 else float(sv[rank - 1] / sv[rank])
    margin = float(sv[-1] / (tol * smax))
    return RankReport(rank, sv, gap, margin)


def determinant(a) -> float:
    """Determinant of a square matrix (LU factorization with pivoting)."""
    m = as_matrix(a, square=True)
    if m.shape[0] == 0:
        return 1.0
    return float(np.linalg.det(m))


@dataclass(frozen=True)
class LstsqResult:
    """Least-squares solution with conditioning diagnostics.

    ``rank_deficient`` is set when the numeric rank of the coefficient
    matrix falls below its column count, in which case the returned
    solution is one of many minimizers.
    """

    solution: np.ndarray
    residual_norm: float
    rank_deficient: bool


def least_squares(a, b, tol: float = DEFAULT_RANK_TOL) -> LstsqResult:
    """Minimize ``|a @ x - b|`` by column-pivoted QR.

    Parameters
    ----------
    a : array-like, shape (m, n)
    b : array-like, shape (m,) or (m, k)
    tol : float
        Relative threshold below which singular values are treated as zero,
        shared with :func:`numeric_rank` so the two report consistent ranks.
    """
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.shape[0]:
        raise ValueError(
            f"rhs has {rhs.shape[0]} rows, matrix has {m.shape[0]}"
        )
    if rhs.size and not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains nan or inf")
    x = gelsy_solve(m, rhs, tol)
    resid = float(np.linalg.norm(m @ x - rhs))
    return LstsqResult(
        solution=x,
        residual_norm=resid,
        rank_deficient=numeric_rank(m, tol).rank < m.shape[1],
    )


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
