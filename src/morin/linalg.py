"""Dense numeric helpers with explicit rank diagnostics.

Thin wrappers around LAPACK (through numpy and scipy) for the three
operations the geometry code needs: numeric rank with a gap diagnostic,
determinants, and least squares with rank-deficiency reporting. Only the
least-squares solve needs scipy; :func:`gelsy_solve` imports
``scipy.linalg`` on its first call, so importing this module loads no
scipy. Matrices are capped at 64 rows/columns; everything here is small
and dense, and the cap turns an upstream logic error (a runaway system
builder) into a clear failure.

Rank decisions follow the usual SVD convention: singular values above
``tol * sigma_max`` count. The quality of that decision is reported, not
assumed: ``gap_ratio`` is the ratio of the last accepted to the first
rejected singular value (infinite when nothing was rejected), so callers
can refuse to trust borderline verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def gelsy_solve(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """A minimizer of ``|a @ x - b|`` from LAPACK's complete orthogonal
    factorization with column pivoting (gelsy), singular values below
    ``tol * sigma_max`` treated as zero. ``scipy.linalg`` is imported here,
    on the first call, because most commands never solve least squares and
    the import is slow (0.22-0.29 s in a fresh process on a 2-CPU machine,
    scipy 1.17)."""
    import scipy.linalg

    return scipy.linalg.lstsq(a, b, cond=tol, lapack_driver="gelsy")[0]
