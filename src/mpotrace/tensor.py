"""Dense tensor kernels: truncated SVD and tridiagonal eigensolve.

Thin deterministic wrappers around numpy/LAPACK with the truncation and
tolerance conventions used by the MPO layer. All functions are pure; inputs
are never mutated.

LAPACK is reached through numpy alone. scipy is imported only when gesdd fails
to converge and ``truncated_svd`` falls back to gesvd: importing it costs more
than twice numpy's own import, which every command and pool worker would pay
at cold start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_TOL * sigma_max never count toward the rank of a
# matrix; keeps isometry checks clean in the presence of roundoff.
RANK_TOL = 1e-14


@dataclass(frozen=True)
class SvdResult:
    """Truncated singular value decomposition m ~ u @ diag(s) @ vh."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    discarded_weight: float  # sum of squared discarded singular values


def truncated_svd(m, max_rank):
    """SVD of a matrix keeping at most ``max_rank`` singular triplets.

    Numerically zero singular values (below RANK_TOL * sigma_max) are dropped
    as well; at least one triplet is always kept so downstream bond extents
    stay >= 1. The returned ``u`` and ``vh`` own their memory, so an MPO
    site built from one does not keep the discarded triplets alive. A matrix
    holding nan or inf raises ArithmeticError.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("truncated_svd expects a matrix")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        if not np.all(np.isfinite(m)):  # gesdd fails on nan, and gesvd would fail too
            raise ArithmeticError("SVD of a matrix holding nan or inf") from None
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        import scipy.linalg

        u, s, vh = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    # gesdd turns inf into nan without failing, s[0] included; s is descending,
    # so an overflow shows in s[0] too
    if not math.isfinite(s[0]):
        raise ArithmeticError("SVD gave non-finite singular values")
    k = kept_rank(s, max_rank)
    discarded = float(np.sum(s[k:] ** 2))
    if k < s.size:  # a kept slice would pin the whole factor for as long as it lives
        u, vh = u[:, :k].copy(), vh[:k].copy()
    return SvdResult(u, s[:k], vh, discarded)


def kept_rank(s, max_rank):
    """How many of the descending singular values ``s`` a truncation keeps.

    At most ``max_rank``, none below RANK_TOL * s[0], and at least one.
    """
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0.0 else 0
    return min(int(max_rank), max(rank, 1), s.size)


def symtridiag_eig(alpha, beta):
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    ``alpha`` is the diagonal, ``beta`` the off-diagonal (one entry shorter).
    Returns eigenvalues ascending and the orthogonal eigenvector matrix with
    eigenvectors as columns. The matrix is a Lanczos matrix of at most a few
    hundred rows, solved once per run, so its dense eigensolve is cheap (about
    0.5 ms at K=70 on one BLAS thread).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("alpha must be a non-empty 1-d array")
    if beta.shape != (alpha.size - 1,):
        raise ValueError("beta must have length len(alpha) - 1")
    if alpha.size == 1:
        return alpha.copy(), np.ones((1, 1))
    return np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
