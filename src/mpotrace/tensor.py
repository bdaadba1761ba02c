"""Dense tensor kernels: truncated SVD and tridiagonal eigensolve.

Thin deterministic wrappers around numpy/LAPACK with the truncation and
tolerance conventions used by the MPO layer. All functions are pure; inputs
are never mutated.

Truncation keeps singular values by discarded weight (``kept_rank``): the
fewest leading values, up to a cap, whose dropped tail holds at most
``DISCARD_EPS`` (machine epsilon) of the squared Frobenius norm. Beyond what
the cap cuts, a factorisation then loses at most sqrt(DISCARD_EPS), about
1.5e-8, of its matrix's norm in relative Frobenius error. Such a tail carries
no accuracy, yet every value kept costs gesdd and QR work downstream
(Schollwoeck, Ann. Phys. 326, 96 (2011)).

LAPACK is reached through numpy alone. scipy is imported only when gesdd fails
to converge and ``truncated_svd`` falls back to gesvd: importing it costs more
than twice numpy's own import, which every command and pool worker would pay
at cold start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A truncation may drop a tail of singular values that holds at most this
# share of sum(s^2): one rounding unit of the weight (machine epsilon).
DISCARD_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SvdResult:
    """Truncated singular value decomposition m ~ u @ diag(s) @ vh."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    discarded_weight: float  # sum of squared discarded singular values


def truncated_svd(m, max_rank):
    """SVD of a matrix keeping at most ``max_rank`` singular triplets.

    Below the cap, ``kept_rank`` also drops the tail that holds at most
    DISCARD_EPS of sum(s^2), so the kept triplets reproduce the matrix to
    sqrt(DISCARD_EPS) of its norm beyond the cap's own truncation. At least
    one triplet is always kept so downstream bond extents stay >= 1, and
    every dropped value counts in ``discarded_weight``. The returned ``u``
    and ``vh`` own their memory, so an MPO site built from one does not keep
    the discarded triplets alive. A matrix holding nan or inf raises
    ArithmeticError.
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

    The fewest leading values, at most ``max_rank`` and at least one, whose
    dropped tail holds sum_{j>=k} s_j^2 <= DISCARD_EPS * sum(s^2). The weights
    are (s/s[0])^2, so a matrix of large norm cannot overflow them.

    Most calls keep m = min(max_rank, n) values without summing the tail:
    each weight is at most 1, so sum(w) <= n, and a weight w_{m-1} >
    DISCARD_EPS * n alone outweighs the tail that dropping it would allow.
    """
    s = np.asarray(s)
    if not s[0] > 0.0:
        return 1
    m = min(int(max_rank), s.size)
    r = s[m - 1] / s[0]
    if r * r > DISCARD_EPS * s.size:
        return m
    w = (s / s[0]) ** 2
    tail = np.cumsum(w[::-1])[::-1]  # tail[k] = sum(w[k:]), summed from the smallest up
    rank = int(np.count_nonzero(tail > DISCARD_EPS * tail[0]))
    return min(int(max_rank), max(rank, 1))


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
