import numpy as np
import pytest
import scipy.linalg

from mpotrace import tensor


def test_truncated_svd_full_rank_kept():
    res = tensor.truncated_svd(np.diag([3.0, 2.0, 1.0]), 3)
    assert np.allclose(res.s, [3.0, 2.0, 1.0])
    assert res.discarded_weight == 0.0


def test_truncated_svd_discards_weight():
    res = tensor.truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(res.s, [3.0, 2.0])
    assert res.discarded_weight == pytest.approx(1.0)


def test_truncated_svd_reconstructs_hermitian_matrix():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = a + a.conj().T
    res = tensor.truncated_svd(m, 8)
    recon = (res.u * res.s) @ res.vh
    assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)
    k = res.s.size
    assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(k)) <= 1e-10
    assert np.linalg.norm(res.vh @ res.vh.conj().T - np.eye(k)) <= 1e-10


def test_truncated_svd_rejects_bad_rank():
    with pytest.raises(ValueError):
        tensor.truncated_svd(np.eye(2), 0)


def test_truncated_svd_zero_matrix_keeps_one_triplet():
    res = tensor.truncated_svd(np.zeros((3, 4)), 2)
    assert res.s.shape == (1,)
    assert res.s[0] == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_truncated_svd_parseval(seed):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(2, 65), rng.integers(2, 65))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    res = tensor.truncated_svd(m, min(shape))
    total = np.sum(res.s ** 2) + res.discarded_weight
    fro2 = np.linalg.norm(m) ** 2
    assert total == pytest.approx(fro2, rel=1e-10)
    # no truncation happened, so nothing may be reported as discarded
    assert res.discarded_weight <= 1e-20 * fro2


@pytest.mark.parametrize("rank, max_rank", [(20, 8), (5, 8)])
def test_truncated_svd_gesvd_fallback_matches_scipy(monkeypatch, rank, max_rank):
    rng = np.random.default_rng(rank)
    m = (rng.standard_normal((30, rank)) * 0.7 ** np.arange(rank)) @ rng.standard_normal((rank, 20))
    u_ref, s_ref, vh_ref = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")

    def gesdd_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(tensor.np.linalg, "svd", gesdd_fails)
    res = tensor.truncated_svd(m, max_rank)
    k = min(rank, max_rank)  # the keep rule: the cap, and no numerically zero value
    assert res.s.size == k == tensor.kept_rank(s_ref, max_rank)
    assert res.u.shape == (30, k) and res.vh.shape == (k, 20)
    np.testing.assert_allclose(res.s, s_ref[:k], rtol=1e-12)
    assert res.discarded_weight == pytest.approx(np.sum(s_ref[k:] ** 2), rel=1e-12, abs=1e-24)
    ref = (u_ref[:, :k] * s_ref[:k]) @ vh_ref[:k]
    assert np.linalg.norm((res.u * res.s) @ res.vh - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_truncated_svd_of_a_non_finite_matrix_is_an_arithmetic_error(bad):
    m = np.ones((4, 3))
    m[2, 1] = bad
    with pytest.raises(ArithmeticError):
        tensor.truncated_svd(m, 2)


def test_symtridiag_eig_1x1():
    lam, vec = tensor.symtridiag_eig([5.0], [])
    assert np.allclose(lam, [5.0])
    assert np.allclose(vec, [[1.0]])


def test_symtridiag_eig_2x2():
    lam, vec = tensor.symtridiag_eig([0.0, 0.0], [1.0])
    assert np.allclose(lam, [-1.0, 1.0])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for col, expected in zip(vec.T, ([inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2])):
        overlap = abs(np.dot(col, expected))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_symtridiag_eig_3x3_closed_form():
    lam, _ = tensor.symtridiag_eig([2.0, 2.0, 2.0], [1.0, 1.0])
    expected = [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
    assert np.allclose(lam, expected, atol=1e-12)


def test_symtridiag_eig_rejects_empty():
    with pytest.raises(ValueError):
        tensor.symtridiag_eig([], [])
    with pytest.raises(ValueError):
        tensor.symtridiag_eig([1.0, 2.0], [])


@pytest.mark.parametrize("k", [3, 20, 200])
def test_symtridiag_eig_residual(k):
    rng = np.random.default_rng(k)
    alpha = rng.standard_normal(k)
    beta = rng.standard_normal(k - 1)
    lam, vec = tensor.symtridiag_eig(alpha, beta)
    t = np.diag(alpha)
    t += np.diag(beta, 1) + np.diag(beta, -1)
    scale = np.linalg.norm(t)
    assert np.all(np.diff(lam) >= 0.0)
    for j in range(k):
        residual = np.linalg.norm(t @ vec[:, j] - lam[j] * vec[:, j])
        assert residual <= 1e-10 * scale
    assert np.linalg.norm(vec.T @ vec - np.eye(k)) <= 1e-10 * k


def _tridiagonal(kind, k, rng):
    if kind == "random":
        return rng.standard_normal(k), np.abs(rng.standard_normal(k - 1))
    if kind == "clustered":  # three tight clusters of diagonal values
        return rng.choice([-1.0, 0.5, 2.0], k) + 1e-9 * rng.standard_normal(k), \
            1e-3 * np.abs(rng.standard_normal(k - 1))
    return rng.standard_normal(k), np.full(k - 1, 1e-13)  # nearly diagonal


@pytest.mark.parametrize("kind", ["random", "clustered", "tiny-offdiagonal"])
@pytest.mark.parametrize("k", [2, 7, 40, 200])
def test_symtridiag_eig_matches_scipy(k, kind):
    rng = np.random.default_rng(k)
    alpha, beta = _tridiagonal(kind, k, rng)
    lam, vec = tensor.symtridiag_eig(alpha, beta)
    lam_ref, vec_ref = scipy.linalg.eigh_tridiagonal(alpha, beta)
    t_norm = np.linalg.norm(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1), 2)
    assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * t_norm
    # Single Gauss weights are ill-conditioned inside a cluster; their sums are not.
    for b in (0.1, 1.0, 10.0):
        gauss = np.sum(vec[0] ** 2 * np.exp(-b * (lam - lam[0])))
        gauss_ref = np.sum(vec_ref[0] ** 2 * np.exp(-b * (lam_ref - lam_ref[0])))
        assert gauss == pytest.approx(gauss_ref, rel=1e-12)
