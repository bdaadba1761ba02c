import numpy as np
import pytest

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
