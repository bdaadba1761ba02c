import numpy as np
import pytest

from helpers import SX, SZ, dense_ising, dense_lmg, kron_chain
from mpotrace import (
    ModelSpec,
    add,
    frobenius_norm,
    ising_mpo,
    lmg_mpo,
    projector_block,
    scale,
    to_dense,
    trace,
    zz_decomposition,
)


def test_ising_single_coupling():
    assert np.allclose(to_dense(ising_mpo(2, 1.0, 0.0)), np.kron(SX, SX))


def test_ising_field_only():
    dense = to_dense(ising_mpo(2, 0.0, 1.0))
    assert np.allclose(dense, np.diag([2.0, 0.0, 0.0, -2.0]))


def test_ising_dense_oracle():
    for length in (2, 3, 5):
        dense = to_dense(ising_mpo(length, 1.3, -0.4))
        assert np.linalg.norm(dense - dense_ising(length, 1.3, -0.4)) <= 1e-12 * 2 ** length


def test_ising_l8_traces():
    h = ising_mpo(8, 1.0, 1.0)
    assert h.max_bond == 3
    assert trace(h) == pytest.approx(0.0, abs=1e-12)
    # (L-1) coupling strings + L field strings, each with trace(sigma^2)=2^L
    assert frobenius_norm(h) ** 2 == pytest.approx(2 ** 8 * (7 + 8), rel=1e-12)


def test_lmg_small_dense():
    sx2 = np.kron(SX, SX)
    assert np.allclose(to_dense(lmg_mpo(2, 0.0)), -(np.eye(4) + sx2) / 4.0)
    expected = -(np.eye(4) + sx2) / 4.0 - 0.5 * (np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))
    assert np.allclose(to_dense(lmg_mpo(2, 1.0)), expected)
    assert trace(lmg_mpo(2, 1.0)) == pytest.approx(-1.0)


def test_lmg_dense_oracle():
    for length, h in ((3, 0.2), (4, 0.2), (6, 1.2)):
        dense = to_dense(lmg_mpo(length, h))
        assert np.linalg.norm(dense - dense_lmg(length, h)) <= 1e-12 * 2 ** length
        assert np.linalg.norm(dense - dense.conj().T) <= 1e-12


@pytest.mark.parametrize("length", [3, 4, 6, 9])
def test_hamiltonian_bond_dimension_three(length):
    assert ising_mpo(length, 1.0, 1.0).max_bond == 3
    assert lmg_mpo(length, 0.2).max_bond == 3


def test_model_length_guard():
    with pytest.raises(ValueError):
        ising_mpo(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        lmg_mpo(1, 0.2)


def test_lmg_ground_state_anchor():
    dense = to_dense(lmg_mpo(4, 1.2))
    ours = np.linalg.eigvalsh(dense)[0]
    reference = np.linalg.eigvalsh(dense_lmg(4, 1.2))[0]
    assert ours == pytest.approx(reference, rel=1e-12)


def test_projector_block_single_site():
    block = projector_block(3, [(2, 0)])
    assert block.mpo.max_bond == 1
    assert trace(block.mpo) == pytest.approx(4.0)


def test_projector_block_two_sites():
    block = projector_block(4, [(1, 0), (3, 1)])
    assert trace(block.mpo) == pytest.approx(4.0)


def test_projector_block_is_projector():
    block = projector_block(5, [(2, 0), (4, 1)])
    dense = to_dense(block.mpo)
    assert np.allclose(dense @ dense, dense)
    assert np.allclose(dense, dense.conj().T)


def test_projector_block_sum_is_zz_positive_part():
    a = projector_block(2, [(1, 0), (2, 0)])
    b = projector_block(2, [(1, 1), (2, 1)])
    combined, _ = add(a.mpo, b.mpo)
    assert np.allclose(to_dense(combined), np.diag([1.0, 0.0, 0.0, 1.0]))


def test_projector_block_errors():
    with pytest.raises(ValueError):
        projector_block(3, [(0, 0)])
    with pytest.raises(ValueError):
        projector_block(3, [(1, 0), (1, 1)])
    with pytest.raises(ValueError):
        projector_block(3, [(2, 7)])


def test_zz_decomposition_difference():
    pos, neg = zz_decomposition(2, 1, 2)
    diff, _ = add(pos.mpo, scale(-1.0, neg.mpo))
    assert np.allclose(to_dense(diff), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_zz_decomposition_projectors():
    pos, neg = zz_decomposition(3, 1, 3)
    for block in (pos, neg):
        dense = to_dense(block.mpo)
        assert np.allclose(dense @ dense, dense)
        assert trace(block.mpo) == pytest.approx(4.0)
        assert block.mpo.max_bond <= 2


def test_zz_decomposition_matches_dense_product():
    length = 5
    pos, neg = zz_decomposition(length, 2, 4)
    diff, _ = add(pos.mpo, scale(-1.0, neg.mpo))
    from helpers import site_op
    expected = site_op(length, 2, SZ) @ site_op(length, 4, SZ)
    assert np.linalg.norm(to_dense(diff) - expected) <= 1e-12 * 2 ** length


def test_single_site_z_decomposition():
    p0 = projector_block(2, [(1, 0)])
    p1 = projector_block(2, [(1, 1)])
    diff, _ = add(p0.mpo, scale(-1.0, p1.mpo))
    assert np.allclose(to_dense(diff), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_zz_decomposition_errors():
    with pytest.raises(ValueError):
        zz_decomposition(4, 3, 3)
    with pytest.raises(ValueError):
        zz_decomposition(4, 0, 2)
    with pytest.raises(ValueError):
        zz_decomposition(4, 2, 5)


def test_model_spec_build_and_label():
    spec = ModelSpec("ising", 4, j_coupling=1.0, g_field=0.5)
    assert np.allclose(to_dense(spec.build()), dense_ising(4, 1.0, 0.5))
    assert spec.label() == "ising:L=4:J=1.0:g=0.5"
    assert spec.param_text() == "J=1.0;g=0.5"
    lmg = ModelSpec("lmg", 4, h_field=0.2)
    assert lmg.param_text() == "h=0.2"
    with pytest.raises(ValueError):
        ModelSpec("xy", 4)
    with pytest.raises(ValueError):
        ModelSpec("lmg", 4, h_field=float("inf"))
