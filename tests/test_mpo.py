import numpy as np
import pytest

from helpers import dense_ising, dense_lmg, random_mpo
from mpotrace import (
    Mpo,
    add,
    compress,
    dagger,
    frobenius_norm,
    identity_mpo,
    inner_product,
    ising_mpo,
    lmg_mpo,
    load_mpo,
    multiply,
    save_mpo,
    scale,
    to_dense,
    trace,
)


def test_identity_dense():
    assert np.allclose(to_dense(identity_mpo(1)), np.eye(2))
    assert np.allclose(to_dense(identity_mpo(2)), np.eye(4))


def test_identity_trace_and_norm():
    assert trace(identity_mpo(3)) == pytest.approx(8.0)
    assert frobenius_norm(identity_mpo(4)) == pytest.approx(4.0)
    assert frobenius_norm(identity_mpo(6)) == pytest.approx(8.0)
    assert identity_mpo(5).max_bond == 1


def test_inner_product_identity():
    assert inner_product(identity_mpo(5), identity_mpo(5)) == pytest.approx(32.0)


def test_inner_product_traceless_hamiltonian():
    h = ising_mpo(2, 1.0, 0.0)
    assert inner_product(identity_mpo(2), h) == pytest.approx(0.0, abs=1e-14)
    # <H, H> = trace(sx sx x sx sx) = trace(I_4) = 4
    assert inner_product(h, h) == pytest.approx(4.0)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(identity_mpo(2), identity_mpo(3))


def test_frobenius_norm_examples():
    assert frobenius_norm(scale(0.0, identity_mpo(3))) == 0.0
    # H = sx sx + g (sz I + I sz): cross terms traceless, trace H^2 = 4 + 2*4 = 12
    h = ising_mpo(2, 1.0, 1.0)
    assert frobenius_norm(h) == pytest.approx(np.sqrt(12.0), rel=1e-12)


def test_scale_examples():
    assert trace(scale(0.0, identity_mpo(4))) == pytest.approx(0.0)
    assert trace(scale(2.0, identity_mpo(3))) == pytest.approx(16.0)
    h = ising_mpo(3, 1.0, 0.7)
    unit = scale(1.0 / frobenius_norm(h), h)
    assert frobenius_norm(unit) == pytest.approx(1.0, abs=1e-12)
    assert unit.bond_dims == h.bond_dims


def test_add_cancellation():
    zero, report = add(identity_mpo(3), scale(-1.0, identity_mpo(3)))
    assert frobenius_norm(zero) == pytest.approx(0.0, abs=1e-14)
    assert report.total_discarded == 0.0


def test_add_doubling():
    two, _ = add(identity_mpo(4), identity_mpo(4))
    assert frobenius_norm(two) == pytest.approx(2.0 * 2.0 ** 2)


def test_add_recovers_field_part():
    length = 4
    h_full = ising_mpo(length, 1.0, 1.0)
    h_j = ising_mpo(length, 1.0, 0.0)
    diff, _ = add(h_full, scale(-1.0, h_j))
    expected = dense_ising(length, 0.0, 1.0)
    assert np.linalg.norm(to_dense(diff) - expected) <= 1e-10 * np.linalg.norm(expected)


def test_multiply_identity_keeps_bonds():
    a = ising_mpo(5, 1.0, 0.3)
    prod, report = multiply(a, identity_mpo(5))
    assert prod.bond_dims == a.bond_dims
    assert report.total_discarded == 0.0
    assert np.allclose(to_dense(prod), to_dense(a))


def test_multiply_involution():
    h = ising_mpo(2, 1.0, 0.0)  # sx sx
    sq, _ = multiply(h, h)
    assert np.allclose(to_dense(sq), np.eye(4))
    assert trace(sq) == pytest.approx(4.0)


def test_multiply_lmg_identity():
    h = lmg_mpo(2, 0.0)
    prod, _ = multiply(h, identity_mpo(2), 9)
    sx2 = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    expected = -(np.eye(4) + sx2) / 4.0
    assert np.allclose(to_dense(prod), expected)
    assert trace(prod) == pytest.approx(-1.0)


def test_dense_additivity_and_multiplicativity():
    rng = np.random.default_rng(11)
    for length in (2, 4, 6):
        u = random_mpo(rng, length, 3)
        v = random_mpo(rng, length, 2)
        s, _ = add(u, v)
        assert np.linalg.norm(to_dense(s) - (to_dense(u) + to_dense(v))) <= \
            1e-10 * np.linalg.norm(to_dense(s))
        p, _ = multiply(u, v)
        assert np.linalg.norm(to_dense(p) - to_dense(u) @ to_dense(v)) <= \
            1e-10 * max(np.linalg.norm(to_dense(p)), 1e-300)


def test_dense_additivity_long_chain():
    rng = np.random.default_rng(12)
    u = random_mpo(rng, 10, 2)
    v = random_mpo(rng, 10, 2)
    s, _ = add(u, v)
    dense = to_dense(s)
    assert np.linalg.norm(dense - (to_dense(u) + to_dense(v))) <= 1e-10 * np.linalg.norm(dense)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(3)
    u = random_mpo(rng, 4, 3)
    v = random_mpo(rng, 4, 3)
    assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))
    uu = inner_product(u, u)
    assert uu.real >= 0.0
    assert abs(uu.imag) <= 1e-10 * abs(uu)


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    u = random_mpo(rng, 5, 3)
    v = random_mpo(rng, 5, 3)
    s, _ = add(u, v)
    assert frobenius_norm(s) <= frobenius_norm(u) + frobenius_norm(v) + 1e-10


def test_compress_identity_at_cap_one():
    out, report = compress(identity_mpo(4), 1)
    assert out.max_bond == 1
    assert report.total_discarded == 0.0
    assert np.allclose(to_dense(out), np.eye(16))


def test_compress_exact_hamiltonian_unchanged():
    h = ising_mpo(8, 1.0, 1.0)
    out, report = compress(h, 3)
    dense = to_dense(h)
    assert np.linalg.norm(to_dense(out) - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.all(report.discarded_weights <= 1e-20)


def test_compress_under_cap_is_exact():
    rng = np.random.default_rng(21)
    u = random_mpo(rng, 6, 8)
    out, report = compress(u, 8)
    dense = to_dense(u)
    assert np.linalg.norm(to_dense(out) - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.all(report.discarded_weights <= 1e-20 * np.linalg.norm(dense) ** 2)
    assert out.max_bond <= 8


def test_compress_distance_nonincreasing_in_cap():
    rng = np.random.default_rng(9)
    u = random_mpo(rng, 6, 8)
    dense = to_dense(u)
    errors = []
    for cap in (1, 2, 4, 8):
        out, _ = compress(u, cap)
        errors.append(np.linalg.norm(to_dense(out) - dense))
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + 1e-10


def test_compress_reports_discarded_weight():
    rng = np.random.default_rng(13)
    u = random_mpo(rng, 5, 6)
    dense = to_dense(u)
    out, report = compress(u, 2)
    # discarded weight tracks the squared error of the optimal sweep
    err2 = np.linalg.norm(to_dense(out) - dense) ** 2
    assert report.total_discarded == pytest.approx(err2, rel=1e-6)


def test_add_compresses_only_over_cap():
    rng = np.random.default_rng(17)
    u = random_mpo(rng, 5, 3)
    v = random_mpo(rng, 5, 3)
    exact, report = add(u, v, d_max=6)
    assert report.total_discarded == 0.0
    truncated, report2 = add(u, v, d_max=4)
    assert truncated.max_bond <= 4
    assert report2.max_bond <= 4


def test_to_dense_examples():
    h = ising_mpo(2, 1.0, 1.0)
    expected = np.array([
        [2.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, -2.0],
    ])
    assert np.allclose(to_dense(h), expected)
    lmg = lmg_mpo(2, 0.0)
    sx2 = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert np.allclose(to_dense(lmg), -(np.eye(4) + sx2) / 4.0)


def test_to_dense_guard():
    with pytest.raises(ValueError):
        to_dense(identity_mpo(15))
    # guard is configurable
    assert to_dense(identity_mpo(3), guard=3).shape == (8, 8)


def test_to_dense_hermitian_inputs():
    for h in (ising_mpo(5, 1.0, 0.8), lmg_mpo(5, 0.4)):
        dense = to_dense(h)
        assert np.linalg.norm(dense - dense.conj().T) <= 1e-12 * np.linalg.norm(dense)


def test_dagger_matches_dense_adjoint():
    rng = np.random.default_rng(23)
    u = random_mpo(rng, 4, 3)
    assert np.allclose(to_dense(dagger(u)), to_dense(u).conj().T)


def test_dense_lmg_oracle_agreement():
    assert np.allclose(to_dense(lmg_mpo(5, 0.3)), dense_lmg(5, 0.3))


def test_mpo_validation():
    with pytest.raises(ValueError):
        Mpo([])
    with pytest.raises(ValueError):
        Mpo([np.zeros((2, 2, 2, 1))])  # bad left boundary
    with pytest.raises(ValueError):
        Mpo([np.zeros((1, 2, 2, 3)), np.zeros((2, 2, 2, 1))])  # bond mismatch


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    u = random_mpo(rng, 4, 3)
    path = tmp_path / "op.mpo"
    save_mpo(u, path)
    v = load_mpo(path)
    assert v.length == u.length
    for a, b in zip(u.tensors, v.tensors):
        assert a.shape == b.shape
        assert np.array_equal(np.asarray(a, dtype=complex), b)


def test_serialization_rejects_truncated_file(tmp_path):
    u = random_mpo(np.random.default_rng(32), 3, 2)
    path = tmp_path / "op.mpo"
    save_mpo(u, path)
    data = path.read_bytes()
    for cut in (14, 12 + 16 * u.length + 5):  # inside the shapes, inside the data
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_mpo(path)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mpo"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ValueError):
        load_mpo(path)
