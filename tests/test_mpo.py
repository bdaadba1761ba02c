import struct
import tracemalloc

import numpy as np
import pytest

from helpers import (
    ID2,
    SX,
    SY,
    SZ,
    bond_parities,
    dense_compress,
    dense_ising,
    dense_lmg,
    dm_chain_mpo,
    random_graded_mpo,
    random_hermitian_mpo,
    random_mpo,
)
from mpotrace import (
    Mpo,
    add,
    compress,
    dagger,
    frobenius_norm,
    inner_product,
    ising_mpo,
    lmg_mpo,
    load_mpo,
    multiply,
    save_mpo,
    scale,
    to_dense,
)
from mpotrace import (LanczosConfig, identity_block, mpo, projector_block, run_lanczos, tensor,
                      zz_blocks)


def test_identity_dense():
    assert np.allclose(to_dense(identity_block(1).mpo), np.eye(2))
    assert np.allclose(to_dense(identity_block(2).mpo), np.eye(4))


def test_identity_trace_and_norm():
    assert inner_product(identity_block(3).mpo, identity_block(3).mpo) == pytest.approx(8.0)
    assert frobenius_norm(identity_block(4).mpo) == pytest.approx(4.0)
    assert frobenius_norm(identity_block(6).mpo) == pytest.approx(8.0)
    assert identity_block(5).mpo.max_bond == 1


def test_inner_product_identity():
    assert inner_product(identity_block(5).mpo, identity_block(5).mpo) == pytest.approx(32.0)


def test_inner_product_traceless_hamiltonian():
    h = ising_mpo(2, 1.0, 0.0)
    assert inner_product(identity_block(2).mpo, h) == pytest.approx(0.0, abs=1e-14)
    # <H, H> = trace(sx sx x sx sx) = trace(I_4) = 4
    assert inner_product(h, h) == pytest.approx(4.0)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(identity_block(2).mpo, identity_block(3).mpo)


@pytest.mark.parametrize("length", [1, 6])
@pytest.mark.parametrize("dtypes", ["real", "complex", "real-operator"])
def test_expectation_is_the_inner_product_with_the_product(length, dtypes):
    rng = np.random.default_rng(71 + length)
    u, v = (random_mpo(rng, length, 5, complex_entries=dtypes != "real") for _ in range(2))
    a = random_mpo(rng, length, 3, complex_entries=dtypes == "complex")
    want = inner_product(u, multiply(a, v)[0])
    assert abs(mpo.expectation(u, a, v) - want) <= 1e-12 * abs(want)


def test_expectation_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        mpo.expectation(identity_block(3).mpo, ising_mpo(2, 1.0, 1.0), identity_block(3).mpo)


_SHIFTED = {
    "ising": (ising_mpo(6, 1.0, 0.7), False),
    "lmg": (lmg_mpo(6, 0.4), False),
    "dm-chain": (dm_chain_mpo(5, 1.0, 0.7, 0.5), False),
    "ising-L2": (ising_mpo(2, 1.0, 0.7), False),
    "random-hermitian": (random_hermitian_mpo(np.random.default_rng(72), 5, 3), True),
    "random-hermitian-L2": (random_hermitian_mpo(np.random.default_rng(73), 2, 3), True),
    "random-hermitian-L1": (random_hermitian_mpo(np.random.default_rng(74), 1, 1), False),
}


@pytest.mark.parametrize("name", list(_SHIFTED))
def test_shift_adds_a_multiple_of_the_identity_at_the_own_bond(name):
    a, grows = _SHIFTED[name]
    shiftable, k = mpo.identity_channel(a)
    assert shiftable.bond_dims == [b + grows for b in a.bond_dims]
    dense = to_dense(a)
    np.testing.assert_array_equal(to_dense(shiftable), dense)  # the channel is appended as 0 I
    eye = np.eye(dense.shape[0])
    for c in (0.0, -1.7, 0.25 + 0.5j):
        shifted = mpo.shift(shiftable, k, c)
        assert shifted.bond_dims == shiftable.bond_dims
        want = dense + c * eye
        error = np.max(np.abs(to_dense(shifted) - want))
        assert error <= np.finfo(float).eps * np.max(np.abs(want))


def test_frobenius_norm_examples():
    assert frobenius_norm(scale(0.0, identity_block(3).mpo)) == 0.0
    # H = sx sx + g (sz I + I sz): cross terms traceless, trace H^2 = 4 + 2*4 = 12
    h = ising_mpo(2, 1.0, 1.0)
    assert frobenius_norm(h) == pytest.approx(np.sqrt(12.0), rel=1e-12)


def test_scale_examples():
    eye3, eye4 = identity_block(3).mpo, identity_block(4).mpo
    assert inner_product(eye4, scale(0.0, eye4)) == pytest.approx(0.0)
    assert inner_product(eye3, scale(2.0, eye3)) == pytest.approx(16.0)
    h = ising_mpo(3, 1.0, 0.7)
    unit = scale(1.0 / frobenius_norm(h), h)
    assert frobenius_norm(unit) == pytest.approx(1.0, abs=1e-12)
    assert unit.bond_dims == h.bond_dims


def test_add_cancellation():
    zero, report = add(identity_block(3).mpo, scale(-1.0, identity_block(3).mpo))
    assert frobenius_norm(zero) == pytest.approx(0.0, abs=1e-14)
    assert report.total_discarded == 0.0


def test_add_doubling():
    two, _ = add(identity_block(4).mpo, identity_block(4).mpo)
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
    prod, report = multiply(a, identity_block(5).mpo)
    assert prod.bond_dims == a.bond_dims
    assert report.total_discarded == 0.0
    assert np.allclose(to_dense(prod), to_dense(a))


def test_multiply_involution():
    h = ising_mpo(2, 1.0, 0.0)  # sx sx
    sq, _ = multiply(h, h)
    assert np.allclose(to_dense(sq), np.eye(4))
    assert inner_product(identity_block(2).mpo, sq) == pytest.approx(4.0)


def test_multiply_lmg_identity():
    h = lmg_mpo(2, 0.0)
    prod, _ = multiply(h, identity_block(2).mpo, 9)
    sx2 = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    expected = -(np.eye(4) + sx2) / 4.0
    assert np.allclose(to_dense(prod), expected)
    assert inner_product(identity_block(2).mpo, prod) == pytest.approx(-1.0)


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
    out, report = compress(identity_block(4).mpo, 1)
    assert out.max_bond == 1
    assert report.total_discarded == 0.0
    assert np.allclose(to_dense(out), np.eye(16))


def test_compress_exact_hamiltonian_unchanged():
    h = ising_mpo(8, 1.0, 1.0)
    out, report = compress(h, 3)
    dense = to_dense(h)
    assert np.linalg.norm(to_dense(out) - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.all(report.discarded_weights <= 1e-20)


@pytest.mark.parametrize("length", [1, 6])  # one site: no internal bond for either sweep
def test_compress_under_cap_is_exact(length):
    rng = np.random.default_rng(21)
    u = random_mpo(rng, length, 8)
    values = [t.copy() for t in u.tensors]
    out, report = compress(u, 8)
    dense = to_dense(u)
    assert np.linalg.norm(to_dense(out) - dense) <= 1e-10 * np.linalg.norm(dense)
    assert report.discarded_weights.shape == (length - 1,)
    assert np.all(report.discarded_weights <= 1e-20 * np.linalg.norm(dense) ** 2)
    assert out.max_bond <= 8
    assert all(np.array_equal(t, v) for t, v in zip(u.tensors, values))


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
    truncated, _ = add(u, v, d_max=4)
    assert truncated.max_bond <= 4


@pytest.mark.parametrize("length", [2, 12, 40])
def test_relative_distance_of_shipped_hamiltonians_from_adjoint(length):
    for h in (ising_mpo(length, 1.0, 1.0), lmg_mpo(length, 0.3)):
        assert mpo.relative_distance(h, dagger(h)) <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_relative_distance_matches_dense(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(2, 7))
    a = random_mpo(rng, length, 3)
    c = random_mpo(rng, length, 2)
    dense_a = to_dense(a)
    for b in (random_mpo(rng, length, 2), add(a, scale(1e-4, c))[0], a):
        want = np.linalg.norm(dense_a - to_dense(b)) / np.linalg.norm(dense_a)
        assert mpo.relative_distance(a, b) == pytest.approx(want, rel=1e-10, abs=1e-14)


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
        to_dense(identity_block(15).mpo)
    # guard is configurable
    assert to_dense(identity_block(3).mpo, guard=3).shape == (8, 8)


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
    path = tmp_path / "op.mpo"
    for u, dtype in ((random_mpo(rng, 4, 3), np.complex128), (lmg_mpo(4, 0.3), np.float64)):
        save_mpo(u, path)
        v = load_mpo(path)
        assert v.length == u.length
        for a, b in zip(u.tensors, v.tensors):
            assert a.shape == b.shape
            assert b.dtype == dtype
            assert np.array_equal(a, b)


def test_serialization_rejects_truncated_file(tmp_path):
    u = random_mpo(np.random.default_rng(32), 3, 2)
    path = tmp_path / "op.mpo"
    save_mpo(u, path)
    data = path.read_bytes()
    for cut in (14, 12 + 16 * u.length + 5):  # inside the shapes, inside the data
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_mpo(path)
    # one site of 1 x 65535 x 65535 x 1 declares 69 GB of data, which is not there
    path.write_bytes(data[:8] + struct.pack("<I", 1) + struct.pack("<IIII", 1, 65535, 65535, 1)
                     + data[12 + 16 * u.length:])
    with pytest.raises(ValueError, match="truncated MPO container"):
        load_mpo(path)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mpo"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ValueError):
        load_mpo(path)


# ---------------------------------------------------------------------------
# parity-blocked compression against the one-sector reference sweep

def _counted_compress(u, d_max, monkeypatch):
    """compress(u, d_max) and the number of tensor.truncated_svd calls it made."""
    calls = [0]
    svd = tensor.truncated_svd

    def counted(m, max_rank):
        calls[0] += 1
        return svd(m, max_rank)

    with monkeypatch.context() as patch:
        patch.setattr(tensor, "truncated_svd", counted)
        out, report = compress(u, d_max)
    return out, report, calls[0]


def _assert_matches_reference(u, d_max, out, report):
    ref, ref_discarded = dense_compress(u, d_max)
    assert out.bond_dims == ref.bond_dims
    # bonds left untruncated discard roundoff only, far below this floor
    floor = 1e-24 * frobenius_norm(u) ** 2
    np.testing.assert_allclose(report.discarded_weights, ref_discarded, rtol=1e-9, atol=floor)
    dense = to_dense(ref)
    assert np.linalg.norm(to_dense(out) - dense) <= 1e-10 * np.linalg.norm(dense)


def _power(h, k):
    """h^k, through compressions whose cap never binds: each drops only a tail
    below machine epsilon of its bond's weight."""
    out = h
    for _ in range(k - 1):
        out, _ = compress(multiply(h, out)[0], 10 ** 6)
    return out


@pytest.fixture(scope="module")
def graded_inputs():
    """Parity-graded operators and caps at which each one really truncates.

    Every cap is at or above the split threshold and cuts its bonds between
    distinct singular values (relative gaps of 1e-7 and more), so the
    truncation is unique and the split must reproduce the reference.
    """
    length = 10
    ising = ising_mpo(length, 1.0, 0.7)
    lmg = lmg_mpo(length, 0.3)

    def zz_part(*states):
        """sum of P_a[3] P_b[6] over the given (a, b): graded, bond 2."""
        first, second = (projector_block(length, [(3, a), (6, b)]).mpo for a, b in states)
        return add(first, second)[0]

    zz_pos = zz_part((0, 0), (1, 1))  # the aligned part of sz_3 sz_6
    zz_neg = zz_part((1, 0), (0, 1))  # and the anti-aligned part
    return {
        "lmg^8": (_power(lmg, 8), 36),
        "ising^8": (_power(ising, 8), 36),
        "ising^6+lmg^6": (add(_power(ising, 6), _power(lmg, 6))[0], 32),
        "ising^6*zz_pos": (multiply(_power(ising, 6), zz_pos)[0], 32),
        "lmg^6*zz_neg": (multiply(_power(lmg, 6), zz_neg)[0], 36),
        "random_complex": (random_graded_mpo(np.random.default_rng(41), 8, 40), 32),
    }


@pytest.mark.parametrize("name", ["lmg^8", "ising^8", "ising^6+lmg^6", "ising^6*zz_pos",
                                  "lmg^6*zz_neg", "random_complex"])
def test_compress_split_matches_reference(graded_inputs, name, monkeypatch):
    u, d_max = graded_inputs[name]
    assert bond_parities(u.tensors) is not None
    out, report, n_svd = _counted_compress(u, d_max, monkeypatch)
    _assert_matches_reference(u, d_max, out, report)
    assert report.total_discarded > 1e-12 * frobenius_norm(u) ** 2  # the cap truncates
    assert n_svd > u.length - 1  # bonds split into two blocks


def _schmidt_pair(values):
    """Two-site MPO sum_k s_k P_k (x) P_k over the Paulis I, Z, X, Y.

    Each P_k (x) P_k / 2 has unit norm and they are orthonormal, so the one
    bond's singular values are ``values``. I and Z are even, X and Y odd: the
    bond splits into two sectors of two values each.
    """
    paulis = np.array([ID2, SZ, SX, SY])
    left = (np.asarray(values)[:, None, None] * paulis / np.sqrt(2.0)).transpose(1, 2, 0)
    right = paulis / np.sqrt(2.0)
    return Mpo([left[None], right[..., None]])


def test_compress_drops_a_planted_tail_below_eps_and_reports_it(monkeypatch):
    bulk = np.array([1.0, 0.5, 0.3])
    tail = np.sqrt(1e-3 * tensor.DISCARD_EPS * np.sum(bulk ** 2))  # held by Y (x) Y, odd
    u = _schmidt_pair(np.append(bulk, tail))
    assert bond_parities(u.tensors) is not None
    out, report, n_svd = _counted_compress(u, 32, monkeypatch)
    assert n_svd == 2  # one SVD per sector
    assert out.bond_dims == [3]
    assert report.discarded_weights[0] == pytest.approx(tail ** 2, rel=1e-5)
    kept = to_dense(_schmidt_pair(np.append(bulk, 0.0)))
    assert np.linalg.norm(to_dense(out) - kept) <= 1e-14


def test_merged_keep_applies_the_rule_to_both_sectors_at_once():
    # each tail holds 1e-18 of the union's weight, yet most of its own sector's
    even, odd = np.array([1.0]), np.array([1e-8, 1e-9])
    assert tensor.kept_rank(odd, 60) == 2
    assert list(mpo._merged_keep([even, odd], 60)) == [1, 0]
    assert list(mpo._merged_keep([np.array([3.0, 2.0, 1.0]), np.array([2.5, 0.5])], 3)) == [2, 1]


def test_compressed_graded_chain_splits_again(monkeypatch):
    lmg2, _ = multiply(lmg_mpo(8, 0.3), lmg_mpo(8, 0.3))
    u, _ = multiply(lmg2, lmg2)
    for _ in range(2):
        out, report, n_svd = _counted_compress(u, 32, monkeypatch)
        _assert_matches_reference(u, 32, out, report)
        assert n_svd > u.length - 1
        assert bond_parities(out.tensors) is not None
        u = out


def test_alpha_zero_ising_vector_is_graded(monkeypatch):
    # The first Lanczos step on a traceless H has alpha = 0 exactly, so
    # U_2 = (H U_1 - 0 * U_1) / beta carries an all-zero bond index; its
    # products must still split.
    length = 8
    h = ising_mpo(length, 1.0, 1.0)
    u1 = scale(1.0 / frobenius_norm(identity_block(length).mpo), identity_block(length).mpo)
    w, _ = multiply(h, u1)
    alpha = inner_product(u1, w).real
    assert alpha == 0.0
    u2, _ = add(w, scale(-alpha, u1))
    assert not np.any(u2.tensors[0][..., -1])  # the all-zero index
    hu2, _ = multiply(h, u2)
    h2u2, _ = multiply(h, hu2)
    # scanned raw, the rows that the all-zero index feeds break the parity of
    # their site; compress scans them carried, where they are exact zeros
    assert bond_parities(h2u2.tensors) is None
    out, report, n_svd = _counted_compress(h2u2, 32, monkeypatch)
    _assert_matches_reference(h2u2, 32, out, report)
    assert n_svd > length - 1  # bonds split into two blocks


def test_ungraded_chain_takes_one_sector(monkeypatch):
    u = random_mpo(np.random.default_rng(43), 6, 40)
    assert bond_parities(u.tensors) is None
    out, report, n_svd = _counted_compress(u, 32, monkeypatch)
    assert n_svd == u.length - 1
    ref, ref_discarded = dense_compress(u, 32)
    # the reference forms Q; compress forms M = C X (its _svd_sweep), which
    # rounds and picks singular-vector phases its own way
    _assert_same_compression((out, report), (ref, mpo.CompressionReport(ref_discarded)),
                             exact=False)


def test_every_compression_of_an_ising_run_splits(monkeypatch):
    length = 10
    per_call = []

    def compress_counted(u, d_max):
        out, report, n_svd = _counted_compress(u, d_max, monkeypatch)
        if d_max == 32:  # the recurrence's; the Hermiticity check compresses at bond 6
            per_call.append(n_svd)
        return out, report

    monkeypatch.setattr(mpo, "compress", compress_counted)
    run_lanczos(ising_mpo(length, 1.0, 1.0), identity_block(length), LanczosConfig(20, 32))
    assert per_call
    assert all(n > length - 1 for n in per_call)


def test_split_compression_scans_each_carried_site_once(monkeypatch):
    # the labels are read off R times the site, once per site, not off each
    # term's block of it
    length = 8
    rng = np.random.default_rng(64)
    a = lmg_mpo(length, 0.3)
    u, v = (random_graded_mpo(rng, length, 16, complex_entries=False) for _ in range(2))
    step = mpo.step_operator(a, mpo.identity_channel(a)[1], u, v)
    scans = []
    scan = mpo._scan_site

    def counted(*args):
        scans.append(args[0].shape)
        return scan(*args)

    monkeypatch.setattr(mpo, "_scan_site", counted)
    _, report, n_svd = _counted_compress(step, 32, monkeypatch)
    assert report.total_discarded > 0.0
    assert n_svd > length - 1  # bonds split into two blocks
    assert len(scans) == length, scans


# ---------------------------------------------------------------------------
# a pending sum or product compresses as the operator it stands for

def _pending_compressions(monkeypatch, calls):
    """Every capped call in ``calls()``: compress of the pending operand, compress
    of the operator it builds, and whether the first split its bonds.

    The two compressions run different kernels: a sum's inner sites are
    carried block by block, which need not round as one GEMM over the
    zero-filled built site does on every BLAS, the SVD sweep applies a
    product in factored form where the built operator is one chain, and a
    step reads alpha in its sweep."""
    seen = []
    compress_ = mpo.compress

    def checked(u, d_max):
        if not isinstance(u, mpo._Pending):  # the Hermiticity check's plain difference
            return compress_(u, d_max)
        out, report, n_svd = _counted_compress(u, d_max, monkeypatch)
        # a Lanczos step stands for A shifted by the alpha that its sweep read
        built = (u.shifted(-report.alpha) if u.channel is not None else u).build()
        seen.append(((out, report), compress_(built, d_max), n_svd > u.length - 1))
        return out, report

    with monkeypatch.context() as patch:
        patch.setattr(mpo, "compress", checked)
        calls()
    return seen


def _assert_same_compression(got, want, exact=True):
    """Two (Mpo, CompressionReport) pairs hold equal arrays, dtypes included.

    Not ``exact``: equal bonds and dtypes, and values equal to roundoff.
    """
    (out, report), (ref, ref_report) = got, want
    assert out.bond_dims == ref.bond_dims
    assert [t.dtype for t in out.tensors] == [r.dtype for r in ref.tensors]
    if exact:
        for t, r in zip(out.tensors, ref.tensors):
            assert np.array_equal(t, r)
        assert np.array_equal(report.discarded_weights, ref_report.discarded_weights)
    else:
        assert mpo.relative_distance(ref, out) <= 1e-13
        floor = 1e-24 * frobenius_norm(ref) ** 2
        np.testing.assert_allclose(report.discarded_weights, ref_report.discarded_weights,
                                   rtol=1e-9, atol=floor)


def _random_capped_calls():
    rng = np.random.default_rng(61)
    for length, bond, complex_entries in ((8, 40, False), (6, 33, True)):
        a = lmg_mpo(length, 0.4)
        u = random_graded_mpo(rng, length, bond, complex_entries=complex_entries)
        v = random_graded_mpo(rng, length, bond, complex_entries=complex_entries)
        multiply(a, u, bond)
        multiply(u, v, bond)
        add(u, v, bond)


def _ungraded_capped_calls():
    rng = np.random.default_rng(62)
    graded = random_graded_mpo(rng, 6, 12)
    ungraded = random_mpo(rng, 6, 12)
    for a, b in ((ungraded, graded), (graded, ungraded)):
        multiply(a, b, 32)
        add(a, b, 20)


def _alpha_zero_sum_calls():
    # A step's sum w - alpha * U with alpha = 0 exactly, as on a traceless H
    # from the identity: the scaled operand is all zero, so every one of its
    # bond indices is dead.
    u = scale(1.0 / frobenius_norm(identity_block(8).mpo), identity_block(8).mpo)
    hu, _ = multiply(_ISING, u)
    alpha = inner_product(u, hu).real
    assert alpha == 0.0
    h2u, _ = multiply(_ISING, hu)
    h3u, _ = multiply(_ISING, h2u)
    add(h3u, scale(-alpha, h2u), 32)  # bond 27 + 9 > 32


_ISING = ising_mpo(8, 1.0, 1.0)
_CAPPED_CALLS = {
    "ising-identity": lambda: run_lanczos(_ISING, identity_block(8), LanczosConfig(10, 32)),
    "ising-alpha-zero-sum": _alpha_zero_sum_calls,
    "ising-projector": lambda: run_lanczos(_ISING, zz_blocks(_ISING, 3, 6)[0],
                                           LanczosConfig(10, 32)),
    "lmg-identity": lambda: run_lanczos(lmg_mpo(8, 0.3), identity_block(8),
                                        LanczosConfig(10, 32)),
    "random-graded": _random_capped_calls,
    "ungraded-operand": _ungraded_capped_calls,
}


@pytest.mark.parametrize("name", list(_CAPPED_CALLS))
def test_pending_compresses_as_its_built_operator(monkeypatch, name):
    seen = _pending_compressions(monkeypatch, _CAPPED_CALLS[name])
    assert len(seen) == 4 if name == "ungraded-operand" else len(seen) > 0
    for got, want, split in seen:
        _assert_same_compression(got, want, exact=False)
        assert split == (name != "ungraded-operand")


def test_chain_ungraded_at_a_middle_site_compresses_as_one_sector(monkeypatch):
    rng = np.random.default_rng(63)
    tensors = [t.copy() for t in random_graded_mpo(rng, 8, 40).tensors]
    site = tensors[4]
    site[tuple(np.argwhere(site == 0)[0])] = 1.0  # one entry of the wrong parity
    u = Mpo(tensors)
    assert bond_parities(u.tensors[:4]) is not None
    assert bond_parities(u.tensors) is None
    out, report, n_svd = _counted_compress(u, 32, monkeypatch)
    assert n_svd == u.length - 1  # one SVD per bond
    assert report.total_discarded > 0.0
    with monkeypatch.context() as patch:
        patch.setattr(mpo, "_SECTOR_MIN_D", 33)  # never split at this cap
        _assert_same_compression((out, report), compress(u, 32))


# ---------------------------------------------------------------------------
# memory: compress builds a capped sum or product one site at a time

def _capped_call(length, bond, name, complex_entries=False):
    """A product or sum of bond-``bond`` chains, as a function of ``d_max``.

    At ``d_max=bond`` the cap truncates it: graded inputs take the split
    path at bond 60 and the one-sector path at bond 24. "multiply_add" is
    the Lanczos step (A - alpha I) u + v; its exact result takes the alpha
    that its compression at ``bond`` reads.
    """
    rng = np.random.default_rng(length)
    a = lmg_mpo(length, 0.2)
    u = random_graded_mpo(rng, length, bond, complex_entries=complex_entries)
    v = random_graded_mpo(rng, length, bond, complex_entries=complex_entries)
    if name == "multiply":
        return lambda d_max=None: multiply(a, u, d_max)
    if name == "multiply_add":
        step = mpo.step_operator(a, mpo.identity_channel(a)[1], u, v)
        alpha = compress(step, bond)[1].alpha
        return lambda d_max=None: (compress(step, d_max) if d_max
                                   else (step.shifted(-alpha).build(), None))
    return lambda d_max=None: add(u, v, d_max)


_CAPPED = pytest.mark.parametrize("length,bond,name", [
    (12, 60, "multiply"), (12, 60, "add"), (12, 60, "multiply_add"),
    (8, 24, "multiply"), (8, 24, "add"), (8, 24, "multiply_add")])


def _owner(t):
    while isinstance(t.base, np.ndarray):
        t = t.base
    return t


@_CAPPED
def test_capped_call_peaks_near_its_uncompressed_result(length, bond, name):
    call = _capped_call(length, bond, name)
    uncompressed = sum(t.nbytes for t in call()[0].tensors)
    tracemalloc.start()
    try:
        call(bond)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Beside its R factors, a call holds one site of the QR sweep with its
    # blocks, or one Y of the SVD sweep: split, 0.29-0.35x; in one sector,
    # 0.41-0.57x. Holding Q for the SVD sweep read 0.55-0.59x split and
    # 0.98-1.15x in one sector, and building every site before the sweep
    # 1.06-1.10x.
    bound = 0.8 if bond >= mpo._SECTOR_MIN_D else 1.5
    assert peak <= bound * uncompressed, peak / uncompressed


@pytest.mark.parametrize("d_max", [16, 40])  # one-sector and split path
@pytest.mark.parametrize("graded", [True, False])
def test_compress_leaves_a_plain_input_untouched(graded, d_max):
    rng = np.random.default_rng(51)
    u = random_graded_mpo(rng, 8, 48) if graded else random_mpo(rng, 8, 48)
    assert (bond_parities(u.tensors) is not None) == graded
    before = list(u.tensors)
    values = [t.copy() for t in before]
    compress(u, d_max)
    assert len(u.tensors) == len(before)
    assert all(t is b for t, b in zip(u.tensors, before))
    for t, v in zip(u.tensors, values):
        assert np.array_equal(t, v)


@_CAPPED
def test_sums_and_products_are_plain_mpos(length, bond, name):
    call = _capped_call(length, bond, name)
    for d_max in (None, bond, 10 ** 6):  # exact, compressed, under the cap
        out, _ = call(d_max)
        assert type(out) is Mpo, d_max


@_CAPPED
def test_capped_call_is_compress_of_the_exact_result(length, bond, name):
    call = _capped_call(length, bond, name, complex_entries=True)
    got = call(bond)
    # a sum's inner sites are carried block by block, which need not round as
    # one GEMM over the zero-filled built site does on every BLAS, and the SVD
    # sweep applies a product in factored form, not as the built chain
    _assert_same_compression(got, compress(call()[0], bond), exact=False)


@pytest.mark.parametrize("complex_entries", [False, True])
@_CAPPED
def test_compressed_tensors_own_their_memory(length, bond, name, complex_entries):
    # a kept slice of an SVD factor would pin the whole factor
    out, report = _capped_call(length, bond, name, complex_entries)(bond)
    assert report.total_discarded > 0.0
    for i, t in enumerate(out.tensors):
        assert _owner(t).nbytes == t.nbytes, i


# ---------------------------------------------------------------------------
# the SVD sweep never forms Q: it applies the uncompressed sites to X

def _pending_terms(name, length, complex_entries):
    rng = np.random.default_rng(71 + length)

    def chain(bond):
        return random_graded_mpo(rng, length, bond, complex_entries=complex_entries)

    a, u, v = chain(3), chain(5), chain(4)
    return mpo._Pending({"chain": [(u,)], "product": [(a, u)], "step": [(a, u), (v,)]}[name])


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("name", ["chain", "product", "step"])
@pytest.mark.parametrize("length", [1, 2, 4])
def test_apply_right_is_the_built_site_times_x(length, name, complex_entries):
    op = _pending_terms(name, length, complex_entries)
    built = op.build()
    labels = bond_parities(built.tensors)
    assert labels is not None
    rng = np.random.default_rng(72)
    for i in range(length):
        site = built.tensors[i]
        x = rng.standard_normal((site.shape[3], 3))
        # split: X maps each parity of the bond to the same parity only
        split = x * (labels[i][:, None] == np.array([0, 1, 0])[None, :])
        for xs in (x, split):
            want = np.tensordot(site, xs, axes=(3, 0))
            got = op.apply_right(i, xs)
            assert got.shape == want.shape and got.dtype == want.dtype, i
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), i


_QR_CALLS = {
    "split": lambda: compress(multiply(lmg_mpo(8, 0.3), _power(lmg_mpo(8, 0.3), 4))[0], 32),
    "one-sector": lambda: compress(random_mpo(np.random.default_rng(73), 6, 20), 12),
    "lanczos-step": lambda: _capped_call(8, 40, "multiply_add")(40),
}


@pytest.mark.parametrize("name", list(_QR_CALLS))
def test_compress_forms_no_q(monkeypatch, name):
    modes = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(mpo.np.linalg, "qr", spy)
    _, report = _QR_CALLS[name]()
    assert report.total_discarded > 0.0
    assert modes and set(modes) == {"r"}, modes


@_CAPPED
def test_compressed_sites_right_of_the_first_are_right_orthonormal(length, bond, name):
    out, _ = _capped_call(length, bond, name)(bond)
    for i, t in enumerate(out.tensors[1:], 1):
        m = t.reshape(t.shape[0], -1)
        assert np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= 1e-13, i
