import json
import struct

import numpy as np
import pytest

from helpers import random_hermitian_mpo, random_mpo
from mpotrace import (
    LanczosConfig,
    Mpo,
    NumericalError,
    evaluate,
    exact_bond_cap,
    identity_block,
    identity_mpo,
    ising_mpo,
    load_run,
    run_lanczos,
    save_run,
    scale,
    to_dense,
    trace,
)
from mpotrace.models import StartingBlock


def untruncated_cfg(length, k_max):
    return LanczosConfig(k_max=k_max, d_max=exact_bond_cap(length))


def test_scaled_identity_breaks_down_immediately():
    length = 4
    a = scale(2.0, identity_mpo(length))
    run = run_lanczos(a, identity_block(length), untruncated_cfg(length, 5))
    assert run.projection.termination == "breakdown"
    assert run.projection.k == 1
    assert run.projection.alphas[0] == pytest.approx(2.0, rel=1e-12)
    assert run.projection.beta1 == pytest.approx(2.0 ** (length / 2))
    assert run.quadrature.nodes == pytest.approx([2.0])
    assert run.quadrature.weights == pytest.approx([2.0 ** length])


def test_two_step_invariant_subspace():
    # H = sx sx squares to the identity, so the Krylov space closes at k=2
    h = ising_mpo(2, 1.0, 0.0)
    run = run_lanczos(h, identity_block(2), untruncated_cfg(2, 6))
    assert run.projection.k == 2
    assert run.projection.termination == "breakdown"
    assert run.projection.alphas[0] == pytest.approx(0.0, abs=1e-14)
    assert run.quadrature.nodes == pytest.approx([-1.0, 1.0])
    assert run.quadrature.weights == pytest.approx([2.0, 2.0])


def test_weights_sum_to_squared_start_norm():
    rng = np.random.default_rng(2)
    h = random_hermitian_mpo(rng, 4, 3)
    run = run_lanczos(h, identity_block(4), untruncated_cfg(4, 10))
    assert np.sum(run.quadrature.weights) == pytest.approx(
        run.projection.beta1 ** 2, rel=1e-10)
    assert np.all(run.quadrature.weights >= 0.0)


def test_nodes_within_dense_spectrum():
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    run = run_lanczos(h, identity_block(length), untruncated_cfg(length, 30))
    evals = np.linalg.eigvalsh(to_dense(h))
    assert run.quadrature.nodes.min() >= evals[0] - 1e-8
    assert run.quadrature.nodes.max() <= evals[-1] + 1e-8


@pytest.mark.parametrize("seed,k", [(0, 2), (1, 3), (2, 4), (3, 5)])
def test_gauss_exactness_small(seed, k):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(2, 5))
    h = random_hermitian_mpo(rng, length, 2)
    run = run_lanczos(h, identity_block(length), untruncated_cfg(length, k))
    evals = np.linalg.eigvalsh(to_dense(h))
    for m in range(2 * k):
        got = evaluate(run, lambda lam, m=m: lam ** m)
        want = float(np.sum(evals ** m))
        scale_m = float(np.sum(np.abs(evals) ** m))
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-12 * scale_m)


def test_gauss_fails_generically_beyond_exactness_degree():
    # seed chosen to exhibit the generic failure at degree 2K
    rng = np.random.default_rng(42)
    h = random_hermitian_mpo(rng, 3, 2)
    k = 3
    run = run_lanczos(h, identity_block(3), untruncated_cfg(3, k))
    assert run.projection.k == k
    evals = np.linalg.eigvalsh(to_dense(h))
    m = 2 * k
    got = evaluate(run, lambda lam: lam ** m)
    want = float(np.sum(evals ** m))
    assert abs(got - want) > 1e-8 * abs(want)


def test_evaluate_constant_and_identity():
    length = 5
    a = scale(2.0, identity_mpo(length))
    run = run_lanczos(a, identity_block(length), untruncated_cfg(length, 4))
    assert evaluate(run, lambda lam: np.ones_like(lam)) == pytest.approx(2.0 ** length)
    assert evaluate(run, lambda lam: lam) == pytest.approx(2.0 * 2 ** length)


def test_evaluate_matches_dense_exponentials():
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    run = run_lanczos(h, identity_block(length), untruncated_cfg(length, 40))
    evals = np.linalg.eigvalsh(to_dense(h))
    for b in (0.5, 1.0, 2.0):
        want = float(np.sum(np.exp(-b * evals)))
        assert evaluate(run, lambda lam: np.exp(-b * lam)) == pytest.approx(want, rel=1e-8)


def test_evaluate_scalar_function_fallback():
    import math
    length = 3
    a = scale(0.5, identity_mpo(length))
    run = run_lanczos(a, identity_block(length), untruncated_cfg(length, 3))
    got = evaluate(run, lambda lam: math.exp(-lam))
    assert got == pytest.approx(2 ** length * np.exp(-0.5), rel=1e-12)


def test_evaluate_rejects_nonfinite_function():
    length = 3
    h = ising_mpo(length, 1.0, 1.0)
    run = run_lanczos(h, identity_block(length), untruncated_cfg(length, 8))
    with pytest.raises(NumericalError, match="node"):
        evaluate(run, lambda lam: np.log(lam - 1e6))


def test_projector_start_measures_block_mass():
    from mpotrace import projector_block
    length = 4
    h = ising_mpo(length, 1.0, 1.0)
    blk = projector_block(length, [(2, 0)])
    run = run_lanczos(h, blk, untruncated_cfg(length, 20))
    # f == 1 integrates the squared start norm = trace of the projector
    assert evaluate(run, lambda lam: np.ones_like(lam)) == pytest.approx(
        trace(blk.mpo).real, rel=1e-10)


def test_zero_starting_block_rejected():
    length = 3
    h = ising_mpo(length, 1.0, 1.0)
    zero = StartingBlock(scale(0.0, identity_mpo(length)), "zero")
    with pytest.raises(ValueError, match="starting block"):
        run_lanczos(h, zero, untruncated_cfg(length, 4))


def test_non_hermitian_input_rejected():
    rng = np.random.default_rng(8)
    a = random_mpo(rng, 3, 2)  # generic, not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        run_lanczos(a, identity_block(3), untruncated_cfg(3, 4))


def test_truncation_is_logged():
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    cfg = LanczosConfig(k_max=12, d_max=4)
    run = run_lanczos(h, identity_block(length), cfg)
    assert run.compression_log.shape == (run.projection.k,)
    assert run.compression_log.max() > 0.0  # D=4 must truncate


def test_determinism_bitwise():
    length = 5
    h = ising_mpo(length, 1.0, 0.7)
    cfg = LanczosConfig(k_max=15, d_max=8)
    a = run_lanczos(h, identity_block(length), cfg)
    b = run_lanczos(h, identity_block(length), cfg)
    assert np.array_equal(a.projection.alphas, b.projection.alphas)
    assert np.array_equal(a.projection.betas, b.projection.betas)
    assert np.array_equal(a.quadrature.nodes, b.quadrature.nodes)
    assert np.array_equal(a.quadrature.weights, b.quadrature.weights)


def test_config_validation():
    with pytest.raises(ValueError):
        LanczosConfig(k_max=0, d_max=4)
    with pytest.raises(ValueError):
        LanczosConfig(k_max=4, d_max=0)
    with pytest.raises(ValueError):
        LanczosConfig(k_max=4, d_max=4, breakdown_tol=2.0)


def test_run_serialization_round_trip(tmp_path):
    length = 5
    h = ising_mpo(length, 1.0, 0.3)
    cfg = LanczosConfig(k_max=10, d_max=8)
    run = run_lanczos(h, identity_block(length), cfg, model_label="ising-test")
    path = tmp_path / "run.lrun"
    save_run(run, path, extra_header={"note": "test"})
    loaded, header = load_run(path)
    assert header["note"] == "test"
    assert loaded.model_label == "ising-test"
    assert loaded.start_label == "identity"
    assert loaded.projection.termination == run.projection.termination
    assert np.array_equal(loaded.projection.alphas, run.projection.alphas)
    assert np.array_equal(loaded.projection.betas, run.projection.betas)
    assert loaded.projection.beta1 == run.projection.beta1
    assert np.array_equal(loaded.compression_log, run.compression_log)
    assert np.array_equal(loaded.quadrature.nodes, run.quadrature.nodes)
    assert np.array_equal(loaded.quadrature.weights, run.quadrature.weights)


def test_run_serialization_rejects_truncated_or_incomplete(tmp_path):
    run = run_lanczos(ising_mpo(4, 1.0, 0.5), identity_block(4), LanczosConfig(k_max=6, d_max=8))
    path = tmp_path / "run.lrun"
    save_run(run, path)
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[8:12])
    path.write_bytes(data[:12 + blob_len + 3])  # cut inside beta1
    with pytest.raises(ValueError, match="truncated"):
        load_run(path)
    blob = json.dumps({"format_version": 1, "k": run.projection.k}).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len:])
    with pytest.raises(ValueError, match="termination"):
        load_run(path)


def test_run_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lrun"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError):
        load_run(path)


def test_alpha_hermiticity_guard():
    # imaginary diagonal coefficients cannot arise from Hermitian input, and
    # non-Hermitian input is rejected before the recurrence starts
    t = np.zeros((1, 2, 2, 1), dtype=complex)
    t[0, 0, 1, 0] = 1.0  # raising operator, not Hermitian
    a = Mpo([t, np.eye(2).reshape(1, 2, 2, 1)])
    with pytest.raises(ValueError, match="Hermitian"):
        run_lanczos(a, identity_block(2), LanczosConfig(k_max=3, d_max=4))
