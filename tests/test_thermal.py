import numpy as np
import pytest

from helpers import dense_ising, site_op, SZ
from mpotrace import (
    BetaGrid,
    LanczosConfig,
    Mpo,
    correlation_zz,
    dagger,
    entropy_density,
    exact_bond_cap,
    identity_block,
    identity_mpo,
    ising_mpo,
    multiply,
    partition_traces,
    projector_block,
    run_lanczos,
    sweep_observables,
    thermal_fidelity,
    to_dense,
    trace_distance_thermal,
    trace_norm,
)
from mpotrace.thermal import LN2


@pytest.fixture(scope="module")
def single_site_run():
    h = Mpo([np.array(SZ).reshape(1, 2, 2, 1)])
    return run_lanczos(h, identity_block(1), LanczosConfig(k_max=5, d_max=4))


@pytest.fixture(scope="module")
def ising6_run():
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    cfg = LanczosConfig(k_max=40, d_max=exact_bond_cap(length))
    return run_lanczos(h, identity_block(length), cfg, "ising:L=6:J=1.0:g=1.0")


def test_single_site_partition_function(single_site_run):
    log_z, f_over_z, var = partition_traces(single_site_run, [1.0])
    assert np.exp(log_z[0]) == pytest.approx(2.0 * np.cosh(1.0), rel=1e-12)
    assert f_over_z[0] == pytest.approx(-np.tanh(1.0), rel=1e-12)
    # <H^2> = 1 for H = sz, so Var H = 1 - tanh(1)^2
    assert var[0] == pytest.approx(1.0 / np.cosh(1.0) ** 2, rel=1e-12)


def test_single_site_entropy_and_heat(single_site_run):
    log_z, f_over_z, var = partition_traces(single_site_run, [1.0])
    s = entropy_density(log_z, f_over_z, 1.0, 1)[0]
    c = 1.0 ** 2 / 1 * var[0]  # c = beta^2 Var H / L
    # closed forms: s = -tanh(1) + ln(2 cosh 1), c = sech(1)^2
    assert s == pytest.approx(0.36533385508720761, abs=1e-10)
    assert c == pytest.approx(0.41997434161402614, abs=1e-10)


def test_infinite_temperature_limits(single_site_run):
    log_z, f_over_z, var = partition_traces(single_site_run, [1e-12])
    assert log_z[0] == pytest.approx(np.log(2.0), rel=1e-9)
    assert f_over_z[0] == pytest.approx(0.0, abs=1e-10)  # trace(sz)/2
    s = entropy_density(log_z, f_over_z, 1e-12, 1)[0]
    assert s == pytest.approx(LN2, rel=1e-9)
    c = 1e-12 ** 2 / 1 * var[0]
    assert c == pytest.approx(0.0, abs=1e-12)


def test_partition_traces_requires_identity_start():
    length = 3
    h = ising_mpo(length, 1.0, 1.0)
    blk = projector_block(length, [(1, 0)])
    run = run_lanczos(h, blk, LanczosConfig(k_max=8, d_max=exact_bond_cap(length)))
    with pytest.raises(ValueError, match="identity"):
        partition_traces(run, [1.0])


def test_single_site_fidelity_closed_form(single_site_run):
    got = thermal_fidelity(single_site_run, 1.0, 2.0)
    want = 2.0 * np.cosh(1.5) / np.sqrt(4.0 * np.cosh(1.0) * np.cosh(2.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_fidelity_equal_betas_is_exactly_one(single_site_run, ising6_run):
    for run in (single_site_run, ising6_run):
        assert thermal_fidelity(run, 0.7, 0.7) == 1.0


def test_trace_distance_equal_betas_is_exactly_zero(single_site_run, ising6_run):
    for run in (single_site_run, ising6_run):
        assert trace_distance_thermal(run, 0.7, 0.7) == 0.0


def test_trace_distance_pure_vs_mixed_limit(single_site_run):
    # beta0 -> inf gives the ground state, beta1 -> 0 the maximally mixed one
    got = trace_distance_thermal(single_site_run, 50.0, 1e-12)
    p = np.array([np.exp(50.0), np.exp(-50.0)])
    p /= p.sum()
    want = float(np.sum(np.abs(p - 0.5)))
    assert got == pytest.approx(want, rel=1e-10)
    assert got == pytest.approx(1.0, abs=1e-8)


def test_thermal_quantities_match_oracle(ising6_run):
    length = 6
    evals = np.linalg.eigvalsh(dense_ising(length, 1.0, 1.0))
    for t in (0.1, 0.35, 1.0):
        beta = 1.0 / t
        log_z, f_over_z, var = partition_traces(ising6_run, [beta])
        lz_want = float(np.log(np.sum(np.exp(-beta * (evals - evals[0])))) - beta * evals[0])
        p = np.exp(-beta * (evals - evals[0]))
        p /= p.sum()
        assert log_z[0] == pytest.approx(lz_want, rel=1e-8)
        assert f_over_z[0] == pytest.approx(float(p @ evals), rel=1e-8)
        assert var[0] == pytest.approx(float(p @ (evals - p @ evals) ** 2), rel=1e-8)
        b1 = 1.0 / (t + 0.1)
        dt_want = float(np.sum(np.abs(
            np.exp(-beta * evals) / np.sum(np.exp(-beta * evals))
            - np.exp(-b1 * evals) / np.sum(np.exp(-b1 * evals)))))
        assert trace_distance_thermal(ising6_run, beta, b1) == pytest.approx(
            dt_want, rel=1e-8)


def test_trace_norm_identity():
    length = 4
    eye = identity_mpo(length)
    run = run_lanczos(eye, identity_block(length),
                      LanczosConfig(k_max=4, d_max=exact_bond_cap(length)))
    assert trace_norm(run) == pytest.approx(16.0, rel=1e-10)


def test_trace_norm_unitary_pauli_string():
    h = ising_mpo(2, 1.0, 0.0)  # sx sx, unitary
    gram, _ = multiply(dagger(h), h, exact_bond_cap(2))
    run = run_lanczos(gram, identity_block(2), LanczosConfig(k_max=4, d_max=16))
    assert trace_norm(run) == pytest.approx(4.0, rel=1e-10)


def test_trace_norm_matches_dense_singular_values():
    # the sqrt integrand is not polynomial-friendly near zero, so resolve the
    # full 64-point spectrum of H^2 before comparing
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    gram, _ = multiply(dagger(h), h, exact_bond_cap(length))
    run = run_lanczos(gram, identity_block(length),
                      LanczosConfig(k_max=64, d_max=exact_bond_cap(length)))
    evals = np.linalg.eigvalsh(dense_ising(length, 1.0, 1.0))
    assert trace_norm(run) == pytest.approx(float(np.sum(np.abs(evals))), rel=1e-8)


def test_expectation_identity_part(ising6_run):
    from mpotrace import expectation
    vals = expectation([(1.0, ising6_run)], ising6_run, [0.5, 1.0, 2.0])
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_expectation_single_site_projector():
    # H = sz on one site: <P0> = e^{-beta}/(2 cosh beta), |0> being the +1 state
    h = Mpo([np.array(SZ).reshape(1, 2, 2, 1)])
    cfg = LanczosConfig(k_max=4, d_max=4)
    z_run = run_lanczos(h, identity_block(1), cfg, "single-z")
    p0 = projector_block(1, [(1, 0)])
    run0 = run_lanczos(h, p0, cfg, "single-z")
    from mpotrace import expectation
    for beta in (0.3, 1.0, 4.0):
        got = expectation([(1.0, run0)], z_run, [beta])[0]
        assert got == pytest.approx(np.exp(-beta) / (2.0 * np.cosh(beta)), rel=1e-10)


def test_expectation_mismatched_models_rejected():
    cfg = LanczosConfig(k_max=4, d_max=16)
    h1 = ising_mpo(3, 1.0, 1.0)
    h2 = ising_mpo(3, 1.0, 0.5)
    z_run = run_lanczos(h1, identity_block(3), cfg, "model-a")
    other = run_lanczos(h2, projector_block(3, [(1, 0)]), cfg, "model-b")
    from mpotrace import expectation
    with pytest.raises(ValueError, match="mismatch"):
        expectation([(1.0, other)], z_run, [1.0])


def test_projector_pair_expectation_at_infinite_temperature():
    length = 3
    h = ising_mpo(length, 1.0, 1.0)
    cfg = LanczosConfig(k_max=16, d_max=exact_bond_cap(length))
    z_run = run_lanczos(h, identity_block(length), cfg, "i3")
    blk = projector_block(length, [(1, 0), (3, 0)])
    run = run_lanczos(h, blk, cfg, "i3")
    from mpotrace import expectation
    got = expectation([(1.0, run)], z_run, [1e-12])[0]
    assert got == pytest.approx(0.25, abs=1e-9)


def test_correlation_vanishes_for_product_state():
    # J=0 thermal state is a product state, so connected correlators vanish
    length = 4
    h = ising_mpo(length, 0.0, 1.0)
    cfg = LanczosConfig(k_max=12, d_max=exact_bond_cap(length))
    vals = correlation_zz(h, 1, 3, [0.5, 1.0, 2.0], cfg)
    assert np.allclose(vals, 0.0, atol=1e-9)


def test_correlation_vanishes_at_infinite_temperature():
    length = 4
    h = ising_mpo(length, 1.0, 1.0)
    cfg = LanczosConfig(k_max=20, d_max=exact_bond_cap(length))
    vals = correlation_zz(h, 2, 3, [1e-10], cfg)
    assert vals[0] == pytest.approx(0.0, abs=1e-8)


def test_correlation_matches_dense_oracle():
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    cfg = LanczosConfig(k_max=40, d_max=exact_bond_cap(length))
    betas = np.array([1.0, 2.0])
    got = correlation_zz(h, 3, 4, betas, cfg)
    dense = dense_ising(length, 1.0, 1.0)
    evals, vecs = np.linalg.eigh(dense)
    zi = site_op(length, 3, SZ)
    zj = site_op(length, 4, SZ)
    for idx, beta in enumerate(betas):
        p = np.exp(-beta * (evals - evals[0]))
        p /= p.sum()
        d_zz = np.einsum("ij,ij->j", vecs.conj(), (zi @ zj) @ vecs).real
        d_i = np.einsum("ij,ij->j", vecs.conj(), zi @ vecs).real
        d_j = np.einsum("ij,ij->j", vecs.conj(), zj @ vecs).real
        want = float(p @ d_zz - (p @ d_i) * (p @ d_j))
        assert got[idx] == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_correlation_spin_flip_agrees_with_plain_path():
    # J-only Ising commutes with the global spin flip
    length = 4
    h = ising_mpo(length, 1.0, 0.0)
    cfg = LanczosConfig(k_max=16, d_max=exact_bond_cap(length))
    betas = np.array([0.7, 1.3])
    plain = correlation_zz(h, 2, 4, betas, cfg, symmetry="none")
    halved = correlation_zz(h, 2, 4, betas, cfg, symmetry="spin-flip")
    assert np.allclose(plain, halved, atol=1e-9)


def test_correlation_spin_flip_rejected_without_symmetry():
    h = ising_mpo(4, 1.0, 1.0)  # z-field breaks the spin flip
    cfg = LanczosConfig(k_max=8, d_max=16)
    with pytest.raises(ValueError, match="spin flip"):
        correlation_zz(h, 1, 2, [1.0], cfg, symmetry="spin-flip")


def test_correlation_site_validation():
    h = ising_mpo(4, 1.0, 1.0)
    cfg = LanczosConfig(k_max=4, d_max=8)
    with pytest.raises(ValueError):
        correlation_zz(h, 2, 2, [1.0], cfg)
    with pytest.raises(ValueError):
        correlation_zz(h, 0, 2, [1.0], cfg)


def test_heat_capacity_consistent_with_log_z_curvature(ising6_run):
    # c must equal beta^2/L d^2(ln Z)/d beta^2 (central differences)
    length = 6
    beta = 1.25
    d_beta = 1e-4
    log_z, _, var = partition_traces(ising6_run, [beta - d_beta, beta, beta + d_beta])
    curvature = (log_z[0] - 2.0 * log_z[1] + log_z[2]) / d_beta ** 2
    c_direct = beta ** 2 / length * var[1]
    assert c_direct == pytest.approx(beta ** 2 / length * curvature, rel=1e-4)


def test_entropy_monotone_in_temperature(ising6_run):
    grid = BetaGrid.from_temperatures(np.arange(0.1, 1.05, 0.05))
    result = sweep_observables(ising6_run, grid, 6)
    assert np.all(np.diff(result.entropy) >= -1e-8)
    result.check_bounds()


def test_sweep_observables_columns_consistent(ising6_run):
    grid = BetaGrid.from_temperatures(np.array([0.25, 0.5, 0.75, 1.0]))
    result = sweep_observables(ising6_run, grid, 6)
    betas = 1.0 / result.temperatures
    s_again = entropy_density(result.log_z, result.energy_density * 6, betas, 6)
    assert np.allclose(result.entropy, s_again)
    # discrete temperature derivative is plain arithmetic on the outputs
    ds = np.diff(result.entropy) / np.diff(result.temperatures)
    assert ds.shape == (3,)


def test_sweep_reads_every_beta_from_the_grid(ising6_run):
    grid = BetaGrid.from_temperatures(np.array([0.1, 0.123, 0.7, 1.9]), delta_t=0.001)
    result = sweep_observables(ising6_run, grid, 6)
    assert result.temperatures is grid.temperatures
    assert np.array_equal(result.log_z, partition_traces(ising6_run, grid.betas)[0])
    for i, (b0, b1) in enumerate(zip(grid.betas, grid.pair_betas)):
        assert result.fidelity[i] == thermal_fidelity(ising6_run, b0, b1)
        assert result.trace_distance[i] == trace_distance_thermal(ising6_run, b0, b1)


def test_beta_grid_keeps_the_requested_temperatures():
    temps = np.arange(1, 2001) * 0.001
    before = temps.copy()
    grid = BetaGrid(temps, 0.001)
    assert np.array_equal(grid.temperatures, before)
    assert np.array_equal(grid.betas, 1.0 / before)
    assert np.array_equal(grid.pair_betas, 1.0 / (before + 0.001))
    with pytest.raises(ValueError, match="read-only"):
        grid.temperatures[0] = 5.0
    temps[0] = 5.0  # the caller's array stays writable and the grid keeps its copy
    assert grid.temperatures[0] == 0.001


def test_beta_grid_validation():
    with pytest.raises(ValueError):
        BetaGrid(np.array([]), 0.1)
    with pytest.raises(ValueError):
        BetaGrid(np.array([1.0, 0.5]), 0.1)  # not increasing
    with pytest.raises(ValueError):
        BetaGrid(np.array([-1.0, 0.5]), 0.1)
    with pytest.raises(ValueError):
        BetaGrid(np.array([0.5, 1.0]), -0.1)
    with pytest.raises(ValueError):
        BetaGrid.from_temperatures(np.array([0.5, 0.2]))
    grid = BetaGrid.from_temperatures(np.array([0.2, 0.4, 0.6]))
    assert grid.delta_t == pytest.approx(0.2)
    assert np.allclose(grid.temperatures, [0.2, 0.4, 0.6])
