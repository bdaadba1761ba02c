from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    SZ,
    dense_ising,
    exact_bond_cap,
    reference_expectation,
    reference_pair_observables,
    reference_partition_traces,
    reference_shifted_gibbs,
    reference_zz_from_runs,
    site_op,
)
from mpotrace import (
    BetaGrid,
    LanczosConfig,
    Mpo,
    correlation_zz,
    dagger,
    entropy_density,
    expectation,
    identity_block,
    ising_mpo,
    lmg_mpo,
    multiply,
    partition_traces,
    projector_block,
    run_lanczos,
    sweep_observables,
    to_dense,
    trace_norm,
    zz_blocks,
    zz_from_runs,
)
from mpotrace import thermal
from mpotrace.lanczos import NumericalError, QuadratureRule
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


@pytest.fixture(scope="module")
def lmg8_run():
    # the sizes of the lmg_fields_warm benchmark workload; D=24 truncates at L=8
    cfg = LanczosConfig(k_max=40, d_max=24)
    return run_lanczos(lmg_mpo(8, 0.6), identity_block(8), cfg, "lmg:L=8:h=0.6")


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
    cfg = LanczosConfig(k_max=8, d_max=exact_bond_cap(length))
    run = run_lanczos(h, projector_block(length, [(1, 0)]), cfg)
    with pytest.raises(ValueError, match="identity"):
        partition_traces(run, [1.0])
    # a sweep point's starts must sum to a whole number of identities
    grid = BetaGrid(np.array([0.5, 1.0]), 0.1)
    pair = [run_lanczos(h, block, cfg) for block in zz_blocks(h, 1, 3)]
    for runs in ([run], [pair[0]], pair[:3]):
        with pytest.raises(ValueError, match="copies of the identity"):
            sweep_observables(runs, grid, length)
    sweep_observables(pair, grid, length).check_bounds()
    # with pairs, n is the number of pairs, not read off the weights
    identity = run_lanczos(h, identity_block(length), cfg)
    for runs in (pair + pair, pair + [identity]):
        with pytest.raises(ValueError, match="copies of the identity"):
            sweep_observables(runs, grid, length, [(1, 3)])


def _pair_observables(run, betas, pair_betas):
    """(F_T, D_T) of each pair (beta, beta') on a run's rule, from the sweep's
    per-temperature loop."""
    b0, b1 = (np.atleast_1d(np.asarray(b, dtype=float)) for b in (betas, pair_betas))
    return thermal._per_beta(run.quadrature, b0, b1)[3:]


def test_single_site_fidelity_closed_form(single_site_run):
    got = _pair_observables(single_site_run, [1.0], [2.0])[0][0]
    want = 2.0 * np.cosh(1.5) / np.sqrt(4.0 * np.cosh(1.0) * np.cosh(2.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_fidelity_equal_betas_is_exactly_one(single_site_run, ising6_run):
    for run in (single_site_run, ising6_run):
        assert _pair_observables(run, [0.7], [0.7])[0][0] == 1.0


def test_trace_distance_equal_betas_is_exactly_zero(single_site_run, ising6_run):
    for run in (single_site_run, ising6_run):
        assert _pair_observables(run, [0.7], [0.7])[1][0] == 0.0


def test_trace_distance_pure_vs_mixed_limit(single_site_run):
    # beta0 -> inf gives the ground state, beta1 -> 0 the maximally mixed one
    got = _pair_observables(single_site_run, [50.0], [1e-12])[1][0]
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
        # a near-equal partner leaves D_T as a small difference of two states
        for delta, rel in ((0.1, 1e-8), (1e-3, 1e-9)):
            b1 = 1.0 / (t + delta)
            dt_want = float(np.sum(np.abs(
                np.exp(-beta * evals) / np.sum(np.exp(-beta * evals))
                - np.exp(-b1 * evals) / np.sum(np.exp(-b1 * evals)))))
            assert _pair_observables(ising6_run, [beta], [b1])[1][0] == pytest.approx(
                dt_want, rel=rel)


def test_pair_observables_grid_matches_single_pairs(ising6_run):
    betas = np.array([10.0, 4.0, 1.3, 0.5])
    pair_betas = np.array([5.0, 4.0, 1.2, 0.25])
    fid, dist = _pair_observables(ising6_run, betas, pair_betas)
    for i, (b0, b1) in enumerate(zip(betas, pair_betas)):
        one_fid, one_dist = _pair_observables(ising6_run, [b0], [b1])
        assert fid[i] == one_fid[0] and dist[i] == one_dist[0]
    ref_fid, ref_dist = reference_pair_observables(ising6_run, betas, pair_betas)
    assert np.array_equal(fid, ref_fid) and np.array_equal(dist, ref_dist)
    # F_T = Z(mid) / sqrt(Z Z'), up to the rounding of each log Z
    log_z = [partition_traces(ising6_run, b)[0] for b in
             (betas, pair_betas, 0.5 * (betas + pair_betas))]
    np.testing.assert_allclose(fid, np.exp(log_z[2] - 0.5 * (log_z[0] + log_z[1])),
                               rtol=4 * np.finfo(float).eps * np.max(np.abs(log_z)), atol=0.0)
    assert fid[1] == 1.0 and dist[1] == 0.0


def test_pair_observables_at_equal_beta_are_exact_when_the_weights_do_not_sum_to_one(
        single_site_run):
    # a rule whose Gibbs weights sum to 1 only up to roundoff, at both betas:
    # sum sqrt(p p) alone would miss 1.0, the pair's own normalisation does not
    rng = np.random.default_rng(21)
    rule = QuadratureRule(np.sort(rng.normal(size=40)), rng.random(40))
    run = replace(single_site_run, quadrature=rule)
    betas = np.array([1.7, 0.0])
    for beta in betas:
        _, p = reference_shifted_gibbs(run, beta)
        assert np.sum(p) != 1.0 and np.sum(np.sqrt(p * p)) != 1.0
    fid, dist = _pair_observables(run, betas, betas)
    assert np.array_equal(fid, [1.0, 1.0]) and np.array_equal(dist, [0.0, 0.0])


def test_pair_observables_infinite_temperature_partner(single_site_run):
    betas = np.array([1.0, 3.0])
    fid, dist = _pair_observables(single_site_run, betas, np.zeros(2))
    want = 2.0 * np.cosh(betas / 2) / np.sqrt(2.0 * np.cosh(betas) * 2.0)
    assert fid == pytest.approx(want, rel=1e-12)
    # rho(beta) against I/2: |p0 - 1/2| + |p1 - 1/2| = tanh(beta)
    assert dist == pytest.approx(np.tanh(betas), rel=1e-12)


def _count_gibbs(monkeypatch):
    """Record the Gauss rule of every thermal._gibbs evaluation from here on."""
    calls = []
    original = thermal._gibbs

    def counting(rule, beta, *args):
        calls.append(rule)
        return original(rule, beta, *args)

    monkeypatch.setattr(thermal, "_gibbs", counting)
    return calls


def test_sweep_point_evaluates_two_gibbs_distributions_per_temperature(
        ising6_run, monkeypatch):
    # beta and its partner beta': each state is evaluated once, and the two
    # serve the moments, F_T and D_T alike
    calls = _count_gibbs(monkeypatch)
    grid = BetaGrid(np.array([0.2, 0.5, 0.9, 1.4, 2.0]), 0.05)
    sweep_observables([ising6_run], grid, 6)
    assert len(calls) == 2 * 5


def test_correlator_reads_no_identity_run_and_each_part_once_per_temperature(
        ising6_run, monkeypatch):
    # four projector parts: distinct runs, each with its own rule
    parts = [replace(ising6_run, quadrature=replace(ising6_run.quadrature)) for _ in range(4)]
    betas = np.array([0.5, 1.0, 3.0])
    calls = _count_gibbs(monkeypatch)
    zz_from_runs(parts, betas)
    assert not any(rule is ising6_run.quadrature for rule in calls)
    assert len(calls) == len(parts) * betas.size
    assert all(sum(rule is part.quadrature for rule in calls) == betas.size for part in parts)


def test_sweep_columns_equal_the_per_temperature_reference(lmg8_run):
    grid = BetaGrid(0.1 + 0.001 * np.arange(1901), 0.001)
    betas = grid.betas
    result = sweep_observables([lmg8_run], grid, 8)
    log_z, mean, var = reference_partition_traces(lmg8_run, betas)
    fid, dist = reference_pair_observables(lmg8_run, betas, grid.pair_betas)
    assert np.array_equal(result.temperatures, grid.temperatures)
    assert np.array_equal(result.log_z, log_z)
    assert np.array_equal(result.energy_density, mean / 8)
    assert np.array_equal(result.entropy, entropy_density(log_z, mean, betas, 8))
    assert np.array_equal(result.heat_capacity, betas ** 2 / 8 * var)
    assert np.array_equal(result.fidelity, fid)
    assert np.array_equal(result.trace_distance, dist)
    for got, want in zip(partition_traces(lmg8_run, betas), (log_z, mean, var)):
        assert np.array_equal(got, want)
    # the infinite-temperature partner beta' = 0
    zeros = np.zeros(betas.size)
    for got, want in zip(_pair_observables(lmg8_run, betas, zeros),
                         reference_pair_observables(lmg8_run, betas, zeros)):
        assert np.array_equal(got, want)


def test_correlators_equal_the_per_temperature_reference():
    length = 4
    h = ising_mpo(length, 1.0, 0.7)
    cfg = LanczosConfig(k_max=16, d_max=exact_bond_cap(length))
    z_run = run_lanczos(h, identity_block(length), cfg, "i4")
    runs = [run_lanczos(h, block, cfg, "i4") for block in zz_blocks(h, 2, 3)]
    betas = np.array([0.1, 0.5, 1.0, 2.0, 10.0])
    assert np.array_equal(zz_from_runs(runs, betas), reference_zz_from_runs(runs, betas))
    # a sweep point reads pair k's C_zz off runs 4k to 4k+3, and its base
    # columns off the union, whether or not the runs are labelled as pairs
    grid = BetaGrid(1.0 / betas[::-1], 0.05)
    other = [run_lanczos(h, block, cfg, "i4") for block in zz_blocks(h, 1, 4)]
    both = sweep_observables(runs + other, grid, length, [(2, 3), (1, 4)])
    for pair, pair_runs in (((2, 3), runs), ((1, 4), other)):
        assert np.array_equal(both.czz[pair], zz_from_runs(pair_runs, grid.betas))
    one, bare = (sweep_observables(runs, grid, length, pairs) for pairs in ([(2, 3)], []))
    assert list(one.czz) == [(2, 3)] and bare.czz == {}
    for name in ("log_z", "energy_density", "entropy", "heat_capacity", "fidelity",
                 "trace_distance"):
        assert np.array_equal(getattr(one, name), getattr(bare, name)), name
    parts = [(1.0, runs[0]), (-1.0, runs[1]), (0.5, runs[2])]
    assert np.array_equal(expectation(parts, z_run, betas),
                          reference_expectation(parts, z_run, betas))


@pytest.mark.parametrize("beta", [-1.0, np.inf, np.nan], ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("evaluate", [
    lambda run, b: partition_traces(run, [0.5, b]),
    lambda run, b: _pair_observables(run, [0.5, 1.0], [1.0, b]),
    lambda run, b: expectation([(1.0, run)], run, [0.5, b]),
], ids=["partition_traces", "pair_observables", "expectation"])
def test_every_thermal_function_rejects_a_bad_beta(single_site_run, evaluate, beta):
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        evaluate(single_site_run, beta)


def test_zero_quadrature_mass_is_numerical_error(single_site_run):
    nodes = single_site_run.quadrature.nodes
    run = replace(single_site_run, quadrature=QuadratureRule(nodes, np.zeros_like(nodes)))
    with pytest.raises(NumericalError, match="degenerate quadrature mass"):
        partition_traces(run, [1.0])


def test_trace_norm_identity():
    length = 4
    eye = identity_block(length).mpo
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
    with pytest.raises(ValueError, match="mismatch"):
        zz_from_runs([z_run, z_run, other, z_run], [1.0])


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


def test_zz_blocks_are_four_projectors_that_sum_to_the_identity():
    h = ising_mpo(5, 1.0, 0.0)
    blocks = zz_blocks(h, 4, 2)
    assert [b.label for b in blocks] == ["P0[2]*P0[4]", "P0[2]*P1[4]",
                                         "P1[2]*P0[4]", "P1[2]*P1[4]"]
    p00, p01, p10, p11 = (to_dense(b.mpo) for b in blocks)
    assert np.array_equal(p00 + p01 + p10 + p11, np.eye(32))
    assert np.array_equal(p00 - p01 - p10 + p11, site_op(5, 2, SZ) @ site_op(5, 4, SZ))
    # X maps P11 onto P00 and P01 onto P10
    assert [b.label for b in zz_blocks(h, 2, 4, "spin-flip")] == [
        "P0[2]*P0[4]", "P1[2]*P0[4]", "P1[2]*P0[4]", "P0[2]*P0[4]"]


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


def _assert_czz_matches_dense(length, d_max, k_max, pairs, betas, **tol):
    h = ising_mpo(length, 1.0, 1.0)
    cfg = LanczosConfig(k_max=k_max, d_max=d_max)
    betas = np.array(betas)
    evals, vecs = np.linalg.eigh(dense_ising(length, 1.0, 1.0))
    for i, j in pairs:
        got = correlation_zz(h, i, j, betas, cfg)
        zi = site_op(length, i, SZ)
        zj = site_op(length, j, SZ)
        d_zz = np.einsum("ij,ij->j", vecs.conj(), (zi @ zj) @ vecs).real
        d_i = np.einsum("ij,ij->j", vecs.conj(), zi @ vecs).real
        d_j = np.einsum("ij,ij->j", vecs.conj(), zj @ vecs).real
        for idx, beta in enumerate(betas):
            p = np.exp(-beta * (evals - evals[0]))
            p /= p.sum()
            want = float(p @ d_zz - (p @ d_i) * (p @ d_j))
            assert got[idx] == pytest.approx(want, **tol), (i, j, beta)


def test_correlation_matches_dense_oracle():
    _assert_czz_matches_dense(6, exact_bond_cap(6), 40, [(3, 4)], [1.0, 2.0],
                              rel=1e-6, abs=1e-9)
    # truncated runs at T=0.2: each part is normalised by the sum of all four
    _assert_czz_matches_dense(8, 16, 30, [(4, 5), (3, 6)], [5.0], abs=5e-3)


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
    grid = BetaGrid.from_temperatures(np.arange(0.1, 1.05, 0.05), delta_t=0.05)
    result = sweep_observables([ising6_run], grid, 6)
    assert np.all(np.diff(result.entropy) >= -1e-8)
    result.check_bounds()


def test_sweep_observables_columns_consistent(ising6_run):
    grid = BetaGrid.from_temperatures(np.array([0.25, 0.5, 0.75, 1.0]), delta_t=0.25)
    result = sweep_observables([ising6_run], grid, 6)
    betas = 1.0 / result.temperatures
    s_again = entropy_density(result.log_z, result.energy_density * 6, betas, 6)
    assert np.allclose(result.entropy, s_again)
    # discrete temperature derivative is plain arithmetic on the outputs
    ds = np.diff(result.entropy) / np.diff(result.temperatures)
    assert ds.shape == (3,)


def test_sweep_reads_every_beta_from_the_grid(ising6_run):
    grid = BetaGrid.from_temperatures(np.array([0.1, 0.123, 0.7, 1.9]), delta_t=0.001)
    result = sweep_observables([ising6_run], grid, 6)
    assert result.temperatures is grid.temperatures
    assert np.array_equal(result.log_z, partition_traces(ising6_run, grid.betas)[0])
    for i, (b0, b1) in enumerate(zip(grid.betas, grid.pair_betas)):
        fid, dist = _pair_observables(ising6_run, [b0], [b1])
        assert result.fidelity[i] == fid[0]
        assert result.trace_distance[i] == dist[0]


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
        BetaGrid(np.array([0.5, 1.0]), np.inf)
    with pytest.raises(ValueError):
        BetaGrid.from_temperatures(np.array([0.5, 0.2]), 0.1)
    with pytest.raises(ValueError, match="1/T overflows"):
        BetaGrid(np.array([1e-310, 1.0]), 0.1)
    with pytest.raises(ValueError, match="T \\+ delta_t overflows"):
        BetaGrid(np.array([1.0, 1e308]), 1e308)
    grid = BetaGrid.from_temperatures(np.array([0.2, 0.4, 0.6]), 0.2)
    assert np.allclose(grid.temperatures, [0.2, 0.4, 0.6])
