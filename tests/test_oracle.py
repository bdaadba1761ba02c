import numpy as np
import pytest

from helpers import SZ, dense_lmg, reference_czz
from mpotrace import (
    BetaGrid,
    LanczosConfig,
    Mpo,
    add,
    exact_bond_cap,
    exact_observables,
    exact_spectrum,
    identity_block,
    ising_mpo,
    lmg_mpo,
    run_lanczos,
    sweep_observables,
    to_dense,
)
from mpotrace.thermal import LN2


def test_identity_spectrum():
    spec = exact_spectrum(identity_block(2).mpo)
    assert np.allclose(spec.eigenvalues, np.ones(4))


def test_pauli_string_spectrum():
    spec = exact_spectrum(ising_mpo(2, 1.0, 0.0))
    assert np.allclose(spec.eigenvalues, [-1.0, -1.0, 1.0, 1.0])


def test_lmg_small_spectrum():
    spec = exact_spectrum(lmg_mpo(2, 0.0))
    assert np.allclose(spec.eigenvalues, [-0.5, -0.5, 0.0, 0.0], atol=1e-12)


def test_spectrum_guard_and_hermiticity():
    with pytest.raises(ValueError):
        exact_spectrum(identity_block(13).mpo)
    t = np.zeros((1, 2, 2, 1))
    t[0, 0, 1, 0] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        exact_spectrum(Mpo([t]))


def test_trace_function_self_check():
    h = lmg_mpo(4, 0.7)
    spec = exact_spectrum(h)
    dense = to_dense(h)
    assert np.sum(spec.eigenvalues) == pytest.approx(np.trace(dense).real, rel=1e-10)
    assert np.sum(spec.eigenvalues ** 2) == pytest.approx(
        np.trace(dense @ dense).real, rel=1e-10)


def test_infinite_temperature_entropy():
    spec = exact_spectrum(ising_mpo(4, 1.0, 1.0))
    grid = BetaGrid.from_temperatures(np.array([1e9, 2e9]), delta_t=1e8)
    result = exact_observables(spec, grid)
    assert np.allclose(result.entropy, LN2, rtol=1e-8)


def test_single_site_closed_forms():
    h = Mpo([np.array(SZ).reshape(1, 2, 2, 1)])
    spec = exact_spectrum(h)
    grid = BetaGrid.from_temperatures(np.array([1.0]), delta_t=1.0)
    result = exact_observables(spec, grid)
    assert np.exp(result.log_z[0]) == pytest.approx(2.0 * np.cosh(1.0), rel=1e-12)
    assert result.entropy[0] == pytest.approx(0.36533385508720761, abs=1e-10)
    assert result.heat_capacity[0] == pytest.approx(0.41997434161402614, abs=1e-10)
    result.check_bounds()


def test_correlators_match_direct_sums():
    length = 4
    h = lmg_mpo(length, 0.2)
    spec = exact_spectrum(h)
    grid = BetaGrid.from_temperatures(np.array([0.5, 1.0]), delta_t=0.5)
    result = exact_observables(spec, grid, czz_sites=[(1, 3)])
    dense = dense_lmg(length, 0.2)
    evals, vecs = np.linalg.eigh(dense)
    from helpers import site_op
    zi = site_op(length, 1, SZ)
    zj = site_op(length, 3, SZ)
    for idx, t in enumerate(result.temperatures):
        beta = 1.0 / t
        p = np.exp(-beta * (evals - evals[0]))
        p /= p.sum()
        rho = (vecs * p) @ vecs.conj().T
        want = np.trace(rho @ zi @ zj).real - \
            np.trace(rho @ zi).real * np.trace(rho @ zj).real
        assert result.czz[(1, 3)][idx] == pytest.approx(want, abs=1e-10)


def _ising_with_a_field_on_site_1(length):
    """Ising plus 0.5 sz_1: no reflection maps site i to L+1-i, so the bit order shows."""
    field = [np.eye(2).reshape(1, 2, 2, 1)] * length
    field[0] = 0.5 * np.array(SZ).reshape(1, 2, 2, 1)
    return add(ising_mpo(length, 1.0, 0.7), Mpo(field))[0]


@pytest.mark.parametrize("length", [6, 7])
@pytest.mark.parametrize("family", ["ising", "lmg"])
def test_correlators_from_the_sz_diagonal_match_dense_operators(family, length):
    h = _ising_with_a_field_on_site_1(length) if family == "ising" else lmg_mpo(length, 0.3)
    spec = exact_spectrum(h)
    grid = BetaGrid.from_temperatures(np.array([0.1, 0.5, 2.0]), delta_t=0.1)
    pairs = [(1, length), (2, 3), (length - 1, 1)]
    result = exact_observables(spec, grid, czz_sites=pairs)
    want = reference_czz(spec, grid.betas, pairs)
    for pair in pairs:
        np.testing.assert_allclose(result.czz[pair], want[pair], rtol=0, atol=1e-13)


@pytest.mark.parametrize("family", ["ising", "lmg"])
def test_sweep_fidelity_at_the_exact_cap_equals_the_oracle(family):
    # both take F_T as sum sqrt(p p') over the pair's own sums: on a rule
    # that resolves the spectrum they agree to roundoff
    length = 6
    h = ising_mpo(length, 1.0, 1.0) if family == "ising" else lmg_mpo(length, 0.5)
    cfg = LanczosConfig(k_max=30, d_max=exact_bond_cap(length))
    run = run_lanczos(h, identity_block(length), cfg)
    grid = BetaGrid.from_temperatures(np.array([0.1, 0.2, 0.6, 1.0, 3.0]), delta_t=0.05)
    got = sweep_observables([run], grid, length)
    want = exact_observables(exact_spectrum(h), grid)
    np.testing.assert_allclose(got.fidelity, want.fidelity, rtol=0, atol=1e-12)
