"""Dense exact-diagonalization reference for every observable.

Ground truth for tests at small chain length: all thermal quantities are
direct sums over the full spectrum, with the same minimum-shift log-domain
conventions as the quadrature path but none of its machinery. The heat
capacity is the centred variance beta^2/L sum_n p_n (E_n - <H>)^2, as in
``thermal.sweep_observables``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mpo
from .thermal import ThermalSweepResult, fidelity

# 2^12 = 4096-dimensional eigensolve is the default ceiling.
SPECTRUM_GUARD = 12


@dataclass(frozen=True)
class DenseSpectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors
    length: int


def exact_spectrum(h, guard=SPECTRUM_GUARD):
    """Full eigendecomposition of the densely materialized operator."""
    if h.length > guard:
        raise ValueError(f"refusing dense eigensolve at L={h.length} > guard={guard}")
    m = mpo.to_dense(h)
    nrm = float(np.linalg.norm(m))
    if nrm > 0.0 and float(np.linalg.norm(m - m.conj().T)) > 1e-8 * nrm:
        raise ValueError("input operator is not Hermitian")
    evals, evecs = np.linalg.eigh(m)
    return DenseSpectrum(evals, evecs, h.length)


def _log_z(evals, beta):
    e0 = float(evals[0])
    return -beta * e0 + float(np.log(np.sum(np.exp(-beta * (evals - e0)))))


def _boltzmann(evals, beta):
    p = np.exp(-beta * (evals - float(evals[0])))
    return p / p.sum()


def _sz_diagonal(length, site):
    """<k|sz_site|k> = +-1 in ``mpo.to_dense``'s basis, where site 1 is the top bit."""
    bits = (np.arange(2 ** length) >> (length - site)) & 1
    return 1.0 - 2.0 * bits


def exact_observables(spectrum, grid, czz_sites=()):
    """Evaluate the thermal sweep by direct eigenvalue sums.

    ``czz_sites`` is an iterable of (i, j) pairs (1-based) for connected
    sz-sz correlators, which use the eigenvectors. sz is diagonal in the
    product basis, so <n|sz_i|n> = sum_k |v_kn|^2 z_i(k), one matrix-vector
    product per operator in place of a dense operator product. F_T is
    sum_n sqrt(p_n p'_n), normalised by the pair's own sums as in the
    quadrature path (``thermal.fidelity``), and D_T sum_n |p_n - p'_n|,
    over the Boltzmann weights of the pair, which stay finite wherever
    log Z does.
    """
    evals = spectrum.eigenvalues
    length = spectrum.length
    betas = grid.betas
    n_t = betas.size
    log_z = np.empty(n_t)
    energy = np.empty(n_t)
    s = np.empty(n_t)
    c = np.empty(n_t)
    fid = np.empty(n_t)
    dist = np.empty(n_t)
    for idx, (beta, b1) in enumerate(zip(betas, grid.pair_betas)):
        lz = _log_z(evals, beta)
        p = _boltzmann(evals, beta)
        f_over_z = float(np.dot(p, evals))
        log_z[idx] = lz
        energy[idx] = f_over_z / length
        s[idx] = (beta * f_over_z + lz) / length
        c[idx] = beta ** 2 / length * float(np.dot(p, (evals - f_over_z) ** 2))
        p1 = _boltzmann(evals, b1)
        fid[idx] = fidelity(p, p1)
        dist[idx] = float(np.sum(np.abs(p - p1)))
    czz = {}
    if czz_sites:
        occupation = np.abs(spectrum.eigenvectors) ** 2  # |v_kn|^2, k basis, n eigenstate
        for (i, j) in czz_sites:
            zi = _sz_diagonal(length, i)
            zj = _sz_diagonal(length, j)
            d_zz = (zi * zj) @ occupation
            d_i = zi @ occupation
            d_j = zj @ occupation
            vals = np.empty(n_t)
            for idx, beta in enumerate(betas):
                p = _boltzmann(evals, beta)
                vals[idx] = float(p @ d_zz - (p @ d_i) * (p @ d_j))
            czz[(i, j)] = vals
    return ThermalSweepResult(
        temperatures=grid.temperatures,
        log_z=log_z,
        energy_density=energy,
        entropy=s,
        heat_capacity=c,
        fidelity=fid,
        trace_distance=dist,
        czz=czz,
    )
