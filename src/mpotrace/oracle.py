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

from . import models, mpo
from .thermal import ThermalSweepResult

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


def _site_operator(length, site, op):
    m = np.array([[1.0]], dtype=complex)
    for k in range(1, length + 1):
        m = np.kron(m, op if k == site else np.eye(2))
    return m


def exact_observables(spectrum, grid, czz_sites=()):
    """Evaluate the thermal sweep by direct eigenvalue sums.

    ``czz_sites`` is an iterable of (i, j) pairs (1-based) for connected
    sz-sz correlators, which use the eigenvectors.
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
        lz1 = _log_z(evals, b1)
        lz_mid = _log_z(evals, 0.5 * (beta + b1))
        fid[idx] = float(np.exp(lz_mid - 0.5 * (lz + lz1)))
        dist[idx] = float(np.sum(np.abs(np.exp(-beta * evals - lz)
                                        - np.exp(-b1 * evals - lz1))))
    czz = {}
    if czz_sites:
        v = spectrum.eigenvectors
        for (i, j) in czz_sites:
            zi = _site_operator(length, i, models.SZ)
            zj = _site_operator(length, j, models.SZ)
            d_zz = np.einsum("ij,ij->j", v.conj(), (zi @ zj) @ v).real
            d_i = np.einsum("ij,ij->j", v.conj(), zi @ v).real
            d_j = np.einsum("ij,ij->j", v.conj(), zj @ v).real
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
