"""Thermal-equilibrium observables as quadrature functionals of H.

Every quantity is a combination of weighted sums over one reusable
quadrature rule: partition function, energy and its variance, entropy
density, specific heat, thermal fidelity, trace distance, trace norm and
two-site sz correlators. All exponentials are taken relative to the minimum
node, so no intermediate can overflow no matter how large beta * ||H|| gets.
The heat capacity is beta^2/L times the centred variance
sum_j p_j (node_j - <H>)^2 over the normalized Gibbs weights, as in
``oracle.exact_observables``, so it is non-negative and keeps its relative
accuracy when c is many orders below (F/Z)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lanczos, models, mpo
from .lanczos import NumericalError

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class BetaGrid:
    """Strictly increasing positive temperatures, kept exactly as given, and
    the offset that pairs each T with T + delta_t for F_T and D_T.

    The grid holds its own read-only copy of the temperatures; ``delta_t``
    defaults to the first step, or to T itself for a single temperature.
    """

    temperatures: np.ndarray
    delta_t: float = None

    def __post_init__(self):
        t = np.array(self.temperatures, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("temperatures must be a non-empty 1-d array")
        if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
            raise ValueError("temperatures must be finite and positive")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("temperatures must be strictly increasing")
        delta_t = self.delta_t
        if delta_t is None:
            delta_t = t[1] - t[0] if t.size > 1 else t[0]
        if not delta_t > 0.0:
            raise ValueError("delta_t must be positive")
        t.flags.writeable = False
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "delta_t", float(delta_t))

    @property
    def betas(self):
        """1/T, in temperature order."""
        return 1.0 / self.temperatures

    @property
    def pair_betas(self):
        """1/(T + delta_t), the partner of each beta in F_T and D_T."""
        return 1.0 / (self.temperatures + self.delta_t)

    @classmethod
    def from_temperatures(cls, temps, delta_t=None):
        """The grid of the ascending ``temps``, paired at offset ``delta_t``."""
        return cls(temps, delta_t)


def _require_identity_start(run):
    if run.start_label not in ("", "identity"):
        raise ValueError(
            f"run was started from {run.start_label!r}; partition traces need "
            "an identity starting block"
        )


def _shifted_sums(nodes, weights, beta, lam_ref):
    m = weights * np.exp(-beta * (nodes - lam_ref))
    tot = float(np.sum(m))
    if not np.isfinite(tot) or tot <= 0.0:
        raise NumericalError("degenerate quadrature mass; run looks corrupt")
    return tot, m


def partition_traces(run, betas):
    """(log Z, F/Z, centred variance of H) per beta from one identity-start run.

    log Z = -beta*lam_ref + log sum_j w_j e^{-beta (node_j - lam_ref)} with
    lam_ref the minimum node; the mean and the variance sum (node - mean)^2
    are taken over the shifted masses divided by their sum, so the shift
    cancels exactly and the variance is non-negative with no cancellation.
    """
    _require_identity_start(run)
    nodes = run.quadrature.nodes
    weights = run.quadrature.weights
    lam_ref = float(nodes[0])
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    log_z = np.empty(b.size)
    mean = np.empty(b.size)
    var = np.empty(b.size)
    for idx, beta in enumerate(b):
        if beta < 0.0 or not np.isfinite(beta):
            raise ValueError("beta must be finite and >= 0")
        tot, m = _shifted_sums(nodes, weights, beta, lam_ref)
        log_z[idx] = -beta * lam_ref + float(np.log(tot))
        mu = float(np.dot(m, nodes)) / tot
        d = nodes - mu
        mean[idx] = mu
        var[idx] = float(np.dot(m, d * d)) / tot
    return log_z, mean, var


def entropy_density(log_z, f_over_z, beta, length):
    """Entropy per site s = (beta F/Z + log Z) / L."""
    return (np.asarray(beta, float) * np.asarray(f_over_z, float)
            + np.asarray(log_z, float)) / length


def thermal_fidelity(run, beta0, beta1):
    """Z((b0+b1)/2) / sqrt(Z(b0) Z(b1)), computed in the log domain.

    Cauchy-Schwarz on the quadrature measure keeps the value <= 1; equal
    arguments give exactly 1.
    """
    if beta0 <= 0.0 or beta1 <= 0.0:
        raise ValueError("inverse temperatures must be positive")
    log_z, _, _ = partition_traces(run, [beta0, beta1, 0.5 * (beta0 + beta1)])
    return float(np.exp(log_z[2] - 0.5 * (log_z[0] + log_z[1])))


def trace_distance_thermal(run, beta0, beta1):
    """Schatten-1 distance between the two Gibbs states of the same H.

    Each term |e^a - e^b| is evaluated as e^{max(a,b)} (1 - e^{-|a-b|}), so
    the result is exact zero for equal arguments and never overflows.
    """
    if beta0 <= 0.0 or beta1 <= 0.0:
        raise ValueError("inverse temperatures must be positive")
    log_z, _, _ = partition_traces(run, [beta0, beta1])
    nodes = run.quadrature.nodes
    weights = run.quadrature.weights
    a = -beta0 * nodes - log_z[0]
    b = -beta1 * nodes - log_z[1]
    hi = np.maximum(a, b)
    diff = -np.expm1(-np.abs(a - b))
    return float(np.sum(weights * np.exp(hi) * diff))


def trace_norm(run):
    """trace sqrt of a positive operator from a run on it (e.g. A^dag A).

    Nodes slightly below zero are clamped; strongly negative nodes signal an
    invalid input or severe truncation and raise.
    """
    nodes = run.quadrature.nodes
    node_max = float(np.max(nodes))
    floor = -1e-6 * max(node_max, 1e-300)
    if float(np.min(nodes)) < floor:
        raise NumericalError(
            f"node {float(np.min(nodes))} is negative beyond tolerance; "
            "input was not positive or truncation was too severe"
        )
    clamped = np.clip(nodes, 0.0, None)
    return float(np.dot(run.quadrature.weights, np.sqrt(clamped)))


def expectation(parts, z_run, betas):
    """<O>(beta) for O = sum_p sign_p O_p, from per-part quadrature runs.

    Each part's run must have used sqrt(O_p) as starting block; the partition
    function comes from the separate identity-start run ``z_run``. One global
    minimum node serves as shift for all runs, so numerator and denominator
    share the same (cancelling) exponential prefactor.
    """
    _require_identity_start(z_run)
    for _, part in parts:
        if part.model_label and z_run.model_label and part.model_label != z_run.model_label:
            raise ValueError(
                f"mismatched Hamiltonians: {part.model_label!r} vs {z_run.model_label!r}"
            )
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    lam_ref = min(
        [float(z_run.quadrature.nodes[0])]
        + [float(r.quadrature.nodes[0]) for _, r in parts]
    )
    out = np.zeros(b.size)
    for idx, beta in enumerate(b):
        num = 0.0
        for sign, part in parts:
            tot, _ = _shifted_sums(part.quadrature.nodes, part.quadrature.weights,
                                   beta, lam_ref)
            num += sign * tot
        den, _ = _shifted_sums(z_run.quadrature.nodes, z_run.quadrature.weights,
                               beta, lam_ref)
        out[idx] = num / den
    return out


def _spin_flip_defect(h):
    """|H - X H X| / |H| with X = sx on every site, at any chain length.

    X H X conjugates each site tensor by sx.
    """
    flipped = mpo.Mpo([np.einsum("oa,labr,bi->loir", models.SX, t, models.SX)
                       for t in h.tensors])
    return mpo.relative_distance(h, flipped)


def zz_blocks(h, i, j, symmetry="none"):
    """Starting blocks whose runs on ``h`` give C_zz(i, j) by ``zz_from_runs``.

    Returned as consecutive (positive, negative) part pairs, each pair one
    expectation value. ``symmetry="spin-flip"`` checks, at any L, that H
    commutes with the global spin flip X (|H - XHX| <= 1e-10 |H|), which
    makes <sz_i> vanish and halves the runs: one pair, P0P0 and P1P0, with
    <sz_i sz_j> = 2(<P0P0> - <P1P0>). Otherwise three pairs: the projector
    decomposition of sz_i sz_j, then of sz_i and of sz_j.

    For the shipped families X commutes with H only at g = 0 (Ising) or
    h = 0 (LMG). There H is diagonal in the sx basis, so C_zz vanishes
    identically: the spin-flip mode can only return zeros, up to roundoff.
    """
    length = h.length
    if i == j:
        raise ValueError("correlator sites must differ")
    if not (1 <= i <= length and 1 <= j <= length):
        raise ValueError("correlator site out of range")
    if i > j:
        i, j = j, i
    if symmetry not in ("none", "spin-flip"):
        raise ValueError(f"unknown symmetry mode {symmetry!r}")
    if symmetry == "spin-flip":
        if not _spin_flip_defect(h) <= 1e-10:
            raise ValueError("Hamiltonian does not commute with the global spin flip")
        return [models.projector_block(length, [(i, 0), (j, 0)]),
                models.projector_block(length, [(i, 1), (j, 0)])]
    blocks = list(models.zz_decomposition(length, i, j))
    for site in (i, j):
        blocks += [models.projector_block(length, [(site, 0)]),
                   models.projector_block(length, [(site, 1)])]
    return blocks


def zz_from_runs(runs, z_run, betas):
    """C_zz per beta from the runs of ``zz_blocks``' blocks, in its order."""
    parts = [expectation([(1.0, pos), (-1.0, neg)], z_run, betas)
             for pos, neg in zip(runs[::2], runs[1::2])]
    if len(parts) == 1:  # spin-flip: <sz_i> = 0
        return 2.0 * parts[0]
    zz, z_i, z_j = parts
    return zz - z_i * z_j


def correlation_zz(h, i, j, betas, cfg, symmetry="none"):
    """Connected correlator C_zz(i,j) = <sz_i sz_j> - <sz_i><sz_j>.

    Runs the identity start and every block of ``zz_blocks`` afresh; a sweep
    shares these runs through ``cli.run_sweep`` instead.
    """
    blocks = zz_blocks(h, i, j, symmetry)
    z_run = lanczos.run_lanczos(h, models.identity_block(h.length), cfg)
    runs = [lanczos.run_lanczos(h, block, cfg) for block in blocks]
    return zz_from_runs(runs, z_run, betas)


@dataclass
class ThermalSweepResult:
    """Per-temperature observables of one Hamiltonian, ascending in T."""

    temperatures: np.ndarray
    log_z: np.ndarray
    energy_density: np.ndarray  # (F/Z)/L
    entropy: np.ndarray  # s
    heat_capacity: np.ndarray  # c
    fidelity: np.ndarray  # F_T(T) = F_T(1/T, 1/(T+delta_t))
    trace_distance: np.ndarray  # D_T(T), same pairing
    czz: dict = field(default_factory=dict)  # (i, j) -> values per T

    def check_bounds(self, slack=1e-8):
        """Raise if any physical range constraint is violated."""
        if np.any(self.entropy < -slack) or np.any(self.entropy > LN2 + slack):
            raise NumericalError("entropy density out of [0, ln 2]")
        if np.any(self.heat_capacity < -slack):
            raise NumericalError("negative heat capacity")
        if np.any(self.fidelity < -slack) or np.any(self.fidelity > 1.0 + slack):
            raise NumericalError("thermal fidelity out of [0, 1]")
        if np.any(self.trace_distance < -slack) or np.any(self.trace_distance > 2.0 + slack):
            raise NumericalError("trace distance out of [0, 2]")


def sweep_observables(run, grid, length):
    """All base observables on a temperature grid from one identity-start run."""
    betas = grid.betas
    log_z, f_over_z, var = partition_traces(run, betas)
    s = entropy_density(log_z, f_over_z, betas, length)
    c = betas ** 2 / length * var
    pair_betas = grid.pair_betas
    fid = np.array([thermal_fidelity(run, b0, b1) for b0, b1 in zip(betas, pair_betas)])
    dist = np.array([trace_distance_thermal(run, b0, b1)
                     for b0, b1 in zip(betas, pair_betas)])
    return ThermalSweepResult(
        temperatures=grid.temperatures,
        log_z=log_z,
        energy_density=f_over_z / length,
        entropy=s,
        heat_capacity=c,
        fidelity=fid,
        trace_distance=dist,
    )
