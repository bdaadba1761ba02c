"""Thermal-equilibrium observables as quadrature functionals of H.

Every thermal quantity reduces one Gibbs distribution: ``_gibbs(rule, beta,
shifted)`` returns the weights p_j = w_j e^{-beta node_j} / Z on a Gauss rule
and the log of Z e^{beta node_0}, with node_0 the rule's minimum node. It is
the only place that exponentiates nodes, and with that shift p_j <= 1 and
nothing overflows at any beta * ||H||.

``_per_beta`` holds the one per-temperature loop. It checks each beta array
once, forms the rule's shifted nodes once, and evaluates each (rule, beta)
once, reducing that (g, p) to log Z, the energy and the centred variance
(c = beta^2 Var H / L, as in ``oracle.exact_observables``: non-negative, and
accurate when c << (F/Z)^2). Given a partner grid it also evaluates beta',
and the two distributions give both pair columns: D_T = sum_j |p_j - p'_j|
and F_T = sum_j sqrt(p_j p'_j), normalised by the pair's own sums
(``fidelity``), the same formula the oracle uses. Both are sums of weights
p_j <= 1, so they stay finite when beta node_0 is near the float range.
So a sweep point's base columns cost 2 evaluations per temperature, and
every function here that takes betas reads log Z from it.
A sweep point runs one start set: {I}, or the four projectors P_a[i] P_b[j]
of each correlator pair (``zz_blocks``), which sum to the identity.
``sweep_observables`` turns the set's runs into every column: the base
columns from the union of their rules, one rule for Tr f(H), and each C_zz
from its pair's four runs (``zz_from_runs``, as Z = sum_ab Z_ab), with no
identity run. ``partition_traces``, ``pair_observables`` and ``expectation``
read an identity run. ``trace_norm`` is the one functional here that is not
thermal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lanczos, models, mpo
from .lanczos import NumericalError

LN2 = float(np.log(2.0))
# roundoff allowed past each physical range in ThermalSweepResult.check_bounds
_BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class BetaGrid:
    """Strictly increasing positive temperatures, kept exactly as given, and
    the offset that pairs each T with T + delta_t for F_T and D_T.

    The grid holds its own read-only copy of the temperatures.
    """

    temperatures: np.ndarray
    delta_t: float

    def __post_init__(self):
        t = np.array(self.temperatures, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("temperatures must be a non-empty 1-d array")
        if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
            raise ValueError("temperatures must be finite and positive")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("temperatures must be strictly increasing")
        if not (np.isfinite(self.delta_t) and self.delta_t > 0.0):
            raise ValueError("delta_t must be finite and positive")
        if not math.isfinite(1.0 / float(t[0])):
            raise ValueError(f"1/T overflows at T={float(t[0])!r}")
        if not math.isfinite(float(t[-1]) + float(self.delta_t)):
            raise ValueError(f"T + delta_t overflows at T={float(t[-1])!r}")
        t.flags.writeable = False
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "delta_t", float(self.delta_t))

    @property
    def betas(self):
        """1/T, in temperature order."""
        return 1.0 / self.temperatures

    @property
    def pair_betas(self):
        """1/(T + delta_t), the partner of each beta in F_T and D_T."""
        return 1.0 / (self.temperatures + self.delta_t)

    @classmethod
    def from_temperatures(cls, temps, delta_t):
        """The grid of the ascending ``temps``, paired at offset ``delta_t``."""
        return cls(temps, delta_t)


def _require_identity_start(run):
    if run.start_label not in ("", "identity"):
        raise ValueError(
            f"run was started from {run.start_label!r}; partition traces need "
            "an identity starting block"
        )


def _gibbs(rule, beta, shifted):
    """(g, p) of e^{-beta H} on a Gauss rule with ascending nodes.

    p_j = w_j e^{-beta (node_j - node_0)} / sum_k w_k e^{-beta (node_k - node_0)}
    with node_0 the minimum node, and g the log of that sum, so that
    log Z = -beta node_0 + g. ``shifted`` holds the rule's node_j - node_0,
    and ``_check_betas`` has passed beta.
    """
    m = rule.weights * np.exp(-beta * shifted)
    tot = float(np.add.reduce(m))
    if not math.isfinite(tot) or tot <= 0.0:
        raise NumericalError("degenerate quadrature mass; run looks corrupt")
    return float(np.log(tot)), m / tot


def _as_betas(betas):
    return np.atleast_1d(np.asarray(betas, dtype=float))


def _check_betas(betas):
    if not np.all(np.isfinite(betas) & (betas >= 0.0)):
        raise ValueError("beta must be finite and >= 0")


def fidelity(p, p1):
    """F_T = sum_j sqrt(p_j p'_j) / sqrt(sum_j p_j sum_j p'_j) of two
    distributions on the same points, such as two temperatures' Gibbs weights.

    Normalising by the pair's own sums, rather than by 1, makes equal
    arguments give exactly 1.0 however their sum rounds; Cauchy-Schwarz
    keeps it <= 1 up to roundoff.
    """
    add = np.add.reduce
    return float(add(np.sqrt(p * p1))) / math.sqrt(float(add(p)) * float(add(p1)))


def _per_beta(rule, betas, pair_betas=None):
    """(log Z, F/Z, centred variance of H) per beta, and (F_T, D_T) per pair.

    The one per-temperature loop: ``_gibbs`` once per beta, whose p gives the
    mean sum_j p_j node_j and the variance sum_j p_j (node_j - mean)^2. With
    ``pair_betas`` it also takes ``_gibbs`` at beta', and the two
    distributions give F_T (``fidelity``) and D_T = sum_j |p_j - p'_j|. Both
    arrays are 1-d float arrays of equal length. The loop's sums call
    ``np.add.reduce``: the sum that ``ndarray.sum`` computes, without the
    method's Python wrapper, which costs about a quarter of a K = 40 sum.
    """
    _check_betas(betas)
    nodes = rule.nodes
    node0 = float(nodes[0])
    shifted = nodes - nodes[0]
    n = betas.size
    log_z = np.empty(n)
    mean = np.empty(n)
    var = np.empty(n)
    if pair_betas is not None:
        _check_betas(pair_betas)
        partners = pair_betas.tolist()
        fid = np.empty(n)
        distance = np.empty(n)
    for idx, beta in enumerate(betas.tolist()):
        g, p = _gibbs(rule, beta, shifted)
        log_z[idx] = -beta * node0 + g
        mean[idx] = mu = float(p.dot(nodes))
        d = nodes - mu
        var[idx] = float(p.dot(d * d))
        if pair_betas is not None:
            _, p1 = _gibbs(rule, partners[idx], shifted)
            fid[idx] = fidelity(p, p1)
            distance[idx] = np.add.reduce(np.abs(p - p1))
    if pair_betas is None:
        return log_z, mean, var
    return log_z, mean, var, fid, distance


def partition_traces(run, betas):
    """(log Z, F/Z, centred variance of H) per beta from one identity-start run.

    The mean is sum_j p_j node_j and the variance sum_j p_j (node_j - mean)^2
    over the Gibbs weights of ``_gibbs``, so the variance is non-negative with
    no cancellation.
    """
    _require_identity_start(run)
    return _per_beta(run.quadrature, _as_betas(betas))


def entropy_density(log_z, f_over_z, beta, length):
    """Entropy per site s = (beta F/Z + log Z) / L."""
    return (np.asarray(beta, float) * np.asarray(f_over_z, float)
            + np.asarray(log_z, float)) / length


def pair_observables(run, betas, pair_betas):
    """(F_T, D_T) of each pair (beta, beta') of two equal-length beta arrays.

    Both read the Gibbs weights p and p' of the two states of the same H on
    the run's rule. F_T = sum_j sqrt(p_j p'_j), normalised by the pair's own
    sums (``fidelity``), equals Z((b+b')/2) / sqrt(Z(b) Z(b')) on the rule;
    Cauchy-Schwarz keeps it <= 1. D_T is the Schatten-1 distance
    sum_j |p_j - p'_j|. Each weight is at most 1, so neither can overflow.
    Equal arguments give exactly 1 and exactly 0. Any finite beta >= 0 is
    accepted: b' = 0 is the infinite-temperature state.
    """
    _require_identity_start(run)
    b0 = _as_betas(betas)
    b1 = _as_betas(pair_betas)
    if b0.shape != b1.shape:
        raise ValueError("betas and pair_betas must have equal length")
    return _per_beta(run.quadrature, b0, b1)[3:]


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


def _require_one_model(runs):
    """Raise unless every run that names its Hamiltonian names the same one."""
    labels = sorted({run.model_label for run in runs if run.model_label})
    if len(labels) > 1:
        raise ValueError(f"mismatched Hamiltonians: {labels[0]!r} vs {labels[1]!r}")


def expectation(parts, z_run, betas):
    """<O>(beta) for O = sum_p sign_p O_p, from per-part quadrature runs.

    Each part's run must have used sqrt(O_p) as starting block; the partition
    function comes from the separate identity-start run ``z_run``. Then
    <O> = sum_p sign_p exp(log Z_p - log Z), each log taken by ``_gibbs`` on
    its own run.
    """
    _require_identity_start(z_run)
    _require_one_model([z_run, *(part for _, part in parts)])
    b = _as_betas(betas)
    log_z = _per_beta(z_run.quadrature, b)[0]
    return sum((sign * np.exp(_per_beta(part.quadrature, b)[0] - log_z) for sign, part in parts),
               np.zeros(b.size))


def _spin_flip_defect(h):
    """|H - X H X| / |H| with X = sx on every site, at any chain length.

    X H X conjugates each site tensor by sx.
    """
    flipped = mpo.Mpo([np.einsum("oa,labr,bi->loir", models.SX, t, models.SX)
                       for t in h.tensors])
    return mpo.relative_distance(h, flipped)


def zz_blocks(h, i, j, symmetry="none"):
    """The four starting blocks P_a[i] P_b[j] whose runs on ``h`` give C_zz(i, j)
    by ``zz_from_runs``, in the order ab = 00, 01, 10, 11; each has bond 1.
    ``models.projector_block`` checks the sites (in range, distinct), before
    any check on ``h``.

    ``symmetry="spin-flip"`` checks, at any L, that H commutes with the global
    spin flip X (|H - XHX| <= 1e-10 |H|). X maps P11 onto P00 and P01 onto P10,
    so the blocks are P00, P10, P10, P00, and a planner that dedupes by label
    runs two of them.

    For the shipped families X commutes with H only at g = 0 (Ising) or
    h = 0 (LMG). There H is diagonal in the sx basis, so C_zz vanishes
    identically: the spin-flip mode can only return zeros, up to roundoff.
    """
    if symmetry not in ("none", "spin-flip"):
        raise ValueError(f"unknown symmetry mode {symmetry!r}")
    if i > j:  # a on the left site: fixes the order of the sum in zz_from_runs
        i, j = j, i
    blocks = [models.projector_block(h.length, [(i, a), (j, b)])
              for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    if symmetry == "none":
        return blocks
    if not _spin_flip_defect(h) <= 1e-10:
        raise ValueError("Hamiltonian does not commute with the global spin flip")
    p00, _, p10, _ = blocks
    return [p00, p10, p10, p00]


def zz_from_runs(runs, betas):
    """C_zz per beta from the runs of ``zz_blocks``' four blocks, in its order.

    The blocks sum to the identity, so Z = sum_ab Z_ab, and for two +-1 spins
    C_zz = 4 (Z00 Z11 - Z01 Z10) / Z^2. Each log Z_ab is taken once per beta
    and log Z in the log domain, so every run is normalised by the same sum
    of its own partners rather than by another run's Z.
    """
    b = _as_betas(betas)
    _require_one_model(runs)
    l00, l01, l10, l11 = (_per_beta(run.quadrature, b)[0] for run in runs)
    top = np.maximum(np.maximum(l00, l01), np.maximum(l10, l11))
    log_z = top + np.log(np.exp(l00 - top) + np.exp(l01 - top)
                         + np.exp(l10 - top) + np.exp(l11 - top))
    return 4.0 * (np.exp(l00 + l11 - 2.0 * log_z) - np.exp(l01 + l10 - 2.0 * log_z))


def correlation_zz(h, i, j, betas, cfg, symmetry="none"):
    """Connected correlator C_zz(i,j) = <sz_i sz_j> - <sz_i><sz_j>.

    Runs each distinct block of ``zz_blocks`` once, afresh; a sweep shares
    these runs through ``cli.run_sweep`` instead.
    """
    blocks = zz_blocks(h, i, j, symmetry)
    runs = {}
    for block in blocks:
        if block.label not in runs:
            runs[block.label] = lanczos.run_lanczos(h, block, cfg)
    return zz_from_runs([runs[block.label] for block in blocks], betas)


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
    czz: dict  # (i, j) -> values per T

    def check_bounds(self):
        """Raise if any physical range constraint is violated beyond roundoff."""
        slack = _BOUND_SLACK
        if np.any(self.entropy < -slack) or np.any(self.entropy > LN2 + slack):
            raise NumericalError("entropy density out of [0, ln 2]")
        if np.any(self.heat_capacity < -slack):
            raise NumericalError("negative heat capacity")
        if np.any(self.fidelity < -slack) or np.any(self.fidelity > 1.0 + slack):
            raise NumericalError("thermal fidelity out of [0, 1]")
        if np.any(self.trace_distance < -slack) or np.any(self.trace_distance > 2.0 + slack):
            raise NumericalError("trace distance out of [0, 2]")


def sweep_observables(runs, grid, length, pairs=()):
    """Every column of one sweep point from the runs of its start set.

    The runs are those of ``zz_blocks`` for each of ``pairs``, four per pair
    in pair order, or of {I} when there are no pairs: projectors that sum to
    n I, n = max(1, len(pairs)). Their rules' union, sorted by node then
    weight, weights over n, is one rule for Tr f(H) in any pair order and
    gives the base columns; runs 4k to 4k+3 give pair k's C_zz. Weights that
    do not sum to n 2^L to 1e-10 relative raise ValueError.
    """
    _require_one_model(runs)
    nodes = np.concatenate([run.quadrature.nodes for run in runs])
    weights = np.concatenate([run.quadrature.weights for run in runs])
    n = max(1, len(pairs))
    copies = float(weights.sum()) / 2.0 ** length
    if not abs(copies - n) <= 1e-10 * n:
        raise ValueError(f"the starts sum to {copies:.12g} copies of the identity, not {n}")
    order = np.lexsort((weights, nodes))
    rule = lanczos.QuadratureRule(nodes[order], weights[order] / n)
    betas = grid.betas
    log_z, f_over_z, var, fid, dist = _per_beta(rule, betas, grid.pair_betas)
    s = entropy_density(log_z, f_over_z, betas, length)
    c = betas ** 2 / length * var
    return ThermalSweepResult(
        temperatures=grid.temperatures,
        log_z=log_z,
        energy_density=f_over_z / length,
        entropy=s,
        heat_capacity=c,
        fidelity=fid,
        trace_distance=dist,
        czz={pair: zz_from_runs(runs[4 * k:4 * k + 4], betas)
             for k, pair in enumerate(pairs)},
    )
