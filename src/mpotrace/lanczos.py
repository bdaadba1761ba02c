"""Global block Lanczos over the Hilbert-Schmidt inner product.

One plain three-term recurrence treats whole MPOs as vectors: each new
vector is orthogonalised against its two predecessors only, and earlier
vectors are neither stored nor projected out. It produces the symmetric
tridiagonal projection of a Hermitian input operator onto the Krylov
subspace built from a positive starting block, and the Gauss
quadrature rule induced by that projection: nodes are the eigenvalues of the
tridiagonal matrix, weights the squared first eigenvector components scaled
by the squared starting norm. Evaluating a scalar function on the rule
approximates trace[sqrt(B) f(A) sqrt(B)^dag].

A run ends for one of two reasons, recorded as its termination: "k-max"
(the Krylov dimension reached ``k_max``) or "breakdown" (the next block norm
fell to ``breakdown_tol`` times the starting norm or below).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import mpo, tensor

_RUN_MAGIC = b"LRUN"
_RUN_FORMAT_VERSION = 1

# Dense Hermiticity spot-check is affordable up to this chain length.
_HERMITICITY_CHECK_MAX_L = 6


class NumericalError(RuntimeError):
    """Raised when an iteration or evaluation produces invalid values."""


@dataclass(frozen=True)
class LanczosConfig:
    k_max: int
    d_max: int
    breakdown_tol: float = 1e-12  # relative to the starting norm

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if not 0.0 < self.breakdown_tol < 1.0:
            raise ValueError("breakdown_tol must lie in (0, 1)")


@dataclass(frozen=True)
class TridiagonalProjection:
    """Recurrence coefficients of T_k plus the starting-block norm beta1."""

    alphas: np.ndarray  # diagonal, length k
    betas: np.ndarray  # off-diagonal, length k-1
    beta1: float
    termination: str  # "k-max" | "breakdown"

    @property
    def k(self):
        return int(self.alphas.size)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the spectral measure seen by the starting block.

    Weights are squared first-row eigenvector components times beta1^2, hence
    non-negative by construction; their sum is beta1^2.
    """

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class LanczosRun:
    projection: TridiagonalProjection
    quadrature: QuadratureRule
    compression_log: np.ndarray  # total discarded weight per iteration
    model_label: str = ""
    start_label: str = ""


def quadrature_rule(projection):
    nodes, vecs = tensor.symtridiag_eig(projection.alphas, projection.betas)
    weights = projection.beta1 ** 2 * np.abs(vecs[0, :]) ** 2
    return QuadratureRule(nodes, weights)


def run_lanczos(a, start, cfg, model_label=""):
    """Three-term global Lanczos recurrence on MPOs.

    Per iteration: beta_i = |V_{i-1}|, U_i = V_{i-1}/beta_i,
    V_i = A U_i - beta_i U_{i-1}, alpha_i = Re<U_i, V_i>,
    V_i -= alpha_i U_i, with every product and sum capped at cfg.d_max.
    Only U_{i-1} and U_i are kept; earlier vectors are neither stored nor
    projected out. Terminates with "k-max" after cfg.k_max iterations or
    with "breakdown" when beta falls to breakdown_tol * beta1 or below (a
    numerically invariant subspace).
    """
    if a.length <= _HERMITICITY_CHECK_MAX_L:
        if mpo.hermiticity_defect(a) > 1e-8:
            raise ValueError("input operator is not Hermitian")
    beta1 = mpo.frobenius_norm(start.mpo)
    if not beta1 > 0.0:
        raise ValueError("zero starting block")
    threshold = cfg.breakdown_tol * beta1
    alphas = []
    betas = []
    comp_log = []
    termination = "k-max"
    u_prev = None
    v = start.mpo
    for i in range(1, cfg.k_max + 1):
        beta = beta1 if i == 1 else mpo.frobenius_norm(v)
        if not np.isfinite(beta):
            raise NumericalError("non-finite block norm (overflow?)")
        if i > 1:
            if beta <= threshold:
                termination = "breakdown"
                break
            betas.append(beta)
        u = mpo.scale(1.0 / beta, v)
        w, rep = mpo.multiply(a, u, cfg.d_max)
        discarded = rep.total_discarded
        if u_prev is not None:
            w, rep = mpo.add(w, mpo.scale(-beta, u_prev), cfg.d_max)
            discarded += rep.total_discarded
        alpha_c = mpo.inner_product(u, w)
        if not np.isfinite(alpha_c):
            raise NumericalError("non-finite diagonal coefficient (overflow?)")
        if abs(alpha_c.imag) > 1e-8 * abs(alpha_c) + 1e-12:
            raise NumericalError(f"diagonal coefficient {alpha_c} is not real; "
                                 "input operator looks non-Hermitian")
        alpha = float(alpha_c.real)
        alphas.append(alpha)
        w, rep = mpo.add(w, mpo.scale(-alpha, u), cfg.d_max)
        discarded += rep.total_discarded
        comp_log.append(discarded)
        u_prev = u
        v = w
    projection = TridiagonalProjection(
        np.asarray(alphas, dtype=float),
        np.asarray(betas, dtype=float),
        beta1,
        termination,
    )
    return LanczosRun(
        projection,
        quadrature_rule(projection),
        np.asarray(comp_log, dtype=float),
        model_label,
        start.label,
    )


def _function_values(f, nodes):
    with np.errstate(all="ignore"):  # non-finite values raise below instead
        try:
            vals = np.asarray(f(nodes))
            if vals.shape != nodes.shape:
                raise TypeError
        except Exception:
            vals = np.asarray([f(x) for x in nodes])
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise NumericalError(f"function not finite at node {nodes[bad][0]}")
    return vals


def evaluate(run, f):
    """Quadrature estimate sum_j w_j f(node_j) of the trace functional."""
    nodes = run.quadrature.nodes
    vals = _function_values(f, nodes)
    return float(np.real(np.dot(run.quadrature.weights, vals)))


def save_run(run, path, extra_header=None):
    """Serialize the projection and logs; portable little-endian layout."""
    header = {
        "format_version": _RUN_FORMAT_VERSION,
        "model_label": run.model_label,
        "start_label": run.start_label,
        "termination": run.projection.termination,
        "k": run.projection.k,
    }
    if extra_header:
        header.update(extra_header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _RUN_MAGIC, _RUN_FORMAT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<d", run.projection.beta1))
        for arr in (run.projection.alphas, run.projection.betas, run.compression_log):
            fh.write(struct.pack("<I", arr.size))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_run(path):
    """Read a run written by :func:`save_run`; returns (run, header dict).

    The quadrature rule is recomputed from the stored coefficients, which
    round-trip exactly.
    """
    with open(path, "rb") as fh:

        def read(n):
            return mpo.read_exact(fh, n, "run file")

        magic, version, blob_len = struct.unpack("<4sII", read(12))
        if magic != _RUN_MAGIC:
            raise ValueError("not a Lanczos run file")
        if version != _RUN_FORMAT_VERSION:
            raise ValueError(f"unsupported run file version {version}")
        header = json.loads(read(blob_len).decode("utf-8"))
        (beta1,) = struct.unpack("<d", read(8))
        arrays = []
        for _ in range(3):
            (n,) = struct.unpack("<I", read(4))
            arrays.append(np.frombuffer(read(8 * n), dtype="<f8").astype(float))
    if not isinstance(header, dict) or "termination" not in header:
        raise ValueError("run file header has no termination field")
    projection = TridiagonalProjection(arrays[0], arrays[1], beta1, header["termination"])
    run = LanczosRun(
        projection,
        quadrature_rule(projection),
        arrays[2],
        header.get("model_label", ""),
        header.get("start_label", ""),
    )
    return run, header
