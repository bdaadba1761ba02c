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

Each step is one capped compression and nothing else. The next vector
(A - alpha I) U - beta U_prev is one pending operator (``mpo.step_operator``),
shifted at A's own bond, that the compression builds site by site. Its QR
sweep reads the diagonal coefficient alpha = Re<U, A U> off its last carry,
before it shifts A, and the compressed vector carries its whole norm, the
next beta, on its first site. The step's discarded weight is its entry in
the run's compression log.

Whether the input is Hermitian is decided once, on the MPO and at every
chain length, before the recurrence starts: |A - A^dag| <= 1e-8 |A| by
``mpo.relative_distance``. The recurrence keeps the real part of each
diagonal coefficient; under truncation the imaginary part is noise.

A run ends for one of two reasons, recorded as its termination: "k-max"
(the Krylov dimension reached ``k_max``) or "breakdown" (the next block norm
fell to ``BREAKDOWN_TOL`` times the starting norm or below).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import mpo, tensor

_RUN_MAGIC = b"LRUN"
_RUN_FORMAT_VERSION = 1

# A block norm at or below this fraction of the starting norm ends the run
# ("breakdown": a numerically invariant subspace).
BREAKDOWN_TOL = 1e-12


class NumericalError(RuntimeError):
    """Raised when an iteration or evaluation produces invalid values."""


@dataclass(frozen=True)
class LanczosConfig:
    k_max: int
    d_max: int

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")


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
    compression_log: np.ndarray  # weight discarded by each iteration's one compression
    model_label: str = ""
    start_label: str = ""


def quadrature_rule(projection):
    nodes, vecs = tensor.symtridiag_eig(projection.alphas, projection.betas)
    weights = projection.beta1 ** 2 * np.abs(vecs[0, :]) ** 2
    return QuadratureRule(nodes, weights)


def run_lanczos(a, start, cfg, model_label=""):
    """Three-term global Lanczos recurrence on MPOs, one compression per step.

    Per iteration: V_i = (A - alpha_i I) U_i - beta_i U_{i-1} by one
    ``mpo.compress`` of ``mpo.step_operator`` capped at cfg.d_max, also
    below the cap. That call also returns alpha_i = Re<U_i, A U_i>, which
    its QR sweep reads off its last carry, and leaves the whole norm
    beta_{i+1} = |V_i| on the first site of V_i; then U_{i+1} = V_i /
    beta_{i+1}. A - alpha_i I is A at its own bond w, shifted on its last
    site (``mpo.shift``; a chain with no identity channel gets one appended
    once per run, at bond w + 1), so the step compresses one operator of
    bond w*D + D, and builds it only block by block, inside the
    compression. The compression log holds each step's discarded weight.
    Only U_{i-1} and U_i are kept; earlier vectors are neither stored nor
    projected out. Terminates with "k-max" after cfg.k_max iterations or
    with "breakdown" when beta falls to BREAKDOWN_TOL * beta1 or below (a
    numerically invariant subspace).

    Input with |A - A^dag| > 1e-8 |A| raises ValueError; the distance is
    taken on the MPO (``mpo.relative_distance``), so no length is exempt.
    """
    if mpo.relative_distance(a, mpo.dagger(a)) > 1e-8:
        raise ValueError("input operator is not Hermitian")
    beta1 = mpo.frobenius_norm(start.mpo)
    if not beta1 > 0.0:
        raise ValueError("zero starting block")
    threshold = BREAKDOWN_TOL * beta1
    shiftable, channel = mpo.identity_channel(a)
    alphas = []
    betas = []
    comp_log = []
    termination = "k-max"
    beta, u_prev, v = beta1, None, start.mpo
    while True:
        if not np.isfinite(beta):
            raise NumericalError("non-finite block norm (overflow?)")
        u = mpo.scale(1.0 / beta, v)
        rest = None if u_prev is None else mpo.scale(-beta, u_prev)
        v, rep = mpo.compress(mpo.step_operator(shiftable, channel, u, rest), cfg.d_max)
        if not np.isfinite(rep.alpha):
            raise NumericalError("non-finite diagonal coefficient (overflow?)")
        alphas.append(rep.alpha)
        comp_log.append(rep.total_discarded)
        if len(alphas) == cfg.k_max:
            break
        beta = float(np.linalg.norm(v.tensors[0]))  # sites 1..L-1 are right-orthonormal
        if beta <= threshold:
            termination = "breakdown"
            break
        betas.append(beta)
        u_prev = u
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
