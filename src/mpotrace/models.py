"""Spin-chain Hamiltonians and positive starting blocks as exact MPOs.

Site indices are 1-based in every public interface, matching the usual
physics convention for chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mpo import Mpo

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)
P0 = np.array([[1.0, 0.0], [0.0, 0.0]])  # |0><0|
P1 = np.array([[0.0, 0.0], [0.0, 1.0]])  # |1><1|


def _open_chain(bulk, length):
    """Open-boundary MPO from a square transfer block: first row / last column."""
    first = bulk[0:1]
    last = bulk[:, :, :, -1:]
    return Mpo([first] + [bulk] * (length - 2) + [last])


def ising_mpo(length, j_coupling, g_field):
    """Transverse-field Ising chain J sum sx sx + g sum sz; bond dimension 3."""
    if length < 2:
        raise ValueError("length must be >= 2")
    w = np.zeros((3, 2, 2, 3))
    w[0, :, :, 0] = ID2
    w[0, :, :, 1] = SX
    w[0, :, :, 2] = g_field * SZ
    w[1, :, :, 2] = j_coupling * SX
    w[2, :, :, 2] = ID2
    return _open_chain(w, length)


def lmg_mpo(length, h_field):
    """Lipkin-Meshkov-Glick Hamiltonian -Sx^2/L - h Sz; bond dimension 3.

    S = (1/2) sum_i sigma_i are the total-spin operators, so in Pauli form
    H = (1/2) [-(1/L) sum_{i<j} sx_i sx_j - h sum_i sz_i] - 1/4, the standard
    LMG normalisation with quantum critical field h_c = 1 and mean-field
    critical temperature h / (2 atanh h) for 0 < h < 1 (``cli.exact_tc``).

    Expanding Sx^2 gives a per-site constant plus a uniform all-pairs sx sx
    coupling, which the middle transfer channel carries at distance-independent
    weight. The constant stays inside the MPO so traces of the operator are
    literal.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    pair = -1.0 / (2.0 * length)
    onsite = -(1.0 / (4.0 * length)) * ID2 - 0.5 * h_field * SZ
    w = np.zeros((3, 2, 2, 3))
    w[0, :, :, 0] = ID2
    w[0, :, :, 1] = SX
    w[0, :, :, 2] = onsite
    w[1, :, :, 1] = ID2
    w[1, :, :, 2] = pair * SX
    w[2, :, :, 2] = ID2
    return _open_chain(w, length)


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus couplings; buildable into an exact Hamiltonian MPO."""

    family: str  # "ising" | "lmg"
    length: int
    j_coupling: float = 0.0
    g_field: float = 0.0
    h_field: float = 0.0

    def __post_init__(self):
        if self.family not in ("ising", "lmg"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.length < 2:
            raise ValueError(f"length must be >= 2, got L={self.length}")
        for val in (self.j_coupling, self.g_field, self.h_field):
            if not math.isfinite(val):
                raise ValueError(f"couplings must be finite, got {self.label()}")

    def build(self):
        if self.family == "ising":
            return ising_mpo(self.length, self.j_coupling, self.g_field)
        return lmg_mpo(self.length, self.h_field)

    def label(self):
        if self.family == "ising":
            return f"ising:L={self.length}:J={self.j_coupling!r}:g={self.g_field!r}"
        return f"lmg:L={self.length}:h={self.h_field!r}"

    def param_text(self):
        """Single-token coupling summary used in CSV output."""
        if self.family == "ising":
            return f"J={self.j_coupling};g={self.g_field}"
        return f"h={self.h_field}"


@dataclass(frozen=True)
class StartingBlock:
    """Positive operator B (its own square root where used) for Lanczos starts."""

    mpo: Mpo
    label: str


def identity_block(length):
    return projector_block(length, ())


def projector_block(length, sites):
    """Product of single-site |s><s| projectors, identity elsewhere; bond 1.

    ``sites`` is an iterable of (site, s) with distinct 1-based site indices
    and s in {0, 1}.
    """
    assignment = {}
    for idx, s in sites:
        if not 1 <= idx <= length:
            raise ValueError(f"site {idx} out of range 1..{length}")
        if idx in assignment:
            raise ValueError(f"duplicate site {idx}")
        if s not in (0, 1):
            raise ValueError(f"projector state must be 0 or 1, got {s}")
        assignment[idx] = s
    tensors = []
    for i in range(1, length + 1):
        if i in assignment:
            m = P0 if assignment[i] == 0 else P1
        else:
            m = ID2
        tensors.append(m.reshape(1, 2, 2, 1))
    label = "*".join(f"P{s}[{i}]" for i, s in sorted(assignment.items())) or "identity"
    return StartingBlock(Mpo(tensors), label)

