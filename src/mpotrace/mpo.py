"""Matrix product operators on open chains and their bounded-bond algebra.

An Mpo is a list of rank-4 site tensors with index order (left bond,
physical out, physical in, right bond); boundary bonds have extent 1.
Values are treated as immutable: every operation returns a new Mpo and never
mutates its inputs, so they are safe to share between threads.

Addition and operator products are exact direct-sum / site-wise-product
constructions; compression down to a bond cap is triggered only once a bond
actually exceeds the cap.

Scalars are complex in general; operators whose entries happen to be real
(all the shipped models) are kept in real storage so that LAPACK runs in
real arithmetic, which is several times faster. Mixing real and complex
operands promotes as usual and changes no value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import tensor

# Default cap on chain length for dense materialization (2^L x 2^L output).
DENSE_GUARD = 14

_MPO_MAGIC = b"MPOC"
_MPO_FORMAT_VERSION = 1


def _canonical_array(t):
    t = np.asarray(t)
    want = np.complex128 if np.iscomplexobj(t) else np.float64
    return t.astype(want, copy=False)


class Mpo:
    """Operator on an open chain, factorized into rank-4 site tensors."""

    __slots__ = ("tensors",)

    def __init__(self, tensors, validate=True):
        self.tensors = [_canonical_array(t) for t in tensors]
        if validate:
            self._validate()

    def _validate(self):
        if not self.tensors:
            raise ValueError("an MPO needs at least one site")
        for i, t in enumerate(self.tensors):
            if t.ndim != 4:
                raise ValueError(f"site {i}: expected a rank-4 tensor, got rank {t.ndim}")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[-1] != 1:
            raise ValueError("boundary bonds must have extent 1")
        for i in range(len(self.tensors) - 1):
            if self.tensors[i].shape[-1] != self.tensors[i + 1].shape[0]:
                raise ValueError(f"bond extent mismatch between sites {i} and {i + 1}")

    @property
    def length(self):
        return len(self.tensors)

    @property
    def bond_dims(self):
        """Extents of the L-1 internal bonds."""
        return [t.shape[-1] for t in self.tensors[:-1]]

    @property
    def max_bond(self):
        dims = self.bond_dims
        return max(dims) if dims else 1

    @property
    def phys_dims(self):
        return [t.shape[1] for t in self.tensors]

    def copy(self):
        return Mpo([t.copy() for t in self.tensors], validate=False)

    def __repr__(self):
        return f"Mpo(L={self.length}, bonds={self.bond_dims})"


@dataclass(frozen=True)
class CompressionReport:
    """Discarded squared weight per internal bond and the resulting max bond."""

    discarded_weights: np.ndarray
    max_bond: int

    @property
    def total_discarded(self):
        return float(np.sum(self.discarded_weights))


def _clean_report(u):
    return CompressionReport(np.zeros(max(u.length - 1, 0)), u.max_bond)


def exact_bond_cap(length, phys_dim=2):
    """Bond dimension sufficient to represent any operator on the chain exactly."""
    return int(phys_dim ** (2 * (length // 2)))


def identity_mpo(length, phys_dim=2):
    """Identity operator; bond dimension 1 everywhere."""
    if length < 1:
        raise ValueError("length must be >= 1")
    eye = np.eye(phys_dim).reshape(1, phys_dim, phys_dim, 1)
    return Mpo([eye] * length, validate=False)


def inner_product(u, v):
    """Hilbert-Schmidt inner product trace(U^dag V) by transfer contraction.

    Cost is polynomial in the bond dimensions; no 2^L object is formed.
    """
    if u.length != v.length:
        raise ValueError("length mismatch")
    env = np.ones((1, 1))
    for tu, tv in zip(u.tensors, v.tensors):
        tmp = np.tensordot(env, tu.conj(), axes=(0, 0))  # (lv, o, i, ru)
        env = np.tensordot(tmp, tv, axes=([0, 1, 2], [0, 1, 2]))  # (ru, rv)
    return complex(env[0, 0])


def frobenius_norm(u):
    """sqrt(<u, u>); the imaginary part of <u, u> must vanish to 1e-10 relative."""
    z = inner_product(u, u)
    if abs(z) > 0.0 and abs(z.imag) > 1e-10 * abs(z):
        raise ArithmeticError(f"<u,u> = {z} is not real")
    return float(np.sqrt(max(z.real, 0.0)))


def trace(u):
    """Trace of the operator, contracted site by site."""
    env = np.ones((1,))
    for t in u.tensors:
        env = env @ np.trace(t, axis1=1, axis2=2)
    return complex(env[0])


def scale(c, u):
    """c * u, implemented by scaling the first site tensor; bonds unchanged."""
    out = [u.tensors[0] * c] + list(u.tensors[1:])
    return Mpo(out, validate=False)


def dagger(u):
    """Hermitian adjoint: conjugate site tensors and swap physical legs."""
    return Mpo([t.conj().transpose(0, 2, 1, 3) for t in u.tensors], validate=False)


def _maybe_compress(w, d_max):
    if d_max is not None:
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        if w.max_bond > d_max:
            return compress(w, d_max)
    return w, _clean_report(w)


def add(u, v, d_max=None):
    """u + v by exact direct sum, compressed only if a bond exceeds ``d_max``."""
    if u.length != v.length:
        raise ValueError("length mismatch")
    length = u.length
    out = []
    for i, (a, b) in enumerate(zip(u.tensors, v.tensors)):
        if a.shape[1:3] != b.shape[1:3]:
            raise ValueError(f"physical dimension mismatch at site {i}")
        if length == 1:
            out.append(a + b)
        elif i == 0:
            out.append(np.concatenate([a, b], axis=3))
        elif i == length - 1:
            out.append(np.concatenate([a, b], axis=0))
        else:
            la, po, pi, ra = a.shape
            lb, _, _, rb = b.shape
            t = np.zeros((la + lb, po, pi, ra + rb), dtype=np.result_type(a, b))
            t[:la, :, :, :ra] = a
            t[la:, :, :, ra:] = b
            out.append(t)
    return _maybe_compress(Mpo(out, validate=False), d_max)


def multiply(a, u, d_max=None):
    """Operator product a @ u, site-wise exact (bond dims multiply).

    Compressed only if a bond exceeds ``d_max``.
    """
    if a.length != u.length:
        raise ValueError("length mismatch")
    out = []
    for ta, tu in zip(a.tensors, u.tensors):
        if ta.shape[2] != tu.shape[1]:
            raise ValueError("physical dimension mismatch")
        t = np.tensordot(ta, tu, axes=(2, 1))  # (la, o, ra, lu, i, ru)
        t = t.transpose(0, 3, 1, 4, 2, 5)
        la, lu, po, pi, ra, ru = t.shape
        out.append(t.reshape(la * lu, po, pi, ra * ru))
    return _maybe_compress(Mpo(out, validate=False), d_max)


def compress(u, d_max):
    """Cap every internal bond at ``d_max``.

    A left-to-right QR sweep canonicalizes the chain, then a right-to-left SVD
    sweep truncates each bond to at most ``d_max`` retained singular values
    (numerically zero ones are dropped as well). Because of the
    canonicalization, each truncation is the bond-wise optimal one in
    Frobenius norm; the squared discarded weight is reported per bond.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    length = u.length
    ts = list(u.tensors)
    if length == 1:
        return Mpo([ts[0].copy()], validate=False), CompressionReport(np.zeros(0), 1)
    for i in range(length - 1):
        dl, po, pi, dr = ts[i].shape
        mat = ts[i].reshape(dl * po * pi, dr)
        q, r = scipy.linalg.qr(mat, mode="economic", check_finite=False)
        ts[i] = q.reshape(dl, po, pi, q.shape[1])
        ts[i + 1] = np.tensordot(r, ts[i + 1], axes=(1, 0))
    discarded = np.zeros(length - 1)
    for i in range(length - 1, 0, -1):
        dl, po, pi, dr = ts[i].shape
        mat = ts[i].reshape(dl, po * pi * dr)
        res = tensor.truncated_svd(mat, d_max)
        k = res.s.size
        ts[i] = res.vh.reshape(k, po, pi, dr)
        ts[i - 1] = np.tensordot(ts[i - 1], res.u * res.s, axes=(3, 0))
        discarded[i - 1] = res.discarded_weight
    w = Mpo(ts, validate=False)
    return w, CompressionReport(discarded, w.max_bond)


def to_dense(u, guard=DENSE_GUARD):
    """Full contraction into a (prod d) x (prod d) matrix. Exponential in L."""
    if u.length > guard:
        raise ValueError(f"refusing dense materialization at L={u.length} > guard={guard}")
    out = np.ones((1, 1, 1))
    for t in u.tensors:
        tmp = np.tensordot(out, t, axes=(2, 0))  # (O, I, o, i, r)
        big_o, big_i, po, pi, r = tmp.shape
        tmp = tmp.transpose(0, 2, 1, 3, 4)
        out = tmp.reshape(big_o * po, big_i * pi, r)
    return np.ascontiguousarray(out[:, :, 0])


def hermiticity_defect(u, guard=DENSE_GUARD):
    """Relative Frobenius distance of the dense operator from its adjoint."""
    m = to_dense(u, guard)
    nrm = np.linalg.norm(m)
    if nrm == 0.0:
        return 0.0
    return float(np.linalg.norm(m - m.conj().T) / nrm)


def save_mpo(u, path):
    """Write a portable binary container (little-endian complex128)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _MPO_MAGIC, _MPO_FORMAT_VERSION, u.length))
        for t in u.tensors:
            fh.write(struct.pack("<IIII", *t.shape))
        for t in u.tensors:
            fh.write(np.ascontiguousarray(t, dtype="<c16").tobytes())


def read_exact(fh, n, what):
    """Read exactly ``n`` bytes; a short read raises ValueError("truncated ...")."""
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated {what}")
    return buf


def load_mpo(path):
    """Read a container written by :func:`save_mpo`."""
    with open(path, "rb") as fh:
        magic, version, length = struct.unpack("<4sII", read_exact(fh, 12, "MPO container"))
        if magic != _MPO_MAGIC:
            raise ValueError("not an MPO container")
        if version != _MPO_FORMAT_VERSION:
            raise ValueError(f"unsupported MPO container version {version}")
        shapes = [struct.unpack("<IIII", read_exact(fh, 16, "MPO container"))
                  for _ in range(length)]
        ts = []
        for shp in shapes:
            buf = read_exact(fh, 16 * int(np.prod(shp)), "MPO container")
            ts.append(np.frombuffer(buf, dtype="<c16").astype(complex).reshape(shp))
    return Mpo(ts)
