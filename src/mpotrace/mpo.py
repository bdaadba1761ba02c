"""Matrix product operators on open chains and their bounded-bond algebra.

An Mpo is a list of rank-4 site tensors with index order (left bond,
physical out, physical in, right bond); boundary bonds have extent 1.
Values are treated as immutable: every operation returns a new Mpo and never
mutates its inputs, so they are safe to share between threads.

Addition and operator products are exact direct-sum / site-wise-product
constructions; compression down to a bond cap is triggered only once a bond
actually exceeds the cap.

Parity sectors: every shipped operator commutes with P = prod sz, so each
bond index carries a Z2 parity that the exact zeros of the site tensors
reveal (the parity of |o><i| is o xor i; an all-zero index is a wildcard).
At caps of at least ``_SECTOR_MIN_D``, ``compress`` factorises the even and
odd sector of each bond separately and returns sector-ordered bonds with
exact zeros, which products and sums preserve, so every compression of a
run splits. Nothing outside ``compress`` knows about sectors.

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

# Bond caps from which compress factorises the parity sectors of each bond
# separately. Below it the per-sector assembly costs more than the half-size
# factorisations save (in-process A/B timing: the crossover lies between
# D=24 and D=32).
_SECTOR_MIN_D = 32
# Z2 parity of the single-site operator |o><i| on a spin-1/2 site.
_PHYS_PARITY = np.array([[0, 1], [1, 0]], dtype=np.int8)

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


def _row_parity(bond):
    """Parity of the rows (left, out, in) of a site matrix whose left bond has ``bond``."""
    return (bond[:, None, None] ^ _PHYS_PARITY).reshape(-1)


def _col_parity(bond):
    """Parity of the columns (out, in, right) of a site matrix whose right bond has ``bond``."""
    return (_PHYS_PARITY[:, :, None] ^ bond).reshape(-1)


def _bond_parities(tensors):
    """Z2 parity of every site's right bond index, or None if the chain is not graded.

    The chain is graded when each nonzero entry t[l, o, i, r] has
    p(r) = p(l) xor o xor i, with an even left boundary. An index whose
    entries are all zero constrains nothing: it is labelled even, and the rows
    it feeds on the next site are ignored, since they multiply zero.
    """
    if any(t.shape[1:3] != (2, 2) for t in tensors):
        return None
    bond = np.zeros(1, dtype=np.int8)
    live = np.ones(1, dtype=bool)
    out = []
    for t in tensors:
        nonzero = (t != 0).reshape(-1, t.shape[3])
        rows = _row_parity(bond)
        live_rows = np.repeat(live, 4)
        even = nonzero[live_rows & (rows == 0)].any(axis=0)
        odd = nonzero[live_rows & (rows == 1)].any(axis=0)
        if np.any(even & odd):
            return None
        bond = odd.astype(np.int8)
        live = even | odd
        out.append(bond)
    return out


# The one block of an ungraded matrix: the whole matrix, as a view.
_WHOLE = ((0, slice(None), slice(None)),)


def _blocks(row_parity, col_parity):
    """(parity, rows, cols) of each non-empty parity block of a graded matrix."""
    out = []
    for p in (0, 1):
        rows = np.flatnonzero(row_parity == p)
        cols = np.flatnonzero(col_parity == p)
        if rows.size and cols.size:
            out.append((p, rows, cols))
    return out


def _merged_keep(values, d_max):
    """Values kept from each descending list when the keep rule runs once over all."""
    merged = np.concatenate(values)
    order = np.argsort(-merged, kind="stable")
    k = tensor.kept_rank(merged[order], d_max)
    owner = np.repeat(np.arange(len(values)), [v.size for v in values])
    return np.bincount(owner[order[:k]], minlength=len(values))


def compress(u, d_max):
    """Cap every internal bond at ``d_max``.

    A left-to-right QR sweep canonicalizes the chain, then a right-to-left SVD
    sweep truncates each bond to at most ``d_max`` retained singular values
    (numerically zero ones are dropped as well). Because of the
    canonicalization, each truncation is the bond-wise optimal one in
    Frobenius norm; the squared discarded weight is reported per bond.

    Parity sectors: an operator that commutes with P = prod sz (every
    shipped Hamiltonian, starting block and Krylov vector) splits each bond
    into an even and an odd sector, readable from the exact zero pattern of
    the site tensors (``_bond_parities``; the parity of |o><i| is o xor i, and
    an all-zero index is a wildcard). Every site matrix is then block diagonal,
    so each QR and SVD runs once per sector on a block about half the size.
    The two sectors' singular values are merged under the keep rule applied
    once across both, which is the same optimal truncation up to ties; the
    discarded weight is what each block dropped plus what the merge dropped.
    Output bonds come back sector-ordered with exact zeros, so the result
    splits again in the next compression.

    Splitting is decided by the cap, not by the bond at hand: it runs only
    when ``d_max >= _SECTOR_MIN_D`` (a measured crossover below which the
    per-sector assembly costs more than it saves). One unsplit factorisation
    turns the exact zeros into roundoff, and no later call could split, so a
    whole Lanczos run (one fixed cap) splits in every compression or in none.
    An ungraded chain, or a smaller cap, is the one-sector case of the same
    sweeps with no per-sector assembly.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    length = u.length
    ts = list(u.tensors)
    if length == 1:
        return Mpo([ts[0].copy()], validate=False), CompressionReport(np.zeros(0), 1)
    graded = _bond_parities(ts) if d_max >= _SECTOR_MIN_D else None
    bonds = [np.zeros(1, dtype=np.int8)]  # parity of each bond left of site i, as rebuilt
    q_blocks = [None] * length
    for i in range(length - 1):
        dl, po, pi, dr = ts[i].shape
        mat = ts[i].reshape(dl * po * pi, dr)
        blocks = _WHOLE if graded is None else _blocks(_row_parity(bonds[i]), graded[i])
        factors = [scipy.linalg.qr(mat[rows][:, cols], mode="economic", check_finite=False)
                   for _, rows, cols in blocks]
        if graded is None:
            (q, r), = factors
            ts[i] = q.reshape(dl, po, pi, q.shape[1])
            ts[i + 1] = np.tensordot(r, ts[i + 1], axes=(1, 0))
            continue
        # Q stays in its blocks until the SVD sweep multiplies U S into them.
        q_blocks[i] = ((dl, po, pi), [(rows, q) for (_, rows, _), (q, _) in zip(blocks, factors)])
        nxt = ts[i + 1].reshape(dr, -1)
        ts[i + 1] = np.concatenate([r @ nxt[cols] for (_, _, cols), (_, r) in zip(blocks, factors)]
                                   ).reshape(-1, *ts[i + 1].shape[1:])
        bonds.append(np.repeat(np.int8([p for p, _, _ in blocks]),
                               [r.shape[0] for _, r in factors]))
    discarded = np.zeros(length - 1)
    right = None if graded is None else graded[-1]
    for i in range(length - 1, 0, -1):
        dl, po, pi, dr = ts[i].shape
        mat = ts[i].reshape(dl, po * pi * dr)
        blocks = _WHOLE if graded is None else _blocks(bonds[i], _col_parity(right))
        svds = [tensor.truncated_svd(mat[rows][:, cols], d_max) for _, rows, cols in blocks]
        if graded is None:
            res, = svds
            k = res.s.size
            ts[i] = res.vh.reshape(k, po, pi, dr)
            ts[i - 1] = np.tensordot(ts[i - 1], res.u * res.s, axes=(3, 0))
            discarded[i - 1] = res.discarded_weight
            continue
        kept = _merged_keep([res.s for res in svds], d_max)
        prev_shape, prev_blocks = q_blocks[i - 1]
        vh_all = np.zeros((kept.sum(), mat.shape[1]), dtype=mat.dtype)
        prev = np.zeros((int(np.prod(prev_shape)), kept.sum()),
                        dtype=np.result_type(mat, *(q for _, q in prev_blocks)))
        off = 0
        # the SVD blocks here and the Q blocks of site i-1 run over the same sectors
        for (_, _, cols), (q_rows, q), res, k in zip(blocks, prev_blocks, svds, kept):
            vh_all[off:off + k, cols] = res.vh[:k]
            prev[q_rows, off:off + k] = q @ (res.u[:, :k] * res.s[:k])
            discarded[i - 1] += res.discarded_weight + float(np.sum(res.s[k:] ** 2))
            off += k
        ts[i] = vh_all.reshape(off, po, pi, dr)
        ts[i - 1] = prev.reshape(*prev_shape, off)
        right = np.repeat(np.int8([p for p, _, _ in blocks]), kept)
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
    """Read a container written by :func:`save_mpo`.

    An operator whose imaginary parts are all exactly zero comes back in real
    storage, as it was saved; complex data stays complex.
    """
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
    if not any(np.any(t.imag) for t in ts):
        ts = [np.ascontiguousarray(t.real) for t in ts]
    return Mpo(ts)
