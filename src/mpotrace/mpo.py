"""Matrix product operators on open chains and their bounded-bond algebra.

An Mpo is a list of rank-4 site tensors with index order (left bond,
physical out, physical in, right bond); boundary bonds have extent 1.
Values are treated as immutable: every public operation returns a new Mpo
and never mutates its inputs, so they are safe to share between threads.

Addition and operator products are exact direct-sum / site-wise-product
constructions; compression down to a bond cap is triggered only once a bond
actually exceeds the cap. A capped ``add`` or ``multiply`` never builds its
result whole: it hands ``compress`` the operands as a pending sum of terms,
and ``compress`` carries R into each term's block of a site when its QR sweep
reaches it, so a capped call holds the sweep's factors and one site, not the
uncompressed operator. ``step_operator`` is the Lanczos step's pending
(A - alpha I) u + v, whose alpha = Re<u, A u> the QR sweep reads off its
last carry before it shifts A, through the identity channel that
``identity_channel`` finds on A's last site (``shift``).

Parity sectors: every shipped operator commutes with P = prod sz, so each
bond index carries a Z2 parity that the exact zeros of the site tensors
reveal (the parity of |o><i| is o xor i; an all-zero index is a wildcard).
At caps of at least ``_SECTOR_MIN_D``, ``compress`` labels each site as its
QR sweep builds it, factorises the even and odd sector of each bond
separately and returns sector-ordered bonds with exact zeros, which
products and sums preserve, so every compression of a run splits. Nothing
outside ``compress`` knows about sectors.

Scalars are complex in general; operators whose entries happen to be real
(all the shipped models) are kept in real storage so that LAPACK runs in
real arithmetic, which is several times faster. Mixing real and complex
operands promotes as usual and changes no value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import tensor

# Default cap on chain length for dense materialization (2^L x 2^L output).
DENSE_GUARD = 14

# Bond caps from which compress factorises the parity sectors of each bond
# separately. Below it the per-sector assembly costs about what the half-size
# factorisations save, and which wins depends on the runs. Split, single K=40
# runs at cap 24 took 0.79-0.94x the one-sector time (LMG and Ising, L=8 and
# 10), but 1.14x at cap 16 (LMG L=8), and a cache fill of 30 LMG L=8 runs at
# cap 24 (h = 0.04..1.2, two workers) took 1.13x the CPU time.
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

    def __init__(self, tensors):
        self.tensors = [_canonical_array(t) for t in tensors]
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


class _Pending:
    """A sum of chains that ``add``, ``multiply`` or ``step_operator`` has not built yet.

    Each term is a tuple of chains multiplied site by site: (u,) or (a, u).
    The sum is their direct sum, so an inner site is block diagonal with one
    block per term. ``compress`` asks for each site's blocks (``parts``)
    when its QR sweep reaches it, reads their sector labels, carries R into
    each block and drops them: the uncompressed operator never exists whole,
    no zero-filled site is built, and the labels are those of the operator
    it stands for. A Lanczos step also holds ``channel``, the index of A's
    last left bond whose left part is I (x) ... (x) I: ``compress`` reads
    alpha at that site and shifts A there (``shifted``). Only ``add``,
    ``multiply``, ``step_operator`` and ``compress`` make one, and
    ``_maybe_compress`` never returns it.
    """

    __slots__ = ("terms", "channel")

    def __init__(self, terms, channel=None):
        self.terms, self.channel = terms, channel

    @property
    def length(self):
        return self.terms[0][0].length

    @property
    def bond_dims(self):
        dims = [np.prod([c.bond_dims for c in term], axis=0, dtype=int) for term in self.terms]
        return [int(d) for d in np.sum(dims, axis=0)]

    max_bond = Mpo.max_bond

    def _diagonal(self, i):
        """Each term's block of site ``i``, with its (left, right) bond offset."""
        out, left, right = [], 0, 0
        for term in self.terms:
            t = (term[0].tensors[i] if len(term) == 1
                 else _site_product(term[0].tensors[i], term[1].tensors[i]))
            out.append((t, left, right))
            left, right = left + t.shape[0], right + t.shape[3]
        return out

    def parts(self, i):
        """Site ``i`` as (block, left offset, right offset) triples.

        At either end of the chain the terms share a boundary bond, and the
        site comes whole; an inner site comes as its diagonal blocks.
        """
        if 0 < i < self.length - 1:
            return self._diagonal(i)
        return [(self.site(i), 0, 0)]

    def site(self, i):
        parts = self._diagonal(i)
        ts = [t for t, _, _ in parts]
        if len(ts) == 1:
            return ts[0]
        if self.length == 1:
            return sum(ts)
        if i == 0:
            return np.concatenate(ts, axis=3)
        if i == self.length - 1:
            return np.concatenate(ts, axis=0)
        _, left, right = parts[-1]
        out = np.zeros((left + ts[-1].shape[0], *ts[0].shape[1:3], right + ts[-1].shape[3]),
                       dtype=np.result_type(*ts))
        for t, left, right in parts:
            out[left:left + t.shape[0], :, :, right:right + t.shape[3]] = t
        return out

    def shifted(self, c):
        """The step with A + c I in place of A, and no channel left to read."""
        (a, u), *rest = self.terms
        return _Pending([(shift(a, self.channel, c), u), *rest])

    def build(self):
        return Mpo([self.site(i) for i in range(self.length)])


@dataclass(frozen=True)
class CompressionReport:
    """Discarded squared weight per internal bond; for a Lanczos step, its alpha too."""

    discarded_weights: np.ndarray
    alpha: float | None = None  # Re<u, A u> of a ``step_operator``

    @property
    def total_discarded(self):
        return float(np.sum(self.discarded_weights))


def exact_bond_cap(length, phys_dim=2):
    """Bond dimension sufficient to represent any operator on the chain exactly."""
    return int(phys_dim ** (2 * (length // 2)))


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


def expectation(u, a, v):
    """trace(U^dag A V) by one transfer contraction; A V is never built.

    The three-layer sibling of ``inner_product``, at the same polynomial cost
    in the bond dimensions.
    """
    if not u.length == a.length == v.length:
        raise ValueError("length mismatch")
    env = np.ones((1, 1, 1))
    for tu, ta, tv in zip(u.tensors, a.tensors, v.tensors):
        tmp = np.tensordot(env, tu.conj(), axes=(0, 0))  # (la, lv, o, i, ru)
        tmp = np.tensordot(tmp, ta, axes=([0, 2], [0, 1]))  # (lv, i, ru, m, ra)
        env = np.tensordot(tmp, tv, axes=([0, 3, 1], [0, 1, 2]))  # (ru, ra, rv)
    return complex(env[0, 0, 0])


def frobenius_norm(u):
    """sqrt(<u, u>); the imaginary part of <u, u> must vanish to 1e-10 relative."""
    z = inner_product(u, u)
    if abs(z) > 0.0 and abs(z.imag) > 1e-10 * abs(z):
        raise ArithmeticError(f"<u,u> = {z} has an imaginary part")
    return float(np.sqrt(max(z.real, 0.0)))


def scale(c, u):
    """c * u, implemented by scaling the first site tensor; bonds unchanged."""
    out = [u.tensors[0] * c] + list(u.tensors[1:])
    return Mpo(out)


def dagger(u):
    """Hermitian adjoint: conjugate site tensors and swap physical legs."""
    return Mpo([t.conj().transpose(0, 2, 1, 3) for t in u.tensors])


def relative_distance(a, b):
    """|a - b| / |a| in the Frobenius norm, at any chain length.

    The difference is compressed at its own max bond, which truncates nothing
    but puts it in canonical form: its norm is then carried by one site, so a
    small distance is not lost to the cancellation inside <d, d> that the raw
    direct sum would suffer. No 2^L object is formed.
    """
    diff, _ = add(a, scale(-1.0, b))
    diff, _ = compress(diff, diff.max_bond)
    return frobenius_norm(diff) / max(frobenius_norm(a), 1e-300)


def _maybe_compress(w, d_max):
    """Compress the pending ``w`` if a bond exceeds ``d_max``; else build it."""
    if d_max is not None:
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        if w.max_bond > d_max:
            return compress(w, d_max)
    return w.build(), CompressionReport(np.zeros(w.length - 1))


def _check_sum(u_dims, v_dims):
    """Raise unless two chains' (out, in) dimensions agree, site by site."""
    if len(u_dims) != len(v_dims):
        raise ValueError("length mismatch")
    for i, (x, y) in enumerate(zip(u_dims, v_dims)):
        if x != y:
            raise ValueError(f"physical dimension mismatch at site {i}")


def _phys_dims(u):
    return [t.shape[1:3] for t in u.tensors]


def add(u, v, d_max=None):
    """u + v by exact direct sum, compressed only if a bond exceeds ``d_max``."""
    _check_sum(_phys_dims(u), _phys_dims(v))
    return _maybe_compress(_Pending([(u,), (v,)]), d_max)


def _check_product(a, u):
    if a.length != u.length:
        raise ValueError("length mismatch")
    if any(ta.shape[2] != tu.shape[1] for ta, tu in zip(a.tensors, u.tensors)):
        raise ValueError("physical dimension mismatch")


def multiply(a, u, d_max=None):
    """Operator product a @ u, site-wise exact (bond dims multiply).

    Compressed only if a bond exceeds ``d_max``.
    """
    _check_product(a, u)
    return _maybe_compress(_Pending([(a, u)]), d_max)


def step_operator(a, k, u, v=None):
    """The Lanczos step (A - alpha I) u + v, alpha = Re<u, A u>, pending for ``compress``.

    ``(a, k)`` comes from ``identity_channel``; ``v`` (None for no term) is
    -beta U_prev. ``compress(step, d_max)`` is then the whole step. Its QR
    sweep carries R to the last bond, where R_u, the columns of channel k
    of a @ u, hold u's own left parts, and R_au, all columns of a @ u, hold
    a @ u's. So alpha = Re sum conj(R_u u_last) (R_au (a @ u)_last), summed
    over the sector blocks (``_step_alpha``). It then shifts A's last site
    by -alpha I at k and carries that site in. The report holds alpha, and
    the output, whose sites 1..L-1 are right-orthonormal, carries its whole
    norm on site 0.
    """
    _check_product(a, u)
    terms = [(a, u)]
    if v is not None:
        _check_sum([(ta.shape[1], tu.shape[2]) for ta, tu in zip(a.tensors, u.tensors)],
                   _phys_dims(v))
        terms.append((v,))
    return _Pending(terms, channel=k)


def identity_channel(a):
    """(a', k): ``a`` as a chain ``a'`` whose last site's left-bond index ``k``
    has left part I (x) ... (x) I.

    It does when, from column ``k`` of site L-2 down to site 0, each site's
    column has one nonzero row, holding exactly the identity, whose index is
    the column to follow on the site before. Then adding c I to the last
    site's entry at ``k`` adds c I to the chain at a's own bond (``shift``).
    Every ``models`` Hamiltonian has one (channel 0), and ``a'`` is ``a``.
    A chain without one gets one appended: ``a'`` is the direct sum of ``a``
    and I (x) ... (x) I (x) 0, at one more bond. Site dimensions must be
    square.
    """
    last = a.tensors[-1]
    for k in range(last.shape[0]):
        col = k
        for t in reversed(a.tensors[:-1]):
            column = t[..., col]
            rows = np.flatnonzero(column.reshape(column.shape[0], -1).any(axis=1))
            if rows.size != 1 or not np.array_equal(column[rows[0]], np.eye(t.shape[1])):
                break
            col = rows[0]
        else:
            return a, k
    identity_zero = Mpo([np.eye(t.shape[1]).reshape(1, *t.shape[1:3], 1) for t in a.tensors[:-1]]
                        + [np.zeros((1, *last.shape[1:3], 1))])
    grown, _ = add(a, identity_zero)
    return grown, last.shape[0]


def shift(a, k, c):
    """a + c I, with ``(a, k)`` from ``identity_channel``; bonds unchanged.

    Index ``k`` of the last site's left bond has left part I (x) ... (x) I,
    so adding c I to the last site's entry at ``k`` adds c times the
    identity on the chain.
    """
    last = a.tensors[-1].astype(np.result_type(a.tensors[-1], c))
    last[k, :, :, 0] += c * np.eye(last.shape[1])
    return Mpo(a.tensors[:-1] + [last])


def _site_product(ta, tu):
    """Site of the operator product: the bond extents multiply."""
    t = np.tensordot(ta, tu, axes=(2, 1))  # (la, o, ra, lu, i, ru)
    t = t.transpose(0, 3, 1, 4, 2, 5)
    la, lu, po, pi, ra, ru = t.shape
    return t.reshape(la * lu, po, pi, ra * ru)


def _row_parity(bond):
    """Parity of the rows (left, out, in) of a site matrix whose left bond has ``bond``."""
    return (bond[:, None, None] ^ _PHYS_PARITY).reshape(-1)


def _col_parity(bond):
    """Parity of the columns (out, in, right) of a site matrix whose right bond has ``bond``."""
    return (_PHYS_PARITY[:, :, None] ^ bond).reshape(-1)


def _scan_site(t, bond, live):
    """(parity, live) of the right bond index of site ``t``, or None if it is not graded.

    ``bond`` and ``live`` label the site's left bond. The site is graded when
    each nonzero entry t[l, o, i, r] with l live has p(r) = p(l) xor o xor i.
    An index whose entries are all zero there constrains nothing: it is dead
    (``live`` False) and labelled even, and the rows it feeds on the next
    site are ignored, since they multiply zero.
    """
    if t.shape[1:3] != (2, 2):
        return None
    nonzero = (t != 0).reshape(-1, t.shape[3])
    rows = _row_parity(bond)
    live_rows = np.repeat(live, 4)
    even = nonzero[live_rows & (rows == 0)].any(axis=0)
    odd = nonzero[live_rows & (rows == 1)].any(axis=0)
    if np.any(even & odd):
        return None
    return odd.astype(np.int8), even | odd


def _bond_parities(tensors):
    """``_scan_site`` of every site from an even left boundary; None if one is not graded."""
    label = (np.zeros(1, dtype=np.int8), np.ones(1, dtype=bool))
    out = []
    for t in tensors:
        label = _scan_site(t, *label)
        if label is None:
            return None
        out.append(label)
    return out


# The one block of a one-sector matrix: the whole matrix, as a view.
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
    sweep truncates each bond to at most ``d_max`` retained singular values.
    Below the cap it also drops the tail that holds at most
    ``tensor.DISCARD_EPS`` (machine epsilon) of the bond's squared weight
    (``tensor.kept_rank``), a relative Frobenius error of at most about
    1.5e-8 per bond on top of the cap's own truncation; on a bond split into
    sectors, where each block and then their union apply the rule, at most
    twice that weight. Because of the canonicalization, each truncation is
    the bond-wise optimal one in Frobenius norm; the squared discarded
    weight, that tail included, is reported per bond. Both
    sweeps reach LAPACK through numpy (``np.linalg.qr`` in reduced mode,
    ``tensor.truncated_svd``): importing scipy would more than double every
    command's cold start, so it loads only if gesdd fails and the SVD falls
    back to gesvd.

    Parity sectors: an operator that commutes with P = prod sz (every
    shipped Hamiltonian, starting block and Krylov vector) splits each bond
    into an even and an odd sector, readable from the exact zero pattern of
    the site tensors (the parity of |o><i| is o xor i, and an all-zero index
    is a wildcard). The QR sweep reads each site's labels (``_scan_site``)
    as it builds the site's blocks, before R is carried in; a site that is
    not graded sends the chain back through the sweep as one sector. Every
    site matrix is then block diagonal, so each QR and SVD runs once per
    sector on a block about half the size.
    The two sectors' singular values are merged under the keep rule applied
    once across both, which is the same optimal truncation up to ties; the
    discarded weight is what each block dropped plus what the merge dropped.
    Output bonds come back sector-ordered with exact zeros, so the result
    splits again in the next compression.

    Splitting is decided by the cap, not by the bond at hand: it runs only
    when ``d_max >= _SECTOR_MIN_D``, a measured crossover. One unsplit
    factorisation turns the exact zeros into roundoff, and no later call
    could split, so a whole Lanczos run (one fixed cap) splits in every
    compression or in none. An ungraded chain, or a smaller cap, is one
    sector: the QR sweep runs it as the one block ``_WHOLE`` of its blocked
    loop, and the SVD sweep keeps a branch for it (``_svd_sweep`` says why).
    A one-site chain has no internal bond, so neither loop runs.

    A Lanczos step (``step_operator``) is one call: the report holds its
    alpha, read off the last carry of the QR sweep, and the output's norm
    sits on its first site, since the SVD sweep leaves sites 1..L-1
    right-orthonormal.

    Memory: the uncompressed (A - alpha I) U - beta U_prev of bond w*D + D
    is the largest object of a Lanczos step. A capped ``add``, ``multiply``
    or step passes its operands instead (``_Pending``; 7.5 MB less peak RSS
    on an LMG L=12, cap 60 sweep): the QR sweep builds each site's blocks
    when R is to be carried into them, labels them and drops them right
    after, so the labels come from one scan of each block as it is built.
    An inner site of a sum is never built whole: R is carried into each
    term's block by its own GEMM (``_carry``), so no zero-filled site
    exists. The product's block is built only then too; building the
    product whole first read 75.5-75.9 MB of peak RSS on that sweep, against
    71.6-72.0 MB. A capped call then peaks at about its Q factors plus one
    site: split, 0.58-0.61x the uncompressed operator's bytes at L=12, cap
    60 (the sites are block diagonal, so Q is half the operator); in one
    sector, where Q is as large as the sites, 0.99-1.01x there and
    1.05-1.15x at L=8, cap 24. A plain ``u`` is only read, never mutated.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    # a plain input's sites are only read: it is never mutated
    op = u if isinstance(u, _Pending) else _Pending([(u,)])
    sweep = _qr_sweep(op, d_max >= _SECTOR_MIN_D)
    if sweep is None:  # a site is not graded: the chain is one sector
        sweep = _qr_sweep(op, False)
    ts, q_blocks, bonds, right, alpha = sweep
    discarded = _svd_sweep(ts, right, q_blocks, bonds, d_max)
    return Mpo(ts), CompressionReport(discarded, alpha)


def _qr_sweep(op, split):
    """Left-to-right QR sweep of ``compress`` over the pending sum ``op``.

    One loop for every chain: each site matrix is factorised per block, its
    parity blocks if ``split``, else the one block ``_WHOLE``, and every R
    is carried into the next site by ``_carry``, starting from the 1 x 1
    identity. The fork left is which blocks, decided in ``compress`` by
    ``_SECTOR_MIN_D``. Each site is asked for once, when R is carried into
    it, and is dropped after that; with ``split`` it is labelled first
    (``_scan_site``), and the sweep returns None at the first site that is
    not graded. A Lanczos step reads alpha once R reaches its last bond
    (``_step_alpha``), and shifts A before its last site is carried in.
    Otherwise it returns the site list, every entry None but the last,
    which carries the final R; each site's (shape, Q blocks), from which the
    SVD sweep rebuilds it; the parity of the bond left of each site; with
    ``split``, the parity of the last site's right bond; and the step's
    alpha, None for any other sum.
    """
    length = op.length
    ts = [None] * length
    bonds = [np.zeros(1, dtype=np.int8)]
    q_blocks = [None] * length
    # (parity, live) of the left bond of the site that R is carried into
    label = (bonds[0], np.ones(1, dtype=bool)) if split else None
    rs, blocks = [np.ones((1, 1))], _WHOLE
    alpha = None
    for i in range(length):
        if i == length - 1 and op.channel is not None:
            alpha = _step_alpha(op, rs, blocks)
            op = op.shifted(-alpha)
        cur, label = _carry(op.parts(i), rs, blocks, label)
        if cur is None:  # a site is not graded
            return None
        if i == length - 1:
            break
        dl, po, pi, dr = cur.shape
        mat = cur.reshape(dl * po * pi, dr)
        blocks = _blocks(_row_parity(bonds[i]), label[0]) if split else _WHOLE
        factors = [np.linalg.qr(mat[rows][:, cols]) for _, rows, cols in blocks]
        del mat, cur
        # Q stays in its blocks until the SVD sweep multiplies U S into them.
        q_blocks[i] = ((dl, po, pi), [(rows, q) for (_, rows, _), (q, _) in zip(blocks, factors)])
        rs = [r for _, r in factors]
        del factors
        bonds.append(np.repeat(np.int8([p for p, _, _ in blocks]), [r.shape[0] for r in rs]))
    ts[-1] = cur
    return ts, q_blocks, bonds, label[0] if split else None, alpha


def _reach(cols, left, n):
    """(positions in ``cols``, rows of a block) of the columns in [left, left + n).

    ``cols`` is a sorted index array of a sector, or ``_WHOLE``'s slice.
    """
    if isinstance(cols, slice):
        return slice(left, left + n), slice(None)
    lo, hi = np.searchsorted(cols, (left, left + n))
    return slice(lo, hi), cols[lo:hi] - left


def _carry(parts, rs, blocks, label):
    """R carried into one site, given as ``parts`` (block, left offset, right offset).

    Each sector's R multiplies only the rows of each block that it reaches,
    one GEMM per block and sector, into the block's own columns of the
    carried site. With ``label``, the (parity, live) of the site's left
    bond, it returns the carried site and its right bond's label, or (None,
    None) if a block is not graded; without, the carried site and None.
    """
    po, pi = parts[0][0].shape[1:3]
    width = sum(t.shape[3] for t, _, _ in parts)
    out = np.empty((sum(r.shape[0] for r in rs), po, pi, width),
                   dtype=np.result_type(*rs, *(t for t, _, _ in parts)))
    labels = []
    for t, left, right in parts:
        n, rn = t.shape[0], t.shape[3]
        if label is not None:
            labels.append(_scan_site(t, label[0][left:left + n], label[1][left:left + n]))
            if labels[-1] is None:
                return None, None
        flat = t.reshape(n, -1)
        off = 0
        for (_, _, cols), r in zip(blocks, rs):
            pos, rows = _reach(cols, left, n)
            dst = out[off:off + r.shape[0], :, :, right:right + rn]
            if rn == width:  # the block spans the site: carry straight into it
                np.matmul(r[:, pos], flat[rows], out=dst.reshape(r.shape[0], -1))
            else:
                dst[...] = (r[:, pos] @ flat[rows]).reshape(dst.shape)
            off += r.shape[0]
    if label is not None:
        label = tuple(np.concatenate(x) for x in zip(*labels))
    return out, label


def _step_alpha(op, rs, blocks):
    """Re<u, A u> of the step ``op`` from the R factors carried to its last bond.

    The sweep has written sites 0..L-2 of the step as Q R, Q orthonormal
    across all sectors. A's left part at channel k is I (x) ... (x) I, so
    the columns (k, .) of the product's block are u's own left parts: u = Q
    R_u u_last and A u = Q R_au (A u)_last, and alpha sums their overlap
    over the sectors.
    """
    (a, u), k = op.terms[0], op.channel
    tu = u.tensors[-1]
    au = _site_product(a.tensors[-1], tu)
    au = au.reshape(au.shape[0], -1)
    tu = tu.reshape(tu.shape[0], -1)
    alpha = 0.0
    for (_, _, cols), r in zip(blocks, rs):
        pos_u, rows_u = _reach(cols, k * tu.shape[0], tu.shape[0])
        pos_au, rows_au = _reach(cols, 0, au.shape[0])
        alpha += np.vdot(r[:, pos_u] @ tu[rows_u], r[:, pos_au] @ au[rows_au]).real
    return float(alpha)


def _svd_sweep(ts, right, q_blocks, bonds, d_max):
    """Right-to-left truncating SVD sweep of ``compress``, in place on ``ts``.

    Returns the discarded squared weight per bond. Each site is released once
    factorised, and each set of Q blocks once U S is multiplied into it. A
    split bond assembles its sectors' factors into zero-filled arrays under
    one merged keep rule. One sector keeps its own branch: through the same
    assembly it was byte-identical but up to 9% slower at caps of 24 and
    below (LMG L=8, cap 16, K=40: 0.258 -> 0.281 s, slower in 11 of 12 runs).
    ``right`` is the parity of the last site's right bond, None in one sector.
    """
    discarded = np.zeros(len(ts) - 1)
    for i in range(len(ts) - 1, 0, -1):
        dl, po, pi, dr = ts[i].shape
        mat = ts[i].reshape(dl, po * pi * dr)
        blocks = _WHOLE if right is None else _blocks(bonds[i], _col_parity(right))
        svds = [tensor.truncated_svd(mat[rows][:, cols], d_max) for _, rows, cols in blocks]
        dtype, width = mat.dtype, mat.shape[1]
        del mat
        ts[i] = None
        prev_shape, prev_blocks = q_blocks[i - 1]
        q_blocks[i - 1] = None
        if right is None:
            res, = svds
            (_, q), = prev_blocks
            k = res.s.size
            ts[i] = res.vh.reshape(k, po, pi, dr)
            ts[i - 1] = (q @ (res.u * res.s)).reshape(*prev_shape, k)
            discarded[i - 1] = res.discarded_weight
            del svds, res, prev_blocks, q
            continue
        kept = _merged_keep([res.s for res in svds], d_max)
        vh_all = np.zeros((kept.sum(), width), dtype=dtype)
        prev = np.zeros((int(np.prod(prev_shape)), kept.sum()),
                        dtype=np.result_type(dtype, *(q for _, q in prev_blocks)))
        off = 0
        # the SVD blocks here and the Q blocks of site i-1 run over the same sectors
        for (_, _, cols), (q_rows, q), res, k in zip(blocks, prev_blocks, svds, kept):
            vh_all[off:off + k, cols] = res.vh[:k]
            prev[q_rows, off:off + k] = q @ (res.u[:, :k] * res.s[:k])
            discarded[i - 1] += res.discarded_weight + float(np.sum(res.s[k:] ** 2))
            off += k
        ts[i] = vh_all.reshape(off, po, pi, dr)
        ts[i - 1] = prev.reshape(*prev_shape, off)
        # site i-1 is the next SVD's input: no local may keep it, or a spent factor, alive
        del svds, res, prev_blocks, q, prev
        right = np.repeat(np.int8([p for p, _, _ in blocks]), kept)
    return discarded


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
