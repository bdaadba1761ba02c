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
uncompressed operator. No sweep forms Q: the QR sweep keeps only R, and
the SVD sweep applies each uncompressed site to the right isometry it
carries (``_Pending.apply_right``, a product in factored form) and R to
that. ``step_operator`` is the Lanczos step's pending (A - alpha I) u + v,
whose alpha = Re<u, A u> the QR sweep reads off its last carry before it
shifts A, through the identity channel that ``identity_channel`` finds on
A's last site (``shift``).

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

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor

# Default cap on chain length for dense materialization (2^L x 2^L output).
DENSE_GUARD = 14

# Bond caps from which compress factorises the parity sectors of each bond
# separately. Below it the per-sector assembly costs about what the half-size
# factorisations save, and which wins depends on the runs. With neither sweep
# forming Q, split single K=40 runs (LMG h=0.5 and Ising J=g=1, L=8 and 10,
# 12 interleaved pairs each, one BLAS thread) took 1.24-1.41x the one-sector
# time at cap 16, 0.87-1.06x at cap 24 and 0.69-1.02x at cap 32, where LMG
# L=8 is the one case not faster split. A cache fill of 30 LMG L=8 runs at
# cap 24 (h = 0.04..1.2, two workers) took 1.16x the CPU time split.
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
    each block and drops them, and its SVD sweep asks for each site times
    a matrix (``apply_right``): the uncompressed operator never exists
    whole, no zero-filled site is built, and the labels are those of the
    operator it stands for. A Lanczos step also holds ``channel``, the
    index of A's last left bond whose left part is I (x) ... (x) I:
    ``compress`` reads alpha at that site and shifts A there
    (``shifted``). Only ``add``, ``multiply``, ``step_operator`` and
    ``compress`` make one, and ``_maybe_compress`` never returns it.
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

    def apply_right(self, i, x):
        """Site ``i`` times ``x`` on its right bond, as a (left, out, in, k) array.

        ``x`` maps the site's right bond to k columns. Each term meets the
        rows of ``x`` at its right offset, or all of them at the last site,
        where the terms share the boundary bond; the results stack by rows
        at their left offsets, and add up at site 0, where the terms share
        the left boundary. A product is applied in factored form
        (``_product_right``), so its block is never built.
        """
        last = i == self.length - 1
        ys, right = [], 0
        for term in self.terms:
            sites = [c.tensors[i] for c in term]
            n = math.prod(t.shape[3] for t in sites)
            xt = x if last else x[right:right + n]
            right += n
            if len(sites) == 1:
                t, = sites
                ys.append((t.reshape(-1, n) @ xt).reshape(*t.shape[:3], -1))
            else:
                ys.append(_product_right(*sites, xt))
        if i == 0:
            return sum(ys[1:], ys[0])
        return np.concatenate(ys)

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


def _product_right(ta, tu, x):
    """``_site_product(ta, tu)`` times ``x`` on its right bond, without building it.

    ``x`` meets U's site over U's bond first, then A's site contracts over
    the shared physical index and A's bond: the product's (la lu, ra ru)
    block never exists.
    """
    la, po, m, ra = ta.shape
    lu, _, pi, ru = tu.shape
    k = x.shape[1]
    z = np.matmul(tu.reshape(lu * m * pi, ru), x.reshape(ra, ru, k))  # (ra, lu m i, k)
    z = z.reshape(ra, lu, m, pi, k).transpose(2, 0, 1, 3, 4).reshape(m * ra, lu * pi * k)
    y = (ta.reshape(la * po, m * ra) @ z).reshape(la, po, lu, pi, k)
    return y.transpose(0, 2, 1, 3, 4).reshape(la * lu, po, pi, k)


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
    weight, that tail included, is reported per bond.

    Neither sweep forms Q. The QR sweep keeps only R: it carries it into
    the next site, and keeps it for the SVD sweep. That sweep carries X, the
    map from the uncompressed right bond of the site at hand to the kept
    bond. Y, the uncompressed site times X (``_Pending.apply_right``, a
    product in factored form), gives the site's matrix as R Y, R of the
    bond on its left, which is the Q U S a sweep over Q would have formed
    there, less its Q; X moves one site left as Y times the Vh just kept.
    Forming Q (LAPACK's orgqr) took longer than the factorisation itself:
    ``np.linalg.qr`` of a 480 x 120 block takes 3.06 ms in reduced mode
    against 1.17 ms with ``mode="r"`` (one BLAS thread). Both sweeps reach
    LAPACK through numpy (``np.linalg.qr``, ``tensor.truncated_svd``):
    importing scipy would more than double every command's cold start, so
    it loads only if gesdd fails and the SVD falls back to gesvd.

    Parity sectors: an operator that commutes with P = prod sz (every
    shipped Hamiltonian, starting block and Krylov vector) splits each bond
    into an even and an odd sector, readable from the exact zero pattern of
    the site tensors (the parity of |o><i| is o xor i, and an all-zero index
    is a wildcard). The QR sweep reads each site's labels (``_scan_site``)
    as it builds the site's blocks, before R is carried in; a site that is
    not graded sends the chain back through the sweep as one sector. Every
    site matrix is then block diagonal, so each QR, SVD and product with R
    runs once per sector on a block about half the size.
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
    71.6-72.0 MB. A capped call then peaks at about one site of the QR
    sweep with its blocks, or one Y, beside the R factors: 0.29-0.35x the
    uncompressed operator's bytes at L=12, cap 60, split, and 0.41-0.42x
    there in one sector; 0.55-0.57x at L=8, cap 24. Keeping Q for the SVD
    sweep read 0.55-0.59x, 0.98-1.01x and 1.05-1.15x. A plain ``u`` is only
    read, never mutated.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    # a plain input's sites are only read: it is never mutated
    op = u if isinstance(u, _Pending) else _Pending([(u,)])
    sweep = _qr_sweep(op, d_max >= _SECTOR_MIN_D)
    if sweep is None:  # a site is not graded: the chain is one sector
        sweep = _qr_sweep(op, False)
    op, factors, right, alpha = sweep
    ts, discarded = _svd_sweep(op, factors, right, d_max)
    return Mpo(ts), CompressionReport(discarded, alpha)


def _qr_sweep(op, split):
    """Left-to-right QR sweep of ``compress`` over the pending sum ``op``.

    One loop for every chain: each site matrix is factorised per block, its
    parity blocks if ``split``, else the one block ``_WHOLE``, and every R
    is carried into the next site by ``_carry``, starting from the 1 x 1
    identity. The fork left is which blocks, decided in ``compress`` by
    ``_SECTOR_MIN_D``. Each site is asked for once, when R is carried into
    it; with ``split`` it is labelled first (``_scan_site``), and the sweep
    returns None at the first site that is not graded. A Lanczos step reads
    alpha once R reaches its last bond (``_step_alpha``), and shifts A
    before its last site is carried in, which is carried only to be
    labelled. Only R is formed (``mode="r"``, LAPACK's geqrf without the
    orgqr that builds Q), and nothing else of a site outlives its
    factorisation. Otherwise it returns the pending sum (shifted, for a
    step); each bond's R factors, as (parity, columns, R) per block, the
    columns being those of the site left of the bond; with ``split``, the
    parity of the last site's right bond; and the step's alpha, None for
    any other sum.
    """
    length = op.length
    bond = np.zeros(1, dtype=np.int8)
    factors = []
    # (parity, live) of the left bond of the site that R is carried into
    label = (bond, np.ones(1, dtype=bool)) if split else None
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
        blocks = _blocks(_row_parity(bond), label[0]) if split else _WHOLE
        rs = [np.linalg.qr(mat[rows][:, cols], mode="r") for _, rows, cols in blocks]
        del mat, cur
        factors.append([(p, cols, r) for (p, _, cols), r in zip(blocks, rs)])
        bond = np.repeat(np.int8([p for p, _, _ in blocks]), [r.shape[0] for r in rs])
    return op, factors, label[0] if split else None, alpha


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


def _svd_sweep(op, factors, right, d_max):
    """Right-to-left truncating SVD sweep of ``compress``; returns (sites, discarded).

    The discarded squared weight is per bond. X, starting as [[1]], maps the
    uncompressed right bond of the site at hand to the kept bond, and Y is
    that site of ``op`` times X (``_Pending.apply_right``). The matrix to
    factorise is M = R Y, R the factor of the bond on the site's left (one
    GEMM per sector, over that sector's columns only: the rest is zero);
    Vh becomes the site, X moves one site left as Y Vh^dag, and site 0 is
    Y. Since the QR sweep wrote the chain as Q R times the sites to the
    right, M is the site matrix a sweep over Q would reach, and U S = R X is
    the factor it would carry left, with no Q and no inverse of R. A split
    bond assembles its sectors' factors into zero-filled arrays under one
    merged keep rule. One sector keeps its own branch: through the same
    assembly it was byte-identical but up to 9% slower at caps of 24 and
    below (LMG L=8, cap 16, K=40: 0.258 -> 0.281 s, slower in 11 of 12
    runs). ``right`` is the parity of the last site's right bond, None in
    one sector.
    """
    length = op.length
    ts = [None] * length
    discarded = np.zeros(length - 1)
    x = np.ones((1, 1))
    for i in range(length - 1, 0, -1):
        y = op.apply_right(i, x)
        dl, po, pi, dr = y.shape
        y = y.reshape(dl, -1)
        blocks = factors[i - 1]
        factors[i - 1] = None
        if right is None:
            (_, _, r), = blocks
            res = tensor.truncated_svd(r @ y, d_max)
            ts[i] = res.vh.reshape(res.s.size, po, pi, dr)
            x = y @ res.vh.conj().T
            discarded[i - 1] = res.discarded_weight
        else:
            col_parity = _col_parity(right)
            cols = [np.flatnonzero(col_parity == p) for p, _, _ in blocks]
            svds = [tensor.truncated_svd(r @ y[rows][:, c], d_max)
                    for (_, rows, r), c in zip(blocks, cols)]
            kept = _merged_keep([res.s for res in svds], d_max)
            vh_all = np.zeros((kept.sum(), y.shape[1]),
                              dtype=np.result_type(*(res.vh for res in svds)))
            x = np.empty((dl, kept.sum()), dtype=np.result_type(y, vh_all))
            off = 0
            for c, res, k in zip(cols, svds, kept):
                vh_all[off:off + k, c] = res.vh[:k]
                x[:, off:off + k] = y[:, c] @ res.vh[:k].conj().T
                discarded[i - 1] += res.discarded_weight + float(np.sum(res.s[k:] ** 2))
                off += k
            ts[i] = vh_all.reshape(off, po, pi, dr)
            right = np.repeat(np.int8([p for p, _, _ in blocks]), kept)
            del svds
        # the next Y is built from x alone: no local may keep a spent factor alive
        del blocks, res, y
    ts[0] = op.apply_right(0, x)
    return ts, discarded


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
