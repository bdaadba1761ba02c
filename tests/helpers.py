"""Shared dense oracles and random-MPO generators for the test suite.

The dense constructions here are deliberately independent of the package's
MPO contraction code: they build operators with explicit Kronecker products,
so they can serve as ground truth for it.
"""

import struct

import numpy as np
import scipy.linalg

from mpotrace import Mpo, mpo, tensor

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma+, real and not symmetric
ID2 = np.eye(2)


def kron_chain(ops):
    out = np.array([[1.0]])
    for op in ops:
        out = np.kron(out, op)
    return out


def site_op(length, site, op):
    """Dense operator acting with ``op`` on one 1-based site."""
    return kron_chain([op if k == site else ID2 for k in range(1, length + 1)])


def dense_ising(length, j_coupling, g_field):
    dim = 2 ** length
    h = np.zeros((dim, dim))
    for i in range(1, length):
        h += j_coupling * kron_chain(
            [SX if k in (i, i + 1) else ID2 for k in range(1, length + 1)])
    for i in range(1, length + 1):
        h += g_field * site_op(length, i, SZ)
    return h


def dense_lmg(length, h_field):
    dim = 2 ** length
    sx_tot = np.zeros((dim, dim))
    sz_tot = np.zeros((dim, dim))
    for i in range(1, length + 1):
        sx_tot += site_op(length, i, SX) / 2.0
        sz_tot += site_op(length, i, SZ) / 2.0
    return -(sx_tot @ sx_tot) / length - h_field * sz_tot


def exact_bond_cap(length):
    """A bond cap at which no operator on a spin-1/2 chain of ``length`` sites truncates."""
    return 4 ** (length // 2)


def random_mpo(rng, length, bond, phys=2, complex_entries=True):
    dims = [1] + [bond] * (length - 1) + [1]
    tensors = []
    for i in range(length):
        shape = (dims[i], phys, phys, dims[i + 1])
        t = rng.standard_normal(shape)
        if complex_entries:
            t = t + 1j * rng.standard_normal(shape)
        tensors.append(t / np.sqrt(bond * phys))
    return Mpo(tensors)


def random_hermitian_mpo(rng, length, bond, phys=2):
    """Site-wise Hermitian tensors make the whole operator Hermitian."""
    dims = [1] + [bond] * (length - 1) + [1]
    tensors = []
    for i in range(length):
        shape = (dims[i], phys, phys, dims[i + 1])
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t = t + t.conj().transpose(0, 2, 1, 3)
        tensors.append(t / np.sqrt(bond * phys))
    return Mpo(tensors)


def dense_compress(u, d_max):
    """Reference compression: one QR+SVD sweep over whole site matrices.

    This is ``mpo.compress`` without parity sectors; returns the compressed
    MPO and the discarded weight per bond.
    """
    ts = list(u.tensors)
    for i in range(len(ts) - 1):
        dl, po, pi, dr = ts[i].shape
        q, r = scipy.linalg.qr(ts[i].reshape(dl * po * pi, dr), mode="economic")
        ts[i] = q.reshape(dl, po, pi, q.shape[1])
        ts[i + 1] = np.tensordot(r, ts[i + 1], axes=(1, 0))
    discarded = np.zeros(len(ts) - 1)
    for i in range(len(ts) - 1, 0, -1):
        dl, po, pi, dr = ts[i].shape
        res = tensor.truncated_svd(ts[i].reshape(dl, po * pi * dr), d_max)
        ts[i] = res.vh.reshape(res.s.size, po, pi, dr)
        ts[i - 1] = np.tensordot(ts[i - 1], res.u * res.s, axes=(3, 0))
        discarded[i - 1] = res.discarded_weight
    return Mpo(ts), discarded


def random_graded_mpo(rng, length, bond, complex_entries=True):
    """Random MPO that commutes with the parity prod sz.

    Each bond index gets a random parity and every entry that breaks
    p(right) = p(left) xor out xor in is zeroed.
    """
    u = random_mpo(rng, length, bond, complex_entries=complex_entries)
    phys = np.add.outer(np.arange(2), np.arange(2)) % 2  # parity of |o><i|
    left = np.zeros(1, dtype=int)
    tensors = []
    for i, t in enumerate(u.tensors):
        right = np.zeros(1, dtype=int) if i == length - 1 else rng.integers(0, 2, t.shape[3])
        allowed = (left[:, None, None, None] + phys[None, :, :, None]) % 2 == right
        tensors.append(np.where(allowed, t, 0.0))
        left = right
    return Mpo(tensors)


def bond_parities(tensors):
    """Right-bond parity of each site of a chain as it stands, or None if a
    site is not graded: ``mpo._scan_site`` from an even left boundary.

    ``compress`` scans each site only after R is carried into it, which
    zeroes the rows an all-zero index feeds; this scan of the raw sites does
    not, so a chain with such an index can read as not graded here.
    """
    label = np.zeros(1, dtype=np.int8)
    out = []
    for t in tensors:
        label = mpo._scan_site(t, label)
        if label is None:
            return None
        out.append(label)
    return out


def _nearest_neighbour_chain(length, left_ops, right_ops, field):
    """MPO of sum_i sum_k left_k(i) right_k(i+1) + sum_i field(i), open chain."""
    n = len(left_ops) + 2
    w = np.zeros((n, 2, 2, n), dtype=complex)
    w[0, :, :, 0] = ID2
    w[-1, :, :, -1] = ID2
    w[0, :, :, -1] = field
    for k, (left, right) in enumerate(zip(left_ops, right_ops), start=1):
        w[0, :, :, k] = left
        w[k, :, :, -1] = right
    if not np.any(w.imag):
        w = w.real
    return Mpo([w[:1]] + [w] * (length - 2) + [w[:, :, :, -1:]])


def dm_chain_mpo(length, j_coupling, d_coupling, g_field):
    """J sx sx + D (sx sy - sy sx) on every bond plus g sz: Hermitian, complex."""
    return _nearest_neighbour_chain(length, [SX, SY],
                                    [j_coupling * SX + d_coupling * SY, -d_coupling * SX],
                                    g_field * SZ)


def raising_chain_mpo(length):
    """sigma+ sx on every bond plus sz: real, graded and not symmetric."""
    return _nearest_neighbour_chain(length, [SP], [SX], SZ)


def forge_alpha_count(path):
    """Set the alphas count of a saved run file to 2^32 - 1: 34 GB that the file does not hold."""
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[8:12])
    count = 12 + blob_len + 8  # after the header, its JSON blob and beta1
    path.write_bytes(data[:count] + struct.pack("<I", 0xFFFFFFFF) + data[count + 4:])
    return path


def reference_czz(spectrum, betas, pairs):
    """{pair: C_zz per beta} from dense sz_i, sz_j and sz_i sz_j on the eigenvectors.

    The reference for the oracle, which reads sz off the product-basis diagonal.
    """
    evals, v, length = spectrum.eigenvalues, spectrum.eigenvectors, spectrum.length
    out = {}
    for i, j in pairs:
        zi, zj = site_op(length, i, SZ), site_op(length, j, SZ)
        d_zz = np.einsum("ij,ij->j", v.conj(), (zi @ zj) @ v).real
        d_i = np.einsum("ij,ij->j", v.conj(), zi @ v).real
        d_j = np.einsum("ij,ij->j", v.conj(), zj @ v).real
        vals = []
        for beta in betas:
            p = np.exp(-beta * (evals - evals[0]))
            p /= p.sum()
            vals.append(p @ d_zz - (p @ d_i) * (p @ d_j))
        out[i, j] = np.array(vals)
    return out


def reference_shifted_gibbs(run, beta):
    """(g, p) of e^{-beta H} on a run's Gauss rule, one beta at a time, with
    g = log Z + beta node_0, node_0 the lowest node.

    This and the functions below are the thermal layer's per-temperature
    arithmetic written out plainly, with the numpy module reductions; the
    package must reproduce every value of them bit for bit.
    """
    if beta < 0.0 or not np.isfinite(beta):
        raise ValueError("beta must be finite and >= 0")
    nodes = run.quadrature.nodes
    m = run.quadrature.weights * np.exp(-beta * (nodes - nodes[0]))
    tot = float(np.sum(m))
    if not np.isfinite(tot) or tot <= 0.0:
        raise ArithmeticError("degenerate quadrature mass")
    return float(np.log(tot)), m / tot


def reference_gibbs(run, beta):
    """(log Z, p) of e^{-beta H} on a run's Gauss rule, one beta at a time."""
    g, p = reference_shifted_gibbs(run, beta)
    return -beta * float(run.quadrature.nodes[0]) + g, p


def reference_partition_traces(run, betas):
    """(log Z, F/Z, centred Var H) per beta."""
    nodes = run.quadrature.nodes
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    log_z = np.empty(b.size)
    mean = np.empty(b.size)
    var = np.empty(b.size)
    for idx, beta in enumerate(b):
        log_z[idx], p = reference_gibbs(run, beta)
        mean[idx] = float(np.dot(p, nodes))
        d = nodes - mean[idx]
        var[idx] = float(np.dot(p, d * d))
    return log_z, mean, var


def reference_pair_observables(run, betas, pair_betas):
    """(F_T, D_T) per pair (beta, beta'), each state evaluated on its own.

    F_T = sum_j sqrt(p_j p'_j) / sqrt(sum_j p_j sum_j p'_j) over the pair's
    Gibbs weights.
    """
    b0 = np.atleast_1d(np.asarray(betas, dtype=float))
    b1 = np.atleast_1d(np.asarray(pair_betas, dtype=float))
    fidelity = np.empty(b0.size)
    distance = np.empty(b0.size)
    for idx in range(b0.size):
        _, p0 = reference_shifted_gibbs(run, b0[idx])
        _, p1 = reference_shifted_gibbs(run, b1[idx])
        fidelity[idx] = np.sum(np.sqrt(p0 * p1)) / np.sqrt(np.sum(p0) * np.sum(p1))
        distance[idx] = np.sum(np.abs(p0 - p1))
    return fidelity, distance


def reference_expectation(parts, z_run, betas):
    """<O> per beta: log Z of every run taken per (part, beta)."""
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    out = np.empty(b.size)
    for idx, beta in enumerate(b):
        log_z, _ = reference_gibbs(z_run, beta)
        out[idx] = sum(sign * np.exp(reference_gibbs(part, beta)[0] - log_z)
                       for sign, part in parts)
    return out


def reference_zz_from_runs(runs, betas):
    """C_zz per beta from the runs of ``thermal.zz_blocks``' four blocks, in its
    order: 4 (Z00 Z11 - Z01 Z10) / Z^2 with Z = sum_ab Z_ab, one beta at a time."""
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    out = np.empty(b.size)
    for idx, beta in enumerate(b):
        l00, l01, l10, l11 = (reference_gibbs(run, beta)[0] for run in runs)
        top = max(l00, l01, l10, l11)
        log_z = top + np.log(np.exp(l00 - top) + np.exp(l01 - top)
                             + np.exp(l10 - top) + np.exp(l11 - top))
        out[idx] = 4.0 * (np.exp(l00 + l11 - 2.0 * log_z) - np.exp(l01 + l10 - 2.0 * log_z))
    return out
