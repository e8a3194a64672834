"""Index-loop versions of the vertex-block assemblies, kept as test oracles.

Each function is the explicit loop that `VertexLayout.place` and the index
maps of `build_phiH` replaced.  The tests compare the two on seeded random
diagrams and lifts: entry for entry where the assembly is a placement of
given numbers, and to 1e-12 where it is a sum (the middle-map extraction).
"""

import numpy as np

from finspec.algebra import frob
from finspec.krajewski import _vdim, epsilon_factor, layout_of
from finspec.lifting import PhiHMap


def swap_matrix(n_i: int, n_j: int) -> np.ndarray:
    """Jhat on a vertex with dims (n_i, n_j): xi (x) eta o -> eta (x) xi o."""
    s = np.zeros((n_j * n_i, n_i * n_j))
    for x in range(n_i):
        for y in range(n_j):
            s[y * n_i + x, x * n_j + y] = 1.0
    return s


def real_structure(diag, layout):
    """K and gamma of a diagram, as assembled by realize."""
    n = layout.total_dim
    K = np.zeros((n, n), dtype=complex)
    for vid in diag.sorted_vids():
        v = diag.vertex(vid)
        w = diag.jim[vid]
        n_i, n_j = _vdim(diag.profile, vid)
        K[layout.block(w).sl, layout.block(vid).sl] = epsilon_factor(v, diag.d) * swap_matrix(n_i, n_j)

    gamma = None
    if diag.ko.even:
        g = np.zeros(n)
        for vid in diag.sorted_vids():
            b = layout.block(vid)
            g[b.sl] = diag.vertex(vid).s
        gamma = np.diag(g).astype(complex)
    return K, gamma


def extract_middle_map(t, fiber_src, fiber_dst, M, expect_swap):
    """Reconstruct the C^mu factor of an operator that is 1 (x) f (x) 1."""
    layout = t.layout
    mu_s, mu_d = len(fiber_src), len(fiber_dst)
    n_i, n_j = _vdim(t.profile, fiber_src[0])
    f = np.zeros((mu_d, mu_s), dtype=complex)
    for q, wv in enumerate(fiber_dst):
        for p, vv in enumerate(fiber_src):
            acc = 0.0
            for x in range(n_i):
                for y in range(n_j):
                    row = layout.index(wv, y, x) if expect_swap else layout.index(wv, x, y)
                    acc += M[row, layout.index(vv, x, y)]
            f[q, p] = acc / (n_i * n_j)
    # residual of the reconstruction
    rec = np.zeros_like(M)
    for q, wv in enumerate(fiber_dst):
        for p, vv in enumerate(fiber_src):
            for x in range(n_i):
                for y in range(n_j):
                    row = layout.index(wv, y, x) if expect_swap else layout.index(wv, x, y)
                    rec[row, layout.index(vv, x, y)] = f[q, p]
    bs = np.concatenate([np.arange(layout.block(v).offset, layout.block(v).offset + layout.block(v).length) for v in fiber_src])
    bd = np.concatenate([np.arange(layout.block(w).offset, layout.block(w).offset + layout.block(w).length) for w in fiber_dst])
    res = frob(M[np.ix_(bd, bs)] - rec[np.ix_(bd, bs)])
    return f, res


def witness(t, layout, fibers, bases):
    """The witness unitary W of classify, block diagonal over fibers."""
    W = np.zeros((t.dim, t.dim), dtype=complex)
    for (i, j), fiber in sorted(fibers.items()):
        n_i, n_j = _vdim(t.profile, fiber[0])
        for p, m in enumerate(bases[(i, j)]):
            new_vid = fiber[p]
            for q, old_vid in enumerate(fiber):
                if abs(m[q]) == 0.0:
                    continue
                for x in range(n_i):
                    for y in range(n_j):
                        W[layout.index(old_vid, x, y), layout.index(new_vid, x, y)] += m[q]
    return W


def rotation(layout, coeffs):
    """The block change of basis Q of diagonalize_bases."""
    Q = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for v_new, (vids, row) in coeffs.items():
        bn = layout.block(v_new)
        for c, v_old in zip(row, vids):
            if c == 0.0:
                continue
            bo = layout.block(v_old)
            Q[bo.sl, bn.sl] += c * np.eye(bn.length)
    return Q


def build_phiH(lift) -> PhiHMap:
    """Assemble the dense H_A -> H_B matrix of the lift."""
    src_layout = layout_of(lift.source)
    tgt_layout = layout_of(lift.target)
    arrow = lift.arrow
    M = np.zeros((tgt_layout.total_dim, src_layout.total_dim), dtype=complex)
    for (v, w), u in lift.u.items():
        i, _p, j = v
        k, _q, l = w
        n_i, n_j = arrow.source.dim(i), arrow.source.dim(j)
        m_l = arrow.target.dim(l)
        koff = arrow.band_offset(k, i)
        loff = arrow.band_offset(l, j)
        wb = tgt_layout.block(w)
        vb = src_layout.block(v)
        for a in range(u.shape[0]):
            for b in range(u.shape[1]):
                if u[a, b] == 0.0:
                    continue
                for x in range(n_i):
                    row_k = koff + a * n_i + x
                    for y in range(n_j):
                        col_l = loff + b * n_j + y
                        M[wb.offset + row_k * m_l + col_l, vb.offset + x * n_j + y] += u[a, b]
    return PhiHMap(M, src_layout, tgt_layout, normalized=lift.normalized)
