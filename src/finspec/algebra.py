"""Finite direct sums of complex matrix algebras A = M_{n_1} + ... + M_{n_r}.

Elements are tuples of dense square blocks.  The bimodule side is handled
through vertex-block layouts: the Hilbert space is an ordered direct sum of
irreducible pieces C^{n_i} (x) C^{n_j o}, one per vertex, stored row-major,
so the left action of a is kron(a_i, 1) and the right action of b is
kron(1, b_j^T) on each block (b o xi o := (xi^T b)^T on the opposite factor).
VertexLayout.legs and unit_maps hold the indices of each vertex and algebra block, built once per
layout as read-only arrays; operators that are scalar, or the leg swap Jhat (its transpose), on each
vertex block (the real structure, the grading, fiber basis changes) come from VertexLayout.place.
VertexLayout.factors reads the split X[w, v] = L (x) 1 + 1 (x) R of every vertex block at once, with L on
a padded left space of n_a slots per vertex, where pi(a) acts as a_{i(w)} on each vertex; lift_left writes
L (x) 1 (and J (L (x) 1) J^-1 for a monomial K) back into a dense buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_TOL = 1e-10


class ProfileMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    m = np.array(x, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frob(m) -> float:
    return float(np.linalg.norm(m, "fro")) if np.asarray(m).size else 0.0


def _peel(diag, n, axis):
    """Take F (x) 1 off in place and return F = tr / n (axis kept, of length 1), for diag the entries of an operator
    where the n legs of the identity factor agree, those legs on axis: the first-order split, one factor at a time."""
    F = diag.sum(axis, keepdims=True) / n
    diag -= F
    return F


@dataclass(frozen=True)
class AlgebraProfile:
    """Block dimensions (n_1, ..., n_r) of a finite sum of matrix algebras."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0:
            raise ValueError("profile needs at least one block")
        if any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def r(self) -> int:
        return len(self.dims)

    def dim(self, i: int) -> int:
        """Dimension n_i, with i counted from 1."""
        return self.dims[i - 1]

    def __iter__(self):
        return iter(self.dims)


class AlgebraElement:
    """An element a = a_1 + ... + a_r with a_i an n_i x n_i complex matrix."""

    __slots__ = ("profile", "blocks")

    def __init__(self, profile: AlgebraProfile, blocks):
        blocks = tuple(as_matrix(b) for b in blocks)
        if len(blocks) != profile.r:
            raise ProfileMismatch(f"expected {profile.r} blocks, got {len(blocks)}")
        for n, b in zip(profile.dims, blocks):
            if b.shape != (n, n):
                raise ShapeMismatch(f"block of shape {b.shape} does not match n={n}")
        for b in blocks:
            b.flags.writeable = False
        self.profile = profile
        self.blocks = blocks

    @classmethod
    def identity(cls, profile: AlgebraProfile) -> "AlgebraElement":
        return cls(profile, [np.eye(n, dtype=complex) for n in profile.dims])

    @classmethod
    def zero(cls, profile: AlgebraProfile) -> "AlgebraElement":
        return cls(profile, [np.zeros((n, n), dtype=complex) for n in profile.dims])

    def block(self, i: int) -> np.ndarray:
        """Block a_i, with i counted from 1."""
        return self.blocks[i - 1]

    def mul(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise matrix product."""
        if self.profile != other.profile:
            raise ProfileMismatch("cannot multiply elements over different profiles")
        return AlgebraElement(self.profile, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose."""
        return AlgebraElement(self.profile, [b.conj().T for b in self.blocks])

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff ||a* a - 1||_F <= tol on every block."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        return all(frob(b.conj().T @ b - np.eye(b.shape[0])) <= tol for b in self.blocks)

    def norm(self) -> float:
        """Frobenius norm, from each block's sum of squares."""
        return math.sqrt(sum(np.vdot(b, b).real for b in self.blocks))

    def __matmul__(self, other):
        return self.mul(other)

    def __add__(self, other):
        if self.profile != other.profile:
            raise ProfileMismatch("cannot add elements over different profiles")
        return AlgebraElement(self.profile, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return AlgebraElement(self.profile, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def allclose(self, other, tol: float = DEFAULT_TOL) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self):
        return f"AlgebraElement(dims={self.profile.dims})"


def unit_insert(profile: AlgebraProfile, i: int, m: np.ndarray) -> AlgebraElement:
    """Element with block i set to m and the other blocks zero (i from 1)."""
    blocks = [np.zeros((n, n), dtype=complex) for n in profile.dims]
    blocks[i - 1] = as_matrix(m)
    return AlgebraElement(profile, blocks)


def matrix_units(profile: AlgebraProfile):
    """Generating basis {E^i_{xy}} of the algebra, one matrix unit at a time."""
    for i, n in enumerate(profile.dims, start=1):
        for x in range(n):
            for y in range(n):
                m = np.zeros((n, n), dtype=complex)
                m[x, y] = 1.0
                yield unit_insert(profile, i, m)


@dataclass(frozen=True)
class LayoutBlock:
    vid: tuple          # vertex id (i, p, j), all 1-based
    i: int
    j: int
    offset: int
    n_i: int
    n_j: int

    @property
    def length(self) -> int:
        return self.n_i * self.n_j

    @property
    def sl(self) -> slice:
        return slice(self.offset, self.offset + self.length)


class VertexLayout:
    """Ordered vertex-block decomposition of H = sum over v of C^{n_i} (x) C^{n_j o}."""

    def __init__(self, profile: AlgebraProfile, vids):
        self.profile = profile
        blocks = []
        offset = 0
        for vid in vids:
            i, _p, j = vid
            b = LayoutBlock(vid, i, j, offset, profile.dim(i), profile.dim(j))
            blocks.append(b)
            offset += b.length
        self.blocks = tuple(blocks)
        self.total_dim = offset
        self._by_vid = {b.vid: b for b in self.blocks}
        if len(self._by_vid) != len(self.blocks):
            raise ValueError("duplicate vertex ids in layout")
        self._legs = {b.vid: np.arange(b.offset, b.offset + b.length).reshape(b.n_i, b.n_j) for b in self.blocks}
        self._units = {i: np.hstack([np.zeros((n, 0), int)] + [self._legs[b.vid] for b in self.blocks if b.i == i])
                       for i, n in enumerate(profile.dims, start=1)}
        for table in [*self._legs.values(), *self._units.values()]:  # each call returns the same array: none is written
            table.flags.writeable = False

    def block(self, vid) -> LayoutBlock:
        return self._by_vid[vid]

    @property
    def vids(self):
        return tuple(b.vid for b in self.blocks)

    def legs(self, vid) -> np.ndarray:
        """Flat indices of block vid as a read-only n_i x n_j array, [x, y] for e_x (x) e_y o; its transpose is Jhat."""
        return self._legs[vid]

    def index(self, vid, x: int, y: int) -> int:
        """Flat index of basis vector e_x (x) e_y o inside block vid (x, y from 0)."""
        return int(self.legs(vid)[x, y])

    def place(self, coeffs, swap: bool = False) -> np.ndarray:
        """Operator whose (w, v) block is c 1, or c Jhat with swap, for each ((w, v), c).

        One scatter per block onto the legs (legs of w transposed with swap), accumulated with += into zeros.
        """
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for (w, v), c in coeffs.items():
            out[self.legs(w).T if swap else self.legs(w), self.legs(v)] += c
        return out

    def unit_maps(self, i: int) -> np.ndarray:
        """Index map L of block i, one row per leg: pi(E^i_xy) = sum_z e_{L[x, z]} e_{L[y, z]}^T.

        pi(E^i_xy) is the partial permutation L[y] -> L[x], and pi(1_i) the mask on L.ravel().  Read-only.
        """
        return self._units[i]

    def sandwich(self, pairs, X: np.ndarray) -> np.ndarray:
        """sum over (a, b) in pairs of AlgebraElements of pi(a) X pi(b), with no n x n pi built: one gather, one GEMM
        and one scatter per pair of algebra blocks.

        On the legs L_i, L_k of blocks i and k (unit_maps) the sum is T_ik = sum a_i (x) b_k, laid out as an
        (n_i n_k) x (n_i n_k) matrix, times the gather X[L_i[x, z], L_k[y, w]] as an (n_i n_k) x (m_i m_k) one:
        O(sum_{i,k} n_i^2 n_k^2 m_i m_k) for m_i legs of block i, for any number of pairs.
        """
        out = np.zeros(X.shape, dtype=complex)
        if not pairs:
            return out
        legs = [(i, L) for i, L in self._units.items() if L.size]
        for i, Li in legs:
            A = np.stack([a.blocks[i - 1] for a, _b in pairs])
            for k, Lk in legs:
                B = np.stack([b.blocks[k - 1] for _a, b in pairs])
                (n_i, m_i), (n_k, m_k) = Li.shape, Lk.shape
                at = Li[:, None, :, None], Lk[None, :, None, :]
                T = np.einsum("txX,tYy->xyXY", A, B).reshape(n_i * n_k, n_i * n_k)
                out[at] = np.dot(T, X[at].reshape(n_i * n_k, m_i * m_k)).reshape(n_i, n_k, m_i, m_k)
        return out

    @cached_property
    def _pads(self):
        """(n_a, n_b): the most left and right legs of a vertex, the slots per vertex of the padded spaces."""
        return max((b.n_i for b in self.blocks), default=0), max((b.n_j for b in self.blocks), default=0)

    @cached_property
    def _split_tables(self):
        """Index tables of factors and lift_left, built on first use: O(n^2 / n_j) integers.

        Per algebra block j, np.ix_ of the padded left slots k n_a + x of the vertices w (k-th in the layout) with
        j(w) = j, their indices R[slot, y] = legs(w)[x, y], and the flat indices R[s, y] n + R[s', y] of the entries
        where the rho legs agree, as a (y, s s') array; the same per block i for the padded right slots k n_b + y of
        the vertices with i(w) = i and Q[slot, x] = legs(w)[x, y] (unit_maps' transpose); and per block i the
        positions k of its vertices.
        """
        (na, nb), left, right, verts = self._pads, {}, {}, {}
        for k, b in enumerate(self.blocks):
            legs = self._legs[b.vid]
            left.setdefault(b.j, []).append((k * na + np.arange(b.n_i), legs))
            right.setdefault(b.i, []).append((k * nb + np.arange(b.n_j), legs.T))
            verts.setdefault(b.i, []).append(k)
        tables = lambda slots, idx: (np.ix_(slots, slots), idx,
                                     (idx.T[:, :, None] * self.total_dim + idx.T[:, None, :]).reshape(len(idx.T), -1))
        stack = lambda groups: [tables(np.concatenate([s for s, _ in g]), np.vstack([t for _, t in g]))
                                for g in groups.values()]
        return stack(left), stack(right), {i: np.array(ks) for i, ks in verts.items()}

    def factors(self, X: np.ndarray):
        """(L, R, residual) with X = iota_L(L) + iota_R(R) + rest and residual = ||rest||_F, taken explicitly.

        L holds tr_rho X[w, v] / n_j on the padded left slots of each vertex pair with j(w) = j(v), and R holds
        tr_lambda / n_i of what is left on the padded right slots of each pair with i(w) = i(v): validate's split of
        each edge (_peel), on all blocks at once.  Blocks between unrelated fibers stay in rest.  One gather and one
        scatter per algebra block and side, of the entries where the identity factor's legs agree.
        """
        (na, nb), V = self._pads, len(self.blocks)
        rest = np.array(X, dtype=complex, order="C")
        F, flat = (np.zeros((V * na, V * na), complex), np.zeros((V * nb, V * nb), complex)), rest.reshape(-1)
        for out, classes in zip(F, self._split_tables):
            for slots, idx, at in classes:
                G = flat[at].reshape(-1, len(idx), len(idx))
                out[slots] = _peel(G, idx.shape[1], 0)[0]
                flat[at] = G.reshape(at.shape)
        return (*F, frob(rest))

    def _J_tables(self, mono):
        """Per block j of lift_left, the flat indices of J's image of its entries, at rows and columns perm^-1 for
        mono = (perm, phase) of a monomial K, in lift_left's (y, s, s') order, and the phases phase[perm^-1 R^T]."""
        inv, n = np.argsort(mono[0]), self.total_dim
        return [(at[:, :, None] * n + at[:, None, :], mono[1][at])
                for at in (inv[idx.T] for _slots, idx, _flat in self._split_tables[0])]

    def _left_pi(self, elements) -> np.ndarray:
        """pi_L of T AlgebraElements as a (T, V, n_a, n_a) stack of vertex blocks: a_{i(w)} on the first n_i slots of
        w, zero on the padding."""
        na = self._pads[0]
        out = np.zeros((len(elements), len(self.blocks), na, na), dtype=complex)
        for i, ks in self._split_tables[2].items():
            n = self.profile.dim(i)
            out[:, ks, :n, :n] = np.stack([a.blocks[i - 1] for a in elements])[:, None]
        return out

    def _left_commutators(self, pairs, L: np.ndarray) -> np.ndarray:
        """sum over (a, b) in pairs of pi_L(a) (L pi_L(b) - pi_L(b) L), for elements and L on the padded left space.

        Each commutator is formed before its left factor, so where it vanishes no a L b - a b L cancellation is left.
        Three batched products of n_a x n_a vertex blocks with n_a x N strips of L, N = V n_a: O(T N^2 n_a) for T pairs.
        """
        if not pairs:
            return np.zeros_like(L)
        na, V, N = self._pads[0], len(self.blocks), len(L)
        A, B = (self._left_pi([p[k] for p in pairs]) for k in (0, 1))
        C = np.matmul(B, L.reshape(V, na, N)).reshape(-1, N, N)  # pi_L(b) L
        LB = np.matmul(B.swapaxes(-1, -2), L.T.reshape(V, na, N)).reshape(-1, N, N)  # (L pi_L(b))^T
        np.subtract(LB.swapaxes(-1, -2), C, out=C)
        return np.matmul(A, C.reshape(-1, V, na, N)).sum(0).reshape(N, N)

    def _left_hermiticity(self, M: np.ndarray) -> float:
        """||iota_L(M) - iota_L(M)^dagger||_F for M on the padded left space: each entry of M - M^dagger counts
        n_j(w) times, so the sum of squares has no cancellation."""
        H = M - M.conj().T
        weights = np.repeat([b.n_j for b in self.blocks], self._pads[0])
        return math.sqrt(float(np.vdot(H, weights[:, None] * H).real))

    def lift_left(self, M: np.ndarray, base=None, J=None, c=1.0) -> np.ndarray:
        """base + iota_L(M), M (x) 1 on each vertex pair with one j, for M on the padded left space and zero between
        vertices of different j, written into a new array (zeros when base is None); with J = _J_tables(mono) of a
        monomial K, then c K conj(iota_L(M)) K^dagger is added, with the numbers RealSpectralTriple.conjugate_by_J
        gathers.  One scatter per algebra block of the left classes, and one of their J image."""
        n = self.total_dim
        out = np.zeros((n, n), dtype=complex) if base is None else np.array(base, dtype=complex, order="C")
        flat, blocks = out.reshape(-1), [M[slots] for slots, _idx, _at in self._split_tables[0]]
        for (_slots, _idx, at), Mj in zip(self._split_tables[0], blocks):
            flat[at] += Mj.reshape(-1)
        for (at, phase), Mj in zip(J or (), blocks):
            flat[at] += c * (phase[:, :, None] * np.conj(Mj) * np.conj(phase)[:, None, :])
        return out

    def pi(self, a: AlgebraElement) -> np.ndarray:
        """Left representation pi(a), acting as a_{i(v)} on each block."""
        if a.profile != self.profile:
            raise ProfileMismatch("element profile does not match layout")
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for b in self.blocks:
            out[b.sl, b.sl] = np.kron(a.block(b.i), np.eye(b.n_j))
        return out


def right_action(b: AlgebraElement, psi: np.ndarray, layout: VertexLayout) -> np.ndarray:
    """Apply the opposite-algebra action of b to a vector psi of the layout.

    Satisfies (b o)(b' o) = (b' b) o: acting with b then b' equals acting
    with b' b once.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (layout.total_dim,):
        raise ShapeMismatch(f"vector of shape {psi.shape} does not match layout dim {layout.total_dim}")
    if b.profile != layout.profile:
        raise ProfileMismatch("element profile does not match layout")
    out = np.empty_like(psi)
    for blk in layout.blocks:  # kron(1, b_j^T) on the row-major legs of a block is psi_v -> psi_v b_j
        out[blk.sl] = (psi[blk.sl].reshape(blk.n_i, blk.n_j) @ b.block(blk.j)).ravel()
    return out
