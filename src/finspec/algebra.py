"""Finite direct sums of complex matrix algebras A = M_{n_1} + ... + M_{n_r}.

Elements are tuples of dense square blocks.  The bimodule side is handled
through vertex-block layouts: the Hilbert space is an ordered direct sum of
irreducible pieces C^{n_i} (x) C^{n_j o}, one per vertex, stored row-major,
so the left action of a is kron(a_i, 1) and the right action of b is
kron(1, b_j^T) on each block (b o xi o := (xi^T b)^T on the opposite factor).
VertexLayout.legs and unit_maps hold the indices of each vertex and algebra block, built once per
layout as read-only arrays; operators that are scalar, or the leg swap Jhat (its transpose), on each
vertex block (the real structure, the grading, fiber basis changes) come from VertexLayout.place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        """sum over (a, b) in pairs of pi(a) X pi(b), with no n x n pi built (_sandwich on the blocks of each pair)."""
        return self._sandwich([(a.blocks, b.blocks) for a, b in pairs], X)

    def _sandwich(self, pairs, X: np.ndarray) -> np.ndarray:
        """sandwich for pairs of block tuples: one gather, one GEMM and one scatter per pair of algebra blocks.

        On the legs L_i, L_k of blocks i and k (unit_maps) the sum is T_ik = sum a_i (x) b_k, laid out as an
        (n_i n_k) x (n_i n_k) matrix, times the gather X[L_i[x, z], L_k[y, w]] as an (n_i n_k) x (m_i m_k) one:
        O(sum_{i,k} n_i^2 n_k^2 m_i m_k) for m_i legs of block i, for any number of pairs.
        """
        out = np.zeros(X.shape, dtype=complex)
        if not pairs:
            return out
        legs = [(i, L) for i, L in self._units.items() if L.size]
        for i, Li in legs:
            A = np.stack([a[i - 1] for a, _b in pairs])
            for k, Lk in legs:
                B = np.stack([b[k - 1] for _a, b in pairs])
                (n_i, m_i), (n_k, m_k) = Li.shape, Lk.shape
                at = Li[:, None, :, None], Lk[None, :, None, :]
                T = np.einsum("txX,tYy->xyXY", A, B).reshape(n_i * n_k, n_i * n_k)
                out[at] = np.dot(T, X[at].reshape(n_i * n_k, m_i * m_k)).reshape(n_i, n_k, m_i, m_k)
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
