"""Krajewski diagrams: decorated graphs classifying finite real spectral triples.

A diagram over A = sum_i M_{n_i} has vertices v with (lambda, rho)(v) =
(n_i, n_j), an involution jim with lambda o jim = rho, a grading decoration
s(v) = +-1 in even KO-dimension, a parity chi(v) in {0,1} on diagonal
vertices for d in {2,...,6}, and edges e = (v1, v2) decorated by nonzero
maps D_e : H_{v1} -> H_{v2} subject to

    D_ebar = D_e^dagger,
    D_{jim(e)} = eps' eps(v1,d) eps(v2,d) Jhat_{v2} J0 D_e J0 Jhat_{jim(v1)},
    D_e = 1 (x) D_R   when lambda matches and rho does not,
    D_e = D_L (x) 1   when rho matches and lambda does not,
    s(v2) = -s(v1)    in the even case.

Realization produces the concrete triple (H, D, J = K o conj, gamma);
classification inverts it by constructing fiber bases adapted to the real
structure, following the basis normal forms for each KO-dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraProfile,
    VertexLayout,
    _peel,
    as_matrix,
    frob,
)
from .reports import Report

# KO-dimension sign table: d -> (eps, eps', eps'') with eps'' only for even d.
KO_TABLE = {
    0: (1, 1, 1),
    1: (1, -1, None),
    2: (-1, 1, -1),
    3: (-1, 1, None),
    4: (-1, 1, 1),
    5: (-1, -1, None),
    6: (1, 1, -1),
    7: (1, 1, None),
}

EDGE_KINDS = ("left", "right", "general")

# relative residual below which a Dirac operator counts as split into L (x) 1 + 1 (x) R (RealSpectralTriple._split)
_SPLIT_ROUNDING = 1e-14


class DiagramError(ValueError):
    pass


class ClassificationError(RuntimeError):
    def __init__(self, step, message, residual=None):
        self.step, self.message, self.residual = step, message, residual
        text = f"classification failed at step '{step}': {message}"
        if residual is not None:
            text += f" (residual {residual:.3e})"
        super().__init__(text)


@dataclass(frozen=True)
class KOSignature:
    d: int
    eps: int
    eps_p: int
    eps_pp: int | None = None

    def __post_init__(self):
        d = int(self.d) % 8
        object.__setattr__(self, "d", d)
        row = KO_TABLE[d]
        if (self.eps, self.eps_p, self.eps_pp) != row:
            raise DiagramError(f"signature {(self.eps, self.eps_p, self.eps_pp)} is not the d={d} row {row}")

    @classmethod
    def from_dim(cls, d: int) -> "KOSignature":
        eps, eps_p, eps_pp = KO_TABLE[int(d) % 8]
        return cls(int(d) % 8, eps, eps_p, eps_pp)

    @property
    def even(self) -> bool:
        return self.d % 2 == 0


@dataclass(frozen=True)
class Vertex:
    i: int
    p: int
    j: int
    s: int | None = None      # grading decoration, even d only
    chi: int | None = None    # pairing parity, diagonal vertices, d in {2,...,6}

    @property
    def vid(self) -> tuple:
        return (self.i, self.p, self.j)


@dataclass(frozen=True)
class Edge:
    src: tuple
    dst: tuple
    kind: str
    op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "op", as_matrix(self.op))
        if self.kind not in EDGE_KINDS:
            raise DiagramError(f"unknown edge kind {self.kind!r}")


@dataclass
class KrajewskiDiagram:
    profile: AlgebraProfile
    ko: KOSignature
    vertices: dict = field(default_factory=dict)   # vid -> Vertex
    jim: dict = field(default_factory=dict)        # vid -> vid
    edges: list = field(default_factory=list)      # list[Edge]

    @property
    def d(self) -> int:
        return self.ko.d

    def sorted_vids(self):
        return sorted(self.vertices.keys())

    def vertex(self, vid) -> Vertex:
        return self.vertices[vid]

    def fiber(self, i, j):
        """Vertices over the lattice point (n_i, n_j), in p order."""
        return [v for v in self.sorted_vids() if (v[0], v[2]) == (i, j)]

    def fibers(self):
        out = {}
        for v in self.sorted_vids():
            out.setdefault((v[0], v[2]), []).append(v)
        return out

    def mu(self, i, j) -> int:
        return len(self.fiber(i, j))


class RealSpectralTriple:
    """Concrete finite triple: D Hermitian, J = K o (entrywise conjugation), gamma the grading in even d.

    A triple of realize holds K and gamma as the placements it reads them from: K[r, perm[r]] = phase[r] and
    gamma = diag(signs).  The dense K and gamma are built on their first read and kept; assigning K or gamma
    replaces the placement by the array.  Nothing writes into a K or gamma in place.
    """

    def __init__(self, profile: AlgebraProfile, ko: KOSignature, layout: VertexLayout, D: np.ndarray,
                 K: np.ndarray, gamma: np.ndarray | None = None):
        self.profile, self.ko, self.layout, self.D, self.K, self.gamma = profile, ko, layout, D, K, gamma
        self._K_read, self._split_read = (None, None), (None, None, None)

    @classmethod
    def _placed(cls, profile, ko, layout, D, mono, signs):
        """The triple whose K is the phased permutation mono = (perm, phase) and whose gamma is diag(signs)."""
        t = cls(profile, ko, layout, D, None)
        t._K_mono, t._gamma_signs = mono, signs
        return t

    @property
    def K(self) -> np.ndarray:
        if self._K is None and self._K_mono is not None:
            self._K = _placed_array(*self._K_mono)
        return self._K

    @K.setter
    def K(self, K):
        self._K, self._K_mono = K, None

    @property
    def gamma(self) -> np.ndarray | None:
        if self._gamma is None and self._gamma_signs is not None:
            self._gamma = _placed_array(np.arange(len(self._gamma_signs)), self._gamma_signs)
        return self._gamma

    @gamma.setter
    def gamma(self, gamma):
        self._gamma, self._gamma_signs = gamma, None

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def pi(self, a: AlgebraElement) -> np.ndarray:
        return self.layout.pi(a)

    def _K_key(self) -> np.ndarray:
        """The array K is read from: perm of a placed K, else K."""
        return self.K if self._K_mono is None else self._K_mono[0]

    def _split(self):
        """(L, J), or None unless K is monomial and D splits as L (x) 1 + 1 (x) R within rounding
        (_SPLIT_ROUNDING ||D||_F): D's left factor on the layout's padded left space (VertexLayout.factors) and the
        layout's tables of J for K (VertexLayout._J_tables).  Read once per D and reading of K, as _K_products."""
        if (mono := self._K_products()[0]) is None:
            return None
        if self._split_read[0] is not self.D or self._split_read[1] is not self._K_key():
            L, _R, residual = self.layout.factors(self.D)
            split = (L, self.layout._J_tables(mono)) if residual <= _SPLIT_ROUNDING * frob(self.D) else None
            self._split_read = self.D, self._K_key(), split
        return self._split_read[2]

    def _K_products(self):
        """_products_with(K), read once per K: off the placement of a realized K without forming K, else off the
        K object, so assigning a new K drops it."""
        if self._K_read[0] is not (key := self._K_key()):
            self._K_read = key, (_products_with(key) if self._K_mono is None else _monomial_products(*self._K_mono))
        return self._K_read[1]

    def _gamma_products(self):
        """(Y -> gamma Y, Y -> Y gamma), or None without a grading: scalings by the signs of a realized gamma,
        else dense products.  Y may be a vector on the left."""
        if (s := self._gamma_signs) is not None:
            return (lambda Y: (s * Y.T).T), (lambda Y: Y * s)
        if (g := self.gamma) is None:
            return None
        return (lambda Y: g @ Y), (lambda Y: Y @ g)

    def apply_J(self, psi: np.ndarray) -> np.ndarray:
        return self._K_products()[1](np.conj(psi))

    def conjugate_by_J(self, X: np.ndarray) -> np.ndarray:
        """J X J^{-1} as a linear operator: K conj(X) K^dagger, one gather when K is monomial.  It scales
        phase * Y as _products_with does, so K Y is the same bit for bit (numpy rounds a * b and b * a apart)."""
        if (mono := self._K_products()[0]) is None:
            return self.K @ np.conj(X) @ self.K.conj().T
        Y = X[np.ix_(mono[0], mono[0])].astype(complex, copy=False)
        np.multiply(mono[1][:, None], np.conj(Y, out=Y), out=Y)
        return np.multiply(Y, np.conj(mono[1]), out=Y)

    def right(self, b: AlgebraElement) -> np.ndarray:
        """J pi(b)^* J^{-1}, the right action of b through the real structure."""
        return self.K @ self.pi(b).T @ self.K.conj().T


def _placed_array(perm, phase) -> np.ndarray:
    """The n x n array A with A[r, perm[r]] = phase[r]: the bits VertexLayout.place gives a K or gamma."""
    A = np.zeros((len(perm), len(perm)), dtype=complex)
    A[np.arange(len(perm)), perm] = phase
    return A


def _products_with(A):
    """(mono, Y -> A Y, Y -> Y A, Y -> A^dagger Y), the one reading of a phased permutation: mono = (perm, phase)
    with A[i, perm[i]] = phase[i] if A has one nonzero per row and column (every realized K and gamma), and the
    products are gathers of rows and columns; else mono is None and they are dense.  Y may be a vector on the left."""
    rows, perm = np.nonzero(A)
    if not (np.array_equal(rows, np.arange(len(A))) and np.array_equal(np.sort(perm), rows)):
        return None, (lambda Y: A @ Y), (lambda Y: Y @ A), (lambda Y: A.conj().T @ Y)
    return _monomial_products(perm, A[rows, perm])


def _monomial_products(perm, phase):
    """_products_with(A) for the phased permutation A[i, perm[i]] = phase[i], read without A."""
    inv = np.argsort(perm)
    return ((perm, phase), (lambda Y: (phase * Y[perm].T).T), (lambda Y: Y[:, inv] * phase[inv]),
            (lambda Y: (np.conj(phase[inv]) * Y[inv].T).T))


def epsilon_factor(v: Vertex, d: int) -> int:
    """The sign eps(v, d): 1 for i<j, eps for i>j, and on the diagonal eps^chi(v),
    which is 1 on the jim-fixed vertices (no chi, eps = +1)."""
    eps = KO_TABLE[d % 8][0]
    if v.i < v.j:
        return 1
    if v.i > v.j:
        return eps
    if v.chi is None and len(_diagonal_orbit(d)) == 2:
        raise DiagramError(f"vertex {v.vid} needs a chi decoration in KO-dimension {d}")
    return eps ** (v.chi or 0)


def _diagonal_orbit(d, s=None):
    """The s decorations of one jim orbit on a diagonal fiber in normal form, in p order.

    The KO signs fix it: with eps'' = -1 jim pairs an s = -1 vertex with an
    s = +1 one; otherwise, with eps = +1, jim fixes the vertex (one entry),
    and with eps = -1 it pairs two vertices of grading s.  A pair carries
    chi = 0, 1 in order.
    """
    eps, _eps_p, eps_pp = KO_TABLE[d % 8]
    if eps_pp == -1:
        return (-1, 1)
    return (s,) if eps == 1 else (s, s)


def _orbit_vertices(ko, orbits):
    """Vertex records and jim of the jim orbits [(vids, s)] of a diagram in normal form.

    vids lists the one or two vertices of an orbit and s is the grading of
    the first; the second gets eps'' s, and chi = 0, 1 in order on the diagonal.
    """
    vertices, jim = {}, {}
    for vids, s in orbits:
        for k, v in enumerate(vids):
            chi = k if len(vids) == 2 and v[0] == v[2] else None
            vertices[v] = Vertex(*v, s=s if k == 0 or s is None else ko.eps_pp * s, chi=chi)
            jim[v] = vids[-1 - k]
    return vertices, jim


def _vdim(profile, vid):
    return profile.dims[vid[0] - 1], profile.dims[vid[2] - 1]


def _norms(X):  # np.linalg.norm(X, axis=(1, 2)) of a stack of matrices: its sum, in its order, without its dispatch
    return np.sqrt(np.add.reduce((X.conj() * X).real, axis=(1, 2)))


def _jim_op(diag: KrajewskiDiagram, e_src, e_dst, op, sign) -> np.ndarray:
    """Decoration sign Jhat conj(op) Jhat of jim(e) implied by the real-structure relation.

    Jhat transposes the row-major legs of each side (VertexLayout.legs).  op may be a stack of ops of e's dims.
    """
    (n_i1, n_j1), (n_i2, n_j2), stack = _vdim(diag.profile, e_src), _vdim(diag.profile, e_dst), op.shape[:-2]
    legs = np.conj(op).reshape(stack + (n_i2, n_j2, n_i1, n_j1)).swapaxes(-4, -3).swapaxes(-2, -1)
    return sign * legs.reshape(op.shape)


def _edge_groups(diag, ks):
    """[(dims, kind, indices, stacked ops)] of the edges ks, one per (dims, kind), dims = (n_i1, n_j1, n_i2, n_j2)."""
    edges, dims, groups = diag.edges, {v: _vdim(diag.profile, v) for v in diag.vertices}, {}
    for k in ks:
        e = edges[k]
        groups.setdefault((dims[e.src], dims[e.dst], e.kind), []).append(k)
    return [(src + dst, kind, ks, np.array([edges[k].op for k in ks])) for (src, dst, kind), ks in groups.items()]


def complete_edges(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL):
    """Close the supplied edges under e -> ebar and e -> jim(e).

    One representative per orbit is enough; a duplicate whose residual against
    the op already there exceeds tol ||op||_F is returned as a conflict
    (key, origin, residual, bound).  Result maps (src, dst) to op.

    The diagram must pass validate's other lines; an edge whose endpoint is not a vertex, or whose op is not
    shaped for its endpoints, raises DiagramError naming it.
    """
    length = {v: math.prod(_vdim(diag.profile, v)) for v in diag.vertices}
    for e in diag.edges:  # validate's edge lines that the walk needs, raised rather than left to numpy or a dict
        if e.src not in length or e.dst not in length:
            raise DiagramError(f"edge {e.src}->{e.dst}: endpoint {e.dst if e.src in length else e.src} is not a vertex")
        if e.op.shape != (length[e.dst], length[e.src]):
            raise DiagramError(f"edge {e.src}->{e.dst}: op shape {e.op.shape}, not {(length[e.dst], length[e.src])}")
    return _close(diag, _edge_groups(diag, range(len(diag.edges))), tol)


def _close(diag, groups, tol):
    """complete_edges' walk on the _edge_groups groups of all edges, in edge order: it moves labels 8 edge + image,
    each op a row of a group's image, formed once: X, X^dagger, J = jim(X), J^dagger (1, 2, 3) and jim(J^dagger) (5:
    image 1 reached through jim, its +-1 sign applied twice).  Duplicates are measured in one difference per shape."""
    edges, jim, stored, dups = diag.edges, diag.jim, {}, []
    pending = [((e.src, e.dst), 8 * k, "given", None) for k, e in enumerate(edges)]  # label 8 edge + image
    while pending:
        key, label, step, parent = pending.pop()
        if key in stored:
            if (stored[key] ^ label) & ~4:  # not the same edge and image bits
                dups.append((key, step, parent, stored[key], label))
            continue
        stored[key], (src, dst) = label, key
        pending.append(((dst, src), label & ~7 | (label & 3 ^ 1), "adjoint", key))
        if src in jim and dst in jim:
            pending.append(((jim[src], jim[dst]), label & ~7 | (5 if label & 7 == 3 else label & 3 ^ 2), "jim", key))

    eps = {v: epsilon_factor(x, diag.d) for v, x in diag.vertices.items()}
    at, images, J = {k: (g, r) for g, (_d, _kind, ks, _X) in enumerate(groups) for r, k in enumerate(ks)}, {}, (None,)
    for g, img in sorted({(at[label >> 3][0], label & 7) for label in [*stored.values(), *(dup[4] for dup in dups)]}):
        ks, X = groups[g][2:]
        if img > 1 and J[0] != g:  # the jim images of a group come together, so _jim_op runs once for them
            s = np.array([diag.ko.eps_p * eps[edges[k].src] * eps[edges[k].dst] for k in ks], complex)[:, None, None]
            J = g, _jim_op(diag, edges[ks[0]].src, edges[ks[0]].dst, X, s)  # s is +-1 + 0j, as numpy casts an int
        images[g, img] = X if img == 0 else J[1] if img == 2 else (
            X.conj() if img == 1 else J[1].conj() if img == 3 else s * (s * X.conj())).swapaxes(1, 2)

    def op_of(label):  # a row of the image stack of the label's group
        return images[at[label >> 3][0], label & 7][at[label >> 3][1]]

    by_shape, found = {}, []  # shape -> the duplicates of its keys; (duplicate, residual, bound) of each conflict
    for n, dup in enumerate(dups):
        by_shape.setdefault(op_of(dup[3]).shape, []).append(n)
    for ns in by_shape.values():  # one stack of the old ops and one of the new, summed as np.linalg.norm sums
        olds = np.array([op_of(dups[n][3]) for n in ns])
        res, sizes = _norms(olds - np.array([op_of(dups[n][4]) for n in ns])).tolist(), _norms(olds).tolist()
        found += [(n, r, tol * b) for n, b, r in zip(ns, sizes, res) if r > tol * b]
    origin = lambda step, parent: step if parent is None else f"{step} of ({parent[0]}->{parent[1]})"
    conflicts = [(dups[n][0], origin(*dups[n][1:3]), r, b) for n, r, b in sorted(found)]
    return {key: op_of(label) for key, label in stored.items()}, conflicts


def _factor_residual(op, kind, dims):
    """Residual of the forced factorization of an edge decoration, or of each of a stack of them.

    The first-order condition leaves exactly 1 (x) D_R across rho, D_L (x) 1
    across lambda, and D_L (x) 1 + 1 (x) D_R when both coordinates match.
    The kind must be one _edge_kind allows, so the dims it shares agree.  D_L (x) 1, with D_L = tr_rho / n_j, comes
    off where the rho legs agree; then 1 (x) D_R, with D_R = tr_lambda / n_i of what is left, where the lambda legs
    agree (the two projections commute).  Where the identity factor acts on a leg of size 1, every finite op factors.
    """
    n_i1, n_j1, n_i2, n_j2 = dims
    if (n_i1 == 1 and kind != "left") or (n_j1 == 1 and kind != "right"):
        return np.zeros(op.shape[:-2])
    off = op.reshape(op.shape[:-2] + (n_i2, n_j2, n_i1, n_j1)).copy()
    if kind != "right":  # views of the entries of off where the rho legs, then the lambda legs, agree
        _peel(np.einsum("...ayby->...ayb", off), n_j1, -2)
    if kind != "left":
        _peel(np.einsum("...xaxb->...xab", off), n_i1, -3)
    off = off.reshape(op.shape[:-2] + (-1,)).view(float)
    return np.sqrt(np.einsum("...i,...i->...", off, off))


def _edge_kind(src, dst):
    """The edge kind the lattice forces from src to dst, or None between unrelated fibers.

    Sharing lambda (i) leaves 1 (x) D_R, sharing rho (j) leaves D_L (x) 1,
    and sharing both leaves their sum.
    """
    if src[0] == dst[0]:
        return "general" if src[2] == dst[2] else "right"
    return "left" if src[2] == dst[2] else None


# edge kind -> the factorization validate measures
_FACTOR_LINES = {
    "left": "factors as D_L (x) 1",
    "right": "factors as 1 (x) D_R",
    "general": "splits as D_L (x) 1 + 1 (x) D_R",
}


def validate(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL) -> Report:
    """Check every diagram axiom; failures become report entries.

    Edge-factorization and orbit-consistency residuals pass below
    tol ||op||_F, and an edge counts as nonzero above tol times the
    largest finite ||op||_F of the diagram, so a diagram and its rescaling get
    the same verdict; an edge whose norm overflows counts as nonzero, beside
    one failing line that names the overflow.
    """
    return _validate(diag, tol)[0]


def _validate(diag, tol):
    """validate's report, and the orbit closure it ends with (None if not reached), walked on its factor groups."""
    rep = Report("diagram validation")
    d, ko = diag.d, diag.ko
    r = diag.profile.r
    paired = len(_diagonal_orbit(d)) == 2  # jim pairs the vertices of a diagonal fiber

    ids_ok = True
    for vid, v in diag.vertices.items():
        if vid != v.vid:
            rep.add_bool(f"vertex key {vid} matches its id", False)
            ids_ok = False
        if not (1 <= v.i <= r and 1 <= v.j <= r and v.p >= 1):
            rep.add_bool(f"vertex {vid} indices in range", False)
            ids_ok = False
        if ko.even and v.s not in (-1, 1):
            rep.add_bool(f"vertex {vid} has s=+-1 (even case)", False)
        if not ko.even and v.s is not None:
            rep.add_bool(f"vertex {vid} has no s (odd case)", False)
        needs_chi = v.i == v.j and paired
        if needs_chi and v.chi not in (0, 1):
            rep.add_bool(f"vertex {vid} has chi in {{0,1}}", False)
        if not needs_chi and v.chi is not None:
            rep.add_bool(f"vertex {vid} carries spurious chi", False)
    if not ids_ok:
        return rep, None

    vids = set(diag.vertices)
    jim_ok = set(diag.jim) == vids and all(w in vids for w in diag.jim.values())
    rep.add_bool("jim is defined on all vertices", jim_ok)
    if not jim_ok:
        return rep, None

    vertices, jim, names = diag.vertices, diag.jim, {v: str(v) for v in vids}  # str(v) is the f-string's text
    for vid in sorted(vertices):
        w, name = jim[vid], names[vid]
        rep.add_bool(f"jim involutive at {name}", jim[w] == vid)
        i, _p, j = vid
        rep.add_bool(f"lambda o jim = rho at {name}", (w[0], w[2]) == (j, i))
        if i == j and not paired:
            rep.add_bool(f"jim fixes diagonal vertex {name} (d={d})", w == vid)
        v, vw = vertices[vid], vertices[w]
        if ko.even and v.s in (-1, 1) and vw.s in (-1, 1):
            rep.add_bool(f"s(jim(v)) = eps'' s(v) at {name}", vw.s == ko.eps_pp * v.s)
        if v.chi in (0, 1) and vw.chi in (0, 1):
            rep.add_bool(f"chi(jim(v)) = 1 - chi(v) at {name}", vw.chi == 1 - v.chi)

    for (i, j), fiber in sorted(diag.fibers().items()):
        if i == j and paired:
            rep.add_bool(f"diagonal fiber ({i},{i}) has even size", len(fiber) % 2 == 0)

    represented = {v[0] for v in vids}
    for i in range(1, r + 1):
        if i not in represented:
            rep.warn(f"block {i} is not represented (non-faithful layout)")

    length, grading = {v: math.prod(_vdim(diag.profile, v)) for v in vids}, {v: vertices[v].s for v in vids}
    # per edge, once: None if an endpoint is missing, else whether its op has their shape and the kind forced
    verdicts = [None if e.src not in vids or e.dst not in vids else
                (e.op.shape == (length[e.dst], length[e.src]), _edge_kind(e.src, e.dst)) for e in diag.edges]
    with np.errstate(over="ignore"):  # norms of entries near the float limit overflow to inf, named below
        factor, groups = {}, _edge_groups(diag, [k for k, (e, v) in enumerate(zip(diag.edges, verdicts))
                                                  if v and v[0] and v[1] in ("general", e.kind)])
        for dim, kind, ks, ops in groups:  # edge -> (norm, factor residual), stacked per group of the factor-line edges
            factor.update(zip(ks, zip(_norms(ops).tolist(), _factor_residual(ops, kind, dim).tolist())))
        sizes = [factor[k][0] if k in factor else frob(e.op) for k, e in enumerate(diag.edges)]
        finite = [size for size in sizes if math.isfinite(size)]
        if len(finite) < len(sizes):  # a squared entry overflowed: that edge counts as nonzero, the others are judged
            rep.add_bool("edge norms are finite (entries below about 1e154)", False)  # against the largest finite norm
        nonzero, seen_pairs = tol * max(finite, default=0.0), set()
        for k, (e, size, verdict) in enumerate(zip(diag.edges, sizes, verdicts)):
            if verdict is None:
                rep.add_bool(f"edge {e.src}->{e.dst} endpoints exist", False)
                continue
            tag, (shaped, forced) = f"edge {names[e.src]}->{names[e.dst]}", verdict
            if (e.src, e.dst) in seen_pairs:
                rep.add_bool(f"{tag} supplied once", False)
            seen_pairs.add((e.src, e.dst))
            if not shaped:
                rep.add_bool(f"{tag} op shape", False)
                continue
            rep.add_bool(f"{tag} op nonzero", size > nonzero)
            if forced is None:
                rep.add_bool(f"{tag} shares a row or column of the lattice", False)
                continue
            if forced not in ("general", e.kind):  # where both coordinates match, any kind is measured by its own factors
                rep.add_bool(f"{tag} must be kind={forced}", False)
            else:
                rep.add(f"{tag} {_FACTOR_LINES[e.kind]}", factor[k][1], tol * size)
            if ko.even:
                s1, s2 = grading[e.src], grading[e.dst]
                rep.add_bool(f"{tag} satisfies s(v2) = -s(v1)", s1 in (-1, 1) and s2 == -s1)

        closed = None
        if rep.ok:  # then every edge has its factor line, so groups are complete_edges' groups of all edges
            closed, conflicts = _close(diag, groups, tol)
            for (src, dst), origin, res, bound in conflicts:
                rep.add(f"edge orbit consistency at {src}->{dst} [{origin}]", res, bound)
        return rep, closed


def layout_of(diag: KrajewskiDiagram) -> VertexLayout:
    return VertexLayout(diag.profile, diag.sorted_vids())


def _placements(layout, vertices, jim, d, even):
    """(mono, signs): K = sum_v eps(v, d) Jhat from v to jim(v) as mono = (perm, phase) with K[r, perm[r]] = phase[r],
    and gamma = s(v) on each block as the signs of its diagonal (even d, else None), read off the legs: a valid
    diagram's jim is an involution, so each row of K is placed once."""
    perm, phase = np.empty(layout.total_dim, dtype=np.intp), np.empty(layout.total_dim, dtype=complex)
    for v in layout.vids:
        rows = layout.legs(jim[v]).T
        perm[rows], phase[rows] = layout.legs(v), epsilon_factor(vertices[v], d)
    lengths = [b.length for b in layout.blocks]
    signs = np.repeat(np.array([vertices[v].s for v in layout.vids], dtype=complex), lengths) if even else None
    return (perm, phase), signs


def _basis_change(layout, rows):
    """Unitary whose (v_old, v_new) block is c 1, for rows {v_new: (old vids, coefficients c)}."""
    return layout.place({(v_old, v_new): c for v_new, (vids, row) in rows.items() for v_old, c in zip(vids, row)})


def realize(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL) -> RealSpectralTriple:
    """Build the concrete triple determined by the diagram decorations."""
    rep, closed = _validate(diag, tol)
    if not rep.ok:
        raise DiagramError("invalid diagram:\n" + str(rep))

    layout = layout_of(diag)
    n = layout.total_dim

    D = np.zeros((n, n), dtype=complex)
    for (src, dst), op in closed.items():
        D[layout.block(dst).sl, layout.block(src).sl] = op

    return RealSpectralTriple._placed(diag.profile, diag.ko, layout, D,
                                      *_placements(layout, diag.vertices, diag.jim, diag.d, diag.ko.even))


def verify_axioms(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> Report:
    """Residual norms of every real-spectral-triple axiom.

    Commutant and first-order conditions are bilinear in (a, b), so checking
    the generating matrix units of each block is exhaustive.  Both order
    conditions are measured in the frame K^dagger (.) K, which equals
    J pi(b)* J^-1 exactly when K is unitary.  The squared brackets of X_a = K^dagger pi(a) K and
    Y_a = K^dagger [D, pi(a)] K with every unit q = pi(b)^T are read off them as sums of squares, one
    row of U numbers per unit a for U = sum_k n_k^2 units of at most m legs, and each line reads its
    residual and witness off the (U, U) table (_line).  Products with K (the triple's _K_products) and gamma
    are gathers when monomial (_products_with; every realized K and gamma).  X_a is then a phased
    partial permutation, and the commutant table is read off its m entries for all units of a block at once
    (_monomial_brackets): cost O(U m sum_k n_k^2), no n^2 term.  The first-order line writes Y_a on its
    m rows and m columns and reads it densely (_bracket_squares): cost O(U n^2 sum_k n_k).  Any other K
    takes dense products and _bracket_squares for both lines: cost O(U n^2 (m + sum_k n_k)).  Residuals
    linear in D pass below tol ||D||_F, so a triple and its rescaling get the same verdict, and an exact
    zero passes at D = 0.  The commutant, first-order and gamma lines name the units behind their worst
    residual, the first in row-major order of the table within a relative 1e-12 of it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rep = Report("spectral triple axioms")
    D, K, ko = t.D, t.K, t.ko
    n = t.dim
    eye = np.eye(n)
    mono, _left, right, left_dag = t._K_products()
    tol_D, DK, KhD = tol * (size_D := frob(D)), right(D), left_dag(D)

    signs = [res[s] for res, s in zip(_sign_residuals(t, DK), (ko.eps, ko.eps_p, ko.eps_pp)) if s is not None]
    rep.add("D hermitian", frob(D - D.conj().T), tol_D)
    rep.add("J antiunitary (K unitary)", frob(left_dag(K) - eye), tol)
    rep.add("J squared = eps", signs[0], tol)
    rep.add("JD = eps' DJ", signs[1], tol_D)

    if ko.even:
        g = t.gamma
        if g is None:
            rep.add_bool("grading present in even KO-dimension", False)
            return rep
        _, g_left, g_right, _ = _products_with(g)
        rep.add("gamma hermitian", frob(g - g.conj().T), tol)
        rep.add("gamma squared = 1", frob(g_left(g) - eye), tol)
        rep.add("gamma D + D gamma = 0", frob(g_left(D) + g_right(D)), tol_D)
        rep.add("J gamma = eps'' gamma J", signs[2], tol)
    elif t.gamma is not None:
        rep.add_bool("no grading in odd KO-dimension", False)

    frames = _unit_frames(t.layout)
    units = [(k, x, y) for k, L, _at, _labels in frames for x, y in np.ndindex(len(L), len(L))]
    if ko.even:
        rep.add("gamma commutes with pi(a)", *_line(_bracket_squares(t.gamma, frames), units, tol, 1.0))
    pairs = [(L[x], L[y]) for _k, L, _at, _labels in frames for x, y in np.ndindex(len(L), len(L))]  # pi(a): cols -> rows
    if mono is None:
        Kh = K.conj().T
        comm = np.array([_bracket_squares(Kh[:, rows] @ K[cols], frames) for rows, cols in pairs])
        frame = lambda rows, cols: KhD[:, rows] @ K[cols] - Kh[:, rows] @ DK[cols]
    else:
        (perm, phase), comm = mono, _monomial_brackets(*mono, frames)

        def frame(rows, cols):  # the same numbers, written on the rows perm[rows] and columns perm[cols]
            Y = np.zeros((n, n), dtype=complex)
            Y[:, perm[cols]] = KhD[:, rows] * phase[cols]
            Y[perm[rows]] -= np.conj(phase[rows])[:, None] * DK[cols]
            return Y

    # the squared brackets [a, q] (unit q = pi(b)^T) of X_a = K^dagger pi(a) K (comm) and Y_a = K^dagger [D, pi(a)] K
    rep.add("commutant [pi(a), J pi(b)* J^-1] = 0", *_line(comm, units, tol, 1.0))
    del comm  # held across the n x n temporaries below, it left glibc's heap faulting their pages in at every unit
    first = np.array([_bracket_squares(frame(rows, cols), frames) for rows, cols in pairs])
    rep.add("first order [[D, pi(a)], J pi(b)* J^-1] = 0", *_line(first, units, tol, size_D))
    return rep


def _unit_name(unit):
    k, x, y = unit
    return f"E^{k}_{{{x},{y}}}"


def _line(sq, units, tol, scale):
    """(residual, bound, detail) of a bracket line from its squared brackets: sq[q] of gamma with each unit q,
    or sq[a, q] of an order condition, with the units (k, x, y) of q = pi(E^k_xy) on each axis.

    The residual is the square root of the largest, the bound tol scale.  The witness is the first (a, q) in
    row-major order within a relative 1e-12 of the largest: brackets that tie in exact arithmetic differ by
    rounding alone, and still name one witness, whatever the summation order.  The gamma line names a = q
    unless every bracket is 0; an order line names b = E^k_{y,x} for q = E^k_{x,y}, and none when its
    residual is within 1e-12 scale of 0, the rounding of an exact zero.
    """
    top = sq.max(initial=0.0)
    res, bound = float(np.sqrt(top)), tol * scale
    if top == 0 or sq.ndim == 2 and res <= 1e-12 * scale:
        return res, bound, ""
    at = np.unravel_index(np.flatnonzero(sq >= (1 - 1e-12) * top)[0], sq.shape)
    if sq.ndim == 1:
        return res, bound, f"worst at a = {_unit_name(units[at[0]])}"
    (k, x, y), a = units[at[1]], units[at[0]]
    return res, bound, f"worst at a = {_unit_name(a)}, b = {_unit_name((k, y, x))}"


def _unit_frames(layout):
    """(k, L_k, at_k, labels_k) for each block k with legs.

    L_k is the index map unit_maps(k); at_k (n) holds the place of every index in L_k.ravel(), L_k.size
    outside it; labels_k (n x (n_k + 1)) labels every index one-hot by its row of L_k, the last column
    meaning 'outside L_k'.
    """
    frames = []
    for k in range(1, layout.profile.r + 1):
        L = layout.unit_maps(k)
        if L.size:
            at = np.full(layout.total_dim, L.size)
            at[L] = np.arange(L.size).reshape(L.shape)
            frames.append((k, L, at, np.eye(len(L) + 1)[at // L.shape[1]]))
    return frames


def _bracket_squares(X, frames):
    """||[X, q]||_F^2 for every unit q = pi(E^k_xy) of the frames, in (k, x, y) order.

    With R = L_k[x] and C = L_k[y],
        ||[X, q]||^2 = ||X[not R, R]||^2 + ||X[C, not C]||^2 + ||X[R, R] - X[C, C]||^2.
    One label sum of |X|^2 per frame gives the first two terms for every
    (x, y), the diagonal blocks of X[L_k, L_k] the third.  Only nonnegative
    terms are added, so nothing cancels and an exact zero stays 0.0.
    """
    A = X.real ** 2 + X.imag ** 2
    sq = [np.zeros(0)]
    for _k, L, _at, labels in frames:
        S = labels.T @ A @ labels
        np.fill_diagonal(S, 0.0)  # the blocks of one label lie on the support of q
        G = np.asarray(X[L[:, :, None], L[:, None, :]], complex).view(float).reshape(len(L), -1)  # X[L_k[x], L_k[x]]
        G = G[:, None] - G  # G[x] - G[y] at [x, y], as many numbers as X since n_k m_k <= n
        sq.append((S[:, :-1].sum(axis=0)[:, None] + S[:-1].sum(axis=1) + np.einsum("xyi,xyi->xy", G, G)).ravel())
    return np.concatenate(sq)


def _monomial_brackets(perm, phase, frames):
    """The (U, U) squared brackets whose row a is _bracket_squares(X_a, frames), for the units a in
    verify_axioms' order, read off the m entries of each X_a = K^dagger pi(a) K for a monomial K
    (K[i, perm[i]] = phase[i]), all units of a block at once.

    X_a holds conj(phase[L[x]]) phase[L[y]] at the rows perm[L[x]] and columns perm[L[y]] for a = E_xy.  One
    bincount over (unit, row label, column label) gives the label sums S of _bracket_squares.  The entries whose
    row and column lie in one row x' of L_k go to P[key, x'], keyed by (unit, row position, column position),
    and ||X[R, R] - X[C, C]||^2 sums |P[key, x'] - P[key, y']|^2 over the keys of a unit.  Temporaries are
    O(U m + keys n_k^2), no dense X_a; only nonnegative terms are added, so an exact zero stays 0.0.
    """
    out = []
    for _i, L, _at, _labels in frames:
        (nu, m), u = L.shape, np.repeat(np.arange(len(L) ** 2), L.shape[1])  # unit x nu + y of each entry
        rows, cols = (np.broadcast_to(p, (nu, nu, m)).ravel() for p in (perm[L][:, None], perm[L][None]))
        v = (np.conj(phase[L])[:, None] * phase[L][None]).ravel()
        w, sq = v.real ** 2 + v.imag ** 2, []
        for _k, Lk, at, _labels in frames:
            nk, mk = Lk.shape
            (xr, pr), (xc, pc) = divmod(at[rows], mk), divmod(at[cols], mk)
            S = np.bincount((u * (nk + 1) + xr) * (nk + 1) + xc, w, nu * nu * (nk + 1) ** 2).reshape(-1, nk + 1, nk + 1)
            S[:, range(nk + 1), range(nk + 1)] = 0.0  # the blocks of one label lie on the support of q
            same, on = np.zeros((nu * nu, nk, nk)), (xr == xc) & (xr < nk)
            keys, key = np.unique((u[on] * mk + pr[on]) * mk + pc[on], return_inverse=True)
            if keys.size:
                P = np.zeros((keys.size, nk), dtype=complex)
                P[key, xr[on]] = v[on]
                P, starts = P[:, :, None] - P[:, None], np.flatnonzero(np.diff(keys // mk ** 2, prepend=-1))
                same[keys[starts] // mk ** 2] = np.add.reduceat(P.real ** 2 + P.imag ** 2, starts)
            sq.append((S[:, :, :-1].sum(axis=1)[:, :, None] + S[:, :-1].sum(axis=2)[:, None] + same).reshape(nu * nu, -1))
        out.append(np.concatenate(sq, axis=1))
    return np.concatenate(out) if out else np.zeros((0, 0))


def _sign_residuals(t, DK):
    """{sign: residual} for J^2 = eps, JD = eps' DJ and, with a grading, J gamma = eps'' gamma J, at both signs.

    The products with K are the triple's (_K_products), DK = D K comes from the caller.
    K conj(K), K conj(D), and K conj(gamma) and gamma K, are formed once, one relation at a time, each pair freed
    before the next is formed; X - (-Y) is X + Y, so one difference is held at a time.
    """
    K, D, g = t.K, t.D, t.gamma
    _, left, right, _ = t._K_products()
    residuals = lambda X, Y: {1: frob(X - Y), -1: frob(X + Y)}
    out = [residuals(left(np.conj(K)), np.eye(t.dim)), residuals(left(np.conj(D)), DK)]
    return out + ([residuals(left(np.conj(g)), right(g))] if g is not None else [])


def detect_ko(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> set:
    """All d mod 8 whose sign row matches the measured (eps, eps', eps'').

    The parity is fixed by the presence of the grading.  A vanishing D leaves
    eps' unconstrained, so several d can match; an empty set means the triple
    is inconsistent with every row.  A row matches when the three sign lines
    of verify_axioms pass: the eps' relation below tol ||D||_F, the others
    below tol.  Products with a monomial K are gathers, as in verify_axioms.
    """
    residuals = _sign_residuals(t, t._K_products()[2](t.D))  # D K
    bounds = (tol, tol * frob(t.D), tol)
    return {d for d, row in KO_TABLE.items() if (row[2] is not None) == (t.gamma is not None)
            and all(res[sign] <= bound for res, sign, bound in zip(residuals, row, bounds))}


# ---------------------------------------------------------------------------
# classification


_FIX_CUT = 1e-9  # coordinates below this fraction of the largest one are skipped by the phase and sign fixes
_GS_CUT = 1e-8   # a Gram-Schmidt residual at most this long is dropped as dependent


def _first_significant(v):
    """The first coordinate of v above _FIX_CUT times its largest (at least 1), or None."""
    idx = np.flatnonzero(np.abs(v) > _FIX_CUT * max(1.0, np.abs(v).max()))
    return v[idx[0]] if idx.size else None


def _phase_fix(v):
    """Multiply by a phase so the first significant coordinate is real positive."""
    c = _first_significant(v)
    return v if c is None else v * (np.conj(c) / abs(c))


def _sign_fix(v):
    """Multiply by +-1 so the first significant coordinate points positive."""
    c = _first_significant(v)
    key = 0.0 if c is None else c.real if abs(c.real) > _FIX_CUT else c.imag
    return -v if key < 0 else v


def _residual(w, basis):
    """w minus its components along the orthonormal vectors of basis, one at a time (Gram-Schmidt)."""
    for b in basis:
        w = w - np.vdot(b, w) * b
    return w


def _gram_schmidt(candidates, count, step, keep):
    """count orthonormal vectors from the candidates in order, or ClassificationError at `step`.

    A candidate's residual w against the vectors so far (_residual) is dropped
    at norm <= _GS_CUT; otherwise keep(w, ||w||, vectors so far) lists what it adds.
    """
    basis = []
    for c in candidates:
        if len(basis) == count:
            break
        w = _residual(c, basis)
        nrm = np.linalg.norm(w)
        if nrm > _GS_CUT:
            basis += keep(w, nrm, basis)
    if len(basis) != count:
        raise ClassificationError(step, f"found {len(basis)} of {count} orthonormal vectors")
    return basis


def _projected_basis(P, count):
    """Deterministic orthonormal basis of the range of a projector: its columns in order, phase-fixed."""
    return _gram_schmidt(P.T, count, "fiber basis", lambda w, nrm, _basis: [_phase_fix(w / nrm)])


def _grading_split(ell, mu):
    """[(s, orthonormal basis of the s-eigenspace of ell)] for s = +1, then -1.

    Without a grading (ell None) the one entry is (None, the standard basis of C^mu).
    """
    if ell is None:
        return [(None, list(np.eye(mu, dtype=complex)))]
    plus = _projected_basis((np.eye(mu) + ell) / 2, int(round(np.trace((np.eye(mu) + ell) / 2).real)))
    return [(1, plus), (-1, _projected_basis((np.eye(mu) - ell) / 2, mu - len(plus)))]


def _real_form_basis(T, space):
    """Orthonormal basis of T-fixed vectors spanning `space` (T antiunitary, T^2=+1)."""

    def keep(w, _nrm, basis):  # w + T w, sign-fixed and orthogonalized again, against accumulated rounding
        m = w + T(w)
        nrm = np.linalg.norm(m)
        if nrm <= _GS_CUT:
            return []
        m = _residual(_sign_fix(m / nrm), basis)
        nrm = np.linalg.norm(m)
        return [m / nrm] if nrm > _GS_CUT else []

    return _gram_schmidt(list(space) + [1j * m for m in space], len(space), "real form basis", keep)


def _quaternionic_pairs(T, space):
    """Orthonormal basis x_1, T x_1, x_2, T x_2, ... of `space` (T antiunitary, T^2=-1 forces even dim)."""
    count = len(space)
    if count % 2:
        raise ClassificationError("quaternionic pairing", f"odd multiplicity {count} with J^2 = -1")
    return _gram_schmidt(space, count, "quaternionic pairing", lambda w, nrm, _basis: [x := _phase_fix(w / nrm), T(x)])


def _extract_middle_map(t, fiber_src, fiber_dst, M, expect_swap):
    """Reconstruct the C^mu factor of an operator that is 1 (x) f (x) 1.

    With expect_swap the operator is K restricted to a fiber, acting as
    xi (x) m (x) eta o -> eta (x) f(m) (x) xi o; otherwise it preserves the
    tensor legs (the grading case).
    """
    layout = t.layout
    cols = [layout.legs(v) for v in fiber_src]
    rows = [layout.legs(w).T if expect_swap else layout.legs(w) for w in fiber_dst]  # legs of the image of each column
    m = cols[0].size
    B = M[np.ix_(np.ravel(rows), np.ravel(cols))].reshape(len(rows), m, len(cols), m)  # 1 (x) f (x) 1 makes B = f (x) 1_m
    f = np.trace(B, axis1=1, axis2=3) / m
    return f, float(np.linalg.norm(B - f[:, None, :, None] * np.eye(m)[:, None]))


def _diagonal_fiber_basis(T, ell, mu, ko):
    """Adapted basis of a diagonal fiber C^mu, and the grading s of the first vertex of each jim orbit.

    The normal form of _diagonal_orbit fixes the basis: jim-fixed vertices
    are T-fixed vectors in each eigenspace of ell, (-1, +1) pairs are
    (y, T y) for y in the s = -1 eigenspace, and (s, s) pairs are (x, T x)
    inside each eigenspace.
    """
    split = _grading_split(ell, mu)
    orbit = _diagonal_orbit(ko.d)
    if len(orbit) == 1:
        return [m for _s, space in split for m in _real_form_basis(T, space)], [s for s, space in split for _m in space]
    if orbit == (-1, 1):
        ys = split[1][1]
        if 2 * len(ys) != mu:
            raise ClassificationError("grading split", f"s=-1 eigenspace has dim {len(ys)}, fiber size {mu}")
        return [m for y in ys for m in (y, T(y))], [-1] * len(ys)
    basis, firsts = [], []
    for s, space in split:
        if s is not None and len(space) % 2:
            raise ClassificationError("grading split", f"odd s={s:+d} eigenspace in KO-dimension {ko.d}")
        basis += _quaternionic_pairs(T, space)
        firsts += [s] * (len(space) // 2)
    return basis, firsts


def _splitting_residual(t, i, j, fiber):
    """||pi(1_i) J pi(1_j)* J^-1 - fiber projector||, with the masks pi(1_i), pi(1_j)^T as index sets.

    Only the rows of pi(1_i) are formed; the fiber's indices lie among them.
    """
    rows, cols = t.layout.unit_maps(i).ravel(), t.layout.unit_maps(j).ravel()
    proj = t.K[np.ix_(rows, cols)] @ t.K[:, cols].conj().T
    at = np.empty(t.dim, dtype=int)
    at[rows] = np.arange(rows.size)
    on = np.r_[tuple(t.layout.block(v).sl for v in fiber)]
    proj[at[on], on] -= 1.0
    return frob(proj)


def _normal_form_residual(AV, W, mono):
    """||W* A V - A0||_F for AV = A V, as ||A V - W A0||_F (W unitary; W A0 a gather, A0 the canonical K or gamma
    given as its mono = (perm, phase), A0[r, perm[r]] = phase[r])."""
    return frob(AV - _monomial_products(*mono)[2](W))


def classify(t: RealSpectralTriple, tol: float = DEFAULT_TOL):
    """Recover a Krajewski diagram and a witness unitary W from a triple.

    realize(diagram) equals the W-conjugate of t:  D -> W* D W,
    gamma -> W* gamma W, K -> W* K conj(W).  Edges with Frobenius norm at
    most tol ||D||_F are dropped.  The diagram is returned only if
    validate(diagram, tol) accepts it; otherwise the first failing line is
    raised at step 'diagram validation'.
    """
    layout, ko, d = t.layout, t.ko, t.ko.d
    if ko.even != (t.gamma is not None):
        raise ClassificationError("grading reduction", f"gamma must be present exactly in even KO-dimension (d = {d})")
    fibers = {}
    for vid in layout.vids:
        fibers.setdefault((vid[0], vid[2]), []).append(vid)

    # step 1: the bimodule splitting defined by pi and J matches the layout
    for (i, j), fiber in sorted(fibers.items()):
        res = _splitting_residual(t, i, j, fiber)
        if res > tol:
            raise ClassificationError("hilbert space splitting", f"fiber ({i},{j}) projection mismatch", res)

    # step 2: extract the middle-factor maps ell (grading) and L (real structure)
    ells = {}
    if ko.even:
        for (i, j), fiber in sorted(fibers.items()):
            ell, res = _extract_middle_map(t, fiber, fiber, t.gamma, expect_swap=False)
            if res > tol:
                raise ClassificationError("grading reduction", f"gamma is not 1 (x) ell (x) 1 on fiber ({i},{j})", res)
            if frob(ell - ell.conj().T) > tol or frob(ell @ ell - np.eye(len(fiber))) > tol:
                raise ClassificationError("grading reduction", f"ell on fiber ({i},{j}) is not a hermitian involution")
            ells[(i, j)] = ell

    Ls = {}
    for (i, j), fiber in sorted(fibers.items()):
        partner = fibers.get((j, i), [])
        if len(partner) != len(fiber):
            raise ClassificationError("real structure reduction", f"mu({i},{j}) != mu({j},{i})")
        L, res = _extract_middle_map(t, fiber, partner, t.K, expect_swap=True)
        if res > tol:
            raise ClassificationError("real structure reduction", f"K is not 1 (x) L (x) 1 on fiber ({i},{j})", res)
        Ls[(i, j)] = L
    for (i, j), L in Ls.items():
        if frob(L.conj().T @ L - np.eye(L.shape[0])) > tol:
            raise ClassificationError("real structure reduction", f"L({i},{j}) is not unitary")
        res = frob(Ls[(j, i)] @ np.conj(L) - ko.eps * np.eye(L.shape[0]))
        if res > tol:
            raise ClassificationError("real structure reduction", f"L({j},{i}) conj(L({i},{j})) != eps", res)

    # step 3: adapted bases of every fiber, and the jim orbits of its vertices with the grading of the first
    bases, orbits = {}, []
    size = len(_diagonal_orbit(d))
    for (i, j), fiber in sorted(fibers.items()):
        mu = len(fiber)
        try:
            if i < j:
                split = _grading_split(ells.get((i, j)), mu)
                bases[(i, j)] = [m for _s, space in split for m in space]
                # the partner fiber basis is forced: m_ji^p = L_ij conj(m_ij^p)
                bases[(j, i)] = [Ls[(i, j)] @ np.conj(m) for m in bases[(i, j)]]
                orbits += zip(zip(fiber, fibers[(j, i)]), [s for s, space in split for _m in space])
            elif i == j:
                L = Ls[(i, i)]
                bases[(i, i)], firsts = _diagonal_fiber_basis(lambda m: L @ np.conj(m), ells.get((i, i)), mu, ko)
                orbits += zip([tuple(fiber[p:p + size]) for p in range(0, mu, size)], firsts)
        except ClassificationError as err:
            raise ClassificationError(err.step, f"fiber ({i},{j}): {err.message}", err.residual) from None
    vertices, jim_new = _orbit_vertices(ko, orbits)

    # even case: the chosen vectors must be eigenvectors of ell
    if ko.even:
        for (i, j), vecs in bases.items():
            ell = ells[(i, j)]
            for p, m in enumerate(vecs):
                sv = vertices[fibers[(i, j)][p]].s
                res = np.linalg.norm(ell @ m - sv * m)
                if res > tol:
                    raise ClassificationError("grading eigenbasis", f"fiber ({i},{j}) vector {p + 1} not an s={sv:+d} eigenvector", res)

    # step 4: witness unitary, block diagonal over fibers
    W = _basis_change(layout, {fiber[p]: (fiber, m) for key, fiber in fibers.items()
                               for p, m in enumerate(bases[key])})

    # step 5: read the diagram off the transformed operators
    Kexp, gexp = _placements(layout, vertices, jim_new, d, ko.even)
    res = _normal_form_residual(t._K_products()[1](np.conj(W)), W, Kexp)
    if res > tol:
        raise ClassificationError("real structure normal form", "transformed K is not in canonical form", res)
    if ko.even:
        res = _normal_form_residual(_products_with(t.gamma)[1](W), W, (np.arange(len(gexp)), gexp))
        if res > tol:
            raise ClassificationError("grading normal form", "transformed gamma is not diagonal +-1", res)

    Dp = W.conj().T @ t.D @ W
    diagram = KrajewskiDiagram(t.profile, ko, vertices, jim_new, extract_edges(layout, Dp, tol))
    failed = validate(diagram, tol).failures()
    if failed:
        raise ClassificationError("diagram validation", failed[0].name, failed[0].residual)
    return diagram, W


def extract_edges(layout, D, edge_tol, norm=None):
    """Read the edge decorations off a Dirac matrix in a vertex-block layout.

    Blocks with Frobenius norm <= edge_tol times norm (||D||_F unless given) are dropped; one
    label sum of |D|^2 gives the norm of every block.  Each kept block gets
    the kind its lattice coordinates force, in src-major order; whether it
    factors accordingly is for validate to judge.
    """
    vids = layout.vids
    labels = np.eye(len(vids))[np.repeat(np.arange(len(vids)), [b.length for b in layout.blocks])]
    sq = labels.T @ (D.real ** 2 + D.imag ** 2) @ labels  # sq[w, v] = ||D[w, v]||_F^2
    drop = edge_tol * (frob(D) if norm is None else norm)
    edges = []
    for v, w in zip(*np.nonzero(sq.T > drop ** 2)):
        src, dst = vids[v], vids[w]
        kind = _edge_kind(src, dst)
        if kind is None:
            raise ClassificationError(
                "first-order structure", f"D couples unrelated fibers {src} -> {dst}", float(np.sqrt(sq[w, v]))
            )
        edges.append(Edge(src, dst, kind, D[layout.block(dst).sl, layout.block(src).sl]))
    return edges
