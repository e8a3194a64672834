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

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraProfile,
    VertexLayout,
    as_matrix,
    frob,
    matrix_units,
    swap_matrix,
    unit_insert,
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


class DiagramError(ValueError):
    pass


class ClassificationError(RuntimeError):
    def __init__(self, step, message, residual=None):
        self.step = step
        self.residual = residual
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


@dataclass
class RealSpectralTriple:
    """Concrete finite triple: D Hermitian, J = K o (entrywise conjugation)."""

    profile: AlgebraProfile
    ko: KOSignature
    layout: VertexLayout
    D: np.ndarray
    K: np.ndarray
    gamma: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def pi(self, a: AlgebraElement) -> np.ndarray:
        return self.layout.pi(a)

    def apply_J(self, psi: np.ndarray) -> np.ndarray:
        return self.K @ np.conj(psi)

    def conjugate_by_J(self, X: np.ndarray) -> np.ndarray:
        """J X J^{-1} as a linear operator: K conj(X) K^dagger."""
        return self.K @ np.conj(X) @ self.K.conj().T

    def right(self, b: AlgebraElement) -> np.ndarray:
        """J pi(b)^* J^{-1}, the right action of b through the real structure."""
        return self.K @ self.pi(b).T @ self.K.conj().T


def epsilon_factor(v: Vertex, d: int) -> int:
    """The sign eps(v, d): 1 for i<j, eps for i>j, and on the diagonal 1 for
    d in {0,1,7} and eps^chi(v) for d in {2,...,6}."""
    eps = KO_TABLE[d % 8][0]
    if v.i < v.j:
        return 1
    if v.i > v.j:
        return eps
    if d % 8 in (0, 1, 7):
        return 1
    if v.chi is None:
        raise DiagramError(f"vertex {v.vid} needs a chi decoration in KO-dimension {d}")
    return eps ** v.chi


def _vdim(profile, vid):
    i, _p, j = vid
    return profile.dim(i), profile.dim(j)


def _jim_op(diag: KrajewskiDiagram, e_src, e_dst, op) -> np.ndarray:
    """Decoration of jim(e) implied by the real-structure relation."""
    v1, v2 = diag.vertex(e_src), diag.vertex(e_dst)
    sign = diag.ko.eps_p * epsilon_factor(v1, diag.d) * epsilon_factor(v2, diag.d)
    n_i1, n_j1 = _vdim(diag.profile, e_src)
    n_i2, n_j2 = _vdim(diag.profile, e_dst)
    return sign * swap_matrix(n_i2, n_j2) @ np.conj(op) @ swap_matrix(n_j1, n_i1)


_FLIP_KIND = {"left": "right", "right": "left", "general": "general"}


def complete_edges(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL):
    """Close the supplied edges under e -> ebar and e -> jim(e).

    One representative per orbit is enough; conflicting duplicates (residual
    above tol) are returned as conflicts.  Result maps (src, dst) to
    (kind, op).
    """
    closed = {}
    conflicts = []

    def put(src, dst, kind, op, origin):
        key = (src, dst)
        if key in closed:
            old_kind, old_op = closed[key]
            if old_op.shape != op.shape or frob(old_op - op) > tol:
                conflicts.append((key, origin, frob(old_op - op) if old_op.shape == op.shape else float("inf")))
            return False
        closed[key] = (kind, op)
        return True

    pending = [(e.src, e.dst, e.kind, e.op, "given") for e in diag.edges]
    while pending:
        src, dst, kind, op, origin = pending.pop()
        if not put(src, dst, kind, op, origin):
            continue
        pending.append((dst, src, kind, op.conj().T, f"adjoint of ({src}->{dst})"))
        if src in diag.jim and dst in diag.jim:
            pending.append(
                (
                    diag.jim[src],
                    diag.jim[dst],
                    _FLIP_KIND[kind],
                    _jim_op(diag, src, dst, op),
                    f"jim of ({src}->{dst})",
                )
            )
    return closed, conflicts


def _factor_residual(op, kind, dims):
    """Residual of the forced factorization of an edge decoration.

    The first-order condition leaves exactly 1 (x) D_R across rho, D_L (x) 1
    across lambda, and D_L (x) 1 + 1 (x) D_R when both coordinates match.
    """
    n_i1, n_j1, n_i2, n_j2 = dims
    blk = op.reshape(n_i2, n_j2, n_i1, n_j1)
    if kind == "right":
        if n_i1 != n_i2:
            return float("inf")
        return frob(op - np.kron(np.eye(n_i1), blk.trace(axis1=0, axis2=2) / n_i1))
    if kind == "left":
        if n_j1 != n_j2:
            return float("inf")
        return frob(op - np.kron(blk.trace(axis1=1, axis2=3) / n_j1, np.eye(n_j1)))
    if (n_i1, n_j1) != (n_i2, n_j2):
        return float("inf")
    n, m = n_i1, n_j1
    left = blk.trace(axis1=1, axis2=3) / m
    right = blk.trace(axis1=0, axis2=2) / n
    scalar = np.trace(op) / (n * m)
    left0 = left - np.trace(left) / n * np.eye(n)
    right0 = right - np.trace(right) / m * np.eye(m)
    proj = np.kron(left0, np.eye(m)) + np.kron(np.eye(n), right0) + scalar * np.eye(n * m)
    return frob(op - proj)


def validate(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL) -> Report:
    """Check every diagram axiom; failures become report entries."""
    rep = Report("diagram validation")
    d, ko = diag.d, diag.ko
    r = diag.profile.r

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
        needs_chi = v.i == v.j and d in (2, 3, 4, 5, 6)
        if needs_chi and v.chi not in (0, 1):
            rep.add_bool(f"vertex {vid} has chi in {{0,1}}", False)
        if not needs_chi and v.chi is not None:
            rep.add_bool(f"vertex {vid} carries spurious chi", False)
    if not ids_ok:
        return rep

    vids = set(diag.vertices)
    jim_ok = set(diag.jim) == vids and all(w in vids for w in diag.jim.values())
    rep.add_bool("jim is defined on all vertices", jim_ok)
    if not jim_ok:
        return rep

    for vid in diag.sorted_vids():
        w = diag.jim[vid]
        rep.add_bool(f"jim involutive at {vid}", diag.jim[w] == vid)
        i, _p, j = vid
        rep.add_bool(f"lambda o jim = rho at {vid}", (w[0], w[2]) == (j, i))
        if i == j and d in (0, 1, 7):
            rep.add_bool(f"jim fixes diagonal vertex {vid} (d={d})", w == vid)
        v, vw = diag.vertex(vid), diag.vertex(w)
        if ko.even and v.s in (-1, 1) and vw.s in (-1, 1):
            rep.add_bool(f"s(jim(v)) = eps'' s(v) at {vid}", vw.s == ko.eps_pp * v.s)
        if v.chi in (0, 1) and vw.chi in (0, 1):
            rep.add_bool(f"chi(jim(v)) = 1 - chi(v) at {vid}", vw.chi == 1 - v.chi)

    for (i, j), fiber in sorted(diag.fibers().items()):
        if i == j and d in (2, 3, 4, 5, 6):
            rep.add_bool(f"diagonal fiber ({i},{i}) has even size", len(fiber) % 2 == 0)

    represented = {v[0] for v in vids}
    for i in range(1, r + 1):
        if i not in represented:
            rep.warn(f"block {i} is not represented (non-faithful layout)")

    seen_pairs = set()
    for e in diag.edges:
        tag = f"edge {e.src}->{e.dst}"
        if e.src not in vids or e.dst not in vids:
            rep.add_bool(f"{tag} endpoints exist", False)
            continue
        if (e.src, e.dst) in seen_pairs:
            rep.add_bool(f"{tag} supplied once", False)
        seen_pairs.add((e.src, e.dst))
        i1, _q1, j1 = e.src
        i2, _q2, j2 = e.dst
        n_i1, n_j1 = _vdim(diag.profile, e.src)
        n_i2, n_j2 = _vdim(diag.profile, e.dst)
        if e.op.shape != (n_i2 * n_j2, n_i1 * n_j1):
            rep.add_bool(f"{tag} op shape", False)
            continue
        rep.add_bool(f"{tag} op nonzero", frob(e.op) > tol)
        if i1 != i2 and j1 != j2:
            rep.add_bool(f"{tag} shares a row or column of the lattice", False)
            continue
        if e.kind == "general":
            if i1 != i2 or j1 != j2:
                rep.add_bool(f"{tag} kind=general needs both matches", False)
            else:
                res = _factor_residual(e.op, "general", (n_i1, n_j1, n_i2, n_j2))
                rep.add(f"{tag} splits as D_L (x) 1 + 1 (x) D_R", res, tol)
        elif e.kind == "right":
            if i1 != i2:
                rep.add_bool(f"{tag} kind=right needs lambda match", False)
            else:
                res = _factor_residual(e.op, "right", (n_i1, n_j1, n_i2, n_j2))
                rep.add(f"{tag} factors as 1 (x) D_R", res, tol)
        elif e.kind == "left":
            if j1 != j2:
                rep.add_bool(f"{tag} kind=left needs rho match", False)
            else:
                res = _factor_residual(e.op, "left", (n_i1, n_j1, n_i2, n_j2))
                rep.add(f"{tag} factors as D_L (x) 1", res, tol)
        if i1 == i2 and j1 != j2 and e.kind != "right":
            rep.add_bool(f"{tag} must be kind=right", False)
        if j1 == j2 and i1 != i2 and e.kind != "left":
            rep.add_bool(f"{tag} must be kind=left", False)
        if ko.even:
            s1, s2 = diag.vertex(e.src).s, diag.vertex(e.dst).s
            rep.add_bool(f"{tag} satisfies s(v2) = -s(v1)", s2 == -s1)

    if rep.ok:
        _closed, conflicts = complete_edges(diag, tol)
        for (src, dst), origin, res in conflicts:
            rep.add(f"edge orbit consistency at {src}->{dst} [{origin}]", res, tol)
    return rep


def layout_of(diag: KrajewskiDiagram) -> VertexLayout:
    return VertexLayout(diag.profile, diag.sorted_vids())


def _real_structure(layout, vertices, jim, d, even):
    """K = sum_v eps(v, d) Jhat from v to jim(v), and gamma = s(v) on each block (even d)."""
    K = layout.place({(jim[v], v): epsilon_factor(vertices[v], d) for v in layout.vids}, swap=True)
    gamma = layout.place({(v, v): vertices[v].s for v in layout.vids}) if even else None
    return K, gamma


def _basis_change(layout, rows):
    """Unitary whose (v_old, v_new) block is c 1, for rows {v_new: (old vids, coefficients c)}."""
    return layout.place({(v_old, v_new): c for v_new, (vids, row) in rows.items() for v_old, c in zip(vids, row)})


def realize(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL) -> RealSpectralTriple:
    """Build the concrete triple determined by the diagram decorations."""
    rep = validate(diag, tol)
    if not rep.ok:
        raise DiagramError("invalid diagram:\n" + str(rep))

    layout = layout_of(diag)
    n = layout.total_dim
    closed, _ = complete_edges(diag, tol)

    D = np.zeros((n, n), dtype=complex)
    for (src, dst), (_kind, op) in closed.items():
        D[layout.block(dst).sl, layout.block(src).sl] = op

    K, gamma = _real_structure(layout, diag.vertices, diag.jim, diag.d, diag.ko.even)
    return RealSpectralTriple(diag.profile, diag.ko, layout, D, K, gamma)


def verify_axioms(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> Report:
    """Residual norms of every real-spectral-triple axiom.

    Commutant and first-order conditions are bilinear in (a, b), so checking
    the generating matrix units of each block is exhaustive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rep = Report("spectral triple axioms")
    D, K, ko = t.D, t.K, t.ko
    n = t.dim
    eye = np.eye(n)

    rep.add("D hermitian", frob(D - D.conj().T), tol)
    rep.add("J antiunitary (K unitary)", frob(K.conj().T @ K - eye), tol)
    rep.add("J squared = eps", frob(K @ np.conj(K) - ko.eps * eye), tol)
    rep.add("JD = eps' DJ", frob(K @ np.conj(D) - ko.eps_p * D @ K), tol)

    if ko.even:
        g = t.gamma
        if g is None:
            rep.add_bool("grading present in even KO-dimension", False)
            return rep
        rep.add("gamma hermitian", frob(g - g.conj().T), tol)
        rep.add("gamma squared = 1", frob(g @ g - eye), tol)
        rep.add("gamma D + D gamma = 0", frob(g @ D + D @ g), tol)
        rep.add("J gamma = eps'' gamma J", frob(K @ np.conj(g) - ko.eps_pp * g @ K), tol)
    elif t.gamma is not None:
        rep.add_bool("no grading in odd KO-dimension", False)

    units = list(matrix_units(t.profile))
    pis = [t.pi(a) for a in units]
    rights = [t.right(b) for b in units]
    comm = 0.0
    first = 0.0
    if ko.even:
        geven = max(frob(t.gamma @ p - p @ t.gamma) for p in pis)
        rep.add("gamma commutes with pi(a)", geven, tol)
    for p in pis:
        dp = D @ p - p @ D
        for rb in rights:
            comm = max(comm, frob(p @ rb - rb @ p))
            first = max(first, frob(dp @ rb - rb @ dp))
    rep.add("commutant [pi(a), J pi(b)* J^-1] = 0", comm, tol)
    rep.add("first order [[D, pi(a)], J pi(b)* J^-1] = 0", first, tol)
    return rep


def detect_ko(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> set:
    """All d mod 8 whose sign row matches the measured (eps, eps', eps'').

    The parity is fixed by the presence of the grading.  A vanishing D leaves
    eps' unconstrained, so several d can match; an empty set means the triple
    is inconsistent with every row.
    """
    D, K = t.D, t.K
    eye = np.eye(t.dim)
    out = set()
    for d, (eps, eps_p, eps_pp) in KO_TABLE.items():
        if (eps_pp is not None) != (t.gamma is not None):
            continue
        if frob(K @ np.conj(K) - eps * eye) > tol:
            continue
        if frob(K @ np.conj(D) - eps_p * D @ K) > tol:
            continue
        if eps_pp is not None and frob(K @ np.conj(t.gamma) - eps_pp * t.gamma @ K) > tol:
            continue
        out.add(d)
    return out


# ---------------------------------------------------------------------------
# classification


def _phase_fix(v, cut=1e-9):
    """Multiply by a phase so the first significant coordinate is real positive."""
    idx = np.flatnonzero(np.abs(v) > cut * max(1.0, np.abs(v).max()))
    if idx.size == 0:
        return v
    c = v[idx[0]]
    return v * (np.conj(c) / abs(c))


def _sign_fix(v, cut=1e-9):
    """Multiply by +-1 so the first significant coordinate points positive."""
    idx = np.flatnonzero(np.abs(v) > cut * max(1.0, np.abs(v).max()))
    if idx.size == 0:
        return v
    c = v[idx[0]]
    key = c.real if abs(c.real) > cut else c.imag
    return -v if key < 0 else v


def _projected_basis(P, count, cut=1e-8):
    """Deterministic orthonormal basis of the range of a projector.

    Runs Gram-Schmidt over the projected coordinate vectors, taking the
    smallest admissible index first.
    """
    dim = P.shape[0]
    basis = []
    for q in range(dim):
        if len(basis) == count:
            break
        w = P[:, q].copy()
        for b in basis:
            w -= np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm > cut:
            basis.append(_phase_fix(w / nrm))
    if len(basis) != count:
        raise ClassificationError("fiber basis", f"projector rank {len(basis)} != expected {count}")
    return basis


def _real_form_basis(T, space, cut=1e-8):
    """Orthonormal basis of T-fixed vectors spanning `space` (T antiunitary, T^2=+1)."""
    count = len(space)
    basis = []
    candidates = list(space) + [1j * m for m in space]
    for c in candidates:
        if len(basis) == count:
            break
        w = c.copy()
        for b in basis:
            w -= np.vdot(b, w) * b
        m = w + T(w)
        nrm = np.linalg.norm(m)
        if nrm <= cut:
            continue
        m = _sign_fix(m / nrm)
        # renormalize against accumulated rounding
        for b in basis:
            m -= np.vdot(b, m) * b
        nrm = np.linalg.norm(m)
        if nrm <= cut:
            continue
        basis.append(m / nrm)
    if len(basis) != count:
        raise ClassificationError("real form basis", f"found {len(basis)} of {count} fixed vectors")
    return basis


def _quaternionic_pairs(T, space, cut=1e-8):
    """Pairs (x, T(x)) spanning `space` (T antiunitary, T^2=-1 forces even dim)."""
    count = len(space)
    if count % 2:
        raise ClassificationError("quaternionic pairing", f"odd multiplicity {count} with J^2 = -1")
    pairs = []
    flat = []
    for c in space:
        if len(pairs) == count // 2:
            break
        w = c.copy()
        for b in flat:
            w -= np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm <= cut:
            continue
        x = _phase_fix(w / nrm)
        y = T(x)
        pairs.append((x, y))
        flat.extend([x, y])
    if len(pairs) != count // 2:
        raise ClassificationError("quaternionic pairing", f"found {len(pairs)} of {count // 2} pairs")
    return pairs


def _extract_middle_map(t, fiber_src, fiber_dst, M, expect_swap):
    """Reconstruct the C^mu factor of an operator that is 1 (x) f (x) 1.

    With expect_swap the operator is K restricted to a fiber, acting as
    xi (x) m (x) eta o -> eta (x) f(m) (x) xi o; otherwise it preserves the
    tensor legs (the grading case).
    """
    layout = t.layout
    n_i, n_j = _vdim(t.profile, fiber_src[0])
    unit = swap_matrix(n_i, n_j) if expect_swap else np.eye(n_i * n_j)
    f = np.array([[np.vdot(unit, M[layout.block(w).sl, layout.block(v).sl]) for v in fiber_src]
                  for w in fiber_dst], dtype=complex) / (n_i * n_j)
    # residual of the reconstruction
    rec = layout.place({(w, v): f[q, p] for q, w in enumerate(fiber_dst) for p, v in enumerate(fiber_src)},
                       swap=expect_swap)
    ix = np.ix_(*(np.r_[tuple(layout.block(v).sl for v in fiber)] for fiber in (fiber_dst, fiber_src)))
    return f, frob(M[ix] - rec[ix])


def _diagonal_fiber_basis(T, ell, eps, eps_pp, mu, d, tol):
    """Adapted basis of a diagonal fiber C^mu.

    Returns (vectors, s list, chi list, pairing) where pairing maps basis
    index p to jim(p) (0-based).
    """
    eye_space = [np.eye(mu, dtype=complex)[:, q] for q in range(mu)]
    if d in (0, 1, 7):
        if d == 0:
            plus = _projected_basis((np.eye(mu) + ell) / 2, int(round(np.trace((np.eye(mu) + ell) / 2).real)))
            minus = _projected_basis((np.eye(mu) - ell) / 2, mu - len(plus))
            vecs = _real_form_basis(T, plus) + _real_form_basis(T, minus)
            s = [1] * len(plus) + [-1] * len(minus)
        else:
            vecs = _real_form_basis(T, eye_space)
            s = [None] * mu
        return vecs, s, [None] * mu, list(range(mu))

    if d in (3, 5):
        pairs = _quaternionic_pairs(T, eye_space)
        vecs, chi, pairing = [], [], []
        for a, (x, y) in enumerate(pairs):
            vecs.extend([x, y])
            chi.extend([0, 1])
            pairing.extend([2 * a + 1, 2 * a])
        return vecs, [None] * mu, chi, pairing

    if d in (2, 6):
        minus_proj = (np.eye(mu) - ell) / 2
        rank = int(round(np.trace(minus_proj).real))
        if 2 * rank != mu:
            raise ClassificationError("grading split", f"s=-1 eigenspace has dim {rank}, fiber size {mu}")
        ys = _projected_basis(minus_proj, rank)
        vecs, s, chi, pairing = [], [], [], []
        for a, y in enumerate(ys):
            vecs.extend([y, T(y)])
            s.extend([-1, 1])
            chi.extend([0, 1])
            pairing.extend([2 * a + 1, 2 * a])
        return vecs, s, chi, pairing

    if d == 4:
        vecs, s, chi, pairing = [], [], [], []
        for sign in (1, -1):
            proj = (np.eye(mu) + sign * ell) / 2
            sub = _projected_basis(proj, int(round(np.trace(proj).real)))
            if sub and len(sub) % 2:
                raise ClassificationError("grading split", f"odd s={sign:+d} eigenspace in KO-dimension 4")
            for x, y in _quaternionic_pairs(T, sub):
                base = len(vecs)
                vecs.extend([x, y])
                s.extend([sign, sign])
                chi.extend([0, 1])
                pairing.extend([base + 1, base])
        return vecs, s, chi, pairing

    raise ClassificationError("fiber basis", f"unhandled KO-dimension {d}")


def classify(t: RealSpectralTriple, tol: float = DEFAULT_TOL, edge_tol: float = None):
    """Recover a Krajewski diagram and a witness unitary W from a triple.

    realize(diagram) equals the W-conjugate of t:  D -> W* D W,
    gamma -> W* gamma W, K -> W* K conj(W).  Edges with Frobenius norm at
    most edge_tol (default tol) are dropped.
    """
    if edge_tol is None:
        edge_tol = tol
    layout, ko, d = t.layout, t.ko, t.ko.d
    fibers = {}
    for vid in layout.vids:
        fibers.setdefault((vid[0], vid[2]), []).append(vid)

    # step 1: the bimodule splitting defined by pi and J matches the layout
    for (i, j), fiber in sorted(fibers.items()):
        proj = t.pi(unit_insert(t.profile, i, np.eye(t.profile.dim(i)))) @ t.right(
            unit_insert(t.profile, j, np.eye(t.profile.dim(j)))
        )
        res = frob(proj - layout.place({(v, v): 1.0 for v in fiber}))
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

    # step 3: adapted bases of every fiber
    bases, s_dec, chi_dec, jim_new = {}, {}, {}, {}
    for (i, j), fiber in sorted(fibers.items()):
        mu = len(fiber)
        if i < j:
            if ko.even:
                ell = ells[(i, j)]
                plus = _projected_basis((np.eye(mu) + ell) / 2, int(round(np.trace((np.eye(mu) + ell) / 2).real)))
                minus = _projected_basis((np.eye(mu) - ell) / 2, mu - len(plus))
                bases[(i, j)] = plus + minus
                s_dec[(i, j)] = [1] * len(plus) + [-1] * len(minus)
            else:
                bases[(i, j)] = [np.eye(mu, dtype=complex)[:, q] for q in range(mu)]
                s_dec[(i, j)] = [None] * mu
            chi_dec[(i, j)] = [None] * mu
            # the partner fiber basis is forced: m_ji^p = L_ij conj(m_ij^p)
            bases[(j, i)] = [Ls[(i, j)] @ np.conj(m) for m in bases[(i, j)]]
            s_dec[(j, i)] = [None if s is None else ko.eps_pp * s for s in s_dec[(i, j)]]
            chi_dec[(j, i)] = [None] * mu
            partner = fibers[(j, i)]
            for p in range(mu):
                jim_new[fiber[p]] = partner[p]
                jim_new[partner[p]] = fiber[p]
        elif i == j:
            L = Ls[(i, i)]
            T = lambda m, _L=L: _L @ np.conj(m)
            if frob(L @ np.conj(L) - ko.eps * np.eye(mu)) > tol:
                raise ClassificationError("real structure reduction", f"T^2 != eps on fiber ({i},{i})")
            ell = ells.get((i, i))
            vecs, svals, chis, pairing = _diagonal_fiber_basis(T, ell, ko.eps, ko.eps_pp, mu, d, tol)
            bases[(i, i)] = vecs
            s_dec[(i, i)] = svals
            chi_dec[(i, i)] = chis
            for p in range(mu):
                jim_new[fiber[p]] = fiber[pairing[p]]

    # even case: the chosen vectors must be eigenvectors of ell
    if ko.even:
        for (i, j), vecs in bases.items():
            ell = ells[(i, j)]
            for p, m in enumerate(vecs):
                sv = s_dec[(i, j)][p]
                res = np.linalg.norm(ell @ m - sv * m)
                if res > max(tol, 1e-9):
                    raise ClassificationError("grading eigenbasis", f"fiber ({i},{j}) vector {p + 1} not an s={sv:+d} eigenvector", res)

    # step 4: witness unitary, block diagonal over fibers
    W = _basis_change(layout, {fiber[p]: (fiber, m) for key, fiber in fibers.items()
                               for p, m in enumerate(bases[key])})

    Dp = W.conj().T @ t.D @ W
    Kp = W.conj().T @ t.K @ np.conj(W)
    gp = W.conj().T @ t.gamma @ W if ko.even else None

    # step 5: read the diagram off the transformed operators
    vertices = {}
    for (i, j), fiber in sorted(fibers.items()):
        for p, vid in enumerate(fiber):
            vertices[vid] = Vertex(vid[0], vid[1], vid[2], s=s_dec[(i, j)][p], chi=chi_dec[(i, j)][p])

    Kexp, gexp = _real_structure(layout, vertices, jim_new, d, ko.even)
    res = frob(Kp - Kexp)
    if res > max(tol, 1e-8):
        raise ClassificationError("real structure normal form", "transformed K is not in canonical form", res)
    if ko.even:
        res = frob(gp - gexp)
        if res > max(tol, 1e-8):
            raise ClassificationError("grading normal form", "transformed gamma is not diagonal +-1", res)

    edges = extract_edges(t.profile, layout, Dp, edge_tol, max(tol, 1e-8))

    diagram = KrajewskiDiagram(t.profile, ko, vertices, jim_new, edges)
    return diagram, W


def extract_edges(profile, layout, D, edge_tol, factor_tol):
    """Read the edge decorations off a Dirac matrix in a vertex-block layout.

    Blocks with Frobenius norm <= edge_tol are dropped; blocks between
    vertices sharing only one lattice coordinate must factor through it.
    """
    edges = []
    for src in layout.vids:
        for dst in layout.vids:
            op = D[layout.block(dst).sl, layout.block(src).sl]
            if frob(op) <= edge_tol:
                continue
            i1, _p1, j1 = src
            i2, _p2, j2 = dst
            if i1 == i2 and j1 == j2:
                kind = "general"
            elif i1 == i2:
                kind = "right"
            elif j1 == j2:
                kind = "left"
            else:
                raise ClassificationError(
                    "first-order structure", f"D couples unrelated fibers {src} -> {dst}", frob(op)
                )
            n_i1, n_j1 = _vdim(profile, src)
            n_i2, n_j2 = _vdim(profile, dst)
            fres = _factor_residual(op, kind, (n_i1, n_j1, n_i2, n_j2))
            if fres > factor_tol:
                raise ClassificationError(
                    "first-order structure", f"edge {src}->{dst} does not factor", fres
                )
            edges.append(Edge(src, dst, kind, np.array(op)))
    return edges
