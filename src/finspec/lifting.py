"""Lifts of a Bratteli arrow to a map phi_H between realized diagrams.

The lift is stored as the family u(v, w) in M_{alpha_{k(w) i(v)} x
alpha_{ell(w) j(v)}}: on each source vertex

    phi_H(xi (x) eta o) = I_{k,l}^{i,j}( xi (x) u(v,w) (x) eta o )

summed over target vertices w.  The Gram data sigma^{v1,v2} =
sum_w tr(u(v1,w)* u(v2,w)) controls injectivity.  All source vertices v
over (i, j) have u(v, w) of the same shape, so the u(v, .) of one source
fiber are the rows of one matrix U and sigma = conj(U) U^T.  One unitary
per fiber rotates the source basis, U and the Dirac decorations together
so that sigma becomes diagonal (KO-dimensions 0,1,2,6,7), and rescaling by
kappa_v^{-1/2} turns phi_H into an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .algebra import DEFAULT_TOL, ShapeMismatch, as_matrix, frob
from .bratteli import BratteliArrow
from .krajewski import (
    KrajewskiDiagram,
    RealSpectralTriple,
    _basis_change,
    _diagonal_orbit,
    _phase_fix,
    epsilon_factor,
    extract_edges,
    layout_of,
    realize,
    validate,
)
from .reports import Report


class LiftError(ValueError):
    pass


@dataclass
class DiagramLift:
    """A Bratteli arrow together with the u(v,w) family defining phi_H."""

    arrow: BratteliArrow
    source: KrajewskiDiagram
    target: KrajewskiDiagram
    u: dict = field(default_factory=dict)   # (vid_A, vid_B) -> matrix; absent means zero
    normalized: bool = False
    kappa: dict | None = None               # vid_A -> positive real, once bases are fixed

    def __post_init__(self):
        if self.source.profile != self.arrow.source:
            raise LiftError("source diagram profile does not match the arrow")
        if self.target.profile != self.arrow.target:
            raise LiftError("target diagram profile does not match the arrow")
        u = {}
        for (v, w), m in self.u.items():
            if v not in self.source.vertices or w not in self.target.vertices:
                raise LiftError(f"u({v},{w}) references unknown vertices")
            m = as_matrix(m)
            a_ki, a_lj = _u_shape(self.arrow, v, w)
            if 0 in (a_ki, a_lj):
                raise LiftError(f"u({v},{w}) forbidden: zero multiplicity in the arrow")
            if m.shape != (a_ki, a_lj):
                raise ShapeMismatch(f"u({v},{w}) must be {a_ki}x{a_lj}, got {m.shape}")
            u[(v, w)] = m
        self.u = u


def _u_shape(arrow: BratteliArrow, v, w):
    """The shape alpha_{k(w) i(v)} x alpha_{l(w) j(v)} of u(v, w); a zero in it forbids a nonzero u(v, w)."""
    return arrow.mult(w[0], v[0]), arrow.mult(w[2], v[2])


@dataclass
class PhiHMap:
    """Dense phi_H : H_A -> H_B with an orthonormal basis of its range."""

    matrix: np.ndarray
    source_layout: object
    target_layout: object
    normalized: bool = False

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Q with orthonormal columns spanning the range of phi_H, whether or not it is marked normalized.

        Q = M V w^{-1/2} from M* M = V w V*, keeping w > 1e-12 max(w): a cut relative to the units of u.
        """
        m = self.matrix
        w, vec = np.linalg.eigh(m.conj().T @ m)
        keep = w > 1e-12 * w.max(initial=0.0)
        return m @ (vec[:, keep] / np.sqrt(w[keep]))

    def off_range(self, X):
        """(1 - P) X = X - Q (Q* X), P the range projector, without forming P."""
        Q = self.range_basis
        return X - Q @ (Q.conj().T @ X)

    def projector(self) -> np.ndarray:
        """The nB x nB orthogonal projector Q Q* onto the range of phi_H."""
        return self.range_basis @ self.range_basis.conj().T


@dataclass
class SigmaData:
    """Per-(i,j) Gram matrices sigma^{v1,v2} of the lift, Hermitian by construction."""

    fibers: dict      # (i, j) -> list of source vids, in p order
    mats: dict        # (i, j) -> mu x mu complex matrix
    flags: list       # injectivity warnings

    @property
    def largest(self) -> float:
        """The largest |sigma^{v1,v2}|, against which the sigma residuals are measured."""
        return max((float(np.abs(m).max()) for m in self.mats.values()), default=0.0)

    def off_diagonal(self) -> float:
        """The largest Frobenius norm of the off-diagonal part of a fiber's sigma."""
        return max((frob(m - np.diag(np.diag(m))) for m in self.mats.values()), default=0.0)

    def is_diagonal(self, tol: float = DEFAULT_TOL) -> bool:
        return self.off_diagonal() <= tol

    def kappas(self) -> dict:
        return {v: float(self.mats[key][p, p].real) for key, fiber in self.fibers.items() for p, v in enumerate(fiber)}


@dataclass
class CompatReport:
    """phi-compatibility verdicts for one operator pair (A on H_A, B on H_B)."""

    weak_residual: float
    b_perp_phi: float
    b_phi_perp: float
    tol: float

    @property
    def weak(self) -> bool:
        return self.weak_residual <= self.tol

    @property
    def strong(self) -> bool:
        # strong = weak plus vanishing lower-left block B_perp^phi
        return self.weak and self.b_perp_phi <= self.tol

    def as_dict(self):
        return {
            "weak_residual": self.weak_residual,
            "b_perp_phi": self.b_perp_phi,
            "b_phi_perp": self.b_phi_perp,
            "weak": self.weak,
            "strong": self.strong,
        }


def build_phiH(lift: DiagramLift) -> PhiHMap:
    """Assemble the dense H_A -> H_B matrix of the lift."""
    src_layout = layout_of(lift.source)
    tgt_layout = layout_of(lift.target)
    arrow = lift.arrow
    M = np.zeros((tgt_layout.total_dim, src_layout.total_dim), dtype=complex)
    for (v, w), u in lift.u.items():
        src, tgt = src_layout.legs(v), tgt_layout.legs(w)
        koff, loff = arrow.band_offset(w[0], v[0]), arrow.band_offset(w[2], v[2])
        # e_x (x) e_y o of block v picks up u[a, b] at the legs (koff + a n_i + x, loff + b n_j + y) of block w
        a, b, x, y = np.indices(u.shape + src.shape, sparse=True)
        M[tgt[koff + a * src.shape[0] + x, loff + b * src.shape[1] + y], src[x, y]] += u[a, b]
    return PhiHMap(M, src_layout, tgt_layout, normalized=lift.normalized)


def _pullback(M, X):
    """The pullback M* X M of an operator X on the range side of M."""
    return M.conj().T @ X @ M


def _fiber_rows(lift: DiagramLift, fiber):
    """The u(v, .) of one source fiber as the rows of a matrix U, and the (w, shape) of its column blocks.

    Row p holds u(fiber[p], w) for every target vertex w, flattened side by
    side.  Every source vertex over (i, j) has u(v, w) of shape
    alpha_{k(w) i} x alpha_{l(w) j}, so the rows of one fiber share one
    column layout; an absent u(v, w) is a zero block.
    """
    blocks = [(w, _u_shape(lift.arrow, fiber[0], w)) for w in lift.target.sorted_vids()]
    row = lambda v: [lift.u.get((v, w), np.zeros(shape)).ravel() for w, shape in blocks]
    return np.array([np.concatenate(row(v) + [np.zeros(0)]) for v in fiber], dtype=complex), blocks  # zeros(0): no w


def sigma(lift: DiagramLift) -> SigmaData:
    """Gram matrices sigma^{v1,v2} = sum_w tr(u(v1,w)* u(v2,w)) per fiber, as U* U^T with U from _fiber_rows."""
    fibers = lift.source.fibers()
    mats = {}
    flags = []
    for key, fiber in sorted(fibers.items()):
        U = _fiber_rows(lift, fiber)[0]
        m = mats[key] = U.conj() @ U.T
        flags += [f"phi_H^{v} not one-to-one (kappa = 0)" for p, v in enumerate(fiber) if m[p, p].real <= 0.0]
    return SigmaData(fibers, mats, flags)


def _u_size(lift: DiagramLift) -> float:
    """The largest ||u(v, w)||_F: the conjugation and grading residuals of u pass below tol times this."""
    return max((frob(m) for m in lift.u.values()), default=0.0)


def _grading_residual(lift: DiagramLift) -> float:
    if not lift.source.ko.even:
        return 0.0
    src, tgt = lift.source, lift.target
    return max((frob(u) for (v, w), u in lift.u.items() if src.vertex(v).s != tgt.vertex(w).s), default=0.0)


def _jim(diag: KrajewskiDiagram, v):
    """jim(v); LiftError naming v when it is not a vertex over the swapped lattice point."""
    w = diag.jim.get(v)
    if w not in diag.vertices or (w[0], w[2]) != (v[2], v[0]):
        raise LiftError(f"jim of {v} is not a vertex over ({v[2]},{v[0]})")
    return w


def _conjugation(source: KrajewskiDiagram, target: KrajewskiDiagram, v, w):
    """The image (jim v, jim w) of the pair (v, w), and the sign eps_A(v)/eps_B(w) of u(jim v, jim w) = sign u(v,w)*."""
    ratio = epsilon_factor(source.vertex(v), source.d) / epsilon_factor(target.vertex(w), target.d)
    return (_jim(source, v), _jim(target, w)), ratio


def _conjugation_residual(lift: DiagramLift):
    """Worst violation of u(jim v, jim w) = (eps_A(v)/eps_B(w)) u(v,w)*, with witness; an absent u is zero."""
    src, tgt = lift.source, lift.target
    worst, witness = 0.0, None
    for (v, w) in sorted(set(lift.u) | {_conjugation(src, tgt, v, w)[0] for (v, w) in lift.u}):
        image, ratio = _conjugation(src, tgt, v, w)
        zero = np.zeros(_u_shape(lift.arrow, v, w))
        expected = ratio * lift.u.get((v, w), zero).conj().T
        res = frob(lift.u.get(image, zero.T) - expected)
        if res > worst:
            worst, witness = res, (v, w)
    return worst, witness


def compat_check(A, B, phiH: PhiHMap, tol: float = DEFAULT_TOL, antilinear: bool = False) -> CompatReport:
    """phi-compatibility of B on H_B with A on H_A through phi_H.

    Weak: phi_H(A psi) = P B phi_H(psi) on the canonical basis of H_A
    (exhaustive for linear maps).  Strong: additionally (1-P) B phi_H = 0.
    Antilinear operators are passed by their K matrices (op = K o conj).
    Each block is an nB x nA residual off the range basis Q: ||P B (1-P)|| = ||(1-P) B* Q||.
    """
    M = phiH.matrix
    if A.shape != (M.shape[1], M.shape[1]) or B.shape != (M.shape[0], M.shape[0]):
        raise ShapeMismatch("operator shapes do not match phi_H")
    lhs = M @ A  # for antilinear A = K_A o conj, the conjugation is factored out
    rhs = B @ np.conj(M) if antilinear else B @ M
    perp = phiH.off_range(rhs)
    weak_res = float(np.max(np.linalg.norm(rhs - perp - lhs, axis=0))) if lhs.size else 0.0
    return CompatReport(
        weak_residual=weak_res,
        b_perp_phi=frob(perp),
        b_phi_perp=frob(phiH.off_range(B.conj().T @ phiH.range_basis)),
        tol=tol,
    )


def real_grading_check(lift: DiagramLift, tA: RealSpectralTriple, tB: RealSpectralTriple,
                       tol: float = DEFAULT_TOL) -> Report:
    """Real-structure and grading compatibility of the lift.

    Checks the conjugation relation on every (v, w) pair and the vanishing
    of u(v,w) across grading mismatches, both below tol times the largest
    ||u(v, w)||_F, equality of the KO sign data of the two triples, and
    cross-validates with direct compat checks on the J (and gamma)
    operators, whose residuals pass below tol ||phi_H||_F, so a lift and
    its rescaling get the same verdict.
    """
    rep = Report("real structure and grading")
    res, witness = _conjugation_residual(lift)
    ubound = tol * _u_size(lift)
    rep.add("u(jim v, jim w) = (eps_A/eps_B) u(v,w)*", res, ubound,
            detail=f"worst at {witness}" if witness else "")
    rep.add("u(v,w) = 0 when s(v) != s(w)", _grading_residual(lift), ubound)

    sigA = (tA.ko.eps, tA.ko.eps_p, tA.ko.eps_pp)
    sigB = (tB.ko.eps, tB.ko.eps_p, tB.ko.eps_pp)
    rep.add_bool("KO signatures equal", sigA == sigB, detail=f"A={sigA} B={sigB}")

    phiH = build_phiH(lift)
    pairs = [("J", tA.K, tB.K, True)]  # K stands for the antilinear J = K o conj
    if tA.ko.even and tB.ko.even:
        pairs.append(("gamma", tA.gamma, tB.gamma, False))
    bound = tol * frob(phiH.matrix)
    for name, A, B, antilinear in pairs:
        c = compat_check(A, B, phiH, tol, antilinear=antilinear)
        rep.add(f"{name} data weak residual", c.weak_residual, bound)
        rep.add(f"{name} data strong block", c.b_perp_phi, bound)
    return rep


def diagonalize_bases(lift: DiagramLift, tol: float = DEFAULT_TOL) -> DiagramLift:
    """Rotate the source fiber bases so that sigma becomes diagonal.

    Works in KO-dimensions 0, 1, 2, 6, 7 when the lift respects the grading
    and the real-structure conjugation relation; the rotation is one unitary
    per fiber (orthogonal on jim-fixed diagonal fibers, conjugated on the jim
    partner) so kappa_{jim(v)} = kappa_v, and kappa is the diagonal of the
    rotated sigma.  Edge decorations and u data are transformed consistently.
    In KO-dimensions 3, 4, 5 only an already diagonal sigma is accepted.
    The sigma residuals pass below tol times the largest |sigma|, and the
    conjugation and grading residuals below tol times the largest
    ||u(v, w)||_F, so a lift and its rescaling get the same verdict.
    """
    d = lift.source.d
    sig = sigma(lift)
    size = sig.largest
    usize = _u_size(lift)

    if lift.target.d != d:
        raise LiftError("source and target KO-dimensions differ")

    res, witness = _conjugation_residual(lift)
    if res > tol * usize:
        raise LiftError(f"conjugation relation violated at {witness} (residual {res:.3e})")
    gres = _grading_residual(lift)
    if gres > tol * usize:
        raise LiftError(f"grading not respected by u (residual {gres:.3e})")

    if _diagonal_orbit(d, 1) == (1, 1):  # jim pairs diagonal vertices of one grading: their rotation would be quaternionic
        if sig.is_diagonal(tol * size) and _kappa_pairing_residual(lift, sig) <= tol * size:
            return replace(lift, kappa=sig.kappas(), u=dict(lift.u))
        raise LiftError(
            f"unsupported KO dimension {d} for automatic diagonalization (sigma not diagonal)"
        )

    # cross-grading entries of sigma must already vanish
    fibers, src = sig.fibers, lift.source
    for key, fiber in fibers.items():
        s = np.array([src.vertex(v).s or 0 for v in fiber])
        p1, p2 = np.nonzero((s[:, None] != s) & (abs(sig.mats[key]) > tol * size))
        if p1.size:
            raise LiftError(f"sigma couples gradings at {fiber[p1[0]]},{fiber[p2[0]]}")

    def block(vids):
        """The fiber of vids and the index of its vids x vids block."""
        key = (vids[0][0], vids[0][2])
        p = [fibers[key].index(v) for v in vids]
        return key, np.ix_(p, p)

    # one unitary per fiber: row p_new holds the coefficients of the new vertex fiber[p_new] over the old ones.
    # The vertices of one fiber and grading turn by C, their jim images by conj(C); C is real where jim fixes them.
    rot = {key: np.eye(len(fiber), dtype=complex) for key, fiber in fibers.items()}
    rotated = set()
    for key, fiber in sorted(fibers.items()):
        for sv in (1, -1, None):
            vids = [v for v in fiber if src.vertex(v).s == sv and v not in rotated]
            if not vids:
                continue
            partner = [src.jim[v] for v in vids]
            at = block(vids)[1]
            S = sig.mats[key][at]
            if partner == vids:
                asym = frob(S - S.T) / 2
                if asym > tol * size:
                    raise LiftError(f"sigma block on {key} not symmetric (residual {asym:.3e})")
                S = ((S + S.T) / 2).real
            w, V = np.linalg.eigh(S)
            V = np.ascontiguousarray(V[:, np.argsort(-w)])
            C = np.array([_phase_fix(col) for col in V.T])
            rot[key][at] = C
            pkey, at = block(partner)
            rot[pkey][at] = np.conj(C)
            rotated.update(vids + partner)

    # rotate the u family and, through the block change of basis Q, the Dirac decorations
    rows, new_u = {}, {}
    for key, fiber in fibers.items():
        U, blocks = _fiber_rows(lift, fiber)
        cols = np.split(rot[key] @ U, np.cumsum([a * b for _w, (a, b) in blocks])[:-1], axis=1)
        for (w, shape), col in zip(blocks, cols):
            new_u.update({(v, w): r.reshape(shape) for v, r in zip(fiber, col) if r.any()})
        rows.update({v: (fiber, rot[key][p]) for p, v in enumerate(fiber)})
    tA = realize(src)
    Q = _basis_change(tA.layout, rows)
    new_source = _source_with_dirac(lift, _pullback(Q, tA.D), frob(tA.D), tol, "rotated source diagram fails validation")

    out = DiagramLift(lift.arrow, new_source, lift.target, new_u)
    sig2 = sigma(out)
    if (off := sig2.off_diagonal()) > tol * size:
        raise LiftError(f"diagonalization failed: sigma still has off-diagonal entries "
                        f"(residual {off:.3e}, bound {tol * size:.3e})")
    pres = _kappa_pairing_residual(out, sig2)
    if pres > tol * size:
        raise LiftError(f"kappa_jim(v) != kappa_v after rotation (residual {pres:.3e})")
    out.kappa = sig2.kappas()
    return out


def _kappa_pairing_residual(lift: DiagramLift, sig: SigmaData) -> float:
    kap = sig.kappas()
    return max((abs(kap[v] - kap[lift.source.jim[v]]) for v in kap), default=0.0)


def normalize(lift: DiagramLift, tol: float = DEFAULT_TOL) -> DiagramLift:
    """Rescale u(v, .) by kappa_v^{-1/2}; the resulting phi_H is an isometry.

    sigma must be diagonal and every kappa_v positive, both against tol
    times the largest |sigma|.
    """
    sig = sigma(lift)
    bound = tol * sig.largest
    if (off := sig.off_diagonal()) > bound:
        raise LiftError(f"sigma is not diagonal (residual {off:.3e}, bound {bound:.3e}); run diagonalize_bases first")
    kap = sig.kappas()
    bad = [v for v, k in kap.items() if k <= bound]
    if bad:
        raise LiftError(f"phi_H is not one-to-one: kappa {min(kap.values()):.3e} <= {bound:.3e} at {bad}")
    new_u = {(v, w): u / np.sqrt(kap[v]) for (v, w), u in lift.u.items()}
    return replace(lift, u=new_u, normalized=True, kappa={v: 1.0 for v in kap})


def inherit_source_dirac(lift: DiagramLift, tol: float = DEFAULT_TOL) -> DiagramLift:
    """Replace the source Dirac data by the pullback phi_H* D_B phi_H.

    Needs a normalized lift.  The pullback is Hermitian, satisfies the
    source real-structure and first-order relations (J_B being strongly
    compatible), and is weakly phi-compatible with D_B by construction,
    which makes the pair of triples ready for action comparison.
    """
    if not lift.normalized:
        raise LiftError("inherit_source_dirac needs a normalized lift")
    M = build_phiH(lift).matrix
    tB = realize(lift.target, tol)
    new_source = _source_with_dirac(lift, _pullback(M, tB.D), frob(tB.D), tol, "pullback Dirac does not validate")
    return replace(lift, source=new_source, u=dict(lift.u))


def _source_with_dirac(lift, D, norm, tol, failure):
    """lift.source with the edges read off D, a matrix in its vertex-block layout.

    Blocks below tol times norm, the norm of the operator D is pulled back
    from, are dropped, so a pullback that vanishes in exact arithmetic
    leaves no edges of rounding noise.  The diagram must validate at tol,
    or LiftError(failure) is raised with the report.
    """
    src = lift.source
    edges = extract_edges(layout_of(src), D, tol, norm)
    new_source = KrajewskiDiagram(src.profile, src.ko, dict(src.vertices), dict(src.jim), edges)
    rep = validate(new_source, tol)
    if not rep.ok:
        raise LiftError(f"{failure}:\n{rep}")
    return new_source


def inherited_split(B: np.ndarray, phiH: PhiHMap):
    """Split B into its inherited pullback on H_A and the non-inherited norms.

    Returns (phi_H* B phi_H, (||B_phi^perp||_F, ||B_perp^phi||_F,
    ||B_perp^perp||_F)) from ||P B (1-P)|| = ||(1-P) B* M|| and ||(1-P) B P|| = ||(1-P) B M||,
    which needs a normalized phi_H.
    """
    if not phiH.normalized:
        raise LiftError("inherited_split needs a normalized phi_H")
    M, off = phiH.matrix, phiH.off_range
    B = as_matrix(B)
    tnic = (frob(off(B.conj().T @ M)), frob(off(B @ M)), frob(off(off(B).conj().T)))
    return _pullback(M, B), tnic
