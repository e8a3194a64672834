"""Lifts of a Bratteli arrow to a map phi_H between realized diagrams.

The lift is stored as the family u(v, w) in M_{alpha_{k(w) i(v)} x
alpha_{ell(w) j(v)}}: on each source vertex

    phi_H(xi (x) eta o) = I_{k,l}^{i,j}( xi (x) u(v,w) (x) eta o )

summed over target vertices w.  The Gram data sigma^{v1,v2} =
sum_w tr(u(v1,w)* u(v2,w)) controls injectivity; rotating the source fiber
bases diagonalizes it (KO-dimensions 0,1,2,6,7) and rescaling by
kappa_v^{-1/2} turns phi_H into an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import DEFAULT_TOL, ShapeMismatch, as_matrix, frob
from .bratteli import BratteliArrow
from .krajewski import (
    ClassificationError,
    KrajewskiDiagram,
    RealSpectralTriple,
    _basis_change,
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
            a_ki = self.arrow.mult(w[0], v[0])
            a_lj = self.arrow.mult(w[2], v[2])
            if a_ki == 0 or a_lj == 0:
                raise LiftError(f"u({v},{w}) forbidden: zero multiplicity in the arrow")
            if m.shape != (a_ki, a_lj):
                raise ShapeMismatch(f"u({v},{w}) must be {a_ki}x{a_lj}, got {m.shape}")
            u[(v, w)] = m
        self.u = u

    def u_at(self, v, w):
        return self.u.get((v, w))


@dataclass
class PhiHMap:
    """Dense phi_H : H_A -> H_B with its range projector."""

    matrix: np.ndarray
    source_layout: object
    target_layout: object
    normalized: bool = False
    _projector: np.ndarray | None = None

    def projector(self, cutoff: float = 1e-12) -> np.ndarray:
        """Orthogonal projector onto the range of phi_H.

        For a normalized (isometric) map this is phi_H phi_H*; otherwise the
        pseudo-inverse is taken through an eigendecomposition of phi_H* phi_H
        with the given eigenvalue cutoff.
        """
        if self._projector is None:
            m = self.matrix
            if self.normalized:
                self._projector = m @ m.conj().T
            else:
                w, vec = np.linalg.eigh(m.conj().T @ m)
                inv = np.where(w > cutoff, 1.0 / np.maximum(w, cutoff), 0.0)
                self._projector = m @ (vec * inv) @ vec.conj().T @ m.conj().T
        return self._projector


@dataclass
class SigmaData:
    """Per-(i,j) Gram matrices sigma^{v1,v2} of the lift, Hermitian by construction."""

    fibers: dict      # (i, j) -> list of source vids, in p order
    mats: dict        # (i, j) -> mu x mu complex matrix
    flags: list       # injectivity warnings

    def is_diagonal(self, tol: float = DEFAULT_TOL) -> bool:
        return all(
            frob(m - np.diag(np.diag(m))) <= tol for m in self.mats.values()
        )

    def kappas(self) -> dict:
        out = {}
        for key, fiber in self.fibers.items():
            diag = np.diag(self.mats[key])
            for p, v in enumerate(fiber):
                out[v] = float(diag[p].real)
        return out


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
        vb, wb = src_layout.block(v), tgt_layout.block(w)
        koff, loff = arrow.band_offset(w[0], v[0]), arrow.band_offset(w[2], v[2])
        # e_x (x) e_y o of block v picks up u[a, b] at (koff + a n_i + x, loff + b n_j + y) of block w
        a, b, x, y = np.indices(u.shape + (vb.n_i, vb.n_j), sparse=True)
        rows = wb.offset + (koff + a * vb.n_i + x) * wb.n_j + loff + b * vb.n_j + y
        cols = vb.offset + x * vb.n_j + y
        M[rows, cols] += u[a, b]
    return PhiHMap(M, src_layout, tgt_layout, normalized=lift.normalized)


def sigma(lift: DiagramLift) -> SigmaData:
    """Gram matrices sigma^{v1,v2} = sum_w tr(u(v1,w)* u(v2,w)) per fiber."""
    fibers = lift.source.fibers()
    mats = {}
    flags = []
    wids = lift.target.sorted_vids()
    for key, fiber in sorted(fibers.items()):
        mu = len(fiber)
        m = np.zeros((mu, mu), dtype=complex)
        for p1, v1 in enumerate(fiber):
            for p2, v2 in enumerate(fiber):
                acc = 0.0
                for w in wids:
                    u1 = lift.u_at(v1, w)
                    u2 = lift.u_at(v2, w)
                    if u1 is not None and u2 is not None:
                        acc += np.trace(u1.conj().T @ u2)
                m[p1, p2] = acc
        mats[key] = m
        for p, v in enumerate(fiber):
            if m[p, p].real <= 0.0:
                flags.append(f"phi_H^{v} not one-to-one (kappa = 0)")
    return SigmaData(fibers, mats, flags)


def _grading_residual(lift: DiagramLift) -> float:
    if not lift.source.ko.even:
        return 0.0
    worst = 0.0
    for (v, w), u in lift.u.items():
        if lift.source.vertex(v).s != lift.target.vertex(w).s:
            worst = max(worst, frob(u))
    return worst


def _conjugation_residual(lift: DiagramLift):
    """Worst violation of u(jim v, jim w) = (eps_A(v)/eps_B(w)) u(v,w)*, with witness."""
    dA, dB = lift.source.d, lift.target.d
    worst, witness = 0.0, None
    keys = set(lift.u)
    keys |= {(lift.source.jim[v], lift.target.jim[w]) for (v, w) in lift.u}
    for (v, w) in sorted(keys):
        ratio = epsilon_factor(lift.source.vertex(v), dA) / epsilon_factor(lift.target.vertex(w), dB)
        u = lift.u_at(v, w)
        expected = ratio * u.conj().T if u is not None else None
        got = lift.u_at(lift.source.jim[v], lift.target.jim[w])
        if expected is None and got is None:
            continue
        if expected is None:
            res = frob(got)
        elif got is None:
            res = frob(expected)
        else:
            res = frob(got - expected)
        if res > worst:
            worst, witness = res, (v, w)
    return worst, witness


def compat_check(A, B, phiH: PhiHMap, tol: float = DEFAULT_TOL, antilinear: bool = False) -> CompatReport:
    """phi-compatibility of B on H_B with A on H_A through phi_H.

    Weak: phi_H(A psi) = P B phi_H(psi) on the canonical basis of H_A
    (exhaustive for linear maps).  Strong: additionally (1-P) B phi_H = 0.
    Antilinear operators are passed by their K matrices (op = K o conj).
    """
    M = phiH.matrix
    if A.shape != (M.shape[1], M.shape[1]) or B.shape != (M.shape[0], M.shape[0]):
        raise ShapeMismatch("operator shapes do not match phi_H")
    P = phiH.projector()
    lhs = M @ A  # for antilinear A = K_A o conj, the conjugation is factored out
    rhs = B @ np.conj(M) if antilinear else B @ M
    diff = P @ rhs - lhs
    weak_res = float(np.max(np.linalg.norm(diff, axis=0))) if diff.size else 0.0
    eye = np.eye(P.shape[0])
    return CompatReport(
        weak_residual=weak_res,
        b_perp_phi=frob((eye - P) @ rhs),
        b_phi_perp=frob(P @ B @ (eye - P)),
        tol=tol,
    )


def real_grading_check(lift: DiagramLift, tA: RealSpectralTriple, tB: RealSpectralTriple,
                       tol: float = DEFAULT_TOL) -> Report:
    """Real-structure and grading compatibility of the lift.

    Checks the conjugation relation on every (v, w) pair, the vanishing of
    u(v,w) across grading mismatches, equality of the KO sign data of the
    two triples, and cross-validates with direct compat checks on the J
    (and gamma) operators.
    """
    rep = Report("real structure and grading")
    res, witness = _conjugation_residual(lift)
    rep.add("u(jim v, jim w) = (eps_A/eps_B) u(v,w)*", res, tol,
            detail=f"worst at {witness}" if witness else "")
    rep.add("u(v,w) = 0 when s(v) != s(w)", _grading_residual(lift), tol)

    sigA = (tA.ko.eps, tA.ko.eps_p, tA.ko.eps_pp)
    sigB = (tB.ko.eps, tB.ko.eps_p, tB.ko.eps_pp)
    rep.add_bool("KO signatures equal", sigA == sigB, detail=f"A={sigA} B={sigB}")

    phiH = build_phiH(lift)
    jrep = compat_check(tA.K, tB.K, phiH, tol, antilinear=True)
    rep.add("J data weak residual", jrep.weak_residual, tol)
    rep.add("J data strong block", jrep.b_perp_phi, tol)
    if tA.ko.even and tB.ko.even:
        grep = compat_check(tA.gamma, tB.gamma, phiH, tol)
        rep.add("gamma data weak residual", grep.weak_residual, tol)
        rep.add("gamma data strong block", grep.b_perp_phi, tol)
    return rep


def _rotation_groups(diag: KrajewskiDiagram):
    """Fiber subsets rotated together, with their jim partners.

    mode 'self' means jim maps the group to itself (orthogonal rotation),
    'pair' means the partner group carries the conjugate rotation.
    """
    d = diag.d
    groups = []
    done = set()
    for (i, j), fiber in sorted(diag.fibers().items()):
        if (i, j) in done:
            continue
        if i < j:
            done.update({(i, j), (j, i)})
            subsets = _split_by_s(diag, fiber)
            for vids in subsets:
                groups.append(("pair", vids, [diag.jim[v] for v in vids]))
        elif i == j:
            done.add((i, i))
            if d in (0, 1, 7):
                for vids in _split_by_s(diag, fiber):
                    groups.append(("self", vids, vids))
            elif d in (2, 6):
                plus = [v for v in fiber if diag.vertex(v).s == 1]
                groups.append(("pair", plus, [diag.jim[v] for v in plus]))
            else:
                raise LiftError(f"no automatic diagonalization in KO-dimension {d}")
    return groups


def _split_by_s(diag, fiber):
    if not diag.ko.even:
        return [fiber] if fiber else []
    out = []
    for sv in (1, -1):
        sub = [v for v in fiber if diag.vertex(v).s == sv]
        if sub:
            out.append(sub)
    return out


def _phase_fix_columns(V, cut=1e-9):
    V = V.copy()
    for c in range(V.shape[1]):
        col = V[:, c]
        idx = np.flatnonzero(np.abs(col) > cut * max(1.0, np.abs(col).max()))
        if idx.size:
            z = col[idx[0]]
            V[:, c] = col * (np.conj(z) / abs(z))
    return V


def diagonalize_bases(lift: DiagramLift, tol: float = DEFAULT_TOL) -> DiagramLift:
    """Rotate the source fiber bases so that sigma becomes diagonal.

    Works in KO-dimensions 0, 1, 2, 6, 7 when the lift respects the grading
    and the real-structure conjugation relation; the rotation is unitary per
    fiber (orthogonal on jim-fixed diagonal fibers, conjugated on the jim
    partner) so kappa_{jim(v)} = kappa_v.  Edge decorations and u data are
    transformed consistently.  In KO-dimensions 3, 4, 5 only an already
    diagonal sigma is accepted.
    """
    d = lift.source.d
    sig = sigma(lift)

    if lift.target.d != d:
        raise LiftError("source and target KO-dimensions differ")

    res, witness = _conjugation_residual(lift)
    if res > tol:
        raise LiftError(f"conjugation relation violated at {witness} (residual {res:.3e})")
    gres = _grading_residual(lift)
    if gres > tol:
        raise LiftError(f"grading not respected by u (residual {gres:.3e})")

    if d in (3, 4, 5):
        if sig.is_diagonal(tol) and _kappa_pairing_residual(lift, sig) <= tol:
            return replace(lift, kappa=sig.kappas(), u=dict(lift.u))
        raise LiftError(
            f"unsupported KO dimension {d} for automatic diagonalization (sigma not diagonal)"
        )

    fibers = lift.source.fibers()
    fiber_index = {v: (key, p) for key, fiber in fibers.items() for p, v in enumerate(fiber)}

    # cross-grading entries of sigma must already vanish
    for key, mat in sig.mats.items():
        fiber = sig.fibers[key]
        for p1, v1 in enumerate(fiber):
            for p2, v2 in enumerate(fiber):
                s1, s2 = lift.source.vertex(v1).s, lift.source.vertex(v2).s
                if s1 != s2 and abs(mat[p1, p2]) > tol:
                    raise LiftError(f"sigma couples gradings at {v1},{v2}")

    coeffs = {}   # vid -> (group vids, row of coefficients)
    kappa = {}
    for mode, vids, partner in _rotation_groups(lift.source):
        if not vids:
            continue
        key = fiber_index[vids[0]][0]
        fiber = fibers[key]
        idx = [fiber.index(v) for v in vids]
        S = sig.mats[key][np.ix_(idx, idx)]
        if mode == "self":
            asym = frob(S - S.T) / 2
            if asym > max(tol, 1e-12):
                raise LiftError(f"sigma block on {key} not symmetric (residual {asym:.3e})")
            S = ((S + S.T) / 2).real  # the rotation C below is then real orthogonal
        w, V = np.linalg.eigh(S)
        order = np.argsort(-w)
        w, V = w[order], np.ascontiguousarray(V[:, order])
        C = _phase_fix_columns(V).T
        for p_new, v_new in enumerate(vids):
            coeffs[v_new] = (vids, C[p_new, :])
            kappa[v_new] = float(w[p_new])
        if mode == "pair":
            if any(v in coeffs for v in partner) and partner != vids:
                raise LiftError("rotation groups overlap")
            for p_new, v_new in enumerate(partner):
                coeffs[v_new] = (partner, np.conj(C[p_new, :]))
                kappa[v_new] = float(w[p_new])

    for v in lift.source.sorted_vids():
        coeffs.setdefault(v, ([v], np.ones(1)))
        kappa.setdefault(v, float(sig.mats[fiber_index[v][0]][fiber_index[v][1], fiber_index[v][1]].real))

    # rotate the u family
    wids = lift.target.sorted_vids()
    new_u = {}
    for v_new, (vids, row) in coeffs.items():
        for w_t in wids:
            acc = None
            for c, v_old in zip(row, vids):
                u = lift.u_at(v_old, w_t)
                if u is None or c == 0.0:
                    continue
                acc = c * u if acc is None else acc + c * u
            if acc is not None and frob(acc) > 0.0:
                new_u[(v_new, w_t)] = acc

    # rotate the Dirac decorations through the block change of basis Q
    tA = realize(lift.source)
    layout = tA.layout
    Q = _basis_change(layout, coeffs)
    Dp = Q.conj().T @ tA.D @ Q
    edges = extract_edges(lift.source.profile, layout, Dp, tol, max(tol, 1e-8))

    new_source = KrajewskiDiagram(
        lift.source.profile, lift.source.ko, dict(lift.source.vertices), dict(lift.source.jim), edges
    )
    rep = validate(new_source, max(tol, 1e-8))
    if not rep.ok:
        raise LiftError("rotated source diagram fails validation:\n" + str(rep))

    out = DiagramLift(lift.arrow, new_source, lift.target, new_u, normalized=False, kappa=kappa)

    sig2 = sigma(out)
    if not sig2.is_diagonal(max(tol, 1e-9)):
        raise LiftError("diagonalization failed: sigma still has off-diagonal entries")
    pres = _kappa_pairing_residual(out, sig2)
    if pres > max(tol, 1e-9):
        raise LiftError(f"kappa_jim(v) != kappa_v after rotation (residual {pres:.3e})")
    return out


def _kappa_pairing_residual(lift: DiagramLift, sig: SigmaData) -> float:
    kap = sig.kappas()
    return max((abs(kap[v] - kap[lift.source.jim[v]]) for v in kap), default=0.0)


def normalize(lift: DiagramLift, tol: float = DEFAULT_TOL) -> DiagramLift:
    """Rescale u(v, .) by kappa_v^{-1/2}; the resulting phi_H is an isometry."""
    sig = sigma(lift)
    if not sig.is_diagonal(max(tol, 1e-9)):
        raise LiftError("sigma is not diagonal; run diagonalize_bases first")
    kap = sig.kappas()
    bad = [v for v, k in kap.items() if k <= tol]
    if bad:
        raise LiftError(f"phi_H is not one-to-one: kappa <= tol at {bad}")
    new_u = {}
    for (v, w), u in lift.u.items():
        new_u[(v, w)] = u / np.sqrt(kap[v])
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
    layout = layout_of(lift.source)
    DA = M.conj().T @ tB.D @ M
    edges = extract_edges(lift.source.profile, layout, DA, tol, max(tol, 1e-8))
    new_source = KrajewskiDiagram(
        lift.source.profile, lift.source.ko, dict(lift.source.vertices),
        dict(lift.source.jim), edges,
    )
    rep = validate(new_source, max(tol, 1e-8))
    if not rep.ok:
        raise LiftError("pullback Dirac does not validate:\n" + str(rep))
    return replace(lift, source=new_source, u=dict(lift.u))


def inherited_split(B: np.ndarray, phiH: PhiHMap):
    """Split B into its inherited pullback on H_A and the non-inherited norms.

    Returns (phi_H* B phi_H, (||B_phi^perp||_F, ||B_perp^phi||_F,
    ||B_perp^perp||_F)).  Requires a normalized phi_H.
    """
    if not phiH.normalized:
        raise LiftError("inherited_split needs a normalized phi_H")
    M = phiH.matrix
    B = as_matrix(B)
    P = phiH.projector()
    eye = np.eye(P.shape[0])
    comp = eye - P
    pullback = M.conj().T @ B @ M
    tnic = (frob(P @ B @ comp), frob(comp @ B @ P), frob(comp @ B @ comp))
    return pullback, tnic
