"""Earlier versions of rewritten code paths, kept as test oracles.

The first group is the explicit index loops that `VertexLayout.place` and
the index maps of `build_phiH` replaced.  The tests compare the two on
seeded random diagrams and lifts: entry for entry where the assembly is a
placement of given numbers, and to 1e-12 where it is a sum (the
middle-map extraction).

The second group is the action comparison as it was before each operator
was built once: `compare_actions` fluctuating D up to seven times,
`bosonic_lagrangian` with sixteen field strengths and dense trace
products, `spectral_sum` with `eigvalsh` of all of D, and `compat_check`
with explicit identity matrices.  The tests compare them with the library
to 1e-12 relative, and the library's off-diagonal blocks of gamma-odd
fields with the dense products and `eigvalsh`.

The third group is the axioms path with dense operators: `verify_axioms`
with dense pi(a) and J pi(b)* J^-1 for every pair of matrix units, step 1
of `classify` with dense pi and right-action products, and
`_factor_residual` with `np.kron`.  The tests compare their verdicts and
residuals with the index-map versions.

The fourth group is `represent` with a dense pi(a) for every algebra
element of every term and three n x n products per term.  The tests
compare it with the vertex-block version to 1e-12 relative.

The fifth group is `verify_axioms` on index maps with one n x n bracket
and one Frobenius norm per pair of units (`verify_axioms_pairs`).  The
tests compare its verdicts and residuals with the sums of squares of the
library version.

The sixth group is `extract_edges` as a loop over pairs of vertices with
one Frobenius norm and its own factor test per block (`extract_edges_pairs`),
and `detect_ko` forming its products once per sign row (`detect_ko_rows`).
The tests ask for the same edges in the same order with identical
operators, and for identical verdicts.

The seventh group is `classify` with its fiber bases from three Gram-Schmidt
loops and a branch per KO-dimension, and `sigma` and `diagonalize_bases`
with loops over the vertices of each fiber and per-vertex coefficient rows.
The tests ask for a bit-identical classification, and for the same lift up
to 1e-12 relative.

The eighth group is the generators `random_diagram`,
`random_compatible_target` and `random_lift` with the diagonal normal form
written out as a branch per KO-dimension, twice in `random_diagram`, and
with the group and capacity bookkeeping of `random_lift`.  The tests ask
for bit-identical output from the same seed, and for the same generator
state after the call.

The ninth group is `minimal_diagram` with a hand-written case per
KO-dimension.  The tests ask for the same vertex records, jim and edges,
in the same order, with bit-equal decorations.

The tenth group is the range of phi_H as a dense nB x nB projector P
(`projector`, with its absolute eigenvalue cut), and `compat_check` and
`inherited_split` as products with P and 1 - P.  The second group's
`compat_check` and `compare_actions` read P from here too.  The tests ask
for the residuals of the range-basis versions within 1e-12 relative to
the operator, with the same verdicts.

The eleventh group is `validate` with one norm, one factor residual and one
orbit step per edge (`validate_per_edge`, `complete_edges_per_edge`,
`jim_op`), and `verify_axioms`, `detect_ko`, `conjugate_by_J` and `apply_J`
with dense products with K and gamma, whose brackets are read densely for
every unit, X_a included, one row of each frame at a time
(`worst_bracket_rows`).  The tests ask for the same report
lines, verdicts and witnesses with residuals within 1e-12 relative, for the
same orbit closure and realized D bit for bit, for the same detected rows,
and for J X J^-1 and J psi equal entry for entry.

The twelfth group is bundle I/O with a Python object per matrix entry:
`save_bundle_json_dump` writes json.dump of the document with every
matrix's entries as a list of [re, im] lists, and `matrix_from_json_per_entry`
checks the entries one at a time before np.array reads them.  The tests ask
for the writer's bytes, and for the reader's arrays and error messages,
exactly.

The thirteenth group is field assembly as it was before one GEMM per pair
of algebra blocks and one buffer per field: `sandwich` with np.tensordot
and a transposed copy of its product, `represent_elements` with an
AlgebraElement (-a0 a1) per term, `apply_phi_components` as a sum of
`phi_component`s, `fluctuate_whole` and `from_forms_whole` as whole-array
expressions, and `hermiticity_dense`, the dense Hermiticity residual and
size of `bosonic_lagrangian`'s check.  The tests ask for the same bits, and
for the same refusals of a non-Hermitian configuration.

The fourteenth group is step 5 of `classify` with two dense products by W*:
`normal_form_residual` forms ||W* A W - A0||_F, or ||W* A conj(W) - A0||_F
for K.  The tests ask for the library's ||A V - W A0||_F within 1e-12
relative to ||A||_F, for W from `classify` and for W times a random fiber
unitary.

The fifteenth group is the lift path as it was before it read a realized K
and gamma as their permutation and signs: `_real_structure`, the dense
placement of K and gamma by `VertexLayout.place`; `real_grading_check_dense`,
whose J and gamma lines are `compat_check`s of the dense K and gamma;
`bosonic_lagrangian_blocks`, the two-product Lagrangian on the blocks of
gamma-odd fields; `build_phiH_per_pair`, one scatter per (v, w) pair; and
`pushforward_per_call`, which reads the band offsets inside every
`apply_phi` call and forms p_phi for a unital arrow too.  The tests ask for
K and gamma, phi_H and the pushed-forward forms bit for bit, for the report
lines within 1e-12 relative, and for the Lagrangian within its Hermitian
bound.
"""

import json
import math
from dataclasses import replace

import numpy as np

from finspec.action import ActionReport, ActionTerm, CutoffFunction, GaugeConfiguration, _bipartition, fermionic_pairing
from finspec.algebra import DEFAULT_TOL, AlgebraElement, AlgebraProfile, ProfileMismatch, ShapeMismatch, as_matrix, frob, matrix_units, unit_insert
from finspec.bratteli import BratteliArrow, apply_phi, phi_component
from finspec.bundle import _REAL, BundleError, _array, _int, bundle_to_json
from finspec.differential import UniversalOneForm, fluctuate
from finspec.krajewski import (
    _FACTOR_LINES,
    KO_TABLE,
    ClassificationError,
    Edge,
    KOSignature,
    KrajewskiDiagram,
    RealSpectralTriple,
    Vertex,
    _basis_change,
    _diagonal_orbit,
    _edge_kind,
    _extract_middle_map,
    _line,
    _splitting_residual,
    _unit_frames,
    _vdim,
    epsilon_factor,
    extract_edges,
    layout_of,
    realize,
    validate,
)
from finspec.lifting import (
    CompatReport,
    DiagramLift,
    LiftError,
    PhiHMap,
    SigmaData,
    _conjugation_residual,
    _grading_residual,
    _kappa_pairing_residual,
    _pullback,
    _source_with_dirac,
    _u_size,
    build_phiH,
    compat_check as compat_check_range,
)
from finspec.reports import Report
from finspec.sampling import random_complex, random_profile


def swap_matrix(n_i: int, n_j: int) -> np.ndarray:
    """Jhat on a vertex with dims (n_i, n_j): xi (x) eta o -> eta (x) xi o."""
    s = np.zeros((n_j * n_i, n_i * n_j))
    for x in range(n_i):
        for y in range(n_j):
            s[y * n_i + x, x * n_j + y] = 1.0
    return s


def _real_structure(layout, vertices, jim, d, even):
    """K = sum_v eps(v, d) Jhat from v to jim(v), and gamma = s(v) on each block (even d): the dense placement
    realize and classify made before they kept K and gamma as their permutation and signs."""
    K = layout.place({(jim[v], v): epsilon_factor(vertices[v], d) for v in layout.vids}, swap=True)
    gamma = layout.place({(v, v): vertices[v].s for v in layout.vids}) if even else None
    return K, gamma


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


# -- action comparison, as before each operator was built once ------------


def _real_trace(m, what, tol):
    v = complex(np.trace(m))
    if abs(v.imag) > max(tol, 1e-9) * (1.0 + abs(v)):
        raise ValueError(f"{what} has a non-real trace ({v})")
    return v.real


def bosonic_lagrangian(cfg: GaugeConfiguration, f: CutoffFunction, Lambda: float,
                       tol: float = DEFAULT_TOL) -> ActionReport:
    """Per-term values of the flat constant-field Lagrangian."""
    res = cfg.hermiticity_residual()
    if res > tol:
        raise ValueError(f"configuration is not Hermitian (residual {res:.3e})")
    B, Phi = cfg.B, cfg.Phi
    f0, f2 = f.f0, f.f2

    trF2 = 0.0
    for mu in range(4):
        for nu in range(4):
            F = 1j * (B[mu] @ B[nu] - B[nu] @ B[mu])
            trF2 += _real_trace(F @ F, "tr(F F)", tol)
    lB = f0 / (24 * math.pi**2) * trF2

    trPhi2 = _real_trace(Phi @ Phi, "tr(Phi^2)", tol)
    trPhi4 = _real_trace(Phi @ Phi @ Phi @ Phi, "tr(Phi^4)", tol)
    trDPhi2 = 0.0
    for mu in range(4):
        DPhi = 1j * (B[mu] @ Phi - Phi @ B[mu])
        trDPhi2 += _real_trace(DPhi @ DPhi, "tr((D Phi)^2)", tol)

    lPhi2 = -2 * f2 * Lambda**2 / (4 * math.pi**2) * trPhi2
    lPhi4 = f0 / (8 * math.pi**2) * trPhi4
    lDPhi2 = f0 / (8 * math.pi**2) * trDPhi2

    rep = ActionReport()
    rep.terms = [
        ActionTerm("trF2", lB),
        ActionTerm("trPhi2", lPhi2),
        ActionTerm("trPhi4", lPhi4),
        ActionTerm("trDPhi2", lDPhi2),
    ]
    return rep


def spectral_sum(D, f: CutoffFunction, Lambda: float) -> float:
    """Tr f(D / Lambda) from `eigvalsh` of all of D."""
    return float(np.sum(f(np.linalg.eigvalsh(D) / Lambda)))


def compat_check(A, B, phiH: PhiHMap, tol: float = DEFAULT_TOL, antilinear: bool = False) -> CompatReport:
    """phi-compatibility of B on H_B with A on H_A through phi_H.

    Weak: phi_H(A psi) = P B phi_H(psi) on the canonical basis of H_A
    (exhaustive for linear maps).  Strong: additionally (1-P) B phi_H = 0.
    Antilinear operators are passed by their K matrices (op = K o conj).
    """
    M = phiH.matrix
    if A.shape != (M.shape[1], M.shape[1]) or B.shape != (M.shape[0], M.shape[0]):
        raise ShapeMismatch("operator shapes do not match phi_H")
    P = projector(phiH)
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


def compare_actions(lift: DiagramLift, tA: RealSpectralTriple, tB: RealSpectralTriple,
                    omega_A: UniversalOneForm, omega_B: UniversalOneForm,
                    f: CutoffFunction, Lambda: float, cfgs=None, fermions=None,
                    tol: float = DEFAULT_TOL) -> ActionReport:
    """Split every Lagrangian term of the target side into inherited + TNIC.

    The inherited value of each traced monomial is computed with every factor
    replaced by its pullback phi_H* X phi_H and must equal the source-side
    value within tol; TNIC = full - inherited by definition.  Operator pairs
    must be weakly phi-compatible, and fermions phi-compatible (psi_B -
    phi_H psi_A orthogonal to the range).
    """
    if not lift.normalized:
        raise LiftError("compare_actions needs a normalized lift")
    phiH = build_phiH(lift)
    M = phiH.matrix
    P = projector(phiH)

    if cfgs is None:
        cfg_A = GaugeConfiguration(tuple(np.zeros_like(tA.D) for _ in range(4)),
                                   fluctuate(tA, omega_A, tol))
        cfg_B = GaugeConfiguration(tuple(np.zeros_like(tB.D) for _ in range(4)),
                                   fluctuate(tB, omega_B, tol))
    else:
        cfg_A, cfg_B = cfgs

    rep = ActionReport()
    failures = []
    for mu in range(4):
        c = compat_check(cfg_A.B[mu], cfg_B.B[mu], phiH, tol)
        rep.compat[f"B_{mu}"] = c
        if not c.weak:
            failures.append(f"B_{mu}")
    c = compat_check(cfg_A.Phi, cfg_B.Phi, phiH, tol)
    rep.compat["Phi"] = c
    if not c.weak:
        failures.append("Phi")
    if failures:
        raise LiftError(f"operators not phi-compatible: {', '.join(failures)}")

    pull = lambda X: M.conj().T @ X @ M
    cfg_inh = GaugeConfiguration(tuple(pull(b) for b in cfg_B.B), pull(cfg_B.Phi))

    full = bosonic_lagrangian(cfg_B, f, Lambda, tol)
    inh = bosonic_lagrangian(cfg_inh, f, Lambda, tol)
    aside = bosonic_lagrangian(cfg_A, f, Lambda, tol)
    for tf, ti, ta in zip(full.terms, inh.terms, aside.terms):
        rep.terms.append(ActionTerm(tf.name, tf.full, ti.full, tf.full - ti.full, ta.full))
        if abs(ti.full - ta.full) > max(tol, tol * abs(ta.full)):
            raise LiftError(
                f"inherited trace mismatch on {tf.name}: {ti.full} vs source {ta.full}"
            )

    rep.spectral["A"] = spectral_sum(fluctuate(tA, omega_A, tol), f, Lambda)
    rep.spectral["B"] = spectral_sum(fluctuate(tB, omega_B, tol), f, Lambda)

    if fermions is not None:
        psi_A, psi_B = (np.asarray(v, dtype=complex) for v in fermions)
        mismatch = np.linalg.norm(P @ (psi_B - M @ psi_A))
        if mismatch > max(tol, 1e-9) * (1 + np.linalg.norm(psi_B)):
            raise LiftError(f"fermion pair is not phi-compatible (residual {mismatch:.3e})")
        DB = fluctuate(tB, omega_B, tol)
        full_f = fermionic_pairing(tB, omega_B, psi_B, psi_B, tol)
        chi = M @ psi_A
        inh_f = complex(np.vdot(tB.apply_J(chi), P @ DB @ P @ chi))
        a_f = fermionic_pairing(tA, omega_A, psi_A, psi_A, tol)
        rep.terms.append(ActionTerm("fermionic", full_f.real, inh_f.real,
                                    (full_f - inh_f).real, a_f.real))
        rep.spectral["fermionic_full"] = full_f
        rep.spectral["fermionic_inherited"] = inh_f
        rep.spectral["fermionic_A"] = a_f
        if abs(inh_f - a_f) > max(tol, tol * abs(a_f)):
            raise LiftError(f"fermionic comparison violated: {inh_f} vs {a_f}")
    return rep


# -- the range of phi_H as a dense nB x nB projector ---------------------------


def projector(phiH: PhiHMap) -> np.ndarray:
    """Orthogonal projector onto the range of phi_H.

    For a normalized (isometric) map this is phi_H phi_H*; otherwise the
    pseudo-inverse is taken through an eigendecomposition of phi_H* phi_H,
    dropping eigenvalues at most 1e-12.
    """
    m = phiH.matrix
    if phiH.normalized:
        return m @ m.conj().T
    w, vec = np.linalg.eigh(m.conj().T @ m)
    inv = np.where(w > 1e-12, 1.0 / np.maximum(w, 1e-12), 0.0)
    return m @ (vec * inv) @ vec.conj().T @ m.conj().T


def compat_check_projector(A, B, phiH: PhiHMap, tol: float = DEFAULT_TOL, antilinear: bool = False) -> CompatReport:
    """phi-compatibility of B on H_B with A on H_A through phi_H.

    Weak: phi_H(A psi) = P B phi_H(psi) on the canonical basis of H_A
    (exhaustive for linear maps).  Strong: additionally (1-P) B phi_H = 0.
    Antilinear operators are passed by their K matrices (op = K o conj).
    """
    M = phiH.matrix
    if A.shape != (M.shape[1], M.shape[1]) or B.shape != (M.shape[0], M.shape[0]):
        raise ShapeMismatch("operator shapes do not match phi_H")
    P = projector(phiH)
    lhs = M @ A  # for antilinear A = K_A o conj, the conjugation is factored out
    rhs = B @ np.conj(M) if antilinear else B @ M
    Prhs, PB = P @ rhs, P @ B
    diff = Prhs - lhs
    weak_res = float(np.max(np.linalg.norm(diff, axis=0))) if diff.size else 0.0
    return CompatReport(
        weak_residual=weak_res,
        b_perp_phi=frob(rhs - Prhs),
        b_phi_perp=frob(PB - PB @ P),
        tol=tol,
    )


def inherited_split(B: np.ndarray, phiH: PhiHMap):
    """Split B into its inherited pullback on H_A and the non-inherited norms.

    Returns (phi_H* B phi_H, (||B_phi^perp||_F, ||B_perp^phi||_F,
    ||B_perp^perp||_F)).  Requires a normalized phi_H.
    """
    if not phiH.normalized:
        raise LiftError("inherited_split needs a normalized phi_H")
    M = phiH.matrix
    B = as_matrix(B)
    P = projector(phiH)
    comp = np.eye(P.shape[0]) - P
    tnic = (frob(P @ B @ comp), frob(comp @ B @ P), frob(comp @ B @ comp))
    return _pullback(M, B), tnic


# -- the axioms path, as before the index maps of VertexLayout.unit_maps ----


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


def splitting_residual(t, i, j, fiber):
    """Step 1 of classify: pi(1_i) J pi(1_j)* J^-1 against the fiber projector, with dense products."""
    layout = t.layout
    proj = t.pi(unit_insert(t.profile, i, np.eye(t.profile.dim(i)))) @ t.right(
        unit_insert(t.profile, j, np.eye(t.profile.dim(j)))
    )
    return frob(proj - layout.place({(v, v): 1.0 for v in fiber}))


# -- verify_axioms on index maps, as before the sums of squares of _bracket_squares --


def verify_axioms_pairs(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> Report:
    """Residual norms of every real-spectral-triple axiom, one n x n bracket per pair of units.

    Commutant and first-order conditions are bilinear in (a, b), so checking
    the generating matrix units of each block is exhaustive.  Both order
    conditions are measured in the frame K^dagger (.) K, which equals
    J pi(b)* J^-1 exactly when K is unitary.  Cost O(U n^3 + U^2 n^2).
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

    units = [(L[x], L[y]) for L in map(t.layout.unit_maps, range(1, t.profile.r + 1))
             for x in range(len(L)) for y in range(len(L))]
    if ko.even:
        rep.add("gamma commutes with pi(a)", max(frob(_bracket(t.gamma, *u)) for u in units), tol)
    Kh = K.conj().T
    KhD, DK = Kh @ D, D @ K
    comm = first = 0.0
    for rows, cols in units:
        X = Kh[:, rows] @ K[cols]                            # K^dagger pi(a) K
        Y = KhD[:, rows] @ K[cols] - Kh[:, rows] @ DK[cols]  # K^dagger [D, pi(a)] K
        for q in units:  # pi(b)^T is again a unit
            comm = max(comm, frob(_bracket(X, *q)))
            first = max(first, frob(_bracket(Y, *q)))
    rep.add("commutant [pi(a), J pi(b)* J^-1] = 0", comm, tol)
    rep.add("first order [[D, pi(a)], J pi(b)* J^-1] = 0", first, tol)
    return rep


def _bracket(X, rows, cols):
    """X p - p X for the partial permutation p = sum_z e_{rows[z]} e_{cols[z]}^T."""
    out = np.zeros_like(X)
    out[:, cols] = X[:, rows]
    out[rows] -= X[cols]
    return out


# -- represent, as before the vertex-block pairs of VertexLayout.sandwich --


def represent(omega, t: RealSpectralTriple) -> np.ndarray:
    """pi_D(omega) = sum pi(a0) [D, pi(a1)] ... [D, pi(an)]."""
    if omega.profile != t.profile:
        raise ProfileMismatch("form and triple live over different profiles")
    n = t.dim
    out = np.zeros((n, n), dtype=complex)
    for term in omega.terms:
        acc = t.pi(term[0])
        for a in term[1:]:
            pa = t.pi(a)
            acc = acc @ (t.D @ pa - pa @ t.D)
        out += acc
    return out


# -- edge reading and KO detection, as before one label sum and hoisted products --


def extract_edges_pairs(profile, layout, D, edge_tol, factor_tol):
    """Edges of D, one block norm per (src, dst); blocks that do not factor raise ClassificationError."""
    drop = edge_tol * max(1.0, frob(D))
    edges = []
    for src in layout.vids:
        for dst in layout.vids:
            op = D[layout.block(dst).sl, layout.block(src).sl]
            size = frob(op)
            if size <= drop:
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
                    "first-order structure", f"D couples unrelated fibers {src} -> {dst}", size
                )
            n_i1, n_j1 = _vdim(profile, src)
            n_i2, n_j2 = _vdim(profile, dst)
            fres = _factor_residual(op, kind, (n_i1, n_j1, n_i2, n_j2))
            if fres > factor_tol * max(1.0, size):
                raise ClassificationError(
                    "first-order structure", f"edge {src}->{dst} does not factor", fres
                )
            edges.append(Edge(src, dst, kind, np.array(op)))
    return edges


def detect_ko_rows(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> set:
    """All d mod 8 whose sign row matches, with K conj(K), K conj(D), D K, ... formed per row."""
    D, K = t.D, t.K
    eye = np.eye(t.dim)
    tol_D = tol * frob(D)
    out = set()
    for d, (eps, eps_p, eps_pp) in KO_TABLE.items():
        if (eps_pp is not None) != (t.gamma is not None):
            continue
        if frob(K @ np.conj(K) - eps * eye) > tol:
            continue
        if frob(K @ np.conj(D) - eps_p * D @ K) > tol_D:
            continue
        if eps_pp is not None and frob(K @ np.conj(t.gamma) - eps_pp * t.gamma @ K) > tol:
            continue
        out.add(d)
    return out


# -- classify with three Gram-Schmidt loops and a branch per KO-dimension --


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


def _diagonal_fiber_basis(T, ell, mu, d):
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


def classify(t: RealSpectralTriple, tol: float = DEFAULT_TOL):
    """Recover a Krajewski diagram and a witness unitary W from a triple.

    realize(diagram) equals the W-conjugate of t:  D -> W* D W,
    gamma -> W* gamma W, K -> W* K conj(W).  Edges with Frobenius norm at
    most tol max(1, ||D||_F) are dropped.  The diagram is returned only if
    validate(diagram, tol) accepts it; otherwise the first failing line is
    raised at step 'diagram validation'.
    """
    layout, ko, d = t.layout, t.ko, t.ko.d
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
            vecs, svals, chis, pairing = _diagonal_fiber_basis(T, ell, mu, d)
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

    diagram = KrajewskiDiagram(t.profile, ko, vertices, jim_new, extract_edges(layout, Dp, tol))
    failed = validate(diagram, tol).failures()
    if failed:
        raise ClassificationError("diagram validation", failed[0].name, failed[0].residual)
    return diagram, W


# -- sigma and diagonalize_bases with loops over the vertices of each fiber --


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
                    u1 = lift.u.get((v1, w))
                    u2 = lift.u.get((v2, w))
                    if u1 is not None and u2 is not None:
                        acc += np.trace(u1.conj().T @ u2)
                m[p1, p2] = acc
        mats[key] = m
        for p, v in enumerate(fiber):
            if m[p, p].real <= 0.0:
                flags.append(f"phi_H^{v} not one-to-one (kappa = 0)")
    return SigmaData(fibers, mats, flags)


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
        C = np.array([_phase_fix(col) for col in V.T])
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
                u = lift.u.get((v_old, w_t))
                if u is None or c == 0.0:
                    continue
                acc = c * u if acc is None else acc + c * u
            if acc is not None and frob(acc) > 0.0:
                new_u[(v_new, w_t)] = acc

    # rotate the Dirac decorations through the block change of basis Q
    tA = realize(lift.source)
    Q = _basis_change(tA.layout, coeffs)
    new_source = _source_with_dirac(lift, Q.conj().T @ tA.D @ Q, frob(tA.D), tol,
                                    "rotated source diagram fails validation")

    out = DiagramLift(lift.arrow, new_source, lift.target, new_u, normalized=False, kappa=kappa)

    sig2 = sigma(out)
    if not sig2.is_diagonal(max(tol, 1e-9)):
        raise LiftError(f"diagonalization failed: sigma still has off-diagonal entries "
                        f"(residual {sig2.off_diagonal():.3e}, bound {max(tol, 1e-9):.3e})")
    pres = _kappa_pairing_residual(out, sig2)
    if pres > max(tol, 1e-9):
        raise LiftError(f"kappa_jim(v) != kappa_v after rotation (residual {pres:.3e})")
    return out


# -- the generators, as before one normal form for the decorations of a diagram --


def random_diagram(rng, d, profile=None, max_fiber=2, edge_prob=0.6,
                   requirements=(), ensure_edge=False) -> KrajewskiDiagram:
    """A valid random diagram in KO-dimension d.

    requirements is an iterable of (i, j, s) triples guaranteeing that the
    fiber over (n_i, n_j) contains a vertex with grading s (s None in the
    odd case).  Edge decorations are drawn blockwise in the forced factor
    form and then projected onto Hermiticity and the real-structure
    relation, so the result always validates.
    """
    ko = KOSignature.from_dim(d)
    if profile is None:
        profile = random_profile(rng)
    r = profile.r

    # requirements carry multiplicity: one entry per needed vertex
    req = {}
    for (i, j, s) in requirements:
        if i <= j:
            req.setdefault((i, j), []).append(s)
        else:
            sflip = ko.eps_pp * s if (ko.even and s is not None) else s
            req.setdefault((j, i), []).append(sflip)

    sizes = {}
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            base = int(rng.integers(0, max_fiber + 1))
            need = req.get((i, j), [])
            plus = sum(1 for s in need if s == 1)
            minus = sum(1 for s in need if s == -1)
            if i == j:
                if d in (2, 6):
                    cnt = max(base, 2 * max(plus, minus, 1 if need else 0))
                elif d == 4:
                    cnt = max(base, 2 * ((plus + 1) // 2 + (minus + 1) // 2))
                elif d in (3, 5):
                    cnt = max(base, 2 * ((len(need) + 1) // 2))
                else:
                    cnt = max(base, len(need))
                if d in (2, 3, 4, 5, 6):
                    cnt += cnt % 2
            else:
                cnt = max(base, len(need))
            sizes[(i, j)] = cnt

    if all(c == 0 for c in sizes.values()):
        sizes[(1, 1)] = 2 if d in (2, 3, 4, 5, 6) else 1

    vertices, jim = {}, {}
    for (i, j) in sorted(sizes):
        cnt = sizes[(i, j)]
        if cnt == 0:
            continue
        need = sorted((s for s in req.get((i, j), []) if s is not None), reverse=True)
        if i < j:
            if ko.even:
                s_list = list(need)
                while len(s_list) < cnt:
                    s_list.append(int(rng.choice([1, -1])))
            else:
                s_list = [None] * cnt
            for p in range(1, cnt + 1):
                s = s_list[p - 1]
                sj = ko.eps_pp * s if s is not None else None
                vertices[(i, p, j)] = Vertex(i, p, j, s=s)
                vertices[(j, p, i)] = Vertex(j, p, i, s=sj)
                jim[(i, p, j)] = (j, p, i)
                jim[(j, p, i)] = (i, p, j)
        elif d in (0, 1, 7):
            if d == 0:
                s_list = list(need)
                while len(s_list) < cnt:
                    s_list.append(int(rng.choice([1, -1])))
            else:
                s_list = [None] * cnt
            for p in range(1, cnt + 1):
                vertices[(i, p, i)] = Vertex(i, p, i, s=s_list[p - 1])
                jim[(i, p, i)] = (i, p, i)
        else:
            # paired diagonal fibers; chi = 0 on the first of each pair
            if d in (2, 6):
                pair_s = [(-1, 1)] * (cnt // 2)
            elif d == 4:
                plus = sum(1 for s in need if s == 1)
                minus = sum(1 for s in need if s == -1)
                pair_s = [(1, 1)] * ((plus + 1) // 2) + [(-1, -1)] * ((minus + 1) // 2)
                while len(pair_s) < cnt // 2:
                    sv = int(rng.choice([1, -1]))
                    pair_s.append((sv, sv))
            else:
                pair_s = [(None, None)] * (cnt // 2)
            for a in range(cnt // 2):
                s1, s2 = pair_s[a]
                v1, v2 = (i, 2 * a + 1, i), (i, 2 * a + 2, i)
                vertices[v1] = Vertex(*v1, s=s1, chi=0)
                vertices[v2] = Vertex(*v2, s=s2, chi=1)
                jim[v1], jim[v2] = v2, v1

    skeleton = KrajewskiDiagram(profile, ko, vertices, jim, [])
    t0 = realize(skeleton)
    layout = t0.layout

    def admissible_pairs():
        out = []
        for v1 in skeleton.sorted_vids():
            for v2 in skeleton.sorted_vids():
                i1, _p1, j1 = v1
                i2, _p2, j2 = v2
                if i1 != i2 and j1 != j2:
                    continue
                if ko.even and vertices[v2].s != -vertices[v1].s:
                    continue
                out.append((v1, v2))
        return out

    pairs = admissible_pairs()
    edges = []
    attempts = 0
    while True:
        attempts += 1
        D = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
        for (v1, v2) in pairs:
            if rng.random() > edge_prob:
                continue
            i1, _p1, j1 = v1
            i2, _p2, j2 = v2
            n_i1, n_j1 = profile.dim(i1), profile.dim(j1)
            n_i2, n_j2 = profile.dim(i2), profile.dim(j2)
            if i1 == i2 and j1 != j2:
                blk = np.kron(np.eye(n_i1), random_complex(rng, (n_j2, n_j1)))
            elif j1 == j2 and i1 != i2:
                blk = np.kron(random_complex(rng, (n_i2, n_i1)), np.eye(n_j1))
            else:
                # both coordinates match: first order leaves D_L (x) 1 + 1 (x) D_R
                blk = np.kron(random_complex(rng, (n_i1, n_i1)), np.eye(n_j1)) + np.kron(
                    np.eye(n_i1), random_complex(rng, (n_j1, n_j1))
                )
            D[layout.block(v2).sl, layout.block(v1).sl] = blk
        D = (D + D.conj().T) / 2
        D = (D + ko.eps_p * (t0.K @ np.conj(D) @ t0.K.conj().T)) / 2
        edges = extract_edges(layout, D, 1e-12)
        if edges or not (ensure_edge and pairs) or attempts > 20:
            break

    diag = KrajewskiDiagram(profile, ko, vertices, jim, edges)
    rep = validate(diag, 1e-9)
    if not rep.ok:
        raise RuntimeError("generator produced an invalid diagram:\n" + str(rep))
    return diag


def random_compatible_target(rng, source: KrajewskiDiagram, arrow: BratteliArrow,
                             max_fiber=2, edge_prob=0.5, ensure_edge=False) -> KrajewskiDiagram:
    """A random target diagram able to receive every source vertex.

    One target vertex is demanded per source vertex (with matching grading),
    so a lift with uniform group support can make phi_H one-to-one.
    """
    req = []
    for v in source.sorted_vids():
        i, _p, j = v
        k = next(kk for kk in range(1, arrow.target.r + 1) if arrow.mult(kk, i) > 0)
        l = next(ll for ll in range(1, arrow.target.r + 1) if arrow.mult(ll, j) > 0)
        req.append((k, l, source.vertex(v).s))
        if (k, l) == (l, k) and source.d in (0, 1, 7) and i == j:
            # jim-fixed target vertices carry a hermiticity constraint on u;
            # demand one more for the halved free dimension
            req.append((k, l, source.vertex(v).s))
    return random_diagram(
        rng, source.d, profile=arrow.target, max_fiber=max_fiber,
        edge_prob=edge_prob, requirements=req, ensure_edge=ensure_edge,
    )


def _source_groups(source: KrajewskiDiagram):
    """Source vertices grouped by fiber and grading; the Gram matrix of a
    lift is block diagonal over these groups."""
    groups = {}
    for v in source.sorted_vids():
        s = source.vertex(v).s
        groups.setdefault((v[0], v[2], s), []).append(v)
    return groups


def random_lift(rng, source: KrajewskiDiagram, arrow: BratteliArrow, target: KrajewskiDiagram) -> DiagramLift:
    """A lift respecting the grading and the real-structure relation.

    u is drawn on one representative per (jim_A, jim_B) orbit and the
    partner entry is set to (eps_A(v)/eps_B(w)) u(v,w)*; jim-fixed pairs
    are projected onto the constraint.  Support is uniform over each
    (fiber, grading) group of source vertices: each admissible target vertex
    is drawn with probability 0.7, then enough are added for the group Gram
    matrix to be generically nonsingular, so phi_H is one-to-one almost surely.
    """
    dA, dB = source.d, target.d
    groups = _source_groups(source)

    support = {}
    handled = set()
    for key in sorted(groups, key=str):
        if key in handled:
            continue
        vids = groups[key]
        v0 = vids[0]
        partner_key = next(k for k, g in groups.items() if source.jim[v0] in g)
        handled.update({key, partner_key})
        self_paired = partner_key == key
        admissible = []
        for w in target.sorted_vids():
            if arrow.mult(w[0], v0[0]) == 0 or arrow.mult(w[2], v0[2]) == 0:
                continue
            if source.ko.even and source.vertex(v0).s != target.vertex(w).s:
                continue
            admissible.append(w)
        sel = {w for w in admissible if rng.random() < 0.7}
        # conservative capacity: the jim constraint can halve the free
        # dimension when the group is its own partner
        def capacity(ws):
            c = sum(arrow.mult(w[0], v0[0]) * arrow.mult(w[2], v0[2]) for w in ws)
            return c // 2 if self_paired else c
        for w in admissible:
            if capacity(sel) >= len(vids):
                break
            sel.add(w)
        if capacity(sel) < len(vids) and not (self_paired and capacity(sel) * 2 >= len(vids)):
            if sum(arrow.mult(w[0], v0[0]) * arrow.mult(w[2], v0[2]) for w in admissible) < len(vids):
                raise RuntimeError(f"target cannot make phi_H one-to-one on group {key}")
            sel = set(admissible)
        if self_paired:
            sel |= {target.jim[w] for w in sel}
        support[key] = sorted(sel)
        support[partner_key] = sorted({target.jim[w] for w in sel})

    pairs = []
    for key, vids in sorted(groups.items(), key=lambda kv: str(kv[0])):
        for v in vids:
            for w in support[key]:
                pairs.append((v, w))

    orbit_of = {}
    for (v, w) in pairs:
        partner = (source.jim[v], target.jim[w])
        orbit_of[(v, w)] = min((v, w), partner)

    u = {}
    for (v, w) in sorted(set(orbit_of.values())):
        ratio = epsilon_factor(source.vertex(v), dA) / epsilon_factor(target.vertex(w), dB)
        m = random_complex(rng, (arrow.mult(w[0], v[0]), arrow.mult(w[2], v[2])))
        partner = (source.jim[v], target.jim[w])
        if partner == (v, w):
            m = (m + ratio * m.conj().T) / 2
            if frob(m) < 1e-9:
                # degenerate projection; add a fixed point of u -> ratio u*
                m = m + (np.eye(m.shape[0]) if ratio > 0 else 1j * np.eye(m.shape[0]))
            u[(v, w)] = m
        else:
            u[(v, w)] = m
            u[partner] = ratio * m.conj().T
    return DiagramLift(arrow, source, target, u)


# -- minimal_diagram, as before its table of jim orbits --


def minimal_diagram(d: int, t: float = 1.0) -> KrajewskiDiagram:
    """The smallest diagram over A = C in KO-dimension d whose D is nonzero."""
    profile = AlgebraProfile((1,))
    ko = KOSignature.from_dim(d)
    V = lambda p, s=None, chi=None: Vertex(1, p, 1, s=s, chi=chi)
    vid = lambda p: (1, p, 1)

    if d == 0:
        vertices = {vid(1): V(1, s=1), vid(2): V(2, s=-1)}
        jim = {vid(1): vid(1), vid(2): vid(2)}
        edges = [Edge(vid(1), vid(2), "general", [[t]])]
    elif d == 1:
        vertices = {vid(1): V(1), vid(2): V(2)}
        jim = {vid(1): vid(1), vid(2): vid(2)}
        edges = [Edge(vid(1), vid(2), "general", [[1j * t]])]
    elif d == 2:
        vertices = {
            vid(1): V(1, s=-1, chi=0), vid(2): V(2, s=1, chi=1),
            vid(3): V(3, s=-1, chi=0), vid(4): V(4, s=1, chi=1),
        }
        jim = {vid(1): vid(2), vid(2): vid(1), vid(3): vid(4), vid(4): vid(3)}
        edges = [Edge(vid(1), vid(4), "general", [[t]])]
    elif d == 3:
        vertices = {vid(1): V(1, chi=0), vid(2): V(2, chi=1)}
        jim = {vid(1): vid(2), vid(2): vid(1)}
        edges = [Edge(vid(1), vid(1), "general", [[t]])]
    elif d == 4:
        vertices = {
            vid(1): V(1, s=1, chi=0), vid(2): V(2, s=1, chi=1),
            vid(3): V(3, s=-1, chi=0), vid(4): V(4, s=-1, chi=1),
        }
        jim = {vid(1): vid(2), vid(2): vid(1), vid(3): vid(4), vid(4): vid(3)}
        edges = [Edge(vid(1), vid(3), "general", [[t]])]
    elif d == 5:
        vertices = {vid(1): V(1, chi=0), vid(2): V(2, chi=1)}
        jim = {vid(1): vid(2), vid(2): vid(1)}
        edges = [Edge(vid(1), vid(1), "general", [[t]])]
    elif d == 6:
        vertices = {vid(1): V(1, s=1, chi=0), vid(2): V(2, s=-1, chi=1)}
        jim = {vid(1): vid(2), vid(2): vid(1)}
        edges = [Edge(vid(1), vid(2), "general", [[t]])]
    elif d == 7:
        vertices = {vid(1): V(1)}
        jim = {vid(1): vid(1)}
        edges = [Edge(vid(1), vid(1), "general", [[t]])]
    else:
        raise ValueError("d must be 0..7")
    return KrajewskiDiagram(profile, ko, vertices, jim, edges)

# -- edge checks one edge at a time, and the axioms path with dense products with K --


def jim_op(diag: KrajewskiDiagram, e_src, e_dst, op) -> np.ndarray:
    """Decoration of jim(e) implied by the real-structure relation.

    Jhat conj(op) Jhat swaps the legs on both sides, a permutation of the entries.
    """
    v1, v2 = diag.vertex(e_src), diag.vertex(e_dst)
    sign = diag.ko.eps_p * epsilon_factor(v1, diag.d) * epsilon_factor(v2, diag.d)
    n_i1, n_j1 = _vdim(diag.profile, e_src)
    n_i2, n_j2 = _vdim(diag.profile, e_dst)
    swapped = np.conj(op).reshape(n_i2, n_j2, n_i1, n_j1).transpose(1, 0, 3, 2)
    return sign * swapped.reshape(n_j2 * n_i2, n_j1 * n_i1)




def complete_edges_per_edge(diag: KrajewskiDiagram, tol: float = DEFAULT_TOL):
    """Close the supplied edges under e -> ebar and e -> jim(e).

    One representative per orbit is enough; a duplicate whose residual against
    the op already there exceeds tol ||op||_F is returned as a conflict
    (key, origin, residual, bound).  Result maps (src, dst) to op.
    """
    closed = {}
    conflicts = []

    def put(src, dst, op, origin):
        key = (src, dst)
        if key in closed:
            old_op = closed[key]
            res = frob(old_op - op) if old_op.shape == op.shape else float("inf")
            if res > (bound := tol * frob(old_op)):
                conflicts.append((key, origin, res, bound))
            return False
        closed[key] = op
        return True

    pending = [(e.src, e.dst, e.op, "given") for e in diag.edges]
    while pending:
        src, dst, op, origin = pending.pop()
        if not put(src, dst, op, origin):
            continue
        pending.append((dst, src, op.conj().T, f"adjoint of ({src}->{dst})"))
        if src in diag.jim and dst in diag.jim:
            pending.append((diag.jim[src], diag.jim[dst], jim_op(diag, src, dst, op), f"jim of ({src}->{dst})"))
    return closed, conflicts




def validate_per_edge(diag, tol=DEFAULT_TOL):
    """validate's report and the orbit closure it ends with (None if not reached), one edge at a time."""
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

    for vid in diag.sorted_vids():
        w = diag.jim[vid]
        rep.add_bool(f"jim involutive at {vid}", diag.jim[w] == vid)
        i, _p, j = vid
        rep.add_bool(f"lambda o jim = rho at {vid}", (w[0], w[2]) == (j, i))
        if i == j and not paired:
            rep.add_bool(f"jim fixes diagonal vertex {vid} (d={d})", w == vid)
        v, vw = diag.vertex(vid), diag.vertex(w)
        if ko.even and v.s in (-1, 1) and vw.s in (-1, 1):
            rep.add_bool(f"s(jim(v)) = eps'' s(v) at {vid}", vw.s == ko.eps_pp * v.s)
        if v.chi in (0, 1) and vw.chi in (0, 1):
            rep.add_bool(f"chi(jim(v)) = 1 - chi(v) at {vid}", vw.chi == 1 - v.chi)

    for (i, j), fiber in sorted(diag.fibers().items()):
        if i == j and paired:
            rep.add_bool(f"diagonal fiber ({i},{i}) has even size", len(fiber) % 2 == 0)

    represented = {v[0] for v in vids}
    for i in range(1, r + 1):
        if i not in represented:
            rep.warn(f"block {i} is not represented (non-faithful layout)")

    seen_pairs = set()
    sizes = [frob(e.op) for e in diag.edges]
    largest = max(sizes, default=0.0)
    for e, size in zip(diag.edges, sizes):
        tag = f"edge {e.src}->{e.dst}"
        if e.src not in vids or e.dst not in vids:
            rep.add_bool(f"{tag} endpoints exist", False)
            continue
        if (e.src, e.dst) in seen_pairs:
            rep.add_bool(f"{tag} supplied once", False)
        seen_pairs.add((e.src, e.dst))
        n_i1, n_j1 = _vdim(diag.profile, e.src)
        n_i2, n_j2 = _vdim(diag.profile, e.dst)
        if e.op.shape != (n_i2 * n_j2, n_i1 * n_j1):
            rep.add_bool(f"{tag} op shape", False)
            continue
        rep.add_bool(f"{tag} op nonzero", size > tol * largest)
        forced = _edge_kind(e.src, e.dst)
        if forced is None:
            rep.add_bool(f"{tag} shares a row or column of the lattice", False)
            continue
        if forced not in ("general", e.kind):  # where both coordinates match, any kind is measured by its own factors
            rep.add_bool(f"{tag} must be kind={forced}", False)
        else:
            res = _factor_residual(e.op, e.kind, (n_i1, n_j1, n_i2, n_j2))
            rep.add(f"{tag} {_FACTOR_LINES[e.kind]}", res, tol * size)
        if ko.even:
            s1, s2 = diag.vertex(e.src).s, diag.vertex(e.dst).s
            rep.add_bool(f"{tag} satisfies s(v2) = -s(v1)", s1 in (-1, 1) and s2 == -s1)

    closed = None
    if rep.ok:
        closed, conflicts = complete_edges_per_edge(diag, tol)
        for (src, dst), origin, res, bound in conflicts:
            rep.add(f"edge orbit consistency at {src}->{dst} [{origin}]", res, bound)
    return rep, closed




def verify_axioms_dense(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> Report:
    """Residual norms of every real-spectral-triple axiom.

    Commutant and first-order conditions are bilinear in (a, b), so checking
    the generating matrix units of each block is exhaustive.  Both order
    conditions are measured in the frame K^dagger (.) K, which equals
    J pi(b)* J^-1 exactly when K is unitary.  X_a = K^dagger pi(a) K and
    Y_a = K^dagger [D, pi(a)] K are formed once per unit a, and their
    brackets with every unit are read off them as sums of squares
    (worst_bracket_rows): cost O(U n^2 (m + sum_k n_k)) for U = sum_k n_k^2 units
    and at most m legs per block, with no U^2 term.  Residuals linear in D
    pass below tol ||D||_F, so a triple and its rescaling get the same
    verdict, and an exact zero passes at D = 0.  The order-condition lines
    name the units behind their worst residual.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rep = Report("spectral triple axioms")
    D, K, ko = t.D, t.K, t.ko
    n = t.dim
    eye = np.eye(n)
    tol_D, DK = tol * frob(D), D @ K

    signs = [res[sign] for res, sign in zip(sign_residuals_dense(t, DK), (ko.eps, ko.eps_p, ko.eps_pp)) if sign is not None]
    rep.add("D hermitian", frob(D - D.conj().T), tol_D)
    rep.add("J antiunitary (K unitary)", frob(K.conj().T @ K - eye), tol)
    rep.add("J squared = eps", signs[0], tol)
    rep.add("JD = eps' DJ", signs[1], tol_D)

    if ko.even:
        g = t.gamma
        if g is None:
            rep.add_bool("grading present in even KO-dimension", False)
            return rep
        rep.add("gamma hermitian", frob(g - g.conj().T), tol)
        rep.add("gamma squared = 1", frob(g @ g - eye), tol)
        rep.add("gamma D + D gamma = 0", frob(g @ D + D @ g), tol_D)
        rep.add("J gamma = eps'' gamma J", signs[2], tol)
    elif t.gamma is not None:
        rep.add_bool("no grading in odd KO-dimension", False)

    frames = _unit_frames(t.layout)
    units = [(i, x, y) for i, L, _at, _labels in frames for x, y in np.ndindex(len(L), len(L))]
    if ko.even:
        rep.add("gamma commutes with pi(a)", *_line(worst_bracket_rows(t.gamma, frames), units, tol, 1.0))
    Kh = K.conj().T
    KhD = Kh @ D
    comm, first = [], []  # the squared brackets with every unit q = pi(b)^T of X_a and of Y_a, one row per unit a
    for i, L, _at, _labels in frames:
        for x, y in np.ndindex(len(L), len(L)):
            rows, cols = L[x], L[y]
            comm.append(worst_bracket_rows(Kh[:, rows] @ K[cols], frames))  # K^dagger pi(a) K
            first.append(worst_bracket_rows(KhD[:, rows] @ K[cols] - Kh[:, rows] @ DK[cols], frames))  # K^dagger [D, pi(a)] K
    rep.add("commutant [pi(a), J pi(b)* J^-1] = 0", *_line(np.array(comm), units, tol, 1.0))
    rep.add("first order [[D, pi(a)], J pi(b)* J^-1] = 0", *_line(np.array(first), units, tol, frob(D)))
    return rep




def worst_bracket_rows(X, frames):
    """||[X, q]||_F^2 for every unit q = pi(E^k_xy) of the frames, in (k, x, y) order, with
    ||X[R, R] - X[C, C]||^2 taken one row x of a frame at a time."""
    A = X.real ** 2 + X.imag ** 2
    sq = []
    for _k, L, _at, labels in frames:
        S = labels.T @ A @ labels
        np.fill_diagonal(S, 0.0)  # the blocks of one label lie on the support of q
        G = X[L[:, :, None], L[:, None, :]]  # G[x] = X[L_k[x], L_k[x]]
        same = [(abs(G - g) ** 2).sum(axis=(1, 2)) for g in G]  # ||X[R, R] - X[C, C]||^2, row x
        sq += list((S[:, :-1].sum(axis=0)[:, None] + S[:-1].sum(axis=1) + same).ravel())
    return np.array(sq)


def sign_residuals_dense(t, DK):
    """{sign: residual} for J^2 = eps, JD = eps' DJ and, with a grading, J gamma = eps'' gamma J, at both signs.

    DK = D K comes from the caller.  K conj(K), K conj(D), and K conj(gamma)
    and gamma K, are formed once, one relation at a time.
    """
    K, D, g = t.K, t.D, t.gamma

    def products():
        yield K @ np.conj(K), np.eye(t.dim)
        yield K @ np.conj(D), DK
        if g is not None:
            yield K @ np.conj(g), g @ K

    return [{sign: frob(X - sign * Y) for sign in (1, -1)} for X, Y in products()]




def detect_ko_dense(t: RealSpectralTriple, tol: float = DEFAULT_TOL) -> set:
    """All d mod 8 whose sign row matches the measured (eps, eps', eps'').

    The parity is fixed by the presence of the grading.  A vanishing D leaves
    eps' unconstrained, so several d can match; an empty set means the triple
    is inconsistent with every row.  A row matches when the three sign lines
    of verify_axioms pass: the eps' relation below tol ||D||_F, the others
    below tol.
    """
    residuals = sign_residuals_dense(t, t.D @ t.K)
    bounds = (tol, tol * frob(t.D), tol)
    return {d for d, row in KO_TABLE.items() if (row[2] is not None) == (t.gamma is not None)
            and all(res[sign] <= bound for res, sign, bound in zip(residuals, row, bounds))}


def conjugate_by_J_dense(t: RealSpectralTriple, X: np.ndarray) -> np.ndarray:
    """J X J^{-1} as a linear operator: K conj(X) K^dagger."""
    return t.K @ np.conj(X) @ t.K.conj().T


def apply_J_dense(t: RealSpectralTriple, psi: np.ndarray) -> np.ndarray:
    return t.K @ np.conj(psi)


def _entries_as_lists(obj):
    """The bundle document with every matrix's entries as a list of [re, im] lists of Python floats."""
    if isinstance(obj, np.ndarray):
        return [[float(np.real(z)), float(np.imag(z))] for z in obj.reshape(-1)]
    if isinstance(obj, dict):
        return {k: _entries_as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_entries_as_lists(v) for v in obj]
    return obj


def save_bundle_json_dump(bundle, path) -> None:
    """save_bundle through json.dump and its pure-Python encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_entries_as_lists(bundle_to_json(bundle)), fh, indent=2, sort_keys=True)
        fh.write("\n")


def matrix_from_json_per_entry(obj, where) -> np.ndarray:
    """The {rows, cols, entries} record as a complex matrix, each entry checked on its own."""
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise BundleError(f"{where}: matrix must be a {{rows, cols, entries}} record")
    rows, cols = _int(obj["rows"], f"{where}.rows"), _int(obj["cols"], f"{where}.cols")
    entries = _array(obj["entries"], f"{where}.entries")
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise BundleError(f"{where}: expected {rows} x {cols} entries, got {len(entries)}")
    for n, z in enumerate(entries):
        if type(z) is not list or len(z) != 2 or type(z[0]) not in _REAL or type(z[1]) not in _REAL:
            raise BundleError(
                f"{where}.entries[{n}]: complex scalar must be a two-element [re, im] array, got {z!r}"
            )
    try:
        m = np.array(entries, dtype=float).view(complex).reshape(rows, cols)
    except OverflowError:  # a JSON integer beyond the float range
        m = None
    if m is None or not np.isfinite(m).all():
        raise BundleError(f"{where}: matrix entries must be finite")
    return m


# -- field assembly, as before one GEMM per block pair and one buffer per field --


def sandwich(layout, pairs, X):
    """sum over (a, b) in pairs of pi(a) X pi(b): np.tensordot of T_ik with the 4-leg block X[L_i, L_k]."""
    out = np.zeros(X.shape, dtype=complex)
    if not pairs:
        return out
    legs = [(i, layout.unit_maps(i)) for i in range(1, layout.profile.r + 1)]
    legs = [(i, L) for i, L in legs if L.size]
    for i, Li in legs:
        A = np.stack([a.block(i) for a, _b in pairs])
        for k, Lk in legs:
            B = np.stack([b.block(k) for _a, b in pairs])
            at = np.ix_(Li.ravel(), Lk.ravel())
            T = np.einsum("txX,tYy->xXYy", A, B)
            blk = np.tensordot(T, X[at].reshape(Li.shape + Lk.shape), axes=([1, 2], [0, 2]))
            out[at] = blk.transpose(0, 2, 1, 3).reshape(Li.size, Lk.size)
    return out


def represent_elements(omega, t: RealSpectralTriple) -> np.ndarray:
    """pi_D(omega) from the pairs (a0, a1), (-1.0 * (a0 @ a1), 1) of AlgebraElements, through `sandwich`."""
    if omega.profile != t.profile:
        raise ProfileMismatch("form and triple live over different profiles")
    one = AlgebraElement.identity(t.profile)
    d = lambda terms: sandwich(t.layout, [p for a0, a1 in terms for p in ((a0, a1), (-1.0 * (a0 @ a1), one))], t.D)
    out = d([term for term in omega.terms if len(term) == 2])
    for term in omega.terms:
        if len(term) > 2:
            acc = d([term[:2]])
            for a in term[2:]:
                acc = acc @ d([(one, a)])
            out += acc
    return out


def hermitian_representation(omega, t: RealSpectralTriple, tol: float) -> np.ndarray:
    """represent_elements, refused unless Hermitian within tol sum ||D||_F^n ||a0||_F ... ||an||_F."""
    X, size = represent_elements(omega, t), frob(t.D)
    herm = frob(X - X.conj().T)
    norm = lambda a: float(np.sqrt(sum(frob(b) ** 2 for b in a.blocks)))
    if herm > tol * sum(size ** (len(term) - 1) * math.prod(norm(a) for a in term) for term in omega.terms):
        raise ValueError(f"pi_D(omega) is not Hermitian (residual {herm:.3e})")
    return X


def fluctuate_whole(t: RealSpectralTriple, omega, tol: float = DEFAULT_TOL) -> np.ndarray:
    """D + X + eps' J X J^-1 as one expression, four new n x n arrays."""
    X = hermitian_representation(omega, t, tol)
    return t.D + X + t.ko.eps_p * t.conjugate_by_J(X)


def from_forms_whole(t: RealSpectralTriple, vector_forms, higgs_form, tol: float = DEFAULT_TOL) -> GaugeConfiguration:
    """B_mu = X - J X J^-1 as one expression per field, and Phi = fluctuate_whole."""
    Bs = [X - t.conjugate_by_J(X) for X in (hermitian_representation(w, t, tol) for w in vector_forms)]
    return GaugeConfiguration(tuple(Bs), fluctuate_whole(t, higgs_form, tol))


def apply_phi_components(arrow: BratteliArrow, a: AlgebraElement) -> AlgebraElement:
    """phi(a) with block k the sum over i of phi_component(k, i): one m_k x m_k matrix per (k, i)."""
    blocks = [sum(phi_component(arrow, k, i, None, a.block(i)) for i in range(1, arrow.source.r + 1))
              for k in range(1, arrow.target.r + 1)]
    return AlgebraElement(arrow.target, blocks)


def hermiticity_dense(cfg: GaugeConfiguration):
    """(h, s): the largest ||X - X^dagger||_F and the largest ||X||_F over the fields, on the dense fields."""
    fields = cfg.B + (cfg.Phi,)
    return max(frob(X - X.conj().T) for X in fields), max(frob(X) for X in fields)


# -- step 5 of classify with dense products by W* --


def normal_form_residual(A, W, A0, antilinear=False):
    """||W* A W - A0||_F, or ||W* A conj(W) - A0||_F when antilinear (K, which J composes with conjugation)."""
    return frob(W.conj().T @ A @ (np.conj(W) if antilinear else W) - A0)


# -- the lift path with dense K and gamma, one scatter per pair, two block products --------------


def real_grading_check_dense(lift, tA, tB, tol=DEFAULT_TOL) -> Report:
    """real_grading_check with its J and gamma lines from compat_check on the dense K and gamma."""
    rep = Report("real structure and grading")
    res, witness = _conjugation_residual(lift)
    ubound = tol * _u_size(lift)
    rep.add("u(jim v, jim w) = (eps_A/eps_B) u(v,w)*", res, ubound, detail=f"worst at {witness}" if witness else "")
    rep.add("u(v,w) = 0 when s(v) != s(w)", _grading_residual(lift), ubound)
    sigA = (tA.ko.eps, tA.ko.eps_p, tA.ko.eps_pp)
    sigB = (tB.ko.eps, tB.ko.eps_p, tB.ko.eps_pp)
    rep.add_bool("KO signatures equal", sigA == sigB, detail=f"A={sigA} B={sigB}")
    phiH = build_phiH_per_pair(lift)
    pairs = [("J", tA.K, tB.K, True)]
    if tA.ko.even and tB.ko.even:
        pairs.append(("gamma", tA.gamma, tB.gamma, False))
    bound = tol * frob(phiH.matrix)
    for name, A, B, antilinear in pairs:
        c = compat_check_range(A, B, phiH, tol, antilinear=antilinear)
        rep.add(f"{name} data weak residual", c.weak_residual, bound)
        rep.add(f"{name} data strong block", c.b_perp_phi, bound)
    return rep


def bosonic_lagrangian_blocks(cfg: GaugeConfiguration, f: CutoffFunction, Lambda: float,
                              tol: float = DEFAULT_TOL) -> ActionReport:
    """bosonic_lagrangian with both diagonal blocks X[P, Q] Y[Q, P] and X[Q, P] Y[P, Q] of every product."""
    B, Phi = cfg.B, cfg.Phi
    if (split := _bipartition(B + (Phi,))) is None:
        *b, phi = [(X,) for X in B + (Phi,)]
        res, size = cfg.hermiticity_residual(), max(frob(X) for X in B + (Phi,))
    else:
        *b, phi = fields = [(X[np.ix_(*split)], X[np.ix_(*split[::-1])]) for X in B + (Phi,)]
        res = max(math.sqrt(2) * frob(pq - qp.conj().T) for pq, qp in fields)
        size = max(math.hypot(frob(pq), frob(qp)) for pq, qp in fields)
    if res > tol * max(1.0, size):
        raise ValueError(f"configuration is not Hermitian (residual {res:.3e})")
    products = lambda x, y: [a @ c for a, c in zip(x, y[::-1])]
    squared = lambda x, y: sum(float(np.vdot(C, C).real) for C in (P - P.conj().T for P in products(x, y)))
    Phi2 = products(phi, phi)
    trPhi2 = sum(float(np.trace(M).real) for M in Phi2)
    trPhi4 = sum(float(np.sum(M * M.T).real) for M in Phi2)
    trF2 = trDPhi2 = 0.0
    if any(x.any() for bx in b for x in bx):
        trF2 = 2 * sum(squared(b[mu], b[nu]) for nu in range(4) for mu in range(nu))
        trDPhi2 = sum(squared(x, phi) for x in b)
    f0, f2 = f.f0, f.f2
    return ActionReport([
        ActionTerm("trF2", f0 / (24 * math.pi**2) * trF2),
        ActionTerm("trPhi2", -2 * f2 * Lambda**2 / (4 * math.pi**2) * trPhi2),
        ActionTerm("trPhi4", f0 / (8 * math.pi**2) * trPhi4),
        ActionTerm("trDPhi2", f0 / (8 * math.pi**2) * trDPhi2),
    ])


def build_phiH_per_pair(lift) -> PhiHMap:
    """build_phiH with one scatter per (v, w) pair."""
    src_layout, tgt_layout, arrow = layout_of(lift.source), layout_of(lift.target), lift.arrow
    M = np.zeros((tgt_layout.total_dim, src_layout.total_dim), dtype=complex)
    for (v, w), u in lift.u.items():
        src, tgt = src_layout.legs(v), tgt_layout.legs(w)
        koff, loff = arrow.band_offset(w[0], v[0]), arrow.band_offset(w[2], v[2])
        a, b, x, y = np.indices(u.shape + src.shape, sparse=True)
        M[tgt[koff + a * src.shape[0] + x, loff + b * src.shape[1] + y], src[x, y]] += u[a, b]
    return PhiHMap(M, src_layout, tgt_layout, normalized=lift.normalized)


def pushforward_per_call(omega: UniversalOneForm, arrow: BratteliArrow) -> UniversalOneForm:
    """pushforward with apply_phi reading the band offsets on every call, and p_phi formed for every arrow."""
    unital = all(x == 0 for x in arrow.n0)
    p_phi = apply_phi(arrow, AlgebraElement.identity(arrow.source))
    out = []
    for a0, a1 in omega.terms:
        out.append((apply_phi(arrow, a0), apply_phi(arrow, a1)))
        if not unital:
            out.append((-1.0 * apply_phi(arrow, a0 @ a1), p_phi))
    return UniversalOneForm(arrow.target, tuple(out))
