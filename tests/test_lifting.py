import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    d2_mixed_chi_lift,
    d3_chi_pairs_lift,
    diagonal_sigma_lift,
    identity_lift,
    lift_chain,
    normalized_setup,
    two_point_fiber_lift,
)

from finspec.algebra import AlgebraProfile, frob, matrix_units
from finspec.bratteli import BratteliArrow, apply_phi
from finspec.catalog import minimal_diagram
from finspec.krajewski import Edge, KrajewskiDiagram, realize, validate
from finspec.lifting import (
    DiagramLift,
    LiftError,
    _conjugation_residual,
    _pullback,
    _source_with_dirac,
    build_phiH,
    compat_check,
    diagonalize_bases,
    inherit_source_dirac,
    inherited_split,
    normalize,
    real_grading_check,
    sigma,
)
from finspec.sampling import (
    random_complex,
    random_lift,
    random_strong_pair,
    random_unitary_element,
    random_vector,
    rng_from_seed,
    weaken_pair,
)


def test_build_phiH_zero_and_identity():
    lift = identity_lift()
    empty = DiagramLift(lift.arrow, lift.source, lift.target, {})
    assert np.allclose(build_phiH(empty).matrix, 0)
    assert np.allclose(build_phiH(lift).matrix, np.eye(1))


def test_build_phiH_shape_validation():
    lift = identity_lift()
    with pytest.raises(Exception):
        DiagramLift(lift.arrow, lift.source, lift.target, {((1, 1, 1), (1, 1, 1)): np.eye(2)})


@pytest.mark.parametrize("d", [0, 1, 2, 6, 7])
def test_bimodule_property(d):
    rng = rng_from_seed(1000 + d)
    src, arrow, tgt, lift = lift_chain(rng, d)
    tA, tB = realize(src), realize(tgt)
    M = build_phiH(lift).matrix
    worst = 0.0
    for a in matrix_units(src.profile):
        for b in matrix_units(src.profile):
            lhs = M @ (tA.pi(a) @ tA.right(b))
            rhs = tB.pi(apply_phi(arrow, a)) @ tB.right(apply_phi(arrow, b)) @ M
            worst = max(worst, frob(lhs - rhs))
    assert worst <= 1e-12


def test_sigma_single_entry():
    lift = identity_lift()
    v = (1, 1, 1)
    lift2 = DiagramLift(lift.arrow, lift.source, lift.target, {(v, v): [[2.0]]})
    sig = sigma(lift2)
    assert np.allclose(sig.mats[(1, 1)], [[4.0]])


def test_sigma_two_vertex_hand_value():
    a, b = 1.0 + 2.0j, -0.5 + 0.25j
    # jim-fixed d=0 vertices need hermitian scalars u; use the d-independent
    # formula check through complex entries on a d=0 background with real parts
    lift = two_point_fiber_lift(a, b)
    sig = sigma(lift)
    expected = np.array([[abs(a) ** 2, np.conj(a) * b], [np.conj(b) * a, abs(b) ** 2]])
    assert np.allclose(sig.mats[(1, 1)], expected, atol=1e-14)


def test_sigma_flags_non_injective_vertex():
    lift = two_point_fiber_lift(1.0, 0.0)
    lift = DiagramLift(lift.arrow, lift.source, lift.target,
                       {((1, 1, 1), (1, 1, 1)): [[1.0]]})  # second vertex has no data
    sig = sigma(lift)
    assert any("not one-to-one" in f for f in sig.flags)


def test_diagonalize_identity_when_already_diagonal():
    lift = diagonal_sigma_lift()
    rot = diagonalize_bases(lift, 1e-12)
    for key in lift.u:
        assert np.allclose(rot.u[key], lift.u[key])
    assert rot.kappa[(1, 1, 1)] == pytest.approx(4.0)
    assert rot.kappa[(1, 2, 1)] == pytest.approx(1.0)


def test_diagonalize_rank_deficient_two_vertex_fiber():
    # sigma = [[1,1],[1,1]]: eigenvalues (2, 0); the kernel blocks normalization
    lift = two_point_fiber_lift(1.0, 1.0)
    rot = diagonalize_bases(lift, 1e-12)
    kappas = sorted(rot.kappa.values(), reverse=True)
    assert kappas == pytest.approx([2.0, 0.0], abs=1e-12)
    assert any("not one-to-one" in f for f in sigma(rot).flags)
    with pytest.raises(LiftError, match=r"not one-to-one: kappa \S+ <= 2\.000e-10 at \["):
        normalize(rot, 1e-10)


def test_normalize_scales_u():
    lift = identity_lift()
    v = (1, 1, 1)
    lift2 = DiagramLift(lift.arrow, lift.source, lift.target, {(v, v): [[2.0]]})
    norm = normalize(lift2, 1e-12)
    assert np.allclose(norm.u[(v, v)], [[1.0]])
    # already normalized: unchanged
    again = normalize(norm, 1e-12)
    assert np.allclose(again.u[(v, v)], [[1.0]])


def test_normalize_judges_sigma_at_the_caller_tol():
    """An off-diagonal sigma of 5e-10 of the largest |sigma| passes at tol 1e-9 and is refused at tol 1e-11,
    with its residual and bound named.  Against max(tol, 1e-9) times the largest |sigma| it passed at every tol.
    """
    lift = diagonal_sigma_lift()
    u = dict(lift.u)
    u[(1, 2, 1), (1, 1, 1)] = np.array([[1e-9, 0.0], [0.0, 1.0]])
    tilted = DiagramLift(lift.arrow, lift.source, lift.target, u)
    sig = sigma(tilted)
    assert abs(sig.mats[1, 1][0, 1]) == pytest.approx(5e-10 * sig.largest)
    normalize(tilted, 1e-9)
    with pytest.raises(LiftError, match=r"sigma is not diagonal \(residual 2\.828e-09, bound 4\.000e-11\)"):
        normalize(tilted, 1e-11)


@pytest.mark.parametrize("d", [0, 1, 2, 6, 7])
def test_diagonalize_and_normalize_random(d):
    rng = rng_from_seed(2000 + d)
    for _ in range(5):
        _src, _arrow, _tgt, lift = lift_chain(rng, d)
        rot = diagonalize_bases(lift, 1e-10)
        sig = sigma(rot)
        assert sig.is_diagonal(1e-10)
        assert max(abs(rot.kappa[v] - rot.kappa[rot.source.jim[v]]) for v in rot.kappa) <= 1e-10
        norm = normalize(rot, 1e-10)
        M = build_phiH(norm).matrix
        assert frob(M.conj().T @ M - np.eye(M.shape[1])) <= 1e-12
        for _ in range(20):
            psi = random_vector(rng, M.shape[1])
            assert abs(np.linalg.norm(M @ psi) - np.linalg.norm(psi)) <= 1e-12


def test_diagonalize_refuses_d3_with_off_diagonal_sigma():
    lift = d3_chi_pairs_lift()
    assert not sigma(lift).is_diagonal(1e-10)
    with pytest.raises(LiftError, match="unsupported KO dimension"):
        diagonalize_bases(lift, 1e-10)


def test_diagonalize_refuses_mixed_chi_binding_in_d2():
    # a valid d=2 fiber whose chi decoration is not constant on each grading
    # level: the paired rotation cannot diagonalize sigma, so the call fails
    # instead of returning wrong kappa data
    lift = d2_mixed_chi_lift()
    sig = sigma(lift)
    assert not sig.is_diagonal(1e-10)
    with pytest.raises(LiftError):
        diagonalize_bases(lift, 1e-10)


def _diagonalized(lift):
    """kappa of the diagonalized lift and the normalized phi_H, or the LiftError either step raises."""
    try:
        rot = diagonalize_bases(lift, 1e-10)
        return rot.kappa, build_phiH(normalize(rot, 1e-10)).matrix
    except LiftError as exc:
        return exc


def test_lift_verdicts_do_not_depend_on_the_units_of_u():
    """The lift_chain lifts with u scaled by c get the verdict of c = 1, with kappa scaled by c^2.

    The range of the raw phi_H keeps its rank nA at every c, and the real
    structure and grading checks pass at every c: their J and gamma lines
    are judged against tol ||phi_H||_F (against the absolute tol, the J
    lines failed at c = 1e6 and 1e8 in d = 0, 1, 2 and 7).
    """
    rng = rng_from_seed(5)
    for d in (0, 1, 2, 6, 7):
        lift = lift_chain(rng, d)[3]
        ref = _diagonalized(lift)
        assert not isinstance(ref, LiftError), (d, ref)
        kappa, M = ref
        tA, tB = realize(lift.source), realize(lift.target)
        assert build_phiH(lift).range_basis.shape[1] == M.shape[1], d
        for c in (1e-8, 1e-6, 1e-4, 1e4, 1e8):
            scaled = DiagramLift(lift.arrow, lift.source, lift.target, {k: c * u for k, u in lift.u.items()})
            got = _diagonalized(scaled)
            assert not isinstance(got, LiftError), (d, c, got)
            top = max(kappa.values())
            assert all(abs(got[0][v] - c * c * k) <= 1e-9 * c * c * top for v, k in kappa.items()), (d, c)
            assert frob(got[1].conj().T @ got[1] - np.eye(M.shape[1])) <= 1e-9, (d, c)
            assert build_phiH(scaled).range_basis.shape[1] == M.shape[1], (d, c)
            rep = real_grading_check(scaled, tA, tB, 1e-10)
            assert rep.ok, (d, c, str(rep))


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e6))
def test_diagonalize_bases_judges_u_against_its_size(c):
    """A relative 1e-13 defect in the conjugation relation of u passes in every unit of u.

    Against the absolute tol, both diagonalize_bases and real_grading_check refused it at c = 1e6.
    """
    source, _arrow, target, lift = lift_chain(rng_from_seed(106), 6)
    rng = rng_from_seed(1)
    u = {k: c * (m + 1e-13 * frob(m) * random_complex(rng, m.shape)) for k, m in lift.u.items()}
    defective = DiagramLift(lift.arrow, lift.source, lift.target, u)
    largest = max(frob(m) for m in u.values())
    assert _conjugation_residual(defective)[0] > 1e-14 * largest
    assert min(diagonalize_bases(defective).kappa.values()) > 0
    rep = real_grading_check(defective, realize(source), realize(target), 1e-10)
    assert rep.ok, str(rep)


@pytest.mark.parametrize("seed, d", ((102, 2), (102, 1), (111, 2)))
def test_inherit_source_dirac_accepts_a_pullback_that_is_zero(seed, d):
    """phi_H* D_B phi_H vanishes in exact arithmetic: its rounding noise is cut against ||D_B||_F, not its own norm."""
    lift = lift_chain(rng_from_seed(seed), d)[3]
    norm = normalize(diagonalize_bases(lift, 1e-10), 1e-10)
    M, DB = build_phiH(norm).matrix, realize(lift.target).D
    assert 0 < frob(M.conj().T @ DB @ M) <= 1e-14 * frob(DB)
    inherited = inherit_source_dirac(norm, 1e-10)
    assert inherited.source.edges == [] and validate(inherited.source, 1e-10).ok


def test_source_with_dirac_validates_at_the_caller_tol():
    """A pullback whose largest block carries a relative defect of 1e-9 fails orbit consistency at tol 1e-10.

    Validated at max(tol, 1e-8), the defect passed.
    """
    norm, tA, tB, phiH = normalized_setup(rng_from_seed(5), 6)
    D, layout = _pullback(phiH.matrix, tB.D), tA.layout
    _source_with_dirac(norm, D, frob(tB.D), 1e-10, "pullback Dirac does not validate")
    _, v, w = max((frob(D[layout.block(w).sl, layout.block(v).sl]), v, w) for v in layout.vids for w in layout.vids)
    D[layout.block(w).sl, layout.block(v).sl] *= 1 + 1e-9
    with pytest.raises(LiftError, match=r"pullback Dirac does not validate:(.|\n)*FAIL\] edge orbit consistency"):
        _source_with_dirac(norm, D, frob(tB.D), 1e-10, "pullback Dirac does not validate")


def test_diagonalize_bases_realizes_the_source_at_the_caller_tol():
    """A source edge moved off its factor form by a relative 1e-8 passes validate at tol 1e-6 and fails it at 1e-10.

    diagonalize_bases at tol 1e-6 must accept it; realized at the default tol, the source was refused as invalid.
    """
    src, _arrow, _tgt, lift = lift_chain(rng_from_seed(5), 6)
    e, noise = src.edges[0], random_complex(rng_from_seed(50), src.edges[0].op.shape)
    op = e.op + 1e-8 * frob(e.op) / frob(noise) * noise
    off = KrajewskiDiagram(src.profile, src.ko, src.vertices, src.jim, [Edge(e.src, e.dst, e.kind, op)] + src.edges[1:])
    assert validate(off, 1e-6).ok and not validate(off, 1e-10).ok
    out = diagonalize_bases(replace(lift, source=off), 1e-6)
    assert out.kappa is not None and validate(out.source, 1e-6).ok


@pytest.mark.parametrize("side", ("source", "target"))
def test_a_jim_without_a_vertex_of_u_raises_lift_error(side):
    """Both readers of the u conjugation name the vertex whose jim image is missing."""
    src, _arrow, tgt, lift = lift_chain(rng_from_seed(6), 6)
    tA, tB = realize(src), realize(tgt)
    at = ("source", "target").index(side)
    v = min(vw[at] for vw in lift.u)
    sides = [src, tgt]
    sides[at] = KrajewskiDiagram(sides[at].profile, sides[at].ko, sides[at].vertices,
                                 {w: x for w, x in sides[at].jim.items() if w != v}, sides[at].edges)
    bad = DiagramLift(lift.arrow, *sides, lift.u)
    with pytest.raises(LiftError, match=re.escape(f"jim of {v} ")):
        diagonalize_bases(bad, 1e-10)
    with pytest.raises(LiftError, match=re.escape(f"jim of {v} ")):
        real_grading_check(bad, tA, tB, 1e-10)


def _self_lift(d, u=(), target=None):
    """minimal_diagram(d) lifted to itself (or to target) by the identity arrow, with u(v, v) = 2 and then u."""
    g = minimal_diagram(d)
    u = {(v, v): 2 * np.eye(1) for v in g.vertices} | {key: m * np.eye(1) for key, m in u}
    return DiagramLift(BratteliArrow(g.profile, g.profile, ((1,),), (0,)), g, target or g, u)


@pytest.mark.parametrize("d", (3, 4, 5))
def test_diagonalize_bases_keeps_a_diagonal_sigma_in_d_3_4_5(d):
    """Where jim pairs diagonal vertices of one grading, an already diagonal sigma is accepted as it is:
    kappa = |2|^2 at every source vertex."""
    assert diagonalize_bases(_self_lift(d)).kappa == {v: 4.0 for v in minimal_diagram(d).vertices}


def test_diagonalize_bases_refuses_before_rotating():
    """A u off the conjugation relation, a u across gradings, and KO-dimensions that differ are refused, each
    with its own message."""
    with pytest.raises(LiftError, match=re.escape("conjugation relation violated at ((1, 1, 1), (1, 1, 1))")):
        diagonalize_bases(_self_lift(3, [(((1, 1, 1), (1, 1, 1)), 2), (((1, 2, 1), (1, 2, 1)), 3)]))
    with pytest.raises(LiftError, match="grading not respected by u"):
        diagonalize_bases(_self_lift(0, [(((1, 1, 1), (1, 2, 1)), 1)]))
    with pytest.raises(LiftError, match="source and target KO-dimensions differ"):
        diagonalize_bases(_self_lift(0, target=minimal_diagram(4)))


def test_compat_check_strong_and_weak():
    rng = rng_from_seed(3003)
    norm, tA, tB, phiH = normalized_setup(rng, 6)
    for _ in range(5):
        A, B = random_strong_pair(rng, phiH)
        rep = compat_check(A, B, phiH, 1e-10)
        assert rep.strong and rep.weak
        Bw = weaken_pair(rng, phiH, B)
        rep2 = compat_check(A, Bw, phiH, 1e-10)
        assert rep2.weak and not rep2.strong


def test_compat_check_representation_pairs_strong():
    rng = rng_from_seed(3010)
    src, arrow, tgt, lift = lift_chain(rng, 0)
    tA, tB = realize(src), realize(tgt)
    phiH = build_phiH(lift)
    from finspec.sampling import random_element

    for _ in range(5):
        a = random_element(rng, src.profile)
        rep = compat_check(tA.pi(a), tB.pi(apply_phi(arrow, a)), phiH, 1e-10)
        assert rep.strong


def test_compat_block_construction_examples():
    rng = rng_from_seed(3020)
    norm, tA, tB, phiH = normalized_setup(rng, 0)
    M, P = phiH.matrix, phiH.projector()
    nB = M.shape[0]
    comp = np.eye(nB) - P
    A = (rng.standard_normal((M.shape[1],) * 2) + 1j * rng.standard_normal((M.shape[1],) * 2))
    C = (rng.standard_normal((nB, nB)) + 1j * rng.standard_normal((nB, nB)))
    B = M @ A @ M.conj().T + comp @ C @ comp
    assert compat_check(A, B, phiH, 1e-10).strong
    E = comp @ C @ P
    rep = compat_check(A, B + E, phiH, 1e-10)
    assert rep.weak and not rep.strong


def test_strong_compat_closed_under_composition_and_sums():
    rng = rng_from_seed(3030)
    norm, tA, tB, phiH = normalized_setup(rng, 2)
    for _ in range(5):
        A1, B1 = random_strong_pair(rng, phiH)
        A2, B2 = random_strong_pair(rng, phiH)
        assert compat_check(A1 @ A2, B1 @ B2, phiH, 1e-12).strong
        assert compat_check(A1 + A2, B1 + B2, phiH, 1e-12).strong
        # weak compatibility is stable under sums as well
        B1w = weaken_pair(rng, phiH, B1)
        B2w = weaken_pair(rng, phiH, B2)
        assert compat_check(A1 + A2, B1w + B2w, phiH, 1e-12).weak


def test_unitary_strong_pair_is_block_diagonal():
    rng = rng_from_seed(3040)
    norm, tA, tB, phiH = normalized_setup(rng, 6)
    uA = random_unitary_element(rng, norm.source.profile)
    from finspec.bratteli import lift_unitary

    uB = lift_unitary(norm.arrow, uA)
    A, B = tA.pi(uA), tB.pi(uB)
    rep = compat_check(A, B, phiH, 1e-12)
    assert rep.strong
    # adjoints stay strong, and B is diagonal in the range decomposition
    repa = compat_check(A.conj().T, B.conj().T, phiH, 1e-12)
    assert repa.strong
    assert rep.b_phi_perp <= 1e-12 and rep.b_perp_phi <= 1e-12


def test_scalar_product_invariant():
    rng = rng_from_seed(3050)
    src, arrow, tgt, lift = lift_chain(rng, 1)
    sig = sigma(lift)
    M = build_phiH(lift).matrix
    layoutA = build_phiH(lift).source_layout
    fibers = lift.source.fibers()
    for key, fiber in fibers.items():
        for p1, v1 in enumerate(fiber):
            for p2, v2 in enumerate(fiber):
                b1, b2 = layoutA.block(v1), layoutA.block(v2)
                psi = random_vector(rng, b1.length)
                psi_p = random_vector(rng, b2.length)
                lhs = np.vdot(M[:, b1.sl] @ psi, M[:, b2.sl] @ psi_p)
                rhs = np.vdot(psi, psi_p) * sig.mats[key][p1, p2]
                assert abs(lhs - rhs) <= 1e-12
    # distinct lattice points are orthogonal
    keys = sorted(fibers)
    if len(keys) > 1:
        va, vb = fibers[keys[0]][0], fibers[keys[1]][0]
        ba, bb = layoutA.block(va), layoutA.block(vb)
        g = M[:, ba.sl].conj().T @ M[:, bb.sl]
        assert frob(g) <= 1e-12


def test_isometry_preserves_inner_products_after_normalize():
    rng = rng_from_seed(3060)
    norm, tA, tB, phiH = normalized_setup(rng, 7)
    M = phiH.matrix
    for _ in range(10):
        psi, psi_p = random_vector(rng, M.shape[1]), random_vector(rng, M.shape[1])
        assert abs(np.vdot(M @ psi, M @ psi_p) - np.vdot(psi, psi_p)) <= 1e-12


@pytest.mark.parametrize("d", [0, 2, 6])
def test_real_grading_check_passes_on_constructed_lifts(d):
    rng = rng_from_seed(4000 + d)
    src, arrow, tgt, lift = lift_chain(rng, d)
    tA, tB = realize(src), realize(tgt)
    rep = real_grading_check(lift, tA, tB, 1e-10)
    assert rep.ok, str(rep)
    # the conjugation relation is equivalent to J-data strong compatibility
    assert rep["J data strong block"].passed


def test_real_grading_check_localizes_violation():
    rng = rng_from_seed(4010)
    src, arrow, tgt, lift = lift_chain(rng, 6)
    # flip the sign of one conjugate partner entry
    key = sorted(lift.u)[0]
    v, w = key
    partner = (src.jim[v], tgt.jim[w])
    u = dict(lift.u)
    if partner == key:
        u[key] = u[key] + 1.0  # breaks the hermitian fixed-point constraint unless trivial
    else:
        u[partner] = -u[partner]
    broken = DiagramLift(lift.arrow, src, tgt, u)
    tA, tB = realize(src), realize(tgt)
    rep = real_grading_check(broken, tA, tB, 1e-10)
    bad = rep["u(jim v, jim w) = (eps_A/eps_B) u(v,w)*"]
    assert not bad.passed
    assert "worst at" in bad.detail
    # the conjugation relation is equivalent to J-data strong compatibility,
    # so its violation must surface in the direct compat check as well
    jrep = compat_check(tA.K, tB.K, build_phiH(broken), 1e-10, antilinear=True)
    assert not jrep.strong


def test_real_grading_check_ko_mismatch():
    rng = rng_from_seed(4020)
    # same profiles, different even KO dimensions on each side
    from finspec.sampling import random_diagram

    src = random_diagram(rng, 0, profile=AlgebraProfile((1,)), max_fiber=2, edge_prob=0.0)
    tgt = random_diagram(rng, 4, profile=AlgebraProfile((1,)), max_fiber=2, edge_prob=0.0)
    arrow = BratteliArrow(AlgebraProfile((1,)), AlgebraProfile((1,)), ((1,),), (0,))
    pairs = {}
    for v in src.sorted_vids():
        for w in tgt.sorted_vids():
            if src.vertex(v).s == tgt.vertex(w).s:
                pairs[(v, w)] = np.eye(1)
                break
    lift = DiagramLift(arrow, src, tgt, pairs)
    rep = real_grading_check(lift, realize(src), realize(tgt), 1e-10)
    assert not rep["KO signatures equal"].passed


def test_inherited_split_examples():
    rng = rng_from_seed(5000)
    norm, tA, tB, phiH = normalized_setup(rng, 0)
    M, P = phiH.matrix, phiH.projector()
    nB = M.shape[0]
    eye = np.eye(nB)
    pull, tnic = inherited_split(eye, phiH)
    assert np.allclose(pull, np.eye(M.shape[1]), atol=1e-12)
    assert tnic[0] <= 1e-12 and tnic[1] <= 1e-12
    assert abs(tnic[2] - frob(eye - P)) <= 1e-10
    # B = phi_H A phi_H*: pullback recovers A, no complement components
    A = rng.standard_normal((M.shape[1],) * 2) + 0j
    B = M @ A @ M.conj().T
    pull, tnic = inherited_split(B, phiH)
    assert np.allclose(pull, A, atol=1e-12)
    assert max(tnic) <= 1e-12
    # strong pairs: pullback equals A, off-range blocks absent
    A2, B2 = random_strong_pair(rng, phiH)
    pull2, tnic2 = inherited_split(B2, phiH)
    assert np.allclose(pull2, A2, atol=1e-12)
    assert tnic2[0] <= 1e-12 and tnic2[1] <= 1e-12


def test_inherited_split_requires_normalized():
    rng = rng_from_seed(5010)
    src, arrow, tgt, lift = lift_chain(rng, 0)
    phiH = build_phiH(lift)
    with pytest.raises(LiftError):
        inherited_split(np.eye(phiH.matrix.shape[0]), phiH)
