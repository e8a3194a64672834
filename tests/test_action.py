import itertools
import math

import numpy as np
import pytest

from helpers import normalized_setup

from finspec.algebra import AlgebraProfile, ShapeMismatch, frob
from finspec.action import (
    ActionReport,
    _bipartition,
    _spectral_sum,
    CutoffFunction,
    GaugeConfiguration,
    bosonic_lagrangian,
    compare_actions,
    fermionic_pairing,
    spectral_action,
)
from finspec.catalog import minimal_diagram
from finspec.differential import UniversalNForm, UniversalOneForm, fluctuate, gauge_transform, pushforward, represent
from finspec.krajewski import KrajewskiDiagram, KOSignature, RealSpectralTriple, Vertex, realize
from finspec.lifting import LiftError, _pullback, build_phiH
from finspec.sampling import (
    random_compatible_fermions,
    random_diagram,
    random_even_vector,
    random_hermitian,
    random_hermitian_form,
    random_one_form,
    random_unitary_element,
    random_vector,
    rng_from_seed,
)


def loop_trace(ms):
    """Index-loop trace of a product, the oracle for the Lagrangian terms."""
    n = ms[0].shape[0]
    total = 0.0 + 0.0j
    for path in itertools.product(range(n), repeat=len(ms)):
        term = 1.0 + 0.0j
        for a in range(len(ms)):
            term *= ms[a][path[a], path[(a + 1) % len(ms)]]
        total += term
    return total


def test_cutoff_moments():
    g = CutoffFunction.gaussian()
    assert g.f0 == 1.0 and g.f2 == 0.5
    g2 = CutoffFunction.gaussian(width=2.0)
    assert g2.f2 == 2.0
    p = CutoffFunction.polynomial([0.0, 1.0], f2=0.25)   # f(x) = x^2
    assert p(3.0) == 9.0 and p.f0 == 0.0 and p.f2 == 0.25
    with pytest.raises(ValueError):
        CutoffFunction("polynomial", (1.0,), 1.0, None)


def test_spectral_action_two_eigenvalues():
    # D with spectrum {t, -t} and f(x) = x^2 gives exactly 2 t^2 / Lambda^2
    tval, lam = 0.8, 1.7
    t = realize(minimal_diagram(6, tval))
    f = CutoffFunction.polynomial([0.0, 1.0], f2=1.0)
    s = spectral_action(t, UniversalOneForm.zero(t.profile), f, lam)
    assert s == pytest.approx(2 * tval**2 / lam**2, abs=1e-12)


@pytest.mark.parametrize("lam", (0.0, -1.0, float("nan")))
def test_a_lambda_that_is_not_positive_is_refused(lam):
    """NaN fails `Lambda > 0` as well as 0 and -1 do; a test of `Lambda <= 0` let it through."""
    rng = rng_from_seed(201)
    norm, tA, tB, _ = normalized_setup(rng, 6)
    w, f = random_hermitian_form(rng, norm.source.profile), CutoffFunction.gaussian()
    with pytest.raises(ValueError, match="Lambda must be positive"):
        spectral_action(tA, w, f, lam)
    with pytest.raises(ValueError, match="Lambda must be positive"):
        compare_actions(norm, tA, tB, w, pushforward(w, norm.arrow), f, lam, tol=1e-9)


def test_configuration_fields_are_square_and_of_one_size():
    with pytest.raises(ShapeMismatch, match="square and of one size"):
        GaugeConfiguration((np.eye(2), np.eye(1), np.eye(2), np.eye(2)), np.eye(2))
    with pytest.raises(ShapeMismatch, match="square and of one size"):
        GaugeConfiguration(tuple(np.eye(2) for _ in range(4)), np.zeros((2, 3)))


def test_spectral_action_zero_dirac_counts_dimension():
    prof = AlgebraProfile((1,))
    vids = [(1, 1, 1), (1, 2, 1)]
    diag = KrajewskiDiagram(
        prof, KOSignature.from_dim(0),
        {v: Vertex(*v, s=(1 if v[1] == 1 else -1)) for v in vids},
        {v: v for v in vids}, [],
    )
    t = realize(diag)
    s = spectral_action(t, UniversalOneForm.zero(prof), CutoffFunction.gaussian(), 3.0)
    assert s == pytest.approx(t.dim)


def _vanishes_on(split, ops):
    """split partitions the indices of ops, and every op is exactly zero on P x P and Q x Q."""
    P, Q = split
    n = ops[0].shape[0]
    assert np.array_equal(np.sort(np.concatenate((P, Q))), np.arange(n))
    return all(not X[np.ix_(P, P)].any() and not X[np.ix_(Q, Q)].any() for X in ops)


@pytest.mark.parametrize("d", (0, 2, 4, 6))
def test_bipartition_of_an_even_triple(d):
    """D, the B_mu and Phi of from_forms anticommute with gamma, so their joint support is 2-coloured;
    so are gamma's own eigenspaces, and D alone."""
    rng = rng_from_seed(2300 + d)
    for _ in range(4):
        t = realize(random_diagram(rng, d, AlgebraProfile((2, 3)), max_fiber=2, edge_prob=0.7, ensure_edge=True))
        vec = [random_hermitian_form(rng, t.profile, 1) for _ in range(4)]
        cfg = GaugeConfiguration.from_forms(t, vec, random_hermitian_form(rng, t.profile))
        ops = (t.D,) + cfg.B + (cfg.Phi,)
        g = np.diag(t.gamma)
        assert np.array_equal(t.gamma, np.diag(g))
        assert _vanishes_on((np.flatnonzero(g > 0), np.flatnonzero(g < 0)), ops)
        assert (split := _bipartition(ops)) is not None and _vanishes_on(split, ops)
        assert (split := _bipartition((t.D,))) is not None and _vanishes_on(split, (t.D,))


def test_bipartition_refuses_a_diagonal_entry_and_an_odd_cycle():
    X = np.zeros((4, 4), dtype=complex)
    X[0, 1] = X[1, 0] = 1.0
    assert _bipartition((X,)) is not None
    Y = np.zeros_like(X)
    Y[3, 3] = 2.0
    assert _bipartition((X, Y)) is None
    for i, j in ((1, 2), (2, 0)):  # the cycle 0 - 1 - 2 - 0, one entry each, made symmetric by the support
        X[i, j] = 0.5j
    assert _bipartition((X,)) is None


def test_bipartition_colours_components_and_isolated_indices():
    """Two paths 0 - 1 - 4 and 3 - 5, read from two operators and one-sided entries; 2 and 6 have no entry and go to P."""
    X, Y = np.zeros((7, 7)), np.zeros((7, 7))
    X[0, 1], X[4, 1], Y[3, 5] = 1.0, -2.0, 3.0
    P, Q = _bipartition((X, Y))
    assert {2, 6} <= set(P) and _vanishes_on((P, Q), (X, Y))
    assert list(P) == [0, 2, 3, 4, 6] and list(Q) == [1, 5]


def test_spectral_sum_of_a_zero_matrix_is_n_f0():
    f = CutoffFunction.gaussian(0.7)
    P, Q = _bipartition((np.zeros((5, 5)),))
    assert list(P) == list(range(5)) and len(Q) == 0
    assert _spectral_sum(np.zeros((5, 5)), f, 2.0) == 5 * f.f0


def test_spectral_action_requires_positive_scale():
    t = realize(minimal_diagram(7, 1.0))
    with pytest.raises(ValueError):
        spectral_action(t, UniversalOneForm.zero(t.profile), CutoffFunction.gaussian(), 0.0)


def test_spectral_action_gauge_invariance():
    rng = rng_from_seed(1)
    diag = random_diagram(rng, 6, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    w = random_hermitian_form(rng, diag.profile)
    f = CutoffFunction.gaussian()
    s1 = spectral_action(t, w, f, 2.0)
    for _ in range(3):
        u = random_unitary_element(rng, diag.profile)
        s2 = spectral_action(t, gauge_transform(w, u), f, 2.0)
        assert abs(s1 - s2) <= 1e-10 * max(1.0, abs(s1))


def test_bosonic_lagrangian_diagonal_higgs():
    phi = 1.3
    cfg = GaugeConfiguration(tuple(np.zeros((2, 2)) for _ in range(4)), np.diag([phi, -phi]))
    f = CutoffFunction.gaussian()
    lam = 2.0
    rep = bosonic_lagrangian(cfg, f, lam)
    assert rep.term("trF2").full == 0.0
    assert rep.term("trPhi2").full == pytest.approx(-2 * f.f2 * lam**2 / (4 * math.pi**2) * 2 * phi**2)
    assert rep.term("trPhi4").full == pytest.approx(f.f0 / (8 * math.pi**2) * 2 * phi**4)
    assert rep.term("trDPhi2").full == 0.0


def test_bosonic_lagrangian_equal_fields_flat():
    rng = rng_from_seed(2)
    b = random_hermitian(rng, 3)
    cfg = GaugeConfiguration((b, b, b, b), np.zeros((3, 3)))
    rep = bosonic_lagrangian(cfg, CutoffFunction.gaussian(), 1.0)
    assert rep.term("trF2").full == pytest.approx(0.0, abs=1e-13)


def test_bosonic_lagrangian_matches_loop_oracle():
    rng = rng_from_seed(3)
    B = tuple(random_hermitian(rng, 2) for _ in range(4))
    Phi = random_hermitian(rng, 2)
    cfg = GaugeConfiguration(B, Phi)
    f = CutoffFunction.gaussian()
    lam = 1.5
    rep = bosonic_lagrangian(cfg, f, lam)
    trF2 = sum(
        loop_trace([1j * (B[m] @ B[n] - B[n] @ B[m])] * 2) for m in range(4) for n in range(4)
    )
    trPhi2 = loop_trace([Phi, Phi])
    trPhi4 = loop_trace([Phi] * 4)
    trD2 = sum(loop_trace([1j * (B[m] @ Phi - Phi @ B[m])] * 2) for m in range(4))
    assert abs(rep.term("trF2").full - (f.f0 / (24 * math.pi**2) * trF2).real) <= 1e-12
    assert abs(rep.term("trPhi2").full - (-2 * f.f2 * lam**2 / (4 * math.pi**2) * trPhi2).real) <= 1e-12
    assert abs(rep.term("trPhi4").full - (f.f0 / (8 * math.pi**2) * trPhi4).real) <= 1e-12
    assert abs(rep.term("trDPhi2").full - (f.f0 / (8 * math.pi**2) * trD2).real) <= 1e-12


def test_bosonic_lagrangian_rejects_non_hermitian():
    cfg_bad = GaugeConfiguration(tuple(np.zeros((2, 2)) for _ in range(4)),
                                 np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        bosonic_lagrangian(cfg_bad, CutoffFunction.gaussian(), 1.0)


def test_fermionic_pairing_hand_value():
    # d=6 pair: J psi = e2 for psi = e1, D psi' = (0, t): value t
    tval = 0.45
    t = realize(minimal_diagram(6, tval))
    zero = UniversalOneForm.zero(t.profile)
    e1 = np.array([1.0, 0.0], dtype=complex)
    val = fermionic_pairing(t, zero, e1, e1)
    assert val == pytest.approx(tval)
    assert fermionic_pairing(t, zero, e1, np.zeros(2)) == 0.0


def test_fermionic_pairing_zero_dirac():
    prof = AlgebraProfile((1,))
    v = (1, 1, 1)
    diag = KrajewskiDiagram(prof, KOSignature.from_dim(0), {v: Vertex(1, 1, 1, s=1)}, {v: v}, [])
    t = realize(diag)
    val = fermionic_pairing(t, UniversalOneForm.zero(prof), np.ones(1), np.ones(1))
    assert val == 0.0


def test_fermionic_pairing_even_subspace_required():
    """An odd vector is refused, and at tol 1e-12 so is one with an odd part of relative size 1e-10.

    Against max(tol, 1e-9) ||v|| the second passed at every tol below 1e-9.
    """
    t = realize(minimal_diagram(6, 1.0))
    zero = UniversalOneForm.zero(t.profile)
    bad = np.array([0.0, 1.0], dtype=complex)   # gamma eigenvalue -1
    with pytest.raises(ValueError):
        fermionic_pairing(t, zero, bad, bad)
    nearly = np.array([1.0, 1e-10], dtype=complex)
    fermionic_pairing(t, zero, nearly, nearly, tol=1e-9)
    with pytest.raises(ValueError, match="even subspace"):
        fermionic_pairing(t, zero, nearly, nearly, tol=1e-12)


@pytest.mark.parametrize("d", [0, 2, 6])
def test_compare_actions_pushforward(d):
    rng = rng_from_seed(100 + d)
    norm, tA, tB, phiH = normalized_setup(rng, d)
    wA = random_hermitian_form(rng, norm.source.profile)
    wB = pushforward(wA, norm.arrow)
    vecA = [random_hermitian_form(rng, norm.source.profile, 1) for _ in range(4)]
    cfg_A = GaugeConfiguration.from_forms(tA, vecA, wA)
    cfg_B = GaugeConfiguration.from_forms(tB, [pushforward(w, norm.arrow) for w in vecA], wB)
    M, P = phiH.matrix, phiH.projector()
    psi_A = random_even_vector(rng, tA)
    perp = random_vector(rng, tB.dim)
    perp -= P @ perp
    if tB.gamma is not None:
        perp = (perp + tB.gamma @ perp) / 2
    psi_B = M @ psi_A + perp
    f = CutoffFunction.gaussian()
    rep = compare_actions(norm, tA, tB, wA, wB, f, 1.5, cfgs=(cfg_A, cfg_B),
                          fermions=(psi_A, psi_B), tol=1e-9)
    for term in rep.terms:
        assert abs(term.inherited - term.a_value) <= 1e-9 * max(1.0, abs(term.a_value))
        assert abs(term.full - term.inherited - term.tnic) <= 1e-12
    assert "fermionic" in [t.name for t in rep.terms]


def test_compare_actions_tnic_vanishes_for_conjugated_fields():
    # B-side configuration supported purely on the range: TNIC = 0
    rng = rng_from_seed(200)
    norm, tA, tB, phiH = normalized_setup(rng, 0)
    M = phiH.matrix
    wA = random_hermitian_form(rng, norm.source.profile)
    cfg_A = GaugeConfiguration(
        tuple(random_hermitian(rng, tA.dim) for _ in range(4)), random_hermitian(rng, tA.dim)
    )
    cfg_B = GaugeConfiguration(
        tuple(M @ b @ M.conj().T for b in cfg_A.B), M @ cfg_A.Phi @ M.conj().T
    )
    f = CutoffFunction.gaussian()
    rep = compare_actions(norm, tA, tB, wA, pushforward(wA, norm.arrow), f, 1.0,
                          cfgs=(cfg_A, cfg_B), tol=1e-9)
    for term in rep.terms:
        assert abs(term.tnic) <= 1e-10


def test_inherited_trace_identity_on_products():
    rng = rng_from_seed(300)
    norm, tA, tB, phiH = normalized_setup(rng, 6)
    M, P = phiH.matrix, phiH.projector()
    nA, nB = M.shape[1], M.shape[0]
    comp = np.eye(nB) - P
    for n in range(1, 5):
        As, Bs = [], []
        for _ in range(n):
            A = random_vector(rng, nA * nA).reshape(nA, nA)
            B = M @ A @ M.conj().T + comp @ random_vector(rng, nB * nB).reshape(nB, nB) @ comp
            B += comp @ random_vector(rng, nB * nB).reshape(nB, nB) @ P          # weak only
            B += P @ random_vector(rng, nB * nB).reshape(nB, nB) @ comp
            As.append(A)
            Bs.append(B)
        inh = np.eye(nB)
        for B in Bs:
            inh = inh @ (P @ B @ P)
        lhs = np.trace(inh)
        rhs = np.trace(np.linalg.multi_dot(As) if n > 1 else As[0])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        # matrix-element form: <f_i, (inherited product) f_j> = <e_i, A... e_j>
        prod_a = np.linalg.multi_dot(As) if n > 1 else As[0]
        assert frob(M.conj().T @ inh @ M - prod_a) <= 1e-12 * max(1.0, frob(prod_a))


def test_compare_actions_requires_normalized_lift():
    rng = rng_from_seed(400)
    from helpers import lift_chain
    from finspec.lifting import LiftError

    src, arrow, tgt, lift = lift_chain(rng, 0)
    tA, tB = realize(src), realize(tgt)
    w = random_hermitian_form(rng, src.profile)
    with pytest.raises(LiftError):
        compare_actions(lift, tA, tB, w, pushforward(w, arrow), CutoffFunction.gaussian(), 1.0)


def _form_setup(d):
    """A random triple in KO-dimension d, a Hermitian Higgs form and four Hermitian vector forms."""
    rng = rng_from_seed(4)
    t = realize(random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True))
    w = random_hermitian_form(rng, t.profile, scale=0.7)
    return rng, t, w, [random_hermitian_form(rng, t.profile, 1, scale=0.7) for _ in range(4)]


@pytest.mark.parametrize("d", range(8))
def test_from_forms_higgs_field_is_the_fluctuated_dirac(d):
    """Phi of from_forms is fluctuate(t, higgs_form) bit for bit, so J Phi = eps' Phi J.

    Before, from_forms wrote D + X + J X J^-1 without eps', which broke the J
    relation in d = 1 and 5.  An n-form Higgs potential is refused as fluctuate refuses it.
    """
    _rng, t, w, vec = _form_setup(d)
    Phi = GaugeConfiguration.from_forms(t, vec, w).Phi
    assert np.array_equal(Phi, fluctuate(t, w))
    assert frob(t.K @ np.conj(Phi) - t.ko.eps_p * Phi @ t.K) <= 1e-12 * frob(Phi)
    with pytest.raises(TypeError):
        GaugeConfiguration.from_forms(t, vec, UniversalNForm(t.profile, w.terms))


@pytest.mark.parametrize("d", range(8))
def test_hermitian_checks_do_not_depend_on_the_units_of_D(d):
    """With D scaled by c, fluctuate and from_forms accept a Hermitian form and refuse one
    with a non-Hermitian part of relative size 1e-6, and bosonic_lagrangian accepts the
    configuration from_forms builds, at every c.

    With the absolute bound tol, the Hermitian form was refused at c = 1e5
    and the defective one passed at c = 1e-6.
    """
    rng, t, w, vec = _form_setup(d)
    v = random_one_form(rng, t.profile, 1)
    V = represent(v, t)
    rel = 1e-6 * frob(represent(w, t)) / frob((V - V.conj().T) / 2)
    bad = w + UniversalOneForm(t.profile, tuple((rel * a0, a1) for a0, a1 in v.terms))
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e5, 1e8):
        tc = RealSpectralTriple(t.profile, t.ko, t.layout, c * t.D, t.K, t.gamma)
        fluctuate(tc, w)
        bosonic_lagrangian(GaugeConfiguration.from_forms(tc, vec, w), CutoffFunction.gaussian(), 1.0)
        for call in (lambda: fluctuate(tc, bad), lambda: GaugeConfiguration.from_forms(tc, vec, bad),
                     lambda: GaugeConfiguration.from_forms(tc, [bad] + vec[1:], w)):
            with pytest.raises(ValueError, match="not Hermitian"):
                call()


FERMION_SCALES = (1e-12, 1e-9, 1e-6, 1.0, 1e3, 1e6)


def test_fermion_checks_do_not_depend_on_the_scale_of_the_vectors():
    """The evenness check refuses an odd vector and the fermion line of compare_actions a pair whose
    difference has a component in the range of phi_H, at every scale; even vectors and compatible pairs pass.
    At tol 1e-12 a range component of relative size 1e-10 is refused.

    Against max(tol, 1e-9) (1 + ||v||) both refusals turned into passes at scale 1e-12, and against
    max(tol, 1e-9) max(||psi_A||, ||psi_B||) the 1e-10 component passed at every tol below 1e-9.
    """
    t = realize(random_diagram(rng_from_seed(4), 6, max_fiber=2, edge_prob=0.7, ensure_edge=True))
    rng = rng_from_seed(41)
    v, s = random_vector(rng, t.dim), np.diag(t.gamma).real
    odd, even = np.where(s < 0, v, 0), np.where(s > 0, v, 0)
    zero = UniversalOneForm.zero(t.profile)
    for c in FERMION_SCALES:
        with pytest.raises(ValueError, match="even subspace"):
            fermionic_pairing(t, zero, c * odd, c * even)
        fermionic_pairing(t, zero, c * even, c * even)
    fermionic_pairing(t, zero, 0 * even, 0 * even)  # an exact zero is even

    norm, tA, tB, phiH = normalized_setup(rng_from_seed(5), 7)
    psi_A, psi_B = random_compatible_fermions(rng, phiH, tA, tB)
    in_range = phiH.matrix @ random_vector(rng, tA.dim)
    wA = UniversalOneForm.zero(tA.profile)
    args = (norm, tA, tB, wA, pushforward(wA, norm.arrow), CutoffFunction.gaussian(), 1.5)
    for c in FERMION_SCALES:
        compare_actions(*args, fermions=(c * psi_A, c * psi_B))
        with pytest.raises(LiftError, match="not phi-compatible"):
            compare_actions(*args, fermions=(c * psi_A, c * (psi_B + 1e-3 * in_range)))
    tiny = 1e-10 * np.linalg.norm(psi_B) / np.linalg.norm(in_range) * in_range
    compare_actions(*args, fermions=(psi_A, psi_B + tiny), tol=1e-9)
    with pytest.raises(LiftError, match="fermion pair is not phi-compatible"):
        compare_actions(*args, fermions=(psi_A, psi_B + tiny), tol=1e-12)


def test_compare_actions_refuses_operators_that_are_not_phi_compatible():
    """Target fields from forms and the source configuration pulled back through phi_H are accepted; with Phi_A
    scaled by 1.5 the pair is refused, naming the field."""
    norm, tA, tB, phiH = normalized_setup(rng_from_seed(5), 6)
    rng, M = rng_from_seed(77), phiH.matrix
    wB = random_hermitian_form(rng, tB.profile)
    cfg_B = GaugeConfiguration.from_forms(tB, [random_hermitian_form(rng, tB.profile, 1) for _ in range(4)], wB)
    cfg_A = GaugeConfiguration(tuple(_pullback(M, b) for b in cfg_B.B), _pullback(M, cfg_B.Phi))
    args = (norm, tA, tB, UniversalOneForm.zero(tA.profile), wB, CutoffFunction.gaussian(), 1.5)
    compare_actions(*args, cfgs=(cfg_A, cfg_B))
    with pytest.raises(LiftError, match="operators not phi-compatible: Phi$"):
        compare_actions(*args, cfgs=(GaugeConfiguration(cfg_A.B, 1.5 * cfg_A.Phi), cfg_B))


@pytest.mark.parametrize("seed", range(12))
def test_lagrangian_traces_are_real_parts_within_the_hermitian_bound(seed):
    """On fields that pass the Hermitian check, tr Phi^2 and tr Phi^4 are the real parts of the traces, and
    |Im tr Phi^2| <= h s and |Im tr Phi^4| <= 2 h s^3, h the largest ||X - X^dagger||_F and s the largest ||X||_F.

    Phi = (1 + i eps) H brings the first bound to equality.  A second check against max(tol, 1e-9) (1 + |tr|)
    refused such a Phi at tol 1e-6 as having a non-real trace.
    """
    rng = rng_from_seed(seed)
    n, f = 2 + seed % 5, CutoffFunction.gaussian()
    for tol in (1e-6, 1e-10):
        H = (0.5 + 3 * rng.random()) * random_hermitian(rng, n)
        A = random_hermitian(rng, n)
        for Phi in ((1 + 0.45j * tol * max(1.0, frob(H)) / frob(H)) * H,
                    H + 0.45j * tol * max(1.0, frob(H)) / frob(A) * A):
            cfg = GaugeConfiguration(tuple(np.zeros((n, n)) for _ in range(4)), Phi)
            h, s = cfg.hermiticity_residual(), frob(Phi)
            assert h <= tol * max(1.0, s)
            terms = {t.name: t.full for t in bosonic_lagrangian(cfg, f, 1.0, tol).terms}
            tr2, tr4 = np.trace(Phi @ Phi), np.trace(np.linalg.matrix_power(Phi, 4))
            assert abs(tr2.imag) <= h * s + 1e-14 * s**2
            assert abs(tr4.imag) <= 2 * h * s**3 + 1e-14 * s**4
            assert terms["trPhi2"] == pytest.approx(-2 * f.f2 / (4 * math.pi**2) * tr2.real, rel=1e-12)
            assert terms["trPhi4"] == pytest.approx(f.f0 / (8 * math.pi**2) * tr4.real, rel=1e-12)
