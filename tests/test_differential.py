import tracemalloc

import numpy as np
import pytest

from helpers import normalized_setup

from finspec.action import GaugeConfiguration
from finspec.algebra import AlgebraElement, AlgebraProfile, frob
from finspec.differential import (
    UniversalNForm,
    UniversalOneForm,
    fluctuate,
    gauge_covariance_check,
    gauge_transform,
    pushforward,
    represent,
)
from finspec.bratteli import BratteliArrow, apply_phi
from finspec.krajewski import KrajewskiDiagram, KOSignature, Vertex, realize
from finspec.lifting import build_phiH, compat_check
from finspec.sampling import (
    random_compatible_target,
    random_diagram,
    random_element,
    random_hermitian_form,
    random_one_form,
    random_unitary_element,
    rng_from_seed,
)


def path_sum_oracle(term_elements, t):
    """Independent blockwise evaluation of pi_D through Gamma^(1) paths.

    The tensor expansion of a0 dU a1 ... dU an is walked literally: each
    dU b contributes (1 (x) b - b (x) 1), and a tensor term
    (c, (x0, ..., xn)) is summed over all vertex paths with the edge blocks
    of D between consecutive vertices.
    """
    expanded = []
    first = term_elements[0]
    expanded.append((1.0, [first]))
    for a in term_elements[1:]:
        new = []
        for coef, ts in expanded:
            new.append((coef, ts + [a]))
            new.append((-coef, ts[:-1] + [ts[-1] @ a, AlgebraElement.identity(a.profile)]))
        expanded = new

    layout = t.layout
    vids = layout.vids
    n = layout.total_dim
    out = np.zeros((n, n), dtype=complex)

    def block_of(el, vid):
        b = layout.block(vid)
        return np.kron(el.block(b.i), np.eye(b.n_j))

    def dirac_block(v_from, v_to):
        return t.D[layout.block(v_to).sl, layout.block(v_from).sl]

    for coef, ts in expanded:
        deg = len(ts) - 1
        for v_end in vids:
            for v_start in vids:
                # sum over interior vertex paths v_start -> ... -> v_end
                paths = [[v_start]]
                for _ in range(deg):
                    paths = [p + [w] for p in paths for w in vids]
                acc = np.zeros((layout.block(v_end).length, layout.block(v_start).length), dtype=complex)
                for p in paths:
                    if p[-1] != v_end:
                        continue
                    m = block_of(ts[-1], p[0]) if deg == 0 else None
                    # chain reads right-to-left: a^n on p[0], D p[0]->p[1], ...
                    m = block_of(ts[deg], p[0])
                    ok = True
                    for step in range(deg):
                        dblk = dirac_block(p[step], p[step + 1])
                        if not dblk.size:
                            ok = False
                            break
                        m = block_of(ts[deg - 1 - step], p[step + 1]) @ dblk @ m
                    if ok:
                        acc += m
                out[layout.block(v_end).sl, layout.block(v_start).sl] += coef * acc
    return out


def test_represent_zero_dirac():
    rng = rng_from_seed(0)
    prof = AlgebraProfile((1,))
    v = (1, 1, 1)
    diag = KrajewskiDiagram(prof, KOSignature.from_dim(7), {v: Vertex(1, 1, 1)}, {v: v}, [])
    t = realize(diag)
    w = random_one_form(rng, prof, 3)
    assert np.allclose(represent(w, t), 0)


def test_represent_single_commutator():
    rng = rng_from_seed(1)
    diag = random_diagram(rng, 6, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    a = random_element(rng, diag.profile)
    w = UniversalOneForm(diag.profile, ((AlgebraElement.identity(diag.profile), a),))
    pa = t.pi(a)
    assert np.allclose(represent(w, t), t.D @ pa - pa @ t.D, atol=1e-13)


def test_represent_du_unit_vanishes():
    rng = rng_from_seed(2)
    diag = random_diagram(rng, 0, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    one = AlgebraElement.identity(diag.profile)
    w = UniversalOneForm(diag.profile, ((one, one),))
    assert np.allclose(represent(w, t), 0)


@pytest.mark.parametrize("d", [1, 6])
def test_represent_matches_path_sum_oracle(d):
    rng = rng_from_seed(10 + d)
    diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    a0, a1 = random_element(rng, diag.profile), random_element(rng, diag.profile)
    w1 = UniversalOneForm(diag.profile, ((a0, a1),))
    assert frob(represent(w1, t) - path_sum_oracle([a0, a1], t)) <= 1e-11
    a2 = random_element(rng, diag.profile)
    w2 = UniversalNForm(diag.profile, ((a0, a1, a2),))
    assert frob(represent(w2, t) - path_sum_oracle([a0, a1, a2], t)) <= 1e-10


def test_one_form_terms_are_pairs():
    """A term of three elements, or of one, is refused with its index, not cut to a pair or left to IndexError; the
    terms of a valid one-form are kept as given."""
    p = AlgebraProfile((1, 2))
    one, a = AlgebraElement.identity(p), random_element(rng_from_seed(5), p)
    with pytest.raises(ValueError, match="one-form term 1 has 3 elements"):
        UniversalOneForm(p, ((one, a), (one, one, one)))
    with pytest.raises(ValueError, match="one-form term 0 has 1 elements"):
        UniversalOneForm(p, ((one,),))
    w = UniversalOneForm(p, [(one, a), [a, one]])
    assert len(w.terms) == 2 and all(x is y for term, ref in zip(w.terms, ((one, a), (a, one)))
                                     for x, y in zip(term, ref, strict=True))


def test_adjoint_matches_operator_adjoint():
    rng = rng_from_seed(20)
    diag = random_diagram(rng, 2, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    w = random_one_form(rng, diag.profile)
    assert frob(represent(w.adjoint(), t) - represent(w, t).conj().T) <= 1e-12


def test_fluctuate_examples():
    rng = rng_from_seed(30)
    diag = random_diagram(rng, 6, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    zero = UniversalOneForm.zero(diag.profile)
    assert np.allclose(fluctuate(t, zero), t.D)
    w = random_hermitian_form(rng, diag.profile)
    X = represent(w, t)
    Dw = fluctuate(t, w)
    assert np.allclose(Dw, t.D + X + t.ko.eps_p * t.conjugate_by_J(X), atol=1e-13)
    assert frob(Dw - Dw.conj().T) <= 1e-13
    # even case: gamma anticommutes with the fluctuated operator
    assert frob(t.gamma @ Dw + Dw @ t.gamma) <= 1e-12


def test_fluctuate_rejects_non_hermitian():
    rng = rng_from_seed(31)
    diag = random_diagram(rng, 6, max_fiber=2, edge_prob=0.9, ensure_edge=True)
    t = realize(diag)
    for _ in range(10):
        w = random_one_form(rng, diag.profile)
        if frob(represent(w, t) - represent(w, t).conj().T) > 1e-6:
            with pytest.raises(ValueError):
                fluctuate(t, w)
            return
    pytest.skip("no non-hermitian sample found")


def test_gauge_transform_unit_and_zero():
    rng = rng_from_seed(40)
    diag = random_diagram(rng, 0, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    w = random_hermitian_form(rng, diag.profile)
    one = AlgebraElement.identity(diag.profile)
    wu = gauge_transform(w, one)
    assert frob(represent(wu, t) - represent(w, t)) <= 1e-13
    u = random_unitary_element(rng, diag.profile)
    w0u = gauge_transform(UniversalOneForm.zero(diag.profile), u)
    pu = t.pi(u)
    assert frob(represent(w0u, t) - pu @ (t.D @ pu.conj().T - pu.conj().T @ t.D)) <= 1e-12


def test_gauge_transform_rejects_non_unitary():
    prof = AlgebraProfile((1,))
    w = UniversalOneForm.zero(prof)
    with pytest.raises(ValueError):
        gauge_transform(w, AlgebraElement(prof, [[[2.0]]]))


def test_gauge_transform_representation_identity():
    rng = rng_from_seed(41)
    diag = random_diagram(rng, 1, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    w = random_one_form(rng, diag.profile)
    u = random_unitary_element(rng, diag.profile)
    pu = t.pi(u)
    lhs = represent(gauge_transform(w, u), t)
    rhs = pu @ represent(w, t) @ pu.conj().T + pu @ (t.D @ pu.conj().T - pu.conj().T @ t.D)
    assert frob(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("d", [0, 3, 6])
def test_gauge_covariance(d):
    rng = rng_from_seed(50 + d)
    diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    one = AlgebraElement.identity(diag.profile)
    w = random_hermitian_form(rng, diag.profile)
    rep = gauge_covariance_check(t, w, one, 1e-12)
    assert rep.ok and rep.max_residual <= 1e-12
    for _ in range(3):
        u = random_unitary_element(rng, diag.profile)
        rep = gauge_covariance_check(t, w, u, 1e-11)
        assert rep.ok, str(rep)
    # omega = 0: (D)^u = D_{u dU u*}
    rep = gauge_covariance_check(t, UniversalOneForm.zero(diag.profile), u, 1e-11)
    assert rep.ok


def test_gauge_composition():
    rng = rng_from_seed(60)
    diag = random_diagram(rng, 7, max_fiber=2, edge_prob=0.8, ensure_edge=True)
    t = realize(diag)
    w = random_hermitian_form(rng, diag.profile)
    u1 = random_unitary_element(rng, diag.profile)
    u2 = random_unitary_element(rng, diag.profile)
    lhs = represent(gauge_transform(gauge_transform(w, u1), u2), t)
    rhs = represent(gauge_transform(w, u2 @ u1), t)
    assert frob(lhs - rhs) <= 1e-12


def test_pushforward_unital_and_defect():
    rng = rng_from_seed(70)
    prof = AlgebraProfile((1, 2))
    unital = BratteliArrow(prof, AlgebraProfile((3,)), ((1, 1),), (0,))
    w = random_one_form(rng, prof, 2)
    pw = pushforward(w, unital)
    assert len(pw.terms) == len(w.terms)            # no correction terms
    defect = BratteliArrow(prof, AlgebraProfile((4,)), ((1, 1),), (1,))
    a = random_element(rng, prof)
    one = AlgebraElement.identity(prof)
    w1 = UniversalOneForm(prof, ((one, a),))
    pw1 = pushforward(w1, defect)
    assert len(pw1.terms) == 2
    corr_a0, corr_a1 = pw1.terms[1]
    assert (corr_a0 + apply_phi(defect, a)).norm() <= 1e-14
    assert (corr_a1 - apply_phi(defect, one)).norm() <= 1e-14


@pytest.mark.parametrize("d", [0, 6])
def test_pushforward_weak_compatibility(d):
    # pi_D_B(phi(omega)) is weakly compatible with pi_D_A(omega) whenever
    # D_B is weakly compatible with D_A (here: D_A is the pullback of D_B)
    rng = rng_from_seed(80 + d)
    norm, tA, tB, phiH = normalized_setup(rng, d)
    assert compat_check(tA.D, tB.D, phiH, 1e-10).weak
    for _ in range(4):
        w = random_one_form(rng, norm.source.profile)
        wB = pushforward(w, norm.arrow)
        rep = compat_check(represent(w, tA), represent(wB, tB), phiH, 1e-10)
        assert rep.weak


@pytest.mark.parametrize("d", [0, 6])
def test_fluctuated_dirac_compatibility_with_lifted_unitary(d):
    # D_B^{u_B} stays weakly compatible with D_A^{u_A} for u_B = phi(u_A) + p
    rng = rng_from_seed(90 + d)
    norm, tA, tB, phiH = normalized_setup(rng, d)
    from finspec.bratteli import lift_unitary

    uA = random_unitary_element(rng, norm.source.profile)
    uB = lift_unitary(norm.arrow, uA)
    # bare gauge transform (omega = 0)
    D0A = fluctuate(tA, gauge_transform(UniversalOneForm.zero(norm.source.profile), uA), 1e-9)
    D0B = fluctuate(tB, gauge_transform(UniversalOneForm.zero(norm.arrow.target), uB), 1e-9)
    assert compat_check(D0A, D0B, phiH, 1e-10).weak
    # with a pushed-forward gauge potential on top
    wA = random_hermitian_form(rng, norm.source.profile)
    wB = pushforward(wA, norm.arrow)
    DA = fluctuate(tA, gauge_transform(wA, uA), 1e-9)
    DB = fluctuate(tB, gauge_transform(wB, uB), 1e-9)
    rep = compat_check(DA, DB, phiH, 1e-10)
    assert rep.weak, rep.weak_residual


def _peak(fn):
    """Peak traced bytes of fn() above the bytes traced at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_field_assembly_peak_memory_on_the_lift_target():
    """On an n = 288 target of the d = 6 inclusion (1, 2) -> (6, 3), alpha = ((2, 2), (1, 1)), with pushed-forward
    forms: represent and fluctuate each hold at most 3.5 complex n x n arrays at their peak (the sandwich's gather
    and product beside its output, no transposed copies), and from_forms at most 10.1 (four dense B_mu and Phi, and
    copies of them; where D splits it now keeps left factors, as test_oracles checks at n = 648)."""
    rng = rng_from_seed(27)
    src = random_diagram(rng, 6, AlgebraProfile((1, 2)), max_fiber=0, edge_prob=0.6, ensure_edge=True,
                         requirements=[(1, 1, 1), (1, 2, 1), (1, 2, -1), (2, 2, 1)])
    arrow = BratteliArrow(src.profile, AlgebraProfile((6, 3)), ((2, 2), (1, 1)), (0, 0))
    t = realize(random_compatible_target(rng, src, arrow, max_fiber=0, edge_prob=0.5, ensure_edge=True))
    assert t.dim == 288
    forms = [pushforward(random_hermitian_form(rng, src.profile, scale=0.7), arrow) for _ in range(5)]
    dense = t.dim ** 2 * 16
    assert _peak(lambda: represent(forms[0], t)) <= 3.5 * dense
    assert _peak(lambda: fluctuate(t, forms[0])) <= 3.5 * dense
    assert _peak(lambda: GaugeConfiguration.from_forms(t, forms[:4], forms[4])) <= 10.1 * dense
