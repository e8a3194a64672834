"""Rewritten code paths against the versions they replaced (tests/oracles.py).

The vertex-block kernel is compared with the index loops, the action
comparison, which builds each operator once, with the one that rebuilt them,
the axioms path on index maps with the dense pi, right-action and kron
products, `verify_axioms` by sums of squares with one bracket per pair of
units, `represent` on vertex-block pairs with the dense pi products,
`extract_edges` by one label sum and `detect_ko` with hoisted products with
their pair and row loops, and the fiber bases of `classify` and the
per-fiber rotation of `sigma` and `diagonalize_bases` with their vertex
loops, the generators and `minimal_diagram` with one normal form for
the decorations with their branch per KO-dimension, `compat_check` and
`inherited_split` on the range basis of phi_H with the nB x nB projector, and
the off-diagonal block products and +-singular values of gamma-odd fields with
the dense products and `eigvalsh`, and field assembly (`sandwich`, `represent`,
`apply_phi`, `fluctuate`, `from_forms` and the Hermitian check of
`bosonic_lagrangian`) bit for bit with the tensordot, AlgebraElement,
component-sum and whole-array versions, and field assembly from D's
vertex-block left factors with that sandwich path, which every D that does
not split takes.
"""

import contextlib
import io
import itertools
import json
import re

import numpy as np
import pytest

import oracles
from helpers import fiber_unitary, hand_built_lifts, lift_chain, mix_fibers, normalized_setup

from finspec import action, differential, krajewski, lifting
from finspec.action import CutoffFunction, GaugeConfiguration, bosonic_lagrangian, compare_actions
from finspec.algebra import AlgebraElement, AlgebraProfile, VertexLayout, frob, matrix_units, right_action, unit_insert
from finspec.catalog import minimal_diagram
from finspec.differential import (
    UniversalNForm,
    UniversalOneForm,
    _sandwich_representation,
    fluctuate,
    gauge_covariance_check,
    pushforward,
    represent,
)
from finspec.krajewski import (
    ClassificationError,
    Edge,
    KrajewskiDiagram,
    RealSpectralTriple,
    _bracket_squares,
    _extract_middle_map,
    _factor_residual,
    _monomial_brackets,
    _normal_form_residual,
    _products_with,
    _real_structure,
    _splitting_residual,
    _unit_frames,
    _validate,
    classify,
    detect_ko,
    extract_edges,
    layout_of,
    realize,
    validate,
    verify_axioms,
)
from finspec.bratteli import apply_phi
from finspec.bundle import Bundle, save_bundle
from finspec.cli import main
from finspec.lifting import (
    LiftError,
    PhiHMap,
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
    random_arrow,
    random_compatible_target,
    random_complex,
    random_diagram,
    random_element,
    random_even_vector,
    random_hermitian,
    random_hermitian_form,
    random_lift,
    random_one_form,
    random_profile,
    random_strong_pair,
    random_unitary,
    random_unitary_element,
    random_vector,
    rng_from_seed,
    weaken_pair,
)


def _record_basis_changes(monkeypatch, module):
    """Record (layout, rows, result) of every _basis_change call made from module."""
    calls, real = [], module._basis_change

    def spy(layout, rows):
        calls.append((layout, rows, real(layout, rows)))
        return calls[-1][2]

    monkeypatch.setattr(module, "_basis_change", spy)
    return calls


@pytest.mark.parametrize("d", range(8))
def test_block_kernel_matches_loop_oracles(d, monkeypatch):
    rng = rng_from_seed(1300 + d)
    witnesses = _record_basis_changes(monkeypatch, krajewski)
    for _ in range(3):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        t = realize(diag)
        for v in t.layout.vids:  # legs(v)[x, y] = offset + x n_j + y, the row-major rule
            b = t.layout.block(v)
            assert np.array_equal(t.layout.legs(v), b.offset + np.arange(b.n_i)[:, None] * b.n_j + np.arange(b.n_j))
        K, gamma = oracles.real_structure(diag, t.layout)
        assert np.array_equal(t.K, K)
        assert (t.gamma is None and gamma is None) or np.array_equal(t.gamma, gamma)

        tc = mix_fibers(rng, t, diag)
        fibers = diag.fibers()
        for (i, j), fiber in fibers.items():
            cases = [(fibers[(j, i)], tc.K, True)] + ([(fiber, tc.gamma, False)] if t.ko.even else [])
            for dst, M, swap in cases:
                f, res = _extract_middle_map(tc, fiber, dst, M, swap)
                f0, res0 = oracles.extract_middle_map(tc, fiber, dst, M, swap)
                assert np.allclose(f, f0, rtol=0, atol=1e-12)
                assert abs(res - res0) <= 1e-12

        _, W = classify(tc, 1e-9)
        layout, rows, out = witnesses[-1]
        assert out is W
        bases = {}
        for fiber, m in rows.values():
            bases.setdefault((fiber[0][0], fiber[0][2]), []).append(m)
        assert np.array_equal(W, oracles.witness(tc, layout, fibers, bases))
        assert not np.array_equal(W, np.eye(t.dim))

    if d not in (0, 1, 2, 6, 7):
        return
    rotations = _record_basis_changes(monkeypatch, lifting)
    for n in range(1, 4):
        lift = lift_chain(rng, d)[3]
        norm = normalize(diagonalize_bases(lift, 1e-10), 1e-10)
        assert len(rotations) == n
        layout, coeffs, Q = rotations[-1]
        assert np.array_equal(Q, oracles.rotation(layout, coeffs))
        for lf in (lift, norm):
            assert np.array_equal(build_phiH(lf).matrix, oracles.build_phiH(lf).matrix)


def _comparison(d):
    """compare_actions inputs as in test_action, plus (cfg_A, cfg_B) and (psi_A, psi_B)."""
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
    args = (norm, tA, tB, wA, wB, CutoffFunction.gaussian(), 1.5)
    return args, (cfg_A, cfg_B), (psi_A, M @ psi_A + perp)


def _paths(d):
    """(args, cfgs, fermions) for the four cfgs x fermions paths of compare_actions."""
    args, cfgs, fermions = _comparison(d)
    return [(args, c, fm) for c, fm in itertools.product((None, cfgs), (None, fermions))]


def _close(x, y, floor=0.0):
    assert abs(x - y) <= max(1e-12 * abs(y), floor), (x, y)


def _commutator_bound(f, fields):
    """The bound of bosonic_lagrangian on its trF2 and trDPhi2 terms against the two-product values:
    8 h s^3 per squared commutator, times 12 f(0) / (24 pi^2) = 4 f(0) / (8 pi^2)."""
    h, s = max(frob(X - X.conj().T) for X in fields), max(frob(X) for X in fields)
    return 8 * h * s**3 * f.f0 / (2 * np.pi**2)


def _prefactors(f, Lambda):
    """|coefficient| of each trace in the flat Lagrangian."""
    return {"trF2": f.f0 / (24 * np.pi**2), "trPhi2": 2 * f.f2 * Lambda**2 / (4 * np.pi**2),
            "trPhi4": f.f0 / (8 * np.pi**2), "trDPhi2": f.f0 / (8 * np.pi**2)}


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_compare_actions_matches_oracle(d):
    """Values that vanish in exact arithmetic (weak residuals, <J psi, D psi> in d = 1, 2) agree up to 1e-12 of their operands.

    The commutator terms agree within bosonic_lagrangian's bound, with h and s over both
    configurations (the inherited one is their pullback by an isometry, so no larger);
    in d = 2 the B_mu are rounding noise that is not Hermitian even relative to itself.
    """
    for args, cfgs, fermions in _paths(d):
        rep = compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
        ref = oracles.compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
        DB = fluctuate(args[2], args[4])
        XB = cfgs[1].B + (cfgs[1].Phi,) if cfgs else (0 * DB,) * 4 + (DB,)
        fermionic = 1e-12 * frob(DB) * np.linalg.norm(fermions[1]) ** 2 if fermions else 0.0
        bound = _commutator_bound(args[5], [X for c in cfgs for X in c.B + (c.Phi,)]) if cfgs else 0.0
        floors = {"fermionic": fermionic, "trF2": bound, "trDPhi2": bound}
        assert [t.name for t in rep.terms] == [t.name for t in ref.terms]
        for t, t0 in zip(rep.terms, ref.terms):
            for name in ("full", "inherited", "tnic", "a_value"):  # tnic = full - inherited: twice the floor
                _close(getattr(t, name), getattr(t0, name), (2 if name == "tnic" else 1) * floors.get(t.name, 0.0))
        assert list(rep.spectral) == list(ref.spectral)
        for key, value in ref.spectral.items():
            _close(rep.spectral[key], value, fermionic if key.startswith("fermionic_") else 0.0)
        assert list(rep.compat) == list(ref.compat)
        for (key, c0), X in zip(ref.compat.items(), XB):
            for name in ("weak_residual", "b_perp_phi", "b_phi_perp"):
                _close(getattr(rep.compat[key], name), getattr(c0, name), 1e-12 * frob(X))


@pytest.mark.parametrize("n", (1, 5, 40))
def test_bosonic_lagrangian_matches_oracle(n):
    rng = rng_from_seed(1400 + n)
    f = CutoffFunction.gaussian(0.8)
    for _ in range(3):
        cfg = GaugeConfiguration(tuple(random_hermitian(rng, n) for _ in range(4)), random_hermitian(rng, n))
        rep, ref = bosonic_lagrangian(cfg, f, 1.3), oracles.bosonic_lagrangian(cfg, f, 1.3)
        assert [t.name for t in rep.terms] == [t.name for t in ref.terms]
        for t, t0 in zip(rep.terms, ref.terms):
            _close(t.full, t0.full)


@pytest.mark.parametrize("d", range(8))
def test_bosonic_lagrangian_on_hermitian_fields_matches_oracle(d):
    """from_forms fields made Hermitian as (X + X^dagger) / 2, so h = 0: one product per
    commutator agrees with the two-product oracle within max(1e-12 |y|, 1e-12 prefactor s^4)."""
    rng = rng_from_seed(1900 + d)
    f, lam = CutoffFunction.gaussian(0.8), 1.3
    prefactors, gauged = _prefactors(f, lam), 0
    for _ in range(3):
        t = realize(random_diagram(rng, d, AlgebraProfile((2, 3)), max_fiber=2, edge_prob=0.7, ensure_edge=True))
        vec = [random_hermitian_form(rng, t.profile, 1) for _ in range(4)]
        cfg = GaugeConfiguration.from_forms(t, vec, random_hermitian_form(rng, t.profile))
        fields = [(X + X.conj().T) / 2 for X in cfg.B + (cfg.Phi,)]
        s = max(frob(X) for X in fields)
        cfg = GaugeConfiguration(tuple(fields[:4]), fields[4])
        assert cfg.hermiticity_residual() == 0.0
        rep, ref = bosonic_lagrangian(cfg, f, lam), oracles.bosonic_lagrangian(cfg, f, lam)
        for term, term0 in zip(rep.terms, ref.terms):
            _close(term.full, term0.full, 1e-12 * prefactors[term.name] * s**4)
        gauged += rep.term("trF2").full > 0
    assert gauged  # some draw has B_mu that do not commute


def test_bosonic_lagrangian_keeps_its_bound_on_a_non_hermitian_field():
    """B_1 off Hermitian by delta with h = ||B_1 - B_1^dagger||_F = tol / 2, which both
    versions accept: the commutator terms move by more than rounding, and stay within
    the stated 8 h s^3 per squared commutator of the two-product values."""
    rng, tol = rng_from_seed(1950), 1e-6
    f, lam = CutoffFunction.gaussian(0.8), 1.3
    fields = [random_hermitian(rng, 12) for _ in range(5)]
    E = random_complex(rng, (12, 12))
    fields[1] = fields[1] + tol / 2 / frob(E - E.conj().T) * E
    cfg = GaugeConfiguration(tuple(fields[:4]), fields[4])
    rep, ref = bosonic_lagrangian(cfg, f, lam, tol), oracles.bosonic_lagrangian(cfg, f, lam, tol)
    bound = _commutator_bound(f, fields)
    for term, term0 in zip(rep.terms, ref.terms):
        if term.name in ("trF2", "trDPhi2"):
            assert 1e-12 * abs(term0.full) < abs(term.full - term0.full) <= bound, term.name
        else:
            _close(term.full, term0.full)


def _split_and_dense(cfg, f, lam):
    """bosonic_lagrangian and the spectral sum of Phi against the dense oracles: the commutator terms within
    bosonic_lagrangian's bound, the other values within 1e-12 relative."""
    bound = _commutator_bound(f, cfg.B + (cfg.Phi,))
    rep, ref = bosonic_lagrangian(cfg, f, lam), oracles.bosonic_lagrangian(cfg, f, lam)
    for term, term0 in zip(rep.terms, ref.terms):
        _close(term.full, term0.full, bound if term.name in ("trF2", "trDPhi2") else 0.0)
    _close(action._spectral_sum(cfg.Phi, f, lam), oracles.spectral_sum(cfg.Phi, f, lam))


@pytest.mark.parametrize("d", range(8))
def test_split_products_and_spectrum_match_dense_oracles(d):
    """from_forms fields as they come, which the off-diagonal blocks read in every even d; one entry on
    the diagonal or on a gamma-even block sends the same fields down the dense path."""
    rng = rng_from_seed(2400 + d)
    f, lam = CutoffFunction.gaussian(0.8), 1.3
    for _ in range(3):
        t = realize(random_diagram(rng, d, AlgebraProfile((2, 3)), max_fiber=2, edge_prob=0.7, ensure_edge=True))
        vec = [random_hermitian_form(rng, t.profile, 1) for _ in range(4)]
        cfg = GaugeConfiguration.from_forms(t, vec, random_hermitian_form(rng, t.profile))
        fields = cfg.B + (cfg.Phi,)
        assert t.gamma is None or action._bipartition(fields) is not None
        _split_and_dense(cfg, f, lam)
        if t.gamma is None:
            continue
        S = np.logical_or.reduce([X != 0 for X in fields])
        hubs = [k for k in range(t.dim) if np.count_nonzero(S[k] | S[:, k]) >= 2]
        pairs = [(0, 0)]  # a diagonal entry, and an entry joining two neighbours of one index: a triangle
        if hubs:
            i, j = np.flatnonzero(S[hubs[0]] | S[:, hubs[0]])[:2]
            assert t.gamma[i, i] == t.gamma[j, j]
            pairs.append((i, j))
        for i, j in pairs:
            Phi = cfg.Phi.copy()
            Phi[i, j] += 0.3 + 0.2j * (i != j)
            Phi[j, i] = np.conj(Phi[i, j])
            bent = GaugeConfiguration(cfg.B, Phi)
            assert action._bipartition(bent.B + (bent.Phi,)) is None
            _split_and_dense(bent, f, lam)


@pytest.mark.parametrize("d", (0, 2, 6))
def test_compare_actions_reads_every_configuration_on_its_blocks(d, monkeypatch):
    """In even d the target, inherited and source configurations and both D_omega are 2-coloured: five
    splits per comparison, none refused, on both the cfgs and the cfgs=None path."""
    calls, real = [], action._bipartition

    def spy(ops):
        calls.append(real(ops))
        return calls[-1]

    monkeypatch.setattr(action, "_bipartition", spy)
    for args, cfgs, fermions in _paths(d):
        calls.clear()
        compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
        assert len(calls) == 5 and all(c is not None for c in calls), (cfgs is None, calls)


def test_compare_actions_fluctuates_once_per_side(monkeypatch):
    calls, real = [], action.fluctuate

    def spy(t, omega, tol):
        calls.append(t)
        return real(t, omega, tol)

    monkeypatch.setattr(action, "fluctuate", spy)
    for args, cfgs, fermions in _paths(6):
        calls.clear()
        compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
        path = (cfgs is not None, fermions is not None)
        assert len(calls) == 2 and calls[0] is args[1] and calls[1] is args[2], (path, len(calls))


# -- the range of phi_H without a projector --------------------------------------


def _range_maps(d):
    """(phi_H, tA, tB) on the normalized map of normalized_setup and on a raw lift_chain map."""
    rng = rng_from_seed(1900 + d)
    _norm, tA, tB, phiH = normalized_setup(rng, d)
    source, _arrow, target, lift = lift_chain(rng, d)
    return rng, [(phiH, tA, tB), (build_phiH(lift), realize(source), realize(target))]


def _compat_pairs(rng, phiH, tA, tB):
    """(A, B, antilinear): strong, weakened and dense random pairs, linear and antilinear, and the (D, K) of the triples."""
    M = phiH.matrix
    nB, nA = M.shape
    comp = np.eye(nB) - oracles.projector(phiH)
    pairs = [(tA.D, tB.D, False), (tA.K, tB.K, True)]
    for antilinear in (False, True):
        if phiH.normalized and not antilinear:
            A, B = random_strong_pair(rng, phiH)
        else:  # B (conj) M = M A, and a complement block
            A = random_complex(rng, (nA, nA))
            B = M @ A @ np.linalg.pinv(np.conj(M) if antilinear else M) + comp @ random_complex(rng, (nB, nB)) @ comp
        pairs += [(A, B, antilinear), (random_complex(rng, (nA, nA)), random_complex(rng, (nB, nB)), antilinear)]
        if not antilinear:
            pairs.append((A, weaken_pair(rng, phiH, B), False))
    return pairs


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_range_basis_matches_projector_oracle(d):
    """compat_check and inherited_split against the nB x nB projector products, on residuals that do not vanish."""
    rng, maps = _range_maps(d)
    verdicts = set()
    for phiH, tA, tB in maps:
        for A, B, antilinear in _compat_pairs(rng, phiH, tA, tB):
            floor = 1e-12 * frob(B)
            rep = compat_check(A, B, phiH, 1e-10, antilinear=antilinear)
            ref = oracles.compat_check_projector(A, B, phiH, 1e-10, antilinear=antilinear)
            for name in ("weak_residual", "b_perp_phi", "b_phi_perp"):
                _close(getattr(rep, name), getattr(ref, name), floor)
            assert (rep.weak, rep.strong) == (ref.weak, ref.strong), (phiH.normalized, antilinear)
            verdicts.add((rep.weak, rep.strong))
            if phiH.normalized and not antilinear:
                (pull, tnic), (pull0, tnic0) = inherited_split(B, phiH), oracles.inherited_split(B, phiH)
                assert np.array_equal(pull, pull0)
                for x, x0 in zip(tnic, tnic0):
                    _close(x, x0, floor)
    assert verdicts == {(True, True), (True, False), (False, False)}, verdicts


def test_lift_path_forms_no_projector(monkeypatch, tmp_path):
    rng = rng_from_seed(1950)
    source, arrow, target, lift = lift_chain(rng, 6)
    tA, tB = realize(source), realize(target)
    _norm, tAn, tBn, phiH = normalized_setup(rng, 6)
    paths = _paths(6)
    step = inherit_source_dirac(normalize(diagonalize_bases(lift, 1e-10), 1e-10), 1e-10)
    bundle = Bundle()
    bundle.diagrams.update(step_source=step.source, step_target=target)
    bundle.arrows["step_arrow"] = arrow
    bundle.lifts["step"] = step
    bundle.forms["w"] = random_hermitian_form(rng, source.profile)
    save_bundle(bundle, tmp_path / "bundle.json")

    def forbidden(*args, **kwargs):
        raise AssertionError("the lift path formed the range projector")

    monkeypatch.setattr(PhiHMap, "projector", forbidden)
    assert real_grading_check(lift, tA, tB, 1e-10).ok
    for phi, a, b in ((build_phiH(lift), tA, tB), (phiH, tAn, tBn)):
        compat_check(a.D, b.D, phi)
        assert compat_check(a.K, b.K, phi, antilinear=True).strong
        weaken_pair(rng, phi, b.D)
    inherited_split(tBn.D, phiH)
    random_strong_pair(rng, phiH)
    for args, cfgs, fermions in paths:
        compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["--format", "json", "compare", str(tmp_path / "bundle.json"), "--lift", "step", "--form-a", "w",
                "--with-fermions"]
        assert main(argv) == 0
    assert "fermionic_inherited" in json.loads(out.getvalue())["spectral"]


# -- the axioms path on index maps ---------------------------------------------


def _close_to(x, x0, floor):
    return abs(x - x0) <= max(1e-12 * x0, floor)


def _axiom_forms(rng, t):
    """t as realized, conjugated by a dense random unitary, and perturbed.

    The perturbed form adds Hermitian noise of the size of the entries to D
    and gamma and rotates K by a random unitary, so K stays unitary but
    every axiom line has a residual of order one.
    """
    n = t.dim
    U = random_unitary(rng, n)
    conj = lambda X: None if X is None else U.conj().T @ X @ U
    noise = lambda X: None if X is None else X + 0.5 * random_hermitian(rng, n)
    return [
        t,
        RealSpectralTriple(t.profile, t.ko, t.layout, conj(t.D), U.conj().T @ t.K @ np.conj(U), conj(t.gamma)),
        RealSpectralTriple(t.profile, t.ko, t.layout, noise(t.D), t.K @ random_unitary(rng, n), noise(t.gamma)),
    ]


def _oracle_triples(d):
    """(diagram, its three _axiom_forms) for four seeded diagrams in KO-dimension d."""
    rng = rng_from_seed(1500 + d)
    for _ in range(4):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        yield diag, _axiom_forms(rng, realize(diag))


@pytest.mark.parametrize("d", range(8))
def test_axioms_path_matches_dense_oracles(d):
    verdicts = set()
    for diag, forms in _oracle_triples(d):
        for t in forms:
            rep, pairs = verify_axioms(t), oracles.verify_axioms_pairs(t)
            floor = 1e-12 * max(1.0, frob(t.D))
            for ref in (oracles.verify_axioms(t), pairs):
                assert [c.name for c in rep.checks] == [c.name for c in ref.checks]
                for c, c0 in zip(rep.checks, ref.checks):
                    assert c.passed == c0.passed, c.name
                    assert _close_to(c.residual, c0.residual, floor), (c.name, c.residual, c0.residual)
            for c, c0 in zip(rep.checks, pairs.checks):  # the pair loop forms each bracket entry as ours does
                assert (c.residual == 0.0) == (c0.residual == 0.0), (c.name, c.residual, c0.residual)
            verdicts.add(rep.ok)
            for (i, j), fiber in diag.fibers().items():
                res, res0 = _splitting_residual(t, i, j, fiber), oracles.splitting_residual(t, i, j, fiber)
                assert _close_to(res, res0, 1e-12), ((i, j), res, res0)
    assert verdicts == {True, False}


def _read_edges(reader, *args):
    try:
        return reader(*args)
    except ClassificationError as exc:
        return exc


@pytest.mark.parametrize("d", range(8))
def test_extract_edges_matches_pair_loop_oracle(d):
    """D and W* D W of the oracle triples and of a fiber-mixed one, W from classify where it succeeds."""
    rng = rng_from_seed(1550 + d)
    lists = 0
    for diag, forms in _oracle_triples(d):
        for t in forms + [mix_fibers(rng, forms[0], diag)]:
            Ds = [t.D]
            try:
                W = classify(t)[1]
                Ds.append(W.conj().T @ t.D @ W)
            except ClassificationError:
                pass
            for D in Ds:
                new = _read_edges(extract_edges, t.layout, D, 1e-10)
                old = _read_edges(oracles.extract_edges_pairs, t.profile, t.layout, D, 1e-10, 1e-8)
                if isinstance(old, ClassificationError):
                    if "does not factor" not in str(old):  # a block that does not factor is for validate to judge
                        assert isinstance(new, ClassificationError) and new.step == old.step
                        assert str(new).split(" (residual")[0] == str(old).split(" (residual")[0]
                        assert _close_to(new.residual, old.residual, 0.0)
                    continue
                assert [(e.src, e.dst, e.kind) for e in new] == [(e.src, e.dst, e.kind) for e in old]
                assert all(np.array_equal(e.op, e0.op) for e, e0 in zip(new, old))
                lists += bool(old)
    assert lists >= 8


@pytest.mark.parametrize("d", range(8))
def test_detect_ko_matches_row_loop_oracle(d):
    rng = rng_from_seed(1560 + d)
    verdicts = set()
    for _diag, forms in _oracle_triples(d):
        for t in forms:
            n = t.dim
            nudge = lambda X: None if X is None else X + 1e-9 * random_hermitian(rng, n)
            K = t.K + 1e-9 * random_complex(rng, (n, n))
            for tc in (t, RealSpectralTriple(t.profile, t.ko, t.layout, nudge(t.D), K, nudge(t.gamma)),
                       RealSpectralTriple(t.profile, t.ko, t.layout, 0 * t.D, K, t.gamma)):
                for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1.0):
                    found = detect_ko(tc, tol)
                    assert found == oracles.detect_ko_rows(tc, tol), tol
                    verdicts.add(frozenset(found))
    assert frozenset() in verdicts and len(verdicts) >= 2


@pytest.mark.parametrize("d", range(8))
def test_detect_ko_agrees_with_the_sign_lines_of_verify_axioms(d):
    """t.ko.d is detected exactly when the 'J squared', 'JD' and, in even d, 'J gamma' lines pass.

    Besides each form, K, D and gamma nudged by 1e-9 and D scaled by 1e3, as in the row loop test.
    """
    rng = rng_from_seed(1570 + d)
    names = ("J squared = eps", "JD = eps' DJ") + (("J gamma = eps'' gamma J",) if d % 2 == 0 else ())
    verdicts = set()
    for _diag, forms in _oracle_triples(d):
        for t in forms:
            n = t.dim
            nudge = lambda X: None if X is None else X + 1e-9 * random_hermitian(rng, n)
            K = t.K + 1e-9 * random_complex(rng, (n, n))
            for tc, tol in itertools.product(
                    (t, RealSpectralTriple(t.profile, t.ko, t.layout, nudge(t.D), K, nudge(t.gamma)),
                     RealSpectralTriple(t.profile, t.ko, t.layout, 1e3 * nudge(t.D), K, t.gamma)),
                    (1e-12, 1e-10, 1e-8, 1e-6, 1.0)):
                rep = verify_axioms(tc, tol)
                passed = all(rep[name].passed for name in names)
                assert (d in detect_ko(tc, tol)) == passed, (tol, [rep[name].residual for name in names])
                verdicts.add(passed)
    assert verdicts == {True, False}


def test_factor_residual_matches_kron_oracle():
    """Each kind on the dims _edge_kind gives it: right where n_i agrees, left where n_j does, general where both do."""
    rng = rng_from_seed(1600)
    exact = 0
    for kind in ("left", "right", "general"):
        for dims in itertools.product(range(1, 4), repeat=4):
            n_i1, n_j1, n_i2, n_j2 = dims
            if (kind != "left" and n_i1 != n_i2) or (kind != "right" and n_j1 != n_j2):
                continue
            ops = [random_complex(rng, (n_i2 * n_j2, n_i1 * n_j1))]
            L, R = random_complex(rng, (n_i2, n_i1)), random_complex(rng, (n_j2, n_j1))
            if kind != "left":
                ops.append(np.kron(np.eye(n_i1), R))
            if kind != "right":
                ops.append(np.kron(L, np.eye(n_j1)))
            if kind == "general":
                ops.append(np.kron(L, np.eye(n_j1)) + np.kron(np.eye(n_i1), R))
            for op in ops:
                res, res0 = _factor_residual(op, kind, dims), oracles._factor_residual(op, kind, dims)
                assert _close_to(res, res0, 1e-12 * max(1.0, frob(op))), (kind, dims, res, res0)
                exact += res0 < 1e-12
    assert exact > 20


def test_unit_maps_are_the_matrix_units():
    rng = rng_from_seed(1650)
    layout = realize(random_diagram(rng, 6, profile=AlgebraProfile((1, 2, 3)), max_fiber=2)).layout
    n = layout.total_dim
    X = random_complex(rng, (n, n))
    units = iter(matrix_units(layout.profile))
    for i, n_i in enumerate(layout.profile.dims, start=1):
        L = layout.unit_maps(i)
        mask = np.zeros((n, n))
        mask[L.ravel(), L.ravel()] = 1.0
        assert np.array_equal(mask, layout.pi(unit_insert(layout.profile, i, np.eye(n_i))))
        for x, y in itertools.product(range(n_i), repeat=2):
            p = np.zeros((n, n))
            p[L[x], L[y]] = 1.0
            assert np.array_equal(p, layout.pi(next(units)))
            assert np.array_equal(oracles._bracket(X, L[x], L[y]), X @ p - p @ X)


def test_verify_axioms_norms_do_not_grow_with_the_units(monkeypatch):
    calls, real = [], krajewski.frob
    monkeypatch.setattr(krajewski, "frob", lambda m: calls.append(m.shape) or real(m))
    counts = {}
    for dims in ((1,), (2, 2), (1, 2, 3)):
        for d in (6, 7):
            t = realize(random_diagram(rng_from_seed(2700), d, AlgebraProfile(dims), max_fiber=2,
                                       edge_prob=0.7, ensure_edge=True))
            calls.clear()
            verify_axioms(t)
            counts.setdefault(d, set()).add(len(calls))
    assert all(len(c) == 1 for c in counts.values()), counts


def test_axioms_path_builds_no_dense_representation(monkeypatch):
    diag = random_diagram(rng_from_seed(1700), 6, profile=AlgebraProfile((1, 2, 2)), max_fiber=2,
                          edge_prob=0.7, ensure_edge=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("the axioms path built a dense representation")

    for owner, name in ((VertexLayout, "pi"), (RealSpectralTriple, "right"), (np, "kron")):
        monkeypatch.setattr(owner, name, forbidden)
    t = realize(diag)
    assert validate(diag).ok
    assert verify_axioms(t).ok
    assert 6 in detect_ko(t)
    reclassified, _W = classify(t)
    assert reclassified.edges and validate(reclassified).ok


def test_fiber_reads_of_classify_place_no_operator(monkeypatch):
    diag = random_diagram(rng_from_seed(1710), 6, profile=AlgebraProfile((1, 2)), max_fiber=2,
                          edge_prob=0.7, ensure_edge=True)
    t = realize(diag)

    def forbidden(*args, **kwargs):
        raise AssertionError("a fiber read built an n x n placement")

    monkeypatch.setattr(VertexLayout, "place", forbidden)
    fibers = diag.fibers()
    for (i, j), fiber in fibers.items():
        assert _splitting_residual(t, i, j, fiber) < 1e-12
        assert _extract_middle_map(t, fiber, fibers[(j, i)], t.K, True)[1] < 1e-12
        assert _extract_middle_map(t, fiber, fiber, t.gamma, False)[1] < 1e-12


# -- fiber bases of classify and the per-fiber rotation of diagonalize_bases -----


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ClassificationError, LiftError) as exc:
        return exc


@pytest.mark.parametrize("d", range(8))
def test_classify_matches_gram_schmidt_oracle(d):
    """Bit-identical W, decorations, jim and edges on the oracle triples and a fiber-mixed form of each."""
    rng = rng_from_seed(1720 + d)
    returned = 0
    for diag, forms in _oracle_triples(d):
        for t in forms + [mix_fibers(rng, forms[0], diag)]:
            new, old = _outcome(classify, t), _outcome(oracles.classify, t)
            if isinstance(old, ClassificationError):
                assert isinstance(new, ClassificationError) and new.step == old.step, (new, old)
                continue
            assert not isinstance(new, ClassificationError), new
            (found, W), (found0, W0) = new, old
            assert np.array_equal(W, W0)
            decorations = lambda g: {vid: (v.s, v.chi) for vid, v in g.vertices.items()}
            assert decorations(found) == decorations(found0)
            assert found.jim == found0.jim
            assert [(e.src, e.dst, e.kind) for e in found.edges] == [(e.src, e.dst, e.kind) for e in found0.edges]
            assert all(np.array_equal(e.op, e0.op) for e, e0 in zip(found.edges, found0.edges))
            returned += 1
    assert returned >= 8


def _close_lifts(lift, lift0):
    """u within 1e-12 relative per block, kappa against the largest kappa, the rotated source D against ||D||_F."""
    assert sorted(lift.u) == sorted(lift0.u)
    for key, u0 in lift0.u.items():
        assert frob(lift.u[key] - u0) <= 1e-12 * frob(u0), key
    assert lift.kappa.keys() == lift0.kappa.keys()
    scale = max(lift0.kappa.values())
    assert all(abs(lift.kappa[v] - k0) <= 1e-12 * scale for v, k0 in lift0.kappa.items())
    D, D0 = realize(lift.source).D, realize(lift0.source).D
    assert frob(D - D0) <= 1e-12 * max(1.0, frob(D0))


@pytest.mark.parametrize("d", range(8))
def test_normal_form_residuals_match_the_dense_oracle(d):
    """Step 5 of classify: ||K conj(V) - V K0||_F and ||gamma V - V gamma0||_F against the dense
    ||V* K conj(V) - K0||_F and ||V* gamma V - gamma0||_F, within 1e-12 of ||K||_F (||gamma||_F), for V = W from
    classify (residuals near 0) and V = W times a random fiber unitary (residuals of order one), on realized and
    fiber-mixed (dense K) triples."""
    rng = rng_from_seed(1740 + d)
    compared = 0
    for diag, forms in _oracle_triples(d):
        for t in (forms[0], mix_fibers(rng, forms[0], diag)):
            found, W = classify(t)
            K0, gamma0 = _real_structure(t.layout, found.vertices, found.jim, d, t.ko.even)
            for V in (W, W @ fiber_unitary(rng, t.layout, diag)):
                res = _normal_form_residual(t._K_products()[1](np.conj(V)), V, K0)
                assert abs(res - oracles.normal_form_residual(t.K, V, K0, antilinear=True)) <= 1e-12 * frob(t.K)
                if t.gamma is not None:
                    res = _normal_form_residual(_products_with(t.gamma)[1](V), V, gamma0)
                    assert abs(res - oracles.normal_form_residual(t.gamma, V, gamma0)) <= 1e-12 * frob(t.gamma)
                compared += 1
    assert compared >= 16


def test_lift_matches_vertex_loop_oracle():
    """sigma and diagonalize_bases on lift_chain lifts in d = 0, 1, 2, 6, 7 and on the hand-built lifts."""
    rng = rng_from_seed(1760)
    lifts = [lift_chain(rng, d)[3] for d in (0, 1, 2, 6, 7) for _ in range(4)] + hand_built_lifts()
    refused = set()
    for lift in lifts:
        sig, sig0 = sigma(lift), oracles.sigma(lift)
        assert list(sig.mats) == list(sig0.mats) and sig.flags == sig0.flags
        for key, m0 in sig0.mats.items():
            assert np.abs(sig.mats[key] - m0).max() <= 1e-12 * max(1.0, np.abs(m0).max()), key
        new, old = _outcome(diagonalize_bases, lift, 1e-10), _outcome(oracles.diagonalize_bases, lift, 1e-10)
        if isinstance(old, LiftError):  # the oracle's absolute bounds are not the library's relative ones
            unbound = lambda e: re.sub(r", bound [^)]*", "", str(e))
            assert isinstance(new, LiftError) and unbound(new) == unbound(old)
            refused.add(str(old).split(" ")[0])
            continue
        assert not isinstance(new, LiftError), new
        _close_lifts(new, old)
    assert len(refused) >= 2, refused


# -- represent on vertex-block pairs ---------------------------------------------


def _forms(rng, profile):
    """Forms of degree 1, 2 and 3, a mixed-degree n-form and both empty forms."""
    el = lambda: random_element(rng, profile)
    return [
        random_one_form(rng, profile, 3),
        random_hermitian_form(rng, profile),
        UniversalNForm(profile, ((el(), el()),)),
        UniversalNForm(profile, ((el(), el(), el()), (el(), el(), el()))),
        UniversalNForm(profile, ((el(), el(), el(), el()),)),
        UniversalNForm(profile, ((el(), el()), (el(), el(), el()), (el(), el(), el(), el()))),
        UniversalOneForm.zero(profile),
        UniversalNForm(profile, ()),
    ]


def _same_representation(w, t, reference=oracles.represent):
    """1e-12 relative, against the size of the terms where pi_D(omega) itself vanishes."""
    X, X0 = represent(w, t), reference(w, t)
    if not w.terms:
        assert np.array_equal(X, X0)
        return
    size = sum(frob(t.D) ** (len(term) - 1) * np.prod([a.norm() for a in term]) for term in w.terms)
    assert frob(X - X0) <= 1e-12 * max(frob(X0), 1e-4 * size), (t.dim, frob(X - X0), frob(X0), size)


@pytest.mark.parametrize("d", range(8))
def test_represent_matches_dense_oracle(d):
    rng = rng_from_seed(1800 + d)
    for _ in range(3):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        for t in _axiom_forms(rng, realize(diag)):
            for w in _forms(rng, t.profile):
                _same_representation(w, t)


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_represent_pushforward_matches_dense_oracle(d):
    rng = rng_from_seed(2300 + d)
    unital = set()
    for _ in range(10):
        _source, arrow, target, _lift = lift_chain(rng, d)
        unital.add(all(x == 0 for x in arrow.n0))
        tB = realize(target)
        for w in _forms(rng, arrow.source)[:2]:
            _same_representation(pushforward(w, arrow), tB)
    assert unital == {True, False}


def test_form_path_builds_no_dense_representation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the form path built a dense representation")

    for owner, name in ((VertexLayout, "pi"), (RealSpectralTriple, "right")):
        monkeypatch.setattr(owner, name, forbidden)
    rng = rng_from_seed(2000)
    for args, cfgs, fermions in _paths(6):  # builds the configurations with GaugeConfiguration.from_forms
        compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
    t, w = args[1], args[3]
    represent(UniversalNForm(t.profile, ((random_element(rng, t.profile),) * 3,)), t)
    fluctuate(t, w)
    assert gauge_covariance_check(t, w, random_unitary_element(rng, t.profile), 1e-9).ok
    b = random_element(rng, t.profile)
    right_action(b, random_vector(rng, t.dim), t.layout)


# -- the generators with one normal form for the decorations ---------------------


def _draw(fn, rng, *args, **kwargs):
    """fn's result, or the type and message of what it raised, with the generator state after the call."""
    try:
        out = fn(rng, *args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        out = (type(exc), str(exc))
    return out, rng.bit_generator.state


def _same_diagrams(new, old):
    """Vertices and jim in the same insertion order, and the same edges in the same order with bit-equal ops."""
    if isinstance(old, tuple):
        return new == old
    as_list = lambda g: (list(g.vertices.items()), list(g.jim.items()),
                         [(e.src, e.dst, e.kind, e.op.shape, e.op.tobytes()) for e in g.edges])
    return as_list(new) == as_list(old)


@pytest.mark.parametrize("d", range(8))
def test_generators_match_branch_per_dimension_oracle(d):
    """random_diagram on 200 seeded draws of profile, requirements, max_fiber, edge_prob and ensure_edge;
    random_compatible_target and random_lift on every eighth: the same output and generator state."""
    draws = rng_from_seed(2700 + d)
    targets = 0
    for n in range(200):
        profile = AlgebraProfile(tuple(int(x) for x in draws.integers(1, 3, size=draws.integers(1, 3))))
        side = lambda: int(draws.integers(1, profile.r + 1))
        requirements = [(side(), side(), int(draws.choice([1, -1])) if d % 2 == 0 else None)
                        for _ in range(draws.integers(0, 4))]
        kw = dict(profile=profile, max_fiber=int(draws.integers(0, 3)), edge_prob=float(draws.random()),
                  requirements=requirements, ensure_edge=bool(draws.integers(0, 2)))
        seed = int(draws.integers(1 << 30))
        rng, rng0 = rng_from_seed(seed), rng_from_seed(seed)
        (source, state), (source0, state0) = _draw(random_diagram, rng, d, **kw), _draw(oracles.random_diagram, rng0, d, **kw)
        assert _same_diagrams(source, source0) and state == state0, (n, kw)
        if n % 8 or isinstance(source0, tuple):
            continue
        arrow = random_arrow(rng, source.profile, s_max=2, alpha_max=1, n0_max=1)
        random_arrow(rng0, source.profile, s_max=2, alpha_max=1, n0_max=1)
        kw = dict(max_fiber=1, edge_prob=kw["edge_prob"], ensure_edge=kw["ensure_edge"])
        (target, state), (target0, state0) = (_draw(random_compatible_target, rng, source, arrow, **kw),
                                              _draw(oracles.random_compatible_target, rng0, source0, arrow, **kw))
        assert _same_diagrams(target, target0) and state == state0, n
        if isinstance(target0, tuple):
            continue
        (lift, state), (lift0, state0) = _draw(random_lift, rng, source, arrow, target), _draw(oracles.random_lift, rng0, source0, arrow, target0)
        assert state == state0, n
        if isinstance(lift0, tuple):
            assert lift == lift0, n
            continue
        assert list(lift.u) == list(lift0.u), n
        assert all(lift.u[k].tobytes() == u0.tobytes() for k, u0 in lift0.u.items()), n
        targets += 1
    assert targets >= 20


@pytest.mark.parametrize("d", range(8))
def test_minimal_diagram_matches_case_per_dimension_oracle(d):
    """The table of jim orbits gives each hand-written diagram: vertex records, jim and edges, in order and bit-equal."""
    for t in (1.0, 0.3, -2.5, 1e-8):
        new, old = minimal_diagram(d, t), oracles.minimal_diagram(d, t)
        assert (new.profile, new.ko) == (old.profile, old.ko) and _same_diagrams(new, old), t
    for bad in (8, -1):
        with pytest.raises(ValueError):
            minimal_diagram(bad)
    with pytest.raises(ValueError, match="t = 0.0"):
        minimal_diagram(d, 0.0)


# -- edge checks per shape class, and products with a monomial K as gathers ------


def _same_lines(rep, ref, tol=1e-10):
    """The same line names, order, verdicts and witnesses, and residuals within 1e-12 max(|y|, bound / tol).

    A bound is tol ||op||_F, tol ||D||_F or tol, so bound / tol is the size of what the line measures.
    """
    assert [c.name for c in rep.checks] == [c.name for c in ref.checks]
    for c, c0 in zip(rep.checks, ref.checks):
        assert (c.passed, c.detail) == (c0.passed, c0.detail), c.name
        scale = 0.0 if c0.bound is None else c0.bound / tol
        assert abs(c.residual - c0.residual) <= 1e-12 * max(c0.residual, scale), (c.name, c.residual, c0.residual)


def _edge_variants(rng, diag):
    """diag with one fault each: an orbit conflict of relative size 1e-3, a split defect, an edge supplied
    twice, a mis-kinded edge, an op of the wrong shape, a missing endpoint and an edge between unrelated fibers."""
    edges = diag.edges
    if not edges:
        return []
    e = edges[0]
    with_edges = lambda new: KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim, new)
    vids = diag.sorted_vids()
    unrelated = [(v, w) for v in vids for w in vids if v[0] != w[0] and v[2] != w[2]]
    out = [
        with_edges([Edge(e.src, e.dst, e.kind, (1 + 1e-3) * e.op)] + edges[1:]),
        with_edges([Edge(e.src, e.dst, e.kind, e.op + 1e-3 * random_complex(rng, e.op.shape))] + edges[1:]),
        with_edges(edges + [e]),
        with_edges([Edge(e.src, e.dst, "left" if e.kind != "left" else "right", e.op)] + edges[1:]),
        with_edges([Edge(e.src, e.dst, e.kind, e.op[:, :-1])] + edges[1:]) if e.op.shape[1] > 1 else None,
        with_edges(edges + [Edge(e.src, (9, 1, 9), e.kind, e.op)]),
    ]
    if unrelated:
        v, w = unrelated[0]
        (n_i1, n_j1), (n_i2, n_j2) = [(diag.profile.dim(x[0]), diag.profile.dim(x[2])) for x in (v, w)]
        out.append(with_edges(edges + [Edge(v, w, "general", random_complex(rng, (n_i2 * n_j2, n_i1 * n_j1)))]))
    return [g for g in out if g is not None]


@pytest.mark.parametrize("d", range(8))
def test_validate_matches_per_edge_oracle(d):
    """Minimal, random and classified diagrams, and faulty variants: the same report lines, and the same
    orbit closure and realized D, bit for bit."""
    rng = rng_from_seed(2800 + d)
    diags = [minimal_diagram(d)] + [random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
                                    for _ in range(3)]
    diags += [classify(realize(g))[0] for g in diags]
    closures = conflicts = 0
    for g in diags + [v for g in diags[1:] for v in _edge_variants(rng, g)]:
        (rep, closed), (ref, closed0) = _validate(g, 1e-10), oracles.validate_per_edge(g, 1e-10)
        _same_lines(rep, ref)
        assert (closed is None) == (closed0 is None)
        if closed is None:
            continue
        assert list(closed) == list(closed0)
        assert all(closed[k].tobytes() == closed0[k].tobytes() for k in closed0)
        conflicts += any("orbit consistency" in c.name for c in rep.checks)
        if rep.ok:
            layout = layout_of(g)
            D0 = np.zeros((layout.total_dim,) * 2, dtype=complex)
            for (src, dst), op in closed0.items():
                D0[layout.block(dst).sl, layout.block(src).sl] = op
            assert realize(g).D.tobytes() == D0.tobytes()
            closures += 1
    assert closures >= 8 and conflicts >= 1


def _same_validation(g, tol=1e-10):
    """validate and the per-edge oracle give g the same lines, and the same closure bit for bit; its report."""
    (rep, closed), (ref, closed0) = _validate(g, tol), oracles.validate_per_edge(g, tol)
    _same_lines(rep, ref)
    assert (closed is None) == (closed0 is None)
    if closed is not None:
        assert list(closed) == list(closed0)
        assert all(closed[k].tobytes() == closed0[k].tobytes() for k in closed0)
    return rep


# seeds of normalized_setup whose target profiles mix block sizes: (5, 1), (2, 6), (4, 6)
_LIFT_SIDE_SEEDS = {0: (32, 58, 292), 1: (59, 66, 246), 2: (39, 76, 82), 6: (39, 76, 82), 7: (3, 59, 66)}


@pytest.mark.parametrize("d", sorted(_LIFT_SIDE_SEEDS))
def test_validate_matches_per_edge_oracle_on_lift_sides(d):
    """Targets and inherited sources of normalized lifts, over profiles with blocks of mixed sizes: the lines
    and the closure of the per-edge oracle."""
    profiles = set()
    for seed in _LIFT_SIDE_SEEDS[d]:
        norm = normalized_setup(rng_from_seed(seed), d)[0]
        for g in (norm.target, norm.source):
            assert _same_validation(g).ok
            profiles.add(g.profile.dims)
    assert profiles & {(5, 1), (2, 6), (4, 6)}


def _derived_variants(diag):
    """diag with the supplied ebar, or jim(e), of its first edge e scaled by 1 + 1e-3 or turned by a phase 1e-3:
    the defect sits on an edge that may be the root of its orbit, or on an image of one."""
    if not diag.edges:
        return []
    e, index, out = diag.edges[0], {(f.src, f.dst): k for k, f in enumerate(diag.edges)}, []
    for key in ((e.dst, e.src), (diag.jim[e.src], diag.jim[e.dst])):
        for c in ((1 + 1e-3, np.exp(1e-3j)) if key in index else ()):
            edges = list(diag.edges)
            f = edges[index[key]]
            edges[index[key]] = Edge(f.src, f.dst, f.kind, c * f.op)
            out.append(KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim, edges))
    return out


def test_orbit_conflicts_between_images_match_the_oracle():
    """A defect on ebar or jim(e) rather than on e, in d = 0..7: the conflicts are measured between other pairs
    of images, found at a given edge, an adjoint step and a jim step, and their lines (named with their origin),
    order and verdicts are the per-edge oracle's."""
    origins = set()
    for d in range(8):
        rng = rng_from_seed(5200 + d)
        diags = [random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True) for _ in range(3)]
        for v in [v for g in diags + [classify(realize(g))[0] for g in diags] for v in _derived_variants(g)]:
            origins |= {re.search(r"\[(\w+)", c.name)[1] for c in _same_validation(v).failures()
                        if "orbit consistency" in c.name}
    assert origins == {"given", "adjoint", "jim"}


def _gather_forms(d):
    """(t, whether K is monomial, whether t is a triple of d) for realized triples of minimal, random and
    classified diagrams; each with K, and in even d each with gamma, times a random phased permutation
    (monomial, but no involution and with complex phases); and each conjugated by a random unitary on the
    middle factor of every fiber, where K and gamma are dense."""
    rng = rng_from_seed(2850 + d)
    diags = [minimal_diagram(d)] + [random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
                                    for _ in range(3)]
    diags += [classify(realize(g))[0] for g in diags]
    phased = lambda n: np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))
    for g in diags:
        t = realize(g)
        yield t, True, True
        yield RealSpectralTriple(t.profile, t.ko, t.layout, t.D, t.K @ phased(t.dim), t.gamma), True, False
        if t.gamma is not None:
            yield RealSpectralTriple(t.profile, t.ko, t.layout, t.D, t.K, t.gamma @ phased(t.dim)), True, False
        if any(len(fiber) > 1 for fiber in g.fibers().values()):
            yield mix_fibers(rng, t, g), False, True


@pytest.mark.parametrize("d", range(8))
def test_axioms_gathers_match_dense_oracles(d):
    """verify_axioms, detect_ko, conjugate_by_J and apply_J against their dense-K versions: the same lines
    and witnesses, the same detected rows, and J X J^-1 and J psi equal entry for entry (to 1e-15 relative
    with complex phases).  Gamma takes the dense products, the diagonal gathers and, times a phased
    permutation, gathers with a permutation."""
    rng = rng_from_seed(2860 + d)
    dense = gathered = graded = permuted = 0
    for t, monomial, valid in _gather_forms(d):
        assert (_products_with(t.K)[0] is not None) == monomial
        if t.gamma is not None:
            mono = _products_with(t.gamma)[0]
            graded += mono is None
            permuted += mono is not None and np.any(mono[0] != np.arange(t.dim))
        for tol in (1e-10, 1e-14):
            _same_lines(verify_axioms(t, tol), oracles.verify_axioms_dense(t, tol), tol)
            assert detect_ko(t, tol) == oracles.detect_ko_dense(t, tol)
        X, psi = random_complex(rng, (t.dim, t.dim)), random_vector(rng, t.dim)
        for new, old in ((t.conjugate_by_J(X), oracles.conjugate_by_J_dense(t, X)),
                         (t.apply_J(psi), oracles.apply_J_dense(t, psi))):  # exact for +-1 phases and dense K
            assert np.array_equal(new, old) if valid else np.abs(new - old).max() <= 1e-15 * np.abs(old).max()
        assert not valid or (d in detect_ko(t) and verify_axioms(t).ok)
        dense += not monomial
        gathered += monomial
    assert gathered == (16 if d % 2 else 24) and dense >= 1 and (graded >= 1 and permuted >= 1 or d % 2)


@pytest.mark.parametrize("d", range(8))
def test_monomial_brackets_match_the_dense_reader_unit_by_unit(d):
    """The commutant's squared brackets read off the m entries of each X_a = K^dagger pi(a) K, against
    _bracket_squares and the oracle's row-by-row reader of the dense X_a, for every pair of units (a, q):
    within 1e-12 relative, or both at most 1e-24, the rounding of an exact zero.  Realized triples read
    exactly 0.0 for every pair; K times a phased permutation with complex phases does not."""
    phased = 0
    for t, monomial, valid in _gather_forms(d):
        if not monomial:
            continue
        frames, (perm, phase), Kh = _unit_frames(t.layout), _products_with(t.K)[0], t.K.conj().T
        read, U = _monomial_brackets(perm, phase, frames), sum(t.profile.dim(k) ** 2 for k, *_ in frames)
        for reader in (_bracket_squares, oracles.worst_bracket_rows):
            dense = np.array([reader(Kh[:, L[x]] @ t.K[L[y]], frames)
                              for _k, L, _at, _labels in frames for x, y in np.ndindex(len(L), len(L))])
            assert read.shape == dense.shape == (U, U)
            ok = (np.abs(read - dense) <= 1e-12 * dense) | ((read <= 1e-24) & (dense <= 1e-24))
            assert ok.all(), (reader, read[~ok], dense[~ok])
        if valid:
            assert not read.any()
        phased += read.max() > 1e-24
    assert phased >= 2


@pytest.mark.parametrize("d", range(8))
def test_bracket_lines_name_the_first_pair_within_1e_12_of_the_largest(d):
    """The witness rule, read off the oracle's table of squared brackets: each of the commutant, first-order
    and gamma lines of verify_axioms names the first (a, q) in row-major order whose square is within a
    relative 1e-12 of the largest, with b = E^k_{y,x} for q = E^k_{x,y}, and an order line names none within
    1e-12 of the size of what it measures.  The triples carry Hermitian noise on D and gamma, and K as
    realized, times a phased permutation (ties of exact arithmetic among the commutant brackets) or times a
    random unitary (the dense products)."""
    rng = rng_from_seed(2990 + d)
    name = lambda k, x, y: f"E^{k}_{{{x},{y}}}"
    named = ties = 0
    for g in [minimal_diagram(d)] + [random_diagram(rng, d, AlgebraProfile(dims), max_fiber=2, edge_prob=0.7,
                                                    ensure_edge=True) for dims in ((1, 2), (2, 3))]:
        t0 = realize(g)
        n = t0.dim
        noise = lambda X: None if X is None else X + 1e-3 * random_hermitian(rng, n)
        phased = np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))
        for K in (t0.K, t0.K @ phased, t0.K @ random_unitary(rng, n)):
            t = RealSpectralTriple(t0.profile, t0.ko, t0.layout, noise(t0.D), K, noise(t0.gamma))
            rep, frames, Kh = verify_axioms(t), _unit_frames(t.layout), K.conj().T
            KhD, DK = Kh @ t.D, t.D @ K
            units = [(k, x, y) for k, L, _at, _labels in frames for x, y in np.ndindex(len(L), len(L))]
            pairs = [(L[x], L[y]) for _k, L, _at, _labels in frames for x, y in np.ndindex(len(L), len(L))]
            lines = {
                "commutant [pi(a), J pi(b)* J^-1] = 0": (1.0, [Kh[:, r] @ K[c] for r, c in pairs]),
                "first order [[D, pi(a)], J pi(b)* J^-1] = 0":
                    (frob(t.D), [KhD[:, r] @ K[c] - Kh[:, r] @ DK[c] for r, c in pairs]),
            }
            for line, (scale, Xs) in lines.items():
                sq = np.array([oracles.worst_bracket_rows(X, frames) for X in Xs])
                if np.sqrt(sq.max()) <= 1e-12 * scale:
                    assert rep[line].detail == "", line
                    continue
                window = np.flatnonzero(sq >= (1 - 1e-12) * sq.max())
                (a, q), ties = divmod(int(window[0]), len(units)), ties + (window.size > 1)
                k, x, y = units[q]
                assert rep[line].detail == f"worst at a = {name(*units[a])}, b = {name(k, y, x)}", line
                named += 1
            if t.gamma is not None:
                sq = oracles.worst_bracket_rows(t.gamma, frames)
                q = int(np.flatnonzero(sq >= (1 - 1e-12) * sq.max())[0])
                assert rep["gamma commutes with pi(a)"].detail == (f"worst at a = {name(*units[q])}" if sq.any() else "")
    assert named >= 5 and ties >= 5  # ties: more than one pair in the window, so the order decides


def test_J_products_read_a_newly_assigned_K():
    """conjugate_by_J and apply_J read K as (perm, phase) once per K object; assigning a phased
    permutation of K, then a dense unitary, makes them read the new K."""
    rng = rng_from_seed(2870)
    t = realize(random_diagram(rng, 6, AlgebraProfile((2, 3)), max_fiber=2, edge_prob=0.7, ensure_edge=True))
    X, psi = random_complex(rng, (t.dim, t.dim)), random_vector(rng, t.dim)
    for K in (t.K @ (np.eye(t.dim)[rng.permutation(t.dim)] * np.exp(2j * np.pi * rng.random(t.dim))),
              random_unitary(rng, t.dim)):
        t.conjugate_by_J(X)
        t.K = K
        for new, old in ((t.conjugate_by_J(X), oracles.conjugate_by_J_dense(t, X)),
                         (t.apply_J(psi), oracles.apply_J_dense(t, psi))):
            assert np.abs(new - old).max() <= 1e-15 * np.abs(old).max()


@pytest.mark.parametrize("d", (3, 6))
def test_K_is_scanned_once_per_triple(d, monkeypatch):
    """verify_axioms and detect_ko (twice each), classify, conjugate_by_J and apply_J scan a triple's K
    (np.nonzero of K) once between them, on realized, phased and fiber-mixed (dense K) triples; gamma is
    scanned once per verify_axioms call and at most once per classify call."""
    rng, scans, nonzero = rng_from_seed(2880 + d), [], np.nonzero
    monkeypatch.setattr(np, "nonzero", lambda a: scans.append(a) or nonzero(a))
    count = 0
    for t, *_ in _gather_forms(d):
        scans.clear()
        for tol in (1e-10, 1e-14):
            verify_axioms(t, tol)
            detect_ko(t, tol)
        with contextlib.suppress(ClassificationError):
            classify(t)
        t.conjugate_by_J(random_complex(rng, (t.dim, t.dim)))
        t.apply_J(random_vector(rng, t.dim))
        assert sum(a is t.K for a in scans) == 1
        assert t.gamma is None or sum(a is t.gamma for a in scans) in (2, 3)
        count += 1
    assert count >= 12


# -- field assembly: one GEMM per block pair, one buffer per field -----------------


def _same_bits(new, old):
    """The same shape, dtype and bytes: signed zeros count, where np.array_equal would not see them."""
    new, old = np.asarray(new), np.asarray(old)
    assert (new.shape, new.dtype) == (old.shape, old.dtype) and new.tobytes() == old.tobytes()


def _field_triples(rng, d):
    """_axiom_forms of realized triples in d: one on a random profile, two on profiles of two and three blocks."""
    for profile in (None, AlgebraProfile((2, 1)), AlgebraProfile((1, 2, 3))):
        diag = random_diagram(rng, d, profile, max_fiber=1, edge_prob=0.7, ensure_edge=True)
        yield from _axiom_forms(rng, realize(diag))


@pytest.mark.parametrize("d", range(8))
def test_sandwich_is_the_tensordot_oracle_bit_for_bit(d):
    """On D and a dense X for zero to five pairs, and on K with gauge_covariance_check's (u, ubar)."""
    rng = rng_from_seed(2700 + d)
    for t in _field_triples(rng, d):
        X = random_complex(rng, (t.dim, t.dim))
        for count in (0, 1, 2, 5):
            pairs = [(random_element(rng, t.profile), random_element(rng, t.profile)) for _ in range(count)]
            for Y in (t.D, X):
                _same_bits(t.layout.sandwich(pairs, Y), oracles.sandwich(t.layout, pairs, Y))
        u = random_unitary_element(rng, t.profile)
        pairs = [(u, AlgebraElement(u.profile, [np.conj(b) for b in u.blocks]))]
        _same_bits(t.layout.sandwich(pairs, t.K), oracles.sandwich(t.layout, pairs, t.K))


@pytest.mark.parametrize("d", range(8))
def test_represent_is_the_element_pair_oracle_bit_for_bit(d):
    """The sandwich path, which every triple whose D does not split takes, on forms of degree 1, 2 and 3, mixed
    degrees and empty forms (_forms)."""
    rng = rng_from_seed(2710 + d)
    for t in _field_triples(rng, d):
        for w in _forms(rng, t.profile):
            _same_bits(_sandwich_representation(w, t), oracles.represent_elements(w, t))


@pytest.fixture
def sandwich_only(monkeypatch):
    """Every triple takes the sandwich path, as one whose D does not split or whose K is not monomial does."""
    monkeypatch.setattr(RealSpectralTriple, "_split", lambda self: None)


def _same_fields(t, forms):
    _same_bits(fluctuate(t, forms[4]), oracles.fluctuate_whole(t, forms[4]))
    cfg, ref = GaugeConfiguration.from_forms(t, forms[:4], forms[4]), oracles.from_forms_whole(t, forms[:4], forms[4])
    for X, X0 in zip(cfg.B + (cfg.Phi,), ref.B + (ref.Phi,)):
        _same_bits(X, X0)


@pytest.mark.parametrize("d", range(8))
def test_fields_are_the_whole_array_oracles_bit_for_bit(d, sandwich_only):
    """fluctuate and from_forms on the sandwich path: on realized triples, their dense forms (a dense K takes
    J X J^-1 densely), and, in the KO-dimensions of automatic diagonalization, lift targets with pushed-forward
    forms."""
    rng = rng_from_seed(2720 + d)
    for t in _field_triples(rng, d):
        _same_fields(t, [random_hermitian_form(rng, t.profile) for _ in range(5)])
    for _ in range(3 if d in (0, 1, 2, 6, 7) else 0):
        _source, arrow, target, _lift = lift_chain(rng, d)
        _same_fields(realize(target), [pushforward(random_hermitian_form(rng, arrow.source), arrow) for _ in range(5)])


# -- gauge fields from D's vertex-block left factors ---------------------------------


def _split_triples(rng, d):
    """Realized triples in d on _field_triples' profiles, and lift targets of lift_chain with their arrows."""
    for profile in (None, AlgebraProfile((2, 1)), AlgebraProfile((1, 2, 3))):
        yield realize(random_diagram(rng, d, profile, max_fiber=2, edge_prob=0.7, ensure_edge=True)), None
    for _ in range(2):
        _source, arrow, target, _lift = lift_chain(rng, d)
        yield realize(target), arrow


def _sandwich_fields(monkeypatch, t, forms):
    """fluctuate and from_forms of forms[4], forms[:4] on the sandwich path."""
    with monkeypatch.context() as m:
        m.setattr(RealSpectralTriple, "_split", lambda self: None)
        return fluctuate(t, forms[4]), GaugeConfiguration.from_forms(t, forms[:4], forms[4])


@pytest.mark.parametrize("d", range(8))
def test_split_path_matches_the_sandwich_path(d, monkeypatch):
    """Where D splits, represent (forms of every degree, _forms), fluctuate and from_forms, on realized triples and
    with pushed-forward forms on lift targets, meet _same_representation's bound against the sandwich path."""
    rng = rng_from_seed(3000 + d)
    for t, arrow in _split_triples(rng, d):
        assert t._split() is not None
        forms = _forms(rng, t.profile) if arrow is None else [pushforward(w, arrow) for w in
                                                                 _forms(rng, arrow.source)[:2]]
        for w in forms:
            _same_representation(w, t, _sandwich_representation)
        draw = (lambda: random_hermitian_form(rng, t.profile)) if arrow is None else (
            lambda: pushforward(random_hermitian_form(rng, arrow.source), arrow))
        fields = [draw() for _ in range(5)]
        size = lambda w: sum(frob(t.D) * a0.norm() * a1.norm() for a0, a1 in w.terms)
        F0, cfg0 = _sandwich_fields(monkeypatch, t, fields)
        F, cfg = fluctuate(t, fields[4]), GaugeConfiguration.from_forms(t, fields[:4], fields[4])
        for X, X0, w in zip((F,) + cfg.B + (cfg.Phi,), (F0,) + cfg0.B + (cfg0.Phi,), fields[4:] + fields):
            assert frob(X - X0) <= 1e-12 * max(frob(X0), 1e-4 * size(w)), (t.dim, frob(X - X0), frob(X0))


@pytest.mark.parametrize("d", range(8))
def test_split_path_refuses_non_hermitian_forms_as_the_sandwich_path_does(d, monkeypatch):
    """A form without its adjoint is refused on both paths, and its Hermitian part is accepted on both; the split
    path's residual ||iota_L(M) - iota_L(M)^dagger||_F is the sandwich's ||X - X^dagger||_F within 1e-12 relative."""
    rng, refused = rng_from_seed(3100 + d), 0
    for t, _arrow in _split_triples(rng, d):
        w = random_one_form(rng, t.profile, 2)
        X0 = _sandwich_representation(w, t)
        herm0 = frob(X0 - X0.conj().T)
        assert abs(t.layout._left_hermiticity(differential._left_representation(w, t, t._split()[0])) - herm0) \
            <= 1e-12 * herm0
        for route in (RealSpectralTriple._split, lambda self: None):
            with monkeypatch.context() as m:
                m.setattr(RealSpectralTriple, "_split", route)
                if herm0:  # a D = 0 represents every form by 0
                    with pytest.raises(ValueError, match="is not Hermitian"):
                        fluctuate(t, w)
                    refused += 1
                fluctuate(t, w + w.adjoint())
    assert refused >= 6


@pytest.mark.parametrize("d", range(8))
def test_a_d_that_does_not_split_takes_the_sandwich_path_bit_for_bit(d):
    """D plus a Hermitian term of relative size 1e-6, which breaks the first-order split, is not read as split:
    represent, fluctuate and from_forms are the element-pair and whole-array oracles bit for bit.  (On a layout of
    one vertex with n_j = 1 every operator splits; such triples are skipped.)"""
    rng, count = rng_from_seed(3200 + d), 0
    for t, arrow in _split_triples(rng, d):
        H = random_hermitian(rng, t.dim)
        bent = RealSpectralTriple(t.profile, t.ko, t.layout, t.D + (1e-6 * frob(t.D) / frob(H)) * H, t.K, t.gamma)
        assert t._split() is not None
        if bent._split() is not None:  # every operator splits on this layout
            continue
        count += 1
        draw = (lambda: random_hermitian_form(rng, t.profile)) if arrow is None else (
            lambda: pushforward(random_hermitian_form(rng, arrow.source), arrow))
        fields = [draw() for _ in range(5)]
        _same_bits(represent(fields[0], bent), oracles.represent_elements(fields[0], bent))
        _same_fields(bent, fields)
    assert count >= 3


def test_split_path_makes_no_sandwich(monkeypatch):
    """from_forms and fluctuate on a realized triple, and on a lift target, call VertexLayout._sandwich 0 times;
    the same D with a 1e-6 first-order defect calls it once per form."""
    calls, real = [], VertexLayout._sandwich
    monkeypatch.setattr(VertexLayout, "_sandwich", lambda self, pairs, X: calls.append(1) or real(self, pairs, X))
    rng = rng_from_seed(3300)
    for t, arrow in _split_triples(rng, 6):
        forms = [random_hermitian_form(rng, t.profile if arrow is None else arrow.source) for _ in range(5)]
        forms = forms if arrow is None else [pushforward(w, arrow) for w in forms]
        GaugeConfiguration.from_forms(t, forms[:4], forms[4])
        fluctuate(t, forms[4])
        assert calls == []
        H = random_hermitian(rng, t.dim)
        bent = RealSpectralTriple(t.profile, t.ko, t.layout, t.D + (1e-6 * frob(t.D) / frob(H)) * H, t.K, t.gamma)
        GaugeConfiguration.from_forms(bent, forms[:4], forms[4])
        fluctuate(bent, forms[4])
        assert len(calls) == 6
        calls.clear()


def test_apply_phi_is_the_component_sum_oracle_bit_for_bit():
    """Elements with -0.0 real and imaginary parts come out with 0.0 there, as the sum of components writes them."""
    rng, signed = rng_from_seed(2730), 0
    for _ in range(20):
        arrow = random_arrow(rng, random_profile(rng, 3, 3), s_max=3, alpha_max=2, n0_max=2)
        blocks = [random_complex(rng, (n, n)) for n in arrow.source.dims]
        for b in blocks:
            b.real[rng.random(b.shape) < 0.4] = -0.0
            b.imag[rng.random(b.shape) < 0.4] = -0.0
        for a in (AlgebraElement(arrow.source, blocks), -1.0 * AlgebraElement.zero(arrow.source)):
            signed += sum(np.signbit(b.view(float)).sum() for b in a.blocks)
            for new, old in zip(apply_phi(arrow, a).blocks, oracles.apply_phi_components(arrow, a).blocks):
                _same_bits(new, old)
    assert signed > 0


@pytest.mark.parametrize("split", (True, False))
def test_non_hermitian_configuration_is_refused_at_the_dense_residual(split):
    """Phi off Hermitian by a relative 1e-6 on its own support: bosonic_lagrangian refuses it just below and
    accepts it just above the dense oracle's h / max(1, s), within 1e-12 relative, with the gamma split (d = 6
    fields from from_forms) and without it (dense random fields)."""
    rng, f = rng_from_seed(2740 + split), CutoffFunction.gaussian()
    if split:
        t = realize(random_diagram(rng, 6, AlgebraProfile((1, 2)), max_fiber=0, edge_prob=0.7, ensure_edge=True,
                                   requirements=[(1, 1, 1), (1, 2, 1), (1, 2, -1), (2, 2, 1)]))
        forms = [random_hermitian_form(rng, t.profile) for _ in range(5)]
        cfg = GaugeConfiguration.from_forms(t, forms[:4], forms[4])
        fields = list(cfg.B + (cfg.Phi,))
    else:
        fields = [random_hermitian(rng, 14) for _ in range(5)]
    bosonic_lagrangian(GaugeConfiguration(tuple(fields[:4]), fields[4]), f, 1.3)
    E = random_complex(rng, fields[4].shape) * (fields[4] != 0)
    cfg = GaugeConfiguration(tuple(fields[:4]), fields[4] + 1e-6 * frob(fields[4]) / frob(E) * E)
    assert (action._bipartition(cfg.B + (cfg.Phi,)) is not None) == split
    h, s = oracles.hermiticity_dense(cfg)
    assert 1e-7 < h / frob(cfg.Phi) < 1e-5
    with pytest.raises(ValueError, match=f"not Hermitian \\(residual {h:.3e}\\)"):
        bosonic_lagrangian(cfg, f, 1.3, h / max(1.0, s) * (1 - 1e-12))
    bosonic_lagrangian(cfg, f, 1.3, h / max(1.0, s) * (1 + 1e-12))
