"""Rewritten code paths against the versions they replaced (tests/oracles.py).

The vertex-block kernel is compared with the index loops, and the action
comparison, which builds each operator once, with the one that rebuilt them.
"""

import itertools

import numpy as np
import pytest

import oracles
from helpers import lift_chain, normalized_setup

from finspec import action, krajewski, lifting
from finspec.action import CutoffFunction, GaugeConfiguration, bosonic_lagrangian, compare_actions
from finspec.algebra import swap_matrix
from finspec.differential import pushforward
from finspec.krajewski import RealSpectralTriple, _extract_middle_map, classify, realize
from finspec.lifting import build_phiH, diagonalize_bases, normalize
from finspec.sampling import (
    random_diagram,
    random_even_vector,
    random_hermitian,
    random_hermitian_form,
    random_unitary,
    random_vector,
    rng_from_seed,
)


def _record_basis_changes(monkeypatch, module):
    """Record (layout, rows, result) of every _basis_change call made from module."""
    calls, real = [], module._basis_change

    def spy(layout, rows):
        calls.append((layout, rows, real(layout, rows)))
        return calls[-1][2]

    monkeypatch.setattr(module, "_basis_change", spy)
    return calls


def _mix_fibers(rng, t, diag):
    """t conjugated by a random unitary on the middle factor of every fiber."""
    rows = {}
    for fiber in diag.fibers().values():
        U = random_unitary(rng, len(fiber))
        rows.update({v: (fiber, U[:, p]) for p, v in enumerate(fiber)})
    Q = oracles.rotation(t.layout, rows)
    gamma = None if t.gamma is None else Q.conj().T @ t.gamma @ Q
    return RealSpectralTriple(t.profile, t.ko, t.layout, Q.conj().T @ t.D @ Q, Q.conj().T @ t.K @ np.conj(Q), gamma)


def test_swap_matrix_matches_loop():
    for n_i in range(1, 5):
        for n_j in range(1, 5):
            assert np.array_equal(swap_matrix(n_i, n_j), oracles.swap_matrix(n_i, n_j))


@pytest.mark.parametrize("d", range(8))
def test_block_kernel_matches_loop_oracles(d, monkeypatch):
    rng = rng_from_seed(1300 + d)
    witnesses = _record_basis_changes(monkeypatch, krajewski)
    for _ in range(3):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        t = realize(diag)
        K, gamma = oracles.real_structure(diag, t.layout)
        assert np.array_equal(t.K, K)
        assert (t.gamma is None and gamma is None) or np.array_equal(t.gamma, gamma)

        tc = _mix_fibers(rng, t, diag)
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


def _close(x, y):
    assert abs(x - y) <= 1e-12 * abs(y), (x, y)


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_compare_actions_matches_oracle(d):
    for args, cfgs, fermions in _paths(d):
        rep = compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
        ref = oracles.compare_actions(*args, cfgs=cfgs, fermions=fermions, tol=1e-9)
        assert [t.name for t in rep.terms] == [t.name for t in ref.terms]
        for t, t0 in zip(rep.terms, ref.terms):
            for name in ("full", "inherited", "tnic", "a_value"):
                _close(getattr(t, name), getattr(t0, name))
        assert list(rep.spectral) == list(ref.spectral)
        for key, value in ref.spectral.items():
            _close(rep.spectral[key], value)
        assert list(rep.compat) == list(ref.compat)
        for key, c0 in ref.compat.items():
            for name in ("weak_residual", "b_perp_phi", "b_phi_perp"):
                _close(getattr(rep.compat[key], name), getattr(c0, name))


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
