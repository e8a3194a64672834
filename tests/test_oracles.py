"""The vertex-block kernel against the index loops it replaced (tests/oracles.py)."""

import numpy as np
import pytest

import oracles
from helpers import lift_chain

from finspec import krajewski, lifting
from finspec.algebra import swap_matrix
from finspec.krajewski import RealSpectralTriple, _extract_middle_map, classify, realize
from finspec.lifting import build_phiH, diagonalize_bases, normalize
from finspec.sampling import random_diagram, random_unitary, rng_from_seed


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
