"""Shared constructions for the lift and action tests."""

import numpy as np

import oracles
from finspec.algebra import AlgebraProfile
from finspec.krajewski import KOSignature, KrajewskiDiagram, RealSpectralTriple, Vertex, realize
from finspec.bratteli import BratteliArrow
from finspec.lifting import DiagramLift, build_phiH, diagonalize_bases, normalize
from finspec.sampling import (
    random_arrow,
    random_compatible_target,
    random_diagram,
    random_lift,
    random_profile,
    random_unitary,
)


def lift_chain(rng, d, max_fiber=2, edge_prob=0.6, ensure_edge=True, r_max=2, n_max=2):
    """(source, arrow, target, lift) with valid grading/real-structure data."""
    source = random_diagram(rng, d, profile=random_profile(rng, r_max, n_max),
                            max_fiber=max_fiber, edge_prob=edge_prob, ensure_edge=ensure_edge)
    arrow = random_arrow(rng, source.profile, s_max=2, alpha_max=2, n0_max=1)
    target = random_compatible_target(rng, source, arrow, max_fiber=max_fiber,
                                      edge_prob=edge_prob, ensure_edge=ensure_edge)
    lift = random_lift(rng, source, arrow, target)
    return source, arrow, target, lift


def normalized_setup(rng, d, **kw):
    """A normalized lift plus triples with D_A the pullback of D_B.

    The pullback Dirac is weakly compatible with D_B by construction and
    satisfies all source-triple axioms, which makes the pair usable for
    action comparisons.
    """
    source, arrow, target, lift = lift_chain(rng, d, **kw)
    norm = normalize(diagonalize_bases(lift, 1e-10), 1e-10)
    phiH = build_phiH(norm)
    tB = realize(target)
    tA0 = realize(norm.source)
    M = phiH.matrix
    tA = RealSpectralTriple(tA0.profile, tA0.ko, tA0.layout,
                            M.conj().T @ tB.D @ M, tA0.K, tA0.gamma)
    return norm, tA, tB, phiH


def identity_lift(d=7):
    """C -> C with u = [[1]]: phi_H is the identity on C."""
    prof = AlgebraProfile((1,))
    v = (1, 1, 1)
    diag = lambda: KrajewskiDiagram(
        prof, KOSignature.from_dim(d), {v: Vertex(1, 1, 1)}, {v: v}, []
    )
    arrow = BratteliArrow(prof, prof, ((1,),), (0,))
    return DiagramLift(arrow, diag(), diag(), {(v, v): np.eye(1)})


def mix_fibers(rng, t, diag):
    """t conjugated by a random unitary on the middle factor of every fiber."""
    rows = {}
    for fiber in diag.fibers().values():
        U = random_unitary(rng, len(fiber))
        rows.update({v: (fiber, U[:, p]) for p, v in enumerate(fiber)})
    Q = oracles.rotation(t.layout, rows)
    gamma = None if t.gamma is None else Q.conj().T @ t.gamma @ Q
    return RealSpectralTriple(t.profile, t.ko, t.layout, Q.conj().T @ t.D @ Q, Q.conj().T @ t.K @ np.conj(Q), gamma)
