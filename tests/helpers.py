"""Shared constructions for the lift and action tests."""

import numpy as np

import oracles
from finspec.algebra import AlgebraProfile
from finspec.krajewski import KOSignature, KrajewskiDiagram, RealSpectralTriple, Vertex, epsilon_factor, realize
from finspec.bratteli import BratteliArrow
from finspec.lifting import DiagramLift, build_phiH, diagonalize_bases, inherit_source_dirac, normalize
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
    """A normalized lift whose source Dirac is inherited from the target, plus both triples and phi_H.

    The inherited D_A is the pullback of D_B read back as edges, so it is
    weakly compatible with D_B and satisfies all source-triple axioms,
    which makes the pair usable for action comparisons.
    """
    _source, _arrow, target, lift = lift_chain(rng, d, **kw)
    norm = inherit_source_dirac(normalize(diagonalize_bases(lift, 1e-10), 1e-10), 1e-10)
    return norm, realize(norm.source), realize(target), build_phiH(norm)


def identity_lift(d=7):
    """C -> C with u = [[1]]: phi_H is the identity on C."""
    prof = AlgebraProfile((1,))
    v = (1, 1, 1)
    diag = lambda: KrajewskiDiagram(
        prof, KOSignature.from_dim(d), {v: Vertex(1, 1, 1)}, {v: v}, []
    )
    arrow = BratteliArrow(prof, prof, ((1,),), (0,))
    return DiagramLift(arrow, diag(), diag(), {(v, v): np.eye(1)})


def two_point_fiber_lift(a, b, s_sign=1, d=0):
    """Two d=0 diagonal source vertices mapping to one target vertex by scalars a, b."""
    prof = AlgebraProfile((1,))
    v1, v2, w = (1, 1, 1), (1, 2, 1), (1, 1, 1)
    src = KrajewskiDiagram(
        prof, KOSignature.from_dim(d),
        {v1: Vertex(1, 1, 1, s=s_sign), v2: Vertex(1, 2, 1, s=s_sign)},
        {v1: v1, v2: v2}, [],
    )
    tgt = KrajewskiDiagram(
        prof, KOSignature.from_dim(d), {w: Vertex(1, 1, 1, s=s_sign)}, {w: w}, []
    )
    arrow = BratteliArrow(prof, prof, ((1,),), (0,))
    return DiagramLift(arrow, src, tgt, {(v1, w): [[a]], (v2, w): [[b]]})


def diagonal_sigma_lift():
    """Orthogonal u slots: sigma = diag(4, 1), already descending diagonal."""
    prof = AlgebraProfile((1,))
    v1, v2, w = (1, 1, 1), (1, 2, 1), (1, 1, 1)
    src = KrajewskiDiagram(
        prof, KOSignature.from_dim(0),
        {v1: Vertex(1, 1, 1, s=1), v2: Vertex(1, 2, 1, s=1)}, {v1: v1, v2: v2}, [],
    )
    tgt = KrajewskiDiagram(
        AlgebraProfile((2,)), KOSignature.from_dim(0), {w: Vertex(1, 1, 1, s=1)}, {w: w}, [],
    )
    arrow = BratteliArrow(prof, AlgebraProfile((2,)), ((2,),), (0,))
    return DiagramLift(arrow, src, tgt,
                       {(v1, w): [[2.0, 0.0], [0.0, 0.0]], (v2, w): [[0.0, 0.0], [0.0, 1.0]]})


def d3_chi_pairs_lift():
    """Two diagonal chi-pairs in d=3 sharing a target: sigma mixes the fiber."""
    prof = AlgebraProfile((1,))
    ko = KOSignature.from_dim(3)
    vids = [(1, p, 1) for p in (1, 2, 3, 4)]
    vertices = {vids[0]: Vertex(1, 1, 1, chi=0), vids[1]: Vertex(1, 2, 1, chi=1),
                vids[2]: Vertex(1, 3, 1, chi=0), vids[3]: Vertex(1, 4, 1, chi=1)}
    jim = {vids[0]: vids[1], vids[1]: vids[0], vids[2]: vids[3], vids[3]: vids[2]}
    src = KrajewskiDiagram(prof, ko, vertices, jim, [])
    w1, w2 = (1, 1, 1), (1, 2, 1)
    tgt = KrajewskiDiagram(prof, ko, {w1: Vertex(1, 1, 1, chi=0), w2: Vertex(1, 2, 1, chi=1)},
                           {w1: w2, w2: w1}, [])
    arrow = BratteliArrow(prof, prof, ((1,),), (0,))
    u = {(vids[0], w1): [[1.0]], (vids[1], w2): [[1.0]],
         (vids[2], w1): [[1.0]], (vids[3], w2): [[1.0]]}
    return DiagramLift(arrow, src, tgt, u)


def d2_mixed_chi_lift():
    """A valid d=2 fiber whose chi decoration is not constant on each grading level.

    The s=+1 block of sigma is genuinely non-diagonal.
    """
    prof = AlgebraProfile((1,))
    ko = KOSignature.from_dim(2)
    vs = [(1, p, 1) for p in (1, 2, 3, 4)]
    vertices = {
        vs[0]: Vertex(1, 1, 1, s=1, chi=0), vs[1]: Vertex(1, 2, 1, s=-1, chi=1),
        vs[2]: Vertex(1, 3, 1, s=1, chi=1), vs[3]: Vertex(1, 4, 1, s=-1, chi=0),
    }
    jim = {vs[0]: vs[1], vs[1]: vs[0], vs[2]: vs[3], vs[3]: vs[2]}
    src = KrajewskiDiagram(prof, ko, vertices, jim, [])
    ws = [(1, 1, 1), (1, 2, 1)]
    tgt = KrajewskiDiagram(
        prof, ko,
        {ws[0]: Vertex(1, 1, 1, s=1, chi=1), ws[1]: Vertex(1, 2, 1, s=-1, chi=0)},
        {ws[0]: ws[1], ws[1]: ws[0]}, [],
    )
    arrow = BratteliArrow(prof, prof, ((1,),), (0,))
    u = {}
    for (v, val) in ((vs[0], 1.0), (vs[2], 1.0 + 0.5j)):
        ratio = epsilon_factor(src.vertices[v], 2) / epsilon_factor(tgt.vertices[ws[0]], 2)
        u[(v, ws[0])] = np.array([[val]])
        u[(src.jim[v], ws[1])] = ratio * np.array([[np.conj(val)]])
    return DiagramLift(arrow, src, tgt, u)


def hand_built_lifts():
    """The hand-built lifts of the lift tests, including the ones diagonalize_bases refuses."""
    one, two = identity_lift(), two_point_fiber_lift(1.0, 0.0)
    v = (1, 1, 1)
    return [
        one,
        DiagramLift(one.arrow, one.source, one.target, {(v, v): [[2.0]]}),
        two_point_fiber_lift(1.0 + 2.0j, -0.5 + 0.25j),
        two_point_fiber_lift(1.0, 1.0),
        two_point_fiber_lift(1.0, -0.5, s_sign=-1),
        DiagramLift(two.arrow, two.source, two.target, {(v, v): [[1.0]]}),  # the second vertex has no data
        diagonal_sigma_lift(),
        d3_chi_pairs_lift(),
        d2_mixed_chi_lift(),
    ]


def fiber_unitary(rng, layout, diag):
    """A random unitary Q on the middle factor of every fiber of diag, on layout."""
    rows = {}
    for fiber in diag.fibers().values():
        U = random_unitary(rng, len(fiber))
        rows.update({v: (fiber, U[:, p]) for p, v in enumerate(fiber)})
    return oracles.rotation(layout, rows)


def mix_fibers(rng, t, diag):
    """t conjugated by a random unitary on the middle factor of every fiber."""
    Q = fiber_unitary(rng, t.layout, diag)
    gamma = None if t.gamma is None else Q.conj().T @ t.gamma @ Q
    return RealSpectralTriple(t.profile, t.ko, t.layout, Q.conj().T @ t.D @ Q, Q.conj().T @ t.K @ np.conj(Q), gamma)
