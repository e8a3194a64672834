"""Minimal hand-built diagrams, one per KO-dimension, with nonzero Dirac data.

The sign constraints leave little room at small size:

  d=0: two jim-fixed diagonal vertices s=+-1, one real edge between them;
  d=1: two jim-fixed diagonal vertices, D forced anti-real (pure imaginary);
  d=2: two chi-pairs, the in-pair edge is forced to vanish so the edge
       joins the pairs crosswise;
  d=3: one chi-pair with equal real self-loops;
  d=4: two chi-pairs of opposite grading, crosswise edge;
  d=5: one chi-pair with opposite real self-loops;
  d=6: one chi-pair with a real edge inside the pair;
  d=7: a single vertex with a real self-loop.

Every vertex sits over (1, 1), in the KO normal form of _diagonal_orbit.
"""

from __future__ import annotations

from .algebra import AlgebraProfile
from .krajewski import Edge, KOSignature, KrajewskiDiagram, _diagonal_orbit, _orbit_vertices

# d -> (the s of the first vertex of each jim orbit, the supplied edge (p1, p2, op / t))
_MINIMAL = {
    0: ((1, -1), (1, 2, 1)),
    1: ((None, None), (1, 2, 1j)),
    2: ((-1, -1), (1, 4, 1)),
    3: ((None,), (1, 1, 1)),
    4: ((1, -1), (1, 3, 1)),
    5: ((None,), (1, 1, 1)),
    6: ((1,), (1, 2, 1)),
    7: ((None,), (1, 1, 1)),
}


def minimal_diagram(d: int, t: float = 1.0) -> KrajewskiDiagram:
    """The smallest diagram over A = C in KO-dimension d whose D is nonzero."""
    ko = KOSignature.from_dim(d)
    if d not in _MINIMAL:
        raise ValueError("d must be 0..7")
    if t == 0:
        raise ValueError(f"t must be nonzero, got t = {t}: D would vanish")
    firsts, (p1, p2, c) = _MINIMAL[d]
    size = len(_diagonal_orbit(d))
    orbits = [(tuple((1, size * k + m, 1) for m in range(1, size + 1)), s) for k, s in enumerate(firsts)]
    vertices, jim = _orbit_vertices(ko, orbits)
    edge = Edge((1, p1, 1), (1, p2, 1), "general", [[c * t]])
    return KrajewskiDiagram(AlgebraProfile((1,)), ko, vertices, jim, [edge])
