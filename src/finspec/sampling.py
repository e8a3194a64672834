"""Seeded generators for random diagrams, arrows, lifts, and operators.

Everything takes an explicit numpy Generator so runs are reproducible; the
constructions bake in the structural constraints (grading opposition on
edges, the real-structure relation on edge and u data) by projection, so
the outputs are valid by construction at float precision.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, AlgebraProfile, frob
from .bratteli import BratteliArrow
from .differential import UniversalOneForm
from .krajewski import (
    KOSignature,
    KrajewskiDiagram,
    _diagonal_orbit,
    _edge_kind,
    _orbit_vertices,
    _vdim,
    extract_edges,
    realize,
    validate,
)
from .lifting import DiagramLift, PhiHMap, _conjugation, _u_shape


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_hermitian(rng, n, scale=1.0):
    m = random_complex(rng, (n, n), scale)
    return (m + m.conj().T) / 2


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vector(rng, n, scale=1.0):
    return random_complex(rng, (n,), scale)


def random_element(rng, profile: AlgebraProfile, scale=1.0) -> AlgebraElement:
    return AlgebraElement(profile, [random_complex(rng, (n, n), scale) for n in profile.dims])


def random_unitary_element(rng, profile: AlgebraProfile) -> AlgebraElement:
    return AlgebraElement(profile, [random_unitary(rng, n) for n in profile.dims])


def random_one_form(rng, profile: AlgebraProfile, n_terms=2, scale=1.0) -> UniversalOneForm:
    terms = tuple(
        (random_element(rng, profile, scale), random_element(rng, profile, scale))
        for _ in range(n_terms)
    )
    return UniversalOneForm(profile, terms)


def random_hermitian_form(rng, profile, n_terms=2, scale=1.0) -> UniversalOneForm:
    """A one-form with Hermitian representation: omega + omega*."""
    w = random_one_form(rng, profile, n_terms, scale)
    return w + w.adjoint()


def random_profile(rng, r_max=3, n_max=2) -> AlgebraProfile:
    r = int(rng.integers(1, r_max + 1))
    return AlgebraProfile(tuple(int(rng.integers(1, n_max + 1)) for _ in range(r)))


def random_even_vector(rng, t):
    """A state vector, projected to ker(gamma - 1) when the grading is present (ValueError if that is trivial)."""
    if t.gamma is not None and np.trace(np.eye(t.dim) + t.gamma).real < 0.5:
        raise ValueError("even subspace ker(gamma - 1) is trivial")
    for _ in range(100):
        v = random_vector(rng, t.dim)
        if t.gamma is not None:
            v = (v + t.gamma @ v) / 2
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            return v * (1.0 / nrm)
    raise RuntimeError("could not draw a nonzero even vector")


# ---------------------------------------------------------------------------
# diagrams


def _fiber_orbit(d, i, j, s=None):
    """The gradings of the vertices one jim orbit has in the fiber (i, j), i <= j: one off the diagonal."""
    return _diagonal_orbit(d, s) if i == j else (s,)


def random_diagram(rng, d, profile=None, max_fiber=2, edge_prob=0.6,
                   requirements=(), ensure_edge=False) -> KrajewskiDiagram:
    """A valid random diagram in KO-dimension d.

    requirements is an iterable of (i, j, s) triples guaranteeing that the
    fiber over (n_i, n_j) contains a vertex with grading s (s = +-1 in the
    even case, None in the odd case).  Vertices are in the normal form of
    classify: the fewest jim orbits holding the required gradings come
    first, and further orbits draw the grading the normal form leaves open.
    Edge decorations are drawn blockwise in the forced factor form and then
    projected onto Hermiticity and the real-structure relation, so the
    result always validates.
    """
    ko = KOSignature.from_dim(d)
    if profile is None:
        profile = random_profile(rng)
    r = profile.r

    # requirements carry multiplicity: one entry per needed vertex, on the fiber with i <= j
    req = {}
    for (i, j, s) in requirements:
        if ko.even and s not in (1, -1):
            raise ValueError(f"requirement {(i, j, s)} needs s = +-1 in even KO-dimension")
        s = s if ko.even else None
        if i > j:
            i, j, s = j, i, (ko.eps_pp * s if ko.even else None)
        req.setdefault((i, j), []).append(s)

    # the grading of the first vertex of each jim orbit the requirements need, and the fiber sizes
    firsts, sizes = {}, {}
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            base = int(rng.integers(0, max_fiber + 1))
            left = sorted(req.get((i, j), []), key=lambda s: s or 0, reverse=True)
            firsts[(i, j)] = []
            while left:  # open an orbit for the first requirement left; it holds the gradings of its vertices
                orbit = _fiber_orbit(d, i, j, left[0])
                firsts[(i, j)].append(orbit[0])
                for s in orbit:
                    if s in left:
                        left.remove(s)
            size = len(_fiber_orbit(d, i, j))
            cnt = max(base, size * len(firsts[(i, j)]))
            sizes[(i, j)] = cnt + -cnt % size

    if all(c == 0 for c in sizes.values()):
        sizes[(1, 1)] = len(_fiber_orbit(d, 1, 1))

    orbits = []
    for (i, j), cnt in sorted(sizes.items()):
        blank = _fiber_orbit(d, i, j)  # s = None where the normal form leaves the grading open
        size = len(blank)
        drawn = [int(rng.choice([1, -1])) if ko.even and blank[0] is None else blank[0]
                 for _ in range(cnt // size - len(firsts[(i, j)]))]
        for p, s in enumerate(firsts[(i, j)] + drawn):
            if i < j:
                orbits.append((((i, p + 1, j), (j, p + 1, i)), s))
            else:
                orbits.append((tuple((i, size * p + m, i) for m in range(1, size + 1)), s))
    vertices, jim = _orbit_vertices(ko, orbits)

    skeleton = KrajewskiDiagram(profile, ko, vertices, jim, [])
    t0 = realize(skeleton)
    layout = t0.layout

    vids = skeleton.sorted_vids()
    pairs = [(v1, v2, kind) for v1 in vids for v2 in vids if (kind := _edge_kind(v1, v2))
             and not (ko.even and vertices[v2].s != -vertices[v1].s)]
    for _attempt in range(21):  # with ensure_edge, draw again while no edge survives
        D = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
        for (v1, v2, kind) in pairs:
            if rng.random() > edge_prob:
                continue
            (n_i1, n_j1), (n_i2, n_j2) = _vdim(profile, v1), _vdim(profile, v2)
            terms = []  # D_L (x) 1 unless the kind is right, then 1 (x) D_R unless it is left
            if kind != "right":
                terms.append(np.kron(random_complex(rng, (n_i2, n_i1)), np.eye(n_j1)))
            if kind != "left":
                terms.append(np.kron(np.eye(n_i1), random_complex(rng, (n_j2, n_j1))))
            D[layout.block(v2).sl, layout.block(v1).sl] = sum(terms[1:], terms[0])
        D = (D + D.conj().T) / 2
        # dense K conj(D) K^dagger: conjugate_by_J's gather gives equal numbers but may flip the sign of a zero
        D = (D + ko.eps_p * (t0.K @ np.conj(D) @ t0.K.conj().T)) / 2
        edges = extract_edges(layout, D, 1e-12)
        if edges or not (ensure_edge and pairs):
            break

    diag = KrajewskiDiagram(profile, ko, vertices, jim, edges)
    rep = validate(diag, 1e-9)
    if not rep.ok:
        raise RuntimeError("generator produced an invalid diagram:\n" + str(rep))
    return diag


def random_arrow(rng, source: AlgebraProfile, s_max=2, alpha_max=2, n0_max=2) -> BratteliArrow:
    r = source.r
    s = int(rng.integers(1, s_max + 1))
    while True:
        alpha = rng.integers(0, alpha_max + 1, size=(s, r))
        if all(alpha[:, i].sum() > 0 for i in range(r)):
            break
    n0 = rng.integers(0, n0_max + 1, size=s)
    dims = []
    for k in range(s):
        m_k = int(n0[k] + alpha[k] @ np.array(source.dims))
        if m_k == 0:
            n0[k] = 1
            m_k = 1
        dims.append(m_k)
    return BratteliArrow(source, AlgebraProfile(tuple(dims)), tuple(map(tuple, alpha)), tuple(int(x) for x in n0))


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
        if k == l and i == j and len(_diagonal_orbit(source.d)) == 1:
            # jim-fixed target vertices carry a hermiticity constraint on u;
            # demand one more for the halved free dimension
            req.append((k, l, source.vertex(v).s))
    return random_diagram(
        rng, source.d, profile=arrow.target, max_fiber=max_fiber,
        edge_prob=edge_prob, requirements=req, ensure_edge=ensure_edge,
    )


# ---------------------------------------------------------------------------
# lifts and compatible operator pairs


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
    groups = _source_groups(source)

    support = {}
    for key in sorted(groups, key=str):
        if key in support:
            continue
        vids = groups[key]
        v0, w0 = vids[0], source.jim[vids[0]]
        partner_key = (w0[0], w0[2], source.vertex(w0).s)
        self_paired = partner_key == key
        admissible = []
        for w in target.sorted_vids():
            if 0 in _u_shape(arrow, v0, w):
                continue
            if source.ko.even and source.vertex(v0).s != target.vertex(w).s:
                continue
            admissible.append(w)
        sel = {w for w in admissible if rng.random() < 0.7}
        capacity = lambda ws: sum(np.prod(_u_shape(arrow, v0, w)) for w in ws)
        for w in admissible:  # conservatively, the jim constraint halves the capacity of a self-paired group
            if capacity(sel) // (2 if self_paired else 1) >= len(vids):
                break
            sel.add(w)
        if capacity(admissible) < len(vids):
            raise RuntimeError(f"target cannot make phi_H one-to-one on group {key}")
        if self_paired:
            sel |= {target.jim[w] for w in sel}
        support[key] = sorted(sel)
        support[partner_key] = sorted({target.jim[w] for w in sel})

    # one representative per (jim_A, jim_B) orbit of the supported pairs
    pairs = [(v, w) for key, vids in groups.items() for v in vids for w in support[key]]
    u = {}
    for (v, w) in sorted({min((v, w), _conjugation(source, target, v, w)[0]) for v, w in pairs}):
        partner, ratio = _conjugation(source, target, v, w)
        m = random_complex(rng, _u_shape(arrow, v, w))
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


def random_strong_pair(rng, phiH: PhiHMap):
    """(A, B) strong phi-compatible: B = M A M* plus an arbitrary complement block."""
    if not phiH.normalized:
        raise ValueError("strong pairs are built over a normalized phi_H")
    M = phiH.matrix
    nA, nB = M.shape[1], M.shape[0]
    A = random_complex(rng, (nA, nA))
    C = random_complex(rng, (nB, nB))
    off = phiH.off_range  # (1-P) C (1-P) = ((1-P) ((1-P) C)*)*
    B = M @ A @ M.conj().T + off(off(C).conj().T).conj().T
    return A, B


def random_compatible_fermions(rng, phiH: PhiHMap, tA, tB):
    """A phi-compatible even fermion pair (psi_A, phi_H psi_A + perp), perp off the range of phi_H.

    psi_A is random_even_vector(rng, tA); perp is projected to ker(gamma_B - 1) when tB is graded.
    """
    psi_A = random_even_vector(rng, tA)
    perp = phiH.off_range(random_vector(rng, tB.dim))
    if tB.gamma is not None:
        perp = (perp + tB.gamma @ perp) / 2
    return psi_A, phiH.matrix @ psi_A + perp


def weaken_pair(rng, phiH: PhiHMap, B):
    """Add a nonzero perp <- range block (1-P) E P = (1-P) E Q Q*: stays weakly compatible, breaks strong."""
    Q = phiH.range_basis
    E = random_complex(rng, (Q.shape[0], Q.shape[0]))
    off = phiH.off_range(E @ Q) @ Q.conj().T
    if frob(off) < 1e-9:
        raise RuntimeError("degenerate weakening block")
    return B + off
