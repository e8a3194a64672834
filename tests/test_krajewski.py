import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import mix_fibers
from oracles import swap_matrix

from finspec import krajewski
from finspec.algebra import AlgebraProfile, frob, unit_insert
from finspec.catalog import minimal_diagram
from finspec.krajewski import (
    EDGE_KINDS,
    ClassificationError,
    DiagramError,
    Edge,
    KOSignature,
    KrajewskiDiagram,
    RealSpectralTriple,
    Vertex,
    _FACTOR_LINES,
    _jim_op,
    classify,
    complete_edges,
    detect_ko,
    epsilon_factor,
    realize,
    validate,
    verify_axioms,
)
from finspec.sampling import random_complex, random_diagram, random_hermitian, random_unitary, rng_from_seed

ALL_D = list(range(8))


def test_ko_table_rows():
    rows = {d: KOSignature.from_dim(d) for d in ALL_D}
    assert (rows[0].eps, rows[0].eps_p, rows[0].eps_pp) == (1, 1, 1)
    assert (rows[6].eps, rows[6].eps_p, rows[6].eps_pp) == (1, 1, -1)
    assert (rows[5].eps, rows[5].eps_p, rows[5].eps_pp) == (-1, -1, None)
    with pytest.raises(DiagramError):
        KOSignature(2, 1, 1, -1)  # wrong eps for d=2


def test_epsilon_factor_values():
    assert epsilon_factor(Vertex(1, 1, 2, s=1), 0) == 1          # i < j, any d
    assert epsilon_factor(Vertex(2, 1, 1, s=1), 2) == -1         # i > j, eps(d=2) = -1
    assert epsilon_factor(Vertex(1, 1, 1, s=1, chi=1), 4) == -1  # diagonal, eps^chi with eps(4) = -1
    assert epsilon_factor(Vertex(1, 1, 1), 7) == 1
    with pytest.raises(DiagramError):
        epsilon_factor(Vertex(1, 1, 1, s=1), 4)  # chi required on the diagonal


def single_vertex_d0():
    v = (1, 1, 1)
    return KrajewskiDiagram(
        AlgebraProfile((1,)), KOSignature.from_dim(0), {v: Vertex(1, 1, 1, s=1)}, {v: v}, []
    )


def test_validate_trivial_passes():
    rep = validate(single_vertex_d0())
    assert rep.ok


def test_validate_even_edge_grading_violation():
    prof = AlgebraProfile((1,))
    v1, v2 = (1, 1, 1), (1, 2, 1)
    diag = KrajewskiDiagram(
        prof, KOSignature.from_dim(0),
        {v1: Vertex(1, 1, 1, s=1), v2: Vertex(1, 2, 1, s=1)},
        {v1: v1, v2: v2},
        [Edge(v1, v2, "general", [[1.0]])],
    )
    rep = validate(diag)
    assert not rep.ok
    assert any("s(v2) = -s(v1)" in c.name for c in rep.failures())


def test_validate_broken_involution():
    prof = AlgebraProfile((1,))
    vids = [(1, 1, 1), (1, 2, 1), (1, 3, 1)]
    vertices = {v: Vertex(*v, s=1) for v in vids}
    jim = {vids[0]: vids[1], vids[1]: vids[2], vids[2]: vids[0]}
    diag = KrajewskiDiagram(prof, KOSignature.from_dim(0), vertices, jim, [])
    rep = validate(diag)
    assert not rep.ok
    assert any("involutive" in c.name for c in rep.failures())


def test_validate_stops_at_bad_vertex_ids_and_missing_jim():
    prof = AlgebraProfile((1,))
    v, bad = (1, 1, 1), (2, 1, 1)  # block 2 does not exist
    out_of_range = KrajewskiDiagram(prof, KOSignature.from_dim(7), {v: Vertex(*v), bad: Vertex(*bad)},
                                    {v: v, bad: bad}, [])
    no_jim = KrajewskiDiagram(prof, KOSignature.from_dim(7), {v: Vertex(*v)}, {}, [])
    for diag, failure in ((out_of_range, f"vertex {bad} indices in range"), (no_jim, "jim is defined on all vertices")):
        assert [c.name for c in validate(diag).failures()] == [failure]
        with pytest.raises(DiagramError):
            realize(diag)


def test_realize_trivial():
    t = realize(single_vertex_d0())
    assert t.dim == 1
    assert np.allclose(t.D, 0)
    assert np.allclose(t.K, np.eye(1))       # J is plain conjugation
    assert np.allclose(t.gamma, np.eye(1))
    assert detect_ko(t, 1e-12) == {0}        # even rows all share eps' = 1


def test_validate_edge_shape_mismatch():
    diag = minimal_diagram(6, 1.0)
    bad = KrajewskiDiagram(
        diag.profile, diag.ko, diag.vertices, diag.jim,
        [Edge((1, 1, 1), (1, 2, 1), "general", np.eye(2))],
    )
    rep = validate(bad)
    assert not rep.ok
    assert any("op shape" in c.name for c in rep.failures())


def test_realize_d6_two_point_frozen():
    # hand-computed 2x2 realization of the d=6 pair with a real edge t
    tval = 0.7
    diag = minimal_diagram(6, tval)
    t = realize(diag)
    assert np.allclose(t.D, [[0, tval], [tval, 0]])
    assert np.allclose(np.diag(t.gamma), [1, -1])
    assert np.allclose(t.K, [[0, 1], [1, 0]])  # J(z1, z2) = (conj z2, conj z1)
    rep = verify_axioms(t, 1e-12)
    assert rep.ok
    assert (t.ko.eps, t.ko.eps_p, t.ko.eps_pp) == (1, 1, -1)
    assert detect_ko(t) == {6}


def test_realize_rejects_invalid():
    prof = AlgebraProfile((1,))
    v1, v2 = (1, 1, 1), (1, 2, 1)
    diag = KrajewskiDiagram(
        prof, KOSignature.from_dim(0),
        {v1: Vertex(1, 1, 1, s=1), v2: Vertex(1, 2, 1, s=1)},
        {v1: v1, v2: v2},
        [Edge(v1, v2, "general", [[1.0]])],
    )
    with pytest.raises(DiagramError):
        realize(diag)


def test_orbit_completion_from_single_representative():
    # one supplied edge grows to the full {e, ebar, jim(e), jim(ebar)} orbit
    diag = minimal_diagram(1, 2.0)  # edge op is 2i between jim-fixed vertices
    t = realize(diag)
    assert np.allclose(t.D, [[0, -2j], [2j, 0]])
    assert verify_axioms(t, 1e-12).ok


def test_orbit_completion_conflict():
    diag = minimal_diagram(6, 1.0)
    v1, v2 = (1, 1, 1), (1, 2, 1)
    bad = KrajewskiDiagram(
        diag.profile, diag.ko, diag.vertices, diag.jim,
        [Edge(v1, v2, "general", [[1.0]]), Edge(v2, v1, "general", [[5.0]])],
    )
    rep = validate(bad)
    assert not rep.ok
    assert any("orbit consistency" in c.name for c in rep.failures())


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e3, 1e6))
def test_validate_verdict_does_not_depend_on_edge_units(c):
    """With the edge ops scaled by c, the diagram passes, and a split defect or an orbit
    conflict fails, also at relative size 1e-6 (which passed at c = 1e-6 against
    the bound tol max(1, ||op||_F))."""
    diag = random_diagram(rng_from_seed(1), 6, AlgebraProfile((2, 3, 4)), max_fiber=2)
    scaled = lambda edges: KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim, edges)
    edges = [Edge(e.src, e.dst, e.kind, c * e.op) for e in diag.edges]
    assert validate(scaled(edges)).ok

    e = edges[0]
    k = next(k for k, f in enumerate(edges) if (f.src, f.dst) == (e.dst, e.src))  # the adjoint of e, supplied too
    direction = np.random.default_rng(0).standard_normal(e.op.shape)
    for noise, conflict in ((0.1 * c * direction, 1e-3), (1e-6 * frob(e.op) * direction / frob(direction), 1e-6)):
        rep = validate(scaled([Edge(e.src, e.dst, e.kind, e.op + noise)] + edges[1:]))
        assert [f.name for f in rep.failures()] == [f"edge {e.src}->{e.dst} splits as D_L (x) 1 + 1 (x) D_R"]
        off = edges[:k] + [Edge(e.dst, e.src, e.kind, (1 + conflict) * edges[k].op)] + edges[k + 1:]
        rep = validate(scaled(off))
        assert rep.failures() and all("orbit consistency" in f.name for f in rep.failures())


@pytest.mark.parametrize("forced", ("right", "left"))
def test_a_mis_kinded_edge_fails_one_kind_line(forced):
    """An edge the lattice forces to be right (left), labelled with either other kind, fails only 'must be kind=right' ('left')."""
    diag = random_diagram(rng_from_seed(1), 6, AlgebraProfile((2, 3, 4)), max_fiber=2)
    k, e = next((k, e) for k, e in enumerate(diag.edges) if e.kind == forced)
    for kind in sorted(set(EDGE_KINDS) - {forced}):
        edges = diag.edges[:k] + [Edge(e.src, e.dst, kind, e.op)] + diag.edges[k + 1:]
        rep = validate(KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim, edges))
        assert [f.name for f in rep.failures()] == [f"edge {e.src}->{e.dst} must be kind={forced}"], kind


@pytest.mark.parametrize("c", (1e-11, 1e-20))
def test_small_edges_are_nonzero_against_the_largest_edge(c):
    """With its edge ops, or D, scaled by c the diagram validates and classify keeps all 24 edges.

    At c = 1e-11 validate failed 'op nonzero' and classify dropped every block
    while both measured against absolute bounds.
    """
    diag = random_diagram(rng_from_seed(1), 6, AlgebraProfile((2, 3, 4)), max_fiber=2)
    assert len(diag.edges) == 24
    assert validate(KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim,
                                     [Edge(e.src, e.dst, e.kind, c * e.op) for e in diag.edges])).ok
    t = realize(diag)
    found = [classify(RealSpectralTriple(t.profile, t.ko, t.layout, x * t.D, t.K, t.gamma))[0] for x in (1.0, c)]
    assert [sorted((e.src, e.dst) for e in f.edges) for f in found] == [sorted((e.src, e.dst) for e in found[0].edges)] * 2
    assert len(found[1].edges) == 24


@pytest.mark.parametrize("d", ALL_D)
def test_minimal_diagrams_all_dimensions(d):
    diag = minimal_diagram(d, 0.9)
    assert validate(diag, 1e-12).ok
    t = realize(diag)
    rep = verify_axioms(t, 1e-12)
    assert rep.ok, str(rep)
    assert np.abs(t.D).max() > 0
    assert detect_ko(t, 1e-10) == {d}


def test_detect_ko_d5_signature():
    # odd triple with J^2 = -1 and JD = -DJ
    t = realize(minimal_diagram(5, 1.3))
    assert detect_ko(t) == {5}


def test_detect_ko_degenerate_zero_dirac():
    # with D = 0 the eps' relation is unconstrained: several odd rows match
    prof = AlgebraProfile((1,))
    v = (1, 1, 1)
    diag = KrajewskiDiagram(prof, KOSignature.from_dim(7), {v: Vertex(1, 1, 1)}, {v: v}, [])
    t = realize(diag)
    ks = detect_ko(t)
    assert 7 in ks and ks == {1, 7}


def test_verify_axioms_zero_dirac_all_zero_residuals():
    prof = AlgebraProfile((1,))
    v = (1, 1, 1)
    diag = KrajewskiDiagram(prof, KOSignature.from_dim(0), {v: Vertex(1, 1, 1, s=1)}, {v: v}, [])
    rep = verify_axioms(realize(diag), 1e-14)
    assert rep.ok and rep.max_residual == 0.0


def test_first_order_violation_by_single_entry_perturbation():
    # two vertices sharing lambda (i=1) with distinct rho over profile (2, 1):
    # any single-entry block that is not 1 (x) R breaks the first-order check
    prof = AlgebraProfile((2, 1))
    ko = KOSignature.from_dim(7)
    va, vb, vc = (1, 1, 1), (1, 1, 2), (2, 1, 1)
    vertices = {va: Vertex(*va), vb: Vertex(*vb), vc: Vertex(*vc)}
    jim = {va: va, vb: vc, vc: vb}
    diag = KrajewskiDiagram(prof, ko, vertices, jim, [])
    t = realize(diag)
    blk_rows = t.layout.block(vb)
    blk_cols = t.layout.block(va)
    found_violation = False
    for r in range(blk_rows.length):
        for c in range(blk_cols.length):
            D = t.D.copy()
            D[blk_rows.offset + r, blk_cols.offset + c] = 1.0
            t2 = type(t)(t.profile, t.ko, t.layout, D, t.K, t.gamma)
            rep = verify_axioms(t2, 1e-10)
            first = rep["first order [[D, pi(a)], J pi(b)* J^-1] = 0"]
            if not first.passed:
                found_violation = True
            # the block is 2x2 on C^2 (x) C^1: 1 (x) R is scalar, so every
            # single entry fails
            assert not first.passed, (r, c)
    assert found_violation


@pytest.mark.parametrize("d", ALL_D)
def test_random_diagrams_realize_and_verify(d):
    rng = rng_from_seed(100 + d)
    for _ in range(6):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        t = realize(diag)
        rep = verify_axioms(t, 1e-12)
        assert rep.ok, str(rep)
        detected = detect_ko(t, 1e-10)
        if np.abs(t.D).max() > 1e-10:
            assert detected == {d}
        else:
            assert d in detected
        # epsilon(v,d) epsilon(jim v, d) = eps on every vertex
        for vid in diag.sorted_vids():
            prod = epsilon_factor(diag.vertex(vid), d) * epsilon_factor(diag.vertex(diag.jim[vid]), d)
            assert prod == diag.ko.eps


def test_commutant_exact_by_construction():
    rng = rng_from_seed(41)
    diag = random_diagram(rng, 6, max_fiber=2, edge_prob=0.7, ensure_edge=True)
    t = realize(diag)
    rep = verify_axioms(t, 1e-13)
    assert rep["commutant [pi(a), J pi(b)* J^-1] = 0"].residual <= 1e-13


def test_non_unitary_K_fails_its_own_line():
    # the order conditions are measured in the frame K^dagger (.) K, which is
    # J pi(b)* J^-1 only for unitary K; a scaled K must fail the unitarity line
    t = realize(random_diagram(rng_from_seed(42), 6, max_fiber=2, edge_prob=0.7, ensure_edge=True))
    rep = verify_axioms(type(t)(t.profile, t.ko, t.layout, t.D, 1.01 * t.K, t.gamma))
    assert rep.ok is False
    assert "J antiunitary (K unitary)" in [c.name for c in rep.failures()]


def test_realize_closes_the_edge_orbits_once(monkeypatch):
    """realize and validate each group the edges once and close their orbits once, on the groups of the factor lines."""
    calls = []

    def spy(name):
        real = getattr(krajewski, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(krajewski, name, counted)

    diag = random_diagram(rng_from_seed(43), 6, max_fiber=2, edge_prob=0.7, ensure_edge=True)
    D = realize(diag).D
    spy("_edge_groups")
    spy("_close")
    t = realize(diag)
    assert calls == ["_edge_groups", "_close"]
    assert validate(diag).ok and calls == ["_edge_groups", "_close"] * 2
    assert np.array_equal(t.D, D)


@pytest.mark.parametrize("d", ALL_D)
def test_complete_edges_forms_the_jim_images_once_per_group(d, monkeypatch):
    """complete_edges forms the jim images of an _edge_groups group in one _jim_op call on its whole stack, at most
    once per group and call, not one image per label."""
    calls, real = [], krajewski._jim_op

    def spy(diag, src, dst, op, sign):
        calls.append((src, dst, len(op)))
        return real(diag, src, dst, op, sign)

    monkeypatch.setattr(krajewski, "_jim_op", spy)
    rng = rng_from_seed(4400 + d)
    for _ in range(3):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        groups = {(diag.edges[ks[0]].src, diag.edges[ks[0]].dst, len(ks))
                  for _dims, _kind, ks, _ops in krajewski._edge_groups(diag, range(len(diag.edges)))}
        calls.clear()
        complete_edges(diag)
        assert bool(calls) == bool(diag.edges) and len(set(calls)) == len(calls) and set(calls) <= groups


def test_complete_edges_names_a_malformed_edge():
    """An op cut short and an edge to a vertex that is not there: validate reports each as a failed line, and
    complete_edges raises DiagramError naming the edge and the condition, not a numpy or dict error."""
    diag = random_diagram(rng_from_seed(3), 6, max_fiber=2, edge_prob=0.7, ensure_edge=True)
    e, stray = diag.edges[0], (9, 1, 9)
    with_edges = lambda edges: KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim, edges)
    cases = (
        (with_edges([Edge(e.src, e.dst, e.kind, e.op[:, :-1])] + diag.edges[1:]), f"edge {e.src}->{e.dst} op shape",
         f"edge {e.src}->{e.dst}: op shape {e.op[:, :-1].shape}, not {e.op.shape}"),
        (with_edges(diag.edges + [Edge(e.src, stray, e.kind, e.op)]), f"edge {e.src}->{stray} endpoints exist",
         f"edge {e.src}->{stray}: endpoint {stray} is not a vertex"),
    )
    for g, line, message in cases:
        assert line in [c.name for c in validate(g).failures()]
        with pytest.raises(DiagramError, match=re.escape(message)):
            complete_edges(g)


def test_classify_names_the_fiber_of_a_basis_failure():
    """A grading flipped on one diagonal vertex leaves its fiber without the s = -1 eigenspace that the
    d = 6 normal form pairs; classify's step 3 names that fiber."""
    t = realize(random_diagram(rng_from_seed(0), 6, max_fiber=2, edge_prob=0.7, ensure_edge=True))
    block = next(b for b in t.layout.blocks if b.vid[0] == b.vid[2])
    gamma = t.gamma.copy()
    gamma[block.sl, block.sl] *= -1
    i = block.vid[0]
    with pytest.raises(ClassificationError, match=re.escape(
            f"at step 'grading split': fiber ({i},{i}): s=-1 eigenspace has dim 0, fiber size 2")):
        classify(RealSpectralTriple(t.profile, t.ko, t.layout, t.D, t.K, gamma))


def test_verify_axioms_peak_memory_is_a_few_dense_matrices():
    """One verify_axioms call on a realized d = 6 triple of n = 288 (eight vertices over one lattice point of
    M_6 + M_3, the shape of the d = 6 lift target) allocates at most 8 complex n x n matrices at its peak,
    so no reader holds a stack of dense frames."""
    diag = random_diagram(rng_from_seed(24), 6, AlgebraProfile((6, 3)), max_fiber=0, edge_prob=0.5,
                          requirements=[(1, 1, 1)] * 4, ensure_edge=True)
    t = realize(diag)
    assert t.dim == 288
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert verify_axioms(t).ok
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * t.dim ** 2 * 16


@pytest.mark.parametrize("d", ALL_D)
def test_jim_op_is_the_swap_matrix_product(d):
    # one vertex over every lattice point of (1, 2, 3), so (src, dst) runs over every vertex-dimension shape
    prof = AlgebraProfile((1, 2, 3))
    ko = KOSignature.from_dim(d)
    vertices = {}
    for i, j in itertools.product(range(1, 4), repeat=2):
        vertices[(i, 1, j)] = Vertex(i, 1, j, chi=i % 2 if i == j and d in (2, 3, 4, 5, 6) else None)
    diag = KrajewskiDiagram(prof, ko, vertices, {v: (v[2], 1, v[0]) for v in vertices}, [])
    rng = rng_from_seed(1900 + d)
    for src, dst in itertools.product(vertices, repeat=2):
        (n_i1, n_j1), (n_i2, n_j2) = [(prof.dim(v[0]), prof.dim(v[2])) for v in (src, dst)]
        op = random_complex(rng, (n_i2 * n_j2, n_i1 * n_j1))
        sign = ko.eps_p * epsilon_factor(vertices[src], d) * epsilon_factor(vertices[dst], d)
        expected = sign * swap_matrix(n_i2, n_j2) @ np.conj(op) @ swap_matrix(n_j1, n_i1)
        assert np.array_equal(_jim_op(diag, src, dst, op, sign), expected), (src, dst)


SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8)


def _verdicts(diag, t, c):
    """validate on the diagram with its edge ops scaled by c; verify_axioms, detect_ko and classify on t with D -> c D."""
    scaled = KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim,
                              [Edge(e.src, e.dst, e.kind, c * e.op) for e in diag.edges])
    tc = RealSpectralTriple(t.profile, t.ko, t.layout, c * t.D, t.K, t.gamma)
    try:
        found, _W = classify(tc)
        classified = sorted((e.src, e.dst) for e in found.edges)
    except ClassificationError as exc:
        classified = exc.step
    return validate(scaled).ok, [ch.passed for ch in verify_axioms(tc).checks], detect_ko(tc), classified


@pytest.mark.parametrize("d", [None] + ALL_D)
def test_verdicts_do_not_depend_on_the_units_of_D(d):
    """None is the (2, 3, 4) d = 6 diagram whose first-order line failed at c = 1e6 under an absolute bound.

    The fourth form adds an anti-Hermitian defect of 1e-6 ||D||_F, which passed at c = 1e-6 under tol max(1, ||D||_F).
    """
    rng = rng_from_seed(2410 + (d or 0))
    if d is None:
        diag = random_diagram(rng_from_seed(1), 6, AlgebraProfile((2, 3, 4)), max_fiber=2)
    else:
        diag = random_diagram(rng_from_seed(2400 + d), d, AlgebraProfile((1, 2)), max_fiber=2,
                              edge_prob=0.7, ensure_edge=True)
    t = realize(diag)
    H = random_hermitian(rng, t.dim)
    noisy = RealSpectralTriple(t.profile, t.ko, t.layout, t.D + 0.5 * frob(t.D) / frob(H) * H, t.K, t.gamma)
    mixed = mix_fibers(rng, t, diag)
    A = 1j * random_hermitian(rng, t.dim)
    skewed = RealSpectralTriple(t.profile, t.ko, t.layout, t.D + 1e-6 * frob(t.D) / frob(A) * A, t.K, t.gamma)
    for form, ok in ((t, True), (mixed, True), (noisy, False), (skewed, False)):
        verdicts = [_verdicts(diag, form, c) for c in SCALES]
        assert all(v == verdicts[0] for v in verdicts), (ok, verdicts)
        assert all(verdicts[0][1]) == ok and isinstance(verdicts[0][3], list) == ok


def _with_dirac(t, D):
    return RealSpectralTriple(t.profile, t.ko, t.layout, D, t.K, t.gamma)


def _noisy(rng, t, size):
    """t with Hermitian noise of size ||D||_F added to D."""
    H = random_hermitian(rng, t.dim)
    return _with_dirac(t, t.D + size * frob(t.D) / frob(H) * H)


@pytest.mark.parametrize("d", ALL_D)
def test_classify_returns_only_diagrams_that_validate(d):
    """Realized, fiber-mixed and slightly noisy triples at three scales: classify raises or its diagram validates."""
    rng = rng_from_seed(2600 + d)
    returned = raised = 0
    for _ in range(3):
        diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        t = realize(diag)
        for form in (t, mix_fibers(rng, t, diag), _noisy(rng, t, 1e-2)):
            for c in (1e-6, 1.0, 1e3):
                try:
                    found, _W = classify(_with_dirac(form, c * form.D))
                except ClassificationError:
                    raised += 1
                    continue
                assert validate(found).ok
                returned += 1
    assert returned and raised


def _found_example(seed, d):
    """The seed's diagram realized, with Hermitian noise of 1e-2 ||D||_F from the same generator."""
    rng = rng_from_seed(seed)
    diag = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
    return _noisy(rng, realize(diag), 1e-2)


@pytest.mark.parametrize("c", SCALES)
def test_classify_rejects_a_small_dirac_that_does_not_factor(c):
    """An edge of D that misses its factorization by 1e-2 of ||D||_F is rejected at every scale of D."""
    t = _found_example(2401, 1)
    assert not verify_axioms(_with_dirac(t, c * t.D)).ok
    with pytest.raises(ClassificationError, match="diagram validation"):
        classify(_with_dirac(t, c * t.D))


def test_classify_rejects_a_dirac_that_breaks_the_edge_orbits():
    """JD = eps' DJ fails, so the edges read off D and their jim images disagree."""
    t = _found_example(2403, 3)
    assert [c.name for c in verify_axioms(t).failures()] == ["JD = eps' DJ"]
    with pytest.raises(ClassificationError, match="edge orbit consistency"):
        classify(t)


_UNIT = re.compile(r"E\^(\d+)_\{(\d+),(\d+)\}")


def _named_units(t, detail):
    """The algebra elements E^k_xy named in a witness, in order."""
    out = []
    for k, x, y in _UNIT.findall(detail):
        m = np.zeros((t.profile.dim(int(k)),) * 2)
        m[int(x), int(y)] = 1.0
        out.append(unit_insert(t.profile, int(k), m))
    return out


@pytest.mark.parametrize("d", ALL_D)
def test_order_condition_witness_attains_the_residual(d):
    rng = rng_from_seed(2500 + d)
    diag = random_diagram(rng, d, AlgebraProfile((1, 2)), max_fiber=2, edge_prob=0.7, ensure_edge=True)
    while {v[0] for v in diag.vertices} != {1, 2}:  # pi(a) scalar on H leaves the commutant exactly 0
        diag = random_diagram(rng, d, AlgebraProfile((1, 2)), max_fiber=2, edge_prob=0.7, ensure_edge=True)
    t = realize(diag)
    n = t.dim
    noise = lambda X: None if X is None else X + 0.5 * random_hermitian(rng, n)
    t = RealSpectralTriple(t.profile, t.ko, t.layout, noise(t.D), t.K @ random_unitary(rng, n), noise(t.gamma))
    rep = verify_axioms(t)
    comm = lambda X, Y: X @ Y - Y @ X
    lines = {  # the residual of each line at the units it names, with dense operators
        "commutant [pi(a), J pi(b)* J^-1] = 0": lambda a, b: frob(comm(t.pi(a), t.right(b))),
        "first order [[D, pi(a)], J pi(b)* J^-1] = 0": lambda a, b: frob(comm(comm(t.D, t.pi(a)), t.right(b))),
    }
    if t.ko.even:
        lines["gamma commutes with pi(a)"] = lambda a: frob(comm(t.gamma, t.pi(a)))
    for name, dense in lines.items():
        check = rep[name]
        assert not check.passed and check.detail.startswith("worst at a = E^"), (name, check.detail)
        units = _named_units(t, check.detail)
        assert len(units) == (1 if name.startswith("gamma") else 2)
        assert abs(dense(*units) - check.residual) <= 1e-12 * check.residual, (name, check.detail)


@pytest.mark.parametrize("d", ALL_D)
def test_validate_names_edge_norms_that_overflow(d):
    """An edge entry near 1e300 overflows the square in its norm: validate adds one failing line that says so,
    with no numpy warning (warnings are errors here), and at 1e153 the report has the lines of t = 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, large, unit = (validate(minimal_diagram(d, t)) for t in (1e300, 1e153, 1.0))
    assert not huge.ok and not huge["edge norms are finite (entries below about 1e154)"].passed
    assert large.ok and [c.name for c in large.checks] == [c.name for c in unit.checks]


@pytest.mark.parametrize("d", ALL_D)
def test_validate_judges_op_nonzero_against_the_largest_finite_norm(d):
    """Where every edge norm overflows (t = 1e155 and 1e300), the finiteness line is the only failure: an edge whose
    norm is inf counts as nonzero, and the others are judged against tol times the largest finite norm."""
    for t in (1e155, 1e300):
        rep = validate(minimal_diagram(d, t))
        assert [c.name for c in rep.failures()] == ["edge norms are finite (entries below about 1e154)"], (t, str(rep))


@pytest.mark.parametrize("d", ALL_D)
def test_report_lines_pass_exactly_below_their_bounds(d):
    """Every residual line of validate and verify_axioms records its bound, and passes exactly when
    residual <= bound: tol ||op||_F on the factor lines, tol ||D||_F on the lines linear in D.

    Besides the diagram and its triple, one edge op with a split defect and D with Hermitian noise,
    so both verdicts occur.
    """
    tol = 1e-10
    rng = rng_from_seed(1960 + d)
    diag = next(g for g in iter(lambda: random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True), None)
                if g.edges)
    e = diag.edges[0]
    bent = KrajewskiDiagram(diag.profile, diag.ko, diag.vertices, diag.jim,
                            [Edge(e.src, e.dst, e.kind, e.op + 1e-6 * random_complex(rng, e.op.shape))] + diag.edges[1:])
    t = realize(diag)
    noisy = RealSpectralTriple(t.profile, t.ko, t.layout, t.D + 1e-6 * random_hermitian(rng, t.dim), t.K, t.gamma)
    reps = [validate(diag, tol), validate(bent, tol), verify_axioms(t, tol), verify_axioms(noisy, tol)]
    verdicts = set()
    for rep in reps:
        for c, row in zip(rep.checks, rep.as_dict()["checks"]):
            assert row["bound"] == c.bound
            if c.bound is not None:
                assert c.passed == (c.residual <= c.bound), c.name
                assert f"bound={c.bound:.3e}" in str(rep)
                verdicts.add(c.passed)
    assert verdicts == {True, False}
    for g, rep in zip((diag, bent), reps):
        for f in g.edges:
            bound = rep[f"edge {f.src}->{f.dst} {_FACTOR_LINES[f.kind]}"].bound
            assert bound == pytest.approx(tol * frob(f.op), rel=1e-12)
    linear = ["D hermitian", "JD = eps' DJ", "first order [[D, pi(a)], J pi(b)* J^-1] = 0"]
    linear += ["gamma D + D gamma = 0"] if d % 2 == 0 else []
    for tc, rep in zip((t, noisy), reps[2:]):
        for name in linear:
            assert rep[name].bound == pytest.approx(tol * frob(tc.D), rel=1e-12), name
