"""Seeded inputs of the benchmark workloads.

Every case has a fixed make-up: KO-dimension d, algebra profile, the number
of vertices over each lattice point (i, j) and, for lifts, the Bratteli
arrow.  The seed draws only the continuous data (edge operators, gradings
of off-diagonal fibers are fixed too), so the Hilbert dimensions n, nA and
nB, and with them the cost of every op, are the same for every seed.

    python3 bench/run.py --cases --seed 1     # print the make-up table
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finspec.algebra import AlgebraProfile
from finspec.bratteli import BratteliArrow
from finspec.bundle import Bundle
from finspec.catalog import minimal_diagram
from finspec.krajewski import realize
from finspec.lifting import diagonalize_bases, inherit_source_dirac, normalize
from finspec.sampling import (
    random_compatible_target,
    random_diagram,
    random_hermitian_form,
    random_lift,
    random_vector,
    rng_from_seed,
)

# (name, d, profile, vertices per lattice point (i, j) with i <= j)
AXIOMS_CASES = {
    "full": [
        ("ax-d0", 0, (1, 2), {(1, 1): 3, (1, 2): 2, (2, 2): 3}),
        ("ax-d1", 1, (2, 3), {(1, 1): 2, (1, 2): 2, (2, 2): 1}),
        ("ax-d2", 2, (2, 3, 4), {(1, 1): 2, (1, 3): 1, (2, 2): 2, (2, 3): 1}),
        ("ax-d3", 3, (2, 3), {(1, 1): 2, (1, 2): 1, (2, 2): 2}),
        ("ax-d4", 4, (1, 2), {(1, 1): 4, (1, 2): 2, (2, 2): 4}),
        ("ax-d5", 5, (1, 3), {(1, 1): 2, (1, 2): 2, (2, 2): 2}),
        ("ax-d6", 6, (1, 2, 3), {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 4, (2, 3): 4, (3, 3): 6}),
        ("ax-d7", 7, (2, 3), {(1, 1): 2, (1, 2): 1, (2, 2): 2}),
    ],
    "tiny": [
        (f"ax-d{d}", d, (1, 2), {(1, 1): 2, (1, 2): 1, (2, 2): 2}) for d in range(8)
    ],
}

# (name, d, source profile, source vertices per lattice point, alpha, n0)
LIFT_CASES = {
    "full": [
        ("lift-d0", 0, (1, 2), {(1, 1): 2, (1, 2): 1, (2, 2): 2}, ((2, 1), (1, 1)), (0, 1)),
        ("lift-d1", 1, (1, 2), {(1, 1): 1, (1, 2): 1, (2, 2): 1}, ((2, 1),), (1,)),
        ("lift-d2", 2, (1, 2), {(1, 1): 2, (1, 2): 1, (2, 2): 2}, ((2, 1), (1, 1)), (1, 0)),
        ("lift-d7", 7, (1, 2), {(1, 1): 1, (1, 2): 1, (2, 2): 1}, ((2, 1), (1, 2)), (1, 0)),
        ("lift-d6", 6, (1, 2), {(1, 1): 2, (1, 2): 2, (2, 2): 2}, ((2, 2), (1, 1)), (0, 0)),
    ],
    "tiny": [
        ("lift-d6", 6, (1, 2), {(1, 1): 2, (1, 2): 1}, ((1, 1),), (1,)),
        ("lift-d1", 1, (1, 2), {(1, 1): 1, (2, 2): 1}, ((1, 1),), (0,)),
    ],
}

# the inclusion step stored in the cli bundle, beside the minimal diagrams
CLI_STEP = {
    "full": ("step", 6, (2, 2), {(1, 1): 2}, ((2, 2),), (1,)),
    "tiny": ("step", 6, (1, 2), {(1, 1): 2}, ((1, 1),), (0,)),
}

FORM_SCALE = 0.7
CUTOFF_LAMBDA = 1.5


def _requirements(d, mult):
    """random_diagram requirements that produce exactly `mult` vertices per fiber."""
    even = d % 2 == 0
    out = []
    for (i, j), c in sorted(mult.items()):
        if i < j:
            out += [(i, j, (1 if k % 2 == 0 else -1) if even else None) for k in range(c)]
        elif d in (2, 6):
            out += [(i, i, 1)] * (c // 2)
        elif d == 4:
            plus_pairs = c // 4
            out += [(i, i, 1)] * (2 * plus_pairs) + [(i, i, -1)] * (2 * (c // 2 - plus_pairs))
        elif d == 0:
            out += [(i, i, 1 if k % 2 == 0 else -1) for k in range(c)]
        else:
            out += [(i, i, None)] * c
    return out


def make_diagram(rng, d, dims, mult, edge_prob=0.6):
    diag = random_diagram(rng, d, profile=AlgebraProfile(dims), max_fiber=0, edge_prob=edge_prob,
                          requirements=_requirements(d, mult), ensure_edge=True)
    want = sum(c * (1 if i == j else 2) for (i, j), c in mult.items())
    if len(diag.vertices) != want:
        raise RuntimeError(f"case make-up gave {len(diag.vertices)} vertices, expected {want}")
    return diag


def make_arrow(dims, alpha, n0):
    target = tuple(n0[k] + sum(a * n for a, n in zip(alpha[k], dims)) for k in range(len(alpha)))
    return BratteliArrow(AlgebraProfile(dims), AlgebraProfile(target), alpha, n0)


def _hilbert_dim(diag):
    return sum(diag.profile.dim(i) * diag.profile.dim(j) for (i, _p, j) in diag.vertices)


@dataclass
class AxiomsCase:
    name: str
    d: int
    dims: tuple
    mult: dict
    diagram: object

    @property
    def n(self):
        return _hilbert_dim(self.diagram)


@dataclass
class LiftCase:
    name: str
    d: int
    dims: tuple
    mult: dict
    lift: object          # raw random lift, not yet diagonalized
    omega_A: object       # Hermitian one-form of the Higgs part
    vector_forms: list    # four Hermitian one-forms of the B_mu fields
    psi_raw: np.ndarray   # source fermion before projection to ker(gamma - 1)
    perp_raw: np.ndarray  # target vector before projection off the range of phi_H

    @property
    def nA(self):
        return _hilbert_dim(self.lift.source)

    @property
    def nB(self):
        return _hilbert_dim(self.lift.target)


def axioms_cases(seed, size="full"):
    rng = rng_from_seed([seed % 2**64, 1])
    return [AxiomsCase(name, d, dims, mult, make_diagram(rng, d, dims, mult))
            for name, d, dims, mult in AXIOMS_CASES[size]]


def _lift_step(rng, d, dims, mult, alpha, n0, src_edge_prob=0.6, tgt_edge_prob=0.5):
    source = make_diagram(rng, d, dims, mult, src_edge_prob)
    arrow = make_arrow(dims, alpha, n0)
    target = random_compatible_target(rng, source, arrow, max_fiber=0,
                                      edge_prob=tgt_edge_prob, ensure_edge=True)
    return random_lift(rng, source, arrow, target)


def lift_cases(seed, size="full"):
    rng = rng_from_seed([seed % 2**64, 2])
    out = []
    for name, d, dims, mult, alpha, n0 in LIFT_CASES[size]:
        lift = _lift_step(rng, d, dims, mult, alpha, n0)
        profile = lift.source.profile
        omega = random_hermitian_form(rng, profile, scale=FORM_SCALE)
        vecs = [random_hermitian_form(rng, profile, 1, scale=FORM_SCALE) for _ in range(4)]
        nA, nB = _hilbert_dim(lift.source), _hilbert_dim(lift.target)
        out.append(LiftCase(name, d, dims, mult, lift, omega, vecs,
                            random_vector(rng, nA), random_vector(rng, nB)))
    return out


def cli_bundle(seed, size="full"):
    """A bundle of the kind scripts/make_example_bundle.py writes, with a fixed make-up."""
    rng = rng_from_seed([seed % 2**64, 3])
    name, d, dims, mult, alpha, n0 = CLI_STEP[size]
    b = Bundle()
    for k in range(8):
        b.diagrams[f"minimal_d{k}"] = minimal_diagram(k, 1.0)
    raw = _lift_step(rng, d, dims, mult, alpha, n0, 0.7, 0.6)
    lift = inherit_source_dirac(normalize(diagonalize_bases(raw, 1e-10), 1e-10), 1e-10)
    b.profiles["A"] = lift.source.profile
    b.profiles["B"] = lift.arrow.target
    b.diagrams[f"{name}_source"] = lift.source
    b.diagrams[f"{name}_target"] = lift.target
    b.arrows[f"{name}_arrow"] = lift.arrow
    b.lifts[name] = lift
    b.forms["w"] = random_hermitian_form(rng, lift.source.profile, scale=FORM_SCALE)
    b.triples[f"{name}_source_triple"] = realize(lift.source)
    return b


def _fmt_mult(mult):
    return " ".join(f"({i},{j}):{c}" for (i, j), c in sorted(mult.items()))


def describe(seed, size="full"):
    """Markdown table of every case's make-up for this seed."""
    rows = ["| workload | case | d | profile | vertices per (i,j), i<=j | alpha / n0 | n or nA | nB | edges |",
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for c in axioms_cases(seed, size):
        rows.append(f"| axioms | {c.name} | {c.d} | {c.dims} | {_fmt_mult(c.mult)} | | {c.n} | | "
                    f"{len(c.diagram.edges)} |")
    for (c, spec) in zip(lift_cases(seed, size), LIFT_CASES[size]):
        rows.append(f"| lift | {c.name} | {c.d} | {c.dims} | {_fmt_mult(c.mult)} | {spec[4]} / {spec[5]} | "
                    f"{c.nA} | {c.nB} | {len(c.lift.source.edges)} / {len(c.lift.target.edges)} |")
    b = cli_bundle(seed, size)
    name, d, dims, mult, alpha, n0 = CLI_STEP[size]
    lift = b.lifts[name]
    rows.append(f"| cli | {name} | {d} | {dims} | {_fmt_mult(mult)} | {alpha} / {n0} | "
                f"{_hilbert_dim(lift.source)} | {_hilbert_dim(lift.target)} | "
                f"{len(lift.source.edges)} / {len(lift.target.edges)} |")
    return "\n".join(rows)
