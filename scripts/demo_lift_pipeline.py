#!/usr/bin/env python3
"""End-to-end walk through one inclusion step.

Builds a random source diagram, a Bratteli arrow, a compatible target, and
a lift; diagonalizes and normalizes the lift; replaces the source Dirac by
the inherited pullback; and prints the spectral-action comparison with its
inherited / TNIC split.  Writes DOT files next to the chosen output stem.

Usage: python scripts/demo_lift_pipeline.py [--seed N] [--d D] [--out STEM]
"""

import argparse
import pathlib

import numpy as np

from finspec.action import CutoffFunction, GaugeConfiguration, compare_actions
from finspec.differential import pushforward
from finspec.dot import render_dot
from finspec.krajewski import RealSpectralTriple, detect_ko, realize, verify_axioms
from finspec.lifting import (
    build_phiH,
    diagonalize_bases,
    inherit_source_dirac,
    normalize,
    real_grading_check,
    sigma,
)
from finspec.sampling import (
    random_arrow,
    random_compatible_target,
    random_compatible_fermions,
    random_diagram,
    random_hermitian_form,
    random_lift,
    random_profile,
    rng_from_seed,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--d", type=int, default=6, choices=(0, 1, 2, 6, 7))
    ap.add_argument("--out", default=None, help="stem for DOT output files")
    args = ap.parse_args()

    rng = rng_from_seed(args.seed)
    source = random_diagram(rng, args.d, profile=random_profile(rng, 2, 2),
                            max_fiber=2, edge_prob=0.6, ensure_edge=True)
    arrow = random_arrow(rng, source.profile, s_max=2, alpha_max=2, n0_max=1)
    target = random_compatible_target(rng, source, arrow, max_fiber=2,
                                      edge_prob=0.6, ensure_edge=True)
    print(f"KO-dimension {args.d}")
    print(f"source algebra dims: {source.profile.dims}, target dims: {arrow.target.dims}")
    print(f"source vertices: {len(source.vertices)}, target vertices: {len(target.vertices)}")

    lift = random_lift(rng, source, arrow, target)
    tA, tB = realize(source), realize(target)
    print(f"dim H_A = {tA.dim}, dim H_B = {tB.dim}")
    for name, t in (("A", tA), ("B", tB)):
        rep = verify_axioms(t, 1e-12)
        print(f"triple {name}: axioms {'OK' if rep.ok else 'FAIL'} "
              f"(max residual {rep.max_residual:.2e}), KO detected {sorted(detect_ko(t))}")

    grading = real_grading_check(lift, tA, tB, 1e-10)
    print(f"real structure / grading checks: {'OK' if grading.ok else 'FAIL'}")

    rotated = diagonalize_bases(lift, 1e-10)
    kappas = {str(v): round(k, 6) for v, k in sorted(rotated.kappa.items())}
    print(f"kappa eigenvalues after diagonalization: {kappas}")
    norm = normalize(rotated, 1e-10)
    M = build_phiH(norm).matrix
    print(f"isometry residual: {np.linalg.norm(M.conj().T @ M - np.eye(M.shape[1])):.2e}")

    # minimal compatible source Dirac: the pullback of D_B
    norm = inherit_source_dirac(norm, 1e-10)
    tA = realize(norm.source)
    print(f"pullback source Dirac: axioms {'OK' if verify_axioms(tA, 1e-10).ok else 'FAIL'}")

    wA = random_hermitian_form(rng, norm.source.profile, scale=0.7)
    wB = pushforward(wA, norm.arrow)
    vecA = [random_hermitian_form(rng, norm.source.profile, 1, scale=0.7) for _ in range(4)]
    cfg_A = GaugeConfiguration.from_forms(tA, vecA, wA)
    cfg_B = GaugeConfiguration.from_forms(tB, [pushforward(v, norm.arrow) for v in vecA], wB)
    try:
        fermions = random_compatible_fermions(rng, build_phiH(norm), tA, tB)
    except ValueError:  # the source has no even state: no fermion row
        fermions = None

    rep = compare_actions(norm, tA, tB, wA, wB, CutoffFunction.gaussian(), 1.5,
                          cfgs=(cfg_A, cfg_B), fermions=fermions, tol=1e-9)
    print()
    print(rep)

    if args.out:
        stem = pathlib.Path(args.out)
        stem.parent.mkdir(parents=True, exist_ok=True)
        for suffix, item in (("source", norm.source), ("target", target),
                             ("arrow", arrow), ("lift", norm)):
            path = stem.with_name(f"{stem.name}_{suffix}.dot")
            path.write_text(render_dot(item))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
