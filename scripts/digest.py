#!/usr/bin/env python3
"""One sha256 per pipeline stage over the benchmark's seeded cases, to tell whether two trees give the same bits.

    python3 scripts/digest.py > before.json                    # in one checkout
    python3 scripts/digest.py --against before.json            # in the other: names the stages that differ
    python3 scripts/digest.py --size tiny                      # the small cases of bench/run.py --selftest
    python3 scripts/digest.py --scale                          # one lift step at the stated scale, nB = 648

Run it from the root of a checkout; finspec is imported from ./src and the cases from bench/cases.py (read, not
changed), for seeds 1-3.  The stages, each over the axioms, lift and cli cases of every seed:

  realize        D, K and gamma of every realized triple;
  validate       the report of validate, as text and as JSON;
  verify_axioms  the report of verify_axioms, as text and as JSON;
  detect_ko      the KO-dimensions detect_ko reads;
  classify       W, the vertex decorations, jim and the edge operators of the classified diagram;
  lift           u after diagonalize_bases and after normalize, the inherited source's edges, its D and K, phi_H;
  from_forms     B_mu and Phi of both sides of every lift;
  action         compare_actions' terms and spectral values;
  cli            exit code, stdout and stderr of the benchmark's cycle of twelve commands, the bundle and the
                 normalized bundle it writes, with the scratch directory's path replaced by a fixed name.

With --scale the stages realize, lift, from_forms and action are taken over one lift step instead: the d = 6
target of nB = 648 that tests/test_oracles.py `_stated_scale_target` builds (seed 3400, source profile (1, 2),
alpha = ((3, 3), (2, 1)), n0 = 0), a random lift onto it, and the lift workload's op on that step (realize,
diagonalize_bases, normalize, inherit_source_dirac, from_forms and compare_actions with fermions).

Arrays are hashed with their shape, dtype and raw bytes (signed zeros count), floats by repr.  Hashes depend on
the BLAS build and the machine, so compare two trees on one machine.  The script runs itself again with one
BLAS/OpenMP thread and PYTHONHASHSEED=0, set before numpy is imported, as bench/run.py starts its worker.
With --against it exits 1 when a stage differs.
"""

import os
import sys

ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in ENV.items()):
    os.execve(sys.executable, sys.orig_argv, {**os.environ, **ENV})  # the interpreter's own options kept

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "bench")) if p not in sys.path]

import numpy as np  # noqa: E402

import cases  # noqa: E402
import workloads  # noqa: E402
from finspec import action as ac  # noqa: E402
from finspec import cli  # noqa: E402
from finspec import differential as df  # noqa: E402
from finspec import krajewski as kj  # noqa: E402
from finspec import lifting as lf  # noqa: E402
from finspec import sampling  # noqa: E402
from finspec.algebra import AlgebraProfile  # noqa: E402
from finspec.bratteli import BratteliArrow  # noqa: E402

SEEDS = (1, 2, 3)
STAGES = ("realize", "validate", "verify_axioms", "detect_ko", "classify", "lift", "from_forms", "action", "cli")
SCALE_SEED, SCALE_STAGES = 3400, ("realize", "lift", "from_forms", "action")


def _triple(t):
    return [t.D, t.K, t.gamma]


def _report(rep):
    return [str(rep), json.dumps(rep.as_dict(), sort_keys=True)]


def _diagram(diag):
    """Vertex decorations, jim and edges (src, dst, kind, op) in the diagram's own order."""
    out = [repr(sorted((v.vid, v.s, v.chi) for v in diag.vertices.values())), repr(sorted(diag.jim.items()))]
    for e in diag.edges:
        out += [repr((e.src, e.dst, e.kind)), e.op]
    return out


def _u(lift):
    return [x for key in sorted(lift.u) for x in (repr(key), lift.u[key])]


def _axioms(out, case):
    t = kj.realize(case.diagram)
    out["realize"] += _triple(t)
    out["validate"] += _report(kj.validate(case.diagram))
    out["verify_axioms"] += _report(kj.verify_axioms(t))
    out["detect_ko"].append(repr(sorted(kj.detect_ko(t))))
    diagram, W = kj.classify(t)
    out["classify"] += [W, *_diagram(diagram)]


def _lift(out, case, cutoff):
    """The lift workload's op (bench/workloads.py), keeping the outputs of each step."""
    lift, arrow = case.lift, case.lift.arrow
    tA0, tB = kj.realize(lift.source), kj.realize(lift.target)
    out["realize"] += _triple(tA0) + _triple(tB)
    diag = lf.diagonalize_bases(lift)
    norm = lf.normalize(diag)
    inh = lf.inherit_source_dirac(norm)
    tA, phi = kj.realize(inh.source), lf.build_phiH(inh)
    out["lift"] += _u(diag) + _u(norm) + _diagram(inh.source) + [tA.D, tA.K, phi.matrix]
    omega_B = df.pushforward(case.omega_A, arrow)
    cfg_A = ac.GaugeConfiguration.from_forms(tA, case.vector_forms, case.omega_A)
    cfg_B = ac.GaugeConfiguration.from_forms(tB, [df.pushforward(w, arrow) for w in case.vector_forms], omega_B)
    out["from_forms"] += [*cfg_A.B, cfg_A.Phi, *cfg_B.B, cfg_B.Phi]
    M, P = phi.matrix, phi.projector()
    psi_A = case.psi_raw if tA.gamma is None else (case.psi_raw + tA.gamma @ case.psi_raw) / 2
    perp = case.perp_raw - P @ case.perp_raw
    if tB.gamma is not None:
        perp = (perp + tB.gamma @ perp) / 2
    rep = ac.compare_actions(inh, tA, tB, case.omega_A, omega_B, cutoff, cases.CUTOFF_LAMBDA,
                             cfgs=(cfg_A, cfg_B), fermions=(psi_A, M @ psi_A + perp))
    out["action"] += [repr(t.as_dict()) for t in rep.terms] + [repr(sorted(rep.spectral.items()))]


def _cli(out, seed, size):
    """The cli workload's cycle, in process, on its bundle written to a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = workloads.Cli(seed, size, pathlib.Path(tmp))
        paths = work.generate()
        for label, argv in work.cycle(paths):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(["--format", "json"] + argv)
            out["cli"] += [label, repr(rc)] + [s.getvalue().replace(tmp, "<work>") for s in (stdout, stderr)]
        for name in ("bundle", "normalized"):
            out["cli"].append(pathlib.Path(paths[name]).read_bytes())


def collect(size="full", seeds=SEEDS) -> dict:
    """{stage: [item, ...]} of every stage, for items ndarrays, bytes, str or None, in a fixed order."""
    out, cutoff = {stage: [] for stage in STAGES}, ac.CutoffFunction.gaussian()
    for seed in seeds:
        for case in cases.axioms_cases(seed, size):
            _axioms(out, case)
        for case in cases.lift_cases(seed, size):
            _lift(out, case, cutoff)
        _cli(out, seed, size)
    return out


def scale_case(seed=SCALE_SEED):
    """The lift step of --scale as a bench/cases.py LiftCase: the stated-scale target, a random lift onto it, and
    forms and vectors drawn as lift_cases draws them."""
    rng = sampling.rng_from_seed(seed)
    source = sampling.random_diagram(rng, 6, AlgebraProfile((1, 2)), max_fiber=0, edge_prob=0.6, ensure_edge=True,
                                     requirements=[(1, 1, 1), (1, 2, 1), (1, 2, -1), (2, 2, 1)])
    arrow = BratteliArrow(source.profile, AlgebraProfile((9, 4)), ((3, 3), (2, 1)), (0, 0))
    target = sampling.random_compatible_target(rng, source, arrow, max_fiber=0, edge_prob=0.5, ensure_edge=True)
    lift = sampling.random_lift(rng, source, arrow, target)
    omega = sampling.random_hermitian_form(rng, source.profile, scale=cases.FORM_SCALE)
    vecs = [sampling.random_hermitian_form(rng, source.profile, 1, scale=cases.FORM_SCALE) for _ in range(4)]
    nA, nB = cases._hilbert_dim(source), cases._hilbert_dim(target)
    return cases.LiftCase("scale-d6", 6, (1, 2), {}, lift, omega, vecs,
                          sampling.random_vector(rng, nA), sampling.random_vector(rng, nB))


def collect_scale() -> dict:
    """{stage: [item, ...]} of the --scale stages, over scale_case()."""
    out = {stage: [] for stage in STAGES}
    _lift(out, scale_case(), ac.CutoffFunction.gaussian())
    return {stage: out[stage] for stage in SCALE_STAGES}


def _bytes(item) -> bytes:
    if isinstance(item, np.ndarray):
        return repr((item.shape, item.dtype.str)).encode() + np.ascontiguousarray(item).tobytes()
    return item if isinstance(item, bytes) else repr(item).encode()


def digest(collected) -> dict:
    """{stage: sha256 hex} of collect's items, each item framed by its length."""
    out = {}
    for stage, items in collected.items():
        h = hashlib.sha256()
        for item in items:
            b = _bytes(item)
            h.update(len(b).to_bytes(8, "little") + b)
        out[stage] = h.hexdigest()
    return out


def differing(a: dict, b: dict) -> list:
    """The stages of either digest whose hashes differ or that only one has."""
    return [stage for stage in dict.fromkeys([*a, *b]) if a.get(stage) != b.get(stage)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--size", choices=("tiny", "full"), default="full", help="case sizes of bench/cases.py")
    ap.add_argument("--scale", action="store_true", help="the stages of one lift step at nB = 648 instead")
    ap.add_argument("--against", metavar="FILE", help="a digest printed before; name the stages that differ")
    args = ap.parse_args(argv)
    if args.scale:
        digests = {"size": "scale", "seeds": [SCALE_SEED], "stages": digest(collect_scale())}
    else:
        digests = {"size": args.size, "seeds": list(SEEDS), "stages": digest(collect(args.size))}
    print(json.dumps(digests, indent=2))
    if args.against is None:
        return 0
    old = json.loads(pathlib.Path(args.against).read_text(encoding="utf-8"))
    if (old["size"], old["seeds"]) != (digests["size"], digests["seeds"]):
        print(f"{args.against} digests size {old['size']} over seeds {old['seeds']}", file=sys.stderr)
        return 2
    diff = differing(old["stages"], digests["stages"])
    print(f"stages that differ from {args.against}: {', '.join(diff)}" if diff else
          f"no stage differs from {args.against}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
