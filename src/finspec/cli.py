"""Command line interface over bundle files.

Exit codes: 0 success, 1 validation/check failure, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bundle as bundle_mod
from .action import CutoffFunction, GaugeConfiguration, bosonic_lagrangian, compare_actions, spectral_action
from .algebra import DEFAULT_TOL
from .bundle import Bundle, BundleError, load_bundle, save_bundle
from .differential import UniversalOneForm, pushforward
from .dot import render_dot
from .krajewski import ClassificationError, classify, detect_ko, realize, validate, verify_axioms
from .lifting import build_phiH, compat_check, diagonalize_bases, normalize, real_grading_check, sigma
from .sampling import random_compatible_fermions, rng_from_seed


class CliFailure(Exception):
    """Validation-style failure: exit code 1."""


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, set):
        return sorted(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def _need(table, key, what):
    if key not in table:
        raise BundleError(f"no {what} named {key!r} in the bundle")
    return table[key]


def _one_form(bundle, name):
    """The form of that name, checked to be a one-form: fluctuations and pushforwards take no higher degree."""
    w = _need(bundle.forms, name, "form")
    if not isinstance(w, UniversalOneForm):
        raise BundleError(f"forms.{name}: a form with terms of degree > 1, where a one-form is needed")
    return w


def _get_triple(bundle, args, tol):
    if getattr(args, "triple", None):
        return _need(bundle.triples, args.triple, "triple")
    if getattr(args, "diagram", None):
        return realize(_need(bundle.diagrams, args.diagram, "diagram"), tol)
    raise BundleError("need --triple or --diagram")


def _cutoff(args):
    if args.cutoff == "gaussian":
        return CutoffFunction.gaussian(args.width)
    if args.f2 is None:
        raise BundleError("polynomial cutoffs need --f2")
    coeffs = [float(c) for c in (args.coeffs or "1").split(",")]
    return CutoffFunction.polynomial(coeffs, args.f2)


def cmd_validate(bundle, args, tol):
    names = [args.diagram] if args.diagram else sorted(bundle.diagrams)
    if not names:
        raise BundleError("bundle holds no diagrams")
    reports = {}
    ok = True
    for name in names:
        rep = validate(_need(bundle.diagrams, name, "diagram"), tol)
        reports[name] = rep
        ok = ok and rep.ok
    _emit(args, {k: r.as_dict() for k, r in reports.items()},
          "\n".join(str(r) for r in reports.values()))
    if not ok:
        raise CliFailure()


def cmd_realize(bundle, args, tol):
    diag = _need(bundle.diagrams, args.diagram, "diagram")
    t = realize(diag, tol)
    name = args.name or args.diagram
    if args.out:
        bundle.triples[name] = t
        save_bundle(bundle, args.out)
    _emit(args, {"triple": name, "dim": t.dim, "d": t.ko.d},
          f"realized {args.diagram}: dim H = {t.dim}, KO-dimension {t.ko.d}"
          + (f"; wrote {args.out}" if args.out else ""))


def cmd_axioms(bundle, args, tol):
    t = _get_triple(bundle, args, tol)
    rep = verify_axioms(t, tol)
    detected = sorted(detect_ko(t, tol))
    payload = rep.as_dict()
    payload["detected_ko"] = detected
    _emit(args, payload, str(rep) + f"\ndetected KO dimensions: {detected}")
    if not rep.ok:
        raise CliFailure()


def cmd_classify(bundle, args, tol):
    t = _get_triple(bundle, args, tol)
    diag, W = classify(t, tol)
    name = args.name or (args.triple or args.diagram) + "_classified"
    if args.out:
        bundle.diagrams[name] = diag
        save_bundle(bundle, args.out)
    mus = {f"({i},{j})": len(f) for (i, j), f in sorted(diag.fibers().items())}
    _emit(args, {"diagram": name, "multiplicities": mus, "edges": len(diag.edges)},
          f"classified: multiplicities {mus}, {len(diag.edges)} edges"
          + (f"; wrote {args.out}" if args.out else ""))


def _lift_triples(bundle, args, tol):
    """The named lift and the triples of its source and target, which realize validates."""
    lift = _need(bundle.lifts, args.lift, "lift")
    return lift, realize(lift.source, tol), realize(lift.target, tol)


def cmd_lift_check(bundle, args, tol):
    lift, tA, tB = _lift_triples(bundle, args, tol)
    rep = real_grading_check(lift, tA, tB, tol)
    _emit(args, rep.as_dict(), str(rep))
    if not rep.ok:
        raise CliFailure()


def cmd_sigma(bundle, args, tol):
    lift = _need(bundle.lifts, args.lift, "lift")
    sig = sigma(lift)
    payload = {
        f"({i},{j})": [[_json_default(z) for z in row] for row in mat.tolist()]
        for (i, j), mat in sorted(sig.mats.items())
    }
    text = []
    for (i, j), mat in sorted(sig.mats.items()):
        text.append(f"sigma({i},{j}) =")
        text.append(np.array_str(mat, precision=6))
    for flag in sig.flags:
        text.append(f"warning: {flag}")
    _emit(args, {"sigma": payload, "flags": sig.flags, "diagonal": sig.is_diagonal(tol * sig.largest)},
          "\n".join(text))


def cmd_normalize(bundle, args, tol):
    lift = _lift_triples(bundle, args, tol)[0]
    rotated = diagonalize_bases(lift, tol)
    norm = normalize(rotated, tol)
    kappas = {str(v): k for v, k in sorted(rotated.kappa.items())}
    if args.out:
        out = Bundle()
        src_key, tgt_key, arrow_key = f"{args.lift}_source", f"{args.lift}_target", f"{args.lift}_arrow"
        out.diagrams[src_key] = norm.source
        out.diagrams[tgt_key] = norm.target
        out.arrows[arrow_key] = norm.arrow
        out.lifts[args.name or f"{args.lift}_normalized"] = norm
        save_bundle(out, args.out)
    _emit(args, {"kappa": kappas, "normalized": True},
          "kappa eigenvalues:\n" + "\n".join(f"  {v}: {k:.6e}" for v, k in kappas.items())
          + (f"\nwrote {args.out}" if args.out else ""))


def cmd_compat(bundle, args, tol):
    from .differential import represent

    lift, tA, tB = _lift_triples(bundle, args, tol)
    phiH = build_phiH(lift)
    if args.form_a:
        wA = _need(bundle.forms, args.form_a, "form") if args.form_b else _one_form(bundle, args.form_a)
        wB = _need(bundle.forms, args.form_b, "form") if args.form_b else pushforward(wA, lift.arrow)
        A, B = represent(wA, tA), represent(wB, tB)
        what = f"pi_D({args.form_a}) vs pi_D({args.form_b or 'pushforward'})"
    else:
        A, B = tA.D, tB.D
        what = "D_A vs D_B"
    rep = compat_check(A, B, phiH, tol)
    _emit(args, {"checked": what, **rep.as_dict()},
          f"{what}: weak={rep.weak} strong={rep.strong} "
          f"(weak residual {rep.weak_residual:.3e}, B_perp^phi {rep.b_perp_phi:.3e}, "
          f"B_phi^perp {rep.b_phi_perp:.3e})")
    if not rep.weak:
        raise CliFailure()


def cmd_action(bundle, args, tol):
    t = _get_triple(bundle, args, tol)
    f = _cutoff(args)
    payload, text = {}, []
    if args.form:
        s = spectral_action(t, _one_form(bundle, args.form), f, args.lam, tol)
        payload["spectral_action"] = s
        text.append(f"Tr f(D_omega / Lambda) = {s:.10e}")
    if args.config:
        cfg = _need(bundle.configurations, args.config, "configuration")
        rep = bosonic_lagrangian(cfg, f, args.lam, tol)
        payload["lagrangian"] = rep.as_dict()
        text.append(str(rep))
    if not payload:
        raise BundleError("need --form and/or --config")
    _emit(args, payload, "\n".join(text))


def cmd_compare(bundle, args, tol):
    lift, tA, tB = _lift_triples(bundle, args, tol)
    if not lift.normalized:
        lift = normalize(diagonalize_bases(lift, tol), tol)
        tA = realize(lift.source, tol)
    wA = _one_form(bundle, args.form_a)
    wB = _one_form(bundle, args.form_b) if args.form_b else pushforward(wA, lift.arrow)
    cfgs = None
    if args.config_a and args.config_b:
        cfgs = (
            _need(bundle.configurations, args.config_a, "configuration"),
            _need(bundle.configurations, args.config_b, "configuration"),
        )
    rng = rng_from_seed(args.seed)
    fermions = random_compatible_fermions(rng, build_phiH(lift), tA, tB) if args.with_fermions else None
    f = _cutoff(args)
    rep = compare_actions(lift, tA, tB, wA, wB, f, args.lam, cfgs=cfgs, fermions=fermions, tol=tol)
    _emit(args, rep.as_dict(), str(rep))


def cmd_render(bundle, args, tol):
    if args.diagram:
        item = _need(bundle.diagrams, args.diagram, "diagram")
    elif args.arrow:
        item = _need(bundle.arrows, args.arrow, "arrow")
    elif args.lift:
        item = _need(bundle.lifts, args.lift, "lift")
    else:
        raise BundleError("need --diagram, --arrow, or --lift")
    sys.stdout.write(render_dot(item))


def build_parser():
    p = argparse.ArgumentParser(prog="finspec", description=__doc__)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance (default 1e-10)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)
    cutoff = argparse.ArgumentParser(add_help=False)
    cutoff.add_argument("--lam", type=float, default=1.0)
    cutoff.add_argument("--cutoff", choices=("gaussian", "polynomial"), default="gaussian")
    cutoff.add_argument("--width", type=float, default=1.0)
    cutoff.add_argument("--coeffs", help="comma-separated even-power coefficients")
    cutoff.add_argument("--f2", type=float)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("bundle", help="bundle file (JSON)")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="check diagram axioms")
    sp.add_argument("--diagram")

    sp = add("realize", cmd_realize, help="realize a diagram into a triple")
    sp.add_argument("--diagram", required=True)
    sp.add_argument("--out")
    sp.add_argument("--name")

    sp = add("axioms", cmd_axioms, help="verify triple axioms and detect KO dimension")
    sp.add_argument("--triple")
    sp.add_argument("--diagram")

    sp = add("classify", cmd_classify, help="recover a diagram from a triple")
    sp.add_argument("--triple")
    sp.add_argument("--diagram")
    sp.add_argument("--out")
    sp.add_argument("--name")

    sp = add("lift-check", cmd_lift_check, help="build phi_H and check real structure/grading")
    sp.add_argument("--lift", required=True)

    sp = add("sigma", cmd_sigma, help="print the Gram matrices of a lift")
    sp.add_argument("--lift", required=True)

    sp = add("normalize", cmd_normalize, help="diagonalize bases and normalize a lift")
    sp.add_argument("--lift", required=True)
    sp.add_argument("--out")
    sp.add_argument("--name")

    sp = add("compat", cmd_compat, help="phi-compatibility of operators across a lift")
    sp.add_argument("--lift", required=True)
    sp.add_argument("--form-a")
    sp.add_argument("--form-b")

    sp = add("action", cmd_action, help="spectral action and Lagrangian terms", parents=[cutoff])
    sp.add_argument("--triple")
    sp.add_argument("--diagram")
    sp.add_argument("--form")
    sp.add_argument("--config")

    sp = add("compare", cmd_compare, help="inherited vs TNIC action comparison over a lift", parents=[cutoff])
    sp.add_argument("--lift", required=True)
    sp.add_argument("--form-a", required=True)
    sp.add_argument("--form-b")
    sp.add_argument("--config-a")
    sp.add_argument("--config-b")
    sp.add_argument("--with-fermions", action="store_true")

    sp = add("render", cmd_render, help="DOT output for a diagram, arrow, or lift")
    sp.add_argument("--diagram")
    sp.add_argument("--arrow")
    sp.add_argument("--lift")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bundle = load_bundle(args.bundle)
        args.fn(bundle, args, args.tol)
    except CliFailure:
        return 1
    except (ValueError, ClassificationError) as exc:
        if isinstance(exc, BundleError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
