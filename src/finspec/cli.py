"""Command line interface over bundle files.

Each command maps (bundle, args, tol) to (payload, text, ok): the JSON payload
(None for the raw DOT of `render`), the text report, and whether its checks
passed.  `main` alone prints the text, the JSON or the DOT and picks the exit
code: 0 success, 1 validation/check failure, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .action import CutoffFunction, bosonic_lagrangian, compare_actions, spectral_action
from .algebra import DEFAULT_TOL
from .bundle import Bundle, BundleError, load_bundle, save_bundle
from .differential import UniversalOneForm, pushforward, represent
from .dot import render_dot
from .krajewski import ClassificationError, classify, detect_ko, realize, validate, verify_axioms
from .lifting import (build_phiH, compat_check, diagonalize_bases, inherit_source_dirac, normalize, real_grading_check,
                      sigma)
from .sampling import random_compatible_fermions, rng_from_seed


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


def _form(bundle, name, flag, t, one=True):
    """The form named by flag, over the profile of t, and a one-form when one is set (fluctuate and pushforward need one)."""
    w = _need(bundle.forms, name, "form")
    if one and not isinstance(w, UniversalOneForm):
        raise BundleError(f"forms.{name}: a form with terms of degree > 1, where a one-form is needed")
    if w.profile != t.profile:
        raise BundleError(f"{flag} {name}: a form over {w.profile.dims}, where the triple needs {t.profile.dims}")
    return w


def _config(bundle, name, t, side=""):
    """The configuration named name, with fields of the dimension of t (the source or target triple, by side)."""
    cfg = _need(bundle.configurations, name, "configuration")
    if len(cfg.Phi) != t.dim:
        raise BundleError(f"configurations.{name}: fields of size {len(cfg.Phi)}, where the {side}triple has dim {t.dim}")
    return cfg


def _get_triple(bundle, args, tol):
    if args.triple is not None:
        return _need(bundle.triples, args.triple, "triple")
    return realize(_need(bundle.diagrams, args.diagram, "diagram"), tol)


def _cutoff(args):
    if args.cutoff == "gaussian":
        return CutoffFunction.gaussian(args.width)
    if args.f2 is None:
        raise BundleError("polynomial cutoffs need --f2")
    return CutoffFunction.polynomial(args.coeffs or (1.0,), args.f2)


def _saved(bundle, args, text, sep="; "):
    """text, after writing bundle to --out when it is given, with a note of the write."""
    if not args.out:
        return text
    save_bundle(bundle, args.out)
    return f"{text}{sep}wrote {args.out}"


def cmd_validate(bundle, args, tol):
    names = [args.diagram] if args.diagram else sorted(bundle.diagrams)
    if not names:
        raise BundleError("bundle holds no diagrams")
    reports = {name: validate(_need(bundle.diagrams, name, "diagram"), tol) for name in names}
    return ({k: r.as_dict() for k, r in reports.items()}, "\n".join(str(r) for r in reports.values()),
            all(r.ok for r in reports.values()))


def cmd_realize(bundle, args, tol):
    t = realize(_need(bundle.diagrams, args.diagram, "diagram"), tol)
    name = args.name or args.diagram
    bundle.triples[name] = t
    text = f"realized {args.diagram}: dim H = {t.dim}, KO-dimension {t.ko.d}"
    return {"triple": name, "dim": t.dim, "d": t.ko.d}, _saved(bundle, args, text), True


def cmd_axioms(bundle, args, tol):
    t = _get_triple(bundle, args, tol)
    rep = verify_axioms(t, tol)
    detected = sorted(detect_ko(t, tol))
    return {**rep.as_dict(), "detected_ko": detected}, f"{rep}\ndetected KO dimensions: {detected}", rep.ok


def cmd_classify(bundle, args, tol):
    diag = classify(_get_triple(bundle, args, tol), tol)[0]
    name = args.name or (args.diagram if args.triple is None else args.triple) + "_classified"
    bundle.diagrams[name] = diag
    mus = {f"({i},{j})": len(f) for (i, j), f in sorted(diag.fibers().items())}
    text = f"classified: multiplicities {mus}, {len(diag.edges)} edges"
    return {"diagram": name, "multiplicities": mus, "edges": len(diag.edges)}, _saved(bundle, args, text), True


def _lift_triples(bundle, args, tol):
    """The named lift and the triples of its source and target, which realize validates."""
    lift = _need(bundle.lifts, args.lift, "lift")
    return lift, realize(lift.source, tol), realize(lift.target, tol)


def cmd_lift_check(bundle, args, tol):
    rep = real_grading_check(*_lift_triples(bundle, args, tol), tol)
    return rep.as_dict(), str(rep), rep.ok


def cmd_sigma(bundle, args, tol):
    sig = sigma(_need(bundle.lifts, args.lift, "lift"))
    mats = sorted(sig.mats.items())
    payload = {f"({i},{j})": [[_json_default(z) for z in row] for row in mat.tolist()] for (i, j), mat in mats}
    text = [line for (i, j), mat in mats for line in (f"sigma({i},{j}) =", np.array_str(mat, precision=6))]
    text += [f"warning: {flag}" for flag in sig.flags]
    return ({"sigma": payload, "flags": sig.flags, "diagonal": sig.is_diagonal(tol * sig.largest)},
            "\n".join(text), True)


def cmd_normalize(bundle, args, tol):
    rotated = diagonalize_bases(_lift_triples(bundle, args, tol)[0], tol)
    norm = normalize(rotated, tol)
    kappas = {str(v): k for v, k in sorted(rotated.kappa.items())}
    out = Bundle()
    out.diagrams[f"{args.lift}_source"], out.diagrams[f"{args.lift}_target"] = norm.source, norm.target
    out.arrows[f"{args.lift}_arrow"] = norm.arrow
    out.lifts[args.name or f"{args.lift}_normalized"] = norm
    text = "kappa eigenvalues:\n" + "\n".join(f"  {v}: {k:.6e}" for v, k in kappas.items())
    return {"kappa": kappas, "normalized": True}, _saved(out, args, text, "\n"), True


def cmd_compat(bundle, args, tol):
    if args.form_b and not args.form_a:
        raise BundleError("--form-b needs --form-a")
    lift, tA, tB = _lift_triples(bundle, args, tol)
    phiH = build_phiH(lift)
    if args.form_a:
        wA = _form(bundle, args.form_a, "--form-a", tA, one=not args.form_b)
        wB = _form(bundle, args.form_b, "--form-b", tB, one=False) if args.form_b else pushforward(wA, lift.arrow)
        A, B = represent(wA, tA), represent(wB, tB)
        what = f"pi_D({args.form_a}) vs pi_D({args.form_b or 'pushforward'})"
    else:
        A, B, what = tA.D, tB.D, "D_A vs D_B"
    rep = compat_check(A, B, phiH, tol)
    return ({"checked": what, **rep.as_dict()},
            f"{what}: weak={rep.weak} strong={rep.strong} (weak residual {rep.weak_residual:.3e}, "
            f"B_perp^phi {rep.b_perp_phi:.3e}, B_phi^perp {rep.b_phi_perp:.3e})", rep.weak)


def cmd_action(bundle, args, tol):
    t = _get_triple(bundle, args, tol)
    f = _cutoff(args)
    payload, text = {}, []
    if args.form:
        s = spectral_action(t, _form(bundle, args.form, "--form", t), f, args.lam, tol)
        payload["spectral_action"] = s
        text.append(f"Tr f(D_omega / Lambda) = {s:.10e}")
    if args.config:
        rep = bosonic_lagrangian(_config(bundle, args.config, t), f, args.lam, tol)
        payload["lagrangian"] = rep.as_dict()
        text.append(str(rep))
    if not payload:
        raise BundleError("need --form and/or --config")
    return payload, "\n".join(text), True


def cmd_compare(bundle, args, tol):
    if bool(args.config_a) != bool(args.config_b):
        raise BundleError("--config-a needs --config-b" if args.config_a else "--config-b needs --config-a")
    lift, tA, tB = _lift_triples(bundle, args, tol)
    if not lift.normalized:  # and the source inherits phi_H* D_B phi_H, which compare_actions needs of D_A
        lift = inherit_source_dirac(normalize(diagonalize_bases(lift, tol), tol), tol)
        tA = realize(lift.source, tol)
    wA = _form(bundle, args.form_a, "--form-a", tA)
    wB = _form(bundle, args.form_b, "--form-b", tB) if args.form_b else pushforward(wA, lift.arrow)
    cfgs = None
    if args.config_a:
        cfgs = _config(bundle, args.config_a, tA, "source "), _config(bundle, args.config_b, tB, "target ")
    fermions = None
    if args.with_fermions:
        fermions = random_compatible_fermions(rng_from_seed(args.seed), build_phiH(lift), tA, tB)
    rep = compare_actions(lift, tA, tB, wA, wB, _cutoff(args), args.lam, cfgs=cfgs, fermions=fermions, tol=tol)
    return rep.as_dict(), str(rep), True


def cmd_render(bundle, args, tol):
    what = next(w for w in ("diagram", "arrow", "lift") if getattr(args, w) is not None)  # argparse gives exactly one
    return None, render_dot(_need(getattr(bundle, f"{what}s"), getattr(args, what), what)), True


def _number(text, positive=False):
    """text as a finite float, and a positive one when asked: an argparse type."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0):
        raise argparse.ArgumentTypeError(f"expected a {'positive ' if positive else ''}finite number, got {text!r}")
    return x


def _positive(text):
    return _number(text, positive=True)


def _numbers(text):
    return tuple(_number(c) for c in text.split(","))


def build_parser():
    p = argparse.ArgumentParser(prog="finspec", description=__doc__)
    p.add_argument("--tol", type=_positive, default=DEFAULT_TOL, help="numerical tolerance (default 1e-10)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)
    cutoff, target, out, lift = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    cutoff.add_argument("--lam", type=_positive, default=1.0)
    cutoff.add_argument("--cutoff", choices=("gaussian", "polynomial"), default="gaussian")
    cutoff.add_argument("--width", type=_positive, default=1.0)
    cutoff.add_argument("--coeffs", type=_numbers, help="comma-separated even-power coefficients")
    cutoff.add_argument("--f2", type=_number)
    one_target = target.add_mutually_exclusive_group(required=True)  # argparse refuses none or both: exit 2
    one_target.add_argument("--triple")
    one_target.add_argument("--diagram")
    out.add_argument("--out")
    out.add_argument("--name")
    lift.add_argument("--lift", required=True)

    def add(name, fn, help, *parents):
        sp = sub.add_parser(name, help=help, parents=parents)
        sp.add_argument("bundle", help="bundle file (JSON)")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate, "check diagram axioms").add_argument("--diagram")
    add("realize", cmd_realize, "realize a diagram into a triple", out).add_argument("--diagram", required=True)
    add("axioms", cmd_axioms, "verify triple axioms and detect KO dimension", target)
    add("classify", cmd_classify, "recover a diagram from a triple", target, out)
    add("lift-check", cmd_lift_check, "build phi_H and check real structure/grading", lift)
    add("sigma", cmd_sigma, "print the Gram matrices of a lift", lift)
    add("normalize", cmd_normalize, "diagonalize bases and normalize a lift", lift, out)

    sp = add("compat", cmd_compat, "phi-compatibility of operators across a lift", lift)
    sp.add_argument("--form-a")
    sp.add_argument("--form-b")

    sp = add("action", cmd_action, "spectral action and Lagrangian terms", cutoff, target)
    sp.add_argument("--form")
    sp.add_argument("--config")

    sp = add("compare", cmd_compare, "inherited vs TNIC action comparison over a lift", cutoff, lift)
    sp.add_argument("--form-a", required=True)
    for flag in ("--form-b", "--config-a", "--config-b"):
        sp.add_argument(flag)
    sp.add_argument("--with-fermions", action="store_true")

    one = add("render", cmd_render, "DOT output for a diagram, arrow, or lift").add_mutually_exclusive_group(required=True)
    for flag in ("--diagram", "--arrow", "--lift"):
        one.add_argument(flag)
    return p


_parser = functools.cache(build_parser)  # main's parser, built on first use; build_parser() returns a fresh one


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, text, ok = args.fn(load_bundle(args.bundle), args, args.tol)
        if payload is None:
            sys.stdout.write(text)
        elif args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
        else:
            print(text)
    except (ValueError, ClassificationError, OSError) as exc:
        failed = isinstance(exc, (ValueError, ClassificationError)) and not isinstance(exc, BundleError)
        print(f"{'failed' if failed else 'error'}: {exc}", file=sys.stderr)
        return 1 if failed else 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
