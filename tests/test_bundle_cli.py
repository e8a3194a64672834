import contextlib
import functools
import io
import itertools
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import lift_chain

from finspec.action import GaugeConfiguration
from finspec.algebra import AlgebraProfile
from finspec.bratteli import BratteliArrow
from finspec.bundle import Bundle, BundleError, load_bundle, save_bundle
from finspec.catalog import minimal_diagram
from finspec import cli
from finspec.cli import main
from finspec.dot import render_dot
from finspec.krajewski import RealSpectralTriple, realize, validate
from finspec.sampling import (
    random_arrow,
    random_compatible_target,
    random_diagram,
    random_hermitian,
    random_hermitian_form,
    random_lift,
    random_unitary,
    rng_from_seed,
)


@pytest.fixture(scope="module")
def full_bundle(tmp_path_factory):
    from finspec.lifting import diagonalize_bases, inherit_source_dirac, normalize

    rng = rng_from_seed(7)
    src = random_diagram(rng, 6, profile=AlgebraProfile((1, 2)), max_fiber=1,
                         edge_prob=0.7, ensure_edge=True)
    arrow = random_arrow(rng, src.profile, s_max=2, alpha_max=1, n0_max=1)
    tgt = random_compatible_target(rng, src, arrow, max_fiber=1, ensure_edge=True)
    lift = inherit_source_dirac(normalize(diagonalize_bases(random_lift(rng, src, arrow, tgt))))
    b = Bundle()
    b.profiles["A"] = src.profile
    b.diagrams["src"] = lift.source
    b.diagrams["tgt"] = tgt
    b.diagrams["d6"] = minimal_diagram(6, 0.5)
    b.arrows["phi"] = arrow
    b.lifts["L"] = lift
    b.forms["w"] = random_hermitian_form(rng, src.profile)
    b.triples["T"] = realize(lift.source)
    n = b.triples["T"].dim
    b.configurations["c"] = GaugeConfiguration(tuple(random_hermitian(rng, n) for _ in range(4)),
                                               random_hermitian(rng, n))
    path = tmp_path_factory.mktemp("bundles") / "bundle.json"
    save_bundle(b, path)
    return b, str(path)


def test_empty_bundle_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    save_bundle(Bundle(), path)
    b = load_bundle(path)
    assert not b.diagrams and not b.lifts


def test_round_trip_byte_stable(full_bundle, tmp_path):
    b, path = full_bundle
    b2 = load_bundle(path)
    path2 = tmp_path / "again.json"
    save_bundle(b2, path2)
    assert Path(path).read_text() == Path(path2).read_text()
    # complex entries bit-identical
    for key, lift in b.lifts.items():
        for k, m in lift.u.items():
            assert np.array_equal(m, b2.lifts[key].u[k])
    for key, t in b.triples.items():
        assert np.array_equal(t.D, b2.triples[key].D)
        assert np.array_equal(t.K, b2.triples[key].K)


def test_reloaded_diagram_revalidates(full_bundle):
    _, path = full_bundle
    b2 = load_bundle(path)
    assert validate(b2.diagrams["d6"], 1e-12).ok
    t = realize(b2.diagrams["d6"])
    assert np.allclose(t.D, [[0, 0.5], [0.5, 0]])


def test_malformed_complex_scalar_names_field(tmp_path):
    doc = {
        "format_version": 1,
        "diagrams": {
            "bad": {
                "dims": [1],
                "d": 7,
                "vertices": {"(1,1,1)": {}},
                "jim": {"(1,1,1)": "(1,1,1)"},
                "edges": [
                    {"src": "(1,1,1)", "dst": "(1,1,1)", "kind": "general",
                     "op": {"rows": 1, "cols": 1, "entries": [0.5]}}
                ],
            }
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="entries"):
        load_bundle(path)


def test_unresolved_reference(tmp_path):
    doc = {"format_version": 1, "lifts": {"L": {"arrow": "nope", "source": "a", "target": "b", "u": {}}}}
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="unresolved"):
        load_bundle(path)


def test_format_version_gate(tmp_path):
    path = tmp_path / "v99.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(BundleError, match="format_version"):
        load_bundle(path)


def test_nform_round_trip(tmp_path):
    from finspec.differential import UniversalNForm
    from finspec.sampling import random_element

    rng = rng_from_seed(9)
    prof = AlgebraProfile((1, 2))
    w = UniversalNForm(prof, (tuple(random_element(rng, prof) for _ in range(3)),))
    b = Bundle()
    b.forms["w2"] = w
    path = tmp_path / "nform.json"
    save_bundle(b, path)
    w2 = load_bundle(path).forms["w2"]
    assert isinstance(w2, UniversalNForm)
    for a, a2 in zip(w.terms[0], w2.terms[0]):
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, a2.blocks))


def test_dot_deterministic_and_single_vertex(full_bundle):
    b, _ = full_bundle
    out1 = render_dot(b.diagrams["src"])
    out2 = render_dot(b.diagrams["src"])
    assert out1 == out2
    # single vertex diagram: one node, zero edges
    d7 = minimal_diagram(7, 1.0)
    single = render_dot(
        type(d7)(d7.profile, d7.ko, d7.vertices, d7.jim, [])
    )
    assert single.count("label=") == 1 and "->" not in single


def test_dot_bratteli_omits_zero_multiplicities():
    arrow = BratteliArrow(
        AlgebraProfile((1, 2, 3)), AlgebraProfile((6, 6)),
        ((2, 2, 0), (0, 1, 1)), (0, 1),
    )
    out = render_dot(arrow)
    assert out.count("->") == 4          # six possible arrows, two zero multiplicities omitted
    assert '"A3" -> "B1"' not in out
    assert '"A1" -> "B2"' not in out
    assert render_dot(arrow) == out


def test_cli_exit_codes(full_bundle, tmp_path, capsys):
    _, path = full_bundle
    assert main(["validate", path]) == 0
    assert main(["axioms", path, "--diagram", "d6"]) == 0
    assert main(["--format", "json", "lift-check", path, "--lift", "L"]) == 0
    assert main(["sigma", path, "--lift", "L"]) == 0
    out_path = str(tmp_path / "norm.json")
    assert main(["normalize", path, "--lift", "L", "--out", out_path]) == 0
    norm_bundle = load_bundle(out_path)
    assert any(l.normalized for l in norm_bundle.lifts.values())
    assert main(["render", path, "--diagram", "d6"]) == 0
    # D_A is the pullback of D_B in this bundle, so both checks come back weak
    assert main(["compat", path, "--lift", "L"]) == 0
    assert main(["compat", path, "--lift", "L", "--form-a", "w"]) == 0
    capsys.readouterr()


def test_cli_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing)]) == 2
    capsys.readouterr()


def test_cli_in_process_calls_behave_like_fresh_calls(full_bundle, tmp_path, capsys):
    """main parses with one parser, built on first use: a run of calls in one process returns, prints and
    writes what each call does through a freshly built parser, across --format json then text, --out then
    none, and an argparse error (exit 2) followed by a valid call."""
    path, out = full_bundle[1], tmp_path / "normalized.json"
    calls = [["--format", "json", "axioms", path, "--diagram", "d6"], ["axioms", path, "--diagram", "d6"],
             ["normalize", path, "--lift", "L", "--out", str(out)], ["normalize", path, "--lift", "L"],
             ["sigma", path, "--lift", "L", "--no-such-flag"], ["--format", "json", "sigma", path, "--lift", "L"]]

    def run(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, *capsys.readouterr(), written

    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 0, 0, 0, 2, 0]
    assert [r[3] is not None for r in shared] == [False, False, True, False, False, False]
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()


d6 = lambda doc: doc["diagrams"]["d6"]
_zeros = lambda rows, cols: {"rows": rows, "cols": cols, "entries": [[0.0, 0.0]] * (rows * cols)}
SCHEMA_MUTATIONS = {
    "bool-s": (lambda doc: d6(doc)["vertices"]["(1,1,1)"].update(s=True), "diagrams.d6.vertices.(1,1,1).s"),
    "bool-chi": (lambda doc: d6(doc)["vertices"]["(1,1,1)"].update(chi=False), "diagrams.d6.vertices.(1,1,1).chi"),
    "vertex-not-object": (lambda doc: d6(doc)["vertices"].update({"(1,1,1)": [1]}), "diagrams.d6.vertices.(1,1,1)"),
    "edge-without-src": (lambda doc: d6(doc)["edges"][0].pop("src"), "diagrams.d6.edges[0]"),
    "edge-without-dst": (lambda doc: d6(doc)["edges"][0].pop("dst"), "diagrams.d6.edges[0]"),
    "edge-without-op": (lambda doc: d6(doc)["edges"][0].pop("op"), "diagrams.d6.edges[0]"),
    "unknown-edge-kind": (lambda doc: d6(doc)["edges"][0].update(kind="diagonal"), "diagrams.d6.edges[0].kind"),
    "string-d": (lambda doc: d6(doc).update(d="six"), "diagrams.d6.d"),
    "fractional-d": (lambda doc: d6(doc).update(d=6.5), "diagrams.d6.d"),
    "entries-not-array": (lambda doc: d6(doc)["edges"][0]["op"].update(entries=5), "diagrams.d6.edges[0].op.entries"),
    "string-rows": (lambda doc: d6(doc)["edges"][0]["op"].update(rows="x"), "diagrams.d6.edges[0].op.rows"),
    "bool-entry": (lambda doc: d6(doc)["edges"][0]["op"]["entries"].__setitem__(0, [True, 0.0]),
                   "diagrams.d6.edges[0].op.entries[0]"),
    "string-dims": (lambda doc: d6(doc).update(dims=["a"]), "diagrams.d6.dims[0]"),
    "triple-without-K": (lambda doc: doc["triples"]["T"].pop("K"), "triples.T"),
    "nan-in-triple": (lambda doc: doc["triples"]["T"]["D"]["entries"].__setitem__(0, [float("nan"), 0.0]),
                      "triples.T.D"),
    "int-alpha": (lambda doc: doc["arrows"]["phi"].update(alpha=5), "arrows.phi.alpha"),
    "int-form-term": (lambda doc: doc["forms"]["w"]["terms"].__setitem__(0, 5), "forms.w.terms[0]"),
    "huge-d": (lambda doc: d6(doc).update(d=10**400), "diagrams.d6.d"),
    "d-out-of-range": (lambda doc: d6(doc).update(d=8), "diagrams.d6.d"),
    "negative-d": (lambda doc: d6(doc).update(d=-2), "diagrams.d6.d"),
    "zero-s": (lambda doc: d6(doc)["vertices"]["(1,1,1)"].update(s=0), "diagrams.d6.vertices.(1,1,1).s"),
    "huge-s": (lambda doc: d6(doc)["vertices"]["(1,1,1)"].update(s=-10**400), "diagrams.d6.vertices.(1,1,1).s"),
    "chi-out-of-range": (lambda doc: d6(doc)["vertices"]["(1,1,1)"].update(chi=2), "diagrams.d6.vertices.(1,1,1).chi"),
    "huge-chi": (lambda doc: d6(doc)["vertices"]["(1,1,1)"].update(chi=10**400), "diagrams.d6.vertices.(1,1,1).chi"),
    "triple-huge-d": (lambda doc: doc["triples"]["T"].update(d=10**400), "triples.T.d"),
    "huge-entry": (lambda doc: d6(doc)["edges"][0]["op"]["entries"].__setitem__(0, [10**400, 0]),
                   "diagrams.d6.edges[0].op"),
    "huge-kappa": (lambda doc: doc["lifts"]["L"].update(kappa={"(1,1,1)": 10**400}), "lifts.L.kappa.(1,1,1)"),
    "string-kappa": (lambda doc: doc["lifts"]["L"].update(kappa={"(1,1,1)": "x"}), "lifts.L.kappa.(1,1,1)"),
    "list-reference": (lambda doc: doc["lifts"]["L"].update(arrow=["phi"]), "lifts.L"),
    "string-normalized": (lambda doc: doc["lifts"]["L"].update(normalized="no"), "lifts.L.normalized"),
    "layout-out-of-range": (lambda doc: doc["triples"]["T"]["layout"].__setitem__(0, "(9,1,9)"), "triples.T.layout"),
    "duplicate-layout": (lambda doc: doc["triples"]["T"]["layout"].append(doc["triples"]["T"]["layout"][0]),
                         "triples.T.layout"),
    "form-block-shape": (lambda doc: doc["forms"]["w"]["terms"][0][0].__setitem__(0, _zeros(2, 2)), "forms.w"),
    # no layout of these dims can be allocated: the reader compares the shapes before it builds one
    "unallocatable-triple-dims": (lambda doc: doc["triples"]["T"].update(dims=[10**10, 10**10]), "triples.T.D"),
}


CONFIG_MUTATIONS = {
    "1x1-beside-nxn": (lambda c: c["B"].__setitem__(1, {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]})),
    "2x3-Phi": (lambda c: c.update(Phi={"rows": 2, "cols": 3, "entries": [[0.0, 0.0]] * 6})),
}


@pytest.mark.parametrize("mutation", sorted(CONFIG_MUTATIONS))
def test_malformed_configuration_exits_2_naming_path(full_bundle, tmp_path, capsys, mutation):
    with open(full_bundle[1], encoding="utf-8") as fh:
        doc = json.load(fh)
    CONFIG_MUTATIONS[mutation](doc["configurations"]["c"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match=r"^configurations\.c: B_mu and Phi must be square and of one size"):
        load_bundle(bad)
    assert main(["action", str(bad), "--triple", "T", "--config", "c"]) == 2
    assert "error: configurations.c: " in capsys.readouterr().err


ACTION = ["action", "{}", "--triple", "T", "--form", "w"]
BAD_NUMBERS = {
    "--tol": ["--tol", "-1", "validate", "{}", "--diagram", "d6"],
    "--lam": ACTION + ["--lam", "nan"],
    "--width": ACTION + ["--width", "0"],
    "--f2": ACTION + ["--cutoff", "polynomial", "--f2", "inf"],
    "--coeffs": ACTION + ["--cutoff", "polynomial", "--f2", "1", "--coeffs", "1,a"],
}


@pytest.mark.parametrize("flag", sorted(BAD_NUMBERS))
def test_cli_numeric_flag_out_of_domain_is_a_usage_error(full_bundle, capsys, flag):
    """--tol, --lam and --width take positive finite numbers, --f2 a finite one, --coeffs finite ones."""
    with pytest.raises(SystemExit) as info:
        main([a.format(full_bundle[1]) for a in BAD_NUMBERS[flag]])
    assert info.value.code == 2
    assert f"argument {flag}: expected a " in capsys.readouterr().err


@pytest.mark.parametrize("mutation", sorted(SCHEMA_MUTATIONS))
def test_malformed_diagram_exits_2_naming_path(full_bundle, tmp_path, capsys, mutation):
    _, path = full_bundle
    mutate, where = SCHEMA_MUTATIONS[mutation]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--format", "json", "validate", str(bad)]) == 2
    assert f"error: {where}:" in capsys.readouterr().err


UNREADABLE = {
    "utf-16": (b"\xff\xfe" + '{"format_version": 1}'.encode("utf-16-le"), "not UTF-8 text"),
    "deep-nesting": (b"[" * 100_000, "JSON nested too deeply"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_bundle_file_exits_2_naming_the_file(tmp_path, capsys, name):
    """Bytes that are not UTF-8, and nesting deeper than the JSON reader recurses, end in exit 2 with a message
    naming the file, in process and through python -m finspec.cli, never in a traceback."""
    data, what = UNREADABLE[name]
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {what}") and "Traceback" not in err, err
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-m", "finspec.cli", "validate", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stderr.startswith(f"error: {path}: {what}"), done.stderr
    assert "Traceback" not in done.stderr


TARGET_FLAGS = {
    "axioms-both": (["axioms", "--triple", "T", "--diagram", "d6"], "argument --diagram: not allowed with argument --triple"),
    "classify-both": (["classify", "--diagram", "d6", "--triple", "T"], "argument --triple: not allowed with argument --diagram"),
    "action-both": (["action", "--triple", "T", "--diagram", "d6", "--form", "w"], "not allowed with argument --triple"),
    "render-two": (["render", "--diagram", "d6", "--lift", "L"], "argument --lift: not allowed with argument --diagram"),
    "render-arrow-lift": (["render", "--arrow", "phi", "--lift", "L"], "argument --lift: not allowed with argument --arrow"),
    "axioms-none": (["axioms"], "one of the arguments --triple --diagram is required"),
    "render-none": (["render"], "one of the arguments --diagram --arrow --lift is required"),
}


@pytest.mark.parametrize("case", sorted(TARGET_FLAGS))
def test_cli_takes_exactly_one_target_flag(full_bundle, capsys, case):
    """axioms, classify and action read one of --triple, --diagram, and render one of --diagram, --arrow,
    --lift: two of them, or none, is a usage error (exit 2), not a call that drops one."""
    command, message = TARGET_FLAGS[case]
    with pytest.raises(SystemExit) as info:
        main([command[0], full_bundle[1], *command[1:]])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def _broken_involution():
    """An invalid diagram: jim is a 3-cycle, not an involution."""
    from finspec.krajewski import KOSignature, KrajewskiDiagram, Vertex

    vids = [(1, 1, 1), (1, 2, 1), (1, 3, 1)]
    vertices = {v: Vertex(*v, s=1) for v in vids}
    jim = {vids[0]: vids[1], vids[1]: vids[2], vids[2]: vids[0]}
    return KrajewskiDiagram(AlgebraProfile((1,)), KOSignature.from_dim(0), vertices, jim, [])


def test_cli_validation_failure_exits_1(tmp_path, capsys):
    b = Bundle()
    b.diagrams["broken"] = _broken_involution()
    path = tmp_path / "invalid.json"
    save_bundle(b, path)
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", (["validate"], ["lift-check", "--lift", "L"]))
def test_cli_overflowing_edge_exits_1_under_warnings_as_errors(full_bundle, tmp_path, command):
    """An edge entry of 1e300, which the reader accepts, overflows its squared norm: under python -W error -m
    finspec.cli, validate and lift-check exit 1 with the line naming it, and no RuntimeWarning escapes as a traceback."""
    with open(full_bundle[1], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["diagrams"]["tgt"]["edges"][0]["op"]["entries"][0][1] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "finspec.cli", command[0], str(path), *command[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
    assert "[FAIL] edge norms are finite (entries below about 1e154)" in done.stdout + done.stderr, done.stdout


def test_cli_json_output_of_an_overflowing_edge_parses_without_constants(full_bundle, tmp_path, capsys):
    """--format json writes a non-finite residual or bound as the string "inf", "-inf" or "nan": the output of
    validate on an edge entry of 1e300 parses with a parse_constant that refuses Infinity and NaN."""
    with open(full_bundle[1], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["diagrams"]["tgt"]["edges"][0]["op"]["entries"][0][1] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--format", "json", "validate", str(path)]) == 1

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    rows = [row for rep in out.values() for row in rep["checks"]]
    assert {"inf"} <= {row["residual"] for row in rows} | {row["bound"] for row in rows}
    assert all(isinstance(row[k], (int, float, type(None))) or row[k] in ("inf", "-inf", "nan")
               for row in rows for k in ("residual", "bound"))


def test_cli_classification_failure_exits_1(tmp_path, capsys):
    # D couples the fibers (1,1) and (2,2), which share no index: not a Krajewski diagram
    from finspec.krajewski import KOSignature, KrajewskiDiagram, RealSpectralTriple, Vertex

    vids = [(1, 1, 1), (2, 1, 2)]
    diag = KrajewskiDiagram(AlgebraProfile((1, 1)), KOSignature.from_dim(7),
                            {v: Vertex(*v) for v in vids}, {v: v for v in vids}, [])
    t = realize(diag)
    b = Bundle()
    b.triples["T"] = RealSpectralTriple(t.profile, t.ko, t.layout, np.array([[0, 1], [1, 0]]), t.K, t.gamma)
    path = tmp_path / "unrelated.json"
    save_bundle(b, path)
    assert main(["classify", str(path), "--triple", "T"]) == 1
    assert "failed: " in capsys.readouterr().err


def test_cli_compare_without_an_even_source_state_exits_1(tmp_path, capsys):
    """--with-fermions on a d = 0 lift whose only source vertex has s = -1 ends in a 'failed:' line, not a traceback."""
    rng = rng_from_seed(0)
    src = random_diagram(rng, 0, profile=AlgebraProfile((1,)), max_fiber=0, requirements=[(1, 1, -1)])
    arrow = random_arrow(rng, src.profile)
    tgt = random_compatible_target(rng, src, arrow, ensure_edge=True)
    b = Bundle()
    b.diagrams["src"], b.diagrams["tgt"], b.arrows["phi"] = src, tgt, arrow
    b.lifts["step"] = random_lift(rng, src, arrow, tgt)
    b.forms["w"] = random_hermitian_form(rng, src.profile)
    path = str(tmp_path / "odd.json")
    save_bundle(b, path)
    assert main(["compare", path, "--lift", "step", "--form-a", "w"]) == 0
    capsys.readouterr()
    assert main(["compare", path, "--lift", "step", "--form-a", "w", "--with-fermions"]) == 1
    assert "failed: even subspace ker(gamma - 1) is trivial" in capsys.readouterr().err


def _doubled_lift(full_bundle, tmp_path):
    """The fixture bundle with every u entry of lift L doubled; L stays marked normalized."""
    doc = json.loads(Path(full_bundle[1]).read_text(encoding="utf-8"))
    assert doc["lifts"]["L"]["normalized"] is True
    for m in doc["lifts"]["L"]["u"].values():
        m["entries"] = [[2 * re, 2 * im] for re, im in m["entries"]]
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_compare_refuses_a_normalized_lift_that_is_not_an_isometry(full_bundle, tmp_path, capsys):
    """A lift marked normalized whose u is doubled is refused for phi_H, not for the fields it compares."""
    path = _doubled_lift(full_bundle, tmp_path)
    assert main(["compare", path, "--lift", "L", "--form-a", "w"]) == 1
    assert "failed: lift is marked normalized, but phi_H is not an isometry (residual" in capsys.readouterr().err


def test_cli_lift_check_and_compat_do_not_trust_the_normalized_mark(full_bundle, tmp_path, capsys):
    """The range of phi_H comes from M* M also on a lift marked normalized: doubling u changes neither the
    J and gamma lines of lift-check nor the weak verdict of compat, and only compare names phi_H."""
    path = _doubled_lift(full_bundle, tmp_path)
    assert main(["--format", "json", "lift-check", path, "--lift", "L"]) == 0
    assert main(["--format", "json", "compat", path, "--lift", "L", "--form-a", "w"]) == 0
    capsys.readouterr()
    assert main(["compare", path, "--lift", "L", "--form-a", "w"]) == 1
    assert "phi_H is not an isometry" in capsys.readouterr().err


def test_cli_compare_and_action(full_bundle, tmp_path, capsys):
    _, path = full_bundle
    assert main(["action", path, "--triple", "T", "--form", "w", "--lam", "2.0"]) == 0
    rc = main(["--seed", "3", "compare", path, "--lift", "L", "--form-a", "w", "--with-fermions"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trPhi2" in out and "fermionic" in out


def test_cli_json_report_machine_readable(full_bundle, capsys):
    _, path = full_bundle
    assert main(["--format", "json", "axioms", path, "--diagram", "d6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["detected_ko"] == [6]


def _noisy_triple(t, rng):
    """t with noise on D and gamma and K times a random unitary: every order line fails."""
    noise = lambda X: X + 0.5 * random_hermitian(rng, t.dim)
    return RealSpectralTriple(t.profile, t.ko, t.layout, noise(t.D), t.K @ random_unitary(rng, t.dim), noise(t.gamma))


@pytest.fixture(scope="module")
def failing_bundle(full_bundle, tmp_path_factory):
    """The fixture bundle plus a diagram, a triple, a lift and a target form that fail validate, axioms,
    lift-check and compat."""
    from finspec.lifting import DiagramLift

    b = load_bundle(full_bundle[1])
    b.diagrams["broken"] = _broken_involution()
    b.triples["bad"] = _noisy_triple(b.triples["T"], rng_from_seed(2600))
    L, first = b.lifts["L"], min(b.lifts["L"].u)
    u = {k: 1j * m if k == first else m for k, m in L.u.items()}  # breaks u(jim v, jim w) = u(v, w)*
    b.lifts["bad"] = DiagramLift(L.arrow, L.source, L.target, u, normalized=L.normalized, kappa=L.kappa)
    b.forms["wB"] = random_hermitian_form(rng_from_seed(2601), L.target.profile)  # not the pushforward of w
    path = tmp_path_factory.mktemp("failing") / "bundle.json"
    save_bundle(b, path)
    return str(path)


JSON_COMMANDS = (
    (["validate", "--diagram", "src"], 0), (["validate"], 1),
    (["realize", "--diagram", "src"], 0),
    (["axioms", "--triple", "T"], 0), (["axioms", "--triple", "bad"], 1),
    (["classify", "--triple", "T"], 0),
    (["lift-check", "--lift", "L"], 0), (["lift-check", "--lift", "bad"], 1),
    (["sigma", "--lift", "L"], 0),
    (["normalize", "--lift", "L"], 0),
    (["compat", "--lift", "L"], 0), (["compat", "--lift", "L", "--form-a", "w", "--form-b", "wB"], 1),
    (["action", "--triple", "T", "--form", "w", "--config", "c"], 0),
    (["compare", "--lift", "L", "--form-a", "w"], 0),
)


@pytest.mark.parametrize("command, rc", JSON_COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else f"rc{v}")
def test_cli_json_stdout_is_one_document(failing_bundle, capsys, command, rc):
    assert main(["--format", "json", command[0], failing_bundle, *command[1:]]) == rc
    assert isinstance(json.loads(capsys.readouterr().out), dict)  # trailing text would be 'Extra data'


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_cli_render_prints_dot_in_both_formats(full_bundle, capsys, fmt):
    _, path = full_bundle
    assert main(["--format", fmt, "render", path, "--lift", "L"]) == 0
    assert capsys.readouterr().out == render_dot(load_bundle(path).lifts["L"])


def test_cli_failing_order_lines_name_their_witness(full_bundle, tmp_path, capsys):
    bad = Bundle()
    bad.triples["bad"] = _noisy_triple(full_bundle[0].triples["T"], rng_from_seed(2600))
    path = str(tmp_path / "bad.json")
    save_bundle(bad, path)
    order_lines = ("gamma commutes with pi(a)", "commutant [pi(a), J pi(b)* J^-1] = 0",
                   "first order [[D, pi(a)], J pi(b)* J^-1] = 0")

    assert main(["axioms", path, "--triple", "bad"]) == 1
    failing = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
    for name in order_lines:
        line = next(line for line in failing if name in line)
        assert "(worst at a = E^" in line, line

    assert main(["--format", "json", "axioms", path, "--triple", "bad"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in order_lines:
        assert not checks[name]["passed"] and checks[name]["detail"].startswith("worst at a = E^"), checks[name]


def test_cli_nform_where_a_one_form_is_needed_names_the_form(full_bundle, tmp_path, capsys):
    from finspec.differential import UniversalNForm
    from finspec.sampling import random_element

    b, _ = full_bundle
    rng = rng_from_seed(2610)
    prof = b.forms["w"].profile
    b2 = load_bundle(full_bundle[1])
    b2.forms["w"] = UniversalNForm(prof, (tuple(random_element(rng, prof) for _ in range(3)),))
    path = str(tmp_path / "nform.json")
    save_bundle(b2, path)
    for argv in (["action", path, "--triple", "T", "--form", "w"],
                 ["compare", path, "--lift", "L", "--form-a", "w"],
                 ["compat", path, "--lift", "L", "--form-a", "w"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error: forms.w:" in err and "Traceback" not in err, (argv, err)


def test_cli_action_refuses_a_configuration_of_another_size(full_bundle, tmp_path, capsys):
    """A 1 x 1 configuration against a triple of another dimension is an input error (exit 2), not a table."""
    b, _ = full_bundle
    b2 = load_bundle(full_bundle[1])
    b2.configurations["small"] = GaugeConfiguration(tuple(np.eye(1) for _ in range(4)), np.eye(1))
    path = str(tmp_path / "small.json")
    save_bundle(b2, path)
    for target, dim in ((["--triple", "T"], b.triples["T"].dim), (["--diagram", "d6"], 2)):
        assert main(["action", path, *target, "--config", "small"]) == 2, target
        err = capsys.readouterr().err
        assert f"error: configurations.small: fields of size 1, where the triple has dim {dim}" in err, err


def test_cli_form_over_the_wrong_profile_exits_2_naming_the_flag(full_bundle, tmp_path, capsys):
    """A form must live over the profile of the triple it meets; the source form w as --form-b was
    reported as a failed check (exit 1)."""
    from finspec.differential import pushforward

    b2 = load_bundle(full_bundle[1])
    b2.forms["wB"] = pushforward(b2.forms["w"], b2.arrows["phi"])
    path = str(tmp_path / "forms.json")
    save_bundle(b2, path)
    for command in ("compat", "compare"):
        for argv, flag in ((["--form-a", "w", "--form-b", "w"], "--form-b w"), (["--form-a", "wB"], "--form-a wB")):
            assert main([command, path, "--lift", "L", *argv]) == 2, (command, argv)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {flag}: a form over") and "Traceback" not in err, (command, err)
    assert main(["action", path, "--diagram", "tgt", "--form", "w"]) == 2
    assert capsys.readouterr().err.startswith("error: --form w: a form over")


def test_cli_compare_needs_both_configurations(full_bundle, capsys):
    """One configuration flag without the other is an input error naming the missing flag; it used to be
    ignored, with exit 0 and the zero-B table."""
    for given, missing in (("--config-a", "--config-b"), ("--config-b", "--config-a")):
        assert main(["compare", full_bundle[1], "--lift", "L", "--form-a", "w", given, "c"]) == 2, given
        assert capsys.readouterr().err == f"error: {given} needs {missing}\n"


def test_cli_compare_refuses_configurations_of_another_size(full_bundle, tmp_path, capsys):
    """Each configuration must have the dimension of its side's triple (exit 2 naming it), where a mismatch
    used to exit 1 with 'failed: operator shapes do not match phi_H'; matching sizes give a table."""
    from finspec.lifting import build_phiH

    b2 = load_bundle(full_bundle[1])
    M, c = build_phiH(b2.lifts["L"]).matrix, b2.configurations["c"]
    nB, nA = M.shape
    b2.configurations["cB"] = GaugeConfiguration(tuple(M @ X @ M.conj().T for X in c.B), M @ c.Phi @ M.conj().T)  # phi-compatible with c
    path = str(tmp_path / "configs.json")
    save_bundle(b2, path)
    compare = ["compare", path, "--lift", "L", "--form-a", "w", "--config-a"]
    for pair, side, name, m, n in ((["c", "--config-b", "c"], "target", "c", nA, nB),
                                   (["cB", "--config-b", "cB"], "source", "cB", nB, nA)):
        assert main(compare + pair) == 2, pair
        err = capsys.readouterr().err
        assert err == f"error: configurations.{name}: fields of size {m}, where the {side} triple has dim {n}\n", err
    assert main(compare + ["c", "--config-b", "cB"]) == 0
    assert "trF2" in capsys.readouterr().out


def test_cli_compat_form_b_needs_form_a(full_bundle, capsys):
    """--form-b without --form-a used to check D_A against D_B with exit 0, even for a form not in the bundle."""
    for name in ("w", "nonexistent"):
        assert main(["compat", full_bundle[1], "--lift", "L", "--form-b", name]) == 2, name
        assert capsys.readouterr().err == "error: --form-b needs --form-a\n"


@pytest.mark.parametrize("d", (6, 7))
def test_cli_classify_refuses_a_grading_of_the_wrong_parity(tmp_path, capsys, d):
    # an even triple stored without gamma, an odd one carrying a gamma
    from finspec.krajewski import ClassificationError, classify

    t = realize(minimal_diagram(d, 1.0))
    gamma = None if t.ko.even else np.eye(t.dim)
    bad = RealSpectralTriple(t.profile, t.ko, t.layout, t.D, t.K, gamma)
    with pytest.raises(ClassificationError) as info:
        classify(bad)
    assert info.value.step == "grading reduction"
    b = Bundle()
    b.triples["T"] = bad
    path = str(tmp_path / "parity.json")
    save_bundle(b, path)
    assert main(["classify", path, "--triple", "T"]) == 1
    err = capsys.readouterr().err
    assert "failed: classification failed at step 'grading reduction'" in err and "Traceback" not in err


def test_cli_sigma_judges_diagonal_against_the_largest_sigma(tmp_path, capsys):
    """The lift_chain lifts with u scaled by 1e4, once diagonalize_bases has run, are reported diagonal."""
    from finspec.lifting import DiagramLift, diagonalize_bases

    rng = rng_from_seed(5)
    for d in (0, 1, 2, 6, 7):
        lift = lift_chain(rng, d)[3]
        for c in (1.0, 1e4):
            rot = diagonalize_bases(DiagramLift(lift.arrow, lift.source, lift.target,
                                                {k: c * u for k, u in lift.u.items()}), 1e-10)
            b = Bundle()
            b.diagrams["src"], b.diagrams["tgt"], b.arrows["phi"], b.lifts["L"] = rot.source, rot.target, rot.arrow, rot
            path = tmp_path / "sigma.json"
            save_bundle(b, path)
            assert main(["--format", "json", "sigma", str(path), "--lift", "L"]) == 0
            assert json.loads(capsys.readouterr().out)["diagonal"] is True, (d, c)


# -- mutated bundles: every command ends in exit 0, 1 or 2, never in a traceback --

COMMANDS = (
    ["validate"], ["realize", "--diagram", "src"], ["axioms", "--diagram", "d6"], ["axioms", "--triple", "T"],
    ["classify", "--triple", "T"], ["lift-check", "--lift", "L"], ["sigma", "--lift", "L"],
    ["normalize", "--lift", "L"], ["compat", "--lift", "L", "--form-a", "w"],
    ["action", "--triple", "T", "--form", "w"], ["action", "--triple", "T", "--config", "c"],
    ["compare", "--lift", "L", "--form-a", "w"],
    ["render", "--lift", "L"],
)
VERTEX_KEY = re.compile(r"\(\d+,\d+,\d+\)")


def _paths(doc, path=()):
    """Paths to every value of a JSON document, entering only the first entry of each matrix."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:1] if path[-1:] == ("entries",) else doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(doc, path, kind):
    """Mutate the value at path (a nonempty path) in place; True when the schema must reject the result."""
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key, value = path[-1], parent[path[-1]]
    if kind == "drop":
        del parent[key]
        return False
    if kind == "index":  # a vertex out of range, in a key or a value, or a negative count
        if isinstance(value, str) and VERTEX_KEY.fullmatch(value):
            parent[key] = "(9,1,9)"
        elif isinstance(value, dict) and value and VERTEX_KEY.fullmatch(next(iter(value))):
            value["(0,1,1)"] = value.pop(next(iter(value)))
        elif type(value) is int:
            parent[key] = -1
        return False
    parent[key] = {"type": 5 if isinstance(value, str) else "x", "nan": float("nan"), "inf": float("inf"),
                   "bool": True, "huge": 10 ** 400}[kind]
    # a huge integer lies outside the domains of d (0..7), s (-1, 1) and chi (0, 1); other integer fields may take one
    return kind in ("type", "nan", "inf") or (kind == "bool" and type(value) is not bool) or (
        kind == "huge" and (type(value) is not int or key in ("d", "s", "chi")))


@pytest.fixture(scope="module")
def mutation_setup(full_bundle, tmp_path_factory):
    with open(full_bundle[1], encoding="utf-8") as fh:
        text = fh.read()
    directory = tmp_path_factory.mktemp("mutated")
    fresh = (directory / f"bundle-{k}.json" for k in itertools.count())  # truncating a just-written file can wait on a flush
    return text, [p for p in _paths(json.loads(text)) if p], fresh


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_bundles_exit_0_1_or_2_without_traceback(mutation_setup, data):
    text, paths, fresh = mutation_setup
    doc, path = json.loads(text), next(fresh)
    where = data.draw(st.sampled_from(paths), label="path")
    kind = data.draw(st.sampled_from(("drop", "type", "nan", "inf", "bool", "huge", "index")), label="kind")
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    fmt = data.draw(st.sampled_from(("text", "json")), label="format")
    parse_level = _mutate(doc, where, kind)
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["--format", fmt, command[0], str(path), *command[1:]])
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue(), (rc, err.getvalue())
    if parse_level:
        assert rc == 2, (rc, err.getvalue())


VALUES = (None, True, -1, 0, 2, 0.5, float("nan"), "x", "(9,1,9)", [], {}, [[0.0, 0.0]])


def _seeded_mutation(rng, doc, paths, matrices):
    """Mutate doc in place: drop a key or entry, put one of VALUES anywhere, grow a matrix by a row and a column,
    or give a triple or a form dims no layout can hold.  Returns the record path the reader must name in its
    refusal, or None when the result may be valid (diagram edges are judged by validate, not by the reader)."""
    at = lambda path: functools.reduce(operator.getitem, path, doc)
    kind = rng.integers(4)
    if kind < 2:
        path = paths[rng.integers(len(paths))]
        if kind == 0:
            del at(path[:-1])[path[-1]]
        else:
            at(path[:-1])[path[-1]] = VALUES[rng.integers(len(VALUES))]
        return None
    if kind == 2:
        path = matrices[rng.integers(len(matrices))]
        m = at(path)
        at(path[:-1])[path[-1]] = _zeros(m["rows"] + 1, m["cols"] + 1)
        return None if path[0] == "diagrams" else ".".join(path[:2])
    path = (("triples", "T"), ("forms", "w"))[rng.integers(2)]
    at(path)["dims"] = [10**10, 10**10]
    return ".".join(path)


def test_seeded_mutations_exit_0_1_or_2_with_their_prefix(mutation_setup, tmp_path):
    """300 seeded mutations of the fixture bundle, each through a seeded command: main returns 0, 1 or 2 and raises
    nothing; stderr is empty or starts with 'failed: ' on exit 1 and starts with 'error: ' on exit 2; a record that
    a constructor refuses (a matrix or dims of the wrong size) is malformed input, named by its path."""
    text, paths, _ = mutation_setup
    value = lambda path, doc=json.loads(text): functools.reduce(operator.getitem, path, doc)
    matrices = [p for p in paths if isinstance(value(p), dict) and {"rows", "cols", "entries"} <= value(p).keys()]
    rng, refused = rng_from_seed(2800), 0
    for k in range(300):
        doc = json.loads(text)
        where = _seeded_mutation(rng, doc, paths, matrices)
        command = COMMANDS[rng.integers(len(COMMANDS))]
        path = tmp_path / f"mutated-{k}.json"  # a new file each time: truncating a just-written file can wait on a flush
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["--format", ("text", "json")[rng.integers(2)], command[0], str(path), *command[1:]])
        err = err.getvalue()
        assert rc in (0, 1, 2) and "Traceback" not in err, (command, rc, err)
        if rc == 1:
            assert err == "" or err.startswith("failed: "), (command, err)
        if rc == 2:
            assert err.startswith("error: "), (command, err)
        if where is not None:
            assert rc == 2 and err.startswith(f"error: {where}"), (where, command, rc, err)
            refused += 1
    assert refused >= 50


@pytest.mark.parametrize("d", (0, 1, 2, 6, 7))
def test_cli_compare_inherits_the_source_dirac_of_a_raw_lift(d, tmp_path, capsys):
    """compare on a lift that is not normalized diagonalizes, normalizes and inherits phi_H* D_B phi_H, so the pair of
    Dirac operators is phi-compatible: exit 0, and every inherited term equals its source value."""
    for seed in range(3):
        rng = rng_from_seed(3500 + 10 * d + seed)
        src = random_diagram(rng, d, max_fiber=2, edge_prob=0.7, ensure_edge=True)
        arrow = random_arrow(rng, src.profile)
        tgt = random_compatible_target(rng, src, arrow, ensure_edge=True)
        b = Bundle()
        b.diagrams["src"], b.diagrams["tgt"], b.arrows["phi"] = src, tgt, arrow
        b.lifts["raw"] = random_lift(rng, src, arrow, tgt)
        b.forms["w"] = random_hermitian_form(rng, src.profile)
        path = str(tmp_path / f"raw{seed}.json")
        save_bundle(b, path)
        rc = main(["--format", "json", "compare", path, "--lift", "raw", "--form-a", "w"])
        assert rc == 0, (seed, capsys.readouterr().err)
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert len(terms) == 4
        for term in terms:
            assert term["inherited"] == pytest.approx(term["a_value"], rel=1e-9, abs=1e-9), (seed, term)
