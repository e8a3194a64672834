import json

import numpy as np
import pytest

from finspec.algebra import AlgebraProfile
from finspec.bratteli import BratteliArrow
from finspec.bundle import Bundle, BundleError, load_bundle, save_bundle
from finspec.catalog import minimal_diagram
from finspec.cli import main
from finspec.dot import render_dot
from finspec.krajewski import realize, validate
from finspec.sampling import (
    random_arrow,
    random_compatible_target,
    random_diagram,
    random_hermitian_form,
    random_lift,
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
    assert open(path).read() == open(path2).read()
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


SCHEMA_MUTATIONS = {
    "bool-s": (lambda d: d["vertices"]["(1,1,1)"].update(s=True), "diagrams.d6.vertices.(1,1,1).s"),
    "bool-chi": (lambda d: d["vertices"]["(1,1,1)"].update(chi=False), "diagrams.d6.vertices.(1,1,1).chi"),
    "vertex-not-object": (lambda d: d["vertices"].update({"(1,1,1)": [1]}), "diagrams.d6.vertices.(1,1,1)"),
    "edge-without-src": (lambda d: d["edges"][0].pop("src"), "diagrams.d6.edges[0]"),
    "edge-without-dst": (lambda d: d["edges"][0].pop("dst"), "diagrams.d6.edges[0]"),
    "edge-without-op": (lambda d: d["edges"][0].pop("op"), "diagrams.d6.edges[0]"),
    "unknown-edge-kind": (lambda d: d["edges"][0].update(kind="diagonal"), "diagrams.d6.edges[0].kind"),
    "string-d": (lambda d: d.update(d="six"), "diagrams.d6.d"),
    "fractional-d": (lambda d: d.update(d=6.5), "diagrams.d6.d"),
}


@pytest.mark.parametrize("mutation", sorted(SCHEMA_MUTATIONS))
def test_malformed_diagram_exits_2_naming_path(full_bundle, tmp_path, capsys, mutation):
    _, path = full_bundle
    mutate, where = SCHEMA_MUTATIONS[mutation]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc["diagrams"]["d6"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--format", "json", "validate", str(bad)]) == 2
    assert f"error: {where}:" in capsys.readouterr().err


def test_cli_validation_failure_exits_1(tmp_path, capsys):
    # an invalid diagram: broken involution
    from finspec.krajewski import KOSignature, KrajewskiDiagram, Vertex

    prof = AlgebraProfile((1,))
    vids = [(1, 1, 1), (1, 2, 1), (1, 3, 1)]
    vertices = {v: Vertex(*v, s=1) for v in vids}
    jim = {vids[0]: vids[1], vids[1]: vids[2], vids[2]: vids[0]}
    b = Bundle()
    b.diagrams["broken"] = KrajewskiDiagram(prof, KOSignature.from_dim(0), vertices, jim, [])
    path = tmp_path / "invalid.json"
    save_bundle(b, path)
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()


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
