"""Bundle files written from and read into numpy arrays, against the json.dump writer and per-entry reader."""

import functools
import json
import operator
import re

import numpy as np
import pytest

import oracles
from helpers import lift_chain

from finspec.action import GaugeConfiguration
from finspec import bundle
from finspec.algebra import VertexLayout
from finspec.bundle import Bundle, BundleError, _matrix_from_json, _matrix_to_json, _write, load_bundle, save_bundle
from finspec.catalog import minimal_diagram
from finspec.differential import UniversalNForm
from finspec.krajewski import RealSpectralTriple, realize
from finspec.lifting import diagonalize_bases, inherit_source_dirac, normalize
from finspec.sampling import random_complex, random_element, random_hermitian, random_hermitian_form, rng_from_seed

# signed zeros, the smallest subnormal, the ends of the float range, and floats that are integers
SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 2.0, -7.0, 1e16, 1e22, 0.1, 1 / 3)


def every_kind_bundle(seed):
    """A bundle holding each record kind: raw, diagonalized and normalized lifts, one- and n-forms, configurations."""
    rng = rng_from_seed([seed, 21])
    d = (0, 1, 2, 6, 7)[seed % 5]
    source, arrow, target, raw = lift_chain(rng, d)
    diag = diagonalize_bases(raw, 1e-10)
    norm = inherit_source_dirac(normalize(diag, 1e-10), 1e-10)
    b = Bundle()
    b.profiles.update(A=source.profile, B=arrow.target)
    b.diagrams.update(source=source, target=target, rotated=diag.source, inherited=norm.source,
                      minimal=minimal_diagram(d, 0.5))
    b.arrows["arrow"] = arrow
    b.lifts.update(raw=raw, diag=diag, norm=norm)
    b.triples.update(A=realize(norm.source), B=realize(target))
    b.forms["w"] = random_hermitian_form(rng, source.profile)
    b.forms["w3"] = UniversalNForm(source.profile, (tuple(random_element(rng, source.profile) for _ in range(3)),))
    n = b.triples["A"].dim
    b.configurations["c"] = GaugeConfiguration(tuple(random_hermitian(rng, n) for _ in range(4)),
                                               random_hermitian(rng, n))
    special = lambda shape: rng.choice(SPECIAL, shape) + 1j * rng.choice(SPECIAL, shape)
    b.configurations["special"] = GaugeConfiguration(tuple(special((3, 3)) for _ in range(4)), special((3, 3)))
    b.configurations["one"] = GaugeConfiguration(tuple(special((1, 1)) for _ in range(4)), [[-0.0 + 5e-324j]])
    return b


def _saved(bundle, path, writer):
    writer(bundle, path)
    return path.read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_writer_bytes_equal_the_json_dump_oracle(seed, tmp_path):
    b = every_kind_bundle(seed)
    new = _saved(b, tmp_path / "new.json", save_bundle)
    assert new == _saved(b, tmp_path / "old.json", oracles.save_bundle_json_dump)
    again = load_bundle(tmp_path / "new.json")
    assert _saved(again, tmp_path / "again.json", save_bundle) == new
    for name, c in b.configurations.items():  # bit for bit, the sign of zero included
        for m, m2 in zip(c.B + (c.Phi,), again.configurations[name].B + (again.configurations[name].Phi,)):
            assert m.tobytes() == m2.tobytes(), name
    assert again.lifts["diag"].kappa == b.lifts["diag"].kappa
    assert again.lifts["norm"].normalized and again.lifts["norm"].kappa == b.lifts["norm"].kappa


def test_empty_bundle_bytes_equal_the_json_dump_oracle(tmp_path):
    new = _saved(Bundle(), tmp_path / "new.json", save_bundle)
    assert new == _saved(Bundle(), tmp_path / "old.json", oracles.save_bundle_json_dump)


BAD_ENTRIES = ("true", '"x"', "null", "[1]", "[1, 2, 3]", "5", "[true, 0]", '[0, "x"]', "[0, [1]]",
               "[1" + "0" * 400 + ", 0]", "[NaN, 0]", "[0, -Infinity]", "[1e400, 0]")


@pytest.mark.parametrize("text", BAD_ENTRIES)
@pytest.mark.parametrize("at", (0, 2))
def test_reader_messages_equal_the_per_entry_oracle(text, at):
    entries = [[0.5, -1], [2, 0.0], [0, 1e-300]]
    entries[at] = json.loads(text)
    obj = {"rows": 1, "cols": 3, "entries": entries}
    with pytest.raises(BundleError) as ref:
        oracles.matrix_from_json_per_entry(obj, "triples.T.D")
    with pytest.raises(BundleError) as got:
        _matrix_from_json(obj, "triples.T.D")
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("obj", (
    {"rows": 2, "cols": 2, "entries": [[0, 0]] * 3},
    {"rows": 1, "cols": 1, "entries": "x"},
    {"rows": True, "cols": 1, "entries": [[0, 0]]},
    {"rows": 0, "cols": 5, "entries": []},
    {"rows": 1, "cols": 2, "entries": [[-0.0, 5e-324], [1, 2 ** 60]]},
))
def test_reader_records_equal_the_per_entry_oracle(obj):
    try:
        ref = oracles.matrix_from_json_per_entry(obj, "m")
    except BundleError as exc:
        with pytest.raises(BundleError, match=re.escape(str(exc))):
            _matrix_from_json(obj, "m")
        return
    got = _matrix_from_json(obj, "m")
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _poison(b):
    """Where a non-finite number can hide, as (JSON path, its value, the matrix or dict holding it, index, doc keys)."""
    u_key = sorted(b.lifts["raw"].u)[0]
    key = "({},{},{})->({},{},{})".format(*u_key[0], *u_key[1])
    vid = sorted(b.lifts["diag"].kappa)[0]
    kappa = "({},{},{})".format(*vid)
    return [
        ("triples.A.D", np.nan, b.triples["A"].D, (0, 0), ("triples", "A", "D", "entries", 0, 0)),
        (f"lifts.raw.u[{key}]", np.inf, b.lifts["raw"].u[u_key], (0, 0), ("lifts", "raw", "u", key, "entries", 0, 0)),
        ("configurations.special.Phi", -np.inf, b.configurations["special"].Phi, (1, 2),
         ("configurations", "special", "Phi", "entries", 5, 0)),
        ("forms.w3.terms[0][2][0]", np.nan, b.forms["w3"].terms[0][2].blocks[0], (0, 0),
         ("forms", "w3", "terms", 0, 2, 0, "entries", 0, 0)),
        ("diagrams.minimal.edges[0].op", np.nan, b.diagrams["minimal"].edges[0].op, (0, 0),
         ("diagrams", "minimal", "edges", 0, "op", "entries", 0, 0)),
        (f"lifts.diag.kappa.{kappa}", np.nan, b.lifts["diag"].kappa, vid, ("lifts", "diag", "kappa", kappa)),
    ]


@pytest.mark.parametrize("case", range(6))
def test_save_refuses_what_load_refuses_before_opening_the_file(case, tmp_path):
    """A non-finite number is refused with the message the reader gives for the file json.dump wrote with it."""
    b = every_kind_bundle(2)
    save_bundle(b, tmp_path / "clean.json")
    doc = json.loads((tmp_path / "clean.json").read_text(encoding="utf-8"))
    where, value, holder, index, keys = _poison(b)[case]
    functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
    (tmp_path / "old.json").write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    with pytest.raises(BundleError) as loaded:
        load_bundle(tmp_path / "old.json")
    assert str(loaded.value).startswith(f"{where}: ")
    if isinstance(holder, np.ndarray):
        holder.flags.writeable = True  # algebra elements freeze their blocks; the constructors refuse a NaN
    holder[index] = value
    with pytest.raises(BundleError) as saved:
        save_bundle(b, tmp_path / "new.json")
    assert str(saved.value) == str(loaded.value)
    assert not (tmp_path / "new.json").exists()


def test_a_large_matrix_goes_out_in_chunks():
    """More entries than one write holds, with a chunk boundary inside a row, at the indent of a nested record."""
    m = random_complex(rng_from_seed(2121), (263, 263))
    parts = []
    _write({"op": _matrix_to_json(m, "op")}, "    ", parts.append)
    assert len(parts) > 8
    ref = json.dumps(oracles._entries_as_lists({"op": _matrix_to_json(m, "op")}), indent=2, sort_keys=True)
    assert "".join(parts) == ref.replace("\n", "\n    ")


def test_a_triple_is_refused_by_its_shapes_before_a_layout_is_built(tmp_path, monkeypatch):
    """The reader compares D, K and gamma with the layout's dimension, summed from the profile and the vertex
    keys, before VertexLayout builds its index tables: a bundle that declares large dims costs nothing."""
    built = []
    monkeypatch.setattr(bundle, "VertexLayout", lambda *args: built.append(args) or VertexLayout(*args))
    t = realize(minimal_diagram(6, 0.5))
    b = Bundle()
    b.triples["T"] = t
    save_bundle(b, tmp_path / "good.json")
    assert load_bundle(tmp_path / "good.json").triples["T"].dim == t.dim and len(built) == 1
    b.triples["T"] = RealSpectralTriple(t.profile, t.ko, t.layout, np.zeros((t.dim + 1, t.dim + 1)), t.K, t.gamma)
    save_bundle(b, tmp_path / "bad.json")
    built.clear()
    with pytest.raises(BundleError, match=rf"^triples\.T\.D: shape \({t.dim + 1}, {t.dim + 1}\) does not match"):
        load_bundle(tmp_path / "bad.json")
    assert built == []
