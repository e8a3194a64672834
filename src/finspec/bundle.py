"""JSON bundle files: profiles, diagrams, triples, arrows, lifts, forms, configurations.

Complex scalars are two-element arrays [re, im]; matrices are
{rows, cols, entries} with row-major entries; vertices are keyed
"(i,p,j)" and lift data "(i,p,j)->(k,q,l)".  Serialization is
deterministic (sorted keys, repr floats), so save o load o save is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, AlgebraProfile, VertexLayout
from .action import GaugeConfiguration
from .bratteli import BratteliArrow
from .differential import UniversalNForm, UniversalOneForm
from .krajewski import EDGE_KINDS, Edge, KOSignature, KrajewskiDiagram, RealSpectralTriple, Vertex
from .lifting import DiagramLift

FORMAT_VERSION = 1


class BundleError(ValueError):
    """Parse error, unresolved reference, or shape mismatch in a bundle file."""


@dataclass
class Bundle:
    profiles: dict = field(default_factory=dict)
    diagrams: dict = field(default_factory=dict)
    triples: dict = field(default_factory=dict)
    arrows: dict = field(default_factory=dict)
    lifts: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    configurations: dict = field(default_factory=dict)


def _complex_to_json(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_from_json(obj, where):
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)):
        raise BundleError(f"{where}: complex scalar must be a two-element [re, im] array, got {obj!r}")
    return complex(obj[0], obj[1])


def _matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [_complex_to_json(z) for z in m.reshape(-1)],
    }


def _matrix_from_json(obj, where) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise BundleError(f"{where}: matrix must be a {{rows, cols, entries}} record")
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise BundleError(f"{where}: expected {rows * cols} entries, got {len(entries)}")
    flat = [_complex_from_json(e, f"{where}.entries[{n}]") for n, e in enumerate(entries)]
    return np.array(flat, dtype=complex).reshape(rows, cols)


def _vid_to_key(vid) -> str:
    return f"({vid[0]},{vid[1]},{vid[2]})"


def _vid_from_key(key, where):
    try:
        parts = key.strip("()").split(",")
        i, p, j = (int(x) for x in parts)
        return (i, p, j)
    except Exception:
        raise BundleError(f"{where}: malformed vertex key {key!r}, expected '(i,p,j)'") from None


def _diagram_to_json(diag: KrajewskiDiagram) -> dict:
    vertices = {}
    for vid in diag.sorted_vids():
        v = diag.vertex(vid)
        rec = {}
        if v.s is not None:
            rec["s"] = v.s
        if v.chi is not None:
            rec["chi"] = v.chi
        vertices[_vid_to_key(vid)] = rec
    return {
        "dims": list(diag.profile.dims),
        "d": diag.d,
        "vertices": vertices,
        "jim": {_vid_to_key(v): _vid_to_key(w) for v, w in sorted(diag.jim.items())},
        "edges": [
            {
                "src": _vid_to_key(e.src),
                "dst": _vid_to_key(e.dst),
                "kind": e.kind,
                "op": _matrix_to_json(e.op),
            }
            for e in diag.edges
        ],
    }


def _record(obj, where, required=()) -> dict:
    """obj, checked to be a JSON object holding the required fields."""
    if not isinstance(obj, dict):
        raise BundleError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for name in required:
        if name not in obj:
            raise BundleError(f"{where}: missing field {name!r}")
    return obj


def _int(x, where) -> int:
    """x, checked to be a JSON integer (booleans are not integers here)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise BundleError(f"{where}: expected an integer, got {x!r}")
    return x


def _diagram_from_json(obj, where) -> KrajewskiDiagram:
    _record(obj, where, ("dims", "d"))
    profile = AlgebraProfile(tuple(obj["dims"]))
    ko = KOSignature.from_dim(_int(obj["d"], f"{where}.d"))
    vertices = {}
    for key, rec in obj.get("vertices", {}).items():
        vid = _vid_from_key(key, f"{where}.vertices")
        at = f"{where}.vertices.{key}"
        rec = _record(rec, at)
        dec = {k: None if rec.get(k) is None else _int(rec[k], f"{at}.{k}") for k in ("s", "chi")}
        vertices[vid] = Vertex(vid[0], vid[1], vid[2], **dec)
    jim = {
        _vid_from_key(k, f"{where}.jim"): _vid_from_key(w, f"{where}.jim")
        for k, w in obj.get("jim", {}).items()
    }
    edges = []
    for n, rec in enumerate(obj.get("edges", [])):
        at = f"{where}.edges[{n}]"
        kind = _record(rec, at, ("src", "dst", "op")).get("kind", "general")
        if kind not in EDGE_KINDS:
            raise BundleError(f"{at}.kind: unknown edge kind {kind!r}, expected one of {EDGE_KINDS}")
        edges.append(
            Edge(
                _vid_from_key(rec["src"], f"{at}.src"),
                _vid_from_key(rec["dst"], f"{at}.dst"),
                kind,
                _matrix_from_json(rec["op"], f"{at}.op"),
            )
        )
    return KrajewskiDiagram(profile, ko, vertices, jim, edges)


def _triple_to_json(t: RealSpectralTriple) -> dict:
    return {
        "dims": list(t.profile.dims),
        "d": t.ko.d,
        "layout": [_vid_to_key(v) for v in t.layout.vids],
        "D": _matrix_to_json(t.D),
        "K": _matrix_to_json(t.K),
        "gamma": None if t.gamma is None else _matrix_to_json(t.gamma),
    }


def _triple_from_json(obj, where) -> RealSpectralTriple:
    profile = AlgebraProfile(tuple(obj["dims"]))
    ko = KOSignature.from_dim(obj["d"])
    layout = VertexLayout(profile, [_vid_from_key(k, f"{where}.layout") for k in obj["layout"]])
    D = _matrix_from_json(obj["D"], f"{where}.D")
    K = _matrix_from_json(obj["K"], f"{where}.K")
    gamma = None if obj.get("gamma") is None else _matrix_from_json(obj["gamma"], f"{where}.gamma")
    n = layout.total_dim
    for name, m in (("D", D), ("K", K)) + ((("gamma", gamma),) if gamma is not None else ()):
        if m.shape != (n, n):
            raise BundleError(f"{where}.{name}: shape {m.shape} does not match layout dimension {n}")
    return RealSpectralTriple(profile, ko, layout, D, K, gamma)


def _arrow_to_json(a: BratteliArrow) -> dict:
    return {
        "source": list(a.source.dims),
        "target": list(a.target.dims),
        "alpha": [list(row) for row in a.alpha],
        "n0": list(a.n0),
    }


def _arrow_from_json(obj, where) -> BratteliArrow:
    try:
        return BratteliArrow(
            AlgebraProfile(tuple(obj["source"])),
            AlgebraProfile(tuple(obj["target"])),
            tuple(tuple(row) for row in obj["alpha"]),
            tuple(obj["n0"]),
        )
    except (KeyError, ValueError) as exc:
        raise BundleError(f"{where}: {exc}") from None


def _element_to_json(a: AlgebraElement) -> list:
    return [_matrix_to_json(b) for b in a.blocks]


def _element_from_json(obj, profile, where) -> AlgebraElement:
    if not isinstance(obj, list) or len(obj) != profile.r:
        raise BundleError(f"{where}: element must list {profile.r} blocks")
    return AlgebraElement(profile, [_matrix_from_json(b, f"{where}[{n}]") for n, b in enumerate(obj)])


def _form_to_json(w) -> dict:
    return {
        "dims": list(w.profile.dims),
        "terms": [[_element_to_json(a) for a in term] for term in w.terms],
    }


def _form_from_json(obj, where):
    profile = AlgebraProfile(tuple(obj["dims"]))
    terms = []
    for n, tup in enumerate(obj.get("terms", [])):
        if len(tup) < 2:
            raise BundleError(f"{where}.terms[{n}]: a form term needs at least two elements")
        terms.append(
            tuple(
                _element_from_json(a, profile, f"{where}.terms[{n}][{m}]")
                for m, a in enumerate(tup)
            )
        )
    if all(len(t) == 2 for t in terms):
        return UniversalOneForm(profile, tuple(terms))
    return UniversalNForm(profile, tuple(terms))


def _config_to_json(c: GaugeConfiguration) -> dict:
    return {"B": [_matrix_to_json(b) for b in c.B], "Phi": _matrix_to_json(c.Phi)}


def _config_from_json(obj, where) -> GaugeConfiguration:
    bs = obj.get("B", [])
    if len(bs) != 4:
        raise BundleError(f"{where}.B: expected four fields")
    return GaugeConfiguration(
        tuple(_matrix_from_json(b, f"{where}.B[{n}]") for n, b in enumerate(bs)),
        _matrix_from_json(obj["Phi"], f"{where}.Phi"),
    )


def _lift_to_json(name, lift: DiagramLift, names) -> dict:
    arrow_key, source_key, target_key = names
    u = {}
    for (v, w), m in sorted(lift.u.items()):
        u[f"{_vid_to_key(v)}->{_vid_to_key(w)}"] = _matrix_to_json(m)
    rec = {
        "arrow": arrow_key,
        "source": source_key,
        "target": target_key,
        "u": u,
        "normalized": lift.normalized,
    }
    if lift.kappa is not None:
        rec["kappa"] = {_vid_to_key(v): float(k) for v, k in sorted(lift.kappa.items())}
    return rec


def _lift_from_json(obj, bundle: Bundle, where) -> DiagramLift:
    for fieldname in ("arrow", "source", "target"):
        if obj.get(fieldname) is None:
            raise BundleError(f"{where}: missing reference {fieldname!r}")
    try:
        arrow = bundle.arrows[obj["arrow"]]
        source = bundle.diagrams[obj["source"]]
        target = bundle.diagrams[obj["target"]]
    except KeyError as exc:
        raise BundleError(f"{where}: unresolved reference {exc}") from None
    u = {}
    for key, mat in obj.get("u", {}).items():
        if "->" not in key:
            raise BundleError(f"{where}.u: malformed key {key!r}, expected '(i,p,j)->(k,q,l)'")
        vs, ws = key.split("->", 1)
        u[(_vid_from_key(vs, f"{where}.u"), _vid_from_key(ws, f"{where}.u"))] = _matrix_from_json(
            mat, f"{where}.u[{key}]"
        )
    kappa = None
    if obj.get("kappa") is not None:
        kappa = {_vid_from_key(k, f"{where}.kappa"): float(x) for k, x in obj["kappa"].items()}
    try:
        return DiagramLift(arrow, source, target, u, normalized=bool(obj.get("normalized", False)), kappa=kappa)
    except ValueError as exc:
        raise BundleError(f"{where}: {exc}") from None


def bundle_to_json(bundle: Bundle, lift_names=None) -> dict:
    """Serialize; lift references are resolved by identity against the bundle."""
    doc = {"format_version": FORMAT_VERSION}
    doc["profiles"] = {k: list(p.dims) for k, p in sorted(bundle.profiles.items())}
    doc["diagrams"] = {k: _diagram_to_json(d) for k, d in sorted(bundle.diagrams.items())}
    doc["triples"] = {k: _triple_to_json(t) for k, t in sorted(bundle.triples.items())}
    doc["arrows"] = {k: _arrow_to_json(a) for k, a in sorted(bundle.arrows.items())}
    doc["forms"] = {k: _form_to_json(w) for k, w in sorted(bundle.forms.items())}
    doc["configurations"] = {k: _config_to_json(c) for k, c in sorted(bundle.configurations.items())}
    lifts = {}
    for k, lift in sorted(bundle.lifts.items()):
        if lift_names and k in lift_names:
            names = lift_names[k]
        else:
            names = (
                _find_ref(bundle.arrows, lift.arrow, f"lifts.{k}.arrow"),
                _find_ref(bundle.diagrams, lift.source, f"lifts.{k}.source"),
                _find_ref(bundle.diagrams, lift.target, f"lifts.{k}.target"),
            )
        lifts[k] = _lift_to_json(k, lift, names)
    doc["lifts"] = lifts
    return doc


def _find_ref(table, value, where):
    for k, v in table.items():
        if v is value:
            return k
    raise BundleError(f"{where}: lift references an object not stored in the bundle")


def bundle_from_json(doc) -> Bundle:
    if not isinstance(doc, dict):
        raise BundleError("bundle document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(f"unsupported format_version {version!r}")
    b = Bundle()
    for k, dims in doc.get("profiles", {}).items():
        b.profiles[k] = AlgebraProfile(tuple(dims))
    for k, obj in doc.get("diagrams", {}).items():
        b.diagrams[k] = _diagram_from_json(obj, f"diagrams.{k}")
    for k, obj in doc.get("triples", {}).items():
        b.triples[k] = _triple_from_json(obj, f"triples.{k}")
    for k, obj in doc.get("arrows", {}).items():
        b.arrows[k] = _arrow_from_json(obj, f"arrows.{k}")
    for k, obj in doc.get("forms", {}).items():
        b.forms[k] = _form_from_json(obj, f"forms.{k}")
    for k, obj in doc.get("configurations", {}).items():
        b.configurations[k] = _config_from_json(obj, f"configurations.{k}")
    for k, obj in doc.get("lifts", {}).items():
        b.lifts[k] = _lift_from_json(obj, b, f"lifts.{k}")
    return b


def save_bundle(bundle: Bundle, path) -> None:
    doc = bundle_to_json(bundle)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(path) -> Bundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    return bundle_from_json(doc)
