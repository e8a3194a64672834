"""JSON bundle files: profiles, diagrams, triples, arrows, lifts, forms, configurations.

Complex scalars are two-element arrays [re, im]; matrices are
{rows, cols, entries} with row-major entries; vertices are keyed
"(i,p,j)" and lift data "(i,p,j)->(k,q,l)".  `save_bundle` writes the bytes
of json.dump(doc, fh, indent=2, sort_keys=True) and a newline, doc holding
each matrix's entries as [re, im] lists of floats, so save o load o save is
byte-stable; it formats the entries straight from the array, in chunks, and
refuses a non-finite number with the reader's JSON path before opening the file.
Malformed input is a BundleError that says where: each reader names its field,
`bundle_from_json` names the record of any other ValueError its read raises
("triples.T: ..."), and `load_bundle` names a file it cannot read as JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .algebra import AlgebraElement, AlgebraProfile, VertexLayout
from .action import GaugeConfiguration
from .bratteli import BratteliArrow
from .differential import UniversalNForm, UniversalOneForm
from .krajewski import EDGE_KINDS, Edge, KOSignature, KrajewskiDiagram, RealSpectralTriple, Vertex
from .lifting import DiagramLift

FORMAT_VERSION = 1
_REAL = (int, float)  # JSON number types; bool is excluded by exact type tests
_CHUNK = 1 << 16  # matrix entries formatted per write


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


def _matrix_to_json(m, where) -> dict:
    """The {rows, cols, entries} record of m, its entries kept as the complex array that _write reads."""
    m = np.ascontiguousarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise BundleError(f"{where}: matrix entries must be finite")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": m}


def _matrix_from_json(obj, where) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise BundleError(f"{where}: matrix must be a {{rows, cols, entries}} record")
    rows, cols = _int(obj["rows"], f"{where}.rows"), _int(obj["cols"], f"{where}.cols")
    entries = _array(obj["entries"], f"{where}.entries")
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise BundleError(f"{where}: expected {rows} x {cols} entries, got {len(entries)}")
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}  # C-level passes; the loop
            and set(map(type, chain.from_iterable(entries))) <= set(_REAL)):  # only names the first bad entry
        for n, z in enumerate(entries):
            if type(z) is not list or len(z) != 2 or type(z[0]) not in _REAL or type(z[1]) not in _REAL:
                raise BundleError(f"{where}.entries[{n}]: complex scalar must be a two-element [re, im] array, "
                                  f"got {z!r}")
    try:
        m = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries)).view(complex).reshape(rows, cols)
    except OverflowError:  # a JSON integer beyond the float range
        m = None
    if m is None or not np.isfinite(m).all():
        raise BundleError(f"{where}: matrix entries must be finite")
    return m


def _vid_to_key(vid) -> str:
    return f"({vid[0]},{vid[1]},{vid[2]})"


def _vid_from_key(key, where):
    try:
        parts = key.strip("()").split(",")
        i, p, j = (int(x) for x in parts)
        return (i, p, j)
    except Exception:
        raise BundleError(f"{where}: malformed vertex key {key!r}, expected '(i,p,j)'") from None


def _diagram_to_json(diag: KrajewskiDiagram, where) -> dict:
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
                "op": _matrix_to_json(e.op, f"{where}.edges[{n}].op"),
            }
            for n, e in enumerate(diag.edges)
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


def _int(x, where, domain=None) -> int:
    """x, checked to be a JSON integer (booleans are not integers here), and to lie in domain if one is given."""
    if type(x) is not int:
        raise BundleError(f"{where}: expected an integer, got {x!r}")
    if domain is not None and x not in domain:
        raise BundleError(f"{where}: expected one of {', '.join(map(str, domain))}, got {x!r}")
    return x


def _real(x, where) -> float:
    """x, checked to be a finite JSON number (booleans are not numbers here)."""
    try:
        if type(x) in _REAL and math.isfinite(x):
            return float(x)
    except OverflowError:  # a JSON integer beyond the float range
        pass
    raise BundleError(f"{where}: expected a finite number, got {x!r}")


def _array(x, where) -> list:
    """x, checked to be a JSON array."""
    if not isinstance(x, list):
        raise BundleError(f"{where}: expected an array, got {type(x).__name__}")
    return x


def _ints(x, where) -> tuple:
    """x, checked to be a JSON array of integers."""
    return tuple(_int(v, f"{where}[{n}]") for n, v in enumerate(_array(x, where)))


def _profile(x, where) -> AlgebraProfile:
    """The profile of x, checked to be a JSON array of block dimensions."""
    dims = _ints(x, where)
    try:
        return AlgebraProfile(dims)
    except ValueError as exc:
        raise BundleError(f"{where}: {exc}") from None


def _diagram_from_json(obj, where) -> KrajewskiDiagram:
    _record(obj, where, ("dims", "d"))
    profile = _profile(obj["dims"], f"{where}.dims")
    ko = KOSignature.from_dim(_int(obj["d"], f"{where}.d", range(8)))
    vertices = {}
    for key, rec in _record(obj.get("vertices", {}), f"{where}.vertices").items():
        vid = _vid_from_key(key, f"{where}.vertices")
        at = f"{where}.vertices.{key}"
        rec = _record(rec, at)
        dec = {k: None if rec.get(k) is None else _int(rec[k], f"{at}.{k}", domain)
               for k, domain in (("s", (-1, 1)), ("chi", (0, 1)))}
        vertices[vid] = Vertex(vid[0], vid[1], vid[2], **dec)
    jim = {
        _vid_from_key(k, f"{where}.jim"): _vid_from_key(w, f"{where}.jim")
        for k, w in _record(obj.get("jim", {}), f"{where}.jim").items()
    }
    edges = []
    for n, rec in enumerate(_array(obj.get("edges", []), f"{where}.edges")):
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


def _triple_to_json(t: RealSpectralTriple, where) -> dict:
    return {
        "dims": list(t.profile.dims),
        "d": t.ko.d,
        "layout": [_vid_to_key(v) for v in t.layout.vids],
        "D": _matrix_to_json(t.D, f"{where}.D"),
        "K": _matrix_to_json(t.K, f"{where}.K"),
        "gamma": None if t.gamma is None else _matrix_to_json(t.gamma, f"{where}.gamma"),
    }


def _triple_from_json(obj, where) -> RealSpectralTriple:
    _record(obj, where, ("dims", "d", "layout", "D", "K"))
    profile = _profile(obj["dims"], f"{where}.dims")
    ko = KOSignature.from_dim(_int(obj["d"], f"{where}.d", range(8)))
    vids = [_vid_from_key(k, f"{where}.layout") for k in _array(obj["layout"], f"{where}.layout")]
    r = profile.r
    if len(set(vids)) != len(vids) or not all(1 <= v[0] <= r and 1 <= v[2] <= r for v in vids):
        raise BundleError(f"{where}.layout: vertex keys must be distinct, with blocks in 1..{r}")
    D = _matrix_from_json(obj["D"], f"{where}.D")
    K = _matrix_from_json(obj["K"], f"{where}.K")
    gamma = None if obj.get("gamma") is None else _matrix_from_json(obj["gamma"], f"{where}.gamma")
    n = sum(profile.dim(i) * profile.dim(j) for i, _p, j in vids)  # the layout's dimension, before its index tables
    for name, m in (("D", D), ("K", K)) + ((("gamma", gamma),) if gamma is not None else ()):
        if m.shape != (n, n):
            raise BundleError(f"{where}.{name}: shape {m.shape} does not match layout dimension {n}")
    return RealSpectralTriple(profile, ko, VertexLayout(profile, vids), D, K, gamma)


def _arrow_to_json(a: BratteliArrow, _where) -> dict:
    return {
        "source": list(a.source.dims),
        "target": list(a.target.dims),
        "alpha": [list(row) for row in a.alpha],
        "n0": list(a.n0),
    }


def _arrow_from_json(obj, where) -> BratteliArrow:
    _record(obj, where, ("source", "target", "alpha", "n0"))
    rows = _array(obj["alpha"], f"{where}.alpha")
    return BratteliArrow(
        _profile(obj["source"], f"{where}.source"),
        _profile(obj["target"], f"{where}.target"),
        tuple(_ints(row, f"{where}.alpha[{k}]") for k, row in enumerate(rows)),
        _ints(obj["n0"], f"{where}.n0"),
    )


def _element_to_json(a: AlgebraElement, where) -> list:
    return [_matrix_to_json(b, f"{where}[{n}]") for n, b in enumerate(a.blocks)]


def _element_from_json(obj, profile, where) -> AlgebraElement:
    if not isinstance(obj, list) or len(obj) != profile.r:
        raise BundleError(f"{where}: element must list {profile.r} blocks")
    return AlgebraElement(profile, [_matrix_from_json(b, f"{where}[{n}]") for n, b in enumerate(obj)])


def _form_to_json(w, where) -> dict:
    return {
        "dims": list(w.profile.dims),
        "terms": [[_element_to_json(a, f"{where}.terms[{n}][{m}]") for m, a in enumerate(term)]
                  for n, term in enumerate(w.terms)],
    }


def _form_from_json(obj, where):
    profile = _profile(_record(obj, where, ("dims",))["dims"], f"{where}.dims")
    terms = []
    for n, tup in enumerate(_array(obj.get("terms", []), f"{where}.terms")):
        if not isinstance(tup, list) or len(tup) < 2:
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


def _config_to_json(c: GaugeConfiguration, where) -> dict:
    return {"B": [_matrix_to_json(b, f"{where}.B[{n}]") for n, b in enumerate(c.B)],
            "Phi": _matrix_to_json(c.Phi, f"{where}.Phi")}


def _config_from_json(obj, where) -> GaugeConfiguration:
    bs = _record(obj, where, ("B", "Phi"))["B"]
    if not isinstance(bs, list) or len(bs) != 4:
        raise BundleError(f"{where}.B: expected four fields")
    fields = tuple(_matrix_from_json(b, f"{where}.B[{n}]") for n, b in enumerate(bs))
    return GaugeConfiguration(fields, _matrix_from_json(obj["Phi"], f"{where}.Phi"))


def _lift_to_json(lift: DiagramLift, bundle: Bundle, where) -> dict:
    """The lift's record, naming its arrow and diagrams by their keys in the bundle (found by identity)."""
    refs = (("arrow", bundle.arrows), ("source", bundle.diagrams), ("target", bundle.diagrams))
    rec = {ref: _find_ref(table, getattr(lift, ref), f"{where}.{ref}") for ref, table in refs}
    u = {f"{_vid_to_key(v)}->{_vid_to_key(w)}": m for (v, w), m in lift.u.items()}
    rec["u"] = {key: _matrix_to_json(m, f"{where}.u[{key}]") for key, m in sorted(u.items())}
    rec["normalized"] = lift.normalized
    if lift.kappa is not None:
        kappa = {_vid_to_key(v): k for v, k in lift.kappa.items()}
        rec["kappa"] = {key: _real(float(k), f"{where}.kappa.{key}") for key, k in sorted(kappa.items())}
    return rec


def _lift_from_json(obj, bundle: Bundle, where) -> DiagramLift:
    _record(obj, where)
    for fieldname in ("arrow", "source", "target"):
        if obj.get(fieldname) is None:
            raise BundleError(f"{where}: missing reference {fieldname!r}")
    try:
        arrow = bundle.arrows[obj["arrow"]]
        source = bundle.diagrams[obj["source"]]
        target = bundle.diagrams[obj["target"]]
    except (KeyError, TypeError) as exc:
        raise BundleError(f"{where}: unresolved reference {exc}") from None
    u = {}
    for key, mat in _record(obj.get("u", {}), f"{where}.u").items():
        if "->" not in key:
            raise BundleError(f"{where}.u: malformed key {key!r}, expected '(i,p,j)->(k,q,l)'")
        vs, ws = key.split("->", 1)
        u[(_vid_from_key(vs, f"{where}.u"), _vid_from_key(ws, f"{where}.u"))] = _matrix_from_json(
            mat, f"{where}.u[{key}]"
        )
    kappa = None
    if obj.get("kappa") is not None:
        kappa = {
            _vid_from_key(k, f"{where}.kappa"): _real(x, f"{where}.kappa.{k}")
            for k, x in _record(obj["kappa"], f"{where}.kappa").items()
        }
    normalized = obj.get("normalized", False)
    if type(normalized) is not bool:
        raise BundleError(f"{where}.normalized: expected true or false, got {normalized!r}")
    return DiagramLift(arrow, source, target, u, normalized=normalized, kappa=kappa)


def _plain(to_json, from_json):
    """A record kind that reads and writes without the rest of the bundle, in the signatures of _KINDS."""
    return (lambda x, _bundle, where: to_json(x, where)), (lambda obj, _bundle, where: from_json(obj, where))


# Each record kind of a bundle as (Bundle field, to-json (item, bundle, where), from-json (obj, bundle, where)),
# in the order a document is read: lifts refer to arrows and diagrams, so they come last.
_KINDS = (
    ("profiles", *_plain(lambda p, _where: list(p.dims), _profile)),
    ("diagrams", *_plain(_diagram_to_json, _diagram_from_json)),
    ("triples", *_plain(_triple_to_json, _triple_from_json)),
    ("arrows", *_plain(_arrow_to_json, _arrow_from_json)),
    ("forms", *_plain(_form_to_json, _form_from_json)),
    ("configurations", *_plain(_config_to_json, _config_from_json)),
    ("lifts", _lift_to_json, _lift_from_json),
)


def _find_ref(table, value, where):
    for k, v in table.items():
        if v is value:
            return k
    raise BundleError(f"{where}: lift references an object not stored in the bundle")


def bundle_to_json(bundle: Bundle) -> dict:
    """The document of the bundle, each matrix's entries a complex array; lift references resolve by identity."""
    doc = {"format_version": FORMAT_VERSION}
    for name, to_json, _ in _KINDS:
        doc[name] = {k: to_json(x, bundle, f"{name}.{k}") for k, x in sorted(getattr(bundle, name).items())}
    return doc


def bundle_from_json(doc) -> Bundle:
    if not isinstance(doc, dict):
        raise BundleError("bundle document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise BundleError(f"unsupported format_version {version!r}")
    b = Bundle()
    for name, _, from_json in _KINDS:
        for k, obj in _record(doc.get(name, {}), name).items():
            try:
                getattr(b, name)[k] = from_json(obj, b, f"{name}.{k}")
            except BundleError:
                raise
            except ValueError as exc:  # a constructor refused the record: malformed input, named by its path
                raise BundleError(f"{name}.{k}: {exc}") from None
    return b


def _write(obj, indent, write):
    """Write obj as json.dump(obj, fh, indent=2, sort_keys=True) does; keys and scalars go through json.dumps."""
    inner = indent + "  "
    if isinstance(obj, np.ndarray):  # a matrix's entries, each as [re, im]
        first, mid, last = f"\n{inner}[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
        write("[")
        for k in range(0, obj.size, _CHUNK):
            reprs = iter(map(float.__repr__, obj.reshape(-1)[k:k + _CHUNK].view(float).tolist()))
            write(("," if k else "") + first + f"{last},{first}".join(map(mid.join, zip(reprs, reprs))) + last)
        write(f"\n{indent}]" if obj.size else "]")
    elif isinstance(obj, (dict, list)) and obj:
        is_dict = isinstance(obj, dict)
        items = [(f"{json.dumps(str(k))}: ", v) for k, v in sorted(obj.items())] if is_dict else [("", v) for v in obj]
        write("{" if is_dict else "[")
        for n, (key, value) in enumerate(items):
            write(f"{',' if n else ''}\n{inner}{key}")
            _write(value, inner, write)
        write(f"\n{indent}" + ("}" if is_dict else "]"))
    else:
        write(json.dumps(obj))


def save_bundle(bundle: Bundle, path) -> None:
    doc = bundle_to_json(bundle)
    with open(path, "w", encoding="utf-8") as fh:
        _write(doc, "", fh.write)
        fh.write("\n")


def load_bundle(path) -> Bundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise BundleError(f"{path}: JSON nested too deeply") from None
    return bundle_from_json(doc)
