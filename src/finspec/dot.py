"""Deterministic DOT rendering of diagrams, Bratteli arrows, and lifts."""

from __future__ import annotations

from .algebra import frob
from .bratteli import BratteliArrow
from .bundle import _vid_to_key
from .krajewski import KrajewskiDiagram
from .lifting import DiagramLift


def _fmt(x) -> str:
    return f"{x:.6g}"


def _vertex_label(diag, vid) -> str:
    v = diag.vertex(vid)
    deco = []
    if v.s is not None:
        deco.append(f"s={v.s:+d}")
    if v.chi is not None:
        deco.append(f"chi={v.chi}")
    return _vid_to_key(v.vid) + (f"[{','.join(deco)}]" if deco else "")


def _diagram_lines(diag, prefix="", indent="  "):
    # vertices sit over the Lambda x Lambda lattice point (i, j); fiber
    # copies are offset along the diagonal
    lines = []
    for vid in diag.sorted_vids():
        i, p, j = vid
        pos = f"{i + 0.25 * (p - 1):.2f},{j + 0.25 * (p - 1):.2f}!"
        lines.append(
            f'{indent}"{prefix}{_vid_to_key(vid)}" [label="{_vertex_label(diag, vid)}", pos="{pos}"];'
        )
    seen = set()
    for e in sorted(diag.edges, key=lambda e: (e.src, e.dst)):
        if (e.dst, e.src) in seen:
            continue
        seen.add((e.src, e.dst))
        style = " dir=none" if e.dst != e.src else ""
        lines.append(
            f'{indent}"{prefix}{_vid_to_key(e.src)}" -> "{prefix}{_vid_to_key(e.dst)}" '
            f'[label="{_fmt(frob(e.op))}"{style}];'
        )
    return lines


def _render_diagram(diag: KrajewskiDiagram) -> str:
    lines = ["digraph krajewski {", "  node [shape=circle];"]
    lines += _diagram_lines(diag)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_arrow(arrow: BratteliArrow) -> str:
    lines = ["digraph bratteli {", "  rankdir=LR;", "  node [shape=box];"]
    for i, n in enumerate(arrow.source.dims, start=1):
        lines.append(f'  "A{i}" [label="M{n}"];')
    for k, m in enumerate(arrow.target.dims, start=1):
        n0 = arrow.n0[k - 1]
        extra = f" (n0={n0})" if n0 else ""
        lines.append(f'  "B{k}" [label="M{m}{extra}"];')
    for k in range(1, arrow.target.r + 1):
        for i in range(1, arrow.source.r + 1):
            mult = arrow.mult(k, i)
            if mult:
                lines.append(f'  "A{i}" -> "B{k}" [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_lift(lift: DiagramLift) -> str:
    lines = ["digraph lift {", "  node [shape=circle];"]
    for name, prefix, diag in (("source", "A:", lift.source), ("target", "B:", lift.target)):
        lines += [f"  subgraph cluster_{name} {{", f'    label="{name}";']
        lines += _diagram_lines(diag, prefix=prefix, indent="    ")
        lines.append("  }")
    for (v, w), u in sorted(lift.u.items()):
        lines.append(f'  "A:{_vid_to_key(v)}" -> "B:{_vid_to_key(w)}" [color=green, label="{_fmt(frob(u))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_dot(item) -> str:
    """DOT text for a diagram, arrow, or lift; byte-identical across calls."""
    if isinstance(item, KrajewskiDiagram):
        return _render_diagram(item)
    if isinstance(item, BratteliArrow):
        return _render_arrow(item)
    if isinstance(item, DiagramLift):
        return _render_lift(item)
    raise TypeError(f"cannot render a {type(item).__name__}")
