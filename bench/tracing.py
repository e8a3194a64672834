"""Per-layer spans, recorded from outside the program.

`Tracer.install()` replaces each traced public function of finspec by a
timing wrapper, in its home module and in every finspec module that
imported it by name (so `action.fluctuate` and `differential.fluctuate` are
one traced function), and `uninstall()` puts the originals back.  Spans are
kept in memory as (op, span, parent, name, start, end) and written out at
the end of the run; self time is a span's duration minus the part covered
by its traced children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, qualified name) of every traced function; "Class.method" for methods
TRACED = [
    ("krajewski", "realize"), ("krajewski", "validate"), ("krajewski", "verify_axioms"),
    ("krajewski", "detect_ko"), ("krajewski", "classify"), ("krajewski", "extract_edges"),
    ("krajewski", "complete_edges"),
    ("algebra", "VertexLayout.pi"),
    ("lifting", "build_phiH"), ("lifting", "sigma"), ("lifting", "diagonalize_bases"),
    ("lifting", "normalize"), ("lifting", "inherit_source_dirac"), ("lifting", "compat_check"),
    ("lifting", "real_grading_check"), ("lifting", "PhiHMap.projector"),
    ("differential", "represent"), ("differential", "fluctuate"), ("differential", "pushforward"),
    ("action", "compare_actions"), ("action", "bosonic_lagrangian"), ("action", "spectral_action"),
    ("action", "fermionic_pairing"), ("action", "GaugeConfiguration.from_forms"),
    ("bundle", "load_bundle"), ("bundle", "save_bundle"), ("dot", "render_dot"), ("cli", "main"),
]

NAMES = [f"{mod}.{qual}" for mod, qual in TRACED]


class Tracer:
    def __init__(self):
        self.calls = {n: 0 for n in NAMES}
        self.total = {n: 0.0 for n in NAMES}
        self.child = {n: 0.0 for n in NAMES}
        self.top_level = 0.0       # seconds inside outermost traced calls
        self.spans = []
        self.op = -1
        self._stack = []           # [span id, seconds of traced children]
        self._saved = []           # (owner, attribute, original) to restore

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append([span, 0.0])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                _, children = self._stack.pop()
                dt = t1 - t0
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += children
                if self._stack:
                    self._stack[-1][1] += dt
                else:
                    self.top_level += dt
                self.spans[span] = (self.op, span, parent, name, t0, t1)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items()) if k == "finspec" or k.startswith("finspec.")]
        for mod_name, qual in TRACED:
            name = f"{mod_name}.{qual}"
            home = importlib.import_module(f"finspec.{mod_name}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def per_op(self, ops):
        """{F.s, F.self_s, F.calls} per op for every traced function F."""
        out = {}
        for n in NAMES:
            out[f"{n}.s"] = (self.total[n] / ops, "s")
            out[f"{n}.self_s"] = ((self.total[n] - self.child[n]) / ops, "s")
            out[f"{n}.calls"] = (self.calls[n] / ops, "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "span", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
