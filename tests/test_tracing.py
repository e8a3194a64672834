"""The per-layer tracer of the benchmark can still find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import finspec

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Each (module, name) of TRACED is an attribute of finspec; a renamed one would make
    Tracer.install raise AttributeError and a traced benchmark run crash."""
    traced = _tracing().TRACED
    assert ("krajewski", "complete_edges") in traced and ("lifting", "PhiHMap.projector") in traced
    for mod, qual in traced:
        owner = importlib.import_module(f"finspec.{mod}")
        assert owner is getattr(finspec, mod)
        for part in qual.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod, qual)
