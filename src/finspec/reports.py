"""Uniform pass/fail reports with residual norms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _json_number(x):
    """x, or for a non-finite float its repr ("inf", "-inf" or "nan"), which JSON has no number for."""
    return x if x is None or math.isfinite(x) else repr(x)


@dataclass
class Check:
    name: str
    residual: float
    passed: bool
    detail: str = ""
    bound: float | None = None  # what the residual was judged against; None for a pass/fail line


@dataclass
class Report:
    """Named checks with residuals; ok iff every check passed."""

    title: str
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add(self, name, residual, tol, detail=""):
        residual, bound = float(abs(residual)), float(tol)
        self.checks.append(Check(name, residual, residual <= bound, detail, bound))

    def add_bool(self, name, passed, detail=""):
        self.checks.append(Check(name, 0.0 if passed else 1.0, bool(passed), detail))

    def warn(self, message):
        self.warnings.append(message)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "residual": _json_number(c.residual), "bound": _json_number(c.bound),
                 "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "warnings": list(self.warnings),
        }

    def __str__(self):
        lines = [f"{self.title}: {'OK' if self.ok else 'FAILED'}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            bound = f" bound={c.bound:.3e}" if c.bound is not None else ""
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}: residual={c.residual:.3e}{bound}{detail}")
        for w in self.warnings:
            lines.append(f"  [warn] {w}")
        return "\n".join(lines)
