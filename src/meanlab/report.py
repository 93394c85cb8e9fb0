"""Check bookkeeping shared by the verification batteries and the CLI.

A report's JSON is its dataclass fields, taken shallowly (``json_fields``)
with each field of nested reports through their own ``to_json``, plus the
verdicts it derives from them (``passed``, ``all_pass``, ``verdict``); keys
are never listed by hand a second time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def json_fields(report) -> dict:
    """A dataclass's fields by name, shallowly: the values themselves, not copies as ``dataclasses.asdict`` makes."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def worst(values) -> float:
    """max(0.0, *values), keeping the first of ties, but NaN when any value is NaN."""
    out = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        if v > out:
            out = v
    return out


def least(values) -> float:
    """min(*values), keeping the first of ties, but NaN when any value is NaN or there is none."""
    out = math.nan
    for v in values:
        if math.isnan(v):
            return math.nan
        if math.isnan(out) or v < out:
            out = v
    return out


@dataclass(frozen=True)
class CheckItem:
    """One named comparison with its tolerance and verdict.

    Three shapes are used throughout. Value comparisons set ``expected`` to
    the reference and pass when |expected - observed| <= tolerance. Bound
    checks set ``expected`` to 0 and pass when observed <= tolerance; the
    observed value is then a residual or deviation norm. Floor checks invert
    the bound: they pass when observed >= tolerance, for quantities that must
    stay visibly away from zero.
    """

    name: str
    expected: float
    observed: float
    tolerance: float
    passed: bool
    mode: str = "compare"

    @classmethod
    def compare(cls, name: str, expected: float, observed: float, tolerance: float) -> "CheckItem":
        ok = (
            math.isfinite(float(observed))
            and abs(float(expected) - float(observed)) <= float(tolerance)
        )
        return cls(name, float(expected), float(observed), float(tolerance), ok, "compare")

    @classmethod
    def bound(cls, name: str, observed: float, tolerance: float) -> "CheckItem":
        ok = math.isfinite(float(observed)) and float(observed) <= float(tolerance)
        return cls(name, 0.0, float(observed), float(tolerance), ok, "bound")

    @classmethod
    def floor(cls, name: str, observed: float, threshold: float) -> "CheckItem":
        ok = math.isfinite(float(observed)) and float(observed) >= float(threshold)
        return cls(name, float(threshold), float(observed), float(threshold), ok, "floor")

    def to_json(self) -> dict:
        return json_fields(self)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.mode == "bound":
            detail = f"observed {self.observed:.6e} <= {self.tolerance:.1e}"
        elif self.mode == "floor":
            detail = f"observed {self.observed:.6e} >= {self.tolerance:.1e}"
        else:
            detail = (
                f"observed {self.observed:.6e}"
                f" vs expected {self.expected:.6e} (tol {self.tolerance:.1e})"
            )
        return f"  [{tag}] {self.name}: {detail}"


@dataclass(frozen=True)
class CheckReport:
    """A titled bundle of check items."""

    title: str
    items: tuple[CheckItem, ...]

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {**json_fields(self), "items": [item.to_json() for item in self.items], "all_pass": self.all_pass}

    def lines(self) -> list[str]:
        head = "PASS" if self.all_pass else "FAIL"
        out = [f"[{head}] {self.title}"]
        out.extend(item.line() for item in self.items)
        return out
