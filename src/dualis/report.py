"""Machine-readable run reports.

Scalars are emitted as strings ("3", "-1/2", residues as plain integers) so
no JSON float ever appears.  The canonical byte encoding excludes wall-clock
timings; those ride along for the human view only, which keeps reports
byte-identical across runs of the same spec, seed, and version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SpecParseError
from .fields import Field
from .linalg import SparseMatrix

SCHEMA = "dualis-report/1"


def scalar_str(F: Field, v) -> str:
    if F.characteristic == 0:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return str(int(v) % F.characteristic)


def parse_scalar(F: Field, s: str):
    text = str(s).strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            f = Fraction(int(num), int(den))
        else:
            f = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as e:
        raise SpecParseError(f"bad scalar {s!r}: {e}") from e
    if F.characteristic == 0:
        return f.numerator if f.denominator == 1 else f
    p = F.characteristic
    if f.denominator % p == 0:
        raise SpecParseError(f"scalar {s!r} has no residue mod {p}")
    return (f.numerator * pow(f.denominator, -1, p)) % p


def matrix_json(M: SparseMatrix) -> dict:
    entries = sorted(((i, j, scalar_str(M.field, v))
                      for (i, j), v in M.entries.items()))
    return {"rows": M.rows, "cols": M.cols,
            "entries": [[i, j, s] for i, j, s in entries]}


@dataclass
class CheckResult:
    index: int
    name: str
    verdict: str  # pass | fail | error
    details: dict = field(default_factory=dict)
    replay: dict | None = None
    duration_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass
class Report:
    seed: int
    version: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self, with_timings: bool = False) -> dict:
        out = {
            "schema": SCHEMA,
            "version": self.version,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [],
        }
        for c in sorted(self.checks, key=lambda c: c.index):
            item = {
                "index": c.index,
                "name": c.name,
                "verdict": c.verdict,
                "details": c.details,
            }
            if c.replay is not None:
                item["replay"] = c.replay
            if with_timings:
                item["duration_ms"] = round(c.duration_ms, 3)
            out["checks"].append(item)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.payload(with_timings=False),
                          sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.index):
            mark = "PASS" if c.passed else ("ERROR" if c.verdict == "error" else "FAIL")
            extra = ""
            if not c.passed and c.details.get("message"):
                extra = f": {c.details['message']}"
            lines.append(f"{mark} [{c.index}] {c.name}{extra}")
        lines.append(f"{'all checks passed' if self.passed else 'FAILURES present'}"
                     f" ({len(self.checks)} checks)")
        return "\n".join(lines)
