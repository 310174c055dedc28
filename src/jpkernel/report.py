"""Estimate-scan reports and their CSV/JSON serialization.

Floats are serialized with repr (shortest round-trip decimal).  Goldens are
reproducible across platforms because of that and because the values
themselves are: the integral route sums its quadrature terms in a fixed
order (kernel._row_sums), not in one the numpy build picks.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def format_float(x) -> str:
    if isinstance(x, complex) or isinstance(x, np.complexfloating):
        c = complex(x)
        return f"{repr(c.real)}{'+' if c.imag >= 0 else '-'}{repr(abs(c.imag))}j"
    if isinstance(x, numbers.Real) and not isinstance(x, (int, np.integer)):
        return repr(float(x))
    return str(x)


def check_cap(cap):
    """Raise ValueError unless 0 < cap < inf: a scan refuses its cap before
    it evaluates anything, as any other cap makes its pass meaningless."""
    if not 0.0 < cap < math.inf:
        raise ValueError(f"cap must be positive and finite, got {cap}")


@dataclass
class EstimateReport:
    """Rows of a ratio scan plus its pass/fail summary.

    columns names the row schema; every row is a tuple in that order with a
    trailing 'ratio' column; pass means max ratio <= cap (and, when a
    two-sided cap applies, min > 0 and max/min <= cap: a kernel estimated
    from both sides is positive, so a ratio <= 0 fails).  A scan with no
    rows has nothing to report and raises ValueError.
    """

    kind: str
    columns: tuple
    rows: list
    cap: float
    two_sided: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise ValueError(f"the {self.kind} scan has no points to report "
                             "(empty grid or no admissible point)")

    @property
    def ratios(self):
        idx = self.columns.index("ratio")
        return [row[idx] for row in self.rows]

    @property
    def ratio_min(self) -> float:
        finite = [r for r in self.ratios if math.isfinite(r)]
        return min(finite) if finite else math.nan

    @property
    def ratio_max(self) -> float:
        finite = [r for r in self.ratios if math.isfinite(r)]
        return max(finite) if finite else math.nan

    @property
    def passed(self) -> bool:
        if any(not math.isfinite(r) for r in self.ratios):
            return False
        if self.two_sided:
            return self.ratio_min > 0.0 and self.ratio_max / self.ratio_min <= self.cap
        return self.ratio_max <= self.cap

    def summary(self) -> dict:
        return {
            "min": float(self.ratio_min),
            "max": float(self.ratio_max),
            "cap": float(self.cap),
            "pass": bool(self.passed),
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_float(x) for x in row) + "\n")
        return out.getvalue()

    def to_json(self) -> str:
        def scrub(x):
            if isinstance(x, (bool, np.bool_)):
                return bool(x)
            if isinstance(x, (int, np.integer)):
                return int(x)
            if isinstance(x, (float, np.floating)):
                return float(x)
            return x

        payload = {
            "summary": self.summary(),
            "kind": self.kind,
            "meta": {k: scrub(v) for k, v in self.meta.items()},
            "columns": list(self.columns),
            "rows": [[scrub(x) for x in row] for row in self.rows],
        }
        return json.dumps(payload)
