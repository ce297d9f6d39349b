"""Compliance evaluation of measured levels, edges and supply spectrum."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .config import STANDBY_DROP_MAX_V


@dataclass
class ComplianceItem:
    name: str
    min_value: float | None
    max_value: float | None
    achieved: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "item": self.name,
            "min": self.min_value,
            "max": self.max_value,
            "achieved": self.achieved,
            "pass": self.passed,
        }


@dataclass
class ComplianceReport:
    items: list[ComplianceItem]
    notes: list[str] = field(default_factory=list)
    config_text: str = ""

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pass": self.passed,
                "items": [i.as_dict() for i in self.items],
                "notes": self.notes,
                "config": self.config_text,
            },
            indent=2,
        ) + "\n"

    def to_text(self) -> str:
        w = max(len(i.name) for i in self.items)
        lines = [f"{'item':<{w}}  {'min':>10}  {'max':>10}  {'achieved':>12}  verdict",
                 "-" * (w + 48)]
        for i in self.items:
            lo = "-" if i.min_value is None else f"{i.min_value:g}"
            hi = "-" if i.max_value is None else f"{i.max_value:g}"
            lines.append(f"{i.name:<{w}}  {lo:>10}  {hi:>10}  {i.achieved:>12.6g}  "
                         f"{'PASS' if i.passed else 'FAIL'}")
        lines.append("-" * (w + 48))
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


# desired window of each quantity in a stream report, in report order
BOUNDS = {
    "v_off": (3.290, 3.310),
    "v_swing": (0.400, 0.600),
    "v_high": (3.290, 3.310),
    "v_low": (2.700, 2.900),
    "rise_ps": (75.0, None),
    "fall_ps": (75.0, None),
    "low_band_ratio": (None, 0.06),
}

# a standby report: the pulled-up level and its drop below avcc
STANDBY_BOUNDS = {
    "v_off": BOUNDS["v_off"],
    "standby_drop": (None, STANDBY_DROP_MAX_V),
}

# the note that a report carries for each of these items it holds
NOTES = {
    "v_swing": "v_swing is the settled single-ended swing (v_high - v_low); "
               "peak-to-peak figures that include edge overshoot can exceed the "
               "600 mV ceiling and would fail this bound.",
    "standby_drop": "standby: channel never enabled; outputs at pulled-up level",
}


def compliance_report(measurements: dict[str, float], config_text: str = "",
                      bounds: dict = BOUNDS) -> ComplianceReport:
    """Evaluate each quantity in ``bounds`` against its desired window.

    ``measurements`` must carry every key in ``bounds``.
    """
    missing = [k for k in bounds if k not in measurements]
    if missing:
        raise ValueError(f"missing measurements: {missing}")

    items = []
    for name, (lo, hi) in bounds.items():
        value = float(measurements[name])
        ok = (lo is None or value >= lo) and (hi is None or value <= hi)
        items.append(ComplianceItem(name, lo, hi, value, ok))
    notes = [NOTES[name] for name in bounds if name in NOTES]
    return ComplianceReport(items=items, notes=notes, config_text=config_text)
