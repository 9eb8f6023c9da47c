"""Uniform verdict records for all decision procedures.

Every bounded checker answers with one of four statuses and always carries
its bounds, so a "holds" is never mistaken for an unbounded claim.  A
"fails" must carry a machine-checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not-applicable"


@dataclass
class Verdict:
    check: str
    status: str
    detail: str = ""
    witness: object = None
    bounds: dict = field(default_factory=dict)
    exact: bool = False

    def __bool__(self) -> bool:
        return self.status == HOLDS

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "witness": None if self.witness is None else str(self.witness),
            "bounds": {k: str(v) for k, v in self.bounds.items()},
            "exact": self.exact,
        }

    def __str__(self) -> str:
        bits = [f"{self.check}: {self.status}"]
        if self.detail:
            bits.append(self.detail)
        if self.witness is not None:
            bits.append(f"witness: {self.witness}")
        return " | ".join(bits)
