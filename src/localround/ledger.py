"""Simulated LOCAL-round accounting.

Each algorithm phase declares the locality radius it reads and the number
of sequential rounds it represents.  A step touching r-hop balls costs at
least r rounds, which the ledger enforces.  Totals are deterministic for
a fixed input and seed, so reports can be diffed byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class LedgerEntry:
    label: str
    radius: int
    rounds: int


class RoundLedger:
    """Append-only log of (label, radius, rounds) charges."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self.total = 0

    def charge(self, label: str, radius: int, rounds: int) -> "RoundLedger":
        if radius < 0:
            raise PreconditionError(f"negative radius {radius}")
        if rounds < radius:
            raise PreconditionError(
                f"rounds {rounds} < radius {radius} for {label!r}: a step "
                "reading an r-hop ball costs at least r rounds"
            )
        self.entries.append(LedgerEntry(label, radius, rounds))
        self.total += rounds
        return self

    def report(self) -> dict:
        """Per-label breakdown in first-occurrence order, plus the total."""
        order: list[str] = []
        radius_max: dict[str, int] = {}
        rounds: dict[str, int] = {}
        for e in self.entries:
            if e.label not in rounds:
                order.append(e.label)
                rounds[e.label] = 0
                radius_max[e.label] = 0
            rounds[e.label] += e.rounds
            radius_max[e.label] = max(radius_max[e.label], e.radius)
        return {
            "total": self.total,
            "rows": [
                {"label": lbl, "radius_max": radius_max[lbl], "rounds": rounds[lbl]}
                for lbl in order
            ],
        }
