"""Exceptions and the claim checker shared across the package."""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, Iterable

import numpy as np


class ParseError(ValueError):
    """An edge-list document could not be parsed."""


class PreconditionError(ValueError):
    """An operation was invoked outside its contract."""


class BudgetExceeded(RuntimeError):
    """An oracle refused an input larger than its budget."""


class RetryBudgetExceeded(RuntimeError):
    """A verified-sampling step exhausted its retry budget."""


class ClaimViolation(AssertionError):
    """A guaranteed inequality failed on computed values.

    Each claim carries a short machine-readable name so a run report can
    say exactly which guarantee broke.
    """

    def __init__(self, claim: str, detail: str = ""):
        self.claim = claim
        self.detail = detail
        super().__init__(f"{claim}: {detail}" if detail else claim)


class ClaimChecker:
    """Counts successful claim checks; raises ClaimViolation on failure."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def ok(self, name: str, condition: bool, detail: str = "") -> None:
        if not condition:
            raise ClaimViolation(name, detail)
        self.counts[name] = self.counts.get(name, 0) + 1

    def ok_each(self, name: str, conditions, detail: Callable[[int], str]) -> None:
        """One check per element of the boolean array `conditions`; on a
        failure, raises with `detail` of the first failing element."""
        if not conditions.all():
            raise ClaimViolation(name, detail(int(conditions.argmin())))
        if len(conditions):
            self.counts[name] = self.counts.get(name, 0) + len(conditions)

    def merge(self, other: "ClaimChecker") -> None:
        for name, cnt in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + cnt


REL_TOL = 1e-9


def leq(a: float, b: float, scale: float | None = None) -> bool:
    """a <= b up to a relative slack, for float-valued guarantees."""
    if scale is None:
        scale = abs(a) + abs(b) + 1.0
    return a <= b + REL_TOL * scale


def geq(a: float, b: float, scale: float | None = None) -> bool:
    return leq(b, a, scale)


def plain_sum(values: Iterable[float] | np.ndarray) -> float:
    """`sum`, added left to right one rounded addition at a time.  From
    Python 3.12 the builtin compensates float rounding, so its last bits,
    and the claims and reports built on them, would depend on the
    Python version.  An array is added by `np.cumsum`, which also adds
    left to right, to the same bits."""
    if isinstance(values, np.ndarray):
        return float(np.cumsum(values)[-1]) if len(values) else 0
    return reduce(operator.add, values, 0)
