"""Move counts as exact extended integers.

A cost is either a nonnegative int (a number of moves) or the sentinel
``INFINITE`` meaning the instance is unreachable.  The sentinel is a real
value, not a saturated integer, so "unreachable" can never be confused with
"very large".  Finite costs are capped at 2**63 - 1; sums that would pass the
cap raise instead of wrapping or drifting.
"""

from __future__ import annotations

import functools
from typing import Union

from .errors import CostOverflowError

MAX_FINITE_COST = 2**63 - 1


@functools.total_ordering
class InfiniteCost:
    """Singleton sentinel that compares above every finite cost."""

    __slots__ = ()
    _instance: "InfiniteCost | None" = None

    def __new__(cls) -> "InfiniteCost":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    # Ordering against ints makes min()/sorted() work on mixed tables.
    def __lt__(self, other):
        if isinstance(other, (int, InfiniteCost)):
            return False
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, InfiniteCost)

    def __hash__(self):
        return hash("InfiniteCost")


INFINITE = InfiniteCost()

Cost = Union[int, InfiniteCost]


def cost_sum(*terms: Cost) -> Cost:
    """Add costs; any infinite term makes the sum infinite."""
    total = 0
    for term in terms:
        if term is INFINITE:
            return INFINITE
        total += term
    if total > MAX_FINITE_COST:
        raise CostOverflowError(f"cost sum {total} exceeds the 64-bit cap")
    return total


def format_cost(cost: Cost) -> str:
    return "inf" if cost is INFINITE else str(cost)

