"""Move counts as exact extended integers.

A cost is either a nonnegative int (a number of moves) or the sentinel
``INFINITE`` meaning the instance is unreachable.  The sentinel is a real
value, not a saturated integer, so "unreachable" can never be confused with
"very large".  Finite costs are capped at 2**63 - 1 by one check, ``_checked``:
a sum or product that would pass the cap raises instead of wrapping or drifting.
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

    def __new__(cls) -> "InfiniteCost":
        return INFINITE

    def __repr__(self) -> str:
        return "inf"

    def __reduce__(self) -> str:
        return "INFINITE"  # pickle and copy look the singleton up by its module-level name

    # Ordering against ints makes min()/sorted() work on mixed tables.
    def __lt__(self, other):
        if isinstance(other, (int, InfiniteCost)):
            return False
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, InfiniteCost)

    def __hash__(self):
        return hash("InfiniteCost")


INFINITE = object.__new__(InfiniteCost)

Cost = Union[int, InfiniteCost]


def cost_sum(*terms: Cost) -> Cost:
    """Add costs; any infinite term makes the sum infinite."""
    total = 0
    for term in terms:
        if term is INFINITE:
            return INFINITE
        total += term
    return _checked(total, f"cost sum {total}")


def _checked(value: int, what: str) -> int:
    if value > MAX_FINITE_COST:
        raise CostOverflowError(f"{what} exceeds the 64-bit cap")
    return value


def format_cost(cost: Cost) -> str:
    return "inf" if cost is INFINITE else str(cost)

