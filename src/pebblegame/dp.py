"""Exact minimum move counts for the bounded-pebble game.

The game: n squares in a row, a pebble may be placed on or removed from
square i only when i == 1 or square i-1 holds a pebble, the board starts
empty, and the goal is to finish with a single pebble on square n while never
holding more than S pebbles at once.  F(n, S) is the least number of moves.

It satisfies

    F(1, S) = 1                       for S >= 1
    F(n, 1) = inf                     for n >= 2
    F(n, S) = min over 1 <= m < n of
              F(m, S) + F(n-m, S-1) + F(m, S-1)

because an optimal play must first build a pebble to some square m, then win
the (n-m)-square game above it with one pebble parked on m, then erase the
first stage in reverse.

One evaluation route is provided: the recursion is filled layer by layer
(one layer per pebble budget), advancing the best split by at most one per
board size, so each layer costs O(nmax) comparisons.  ``build_table`` returns
whole tables; ``f_cost``, ``split_point`` and ``delta`` run one such pass up
to the queried cell and keep no state between calls.  The test suite checks
the layers against a plain recursion over every split.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Iterator

from . import config
from .cost import INFINITE, MAX_FINITE_COST, Cost
from .errors import CostOverflowError, ResourceLimitError, TableRangeError


@dataclass(frozen=True)
class DpTables:
    """Immutable cost and split tables for 1 <= n <= nmax, 1 <= S <= smax.

    ``f[n][s]`` is F(n, s); ``m[n][s]`` is the least optimal split, stored as
    0 where no split is defined (n <= 1 or F infinite).  Row 0 and column 0
    are padding so the math-facing 1-based indices can be used directly.
    """

    nmax: int
    smax: int
    f: tuple
    m: tuple

    def cost(self, n: int, s: int) -> Cost:
        self._check(n, s)
        return self.f[n][s]

    def split(self, n: int, s: int) -> int | None:
        self._check(n, s)
        value = self.m[n][s]
        return value if value > 0 else None

    def _check(self, n: int, s: int) -> None:
        if not 1 <= n <= self.nmax or not 1 <= s <= self.smax:
            raise TableRangeError(
                f"(n={n}, S={s}) outside table extents ({self.nmax}, {self.smax})"
            )


def _check_int(name: str, value, least: int | None = None) -> None:
    """ValueError unless ``value`` is an int, not a bool, and at least ``least`` if given."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _validate(n: int, s: int) -> None:
    _check_int("n", n, 1)
    _check_int("S", s, 0)


def _layers(nmax: int, smax: int, cell_budget: int | None) -> Iterator[tuple]:
    """Yield the (F, least split) layers for S = 1..smax, each as it is filled.

    In the layer for S, ``f[n]`` is F(n, S) and ``m[n]`` the least optimal
    split (0 where undefined); index 0 pads.  Within a layer the optimal
    split advances by at most one per n, so only the current split and its
    successor are compared; once a cell is infinite the rest of the layer is
    infinite.  A consumer that keeps only the last layer holds two at a time.
    """
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    if nmax * smax > budget:
        raise ResourceLimitError(
            f"table of {nmax * smax} cells exceeds the cell budget ({budget})"
        )

    prev = [None, 1] + [INFINITE] * (nmax - 1)
    yield prev, [0] * (nmax + 1)

    for s in range(2, smax + 1):
        cur = [None, 1]
        cur_m = [0, 0]
        if nmax >= 2:
            cur.append(3)
            cur_m.append(1)
        m = 1
        for n in range(3, nmax + 1):
            a1 = cur[m]
            b1 = prev[n - m]
            c1 = prev[m]
            if a1 is INFINITE or b1 is INFINITE or c1 is INFINITE:
                t1: Cost = INFINITE
            else:
                t1 = a1 + b1 + c1
            a2 = cur[m + 1]
            b2 = prev[n - m - 1]
            c2 = prev[m + 1]
            if a2 is INFINITE or b2 is INFINITE or c2 is INFINITE:
                t2: Cost = INFINITE
            else:
                t2 = a2 + b2 + c2
            # Advance only on strict improvement: ties keep the least split.
            if t2 is not INFINITE and (t1 is INFINITE or t2 < t1):
                m += 1
                t = t2
            else:
                t = t1
            if t is not INFINITE and t > MAX_FINITE_COST:
                raise CostOverflowError(f"F(n={n}, S={s}) exceeds the 64-bit cap")
            if t is INFINITE:
                cur.extend([INFINITE] * (nmax - n + 1))
                cur_m.extend([0] * (nmax - n + 1))
                break
            cur.append(t)
            cur_m.append(m)
        yield cur, cur_m
        prev = cur


def _cell(n: int, s: int, cell_budget: int | None) -> tuple:
    """F(n, s) and its least split (0 where undefined) from one layer pass."""
    _validate(n, s)
    if s == 0:
        return INFINITE, 0
    # Budgets beyond n can never bind (at most n squares hold pebbles).
    layer_f, layer_m = collections.deque(_layers(n, min(s, n), cell_budget), maxlen=1)[0]
    return layer_f[n], layer_m[n]


def f_cost(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """F(n, s) from one O(n * min(s, n)) layer pass.  S = 0 yields INFINITE."""
    return _cell(n, s, cell_budget)[0]


def split_point(n: int, s: int, *, cell_budget: int | None = None) -> int | None:
    """Smallest split m attaining F(n, s); None when n <= 1 or F is infinite."""
    return _cell(n, s, cell_budget)[1] or None


def delta(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """Marginal cost of one more square: F(n+1, s) - F(n, s), 0 for n <= 0."""
    _check_int("n", n)
    _check_int("S", s, 1)
    if n <= 0:
        return 0
    layer = collections.deque(_layers(n + 1, min(s, n + 1), cell_budget), maxlen=1)[0][0]
    if layer[n + 1] is INFINITE:
        return INFINITE
    return layer[n + 1] - layer[n]


def is_solvable(n: int, s: int) -> bool:
    """True iff n <= 2**(s-1), without evaluating F or building 2**(s-1)."""
    _validate(n, s)
    if s == 0:
        return False
    return (n - 1).bit_length() <= s - 1


def build_table(nmax: int, smax: int, *, cell_budget: int | None = None) -> DpTables:
    """Fill complete F and split tables for 1 <= n <= nmax, 1 <= S <= smax."""
    _check_int("nmax", nmax, 1)
    _check_int("smax", smax, 1)
    layers_f, layers_m = zip(*_layers(nmax, smax, cell_budget))
    # Transpose to (n, S) rows.  Index 0 of every layer is padding, so row 0
    # comes out as padding; the leading repeat adds the padding column 0.
    f = tuple(zip(itertools.repeat(None), *layers_f))
    m = tuple(zip(itertools.repeat(0), *layers_m))
    return DpTables(nmax=nmax, smax=smax, f=f, m=m)


def table_delta(tables: DpTables, n: int, s: int) -> Cost:
    """Marginal cost read from built tables, without a new layer pass."""
    if not 1 <= s <= tables.smax:
        raise TableRangeError(f"S={s} outside table extents (smax={tables.smax})")
    if n <= 0:
        return 0
    if n + 1 > tables.nmax:
        raise TableRangeError(
            f"delta(n={n}, S={s}) needs F({n + 1}, {s}); table stops at nmax={tables.nmax}"
        )
    nxt = tables.f[n + 1][s]
    if nxt is INFINITE:
        return INFINITE
    return nxt - tables.f[n][s]
