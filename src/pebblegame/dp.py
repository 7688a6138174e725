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
(one layer per pebble budget).  Writing G(m) = F(m, S) + F(m, S-1) and
H(j) = F(j, S-1), a layer is the (min,+) convolution of G and H.  Both are
convex, so the layer is a merge of their two sorted slope sequences in
O(nmax) steps (Cygan, Mucha, Wegrzycki, Wlodarczyk, "On problems equivalent
to (min,+)-convolution", ICALP 2017); ties go to H, which keeps the least
split.  The finite part of a layer ends at n = 2**(S-1), where the merge
runs out of finite terms; past it the layer is INFINITE padding.
``build_table`` returns whole tables; ``f_cost``, ``split_point`` and
``delta`` run one such pass up to the queried cell and keep no state between
calls.  The test suite checks the layers against a plain recursion over
every split.
"""

from __future__ import annotations

import bisect
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
    split (0 where undefined); index 0 pads.  F(n, S) is the least
    G(m) + H(n - m), G and H as in the module docstring.  Two pointers, m
    and j = n - m, start at 1; after each cell the one whose term grows
    less advances, and a tie advances j, so m stays the least split.  Both
    stop at ``top``, the end of the finite part of the layer below
    (2**(S-2), or nmax if less), so the merge never reads INFINITE, which
    only pads each layer past its own finite part.  A consumer that keeps
    only the last layer holds two at a time.
    """
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    if nmax * smax > budget:
        raise ResourceLimitError(
            f"table of {nmax * smax} cells exceeds the cell budget ({budget})"
        )

    below, top = [None, 1] + [INFINITE] * (nmax - 1), 1
    yield below, [0] * (nmax + 1)

    for s in range(2, smax + 1):
        f, split, m, j = [None, 1], [0, 0], 1, 1
        while len(f) <= nmax:
            f.append(f[m] + below[m] + below[j])
            split.append(m)
            if j < top and (
                m == top
                or below[j + 1] - below[j] <= f[m + 1] - f[m] + below[m + 1] - below[m]
            ):
                j += 1
            elif m < top:
                m += 1
            else:
                break
        # F rises with n: if any cell passes the cap, the last one does.
        if f[-1] > MAX_FINITE_COST:
            n = bisect.bisect_right(f, MAX_FINITE_COST, 1)
            raise CostOverflowError(f"F(n={n}, S={s}) exceeds the 64-bit cap")
        top = len(f) - 1
        f.extend([INFINITE] * (nmax - top))
        split.extend([0] * (nmax - top))
        yield f, split
        below = f


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
