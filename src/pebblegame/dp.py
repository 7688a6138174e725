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
convex, so the slopes d(n) = F(n+1, S) - F(n, S) of a layer are the two
sorted slope sequences of G and H merged (Cygan, Mucha, Wegrzycki,
Wlodarczyk, "On problems equivalent to (min,+)-convolution", ICALP 2017);
ties go to H, which keeps the least split.  Slopes are even and come in long
runs, so a layer is kept as its (slope, count) runs, a few hundred where a
board has tens of thousands of squares, and the merge steps a run at a time.
The finite part of a layer ends at n = 2**(S-1), where the merge runs out of
finite terms; past it F is INFINITE.  F(n, S) is a prefix sum over the runs
and the least split a prefix count over the runs of the merge order.
``Layer`` is the one reader of the runs; its ``costs`` and ``splits`` read
only the finite part, n <= top.  ``build_table`` expands them into whole
tables, padded with INFINITE past each top.  ``f_cost``, ``split_point`` and
``delta`` each run one pass of S layers cut at the queried board.
The test suite checks the layers against a plain recursion over every split.
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterator, NamedTuple

from . import config
from .cost import INFINITE, MAX_FINITE_COST, Cost
from .errors import CostOverflowError, ResourceLimitError, TableRangeError


class DpTables(NamedTuple):
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

    def layer(self, s: int) -> Layer:
        """Column s as a Layer, merged again by one pass of s layers cut at nmax."""
        self._check(1, s)
        return _last_layer(self.nmax, s, self.nmax * s)

    def _check(self, n: int, s: int) -> None:
        if not 1 <= n <= self.nmax or not 1 <= s <= self.smax:
            raise TableRangeError(
                f"(n={n}, S={s}) outside table extents ({self.nmax}, {self.smax})"
            )


class Layer(NamedTuple):
    """Layer S of F, cut at board size nmax, as the runs of its slopes.

    ``top`` is the last finite n, min(2**(S-1), nmax); F is INFINITE past it.
    ``runs`` holds, in order, the (d, count) runs of the slopes
    d(n) = F(n+1, S) - F(n, S) for n = 1..top-1, so F(n, S) is 1 plus the
    first n-1 slopes.  ``picks`` holds the (is_g, count) runs of the merge
    that made them (``_next_layer``), is_g true for G slopes and false for
    H slopes.  The least split at 2 <= n <= top is 1 plus the G picks among
    the first n-2.  Layer 1 is (1, nmax, 1, (), ()).
    """

    s: int
    nmax: int
    top: int
    runs: tuple
    picks: tuple

    def cost(self, n: int) -> Cost:
        """F(n, S): 1 plus the first n-1 slopes."""
        self._check(n)
        return 1 + _prefix_sum(self.runs, n - 1) if n <= self.top else INFINITE

    def split(self, n: int) -> int | None:
        """Least optimal split at n; None when n <= 1 or F(n, S) is infinite."""
        self._check(n)
        return 1 + _prefix_sum(self.picks, n - 2) if 2 <= n <= self.top else None

    def delta(self, n: int) -> Cost:
        """F(n+1, S) - F(n, S), 0 for n <= 0; INFINITE at n = top."""
        if n <= 0:
            return 0
        after = self.cost(n + 1)
        return INFINITE if after is INFINITE else after - self.cost(n)

    def costs(self) -> Iterator:
        """F(n, S) for n = 1..top, the finite part of the layer."""
        slopes = itertools.chain.from_iterable(itertools.starmap(itertools.repeat, self.runs))
        return itertools.accumulate(slopes, initial=1)

    def splits(self) -> Iterator:
        """The least split for n = 1..top, 0 at n = 1 where none is defined."""
        splits = itertools.chain.from_iterable(self._split_runs())
        return itertools.chain([0, 1][: self.top], splits)

    def _split_runs(self) -> Iterator:
        """The least splits for n = 3..top, a range per G run, a repeat per H run."""
        m = 1
        for is_g, count in self.picks:
            yield range(m + 1, m + count + 1) if is_g else itertools.repeat(m, count)
            m += is_g * count

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.nmax:
            raise TableRangeError(f"n={n} outside the layer for S={self.s} (nmax={self.nmax})")


def _check_int(name: str, value, least: int | None = None) -> None:
    """ValueError unless ``value`` is an int, not a bool, and at least ``least`` if given."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _validate(n: int, s: int) -> None:
    _check_int("n", n, 1)
    _check_int("S", s, 0)


def _prefix_sum(runs, k: int) -> int:
    """Sum of the first k values that the (value, count) ``runs`` stand for."""
    total = 0
    for value, count in runs:
        if k <= count:
            return total + value * k
        total, k = total + value * count, k - count
    return total


def _g_runs(values: list, counts: list, lower: tuple) -> Iterator[tuple]:
    """Runs of the G slopes d_S(m) + d_{S-1}(m), m = 1, 2, ...: the slope runs
    (values, counts) of layer S, read as the merge appends to them, added to
    the runs of the layer below.  A run is cut where either term changes; the
    caller takes each whole before it asks for the next."""
    g = used = 0
    for d, left in lower:
        while left:
            if used == counts[g]:
                g, used = g + 1, 0
            count = min(counts[g] - used, left)
            yield values[g] + d, count
            used, left = used + count, left - count


def _next_layer(below: Layer, nmax: int) -> Layer:
    """Layer S = below.s + 1, cut at nmax, as the merge of two slope sequences.

    The H slopes are d_{S-1}(j), j = 1, 2, ...; the G slopes come from
    ``_g_runs``, whose first term is an earlier output of this same merge
    (d_S(1) = 2, and G never reads past the output's end).  Each step takes
    the run at the head of H or of G, a tie going to H, so the least split
    is kept.  Each merged slope is checked not to fall: the merge is the
    minimum over splits only while F is convex in n.
    """
    s, top = below.s + 1, min(2 * below.top, nmax)
    if top < 2:
        return Layer(s, nmax, top, (), ())
    values, counts, picks = [2], [1], []
    h_runs, g_runs = iter(below.runs), _g_runs(values, counts, below.runs)
    h, g = next(h_runs, None), next(g_runs, None)
    left = top - 2
    while left:
        is_g = h is None or (g is not None and g[0] < h[0])
        value, count = g if is_g else h
        count = min(count, left)
        if value > values[-1]:
            values.append(value)
            counts.append(count)
        elif value == values[-1]:
            counts[-1] += count
        else:
            raise ArithmeticError(
                f"slope d(n={top - left}, S={s}) = {value} falls below {values[-1]}: "
                "F is not convex in n"
            )
        if is_g:
            g = next(g_runs, None)
        else:
            h = next(h_runs, None)
        if picks and picks[-1][0] == is_g:
            picks[-1] = (is_g, picks[-1][1] + count)
        else:
            picks.append((is_g, count))
        left -= count
    return Layer(s, nmax, top, tuple(zip(values, counts)), tuple(picks))


def _check_cap(layer: Layer) -> None:
    """CostOverflowError naming the first cell of ``layer`` over the 64-bit cap."""
    n, value = 1, 1
    for d, count in layer.runs:
        if value + d * count > MAX_FINITE_COST:
            n += (MAX_FINITE_COST - value) // d + 1
            raise CostOverflowError(f"F(n={n}, S={layer.s}) exceeds the 64-bit cap")
        n, value = n + count, value + d * count


def _layers(nmax: int, smax: int, cell_budget: int | None) -> Iterator[Layer]:
    """Yield the layers for S = 1..smax, each cut at nmax, as it is merged.

    The cell budget bounds nmax * smax, the cells a table of these layers
    would hold, and is checked before any layer is made.
    """
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    if nmax * smax > budget:
        raise ResourceLimitError(
            f"table of {nmax * smax} cells exceeds the cell budget ({budget})"
        )
    layer = Layer(1, nmax, 1, (), ())
    yield layer
    for _ in range(2, smax + 1):
        layer = _next_layer(layer, nmax)
        _check_cap(layer)
        yield layer


def _last_layer(nmax: int, s: int, cell_budget: int | None) -> Layer:
    """Layer s cut at nmax, from one pass over the layers below it."""
    return collections.deque(_layers(nmax, s, cell_budget), maxlen=1)[0]


def _ladder(n: int) -> int:
    """F(n, S) for S >= n: 2n - 1, from placing squares 1..n and lifting n-1..1."""
    if 2 * n - 1 > MAX_FINITE_COST:
        raise CostOverflowError(f"F(n={n}, S>={n}) exceeds the 64-bit cap")
    return 2 * n - 1


def _cell(n: int, s: int, cell_budget: int | None) -> tuple:
    """F(n, s) and its least split (0 where undefined) from one layer pass.

    Where s >= n no budget binds, and the answer is the ladder with split 1:
    a split m costs at least 2(2m - 1) + 2(n - m) - 1 = 2n - 1 + 2(m - 1).
    """
    _validate(n, s)
    if s == 0:
        return INFINITE, 0
    if s >= n:
        return _ladder(n), 1 if n > 1 else 0
    layer = _last_layer(n, s, cell_budget)
    return layer.cost(n), layer.split(n) or 0


def f_cost(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """F(n, s) from one pass over s run layers cut at n, or 2n - 1 at once where
    s >= n.  S = 0 yields INFINITE."""
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
    if s > n:
        return _ladder(n + 1) - _ladder(n)
    return _last_layer(n + 1, s, cell_budget).delta(n)


def is_solvable(n: int, s: int) -> bool:
    """True iff n <= 2**(s-1), without evaluating F or building 2**(s-1)."""
    _validate(n, s)
    if s == 0:
        return False
    return (n - 1).bit_length() <= s - 1


def _table_layers(nmax: int, smax: int, cell_budget: int | None) -> list:
    """The layers for S = 1..smax cut at nmax, after the checks on a table's extents."""
    _check_int("nmax", nmax, 1)
    _check_int("smax", smax, 1)
    return list(_layers(nmax, smax, cell_budget))


def build_table(nmax: int, smax: int, *, cell_budget: int | None = None) -> DpTables:
    """Fill complete F and split tables for 1 <= n <= nmax, 1 <= S <= smax."""
    layers = _table_layers(nmax, smax, cell_budget)
    # Zip the layers' columns, read lazily, into (n, S) rows: no column is
    # held as a list.  Each column is padded at n = 0, so row 0 comes out as
    # padding, and past the layer's top; the leading repeat adds column 0.
    f = [_column(layer, layer.costs(), None, INFINITE) for layer in layers]
    m = [_column(layer, layer.splits(), 0, 0) for layer in layers]
    f, m = tuple(zip(itertools.repeat(None), *f)), tuple(zip(itertools.repeat(0), *m))
    return DpTables(nmax=nmax, smax=smax, f=f, m=m)


def _column(layer: Layer, values: Iterator, pad, beyond) -> Iterator:
    """A layer's values for n = 1..top as a table column: ``pad`` at n = 0,
    then the values, then ``beyond`` for n = top+1..nmax."""
    return itertools.chain([pad], values, itertools.repeat(beyond, layer.nmax - layer.top))


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
