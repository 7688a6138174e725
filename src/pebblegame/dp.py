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
``Layer`` is the one reader of the runs; its ``costs`` and ``splits`` read only
the finite part, n <= top, and ``build_table`` pads them with INFINITE and 0
into tables.  A split of 0 means none is defined; only ``split_point`` says
None.  ``f_cost``, ``split_point`` and ``delta`` give INFINITE past 2**(S-1) and
2n - 1 where S >= n with no layer or budget, else one pass of S layers cut at the
queried board.  The tests check the layers against a plain recursion.
The handlers of the ``cost`` and ``table`` commands are the last functions here.
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterator, NamedTuple

from . import config
from .cost import INFINITE, MAX_FINITE_COST, Cost, _checked
from .errors import EXIT_OK, EXIT_UNSOLVABLE, _check_int, _validate
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

    def split(self, n: int) -> int:
        """Least optimal split at n; 0 when n <= 1 or F(n, S) is infinite."""
        self._check(n)
        return 1 + _prefix_sum(self.picks, n - 2) if 2 <= n <= self.top else 0

    def layer(self, s: int) -> Layer:
        """This layer, as ``DpTables.layer`` gives one; TableRangeError for another S."""
        if s != self.s:
            raise TableRangeError(f"S={s} asked of the layer for S={self.s}")
        return self

    def costs(self) -> Iterator:
        """F(n, S) for n = 1..top, the finite part of the layer."""
        slopes = itertools.chain.from_iterable(itertools.starmap(itertools.repeat, self.runs))
        return itertools.accumulate(slopes, initial=1)

    def splits(self) -> Iterator:
        """The least split for n = 1..top: 0 at n = 1 where none is defined, then
        1 plus the G picks among the first n-2."""
        picks = itertools.chain.from_iterable(itertools.starmap(itertools.repeat, self.picks))
        splits = itertools.accumulate(picks, initial=1)
        return itertools.islice(itertools.chain([0], splits), self.top)

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.nmax:
            raise TableRangeError(f"n={n} outside the layer for S={self.s} (nmax={self.nmax})")


def _marginal(cost, n: int) -> Cost:
    """F(n+1) - F(n) by ``cost``: 0 for n <= 0, INFINITE where F(n+1) is infinite."""
    if n <= 0:
        return 0
    after = cost(n + 1)
    return INFINITE if after is INFINITE else after - cost(n)


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
    is kept.  This merge is the one walk over the layer's runs, and each run
    is checked as it is appended: its slope must not fall, since the merge is
    the minimum over splits only while F is convex in n, and F(n, S), carried
    from the seeded slope on, must not pass the 64-bit cap; CostOverflowError
    names the first cell over it.
    """
    s, top = below.s + 1, min(2 * below.top, nmax)
    if top < 2:
        return Layer(s, nmax, top, (), ())
    values, counts, picks = [2], [1], []
    h_runs, g_runs = iter(below.runs), _g_runs(values, counts, below.runs)
    h, g = next(h_runs, None), next(g_runs, None)
    cost, value, count, left = 1, 2, 1, top - 1  # F(1, S), then the seeded run
    while True:
        if cost + value * count > MAX_FINITE_COST:
            n = top - left + (MAX_FINITE_COST - cost) // value + 1
            raise CostOverflowError(f"F(n={n}, S={s}) exceeds the 64-bit cap")
        cost, left = cost + value * count, left - count
        if not left:
            return Layer(s, nmax, top, tuple(zip(values, counts)), tuple(picks))
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


def _layers(nmax: int, smax: int, cell_budget: int | None) -> Iterator[Layer]:
    """Yield the layers for S = 1..smax, each cut at nmax, as it is merged.

    Every check of a layer pass is made here or in the one walk of each
    layer, ``_next_layer``: nmax and smax are integers >= 1, and the cell
    budget is an integer that bounds nmax * smax, the cells a table of these
    layers would hold, all before any layer is made.
    """
    _check_int("nmax", nmax, 1)
    _check_int("smax", smax, 1)
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    _check_int("cell_budget", budget)
    if nmax * smax > budget:
        raise ResourceLimitError(
            f"table of {nmax * smax} cells exceeds the cell budget ({budget})"
        )
    layer = Layer(1, nmax, 1, (), ())
    yield layer
    for _ in range(2, smax + 1):
        layer = _next_layer(layer, nmax)
        yield layer


def _last_layer(nmax: int, s: int, cell_budget: int | None) -> Layer:
    """Layer s cut at nmax, from one pass over the layers below it."""
    return collections.deque(_layers(nmax, s, cell_budget), maxlen=1)[0]


def _ladder(n: int) -> int:
    """F(n, S) for S >= n: 2n - 1, from placing squares 1..n and lifting n-1..1."""
    return _checked(2 * n - 1, f"F(n={n}, S>={n})")


def _cell(n: int, s: int, cell_budget: int | None) -> tuple:
    """F(n, s) and its least split (0 where undefined), once n, S and the budget's type
    are checked: INFINITE past n = 2**(s-1), S = 0 included; where s >= n the ladder,
    with split 1, as a split m costs at least 2(2m - 1) + 2(n - m) - 1 = 2n - 1 + 2(m - 1);
    else from one layer pass, the only case that the budget binds.
    """
    _validate(n, s)
    _check_int("cell_budget", config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget)
    if not is_solvable(n, s):
        return INFINITE, 0
    if s >= n:
        return _ladder(n), 1 if n > 1 else 0
    layer = _last_layer(n, s, cell_budget)
    return layer.cost(n), layer.split(n)


def f_cost(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """F(n, s): INFINITE past n = 2**(s-1), 2n - 1 where s >= n, else from one pass
    over s run layers cut at n."""
    return _cell(n, s, cell_budget)[0]


def split_point(n: int, s: int, *, cell_budget: int | None = None) -> int | None:
    """Smallest split m attaining F(n, s); None when n <= 1 or F is infinite."""
    return _cell(n, s, cell_budget)[1] or None


def delta(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """Marginal cost F(n+1, s) - F(n, s): 0 for n <= 0, 2 for s > n, INFINITE for n >= 2**(s-1)."""
    _check_int("n", n)
    _check_int("S", s, 1)
    _check_int("cell_budget", config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget)
    if s > n:
        return _marginal(_ladder, n)
    if not is_solvable(n + 1, s):
        return INFINITE
    return _marginal(_last_layer(n + 1, s, cell_budget).cost, n)


def is_solvable(n: int, s: int) -> bool:
    """True iff n <= 2**(s-1), without evaluating F or building 2**(s-1)."""
    _validate(n, s)
    return (n - 1).bit_length() <= s - 1


def build_table(nmax: int, smax: int, *, cell_budget: int | None = None) -> DpTables:
    """Fill complete F and split tables for 1 <= n <= nmax, 1 <= S <= smax."""
    layers = list(_layers(nmax, smax, cell_budget))
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
    tables._check(1, s)
    return _marginal(lambda m: tables.cost(m, s), n)


def cmd_cost(args, limits) -> int:
    value, split = _cell(args.n, args.s, limits.cell_budget)
    print(f"F({args.n},{args.s}) = {value}")
    if value is not INFINITE and args.n >= 2:
        print(f"m({args.n},{args.s}) = {split}")
    return EXIT_OK if value is not INFINITE else EXIT_UNSOLVABLE


# Cells of `table` formatted and written at a time.
TABLE_CELLS = 1 << 16


def cmd_table(args, limits) -> int:
    """Write F for n = 1..nmax, S = 1..smax, by solvability bands.

    F(n, S) is finite exactly where n <= top(S) = min(2**(S-1), nmax), so
    in row n the "inf" columns are the prefix S = 1..k, and that prefix is
    the same in every row of the band top(k) < n <= top(k+1), with top(0) = 0
    and top(smax+1) = nmax.  A band with rows gets one line with those cells
    written in, into which its rows' finite costs are formatted one by one.
    The prefix holds only while tops never fall with S, which is checked.
    """
    nmax = args.nmax
    layers = list(_layers(nmax, args.smax, limits.cell_budget))
    tops = [layer.top for layer in layers]
    if any(top > after for top, after in zip(tops, tops[1:])):
        raise ArithmeticError(f"layer tops {tops} fall with S: the infinite cells are not a prefix")
    header = ["n"] + [f"S={layer.s}" for layer in layers]
    sep = {"plain": " ", "csv": ",", "tsv": "\t"}[args.format]
    # F rises in n, so a plain column is as wide as its header or its last finite cell
    # ("inf" is no wider than "S=1", nor "n" than nmax); csv and tsv columns are 0 wide.
    widths = [0] * len(header) if args.format != "plain" else [len(str(nmax))] + [
        max(len(head), len(str(layer.cost(layer.top)))) for head, layer in zip(header[1:], layers)
    ]
    cells = [f"%{width}s" for width in widths]
    infinite = ["inf".rjust(width) for width in widths[1:]]
    print(sep.join(map(str.rjust, header, widths)))
    costs = [layer.costs() for layer in layers]
    per_block = max(1, TABLE_CELLS // len(header))
    for k, (top, last) in enumerate(zip([0, *tops], [*tops, nmax])):  # band k: rows top+1..last
        if top == last:
            continue
        line = sep.join([cells[0], *infinite[:k], *cells[k + 1:]]) + "\n"
        rows = map(line.__mod__, zip(range(top + 1, last + 1), *costs[k:]))
        while block := "".join(itertools.islice(rows, per_block)):
            print(block, end="")
    return EXIT_OK
