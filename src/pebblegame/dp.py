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

The layer engine, ``runs``, fills the recursion a layer (a pebble budget) at a time and
answers single cells by ``runs._cell``.  This module holds the cell API that asks it
(``f_cost``, ``split_point``, ``delta``) and the tables: ``build_table`` pads each layer's
finite part with INFINITE and 0 (no split), and the handler of ``table`` is the last
function here.
"""

import itertools
from typing import Iterator, NamedTuple

from .cost import INFINITE, Cost
from .errors import EXIT_OK, TableRangeError, _check_int
from .runs import Layer, _cell, _last_layer, _layers, is_solvable


def _marginal(cost, n: int) -> Cost:
    """F(n+1) - F(n) by ``cost``: 0 for n <= 0, INFINITE where F(n+1) is infinite."""
    if n <= 0:
        return 0
    after = cost(n + 1)
    return INFINITE if after is INFINITE else after - cost(n)


def f_cost(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """F(n, s): INFINITE past n = 2**(s-1), 2n - 1 where s >= n, else from one pass
    over s run layers cut at n."""
    return _cell(n, s, cell_budget)[0]


def split_point(n: int, s: int, *, cell_budget: int | None = None) -> int | None:
    """Smallest split m attaining F(n, s); None when n <= 1 or F is infinite."""
    return _cell(n, s, cell_budget)[1] or None


def delta(n: int, s: int, *, cell_budget: int | None = None) -> Cost:
    """Marginal cost F(n+1, s) - F(n, s): 0 for n <= 0, 2 for s > n, INFINITE for
    n >= 2**(s-1), else read off the one layer ``runs._cell`` holds for F(n+1, s)."""
    _check_int("n", n)
    _check_int("S", s, 1)
    value, _, layer = _cell(max(n, 0) + 1, s, cell_budget)
    if layer is None:  # settled: the ladder's slope is 2
        return INFINITE if value is INFINITE else 2 * (n > 0)
    return _marginal(layer.cost, n)


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
