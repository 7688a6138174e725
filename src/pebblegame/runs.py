"""The layer engine: layer S of F, cut at a board size, as the runs of its slopes.

With G(m) = F(m, S) + F(m, S-1) and H(j) = F(j, S-1), a layer of ``dp``'s recursion
is the (min,+) convolution of G and H.  Both are convex, so the layer's slopes
d(n) = F(n+1, S) - F(n, S) are the sorted slopes of G and H merged (Cygan, Mucha,
Wegrzycki, Wlodarczyk, "On problems equivalent to (min,+)-convolution", ICALP 2017);
ties go to H, which keeps the least split.  Slopes are even and come in long runs, a
few hundred where a board has tens of thousands of squares, so a layer is kept, and
merged, as its (slope, count) runs.  Past n = 2**(S-1) the merge runs out of finite
terms and F is INFINITE.  ``Layer`` reads F and the least split as prefix sums over
the runs.  ``_budget`` resolves the cell budget and prices each pass ``_layers`` draws;
``_cell``, the one route to a single cell, holds only the layer it reads; ``dp``'s cell API,
a ladder play, the oracle and ``cost``'s handler (last here) ask it, other plays draw a pass.
"""

import collections
import itertools
from typing import Iterator, NamedTuple

from . import config
from .cost import INFINITE, MAX_FINITE_COST, Cost, _checked
from .errors import EXIT_OK, EXIT_UNSOLVABLE, _check_int, _validate
from .errors import CostOverflowError, ResourceLimitError, TableRangeError


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

    def layer(self, s: int) -> "Layer":
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


def _budget(cell_budget: int | None, cells: int | None = None) -> int:
    """The cell budget in force, the default where None, checked to be an int (not a bool);
    ResourceLimitError if ``cells``, the cells a pass would price, exceed it."""
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    _check_int("cell_budget", budget)
    if cells is not None and cells > budget:
        raise ResourceLimitError(f"table of {cells} cells exceeds the cell budget ({budget})")
    return budget


def _layers(nmax: int, smax: int, cell_budget: int | None) -> Iterator[Layer]:
    """Yield the layers for S = 1..smax, each cut at nmax, as it is merged: the one
    generator every pass is drawn from.  nmax and smax are checked to be integers
    >= 1 and ``_budget`` prices the pass at nmax * smax cells, before any layer;
    ``_next_layer`` checks each layer as it walks it."""
    _check_int("nmax", nmax, 1)
    _check_int("smax", smax, 1)
    _budget(cell_budget, nmax * smax)
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
    """F(n, s), its least split (0 where undefined) and the layer that answered it, once
    n, S and the budget's type are checked.  The closed forms settle a cell with no layer
    (None): INFINITE past n = 2**(s-1), S = 0 included, and where s >= n the ladder with
    split 1 (0 at n = 1), as a split m costs at least 2(2m - 1) + 2(n - m) - 1 = 2n - 1 + 2(m - 1).
    Any other cell is read off layer s cut at n, the last of one pass, the one layer held."""
    _validate(n, s)
    _budget(cell_budget)
    if not is_solvable(n, s):
        return INFINITE, 0, None
    if s >= n:
        return _ladder(n), 1 if n > 1 else 0, None
    layer = _last_layer(n, s, cell_budget)
    return layer.cost(n), layer.split(n), layer


def is_solvable(n: int, s: int) -> bool:
    """True iff n <= 2**(s-1), without evaluating F or building 2**(s-1)."""
    _validate(n, s)
    return (n - 1).bit_length() <= s - 1


def cmd_cost(args, limits) -> int:
    value, split, _ = _cell(args.n, args.s, limits.cell_budget)
    print(f"F({args.n},{args.s}) = {value}")
    if value is not INFINITE and args.n >= 2:
        print(f"m({args.n},{args.s}) = {split}")
    return EXIT_OK if value is not INFINITE else EXIT_UNSOLVABLE
