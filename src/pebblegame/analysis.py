"""Derived quantities: marginal-cost thresholds, binomial bounds, entropy, the
normalized log-cost on a gamma grid (``f_gamma_report``) and the exact minimum
time-space product.  A DpTables or a dp.Layer is read through ``layer(s)``.

All logarithms are base 2.  Binomial work uses exact integer arithmetic
(math.comb), and each result passes the cost type's 64-bit cap check.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import config, dp
from .cost import INFINITE, MAX_FINITE_COST, _checked
from .errors import ResourceLimitError, TableRangeError


class BeyondTable:
    """Marker: the threshold was not witnessed within the table extents."""

    __slots__ = ()

    def __new__(cls) -> "BeyondTable":
        return BEYOND_TABLE

    def __repr__(self) -> str:
        return "beyond-table"

    def __reduce__(self) -> str:
        return "BEYOND_TABLE"  # pickle and copy look the singleton up by its module-level name


BEYOND_TABLE = object.__new__(BeyondTable)


def _validate_ks(k: int, s: int, min_s: int = 2) -> None:
    dp._check_int("k", k, 0)
    dp._check_int("S", s, min_s)


class ThresholdRecord(NamedTuple):
    """Least n whose marginal cost exceeds 2**k, with its closed-form bounds."""

    k: int
    s: int
    x: object  # int, or BEYOND_TABLE when the table is too small
    x_lower: int
    x_upper: int


class TsRecord(NamedTuple):
    """Exact minimizer of F(n, S) * S over pebble budgets."""

    n: int
    best_s: int
    best_f: int
    product: int
    ratio: float  # log2(product / n) / (2 * sqrt(log2 n)); nan for n = 1


def x_threshold(k: int, s: int, tables: dp.DpTables | dp.Layer):
    """Least n with delta(n, s) > 2**k: the start of the first slope run above
    2**k, else the end of the finite part, whose delta is infinite.

    ``tables`` is a DpTables or the dp.Layer for s.  Returns BEYOND_TABLE when
    no n below the table's nmax witnesses the threshold.
    """
    _validate_ks(k, s, min_s=1)
    layer = tables.layer(s)
    bound, n = 2**k, 1
    for d, count in layer.runs:
        if d > bound:
            return n
        n += count
    return n if n < layer.nmax else BEYOND_TABLE


def x_lower(k: int, s: int) -> int:
    """Closed-form lower bound on the threshold: sum of C(s-1, i) for i <= k."""
    _validate_ks(k, s)
    total = sum(math.comb(s - 1, i) for i in range(k + 1))
    return _checked(total, f"x_lower(k={k}, S={s})")


def x_upper(k: int, s: int) -> int:
    """Closed-form upper bound: min(C(s+k-1, k), 2**(s-1))."""
    _validate_ks(k, s)
    value = min(math.comb(s + k - 1, k), 2 ** (s - 1))
    return _checked(value, f"x_upper(k={k}, S={s})")


def f_bound_lower_sum(k: int, s: int) -> int:
    """Upper bound on F at the lower threshold: sum of C(s-1, i) * 2**(i+1).

    Defined for any k >= 0; it bounds F(x_lower(k, s), s) when k <= s - 1.
    """
    _validate_ks(k, s)
    total = sum(math.comb(s - 1, i) * 2 ** (i + 1) for i in range(k + 1))
    return _checked(total, f"f_bound_lower_sum(k={k}, S={s})")


def f_bound_upper_sum(k: int, s: int) -> int:
    """Companion sum at the upper threshold: sum of C(s+i-2, i) * (2**i + 1)."""
    _validate_ks(k, s)
    total = sum(math.comb(s + i - 2, i) * (2**i + 1) for i in range(k + 1))
    return _checked(total, f"f_bound_upper_sum(k={k}, S={s})")


def threshold_record(k: int, s: int, tables: dp.DpTables | dp.Layer) -> ThresholdRecord:
    return ThresholdRecord(
        k=k, s=s, x=x_threshold(k, s, tables), x_lower=x_lower(k, s), x_upper=x_upper(k, s)
    )


def entropy(gamma: float) -> float:
    """Binary entropy H(gamma), with H(0) = H(1) = 0."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"entropy needs 0 <= gamma <= 1, got {gamma!r}")
    if gamma == 0.0 or gamma == 1.0:
        return 0.0
    return -gamma * math.log2(gamma) - (1.0 - gamma) * math.log2(1.0 - gamma)


def _board_size(h: float, s: int) -> int:
    """floor(2**(h*S)), the board that f reads at h; TableRangeError past float range."""
    try:
        return math.floor(2 ** (h * s))
    except OverflowError:
        raise TableRangeError(f"board size 2**({h}*S) at S={s} is beyond float range") from None


class FGammaRow(NamedTuple):
    gamma: float
    h: float
    n: int
    f_value: float | None  # None when the point is infeasible
    gap: float | None  # f(H(gamma), s) - (gamma + H(gamma))


def f_gamma_report(s: int, tables: dp.DpTables | dp.Layer, gammas):
    """Yield f at H(gamma) for each gamma of a grid, one row at a time; points past
    the layer's top carry None.  ``tables`` is a DpTables or the dp.Layer for s."""
    layer = tables.layer(s)
    for gamma in gammas:
        h = entropy(gamma)
        n = _board_size(h, s)
        if n > layer.top:
            yield FGammaRow(gamma=gamma, h=h, n=n, f_value=None, gap=None)
            continue
        value = math.log2(layer.cost(n)) / s
        yield FGammaRow(gamma=gamma, h=h, n=n, f_value=value, gap=value - (gamma + h))


def min_ts_auto(n: int, *, cell_budget: int | None = None) -> TsRecord:
    """Exact minimum of F(n, S) * S over S, with its smallest minimizer, from one
    pass over run layers cut at n; each layer gives F(n, S) as a prefix sum of its runs.

    The scan from the least solvable S stops once the floor 2n - 1 of F prices every
    later S at or above the best, as it does when F reaches that floor: the best is
    then at most S * (2n - 1).  The cell budget bounds n * (that certifying S).
    ResourceLimitError comes before any layer is filled when the budget cannot reach
    the least solvable S, else when it runs out.
    """
    dp._check_int("n", n, 1)
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    s_start = (n - 1).bit_length() + 1
    smax = min(n, budget // n)
    layers = dp._layers(n, smax, budget) if smax >= s_start else ()
    floor_f = dp._ladder(n) if smax >= s_start else None  # else the budget's message first
    best = (MAX_FINITE_COST + 1, 0, 0)  # (product, S, F); every checked product is less
    for s, layer in itertools.islice(enumerate(layers, 1), s_start - 1, None):
        value = layer.cost(n)
        if value is INFINITE:
            raise TableRangeError(f"F({n}, {s}) is infinite; solvability bound violated")
        best = min(best, (_checked(value * s, f"F({n},{s}) * {s}"), s, value))
        if floor_f * (s + 1) >= best[0]:
            product, best_s, best_f = best
            ratio = math.log2(product / n) / (2.0 * math.sqrt(math.log2(n))) if n > 1 else math.nan
            return TsRecord(n=n, best_s=best_s, best_f=best_f, product=product, ratio=ratio)
    raise ResourceLimitError(
        f"tsmin({n}) needs at least {n * max(smax + 1, s_start)} cells to certify "
        f"its minimum; the cell budget is {budget}"
    )
