"""Derived quantities: marginal-cost thresholds, binomial bounds, entropy,
and the exact minimum time-space product.

All logarithms are base 2.  Binomial work uses exact integer arithmetic
(math.comb) with an explicit 64-bit cap on results, matching the cost type.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import config, dp
from .cost import INFINITE, MAX_FINITE_COST
from .errors import CostOverflowError, ResourceLimitError, TableRangeError, UnsolvableError


class BeyondTable:
    """Marker: the threshold was not witnessed within the table extents."""

    __slots__ = ()
    _instance: "BeyondTable | None" = None

    def __new__(cls) -> "BeyondTable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "beyond-table"


BEYOND_TABLE = BeyondTable()


def _checked(value: int, what: str) -> int:
    if value > MAX_FINITE_COST:
        raise CostOverflowError(f"{what} exceeds the 64-bit cap")
    return value


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


def _layer(tables: dp.DpTables | dp.Layer, s: int) -> dp.Layer:
    """Layer s of ``tables``: a dp.Layer as it is, or a DpTables column as runs."""
    if not isinstance(tables, dp.Layer):
        return tables.layer(s)
    if tables.s != s:
        raise TableRangeError(f"S={s} asked of the layer for S={tables.s}")
    return tables


def x_threshold(k: int, s: int, tables: dp.DpTables | dp.Layer):
    """Least n with delta(n, s) > 2**k: the start of the first slope run above
    2**k, else the end of the finite part, whose delta is infinite.

    ``tables`` is a DpTables or the dp.Layer for s.  Returns BEYOND_TABLE when
    no n below the table's nmax witnesses the threshold.
    """
    _validate_ks(k, s, min_s=1)
    layer = _layer(tables, s)
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


def f_gamma(gamma: float, s: int, tables: dp.DpTables | dp.Layer) -> float:
    """Normalized log-cost (1/s) * log2 F(floor(2**(gamma*s)), s), read from a
    DpTables or from the dp.Layer for s."""
    dp._check_int("S", s, 1)
    n = _board_size(gamma, s)
    if n < 1:
        raise ValueError(f"gamma={gamma} gives an empty board (floor 2**(gamma*S) = {n})")
    if n > tables.nmax:
        raise TableRangeError(
            f"f_gamma(gamma={gamma}, S={s}) needs F({n}, {s}); table stops at nmax={tables.nmax}"
        )
    value = _layer(tables, s).cost(n)
    if value is INFINITE:
        raise UnsolvableError(f"f_gamma(gamma={gamma}, S={s}): F({n}, {s}) is infinite")
    return math.log2(value) / s


class FGammaRow(NamedTuple):
    gamma: float
    h: float
    n: int
    f_value: float | None  # None when the point is infeasible
    gap: float | None  # f(H(gamma), s) - (gamma + H(gamma))


def f_gamma_report(s: int, tables: dp.DpTables | dp.Layer, gammas) -> list:
    """Evaluate f at H(gamma) across a grid; infeasible points carry None.
    ``tables`` is a DpTables or the dp.Layer for s."""
    layer, rows = _layer(tables, s), []
    for gamma in gammas:
        h = entropy(gamma)
        n = _board_size(h, s)
        if n < 1 or n > layer.nmax or not dp.is_solvable(n, s):
            rows.append(FGammaRow(gamma=gamma, h=h, n=n, f_value=None, gap=None))
            continue
        value = f_gamma(h, s, layer)
        rows.append(
            FGammaRow(gamma=gamma, h=h, n=n, f_value=value, gap=value - (gamma + h))
        )
    return rows


def min_ts_auto(n: int, *, cell_budget: int | None = None) -> TsRecord:
    """Exact minimum of F(n, S) * S over S, with its smallest minimizer, from one
    pass over run layers cut at n; each layer gives F(n, S) as a prefix sum of its runs.

    The scan from the least solvable S stops once F reaches its floor 2n - 1 (more
    pebbles cannot shrink it, so the product only grows) or the floor alone prices
    every later S above the best.  The cell budget bounds n * (that certifying S).
    ResourceLimitError comes before any layer is filled when the budget cannot reach
    the least solvable S, else when it runs out.
    """
    dp._check_int("n", n, 1)
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    s_start = (n - 1).bit_length() + 1
    smax = min(n, budget // n)
    layers = dp._layers(n, smax, budget) if smax >= s_start else ()
    floor_f = 2 * n - 1
    best = (MAX_FINITE_COST + 1, 0, 0)  # (product, S, F); every checked product is less
    for s, layer in itertools.islice(enumerate(layers, 1), s_start - 1, None):
        value = layer.cost(n)
        if value is INFINITE:
            raise TableRangeError(f"F({n}, {s}) is infinite; solvability bound violated")
        best = min(best, (_checked(value * s, f"F({n},{s}) * {s}"), s, value))
        if value == floor_f or floor_f * (s + 1) >= best[0]:
            product, best_s, best_f = best
            ratio = math.log2(product / n) / (2.0 * math.sqrt(math.log2(n))) if n > 1 else math.nan
            return TsRecord(n=n, best_s=best_s, best_f=best_f, product=product, ratio=ratio)
    raise ResourceLimitError(
        f"tsmin({n}) needs at least {n * max(smax + 1, s_start)} cells to certify "
        f"its minimum; the cell budget is {budget}"
    )
