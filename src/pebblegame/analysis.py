"""Derived quantities: marginal-cost thresholds, binomial bounds, entropy,
and the exact minimum time-space product.

All logarithms are base 2.  Binomial work uses exact integer arithmetic
(math.comb) with an explicit 64-bit cap on results, matching the cost type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ThresholdRecord:
    """Least n whose marginal cost exceeds 2**k, with its closed-form bounds."""

    k: int
    s: int
    x: object  # int, or BEYOND_TABLE when the table is too small
    x_lower: int
    x_upper: int


@dataclass(frozen=True)
class TsRecord:
    """Exact minimizer of F(n, S) * S over pebble budgets."""

    n: int
    best_s: int
    best_f: int
    product: int
    ratio: float  # log2(product / n) / (2 * sqrt(log2 n)); nan for n = 1


def x_threshold(k: int, s: int, tables: dp.DpTables):
    """Least n with delta(n, s) > 2**k, scanning the built table.

    Returns BEYOND_TABLE when no n within the table witnesses the threshold.
    """
    _validate_ks(k, s, min_s=1)
    bound = 2**k
    for n in range(1, tables.nmax):
        if dp.table_delta(tables, n, s) > bound:
            return n
    return BEYOND_TABLE


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


def threshold_record(k: int, s: int, tables: dp.DpTables) -> ThresholdRecord:
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


def f_gamma(gamma: float, s: int, tables: dp.DpTables) -> float:
    """Normalized log-cost (1/s) * log2 F(floor(2**(gamma*s)), s)."""
    dp._check_int("S", s, 1)
    n = _board_size(gamma, s)
    if n < 1:
        raise ValueError(f"gamma={gamma} gives an empty board (floor 2**(gamma*S) = {n})")
    if n > tables.nmax:
        raise TableRangeError(
            f"f_gamma(gamma={gamma}, S={s}) needs F({n}, {s}); table stops at nmax={tables.nmax}"
        )
    value = tables.cost(n, s)
    if value is INFINITE:
        raise UnsolvableError(f"f_gamma(gamma={gamma}, S={s}): F({n}, {s}) is infinite")
    return math.log2(value) / s


@dataclass(frozen=True)
class FGammaRow:
    gamma: float
    h: float
    n: int
    f_value: float | None  # None when the point is infeasible
    gap: float | None  # f(H(gamma), s) - (gamma + H(gamma))


def f_gamma_report(s: int, tables: dp.DpTables, gammas) -> list:
    """Evaluate f at H(gamma) across a grid; infeasible points carry None."""
    rows = []
    for gamma in gammas:
        h = entropy(gamma)
        n = _board_size(h, s)
        if n < 1 or n > tables.nmax or not dp.is_solvable(n, s):
            rows.append(FGammaRow(gamma=gamma, h=h, n=n, f_value=None, gap=None))
            continue
        value = f_gamma(h, s, tables)
        rows.append(
            FGammaRow(gamma=gamma, h=h, n=n, f_value=value, gap=value - (gamma + h))
        )
    return rows


def _certify(n: int, row) -> TsRecord | None:
    """Exact minimum of F(n, S) * S with its smallest minimizer, from the row F(n, S),
    S = 1, 2, ...; None if the row ends first.  The scan from the least solvable S
    stops once F reaches its floor 2n - 1 (more pebbles cannot shrink it, so the
    product only grows) or the floor alone prices every later S above the best.
    """
    floor_f = 2 * n - 1
    best = (MAX_FINITE_COST + 1, 0, 0)  # (product, S, F); every checked product is less
    for s, value in itertools.islice(enumerate(row, 1), (n - 1).bit_length(), None):
        if value is INFINITE:
            raise TableRangeError(f"F({n}, {s}) is infinite; solvability bound violated")
        best = min(best, (_checked(value * s, f"F({n},{s}) * {s}"), s, value))
        if value == floor_f or floor_f * (s + 1) >= best[0]:
            product, best_s, best_f = best
            ratio = math.log2(product / n) / (2.0 * math.sqrt(math.log2(n))) if n > 1 else math.nan
            return TsRecord(n=n, best_s=best_s, best_f=best_f, product=product, ratio=ratio)
    return None


def min_ts(n: int, tables: dp.DpTables) -> TsRecord:
    """Exact minimum of F(n, S) * S over S, with the smallest minimizer.

    Row n of ``tables`` is read up to the budget that certifies the minimum;
    TableRangeError when the table ends first.
    """
    dp._check_int("n", n, 1)
    if n > tables.nmax:
        raise TableRangeError(f"min_ts needs row n={n}; table stops at nmax={tables.nmax}")
    record = _certify(n, tables.f[n][1:])
    if record is None:
        raise TableRangeError(
            f"min_ts({n}) needs budgets beyond smax={tables.smax} to certify the minimum"
        )
    return record


def min_ts_auto(n: int, *, cell_budget: int | None = None) -> TsRecord:
    """Exact min_ts(n) from one layer pass, stopped at the certifying budget, in O(n) memory.

    The cell budget bounds n * (the certifying S).  ResourceLimitError comes before any
    layer is filled when the budget cannot reach the least solvable S, else when it runs out.
    """
    dp._check_int("n", n, 1)
    budget = config.DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    s_start = (n - 1).bit_length() + 1
    smax = min(n, budget // n)
    layers = dp._layers(n, smax, budget) if smax >= s_start else ()
    record = _certify(n, (f[n] for f, _ in layers))
    if record is None:
        raise ResourceLimitError(
            f"tsmin({n}) needs at least {n * max(smax + 1, s_start)} cells to certify "
            f"its minimum; the cell budget is {budget}"
        )
    return record
