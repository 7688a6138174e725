"""Threshold, bound, entropy, and time-space-product tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblegame import (
    BEYOND_TABLE,
    INFINITE,
    ResourceLimitError,
    TableRangeError,
    UnsolvableError,
    build_table,
    entropy,
    f_bound_lower_sum,
    f_bound_upper_sum,
    f_gamma,
    f_gamma_report,
    min_ts_auto,
    table_delta,
    threshold_record,
    x_lower,
    x_threshold,
    x_upper,
)
from pebblegame import dp
from pebblegame.analysis import BeyondTable


@pytest.fixture(scope="module")
def tables_300_300():
    return build_table(300, 300)


def row_minimum(tables, n):
    """(product, S, F) least over the finite cells of row n of ``tables``, the least S
    on ties: a brute-force reference that shares no code with ``min_ts_auto``."""
    row = tables.f[n]
    return min((row[s] * s, s, row[s]) for s in range(1, tables.smax + 1) if row[s] is not INFINITE)


def certifying_budget(tables, n):
    """The least S >= the least solvable budget at which min_ts_auto may stop: F(n, S)
    is 2n - 1, or (2n - 1)(S + 1) is at least the best product found so far."""
    floor_f = 2 * n - 1
    best = None
    for s in range((n - 1).bit_length() + 1, tables.smax + 1):
        value = tables.f[n][s]
        best = value * s if best is None else min(best, value * s)
        if value == floor_f or floor_f * (s + 1) >= best:
            return s
    raise AssertionError(f"table of smax={tables.smax} certifies nothing for n={n}")


def test_beyond_table_marker():
    assert BeyondTable() is BEYOND_TABLE
    assert repr(BEYOND_TABLE) == "beyond-table"
    assert BEYOND_TABLE is not INFINITE


def test_threshold_anchors(tables_100_20):
    assert x_threshold(0, 5, tables_100_20) == 1
    assert x_threshold(1, 3, tables_100_20) == 3
    assert x_threshold(2, 1, tables_100_20) == 1
    for s in range(2, 9):
        assert x_threshold(0, s, tables_100_20) == 1, s
        assert x_threshold(1, s, tables_100_20) == s, s
    for k in range(0, 6):
        assert x_threshold(k, 1, tables_100_20) == 1, k


def test_threshold_beyond_small_table():
    small = build_table(4, 8)
    assert x_threshold(5, 8, small) is BEYOND_TABLE


def test_threshold_nondecreasing_in_k(tables_100_20):
    for s in range(2, 8):
        previous = 0
        for k in range(0, 7):
            x = x_threshold(k, s, tables_100_20)
            if x is BEYOND_TABLE:
                break
            assert x >= previous, (k, s)
            previous = x


def test_x_lower_values():
    assert x_lower(1, 5) == 5
    assert x_lower(0, 9) == 1
    assert x_lower(3, 8) == 1 + 7 + 21 + 35


def test_x_upper_values():
    assert x_upper(1, 5) == 5
    assert x_upper(10, 3) == 4  # the solvability cap binds
    assert x_upper(2, 6) == 21


def test_bound_preconditions():
    with pytest.raises(ValueError):
        x_lower(1, 1)
    with pytest.raises(ValueError):
        x_upper(-1, 5)
    with pytest.raises(ValueError):
        f_bound_lower_sum(-1, 5)
    with pytest.raises(ValueError):
        f_bound_upper_sum(5, 1)


def test_f_bound_sums():
    assert f_bound_lower_sum(1, 2) == 6
    assert f_bound_lower_sum(1, 3) == 10
    assert f_bound_lower_sum(2, 3) == 18
    assert f_bound_upper_sum(1, 2) == 5
    assert f_bound_upper_sum(1, 3) == 8
    assert f_bound_upper_sum(2, 2) == 10


def test_lower_cost_bound_holds(tables_32769_16):
    for s in range(2, 17):
        for k in range(1, s):
            point = x_lower(k, s)
            cost = tables_32769_16.f[point][s]
            assert cost is not INFINITE
            assert cost <= f_bound_lower_sum(k, s), (k, s)


def test_corrected_upper_cost_bound_holds(tables_32769_16):
    """Block-summing the marginal costs gives an exact lower bound on F at the
    binomial threshold point: squares between successive binomial marks each
    cost more than the previous power of two.  (f_bound_upper_sum keeps its
    stronger closed form; this checks the underlying block structure is
    real.)"""
    for s in range(2, 17):
        for k in range(1, s):
            point = math.comb(s + k - 1, k)
            if point > 2 ** (s - 1):
                continue  # the block partition needs the uncapped point
            bound = 1 + sum(
                math.comb(s + i - 2, i) * (2 ** (i - 1) + 1) for i in range(1, k + 1)
            )
            cost = tables_32769_16.f[point][s]
            assert cost is not INFINITE
            assert cost >= bound, (k, s, cost, bound)


def test_threshold_record(tables_100_20):
    record = threshold_record(2, 5, tables_100_20)
    assert record.x_lower <= record.x <= record.x_upper


def test_binomial_identity():
    for s in range(2, 21):
        for k in range(0, 21):
            assert math.comb(s + k - 1, k) == sum(
                math.comb(s + i - 2, i) for i in range(k + 1)
            ), (s, k)


def test_entropy_values():
    assert entropy(0.5) == 1.0
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_domain():
    with pytest.raises(ValueError):
        entropy(-0.01)
    with pytest.raises(ValueError):
        entropy(1.01)


def test_entropy_symmetry_and_concavity():
    grid = [i / 1000 for i in range(1001)]
    values = [entropy(g) for g in grid]
    for g, v in zip(grid, values):
        assert abs(v - entropy(1 - g)) <= 1e-12
    for i in range(1, 1000):
        assert values[i] >= (values[i - 1] + values[i + 1]) / 2 - 1e-12, grid[i]


def test_f_gamma_values(tables_100_20):
    assert f_gamma(0.0, 5, tables_100_20) == 0.0  # board of one square
    tables = build_table(64, 12)
    assert f_gamma(0.5, 12, tables) == pytest.approx(math.log2(231) / 12)


def test_f_gamma_errors(tables_100_20):
    with pytest.raises((TableRangeError, UnsolvableError)):
        f_gamma(1.0, 12, tables_100_20)  # 2**S exceeds the solvable range
    big = build_table(40, 4)
    with pytest.raises(UnsolvableError):
        f_gamma(1.0, 4, big)  # within the table but unreachable
    with pytest.raises(ValueError):
        f_gamma(-5.0, 4, big)


def test_f_gamma_report_rows(tables_100_20):
    rows = f_gamma_report(6, tables_100_20, [0.1, 0.3, 0.5])
    assert len(rows) == 3
    for row in rows:
        if row.f_value is not None:
            assert row.gap == pytest.approx(row.f_value - (row.gamma + row.h))


def test_min_ts_trivial():
    record = min_ts_auto(1)
    assert (record.best_s, record.best_f, record.product) == (1, 1, 1)
    assert math.isnan(record.ratio)


def test_min_ts_small():
    record = min_ts_auto(4)
    assert record.best_s == 3
    assert record.best_f == 9
    assert record.product == 27


def test_min_ts_matches_full_enumeration():
    for n in [1, 2, 3, 4, 6, 10, 17, 32]:
        full = build_table(max(n, 2), max(n, 2))
        start = (n - 1).bit_length() + 1
        best = min((full.f[n][s] * s, s) for s in range(start, n + 1))
        record = min_ts_auto(n)
        assert (record.product, record.best_s) == best, n


def test_min_ts_candidate_bounds():
    for n in [8, 50, 200]:
        record = min_ts_auto(n)
        start = (n - 1).bit_length() + 1
        tables = build_table(n, start)
        assert record.product <= (2 * n - 1) * n
        assert record.product <= tables.f[n][start] * start


def test_min_ts_auto_matches_full_tables(tables_300_300):
    # Row n of the 300 x 300 table runs to S = 300 >= n, where F is at its floor
    # 2n - 1 and every later product is larger, so its minimum is the whole row's.
    for n in range(1, 301):
        record = min_ts_auto(n)
        assert (record.product, record.best_s, record.best_f) == row_minimum(tables_300_300, n), n
        assert record.n == n


def test_min_ts_auto_budget_bounds_the_certifying_cells(tables_300_300):
    # An inner test, so that a falsifying example prints the draws, not the table.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 300), label="n")
        needed = n * certifying_budget(tables_300_300, n)
        budget = data.draw(
            st.one_of(st.integers(0, n * n + n), st.sampled_from([needed - 1, needed])),
            label="budget",
        )
        if needed <= budget:
            record = min_ts_auto(n, cell_budget=budget)
            assert (record.product, record.best_s, record.best_f) == row_minimum(tables_300_300, n)
        else:
            with pytest.raises(ResourceLimitError, match=f"the cell budget is {budget}$"):
                min_ts_auto(n, cell_budget=budget)

    check()


def test_min_ts_auto_runs_one_pass_to_the_certificate(monkeypatch):
    n = 4096
    full = build_table(n, 128)
    s_cert = certifying_budget(full, n)
    passes, drawn = [], []
    real_layers = dp._layers

    def counting_layers(nmax, smax, cell_budget):
        passes.append((nmax, smax))
        for layer in real_layers(nmax, smax, cell_budget):
            drawn.append(1)
            yield layer

    monkeypatch.setattr(dp, "_layers", counting_layers)
    record = min_ts_auto(n)
    assert (record.product, record.best_s, record.best_f) == row_minimum(full, n)
    assert len(passes) == 1
    assert len(drawn) == s_cert
    drawn.clear()
    least = (n - 1).bit_length() + 1
    with pytest.raises(ResourceLimitError, match=f"needs at least {n * least} cells"):
        min_ts_auto(n, cell_budget=n * least - 1)
    assert len(passes) == 1 and drawn == []


def test_min_ts_validation():
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            min_ts_auto(bad)


def test_threshold_scan_matches_memo_delta(tables_100_20):
    # Spot-check table_delta against the per-query delta.
    from pebblegame import delta

    for n, s in [(1, 3), (3, 3), (10, 5), (50, 7), (63, 7)]:
        assert table_delta(tables_100_20, n, s) == delta(n, s), (n, s)
