"""Unit tests for the cost recursion, split points, and table construction."""

import itertools

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pebblegame import (
    INFINITE,
    CostOverflowError,
    ResourceLimitError,
    TableRangeError,
    bfs_min_time,
    build_table,
    delta,
    f_cost,
    is_solvable,
    iter_strategy_moves,
    min_ts_auto,
    split_point,
    synthesize,
    table_delta,
)
from pebblegame import config, dp, runs
from pebblegame.cost import cost_sum


def test_base_cases():
    assert f_cost(1, 1) == 1
    assert f_cost(1, 5) == 1
    assert f_cost(2, 1) is INFINITE
    assert f_cost(7, 1) is INFINITE
    assert f_cost(1, 0) is INFINITE
    assert f_cost(3, 0) is INFINITE


def test_known_values():
    assert f_cost(2, 2) == 3
    assert f_cost(4, 3) == 9
    assert f_cost(8, 4) == 25
    assert f_cost(5, 5) == 9  # 2n - 1 once the budget covers every square
    assert f_cost(5, 4) == 11


def test_reference_anchors(tables_100_20):
    assert tables_100_20.f[51][7] == 321
    assert tables_100_20.f[64][7] == 531
    assert tables_100_20.f[65][7] is INFINITE
    assert tables_100_20.f[100][8] == 833
    assert tables_100_20.f[100][20] == 359


def test_reference_anchors_via_memo(naive_reference):
    # Same anchors through the naive recursion over every split.
    assert naive_reference(51, 7)[0] == 321
    assert naive_reference(64, 7)[0] == 531
    assert naive_reference(65, 7)[0] is INFINITE
    assert naive_reference(100, 8)[0] == 833
    assert naive_reference(100, 20)[0] == 359


def test_input_validation():
    with pytest.raises(ValueError):
        f_cost(0, 3)
    with pytest.raises(ValueError):
        f_cost(-2, 3)
    with pytest.raises(ValueError):
        f_cost(3, -1)
    with pytest.raises(ValueError):
        f_cost(True, 3)
    with pytest.raises(ValueError):
        delta(2, 0)


def test_recursion_matches_search_based_expression():
    """Rebuild the recursion from pure search results and compare.

    min over m of bfs(m,S) + bfs(m,S-1) + bfs(n-m,S-1) must equal f_cost(n,S);
    this checks the recursion against ground truth that never touches it.
    """
    for n in range(2, 9):
        for s in range(2, 6):
            best = INFINITE
            for m in range(1, n):
                candidate = cost_sum(
                    bfs_min_time(m, s), bfs_min_time(m, s - 1), bfs_min_time(n - m, s - 1)
                )
                if candidate < best:
                    best = candidate
            assert f_cost(n, s) == best, (n, s)


def test_split_point_examples():
    assert split_point(4, 3) == 2
    assert split_point(2, 2) == 1
    assert split_point(5, 4) == 1  # m=1 and m=2 both give 11; least wins


def test_split_point_undefined_cases():
    assert split_point(1, 4) is None
    assert split_point(5, 2) is None  # unsolvable
    assert split_point(3, 0) is None


def test_split_point_is_least_minimizer():
    for n in range(2, 33):
        for s in range(2, 8):
            if f_cost(n, s) is INFINITE:
                continue
            best = min(
                cost_sum(f_cost(m, s), f_cost(m, s - 1), f_cost(n - m, s - 1))
                for m in range(1, n)
            )
            winners = [
                m
                for m in range(1, n)
                if cost_sum(f_cost(m, s), f_cost(m, s - 1), f_cost(n - m, s - 1)) == best
            ]
            assert split_point(n, s) == winners[0], (n, s)


def test_delta_examples():
    assert delta(0, 5) == 0
    assert delta(-3, 2) == 0
    assert delta(1, 3) == 2
    assert delta(3, 3) == 4  # F(4,3) - F(3,3) = 9 - 5
    assert delta(2, 2) is INFINITE  # F(3,2) is infinite


def test_ladder_where_the_budget_covers_the_board(naive_reference):
    """S >= n: F = 2n - 1 with least split 1, and delta = 2 once S > n; the
    rows S <= n + 3 agree with the plain recursion on every route."""
    for n in range(1, 65):
        for s in range(1, n + 4):
            cost, split = naive_reference(n, s)
            if s >= n:
                assert (cost, split) == (2 * n - 1, 1 if n > 1 else 0), (n, s)
            _check_queries(n, s, cost, split, naive_reference(n + 1, s)[0])


def test_ladder_needs_no_cell_budget():
    # 5001 x 5001 cells would exceed the default budget.
    assert f_cost(5001, 5001) == 10001
    assert split_point(5001, 5002) == 1
    assert f_cost(10**6, 10**6 + 7, cell_budget=1) == 2 * 10**6 - 1
    assert delta(10**6, 10**6 + 1, cell_budget=1) == 2
    with pytest.raises(ResourceLimitError):
        delta(10**6, 10**6, cell_budget=1)  # F(n + 1, n) needs the layers


def test_ladder_keeps_the_64_bit_cap():
    n = 2**62
    assert f_cost(n, n) == 2**63 - 1
    with pytest.raises(CostOverflowError, match=r"^F\(n=4611686018427387905, S>="):
        f_cost(n + 1, n + 1)
    with pytest.raises(CostOverflowError):
        delta(n, n + 1)


def test_is_solvable_frontier():
    assert is_solvable(64, 7)
    assert not is_solvable(65, 7)
    assert is_solvable(1, 1)
    assert not is_solvable(2, 1)
    assert not is_solvable(1, 0)
    assert is_solvable(2**20, 21)
    assert not is_solvable(2**20 + 1, 21)


def test_solvable_iff_finite(tables_100_20):
    for n in range(1, 101):
        for s in range(1, 21):
            assert is_solvable(n, s) == (tables_100_20.f[n][s] is not INFINITE), (n, s)


def test_build_table_single_cell():
    tables = build_table(1, 1)
    assert tables.f[1][1] == 1
    assert tables.m[1][1] == 0
    assert tables.cost(1, 1) == 1


@pytest.mark.parametrize("nmax, smax", [(1, 1), (1, 5), (3, 70), (300, 12), (5000, 3)])
def test_build_table_shape_and_padding(nmax, smax):
    tables = build_table(nmax, smax)
    for rows, pad in ((tables.f, None), (tables.m, 0)):
        assert type(rows) is tuple and len(rows) == nmax + 1
        assert all(type(row) is tuple and len(row) == smax + 1 for row in rows)
        assert rows[0] == (pad,) * (smax + 1)
        assert all(row[0] is pad for row in rows)
    for s, layer in enumerate(runs._layers(nmax, smax, None), 1):
        top = layer.top
        assert [row[s] for row in tables.f[1 : top + 1]] == list(layer.costs()), s
        assert [row[s] for row in tables.m[1 : top + 1]] == list(layer.splits()), s
        assert all(row[s] is INFINITE for row in tables.f[top + 1 :]), s
        assert all(row[s] == 0 for row in tables.m[top + 1 :]), s


def test_build_table_structural_invariants(tables_100_20):
    t = tables_100_20
    for s in range(1, 21):
        assert t.f[1][s] == 1
    for n in range(2, 101):
        assert t.f[n][1] is INFINITE
    for n in range(2, 101):
        for s in range(1, 21):
            assert t.m[n][s] <= n // 2, (n, s)
            if t.f[n][s] is INFINITE:
                assert t.m[n][s] == 0
    # split advances by at most one per board size
    for s in range(2, 21):
        for n in range(2, 100):
            if t.f[n + 1][s] is INFINITE:
                break
            assert t.m[n + 1][s] - t.m[n][s] in (0, 1), (n, s)


def test_build_table_agrees_with_direct_recursion(naive_reference):
    tables = build_table(128, 12)
    for n in range(1, 129):
        for s in range(1, 13):
            cost, split = naive_reference(n, s)
            assert tables.f[n][s] == cost, (n, s)
            assert tables.m[n][s] == split, (n, s)


def test_cost_monotonicity_small_range():
    for n in range(1, 33):
        for s in range(1, 9):
            assert f_cost(n, s) >= f_cost(n, s + 1), (n, s)
    for s in range(1, 9):
        for n in range(1, 32):
            assert f_cost(n, s) <= f_cost(n + 1, s), (n, s)


def test_split_neighborhood_inequalities():
    """The optimal split separates marginal costs: the part above the split is
    strictly costlier to grow than the part at split-1, and no costlier than
    the part at the split itself."""
    for n in range(1, 33):
        for s in range(2, 8):
            if f_cost(n, s) is INFINITE:
                continue
            m = split_point(n, s) or 0
            left = delta(n - m, s - 1)
            right = cost_sum(delta(m - 1, s), delta(m - 1, s - 1))
            assert left > right, (n, s)
            assert delta(n - m - 1, s - 1) <= cost_sum(delta(m, s), delta(m, s - 1)), (n, s)


def test_split_advance_predicate():
    """The split stays put exactly when growing the upper part is no costlier
    than growing both lower parts; otherwise it advances by one."""
    for s in range(2, 8):
        for n in range(1, 33):
            if f_cost(n + 1, s) is INFINITE:
                break
            m = split_point(n, s) or 0
            stay = delta(n - m, s - 1) <= cost_sum(delta(m, s), delta(m, s - 1))
            expected = m if stay else m + 1
            assert (split_point(n + 1, s) or 0) == expected, (n, s)


def test_cell_budget_enforced():
    with pytest.raises(ResourceLimitError):
        build_table(100, 100, cell_budget=99)
    with pytest.raises(ResourceLimitError):
        f_cost(10**7, 30, cell_budget=1000)
    # A budget of 0 or below refuses every pass, on a solvable cell with S < n, the
    # only kind that needs one; a budget that is not an int is refused on every route,
    # also where no pass runs (an unsolvable cell, a ladder, S = 0, a delta with S > n).
    for budget in (0, -1):
        with pytest.raises(ResourceLimitError, match=rf"cell budget \({budget}\)$"):
            f_cost(4, 3, cell_budget=budget)
    for budget in (True, 15.0, "x"):
        with pytest.raises(ValueError, match=rf"^cell_budget must be an integer, got {budget!r}$"):
            f_cost(5, 3, cell_budget=budget)
    for route, n, s, budget in (
        (f_cost, 5001, 5001, "x"),
        (f_cost, 5, 0, 1.5),
        (delta, 10**6, 10**6 + 1, True),
        (delta, 0, 1, "x"),  # n <= 0 has a marginal cost of 0, after the budget's check
        (delta, -3, 2, 1.5),
    ):
        with pytest.raises(ValueError, match=rf"^cell_budget must be an integer, got {budget!r}$"):
            route(n, s, cell_budget=budget)


def test_default_budget_binds_every_route(monkeypatch):
    """The default cell budget, read when ``cell_budget`` is None, prices the pass of
    every route that needs one; a cell the closed forms settle still answers."""
    monkeypatch.setattr(config, "DEFAULT_CELL_BUDGET", 11)
    for route, args in (
        (f_cost, (4, 3)),  # 4 x 3 = 12 cells
        (split_point, (4, 3)),
        (delta, (3, 3)),  # a pass at n + 1 = 4
        (build_table, (4, 3)),
        (min_ts_auto, (4,)),
        (synthesize, (4, 3)),
        (iter_strategy_moves, (4, 3)),
    ):
        with pytest.raises(ResourceLimitError, match=r"\b11\b"):
            route(*args)
    assert f_cost(10**7, 19) is INFINITE
    assert f_cost(20, 20) == 39
    assert delta(10**6, 10**6 + 1) == 2
    assert len(synthesize(5, 5).moves) == 9


@pytest.mark.parametrize("nmax, smax", [(300, 12), (5000, 14)])
@pytest.mark.parametrize("cap", [2, 3, 10, 100, 531, 10**5])
def test_layer_pass_names_the_first_cell_over_the_cap(monkeypatch, nmax, smax, cap):
    tables = build_table(nmax, smax)
    first = next(
        (
            (n, s)
            for s in range(1, smax + 1)
            for n in range(1, nmax + 1)
            if tables.f[n][s] is not INFINITE and tables.f[n][s] > cap
        ),
        None,
    )
    monkeypatch.setattr(runs, "MAX_FINITE_COST", cap)
    if first is None:  # every F in 300x12 is at most 10**5
        assert build_table(nmax, smax) == tables
        return
    message = rf"^F\(n={first[0]}, S={first[1]}\) exceeds the 64-bit cap$"
    with pytest.raises(CostOverflowError, match=message):
        build_table(nmax, smax)


@pytest.mark.parametrize(
    "nmax, smax, merged", [(10**6, 30, 9523), (10**5, 305, 7178), (2**21, 22, 9732)]
)
def test_layer_pass_merges_a_pinned_number_of_runs(nmax, smax, merged):
    """Runs merged by one layer pass, slope runs plus pick runs over its layers,
    pinned so that a change to the work of the merge shows."""
    layers = runs._layers(nmax, smax, nmax * smax)
    assert sum(len(layer.runs) + len(layer.picks) for layer in layers) == merged


def test_table_delta():
    tables = build_table(10, 4)
    assert table_delta(tables, 0, 3) == 0
    assert table_delta(tables, 3, 3) == 4
    assert table_delta(tables, 4, 3) is INFINITE
    with pytest.raises(TableRangeError, match=r"^\(n=11, S=3\) outside table extents \(10, 4\)$"):
        table_delta(tables, 10, 3)
    with pytest.raises(TableRangeError, match=r"^\(n=1, S=9\) outside table extents \(10, 4\)$"):
        table_delta(tables, 2, 9)
    with pytest.raises(TableRangeError, match=r"^\(n=1, S=0\) outside table extents"):
        table_delta(tables, 0, 0)


def test_tables_range_checks():
    tables = build_table(5, 3)
    with pytest.raises(TableRangeError):
        tables.cost(6, 2)
    with pytest.raises(TableRangeError):
        tables.cost(2, 4)


def _check_queries(n, s, expected_cost, expected_split, expected_next):
    """Every query route at (n, s) against the expected F(n, s), split and F(n+1, s)."""
    assert f_cost(n, s) == expected_cost, (n, s)
    assert split_point(n, s) == (expected_split or None), (n, s)
    expected_delta = (
        INFINITE if expected_next is INFINITE else expected_next - expected_cost
    )
    assert delta(n, s) == expected_delta, (n, s)
    tables = build_table(n, s)
    assert tables.f[n][s] == expected_cost, (n, s)
    assert tables.m[n][s] == expected_split, (n, s)
    if expected_cost is not INFINITE:
        assert len(synthesize(n, s).moves) == expected_cost, (n, s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(1, 70))
def test_query_routes_agree_with_naive_reference(naive_reference, n, s):
    cost, split = naive_reference(n, s)
    _check_queries(n, s, cost, split, naive_reference(n + 1, s)[0])


def test_query_routes_agree_with_large_table(tables_2048_16):
    t = tables_2048_16

    # The table is read by an inner test, not passed to it, so that a
    # falsifying example prints the drawn cell rather than the table's repr.
    # Boards up to 2**S, so about half the draws are solvable.  The random
    # draws stay near small n, so the top of the board is given explicitly.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(1, 16).flatmap(
            lambda s: st.tuples(st.integers(1, min(2047, 2**s)), st.just(s))
        )
    )
    @example((2047, 12))
    @example((2047, 16))
    def check(case):
        n, s = case
        s_eff = min(s, n)
        _check_queries(n, s, t.f[n][s_eff], t.m[n][s_eff], t.f[n + 1][min(s, n + 1)])

    check()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(1, 70))
def test_run_layers_expand_to_the_naive_reference(naive_reference, nmax, smax):
    """Every layer, expanded, holds F and the least split of the plain recursion
    on every cell up to its top, past which F is INFINITE."""
    for s, layer in enumerate(runs._layers(nmax, smax, None), 1):
        assert (layer.s, layer.nmax, layer.top) == (s, nmax, min(nmax, 2 ** (s - 1)))
        expected = [naive_reference(n, s) for n in range(1, nmax + 1)]
        assert list(layer.costs()) == [cost for cost, _ in expected[: layer.top]], s
        assert list(layer.splits()) == [split for _, split in expected[: layer.top]], s
        assert all(cost is INFINITE for cost, _ in expected[layer.top :]), s
        for n, (cost, split) in enumerate(expected, 1):
            assert (layer.cost(n), layer.split(n)) == (cost, split), (n, s)


@pytest.fixture(scope="module")
def layers_2048_16():
    return list(runs._layers(2048, 16, None))


def test_run_layer_reads_match_table_reads(tables_2048_16, layers_2048_16):
    """Cost, split, delta and threshold read from runs equal the reads of the
    built table, including the threshold's scan over table_delta."""
    from pebblegame.analysis import BEYOND_TABLE, x_threshold

    t = tables_2048_16

    # An inner test, so that a falsifying example prints (s, n, k), not the table.
    # The examples are the last cell of each kind: the finite end n = 2**(S-1)
    # of layer 12, and the cut at nmax of layer 16.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 16), st.integers(1, 2048), st.integers(0, 16))
    @example(12, 2048, 0)
    @example(16, 2048, 16)
    def check(s, n, k):
        layer = layers_2048_16[s - 1]
        assert layer.cost(n) == t.cost(n, s)
        assert layer.split(n) == t.m[n][s]
        if n < t.nmax:
            assert dp._marginal(layer.cost, n) == table_delta(t, n, s)
        scan = next((x for x in range(1, t.nmax) if table_delta(t, x, s) > 2**k), BEYOND_TABLE)
        assert x_threshold(k, s, layer) == x_threshold(k, s, t) == scan
        assert t.layer(s) == layer

    check()


def test_a_layer_answers_layer_for_its_own_budget_only(layers_2048_16):
    from pebblegame.analysis import x_threshold

    layer = layers_2048_16[4]
    assert layer.layer(5) is layer
    with pytest.raises(TableRangeError, match=r"^S=6 asked of the layer for S=5$"):
        layer.layer(6)
    with pytest.raises(TableRangeError, match=r"^S=4 asked of the layer for S=5$"):
        x_threshold(1, 4, layer)


def test_run_layer_edges(layers_2048_16):
    from pebblegame.analysis import BEYOND_TABLE, x_threshold

    assert x_threshold(2, 1, layers_2048_16[0]) == 1  # delta(1, 1) is infinite
    for s, layer in enumerate(layers_2048_16[:11], 1):
        top = 2 ** (s - 1)
        assert layer.top == top and dp._marginal(layer.cost, top) is INFINITE, s
        assert dp._marginal(layer.cost, 0) == 0 and layer.cost(top + 1) is INFINITE
    small = runs._last_layer(4, 8, None)
    assert x_threshold(5, 8, small) is BEYOND_TABLE
    assert x_threshold(5, 8, build_table(4, 8)) is BEYOND_TABLE
    with pytest.raises(TableRangeError):
        small.cost(5)
    with pytest.raises(TableRangeError):
        dp._marginal(small.cost, 4)  # F(5, 8) lies past the cut
    with pytest.raises(TableRangeError):
        x_threshold(1, 7, small)


def test_layers_match_the_slope_counting_reference(slope_counts):
    """Every layer S <= 16, whole, against the counts of a recursion in slope space
    at every even d <= 400: its slope counts, its thresholds x(k, S) = 1 + N_S(2**k),
    and F(n, S) rebuilt from the counts wherever every slope it sums is counted."""
    from pebblegame.analysis import BEYOND_TABLE, x_threshold

    dmax = 400
    layers = list(runs._layers(2**15 + 1, 16, None))  # every threshold of S <= 16 is below nmax
    for layer, counts in zip(layers, slope_counts(16, dmax)):
        s, held = layer.s, dict(layer.runs)
        assert list(itertools.accumulate(held.get(d, 0) for d in range(0, dmax + 1, 2))) == (
            counts[::2]
        ), s
        for k in range(9):
            x = x_threshold(k, s, layer)
            assert x is not BEYOND_TABLE and x == 1 + counts[2**k], (k, s)
        # F(n, S) is 1 plus the first n - 1 slopes, slope d taken N_S(d) - N_S(d-2) times.
        slopes = (itertools.repeat(d, counts[d] - counts[d - 2]) for d in range(2, dmax + 1, 2))
        rebuilt = list(itertools.accumulate(itertools.chain.from_iterable(slopes), initial=1))
        assert rebuilt == list(itertools.islice(layer.costs(), len(rebuilt))), s
        for n in sorted({1, len(rebuilt) // 2 + 1, len(rebuilt)}):
            assert f_cost(n, s) == rebuilt[n - 1], (n, s)


def test_paper_scale_cell_against_the_slope_counting_reference(slope_counts):
    """F(10**10, 200) is 1 plus the first n - 1 slopes, slope d taken N_S(d) - N_S(d-2)
    times, all of them at even d <= 64: the reference merges no layer and sums no F."""
    n, s, budget = 10**10, 200, 10**13
    counts = slope_counts(s, 64)[-1]
    cost, left = 1, n - 1
    for d in range(2, 65, 2):
        taken = min(left, counts[d] - counts[d - 2])
        cost, left = cost + d * taken, left - taken
    assert left == 0, f"the counts of d <= 64 stop {left} slopes short of n - 1"
    assert cost == 553_602_717_241
    assert f_cost(n, s, cell_budget=budget) == cost
    assert split_point(n, s, cell_budget=budget) == 68_642_367


def test_a_cell_holds_the_one_layer_it_reads():
    """A cell that needs a pass returns the Layer for S cut at n, the last of the pass;
    a cell the closed forms settle returns None."""
    for n, s in [(4, 3), (5, 4), (100, 8), (128, 8), (4096, 13)]:
        value, split, layer = runs._cell(n, s, None)
        assert layer == runs._last_layer(n, s, None)
        assert (layer.s, layer.nmax) == (s, n)
        assert (value, split) == (layer.cost(n), layer.split(n)) == (f_cost(n, s), split_point(n, s))
    for n, s in [(3, 0), (5, 2), (10**7, 19), (1, 1), (7, 7), (7, 9)]:
        assert runs._cell(n, s, None)[2] is None, (n, s)


def test_a_play_merges_each_layer_once(monkeypatch):
    """A play with S < n draws one pass of its own, which merges layers 2..S once each;
    no cell pass runs beside it."""
    merged = []
    real = runs._next_layer

    def counting(below, nmax):
        merged.append(below.s + 1)
        return real(below, nmax)

    monkeypatch.setattr(runs, "_next_layer", counting)
    play = synthesize(64, 8)
    assert merged == [2, 3, 4, 5, 6, 7, 8]
    assert len(play.moves) == f_cost(64, 8)


def test_merge_rejects_a_slope_that_falls():
    # F(1..4, 2) would be 1, 3, 9, 13: slopes 2, 6, 4, not convex.
    below = runs.Layer(2, 10, 4, ((2, 1), (6, 1), (4, 1)), ((0, 1), (1, 1)))
    with pytest.raises(ArithmeticError, match=r"^slope d\(n=5, S=3\) = 4 falls below 6: "):
        runs._next_layer(below, 10)
