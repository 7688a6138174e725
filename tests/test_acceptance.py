"""Acceptance suite: one test per exit criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.
"""

import math
import random

import pytest

from pebblegame import (
    INFINITE,
    BEYOND_TABLE,
    bfs_min_time,
    build_table,
    f_bound_lower_sum,
    f_bound_upper_sum,
    f_cost,
    f_gamma_report,
    is_solvable,
    min_ts_auto,
    synthesize,
    table_delta,
    verify,
    x_lower,
    x_threshold,
    x_upper,
)
from pebblegame.cost import cost_sum
from pebblegame.strategy import ReplayChecker, reverse_strategy


def test_criterion_1_golden_reference_table(tables_100_20, reference_costs):
    """Every tabulated reference cost for 51 <= n <= 100, 1 <= S <= 20 matches,
    infinite cells included."""
    for (n, s), expected in reference_costs.items():
        assert tables_100_20.f[n][s] == expected, (n, s)
    assert tables_100_20.f[51][7] == 321
    assert tables_100_20.f[64][7] == 531
    assert tables_100_20.f[65][7] is INFINITE
    assert tables_100_20.f[100][8] == 833
    assert tables_100_20.f[100][20] == 359
    print("PASS criterion 1: golden reference table reproduced exactly (1000 cells)")


def test_criterion_2_oracle_equivalence():
    """The recursion equals exhaustive search on every (n, S) up to (12, 12)."""
    for n in range(1, 13):
        for s in range(1, 13):
            assert f_cost(n, s) == bfs_min_time(n, s), (n, s)
    print("PASS criterion 2: recursion == exhaustive search for all n,S <= 12")


def test_criterion_3_constructive_optimality():
    """Synthesized plays are valid, within budget, and exactly optimal for
    every solvable (n, S) with n <= 64, S <= 12."""
    checked = 0
    for s in range(1, 13):
        for n in range(1, 65):
            if not is_solvable(n, s):
                continue
            play = synthesize(n, s)
            report = verify(play, s)
            assert report.valid, (n, s, report.first_violation)
            assert play.step_count == f_cost(n, s), (n, s)
            checked += 1
    print(f"PASS criterion 3: synthesized plays optimal and valid ({checked} instances)")


def test_criterion_4_solvability_frontier():
    """F is finite at n = 2**(S-1) and infinite one square later, S up to 12."""
    for s in range(1, 13):
        edge = 2 ** (s - 1)
        assert f_cost(edge, s) is not INFINITE, s
        assert f_cost(edge + 1, s) is INFINITE, s
        assert is_solvable(edge, s)
        assert not is_solvable(edge + 1, s)
    print("PASS criterion 4: solvability boundary exact for S in [1, 12]")


def test_criterion_5_cost_shape(tables_64_64, tables_100_20):
    """F(n,S) = 2n-1 once S >= n; F nonincreasing in S and nondecreasing in n."""
    for n in range(1, 65):
        for s in range(n, 65):
            assert tables_64_64.f[n][s] == 2 * n - 1, (n, s)
    for t in (tables_100_20, tables_64_64):
        for n in range(1, t.nmax + 1):
            for s in range(1, t.smax):
                assert t.f[n][s] >= t.f[n][s + 1], (n, s)
        for s in range(1, t.smax + 1):
            for n in range(1, t.nmax):
                assert t.f[n][s] <= t.f[n + 1][s], (n, s)
    print("PASS criterion 5: 2n-1 plateau and both monotonicities hold")


def test_criterion_6_marginal_cost_structure(tables_2048_16):
    """Marginal costs: monotone in n, antitone in S, split advances by 0 or 1,
    and the split sandwich, over the full 2048 x 16 table."""
    t = tables_2048_16
    nmax, smax = t.nmax, t.smax
    for s in range(1, smax + 1):
        previous = 0
        for n in range(1, nmax):
            d = table_delta(t, n, s)
            assert d >= previous, (n, s)
            previous = d
    for n in range(1, nmax):
        for s in range(1, smax):
            assert table_delta(t, n, s) >= table_delta(t, n, s + 1), (n, s)
    for s in range(2, smax + 1):
        for n in range(2, nmax):
            if t.f[n + 1][s] is INFINITE:
                break
            assert t.m[n + 1][s] - t.m[n][s] in (0, 1), (n, s)
    for s in range(2, smax + 1):
        for n in range(2, nmax):
            if t.f[n][s] is INFINITE:
                break
            m = t.m[n][s]
            d = table_delta(t, n, s)
            assert table_delta(t, n - m - 1, s - 1) <= d, (n, s)
            assert d <= table_delta(t, n - m, s - 1), (n, s)
            lo = cost_sum(table_delta(t, m - 1, s), table_delta(t, m - 1, s - 1))
            hi = cost_sum(table_delta(t, m, s), table_delta(t, m, s - 1))
            assert lo <= d <= hi, (n, s)
    print("PASS criterion 6: marginal-cost structure exact over 2048 x 16")


def _thresholds_for(tables, smax):
    values = {}
    for s in range(1, smax + 1):
        for k in range(0, s + 1):
            values[k, s] = x_threshold(k, s, tables)
    return values


def test_criterion_7_threshold_recurrences_and_sandwich(tables_32769_16):
    """Threshold recurrences and the closed-form sandwich, S <= 16."""
    x = _thresholds_for(tables_32769_16, 16)
    checked = 0
    for s in range(2, 17):
        for k in range(0, s):
            terms = (x.get((k + 1, s)), x.get((k + 1, s - 1)), x.get((k, s - 1)), x.get((k, s)))
            if any(v is None or v is BEYOND_TABLE for v in terms):
                continue
            xk1_s, xk1_s1, xk_s1, xk_s = terms
            assert xk1_s >= xk1_s1 + xk_s1, (k, s)
            assert xk1_s <= xk1_s1 + xk_s, (k, s)
            assert xk1_s <= 2 * xk1_s1, (k, s)
            checked += 1
    for s in range(2, 17):
        for k in range(1, s):
            if x_upper(k, s) > tables_32769_16.nmax:
                continue
            value = x[k, s]
            assert value is not BEYOND_TABLE, (k, s)
            assert x_lower(k, s) <= value <= x_upper(k, s), (k, s)
    print(f"PASS criterion 7 (thresholds): recurrences ({checked} triples) and sandwich hold")


def test_criterion_7_lower_cost_bound(tables_32769_16):
    """F at the lower threshold point never exceeds its closed-form sum."""
    for s in range(2, 17):
        for k in range(1, s):
            point = x_lower(k, s)
            assert point <= tables_32769_16.nmax
            cost = tables_32769_16.f[point][s]
            assert cost is not INFINITE, (k, s)
            assert cost <= f_bound_lower_sum(k, s), (k, s)
    print("PASS criterion 7 (lower cost bound): F(x_lower) <= closed-form sum")


def test_criterion_7_upper_cost_bound(tables_32769_16):
    """F at the upper threshold point must reach its closed-form sum.

    Known red: the closed form credits each binomial block one power of two
    too much, so it overshoots F at small parameters (first at F(2,2) = 3
    against a sum of 5).  The check is kept in this exact form; the corrected
    block bound is verified in test_analysis.
    """
    violations = []
    for s in range(2, 17):
        for k in range(1, s):
            point = x_upper(k, s)
            if point > tables_32769_16.nmax:
                continue
            cost = tables_32769_16.f[point][s]
            assert cost is not INFINITE, (k, s)
            if not cost >= f_bound_upper_sum(k, s):
                violations.append((k, s, cost, f_bound_upper_sum(k, s)))
    assert violations == [], (
        f"F(x_upper(k,S), S) >= f_bound_upper_sum(k,S) fails at {len(violations)} "
        f"of the checked (k, S) pairs; first five (k, S, F, sum): {violations[:5]}"
    )
    print("PASS criterion 7 (upper cost bound): F(x_upper) >= closed-form sum")


def test_criterion_7_binomial_identity():
    """C(S+k-1, k) equals the partial sum of C(S+i-2, i) for S, k <= 20."""
    for s in range(2, 21):
        for k in range(0, 21):
            assert math.comb(s + k - 1, k) == sum(
                math.comb(s + i - 2, i) for i in range(k + 1)
            ), (s, k)
    print("PASS criterion 7 (identity): binomial column-sum identity, S,k <= 20")


def test_criterion_8_time_space_product_and_gamma_report(tables_32769_16):
    """Exact TS minima at n in {64, 256, 1024, 4096} with the diagnostic ratio
    inside [0.5, 2.0], plus an error-free normalized-log-cost report at S=16."""
    for n in (64, 256, 1024, 4096):
        record = min_ts_auto(n)
        assert record.product == record.best_f * record.best_s
        assert 0.5 <= record.ratio <= 2.0, (n, record)
        print(
            f"  tsmin n={n}: S={record.best_s} F={record.best_f} "
            f"TS={record.product} ratio={record.ratio:.4f}"
        )
    gammas = [i / 50 for i in range(1, 26)]
    rows = list(f_gamma_report(16, tables_32769_16, gammas))
    assert len(rows) == len(gammas)
    feasible = [row for row in rows if row.f_value is not None]
    assert feasible, "no feasible grid points at S=16"
    for row in feasible:
        assert math.isfinite(row.f_value) and math.isfinite(row.gap), row
    print(
        f"PASS criterion 8: TS minima in envelope; gamma report has "
        f"{len(feasible)}/{len(rows)} feasible points at S=16"
    )


def test_criterion_9_reversal_empties_the_board():
    """200 sampled solvable instances (n <= 32): the reversed play, started
    from the solved board, is legal and ends on the empty board."""
    rng = random.Random(20210617)
    solvable = [
        (n, s) for n in range(1, 33) for s in range(1, 13) if is_solvable(n, s)
    ]
    for n, s in rng.choices(solvable, k=200):
        reversed_play = reverse_strategy(synthesize(n, s))
        checker = ReplayChecker(n, initial={n})
        for move in reversed_play.moves:
            checker.feed(move)
        checker.finish(expected=frozenset())
        assert checker.first_violation is None, (n, s, checker.first_violation)
        assert checker.board == set(), (n, s)
        assert checker.peak <= s, (n, s)
    print("PASS criterion 9: 200 reversed plays legally empty the board")
