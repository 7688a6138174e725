"""Tests of the benchmark's own parts: reference recursion, replay checker,
self-time arithmetic, output checks and the seeded operation lists."""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from pathlib import Path

import pytest

import checks
import layers
import reference
import workloads
from tracer import Span, Tracer, self_times

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "reference_costs_51_100.csv"


def bfs_cost(n: int, s: int) -> int | None:
    """Shortest play by search over board bitmasks, written from the game's rule."""
    target, seen, queue = 1 << (n - 1), {0: 0}, deque([0])
    while queue:
        state = queue.popleft()
        if state == target:
            return seen[state]
        for i in range(n):
            if i and not state >> (i - 1) & 1:
                continue
            nxt = state ^ (1 << i)
            if nxt not in seen and bin(nxt).count("1") <= s:
                seen[nxt] = seen[state] + 1
                queue.append(nxt)
    return None


def test_reference_matches_exhaustive_search():
    f, _ = reference.costs(9, 9)
    for n in range(1, 10):
        for s in range(1, 10):
            expected = bfs_cost(n, s)
            assert int(f[n, s]) == (reference.INF if expected is None else expected), (n, s)


def test_reference_keeps_the_least_split():
    @lru_cache(maxsize=None)
    def cost(n, s):
        if n == 1:
            return 1
        if s <= 1:
            return None
        totals = [
            (cost(m, s) + cost(n - m, s - 1) + cost(m, s - 1), m)
            for m in range(1, n)
            if None not in (cost(m, s), cost(n - m, s - 1), cost(m, s - 1))
        ]
        return min(totals)[0] if totals else None

    f, m = reference.costs(40, 8)
    for n in range(2, 41):
        for s in range(2, 9):
            value = cost(n, s)
            if value is None:
                assert f[n, s] == reference.INF and m[n, s] == 0
                continue
            least = min(
                k for k in range(1, n)
                if None not in (cost(k, s), cost(n - k, s - 1), cost(k, s - 1))
                and cost(k, s) + cost(n - k, s - 1) + cost(k, s - 1) == value
            )
            assert (int(f[n, s]), int(m[n, s])) == (value, least), (n, s)


def test_reference_matches_golden_table():
    f, _ = reference.costs(100, 20)
    for (n, s), value in reference.golden(GOLDEN).items():
        assert int(f[n, s]) == (reference.INF if value is None else value), (n, s)


def test_reference_closed_forms():
    f, _ = reference.costs(64, 8)
    assert all(f[n, 8] == 2 * n - 1 for n in range(1, 9))
    unsolvable = [(n, s) for n in range(2, 65) for s in range(1, 8) if n > 2 ** (s - 1)]
    assert all(f[n, s] == reference.INF for n, s in unsolvable)


def _replay(n, text):
    replay = reference.Replay(n)
    replay.moves_text(text.split())
    return replay


def test_replay_accepts_an_optimal_play():
    replay = _replay(3, "+1 +2 -1 +3 +1 -2 -1")
    assert replay.solved() and replay.steps == 7 and replay.peak == 3


@pytest.mark.parametrize(
    "n, text, error",
    [
        (2, "+2", "not enabled"),
        (2, "+1 +1", "already full"),
        (2, "-1", "already empty"),
        (2, "+1 +3", "off the board"),
        (2, "+1 x2", "malformed"),
    ],
)
def test_replay_reports_the_first_broken_rule(n, text, error):
    replay = _replay(n, text)
    assert not replay.solved() and error in replay.error


def test_replay_needs_only_square_n_at_the_end():
    assert not _replay(2, "+1 +2").solved()


def _span(span_id, name, parent, start, end, busy=None):
    return Span(span_id, name, parent, "op", start, end, end - start if busy is None else busy)


def test_self_times_subtract_direct_children():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "dp.build_table", 0, 1.0, 5.0),
        _span(2, "dp.split_point", 1, 2.0, 3.0),
        _span(3, "strategy.emit", 0, 5.0, 9.0, busy=3.0),  # iterator: busy < end - start
        _span(4, "strategy.replay", 3, 5.5, 8.5, busy=0.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 1.0, 3: 2.5, 4: 0.5})
    parts = layers.breakdown(12.0, [spans])
    assert parts["cli.startup_s"] == pytest.approx(2.0)
    assert sum(parts.values()) == pytest.approx(12.0)


def test_covered_merges_overlaps():
    assert layers.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_tracer_spans_add_up_for_live_calls():
    tracer = Tracer("t")

    class Checker:
        def feed(self, item):
            return item

    def emit(k):
        yield from range(k)

    feed = tracer.wrap_rollup("strategy.replay", Checker.feed)
    emit = tracer.wrap_iter("strategy.emit", emit)

    def main():
        checker = Checker()
        for item in emit(5):
            feed(checker, item)
        return 0

    assert tracer.wrap_call("cli.main", main)() == 0
    root, it, roll = tracer.spans
    assert (it.parent, roll.parent) == (root.id, root.id)
    assert (it.items, roll.count) == (5, 5)
    assert it.busy <= it.end - it.start and roll.busy <= roll.end - roll.start
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.busy)


def test_checks_catch_a_wrong_cost():
    ref = checks.Ref(64, 8)
    op = workloads.Op("cost", ("cost", 6, 4))
    right = checks.Outcome([0], f"F(6,4) = {ref.cost(6, 4)}\nm(6,4) = {int(ref.m[6, 4])}\n", "")
    wrong = checks.Outcome([0], f"F(6,4) = {ref.cost(6, 4) + 2}\nm(6,4) = {int(ref.m[6, 4])}\n", "")
    assert checks.check(op, right, ref) == []
    assert checks.check(op, wrong, ref)
    unsolvable = workloads.Op("cost", ("cost", 5, 2))
    assert checks.check(unsolvable, checks.Outcome([2], "F(5,2) = inf\n", ""), ref) == []
    assert checks.check(unsolvable, checks.Outcome([0], "F(5,2) = inf\n", ""), ref)


def test_table_parser_reads_every_format():
    ref = checks.Ref(8, 4)
    rows = [["n", "S=1", "S=2", "S=3", "S=4"]] + [
        [str(n)] + [str(ref.cost(n, s) or "inf") for s in range(1, 5)] for n in range(1, 9)
    ]
    for fmt, sep in (("plain", " "), ("csv", ","), ("tsv", "\t")):
        text = "".join(sep.join(row) + "\n" for row in rows)
        op = workloads.Op("table", ("table", 8, 4, "--format", fmt))
        assert checks.check(op, checks.Outcome([0], text, ""), ref) == []
    rows[-1][-1] = str(int(rows[-1][-1]) + 2)
    bad = "".join("\t".join(row) + "\n" for row in rows)
    assert checks.check(op, checks.Outcome([0], bad, ""), ref)


def test_operation_lists_are_seeded_and_keep_the_slow_cases():
    assert workloads.point_queries(3) == workloads.point_queries(3)
    assert workloads.point_queries(3) != workloads.point_queries(4)
    queries = workloads.point_queries(3)
    assert len(queries) >= 100 and any(op.args[1] >= 2048 for op in queries if op.kind == "cost")
    bulk = workloads.bulk_tables(3)
    assert len(bulk) == 90
    assert workloads.Op("tsmin", ("tsmin", 20_000)) in bulk
    assert any(op.limit for op in bulk)
    f, _ = reference.costs(2**14, 19)
    plays = workloads.play_stream(3, f)
    assert workloads.Op("pipeline", ("strategy", 2**14, 15)) in plays
    # The 90th percentile falls inside the band of like plays.
    moves = sorted(int(f[op.args[1], op.args[2]]) for op in plays)
    lo, hi = workloads.PLAY_BAND_MOVES
    rank = int(0.9 * (len(plays) + 1))
    assert lo <= moves[rank - 1] and moves[rank] <= hi
