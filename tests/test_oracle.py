"""Exhaustive-search ground truth: small-board checks and witness validity."""

import functools
import math
from collections import deque

import pytest

from pebblegame import (
    INFINITE,
    ResourceLimitError,
    bfs_min_time,
    bfs_path,
    f_cost,
    is_solvable,
    split_point,
    verify,
)
from pebblegame import oracle
from pebblegame.strategy import Move


def full_array_witness(n, s):
    """Reference: BFS from the empty board over an array of all 2**n parents,
    trying every square in turn, lowest first, and the play the parents walk
    back from {n}, as a list of moves; None when {n} is unreachable."""
    target, budget = 1 << (n - 1), min(s, n)
    parents = [-1] * (1 << n)
    parents[0] = 0
    queue = deque([0])
    while queue:
        state = queue.popleft()
        if state == target:
            break
        for i in range(n):
            if i != 0 and not (state >> (i - 1)) & 1:
                continue
            nxt = state ^ (1 << i)
            if parents[nxt] == -1 and nxt.bit_count() <= budget:
                parents[nxt] = state
                queue.append(nxt)
    if parents[target] == -1:
        return None
    moves, state = [], target
    while state != 0:
        changed = state ^ parents[state]
        moves.append(Move(bool(state & changed), changed.bit_length()))
        state = parents[state]
    return moves[::-1]


def assert_matches_full_array(n, s):
    """Both the distance and the witness of the two-ended search match the reference."""
    expected = full_array_witness(n, s)
    witness = bfs_path(n, s)
    if expected is None:
        assert bfs_min_time(n, s) is INFINITE and witness is None, (n, s)
    else:
        assert bfs_min_time(n, s) == len(expected), (n, s)
        assert witness.moves == tuple(expected), (n, s)


def test_tiny_instances():
    assert bfs_min_time(1, 1) == 1
    assert bfs_min_time(2, 2) == 3
    assert bfs_min_time(2, 1) is INFINITE
    assert bfs_min_time(8, 4) == 25
    assert bfs_min_time(1, 0) is INFINITE


def test_size_guard():
    with pytest.raises(ResourceLimitError):
        bfs_min_time(21, 5)
    with pytest.raises(ValueError):
        bfs_min_time(0, 3)


def test_path_base_case():
    witness = bfs_path(1, 1)
    assert witness.moves == (Move(True, 1),)


def test_path_unreachable():
    assert bfs_path(5, 3) is None
    assert bfs_path(2, 1) is None


def test_two_ended_search_matches_full_array_on_small_boards():
    for n in range(1, 15):
        for s in range(0, n + 2):
            assert_matches_full_array(n, s)


def test_two_ended_search_matches_full_array_on_sampled_large_boards():
    # The least solvable budget, one below it (unsolvable) and the full budget,
    # where the reference walks most of the 2**n boards.
    for n in range(15, 21):
        least = (n - 1).bit_length() + 1
        for s in (least - 1, least, n):
            assert_matches_full_array(n, s)


def test_witnesses_are_valid_and_minimal():
    for n in range(1, 13):
        for s in range(0, n + 2):
            shortest = bfs_min_time(n, s)
            witness = bfs_path(n, s)
            if shortest is INFINITE:
                assert witness is None
            else:
                assert witness.step_count == shortest
                report = verify(witness, s)
                assert report.valid, (n, s, report)


def test_witness_is_the_least_shortest_play_by_brute_force():
    # Every square of every board is tried: ends[k] holds the boards with a play
    # of exactly k moves to {n}.  The least k that holds the empty board is F,
    # and every play of F moves steps through ends[F - 1], ..., ends[0].
    for n in range(1, 9):
        for s in range(0, n + 2):
            target = 1 << (n - 1)

            def moves(board):  # each move joins two boards of at most S pebbles
                for i in range(n):
                    nxt = board ^ (1 << i)
                    if (i == 0 or (board >> (i - 1)) & 1) and (board | nxt).bit_count() <= s:
                        yield i + 1, nxt

            ends = [{target}]
            while 0 not in ends[-1] and len(ends) <= 1 << n:
                ends.append({nxt for board in ends[-1] for _, nxt in moves(board)})
            witness = bfs_path(n, s)
            if 0 not in ends[-1]:  # no play is longer than 2**n - 1 moves without a repeat
                assert witness is None, (n, s)
                continue
            plays, stack = [], [(0, ())]
            while stack:
                board, squares = stack.pop()
                left = len(ends) - 1 - len(squares)
                if left == 0:
                    plays.append(squares)
                for square, nxt in moves(board):
                    if left and nxt in ends[left - 1]:
                        stack.append((nxt, squares + (square,)))
            assert witness.step_count == len(ends) - 1, (n, s)
            assert tuple(move.square for move in witness.moves) == min(plays), (n, s, len(plays))


def test_witness_past_the_cap(monkeypatch):
    # The two-ended search keeps only the boards it reaches, 38,054 here, where
    # a parent array would hold all 2**24 boards.  The cap is lifted here only.
    monkeypatch.setattr(oracle, "MAX_ORACLE_SQUARES", 24)
    witness = bfs_path(24, 6)
    assert witness.step_count == f_cost(24, 6)
    assert verify(witness, 6).valid


@pytest.mark.parametrize("n, s, boards", [(20, 20, 28656), (20, 12, 421815)])
def test_search_stores_a_pinned_number_of_boards(n, s, boards):
    """Boards stored by the one search, both dicts together, pinned so that a
    change to the work of the search shows."""
    up, down = oracle._meet(n, s)[0]
    assert len(up) + len(down) == boards


def test_reachability_frontier_small_scale():
    for n in range(1, 17):
        for s in range(1, 6):
            reachable = bfs_min_time(n, s) is not INFINITE
            assert reachable == is_solvable(n, s), (n, s)


def test_agreement_with_recursion_spot():
    for n, s in [(4, 3), (6, 3), (12, 5), (9, 4), (16, 5)]:
        assert bfs_min_time(n, s) == f_cost(n, s), (n, s)


def test_agreement_with_recursion_on_whole_layers():
    # With criterion 2 (n, S <= 12), layers 1-6 are checked whole up to the
    # oracle's n <= 20, unsolvable cells included.
    for s in range(1, 7):
        for n in range(13, 21):
            assert bfs_min_time(n, s) == f_cost(n, s), (n, s)


def test_agreement_with_recursion_on_whole_layers_past_the_cap(monkeypatch):
    # The two-ended search visits only boards with at most S pebbles, so layers
    # 1-6 fit well past the n <= 20 cap, which is lifted here only.
    monkeypatch.setattr(oracle, "MAX_ORACLE_SQUARES", 32)
    for s in range(0, 7):
        for n in range(21, 33):
            assert bfs_min_time(n, s) == f_cost(n, s), (n, s)


# -- every optimal split, and a census of shortest plays ------------------------


@functools.cache
def _bfs(n, s):
    """The oracle's F(n, S) as a number, math.inf where unsolvable, from one search
    per cell: S past n plays as S = n, since no board holds more than n pebbles."""
    if s > n:
        return _bfs(n, n)
    time = bfs_min_time(n, s)
    return math.inf if time is INFINITE else time


def _optimal_splits(n, s):
    """Every m whose three parts, each timed by the oracle, add up to the oracle's F(n, S)."""
    return [
        m for m in range(1, n) if _bfs(m, s) + _bfs(n - m, s - 1) + _bfs(m, s - 1) == _bfs(n, s)
    ]


def test_optimal_splits_by_the_oracle_form_a_range_from_split_point():
    # Checked against the oracle alone, not the recursion that split_point reads.
    cells = 0
    for n in range(2, 17):
        for s in range(1, n + 1):
            if is_solvable(n, s):
                splits = _optimal_splits(n, s)
                assert splits and splits == list(range(split_point(n, s), splits[-1] + 1)), (n, s)
                cells += 1
    assert cells == 86


def _shortest_plays(n, s):
    """(length, number) of the shortest plays from the empty board to {n}, counting
    the paths into each board over the levels of a breadth-first search."""
    budget, target = min(s, n), 1 << (n - 1)
    seen, level, length = {0}, {0: 1}, 0
    while level and target not in level:
        after = {}
        for board, paths in level.items():
            for i in range(n):
                if i and not board >> (i - 1) & 1:
                    continue
                moved = board ^ (1 << i)
                if moved not in seen and moved.bit_count() <= budget:
                    after[moved] = after.get(moved, 0) + paths
        seen.update(after)
        level, length = after, length + 1
    return length, level.get(target, 0)


@functools.cache
def _three_part_plays(n, s):
    """The plays of the three-part form over every optimal split, at every level;
    one square has the one play +1."""
    if n == 1:
        return 1
    return sum(
        _three_part_plays(m, s) * _three_part_plays(n - m, s - 1) * _three_part_plays(m, s - 1)
        for m in _optimal_splits(n, s)
    )


@pytest.mark.parametrize(
    "n, s, f, shortest, three_part, splits",
    [
        (4, 3, 9, 2, 1, (2, 2)),
        (8, 5, 21, 1366, 6, (1, 4)),
        (10, 6, 27, 175394, 20, (1, 5)),
        (12, 7, 33, 42264636, 71, (1, 6)),
        (12, 12, 23, 1, 1, (1, 1)),
    ],
    ids=["4-3", "8-5", "10-6", "12-7", "12-12"],
)
def test_census_of_shortest_and_three_part_plays(n, s, f, shortest, three_part, splits):
    # Most shortest plays are not of the three-part form: the canonical play is
    # one optimum among many.
    assert _shortest_plays(n, s) == (f, shortest)
    assert _three_part_plays(n, s) == three_part
    found = _optimal_splits(n, s)
    assert (found[0], found[-1]) == splits


def test_census_length_is_the_oracles_and_f_on_every_small_cell():
    for n in range(1, 13):
        for s in range(1, n + 1):
            if is_solvable(n, s):
                assert _shortest_plays(n, s)[0] == _bfs(n, s) == f_cost(n, s), (n, s)
