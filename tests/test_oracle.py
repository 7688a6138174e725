"""Exhaustive-search ground truth: small-board checks and witness validity."""

from collections import deque

import pytest

from pebblegame import (
    INFINITE,
    ResourceLimitError,
    bfs_min_time,
    bfs_path,
    f_cost,
    is_solvable,
    verify,
)
from pebblegame import oracle
from pebblegame.strategy import Move


def full_array_distance(n, s):
    """Reference: BFS from the empty board over an array of all 2**n boards,
    trying every square in turn; the distance to {n}, or -1 when unreachable."""
    target, budget = 1 << (n - 1), min(s, n)
    dist = [-1] * (1 << n)
    dist[0] = 0
    queue = deque([0])
    while queue:
        state = queue.popleft()
        if state == target:
            break
        for i in range(n):
            if i != 0 and not (state >> (i - 1)) & 1:
                continue
            nxt = state ^ (1 << i)
            if dist[nxt] == -1 and nxt.bit_count() <= budget:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return dist[target]


def assert_matches_full_array(n, s):
    expected = full_array_distance(n, s)
    assert bfs_min_time(n, s) == (INFINITE if expected == -1 else expected), (n, s)


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
    # The least solvable budget and one below it (unsolvable) on every board;
    # the full budget where the reference takes under 0.3 s.
    for n in range(15, 21):
        least = (n - 1).bit_length() + 1
        for s in (least - 1, least) + ((n,) if n <= 17 else ()):
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
