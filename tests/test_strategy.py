"""Synthesis, replay verification, reversal, interval-view and parser tests."""

import contextlib
import hashlib
import io
import itertools
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblegame import (
    ResourceLimitError,
    UnsolvableError,
    bfs_min_time,
    dp,
    f_cost,
    is_solvable,
    iter_strategy_moves,
    reverse_strategy,
    synthesize,
    to_intervals,
    verify,
)
from pebblegame import play as play_engine, strategy
from pebblegame.play import CHUNK, LINE_SQUARES, _emit, _lines, _play_splits, _replay_text
from pebblegame.play import ReplayChecker
from pebblegame.strategy import Move, _moves_of, Strategy, parse_move


def parse_moves(text: str) -> tuple:
    """The per-line reference reader: ``parse_move`` on each line of ``str.splitlines``
    that is not blank.  ``_replay_text`` must feed the same moves and raise the same error."""
    return tuple(parse_move(line) for line in text.splitlines() if line.strip())


def play(text: str, n: int) -> Strategy:
    return Strategy(n, parse_moves(text))


def reference_squares(reference_replay, strat: Strategy):
    """``IntervalView.squares`` of a play by the reference replay: the closed intervals
    of each square in the order they close, then (start, None) for a pebble left on it."""
    ref = reference_replay(strat.n)
    for move in strat.moves:
        ref.feed(move.square if move.place else -move.square)
    rows = [[] for _ in range(strat.n)]
    for i, interval in ref.closed:
        rows[i - 1].append(interval)
    for i, start in ref.open_start.items():
        rows[i - 1].append((start, None))
    return tuple(map(tuple, rows)), ref


def test_move_text_forms():
    assert str(Move(True, 3)) == "+3"
    assert str(Move(False, 12)) == "-12"
    assert parse_move("+7") == Move(True, 7)
    assert parse_move(" -2 ") == Move(False, 2)
    for bad in ("", "+", "2", "+-2", "+2.5", "place 2"):
        with pytest.raises(ValueError):
            parse_move(bad)


def test_moves_block_round_trip():
    moves = (Move(True, 1), Move(True, 2), Move(False, 1))
    assert Strategy(2, moves).to_text() == "+1\n+2\n-1\n"
    assert parse_moves("+1\n+2\n-1\n") == moves


def test_strategy_bounds_checked():
    with pytest.raises(ValueError):
        Strategy(2, (Move(True, 3),))
    with pytest.raises(ValueError):
        Strategy(2, (Move(True, 0),))
    with pytest.raises(ValueError):
        Strategy(0, ())


def test_strategy_metadata():
    s = play("+1\n+2\n-1\n", 2)
    assert s.step_count == 3
    assert s.peak_pebbles == 2


def test_synthesize_base_case():
    s = synthesize(1, 1)
    assert s.moves == (Move(True, 1),)
    assert s.peak_pebbles == 1


def test_synthesize_two_squares():
    assert synthesize(2, 2).moves == (Move(True, 1), Move(True, 2), Move(False, 1))


def test_synthesize_four_three():
    s = synthesize(4, 3)
    assert s.step_count == 9
    assert s.peak_pebbles == 3
    assert verify(s, 3).valid
    assert [str(m) for m in s.moves] == ["+1", "+2", "-1", "+3", "+4", "-3", "+1", "-2", "-1"]


def test_synthesize_unsolvable():
    with pytest.raises(UnsolvableError):
        synthesize(5, 3)
    with pytest.raises(UnsolvableError):
        synthesize(2, 1)


def test_synthesize_materialization_cap():
    with pytest.raises(ResourceLimitError):
        synthesize(8, 4, max_moves=5)
    assert synthesize(8, 4, max_moves=25).step_count == 25
    with pytest.raises(ResourceLimitError):
        synthesize(8, 4, max_moves=24)
    with pytest.raises(ResourceLimitError, match=r"\(-1 moves\)$"):
        synthesize(4, 3, max_moves=-1)
    for cap in (True, 9.5, "x"):
        with pytest.raises(ValueError, match=rf"^max_moves must be an integer, got {cap!r}$"):
            synthesize(4, 3, max_moves=cap)


def test_synthesize_refuses_before_emitting(monkeypatch):
    """The cap is read against F from the play's splits, so no move is emitted for a
    play over it; an unsolvable play is refused before the cap."""
    def no_emit(*args):
        raise AssertionError("a refused play emits no move")

    monkeypatch.setattr(strategy, "_emit", no_emit)
    message = "play for n=1048576, S=21 exceeds the materialization cap (2000000 moves)"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        synthesize(2**20, 21)
    for cap in (0, "x"):
        with pytest.raises(UnsolvableError, match=r"^n=5 needs more than S=3 pebbles"):
            synthesize(5, 3, max_moves=cap)
    with pytest.raises(ResourceLimitError, match=r"^play for n=8, S=4 exceeds .* \(24 moves\)$"):
        synthesize(8, 4, max_moves=24)


def test_deep_play_has_no_depth_limit():
    # S >= n: the play is one ladder, 2n - 1 moves, however large n is.
    play = synthesize(1200, 1200)
    assert play.step_count == 2399
    report = verify(play, 1200)
    assert report.valid
    assert report.peak_pebbles == 1200


def test_canonical_move_order_pinned_at_scale():
    text = Strategy(4096, iter_strategy_moves(4096, 13)).to_text()
    assert text.count("\n") == 190947
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "3286d009b72a02dbb32540997463151b7388c77e3e2f86df006daab0f14004aa"
    )


def test_canonical_move_order_pinned_with_ladders():
    # Recorded while the emitter played each ladder square by square.
    text = Strategy(16384, iter_strategy_moves(16384, 20)).to_text()
    assert text.count("\n") == 408849
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "bd6bc741b1b12762c5b0290b78fa550a95fb6658dabbdec648b254d6dbc9fb34"
    )


@pytest.mark.parametrize("split", [0, 2, 3])
def test_split_outside_the_board_raises(split):
    # A split function whose only split breaks 1 <= m < n; S < n, so it is asked.
    chunks = _emit(2, 1, lambda n, s: split)
    with pytest.raises(UnsolvableError, match=r"^no split for n=2, S=1$"):
        list(chunks)


def square_by_square_emit(n, s, split):
    """The emitter as it was before ladders were written in closed form: a leaf at
    n == 1 and a split for every other subgame, ``split(n, min(S, n))``."""
    stack = [(n, s, 0, False)]
    chunk = []
    splits = {}
    while stack:
        n, s, offset, backwards = stack.pop()
        if n == 1:
            chunk.append(-1 - offset if backwards else 1 + offset)
            if len(chunk) == CHUNK:
                yield chunk
                chunk = []
            continue
        try:
            m = splits[n, s]
        except KeyError:
            m = splits[n, s] = split(n, min(s, n))
            if not 1 <= m < n:
                raise UnsolvableError(f"no split for n={n}, S={s}") from None
        parts = (
            (m, s, offset, backwards),
            (n - m, s - 1, offset + m, backwards),
            (m, s - 1, offset, not backwards),
        )
        stack.extend(parts if backwards else reversed(parts))
    if chunk:
        yield chunk


def reference_emit(n, s, split):
    """The emitter before subgames were copied from a memo, kept as it was: the play
    as lists of ``CHUNK`` signed squares (the last may be shorter), from a
    stack of (n, S, offset, backwards) subgames.  One with S >= n is the ladder, two
    ranges cut only where they overfill a chunk.  Any other has its three parts pushed,
    reversed for a forward play (first part on top) as for a backwards one; the checked
    1 <= m < n makes every part smaller, so the loop ends.  ``split(n, S)`` is asked
    once per (n, S) of the play with S < n."""
    stack = [(n, s, 0, False)]
    chunk: list = []
    splits: dict = {}
    while stack:
        n, s, o, backwards = stack.pop()
        if s >= n:  # place 1..n, lift n-1..1; backwards, place 1..n-1, lift n..1 (all + o)
            forward = not backwards
            for part in (range(o + 1, o + n + forward), range(forward - o - n, -o)):
                while len(chunk) + len(part) >= CHUNK:
                    cut = CHUNK - len(chunk)
                    yield [*chunk, *part[:cut]]
                    chunk, part = [], part[cut:]
                chunk += part
            continue
        try:
            m = splits[n, s]
        except KeyError:
            m = splits[n, s] = split(n, s)
            if not 1 <= m < n:
                raise UnsolvableError(f"no split for n={n}, S={s}") from None
        parts = (
            (m, s, o, backwards),
            (n - m, s - 1, o + m, backwards),
            (m, s - 1, o, not backwards),
        )
        stack.extend(parts if backwards else reversed(parts))
    if chunk:
        yield chunk


def square_by_square_play(n, s):
    """The signed squares of the (n, s) play by ``square_by_square_emit``, with the
    split 1 of every ladder that it asked for."""
    split = (lambda n, s: 1) if s >= n else _play_splits(n, s, None)[0]
    return list(itertools.chain.from_iterable(square_by_square_emit(n, s, split)))


def emitted_play(n, s):
    return list(itertools.chain.from_iterable(_emit(n, s, _play_splits(n, s, None)[0])))


def test_ladder_leaves_match_the_square_by_square_emitter():
    cases = [(n, s) for n in range(1, 200) for s in range(1, 12) if is_solvable(n, s)]
    cases += [(n, n + k) for n in range(1, 301) for k in (0, 1, 5)]
    cases.append((16384, 20))
    for n, s in cases:
        assert emitted_play(n, s) == square_by_square_play(n, s), (n, s)


def test_emitter_matches_the_reference_chunk_for_chunk():
    cases = [(n, s) for n in range(1, 151) for s in range(1, 13) if is_solvable(n, s)]
    for n, s in cases:
        split = _play_splits(n, s, None)[0]
        assert list(_emit(n, s, split)) == list(reference_emit(n, s, split)), (n, s)


def _stored(chunks):
    """Signed squares in the memo of a suspended ``_emit`` generator."""
    return sum(len(moves) for moves in chunks.gi_frame.f_locals["memo"].values() if moves)


@pytest.mark.parametrize(
    "memo_squares, memo_cap",
    [(128, 0), (128, 700), (128, 5000), (1, 1 << 18), (16, 300), (127, 1 << 18), (129, 1 << 18),
     (5000, 1 << 18)],
)
def test_emitter_matches_the_reference_across_the_memo_bound_and_cap(
    monkeypatch, memo_squares, memo_cap
):
    # Subgames of 127 to 129 squares straddle the bound; a small cap leaves some
    # subgames of the bound to the stack, and caps of 700 and 5000 fill up mid-play.
    monkeypatch.setattr(play_engine, "MEMO_SQUARES", memo_squares)
    monkeypatch.setattr(play_engine, "MEMO_CAP", memo_cap)
    refused = False  # a subgame of the bound that the memo had no room for
    for n, s in [(127, 8), (128, 8), (129, 9), (130, 9), (256, 9), (1000, 20), (4096, 13)]:
        split = _play_splits(n, s, None)[0]
        chunks = _emit(n, s, split)
        expected = reference_emit(n, s, split)
        for chunk in chunks:
            assert chunk == next(expected), (n, s)
            assert _stored(chunks) <= memo_cap
            refused = refused or None in chunks.gi_frame.f_locals["memo"].values()
        assert next(expected, None) is None
    assert refused or memo_cap == 1 << 18


def test_splits_are_asked_only_below_the_ladder():
    split = _play_splits(16384, 15, None)[0]
    asked = []

    def counting(n, s):
        asked.append((n, s))
        return split(n, s)

    for _ in _emit(16384, 15, counting):
        pass
    # The square-by-square emitter called it 705 times, for 655 distinct (n, min(S, n)).
    assert len(asked) == len(set(asked)) == 641
    assert all(s < n for n, s in asked)


def test_a_long_ladder_streams_in_whole_chunks():
    n = 200_000
    expected = itertools.chain(range(1, n + 1), range(1 - n, 0))
    sizes = []
    tracemalloc.start()
    try:
        for chunk in _emit(n, n, None):
            sizes.append(len(chunk))
            assert chunk == list(itertools.islice(expected, len(chunk)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == 2 * n - 1 and next(expected, None) is None
    assert set(sizes[:-1]) == {CHUNK} and 0 < sizes[-1] <= CHUNK
    assert peak < 2 << 20, peak


def test_streaming_equals_materialized():
    streamed = tuple(iter_strategy_moves(16, 5))
    assert streamed == synthesize(16, 5).moves


def test_synthesize_builds_no_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("splits come from the run layers")

    monkeypatch.setattr(dp, "build_table", no_table)
    assert synthesize(100, 8).step_count == 833
    assert list(iter_strategy_moves(100, 8)) == list(synthesize(100, 8).moves)


def test_ladder_builds_no_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("S >= n needs no table")

    monkeypatch.setattr(dp, "build_table", no_table)
    for n, s in [(1, 1), (2, 2), (7, 9), (300, 300)]:
        ladder = [Move(True, i) for i in range(1, n + 1)]
        ladder += [Move(False, i) for i in range(n - 1, 0, -1)]
        assert list(iter_strategy_moves(n, s)) == ladder, (n, s)
        assert synthesize(n, s).moves == tuple(ladder), (n, s)


def test_optimality_small_sweep():
    for n in range(1, 17):
        for s in range(1, 7):
            if not is_solvable(n, s):
                continue
            strat = synthesize(n, s)
            assert strat.step_count == f_cost(n, s), (n, s)
            assert strat.step_count == bfs_min_time(n, s), (n, s)
            report = verify(strat, s)
            assert report.valid, (n, s, report)


def test_reverse_examples():
    assert reverse_strategy(play("+1\n", 1)).moves == (Move(False, 1),)
    assert reverse_strategy(play("+1\n+2\n-1\n", 2)).moves == (
        Move(True, 1), Move(False, 2), Move(False, 1)
    )


def test_reverse_solution_empties_the_board():
    for n, s in [(2, 2), (4, 3), (8, 4), (16, 5), (13, 5)]:
        reversed_play = reverse_strategy(synthesize(n, s))
        checker = ReplayChecker(n, initial={n})
        for move in reversed_play.moves:
            checker.feed(move)
        checker.finish(expected=frozenset())
        assert checker.first_violation is None, (n, s, checker.first_violation)
        assert checker.board == set()
        assert checker.peak <= s


def test_replay_checker_rejects_a_board_it_cannot_hold():
    with pytest.raises(ValueError, match=r"^board size must be >= 1, got 0$"):
        ReplayChecker(0)
    for n in (True, 3.5, 4.0, "4", None):
        with pytest.raises(ValueError, match=rf"^board size must be an integer, got {n!r}$"):
            ReplayChecker(n)
    for initial in ({0}, {5}, {1, 5}, {-1}):
        with pytest.raises(ValueError, match=r"^initial pebbles outside the board$"):
            ReplayChecker(4, initial=initial)
    # An initial square is an int, not a bool, whatever the board's size.
    for n, square in ((4, True), (4, 1.0), (4, "1"), (2**21, 1.0), (2**21, True)):
        message = rf"^initial square must be an integer, got {re.escape(repr(square))}$"
        with pytest.raises(ValueError, match=message):
            ReplayChecker(n, initial={square})
    # One S rule for every replay: a budget is None or an int (not a bool) >= 0,
    # checked after the board.
    play = synthesize(4, 3)
    for budget in (3.5, True, "x", -1):
        message = rf"^S must be an integer >= 0, got {re.escape(repr(budget))}$"
        with pytest.raises(ValueError, match=message):
            ReplayChecker(4, budget)
        with pytest.raises(ValueError, match=message):
            verify(play, budget)
    with pytest.raises(ValueError, match=r"^board size must be >= 1, got 0$"):
        ReplayChecker(0, -1)
    for budget, valid in ((None, True), (0, False), (3, True)):
        assert verify(play, budget) == (valid, 9, 3, None if valid else (1, "budget"))


def test_verify_add_rule():
    report = verify(Strategy(2, (Move(True, 2),)), 2)
    assert not report.valid
    assert report.first_violation == (1, "add")
    # Past the highest square reached, on a board far longer than the replay's list:
    # two squares past it, and one past it where the list first grows.
    assert verify(play("+1\n+3\n", 10**12), 3).first_violation == (2, "add")
    assert verify(play("+1\n+2\n+4\n", 10**12), 3).first_violation == (3, "add")


def test_verify_budget_rule():
    report = verify(play("+1\n+2\n-1\n", 2), 1)
    assert not report.valid
    assert report.peak_pebbles == 2
    assert report.first_violation == (2, "budget")


def test_verify_occupancy_rules():
    report = verify(play("+1\n+1\n", 2), 2)
    assert report.first_violation == (2, "occupancy")
    report = verify(play("-1\n", 2), 2)
    assert report.first_violation == (1, "occupancy")
    # Removes past the highest square reached, up to the last square of the board.
    for last in ("-3", f"-{10**12}"):
        report = verify(play(f"+1\n{last}\n", 10**12), 3)
        assert report.first_violation == (2, "occupancy")


def test_verify_remove_rule():
    # Legal board {1,2,3}, then removing 3 after 2 is gone breaks the rule.
    report = verify(play("+1\n+2\n+3\n-2\n-3\n", 3), 3)
    assert report.first_violation == (5, "remove")


def test_verify_final_configuration():
    report = verify(Strategy(1, ()), 1)
    assert not report.valid
    assert report.first_violation == (0, "final")
    report = verify(play("+1\n+2\n", 2), 2)
    assert report.first_violation == (2, "final")


def test_verify_keeps_a_play_with_a_wasted_interval_valid(pairwise_nesting):
    # Square 1 is re-pebbled and dropped while square 2 rests: wasted work, but legal.
    strat = play("+1\n+2\n-1\n+1\n-1\n", 2)
    assert pairwise_nesting(to_intervals(strat)) == ((1, (4, 4)),)
    assert verify(strat, 2) == (True, 5, 2, None)


def test_nesting_with_open_intervals(pairwise_nesting):
    strat = play("+1\n+2\n-1\n+1\n", 2)
    assert pairwise_nesting(to_intervals(strat)) == ((1, (4, None)),)
    assert verify(strat, 2) == (False, 4, 2, (4, "final"))  # final board is {1, 2}


def test_interval_view_example():
    view = to_intervals(play("+1\n+2\n-1\n", 2))
    assert view.squares == (((1, 2),), ((2, None),))
    assert view.to_text() == "s1: [1,2]\ns2: [2,)\n"


def test_interval_view_rejects_inconsistency():
    with pytest.raises(ValueError):
        to_intervals(play("+1\n+1\n", 2))
    with pytest.raises(ValueError):
        to_intervals(play("-1\n", 1))


def test_interval_view_rejects_enabling_rule_violations():
    with pytest.raises(ValueError, match=r"^step 1: move \+2 breaks the add rule$"):
        to_intervals(play("+2\n", 2))
    with pytest.raises(ValueError, match=r"^step 4: move -2 breaks the remove rule$"):
        to_intervals(play("+1\n+2\n-1\n-2\n", 2))


def test_interval_round_trip_reconstruction(reference_replay):
    for n, s in [(4, 3), (8, 4), (6, 4)]:
        strat = synthesize(n, s)
        squares = to_intervals(strat).squares
        expected = reference_squares(reference_replay, strat)[0]
        assert len(squares) == len(expected) == n
        for i, (got, want) in enumerate(zip(squares, expected), 1):
            assert got == want, (n, s, i)


def test_synthesized_views_have_no_nesting(pairwise_nesting):
    for n in range(1, 33):
        for s in range(1, 7):
            if not is_solvable(n, s):
                continue
            assert pairwise_nesting(to_intervals(synthesize(n, s))) == (), (n, s)


@st.composite
def legal_plays(draw):
    """A legal play on at most 6 squares: each move toggles an enabled square."""
    n = draw(st.integers(min_value=1, max_value=6))
    board = set()
    moves = []
    for pick in draw(st.lists(st.integers(min_value=0, max_value=5), max_size=40)):
        enabled = [i for i in range(1, n + 1) if i == 1 or i - 1 in board]
        square = enabled[pick % len(enabled)]
        moves.append(Move(square not in board, square))
        board.symmetric_difference_update({square})
    return Strategy(n, tuple(moves))


@settings(max_examples=150, derandomize=True)
@given(legal_plays())
def test_replay_by_products_agree_on_legal_plays(reference_replay, strat):
    report = verify(strat, strat.n)
    view = to_intervals(strat)
    squares, ref = reference_squares(reference_replay, strat)
    assert view.squares == squares
    assert strat.peak_pebbles == report.peak_pebbles == ref.peak


def test_empty_interval_line():
    view = to_intervals(Strategy(3, (Move(True, 1),)))
    assert view.to_text() == "s1: [1,)\ns2:\ns3:\n"


# -- properties over arbitrary (mostly illegal) move sequences ----------------

move_lists = st.lists(
    st.builds(Move, st.booleans(), st.integers(min_value=1, max_value=6)), max_size=40
)


@settings(max_examples=80, derandomize=True)
@given(move_lists)
def test_verify_never_raises(moves):
    report = verify(Strategy(6, tuple(moves)), 3)
    assert report.step_count == len(moves)
    assert report.valid == (report.first_violation is None and report.peak_pebbles <= 3)


@settings(max_examples=80, derandomize=True)
@given(move_lists)
def test_reverse_is_an_involution(moves):
    strat = Strategy(6, tuple(moves))
    assert reverse_strategy(reverse_strategy(strat)) == strat


@settings(max_examples=60, derandomize=True)
@given(move_lists)
def test_move_text_round_trip(moves):
    assert parse_moves(Strategy(6, moves).to_text()) == tuple(moves)


# -- the replay core against a per-move set-board replay -----------------------


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return ValueError, str(exc)


@st.composite
def signed_plays(draw):
    """(n, budget, initial, signed squares, cut points) for a replay on at most 6 squares.

    Most moves toggle an enabled square of the board a legal play would hold;
    the rest are any move on the board (double places, removes from an empty
    square, disabled moves) or, rarely, a square off the board.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    initial = draw(st.frozensets(st.integers(min_value=1, max_value=n)))
    budget = draw(st.sampled_from([None, 0, 1, 2, 3]))
    board = set(initial)
    values = []
    kinds = st.sampled_from(["legal"] * 50 + ["any"] * 9 + ["off"])
    length = draw(st.integers(min_value=0, max_value=60))
    picks = st.lists(st.tuples(kinds, st.integers(0, 11)), min_size=length, max_size=length)
    for kind, pick in draw(picks):
        if kind == "legal":
            enabled = [i for i in range(1, n + 1) if i == 1 or i - 1 in board]
            square = enabled[pick % len(enabled)]
            values.append(-square if square in board else square)
            board.symmetric_difference_update({square})
        elif kind == "any":
            square = pick % n + 1
            values.append(square if pick % 2 else -square)
        else:
            values.append((0, n + 1, -n - 1, n + pick)[pick % 4])
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=6)))
    return n, budget, initial, values, cuts


def _replay_state(checker, closed):
    return (
        checker.steps,
        checker.peak,
        checker.first_violation,
        checker.halt is not None,
        closed,
        checker._occupied(),
    )


@settings(max_examples=400, derandomize=True)
@given(signed_plays())
def test_replay_core_matches_reference(reference_replay, case):
    _check_replay_core(reference_replay, *case)


def _check_replay_core(reference_replay, n, budget, initial, values, cuts):
    reference = reference_replay(n, budget, initial)

    def feed_reference():
        for value in values:
            reference.feed(value)

    expected_error = _outcome(feed_reference)
    expected = (
        reference.steps,
        reference.peak,
        reference.first_violation,
        reference.halted,
        reference.closed,
        reference.open_start,
    )

    whole, closed = ReplayChecker(n, budget, initial), []
    assert _outcome(lambda: whole.feed_signed(values, closed)) == expected_error
    assert _replay_state(whole, closed) == expected

    # Cut into chunks: the state written back after each call carries into the next.
    chunked, closed = ReplayChecker(n, budget, initial), []

    def feed_chunks():
        for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
            chunked.feed_signed(values[lo:hi], closed)

    assert _outcome(feed_chunks) == expected_error
    assert _replay_state(chunked, closed) == expected

    single, closed = ReplayChecker(n, budget, initial), []

    def feed_moves():
        for value in values:
            interval = single.feed(Move(value >= 0, abs(value)))
            if interval is not None:
                closed.append((abs(value), interval))

    assert _outcome(feed_moves) == expected_error
    assert _replay_state(single, closed) == expected
    if expected_error is None:
        assert whole.finish(frozenset({n})) == chunked.finish(frozenset({n}))


def _replay_at_the_top(n):
    """Outcomes of replays on the top squares of an n-square board: a legal play from
    pebbles on n - 3 and n - 2, its intervals, the length of its board list and its
    report, then a halt in mid-chunk, the report after it, and a square off the board
    after the halt."""
    initial = {n - 3, n - 2}
    legal = [n - 1, n, -(n - 1), n - 1, -n, -(n - 1), -(n - 2), n - 2]
    checker = ReplayChecker(n, budget=3, initial=initial)
    intervals = play_engine._replay_intervals(checker, [legal[:3], legal[3:]])
    outcomes = [intervals, len(checker._starts), checker.finish(frozenset(initial))]
    checker, closed = ReplayChecker(n, initial=initial), []
    checker.feed_signed(legal + [n - 1, n - 1, -n, 5], closed)
    outcomes += [_replay_state(checker, closed), checker.finish(frozenset({n}))]
    outcomes.append(_outcome(lambda: checker.feed_signed([n - 1, n + 1])))
    outcomes.append(_outcome(lambda: ReplayChecker(n).feed(Move(False, n + 1))))
    return outcomes


@pytest.mark.parametrize("n", [1 << 20, (1 << 20) + 1])
def test_replay_at_the_top_of_a_large_board(n):
    intervals, slots, report, state, halted, placed, removed = _replay_at_the_top(n)
    assert slots == n + 1  # from n - 1 slots, the first growth stops at the board's end
    assert intervals.squares[n - 4:] == (
        ((0, None),), ((0, 6), (8, None)), ((1, 2), (4, 5)), ((2, 4),)
    )
    assert report == (False, 8, 4, (2, "budget"))
    assert state[:4] == (12, 4, (10, "occupancy"), True)
    assert state[5] == {n - 3: 0, n - 2: 8, n - 1: 9}
    assert halted == (False, 12, 4, (10, "occupancy"))
    assert placed == (
        ValueError,
        f"move +{n + 1} references a square outside the {n}-square board",
    )
    assert removed == (
        ValueError,
        f"move -{n + 1} references a square outside the {n}-square board",
    )


def test_feed_keeps_the_sign_of_square_zero():
    checker = ReplayChecker(3)
    with pytest.raises(ValueError, match=r"^move -0 references a square outside the 3-square board$"):
        checker.feed(Move(False, 0))
    with pytest.raises(ValueError, match=r"^move \+0 references a square outside the 3-square board$"):
        checker.feed_signed([0])
    assert checker.steps == 0
    # The same messages once the board list has grown to its end, and for squares
    # past n, both with the list grown and with the list far short of n.
    for n, legal, value in ((3, [1, 2, 3], 0), (3, [1, 2, 3], 4), (3, [1, 2, 3], -4),
                            (10**12, [1], 10**12 + 1), (10**12, [1], -(10**12) - 1)):
        checker = ReplayChecker(n)
        message = f"move {value:+d} references a square outside the {n}-square board"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checker.feed_signed([*legal, value])
        assert checker.steps == len(legal)


def test_feed_cuts_the_quote_of_a_long_square():
    checker = ReplayChecker(3)
    with pytest.raises(ValueError, match=r"^move \+1" + "0" * 38 + r"\.\.\. references a square "):
        checker.feed(Move(True, 10**100))
    # 40 characters are quoted whole.
    with pytest.raises(ValueError, match=r"^move \+1" + "0" * 38 + r" references a square "):
        checker.feed(Move(True, 10**38))
    assert checker.steps == 0


def test_feed_refuses_a_square_that_is_not_an_int():
    """A fed square is an int, not a bool, checked before its range: a float square
    once reached the board list as an index and raised TypeError."""
    checker = ReplayChecker(3)
    checker.feed(Move(True, 1))
    for square in (1.0, 2.0, True, 1e50, "2", None):
        message = rf"^square must be an integer, got {re.escape(repr(square))}$"
        with pytest.raises(ValueError, match=message):
            checker.feed(Move(True, square))
    assert (checker.steps, set(checker.board)) == (1, {1})


@pytest.mark.parametrize("sign", ["+", "-"])
def test_off_board_quote_of_a_square_past_the_int_digit_limit(sign):
    # 5,001 digits: more than str() formats under the default limit of 4,300.
    square = 10**5000
    message = f"^move \\{sign}1{'0' * 38}\\.\\.\\. references a square outside the 3-square board$"
    checker = ReplayChecker(3)
    with pytest.raises(ValueError, match=message):
        checker.feed(Move(sign == "+", square))
    with pytest.raises(ValueError, match=message):
        checker.feed_signed([square if sign == "+" else -square])
    with pytest.raises(ValueError, match=message):
        Strategy(3, [Move(sign == "+", square)])
    assert checker.steps == 0


# -- the chunked reader against the per-line reference, parse_moves ------------

text_pieces = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0c", " ", "   ", "\n\n", "+1", "-2", "+13", "+0", "-0",
     "+01", "-007", "+" + "9" * 40, "-" + "1" * 40, "zz", "+", "1", "+-1"]
)


class _Recorder:
    """A stand-in checker on an n-square board: it records each list of signed squares
    ``_replay_text`` feeds to ``feed_signed`` and each ``Move`` it feeds to ``feed``.
    With n None the board is one past LINE_SQUARES, which has no line table, so its
    lists are read by int()."""

    def __init__(self, n=None):
        self.n = LINE_SQUARES + 1 if n is None else n
        self.items = []

    def feed_signed(self, values):
        self.items.append(values)

    def feed(self, move):
        self.items.append(move)


def _fed(stream, size: int = 1 << 16, n=None) -> list:
    """Each list and ``Move`` that ``_replay_text`` feeds, in order."""
    recorder = _Recorder(n)
    _replay_text(recorder, stream, size)
    return recorder.items


def _iter_moves(stream, size: int = 1 << 16, n=None):
    """The moves ``_replay_text`` feeds, one at a time."""
    for item in _fed(stream, size, n):
        if isinstance(item, list):
            yield from _moves_of(item)
        else:
            yield item


def _plain_block(count: int, seed: int) -> str:
    """``count`` plain move lines, squares of one to six digits."""
    return "".join(
        "%+d\n" % ((-1) ** k * ((seed + k) * 7919 % 10 ** (1 + (seed + k) % 6) + 1))
        for k in range(count)
    )


# Short texts of any pieces read in tiny chunks, and long texts that are plain
# but for a few pieces, read in chunks of up to 4096: one text then takes the
# parser's fast route for some chunks and its per-line route for others.
mixed_texts = st.tuples(
    st.lists(text_pieces, max_size=30).map("".join), st.integers(min_value=1, max_value=7)
)
plain_texts = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 99), st.one_of(st.none(), text_pieces)),
        max_size=8,
    ).map(lambda parts: "".join(_plain_block(k, seed) + (piece or "") for k, seed, piece in parts)),
    st.integers(min_value=1, max_value=4096),
)


@settings(max_examples=300, derandomize=True)
@given(st.one_of(mixed_texts, plain_texts))
def test_chunked_parser_matches_parse_moves(case):
    text, size = case
    expected = _outcome(lambda: parse_moves(text))
    assert _outcome(lambda: tuple(_iter_moves(io.StringIO(text), size))) == expected


# Boards of n squares, whose line table is built once more than n lines are read;
# squares past n are read by int().
@pytest.mark.parametrize("n", [1, 7, 500])
@settings(max_examples=300, derandomize=True)
@given(st.one_of(mixed_texts, plain_texts))
def test_chunked_parser_with_a_line_table_matches_parse_moves(n, case):
    text, size = case
    expected = _outcome(lambda: parse_moves(text))
    assert _outcome(lambda: tuple(_iter_moves(io.StringIO(text), size, n))) == expected


def _chunk_kinds(text: str, n=None) -> list:
    """Per item the reader feeds before any error: "list" (fast route) or "move"."""
    recorder = _Recorder(n)
    with contextlib.suppress(ValueError):
        _replay_text(recorder, io.StringIO(text))
    return ["list" if isinstance(item, list) else "move" for item in recorder.items]


def test_parser_fast_route_reads_plain_lines():
    assert _fed(io.StringIO("+1\n-1\n+" + "9" * 40 + "\n")) == [[1, -1, 10**40 - 1]]
    # Text past the last newline is carried, then parsed line by line.
    assert _chunk_kinds("+1\n+2\r-1") == ["list", "move", "move"]
    assert tuple(_iter_moves(io.StringIO("+1\n+2\r-1"))) == parse_moves("+1\n+2\r-1")


@pytest.mark.parametrize(
    "limit, digits",
    [(4300, 4300), (4300, 4301), (640, 640), (640, 641)],
    ids=["default-limit", "past-the-default-limit", "least-limit", "past-the-least-limit"],
)
def test_parser_reads_squares_as_far_as_int_does(limit, digits):
    # int()'s digit limit, whatever it is set to, is the reader's one digit rule: a
    # plain block is read by int() up to it, and one with a longer square goes line by
    # line, where parse_move refuses that square as off the board.  4,300 is the
    # default limit and 640 the least one.
    text = "+1\n-1\n-" + "2" * digits + "\n+2\n"
    reads = digits <= limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for n in (None, 3):
            assert _chunk_kinds(text, n) == (["list"] if reads else ["move", "move"])
            assert _outcome(lambda: tuple(_iter_moves(io.StringIO(text), n=n))) == _outcome(
                lambda: parse_moves(text)
            )
        if not reads:
            with pytest.raises(ValueError) as raised:
                parse_moves(text)
            shown = "-" + "2" * 39
            assert str(raised.value) == f"move {shown!r}... references a square outside the board"
    finally:
        sys.set_int_max_str_digits(old)


class _Unbroken:
    """A stream of ``size`` characters "x", with no line break, read ``read(k)`` at a time."""

    def __init__(self, size):
        self.left = size

    def read(self, k):
        k = min(k, self.left)
        self.left -= k
        return "x" * k


def test_parser_reads_a_long_unbroken_line_in_linear_time():
    # Reads with no line break are held and joined once, when the text ends.  Joined
    # and rescanned at every read, these 32 MiB took about 16 s of CPU on a 2-core
    # x86 VM, against 0.2 s.  The error quotes only the line's first 40 characters.
    start = time.process_time()
    with pytest.raises(ValueError, match=r"^malformed move 'xxx") as raised:
        _fed(_Unbroken(32 << 20))
    assert time.process_time() - start < 3.0
    assert len(str(raised.value)) < 200


@pytest.mark.parametrize(
    "line, shown",
    [("x" * 40, "'" + "x" * 40 + "'"), ("+" + "y" * 40, "'+" + "y" * 39 + "'...")],
    ids=["forty-quoted-whole", "longer-cut-at-forty"],
)
def test_malformed_move_quotes_a_long_line_cut(line, shown):
    with pytest.raises(ValueError) as raised:
        parse_move(line)
    assert str(raised.value) == f"malformed move {shown}; expected +<i> or -<i>"


@pytest.mark.parametrize(
    "piece",
    ["+0\n", "-0\n", "+01\n", "+\u0663\n", "+2\r\n", "\n", "  \n", " +2\n", "+2 \n",
     "\t-2\n", "+2\x0c", "zz\n"],
    ids=["plus-zero", "minus-zero", "leading-zero", "arabic-indic-digit", "crlf", "blank",
         "spaces", "leading-space", "trailing-space", "tab", "form-feed", "malformed"],
)
def test_parser_falls_back_on_any_other_line(piece):
    # "+\u0663" is an Arabic-Indic digit three, which parse_move reads as square 3.
    # On a board of 2 squares, the four lines are looked up in its line table.  A
    # "\r\n" line end is plain too, so the crlf text is one list read by int().
    text = "+1\n-1\n" + piece + "+2\n"
    for n in (None, 2):
        kinds = _chunk_kinds(text, n)
        assert (kinds == ["list"]) if piece == "+2\r\n" else ("list" not in kinds)
        assert _outcome(lambda: tuple(_iter_moves(io.StringIO(text), n=n))) == _outcome(
            lambda: parse_moves(text)
        )


@pytest.mark.parametrize("past", [0, 1], ids=["at-the-bound", "one-past"])
def test_line_table_writes_and_reads_as_int_and_percent_do(past):
    n = play_engine.LINE_SQUARES + past
    lines = _lines(n)
    assert (lines is None) == bool(past)
    ladder = [*range(1, n + 1), *range(1 - n, 0)]
    text = play_engine._format_signed(ladder)
    if lines is not None:
        assert len(lines) == 2 * n + 1
        assert play_engine._format_signed(ladder, lines) == text
        assert play_engine._format_signed([-n, -1, n, 1], lines) == f"-{n}\n-1\n+{n}\n+1\n"
    # The last lines are off the board, or not plain, after the table is built.
    half = text.index("\n", len(text) // 2) + 1
    for tail in ["", f"+{n + 1}\n", f"-{n + 1}\n+1\n", "+0\n", f"+{n:07d}\n", "+1 \n-1\n"]:
        for case in [text + tail, text[:half] + tail + text[half:]]:
            by_int = _fed(io.StringIO(case))
            assert _fed(io.StringIO(case), n=n) == by_int, tail
