"""Synthesis, replay verification, reversal, interval-view and parser tests."""

import hashlib
import io

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
from pebblegame.strategy import (
    Move,
    _emit,
    _iter_chunks,
    _moves_of,
    ReplayChecker,
    Strategy,
    format_moves,
    parse_move,
    parse_moves,
    place,
    remove,
)


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
    assert str(place(3)) == "+3"
    assert str(remove(12)) == "-12"
    assert parse_move("+7") == Move(True, 7)
    assert parse_move(" -2 ") == Move(False, 2)
    for bad in ("", "+", "2", "+-2", "+2.5", "place 2"):
        with pytest.raises(ValueError):
            parse_move(bad)


def test_moves_block_round_trip():
    moves = (place(1), place(2), remove(1))
    assert format_moves(moves) == "+1\n+2\n-1\n"
    assert parse_moves("+1\n+2\n-1\n") == moves


def test_strategy_bounds_checked():
    with pytest.raises(ValueError):
        Strategy(2, (place(3),))
    with pytest.raises(ValueError):
        Strategy(2, (place(0),))
    with pytest.raises(ValueError):
        Strategy(0, ())


def test_strategy_metadata():
    s = play("+1\n+2\n-1\n", 2)
    assert s.step_count == 3
    assert s.peak_pebbles == 2


def test_synthesize_base_case():
    s = synthesize(1, 1)
    assert s.moves == (place(1),)
    assert s.peak_pebbles == 1


def test_synthesize_two_squares():
    assert synthesize(2, 2).moves == (place(1), place(2), remove(1))


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


def test_deep_play_has_no_depth_limit():
    # m(n, n) = 1, so each subgame's middle part is the (n-1)-game: they nest n deep.
    play = synthesize(1200, 1200)
    assert play.step_count == 2399
    report = verify(play, 1200)
    assert report.valid
    assert report.peak_pebbles == 1200


def test_canonical_move_order_pinned_at_scale():
    text = format_moves(iter_strategy_moves(4096, 13))
    assert text.count("\n") == 190947
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "3286d009b72a02dbb32540997463151b7388c77e3e2f86df006daab0f14004aa"
    )


@pytest.mark.parametrize("split", [0, 2, 3])
def test_split_outside_the_board_raises(split):
    # A split function whose only split breaks 1 <= m < n.
    chunks = _emit(2, 2, lambda n, s: split)
    with pytest.raises(UnsolvableError, match=r"^no split for n=2, S=2$"):
        list(chunks)


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
        ladder = [place(i) for i in range(1, n + 1)] + [remove(i) for i in range(n - 1, 0, -1)]
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
            assert report.nesting_violations == (), (n, s)


def test_reverse_examples():
    assert reverse_strategy(play("+1\n", 1)).moves == (remove(1),)
    assert reverse_strategy(play("+1\n+2\n-1\n", 2)).moves == (place(1), remove(2), remove(1))


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


def test_verify_add_rule():
    report = verify(Strategy(2, (place(2),)), 2)
    assert not report.valid
    assert report.first_violation == (1, "add")


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


def test_verify_reports_nesting_but_stays_valid():
    # Square 1 is re-pebbled and dropped while square 2 rests: wasted work.
    report = verify(play("+1\n+2\n-1\n+1\n-1\n", 2), 2)
    assert report.valid
    assert report.nesting_violations == ((1, (4, 4)),)


def test_nesting_with_open_intervals():
    report = verify(play("+1\n+2\n-1\n+1\n", 2), 2)
    assert not report.valid  # final board is {1, 2}
    assert report.nesting_violations == ((1, (4, None)),)


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


def test_interval_nesting_matches_online_detection(pairwise_nesting):
    samples = [
        "+1\n+2\n-1\n+1\n-1\n",
        "+1\n+2\n-1\n+1\n",
        "+1\n+2\n+3\n-2\n",
        "+1\n",
    ]
    for text in samples:
        strat = play(text, 3)
        report = verify(strat, 3)
        assert pairwise_nesting(to_intervals(strat)) == report.nesting_violations, text


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
def test_replay_by_products_agree_on_legal_plays(pairwise_nesting, reference_replay, strat):
    report = verify(strat, strat.n)
    view = to_intervals(strat)
    # The checker lists nestings as intervals close, the reference by square.
    assert sorted(report.nesting_violations) == sorted(pairwise_nesting(view))
    squares, ref = reference_squares(reference_replay, strat)
    assert view.squares == squares
    assert strat.peak_pebbles == report.peak_pebbles == ref.peak


def test_empty_interval_line():
    view = to_intervals(Strategy(3, (place(1),)))
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
    assert parse_moves(format_moves(moves)) == tuple(moves)


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
    budget = draw(st.sampled_from([None, -1, 0, 1, 2, 3]))
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
        checker.halted,
        checker.nesting,
        closed,
        dict(checker._open_start),
    )


@settings(max_examples=400, derandomize=True)
@given(signed_plays())
def test_replay_core_matches_reference(reference_replay, case):
    n, budget, initial, values, cuts = case
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
        reference.nesting,
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


def test_feed_keeps_the_sign_of_square_zero():
    checker = ReplayChecker(3)
    with pytest.raises(ValueError, match=r"^move -0 references a square outside the 3-square board$"):
        checker.feed(remove(0))
    with pytest.raises(ValueError, match=r"^move \+0 references a square outside the 3-square board$"):
        checker.feed_signed([0])
    assert checker.steps == 0


# -- the chunked parser against parse_moves ------------------------------------

text_pieces = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0c", " ", "   ", "\n\n", "+1", "-2", "+13", "+0", "-0",
     "+01", "-007", "+" + "9" * 40, "-" + "1" * 40, "zz", "+", "1", "+-1"]
)


def _iter_moves(stream, size: int = 1 << 16):
    """The moves of ``_iter_chunks``, one at a time."""
    for chunk in _iter_chunks(stream, size):
        if isinstance(chunk, list):
            yield from _moves_of(chunk)
        else:
            yield chunk


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


def _chunk_kinds(text: str) -> list:
    """Per item the parser yields before any error: "list" (fast route) or "move"."""
    kinds = []
    try:
        for item in _iter_chunks(io.StringIO(text)):
            kinds.append("list" if isinstance(item, list) else "move")
    except ValueError:
        pass
    return kinds


def test_parser_fast_route_reads_plain_lines():
    assert list(_iter_chunks(io.StringIO("+1\n-1\n+" + "9" * 40 + "\n"))) == [[1, -1, 10**40 - 1]]
    # Text past the last newline is carried, then parsed line by line.
    assert _chunk_kinds("+1\n+2\r-1") == ["list", "move", "move"]
    assert tuple(_iter_moves(io.StringIO("+1\n+2\r-1"))) == parse_moves("+1\n+2\r-1")


@pytest.mark.parametrize(
    "piece",
    ["+0\n", "-0\n", "+01\n", "+\u0663\n", "+2\r\n", "\n", "  \n", " +2\n", "+2 \n",
     "\t-2\n", "+2\x0c", "zz\n"],
    ids=["plus-zero", "minus-zero", "leading-zero", "arabic-indic-digit", "crlf", "blank",
         "spaces", "leading-space", "trailing-space", "tab", "form-feed", "malformed"],
)
def test_parser_falls_back_on_any_other_line(piece):
    # "+\u0663" is an Arabic-Indic digit three, which parse_move reads as square 3.
    text = "+1\n-1\n" + piece + "+2\n"
    assert "list" not in _chunk_kinds(text)
    assert _outcome(lambda: tuple(_iter_moves(io.StringIO(text)))) == _outcome(
        lambda: parse_moves(text)
    )
