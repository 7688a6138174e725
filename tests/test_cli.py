"""End-to-end CLI tests: output bytes, exit codes, and config handling."""

import gc
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pebblegame
from pebblegame import (
    INFINITE,
    Strategy,
    UnsolvableError,
    build_table,
    f_cost,
    iter_strategy_moves,
    synthesize,
    to_intervals,
    verify,
)
from pebblegame import dp, runs
from pebblegame import play as play_engine
from pebblegame.cli import COMMANDS, main

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cost_finite(capsys):
    code, out, _ = run(capsys, "cost", "51", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F(51,7) = 321"
    assert lines[1].startswith("m(51,7) = ")


def test_cost_infinite(capsys):
    code, out, _ = run(capsys, "cost", "65", "7")
    assert code == 2
    assert out == "F(65,7) = inf\n"


def test_cost_trivial(capsys):
    code, out, _ = run(capsys, "cost", "1", "1")
    assert code == 0
    assert out == "F(1,1) = 1\n"


def test_cost_usage_errors(capsys):
    assert run(capsys, "cost", "0", "5")[0] == 64
    assert run(capsys, "cost", "three", "5")[0] == 64
    assert run(capsys, "cost", "3")[0] == 64
    assert run(capsys, "nonsense")[0] == 64


def test_table_single_cell(capsys):
    code, out, _ = run(capsys, "table", "1", "1")
    assert code == 0
    assert out == "n S=1\n1   1\n"


def test_table_csv_matches_reference_rows(capsys):
    code, out, _ = run(capsys, "table", "100", "20", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    reference = (DATA / "reference_costs_51_100.csv").read_text().splitlines()
    assert lines[0] == reference[0]
    assert lines[51:101] == reference[1:]


@pytest.mark.parametrize("fmt,sep", [("csv", ","), ("tsv", "\t"), ("plain", None)])
def test_table_reparses_to_the_same_cells(capsys, fmt, sep):
    code, out, _ = run(capsys, "table", "20", "6", "--format", fmt)
    assert code == 0
    tables = build_table(20, 6)
    lines = out.splitlines()
    assert len(lines) == 21
    for line in lines[1:]:
        cells = line.split(sep)
        n = int(cells[0])
        for s in range(1, 7):
            assert (INFINITE if cells[s] == "inf" else int(cells[s])) == tables.f[n][s], (n, s)


def test_table_budget_exceeded(capsys):
    code, _, err = run(capsys, "table", "50", "50", "--cell-budget", "100")
    assert code == 65
    assert "cell budget" in err


def test_strategy_moves_exact(capsys):
    code, out, _ = run(capsys, "strategy", "2", "2")
    assert code == 0
    assert out == "+1\n+2\n-1\n"


def test_strategy_intervals(capsys):
    code, out, _ = run(capsys, "strategy", "1", "1", "--emit", "intervals")
    assert code == 0
    assert out == "s1: [1,)\n"


def test_strategy_with_verification(capsys):
    code, out, _ = run(capsys, "strategy", "4", "3", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[-1] == "T=9 peak=3 valid=true"


def test_strategy_intervals_with_verification(capsys):
    code, out, _ = run(capsys, "strategy", "4", "3", "--emit", "intervals", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # four squares, then the summary
    assert all(lines[i].startswith(f"s{i + 1}:") for i in range(4))
    assert lines[-1] == "T=9 peak=3 valid=true"


@pytest.mark.parametrize(
    "moves, expected",
    [
        ([1, 2, 3, 4, -3, -2, -1], (2, "T=7 peak=4 valid=false", "first violation: step 4 (budget)\n")),
        ([2], (2, "T=1 peak=0 valid=false", "first violation: step 1 (add)\n")),
    ],
    ids=["budget-overshoot", "halt"],
)
def test_strategy_verify_gives_the_verdict_of_verify(capsys, monkeypatch, moves, expected):
    # The 4-square ladder overfills S = 3 at step 4, and +2 halts the replay at step 1:
    # verify and strategy's replay, in both emit modes, give the one verdict.  Without
    # --verify the interval view is printed (up to a halt) and strategy exits 0.
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{v:+d}\n" for v in moves)))
    code, summary, err = expected
    assert run(capsys, "verify", "4", "3") == (code, summary + "\n", err)
    monkeypatch.setattr(play_engine, "_emit", lambda n, s, split: iter([moves]))
    for flags in ((), ("--emit", "intervals")):
        code, out, err = run(capsys, "strategy", "4", "3", *flags, "--verify")
        assert (code, out.splitlines()[-1], err) == expected, flags
    assert run(capsys, "strategy", "4", "3", "--emit", "intervals")[::2] == (0, "")


def test_strategy_intervals_match_the_library_route(capsys):
    # The CLI replays the streamed play once, in chunks of signed squares; the
    # library materializes the moves and replays them for each view.
    for n in range(1, 25):
        for s in range((n - 1).bit_length() + 1, 7):
            play = synthesize(n, s)
            report = verify(play, s)
            summary = f"T={report.step_count} peak={report.peak_pebbles} valid=true\n"
            assert report.valid
            assert run(capsys, "strategy", str(n), str(s), "--emit", "intervals", "--verify") == (
                0, to_intervals(play).to_text() + summary, ""
            ), (n, s)
            assert run(capsys, "strategy", str(n), str(s), "--verify") == (
                0, play.to_text() + summary, ""
            ), (n, s)


def test_strategy_bytes_pinned_at_scale(capsys):
    # The text of Strategy(4096, iter_strategy_moves(4096, 13)) in test_strategy.py.
    code, out, err = run(capsys, "strategy", "4096", "13")
    assert (code, err) == (0, "")
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "3286d009b72a02dbb32540997463151b7388c77e3e2f86df006daab0f14004aa"
    )


def test_strategy_deep_play_verifies(capsys):
    code, out, err = run(capsys, "strategy", "1000", "1000", "--verify")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "T=1999 peak=1000 valid=true"


def test_ladder_beyond_the_cell_budget(capsys):
    # 5001 x 5001 cells exceed the default budget; S >= n needs none.
    assert run(capsys, "cost", "5001", "5001") == (
        0,
        "F(5001,5001) = 10001\nm(5001,5001) = 1\n",
        "",
    )
    code, out, err = run(capsys, "strategy", "5001", "5001", "--verify")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "T=10001 peak=5001 valid=true"
    assert lines[:-1] == [f"+{i}" for i in range(1, 5002)] + [f"-{i}" for i in range(5000, 0, -1)]
    code, _, err = run(capsys, "strategy", "5001", "5002", "--emit", "intervals", "--max-moves", "10000")
    assert code == 65
    assert "needs 10001 moves" in err


def test_closed_form_cells_run_no_layer(capsys, monkeypatch):
    """Unsolvable cells (n > 2**(S-1), S = 0 included) and ladder cells (S >= n) are
    answered before any layer or budget: 10**7 x 19 cells exceed the default budget."""

    def no_layers(*args):
        raise AssertionError("a cell the closed forms settle runs no layer")

    # _layers is looked up in the layer engine, which every layer pass runs through.
    monkeypatch.setattr(runs, "_layers", no_layers)
    # The controls: cells that need a layer hit the patch (delta's is F(5, 4)), on the
    # library's, the play's and the oracle's routes alike.
    controls = (
        (dp.f_cost, 4, 3),
        (dp.delta, 4, 4),
        (lambda n, s: play_engine._play_splits(n, s, None), 4, 3),
        (lambda n, s: main(["oracle", str(n), str(s)]), 8, 4),
    )
    for route, n, s in controls:
        with pytest.raises(AssertionError, match="closed forms settle runs no layer"):
            route(n, s)
    assert dp.f_cost(10**7, 19) is INFINITE
    assert dp.split_point(10**7, 19) is None
    assert dp.delta(10**7, 19) is INFINITE
    assert dp.delta(4, 3) is INFINITE  # F(5, 3) is infinite
    assert (dp.f_cost(3, 0), dp.split_point(3, 0)) == (INFINITE, None)
    assert (dp.f_cost(5001, 5001), dp.split_point(5001, 5001)) == (10001, 1)
    assert dp.delta(10**6, 10**6 + 1) == 2
    assert run(capsys, "cost", "10000000", "19") == (2, "F(10000000,19) = inf\n", "")
    # The oracle's dp side is the same route: an unsolvable cell past the budget is searched.
    assert run(capsys, "oracle", "8", "3", "--cell-budget", "1") == (2, "bfs=inf dp=inf agree\n", "")
    assert run(capsys, "oracle", "18", "3") == (2, "bfs=inf dp=inf agree\n", "")
    # The play's splits are the same route: no split is asked of an unsolvable cell or a ladder.
    err = "unsolvable: n=10000000 needs more than S=19 pebbles (limit is n <= 2**(S-1))\n"
    assert run(capsys, "strategy", "10000000", "19") == (2, "", err)
    code, out, err = run(capsys, "strategy", "5001", "5001", "--verify")
    assert (code, out.splitlines()[-1], err) == (0, "T=10001 peak=5001 valid=true", "")


def test_strategy_unsolvable(capsys):
    code, out, err = run(capsys, "strategy", "5", "3")
    assert code == 2
    assert out == ""
    assert "unsolvable" in err


@pytest.mark.parametrize("flags", [(), ("--verify",), ("--emit", "intervals")])
def test_strategy_unsolvable_message_pinned(capsys, flags):
    # As cmd_strategy wrote it itself before it raised UnsolvableError.
    err = "unsolvable: n=5 needs more than S=3 pebbles (limit is n <= 2**(S-1))\n"
    assert run(capsys, "strategy", "5", "3", *flags) == (2, "", err)


@pytest.mark.parametrize("play", [synthesize, iter_strategy_moves])
def test_library_and_cli_give_one_unsolvable_message(capsys, play):
    _, _, err = run(capsys, "strategy", "5", "3")
    with pytest.raises(UnsolvableError) as raised:
        play(5, 3)
    assert err == f"unsolvable: {raised.value}\n"


def test_strategy_interval_cap(capsys):
    code, _, err = run(capsys, "strategy", "8", "4", "--emit", "intervals", "--max-moves", "10")
    assert code == 65
    assert "cap" in err


def test_strategy_interval_cap_refuses_before_any_board(capsys, monkeypatch):
    # The (2**20, 21) play has 416,523,309 moves: the cap refuses it before a replay
    # board of 2**20 + 2 slots is made.
    monkeypatch.setattr(play_engine, "ReplayChecker", None)
    with pytest.raises(TypeError, match="'NoneType' object is not callable"):
        main(["strategy", "4", "3", "--emit", "intervals"])  # the control: a board is made
    assert run(capsys, "strategy", "1048576", "21", "--emit", "intervals") == (
        65,
        "",
        "resource limit: interval view needs 416523309 moves materialized; cap is 2000000 "
        "(the moves format streams instead)\n",
    )


def test_strategy_moves_stream_despite_cap(capsys):
    code, out, _ = run(capsys, "strategy", "8", "4", "--max-moves", "10")
    assert code == 0
    assert len(out.splitlines()) == 25


def test_verify_round_trip(capsys, tmp_path):
    from pebblegame import is_solvable

    pairs = [(n, s) for n in range(1, 17) for s in range(1, 7) if is_solvable(n, s)]
    pairs += [(64, 7), (64, 12), (33, 7)]
    for n, s in pairs:
        code, out, _ = run(capsys, "strategy", str(n), str(s))
        assert code == 0
        moves_file = tmp_path / f"moves_{n}_{s}.txt"
        moves_file.write_text(out)
        code, summary, _ = run(capsys, "verify", str(n), str(s), str(moves_file))
        assert code == 0
        expected = f_cost(n, s)
        assert summary.startswith(f"T={expected} ")
        assert summary.strip().endswith("valid=true")


def test_verify_invalid_sequence(capsys, tmp_path):
    moves_file = tmp_path / "bad.txt"
    moves_file.write_text("+2\n")
    code, out, err = run(capsys, "verify", "2", "2", str(moves_file))
    assert code == 2
    assert out == "T=1 peak=0 valid=false\n"
    assert "step 1 (add)" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "2", "2", "/nonexistent/moves.txt")
    assert code == 64
    assert "cannot read" in err


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("+1\n"))
    code, out, _ = run(capsys, "verify", "1", "1")
    assert code == 0
    assert out == "T=1 peak=1 valid=true\n"


class _ChunkOnlyStdin:
    """A stdin that allows only ``read(size)``, like the benchmark's tracing proxy."""

    def __init__(self, text):
        self._buffer = io.StringIO(text)

    def read(self, size=-1):
        assert size is not None and size >= 0, "verify read its whole input at once"
        return self._buffer.read(size)

    def __iter__(self):
        raise AssertionError("verify iterated over stdin")


def test_verify_streams_stdin_in_chunks(capsys, monkeypatch):
    moves = Strategy(1024, iter_strategy_moves(1024, 11)).to_text()
    assert len(moves) > 2 * 2**16  # several reads at the parser's chunk size
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin(moves))
    code, out, err = run(capsys, "verify", "1024", "11")
    assert (code, err) == (0, "")
    assert out == f"T={f_cost(1024, 11)} peak=11 valid=true\n"


def test_verify_out_of_board_after_a_halt(capsys, monkeypatch):
    # "+2" halts the replay (add rule); "+9" is still rejected as input.
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin("+2\n+9\n"))
    code, out, err = run(capsys, "verify", "2", "2")
    assert (code, out) == (64, "")
    assert err == "error: move +9 references a square outside the 2-square board\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # The square off the board is in a plain chunk of 2**16 characters, the
        # malformed line in a later chunk.
        (
            "+1\n+5\n" + "+1\n" * 30000 + "zz\n",
            "move +5 references a square outside the 2-square board",
        ),
        # More than one chunk of plain moves, then a malformed line.
        ("+1\n-1\n" * 12000 + "zz\n", "malformed move 'zz'; expected +<i> or -<i>"),
        # One chunk that is not plain: each line is applied before the next is parsed.
        ("+1\n+5\nzz\n+1\n", "move +5 references a square outside the 2-square board"),
    ],
    ids=["off-board-then-malformed", "malformed-after-a-chunk", "one-chunk"],
)
def test_verify_reports_errors_in_input_order(capsys, monkeypatch, text, message):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin(text))
    assert run(capsys, "verify", "2", "2") == (64, "", f"error: {message}\n")


def _verify_peak(capsys, path, text):
    """Exit code and tracemalloc peak of ``verify 2 2`` on ``text`` read from a file."""
    path.write_text(text)
    tracemalloc.start()
    try:
        code = main(["verify", "2", "2", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return code, peak


def test_verify_memory_is_bounded_on_plays_with_wasted_intervals(capsys, tmp_path):
    # 100,002 moves each: in the first, every "-1 +1" after the first closes an
    # interval of square 1 nested in square 2's, wasted work that verify keeps no record of.
    nested = _verify_peak(capsys, tmp_path / "nested.txt", "+1\n+2\n" + "-1\n+1\n" * 50000)
    flat = _verify_peak(capsys, tmp_path / "flat.txt", "+1\n-1\n" * 50001)
    assert (nested[0], flat[0]) == (2, 2)
    assert nested[1] < flat[1] + (1 << 20), (nested[1], flat[1])


def test_verify_reads_decimal_digits_only(capsys, monkeypatch):
    # "²" is a digit to str.isdigit, but int() cannot read it; "١" is a
    # decimal digit (Arabic-Indic one), which int() reads as 1.
    monkeypatch.setattr("sys.stdin", io.StringIO("+²\n"))
    assert run(capsys, "verify", "4", "3") == (
        64, "", "error: malformed move '+²'; expected +<i> or -<i>\n"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("+١\n"))
    assert run(capsys, "verify", "1", "1") == (0, "T=1 peak=1 valid=true\n", "")


LONG_SQUARE = "+" + "1" * 5000  # more digits than int() reads by default


@pytest.mark.parametrize(
    "text",
    [
        # Every line a sign and digits, "\n" ended: a plain block, which int() refuses
        # at the long square, so it is parsed line by line.
        "+1\n-1\n" + LONG_SQUARE + "\n",
        # A plain block with a "\r\n" line, then the long square with no line break,
        # held to the end and parsed by parse_move.
        "+1\r\n-1\n" + LONG_SQUARE,
    ],
    ids=["plain-lines", "line-by-line"],
)
def test_verify_refuses_a_square_too_long_to_read(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin(text))
    code, out, err = run(capsys, "verify", "3", "3")
    assert (code, out) == (64, "")
    assert err == f"error: move {LONG_SQUARE[:40]!r}... references a square outside the board\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("digits", [600, 4000], ids=["plain-lines", "plain-lines-of-4000-digits"])
def test_verify_cuts_the_quote_of_an_off_board_square(capsys, monkeypatch, digits):
    # int() reads both squares, each in a plain chunk.
    square = "+" + "1" * digits
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin(f"+1\n-1\n{square}\n"))
    code, out, err = run(capsys, "verify", "3", "3")
    assert (code, out) == (64, "")
    assert err == f"error: move {square[:40]}... references a square outside the 3-square board\n"
    assert len(err.encode()) < 200


def test_verify_refuses_a_closed_stdin(capsys, monkeypatch):
    # A process started with stdin closed (`<&-`) has sys.stdin None.
    monkeypatch.setattr("sys.stdin", None)
    assert run(capsys, "verify", "3", "3") == (
        64, "", "error: cannot read moves from stdin: it is closed\n"
    )


CLOSED_STDOUT_CASES = [
    ("table", "10", "4"),
    ("strategy", "4", "3"),
    ("strategy", "4", "3", "--verify"),
    ("strategy", "4", "3", "--emit", "intervals"),
    ("bounds", "5"),
    ("oracle", "4", "3", "--path"),
    ("--help",),
    ("cost", "51", "7"),
    ("tsmin", "64"),
    ("fgamma", "8"),
    ("verify", "2", "2"),
]


def test_closed_stdout_cases_cover_every_command():
    assert {argv[0] for argv in CLOSED_STDOUT_CASES} >= set(COMMANDS)


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CASES, ids=" ".join)
def test_closed_stdout_keeps_the_exit_code_and_stderr(capsys, monkeypatch, argv):
    # A process started with stdout closed (`>&-`) has sys.stdout None: it exits
    # as with stdout on /dev/null.  verify reads a valid play from stdin.
    monkeypatch.setattr("sys.stdin", io.StringIO("+1\n+2\n-1\n"))
    code, _, err = run(capsys, *argv)
    monkeypatch.setattr("sys.stdin", io.StringIO("+1\n+2\n-1\n"))
    monkeypatch.setattr("sys.stdout", None)
    assert (main(list(argv)), capsys.readouterr().err) == (code, err)


def test_verify_board_is_not_sized_by_n(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin("+1\n+2\n-1\n"))
    assert run(capsys, "verify", "1000000000000", "3") == (
        2, "T=3 peak=2 valid=false\n", "first violation: step 3 (final)\n"
    )


def test_verify_empty_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin(""))
    code, out, err = run(capsys, "verify", "3", "2")
    assert (code, out) == (2, "T=0 peak=0 valid=false\n")
    assert err == "first violation: step 0 (final)\n"


@pytest.mark.parametrize("command", ["cost", "strategy", "oracle", "verify"])
def test_negative_budget_is_a_usage_error(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin("+1\n"))
    assert run(capsys, command, "3", "-1") == (
        64, "", "error: S must be an integer >= 0, got -1\n"
    )


def test_verify_checks_the_board_size_first(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin("+1\n"))
    assert run(capsys, "verify", "0", "-1") == (64, "", "error: board size must be >= 1, got 0\n")


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", "8", "4")
    assert code == 0
    assert out == "bfs=25 dp=25 agree\n"


def test_oracle_infinite(capsys):
    code, out, _ = run(capsys, "oracle", "2", "1")
    assert code == 2
    assert out == "bfs=inf dp=inf agree\n"


def test_oracle_trivial(capsys):
    code, out, _ = run(capsys, "oracle", "1", "1")
    assert code == 0
    assert out == "bfs=1 dp=1 agree\n"


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    from pebblegame import oracle

    monkeypatch.setattr(oracle, "bfs_min_time", lambda n, s: 24)
    assert run(capsys, "oracle", "8", "4") == (1, "bfs=24 dp=25 disagree\n", "")


def test_oracle_refuses_the_cell_budget_before_it_searches(capsys, monkeypatch):
    from pebblegame import oracle

    def no_search(n, s):
        raise AssertionError("a refused query searches no board")

    monkeypatch.setattr(oracle, "bfs_min_time", no_search)
    monkeypatch.setattr(oracle, "bfs_path", no_search)
    refusal = "resource limit: table of 240 cells exceeds the cell budget (10)\n"
    for path in ((), ("--path",)):
        assert run(capsys, "oracle", "20", "12", "--cell-budget", "10", *path) == (65, "", refusal)
    # The n > 20 cap is checked before the budget.
    code, out, err = run(capsys, "oracle", "21", "5", "--cell-budget", "1")
    assert (code, out) == (65, "")
    assert err == (
        "resource limit: oracle search is capped at n <= 20 (state space 2**n); got n=21\n"
    )


def test_oracle_size_guard(capsys):
    code, _, err = run(capsys, "oracle", "25", "5")
    assert code == 65
    assert "capped" in err


def test_oracle_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "4", "3", "--path")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bfs=9 dp=9 agree"
    assert len(lines) == 10
    moves_file = tmp_path / "witness.txt"
    moves_file.write_text("\n".join(lines[1:]) + "\n")
    code, summary, _ = run(capsys, "verify", "4", "3", str(moves_file))
    assert code == 0
    assert summary == "T=9 peak=3 valid=true\n"


def test_bounds_row_values(capsys):
    code, out, _ = run(capsys, "bounds", "2", "--kmax", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    cells = lines[1].split()
    assert cells[0] == "1"  # k
    assert cells[1] == "2"  # x_lower
    assert cells[2] == "2"  # x
    assert cells[3] == "2"  # x_upper


def test_bounds_sandwich_passes(capsys):
    code, out, _ = run(capsys, "bounds", "5", "--kmax", "4")
    assert code == 0
    for line in out.splitlines()[1:]:
        cells = line.split()
        assert int(cells[1]) <= int(cells[2]) <= int(cells[3]), line
        assert cells[6] == "ok"  # F at the lower point within its bound


def test_bounds_usage(capsys):
    assert run(capsys, "bounds", "1")[0] == 64
    assert run(capsys, "bounds", "5", "--kmax", "9")[0] == 64


@pytest.mark.parametrize("flags", [(), ("--cell-budget", "100000000000")])
def test_bounds_checks_its_sums_before_any_layer(capsys, monkeypatch, flags):
    # From S = 24 on, f_bound_upper_sum(S-2, S) is over the 64-bit cap, so the
    # default --kmax can never answer: no layer is merged to find that out.
    def no_layer(*args):
        raise AssertionError("bounds merged a layer")

    monkeypatch.setattr(runs, "_last_layer", no_layer)
    with pytest.raises(AssertionError, match="bounds merged a layer"):
        main(["bounds", "5", *flags])  # the control: sums within the cap merge a layer
    assert run(capsys, "bounds", "24", *flags) == (
        65, "", "resource limit: f_bound_upper_sum(k=22, S=24) exceeds the 64-bit cap\n"
    )


def test_tsmin_small(capsys):
    code, out, _ = run(capsys, "tsmin", "4")
    assert code == 0
    assert out.startswith("S=3 F=9 TS=27 ratio=")


def test_tsmin_trivial(capsys):
    code, out, _ = run(capsys, "tsmin", "1")
    assert code == 0
    assert out == "S=1 F=1 TS=1\n"


def test_tsmin_budget_bounds_the_certifying_cells(capsys):
    # S=21 certifies the minimum: 64 x 21 = 1344 cells (tables doubled from S=16 need 64 x 32).
    assert run(capsys, "tsmin", "64", "--cell-budget", "2000") == (
        0, "S=11 F=249 TS=2739 ratio=1.1062\n", ""
    )


def test_tsmin_over_budget_fails_fast(capsys):
    code, out, err = run(capsys, "tsmin", "2000", "--cell-budget", "20000")
    assert (code, out) == (65, "")
    assert "needs at least 24000 cells" in err  # 2000 squares x the least solvable S=12
    assert "the cell budget is 20000" in err


def test_tsmin_usage(capsys):
    code, out, err = run(capsys, "tsmin", "0")
    assert (code, out) == (64, "")
    assert "n must be an integer >= 1" in err


def test_fgamma_report(capsys):
    code, out, _ = run(capsys, "fgamma", "8", "--points", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma H n f gap"
    assert len(lines) == 11


def test_fgamma_usage(capsys):
    assert run(capsys, "fgamma", "0") == (64, "", "error: fgamma needs S >= 1\n")


def test_fgamma_points_up_to_the_materialization_cap(capsys):
    code, out, err = run(capsys, "fgamma", "8", "--points", "10", "--max-moves", "10")
    assert (code, len(out.splitlines()), err) == (0, 11, "")
    assert run(capsys, "fgamma", "8", "--points", "11", "--max-moves", "10") == (
        65, "", "resource limit: gamma grid needs 11 points materialized; cap is 10\n"
    )


@pytest.mark.parametrize("argv", [("fgamma", "1024"), ("fgamma", "1100", "--points", "1")])
def test_fgamma_board_beyond_float_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err.startswith("resource limit: ") and "beyond float range" in err


def test_fgamma_names_the_least_gamma_past_float_range(capsys):
    # Boards past float range are the top of the grid; the message names the
    # lowest of them, gamma = 0.36 of 25 points at S = 1100, not gamma = 1/2.
    assert run(capsys, "fgamma", "1100") == (
        65,
        "",
        "resource limit: board size 2**(0.9426831892554922*S) at S=1100 is beyond float range\n",
    )


def test_fgamma_finds_its_largest_board_from_the_top(capsys, monkeypatch):
    """Each grid point's entropy is worked out once for the rows, and once more
    only for the unsolvable boards at the top and the first solvable one below."""
    from pebblegame import analysis

    calls = []
    entropy = analysis.entropy
    monkeypatch.setattr(analysis, "entropy", lambda gamma: calls.append(gamma) or entropy(gamma))
    code, out, err = run(capsys, "fgamma", "10", "--points", "1000")
    unsolvable = sum(line.endswith(" - -") for line in out.splitlines())
    assert (code, err, unsolvable) == (0, "", 368)
    assert len(calls) == 1000 + unsolvable + 1 == 1369


def test_fgamma_checks_that_board_sizes_rise(capsys, monkeypatch):
    # A grid whose top board is 1 finds nmax = 1, so a solvable board above it
    # would print as "-": the row loop refuses it.
    from pebblegame import analysis

    board_size = analysis._board_size
    monkeypatch.setattr(analysis, "_board_size", lambda h, s: 1 if h == 1.0 else board_size(h, s))
    with pytest.raises(ArithmeticError, match=r"^board 4 is solvable past nmax=1: sizes fall$"):
        main(["fgamma", "8", "--points", "10"])


def test_identical_runs_are_byte_identical(capsys):
    first = run(capsys, "table", "30", "8", "--format", "csv")
    second = run(capsys, "table", "30", "8", "--format", "csv")
    assert first == second


def test_config_file_sets_limits(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("# limits\nmaterialization_cap=5\n")
    monkeypatch.setenv("PEBBLEGAME_CONFIG", str(cfg))
    code, _, err = run(capsys, "strategy", "8", "4", "--emit", "intervals")
    assert code == 65
    assert "cap" in err
    # flag overrides the file
    code, out, _ = run(capsys, "strategy", "8", "4", "--emit", "intervals", "--max-moves", "100")
    assert code == 0
    assert out.splitlines()[0].startswith("s1:")


def test_config_file_unknown_key(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("cells=12\n")
    monkeypatch.setenv("PEBBLEGAME_CONFIG", str(cfg))
    code, _, err = run(capsys, "cost", "2", "2")
    assert code == 64
    assert "unknown key" in err


@pytest.mark.parametrize(
    "text, err",
    [
        ("# limits\ncell_budget 5\n", "config line 2: expected key=value, got 'cell_budget 5'"),
        (
            "cell_budget=5\nmaterialization_cap = 1e6\n",
            "config line 2: materialization_cap must be an integer",
        ),
    ],
)
def test_config_file_malformed_line(capsys, tmp_path, monkeypatch, text, err):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(text)
    monkeypatch.setenv("PEBBLEGAME_CONFIG", str(cfg))
    assert run(capsys, "cost", "2", "2") == (64, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("cost", "10", "4", "--cell-budget", "0"), "cell_budget", 0),
        (("cost", "10", "4", "--cell-budget", "-3"), "cell_budget", -3),
        (("strategy", "8", "4", "--emit", "intervals", "--max-moves", "-1"), "materialization_cap", -1),
    ],
)
def test_limit_flags_must_be_positive(capsys, argv, key, value):
    assert run(capsys, *argv) == (64, "", f"error: {key} must be positive, got {value}\n")


@pytest.mark.parametrize("flags", [(), ("--max-moves", "9")])
def test_config_file_limits_must_be_positive(capsys, tmp_path, monkeypatch, flags):
    # A value the flag overrides is still checked.
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("materialization_cap=0\n")
    monkeypatch.setenv("PEBBLEGAME_CONFIG", str(cfg))
    code, out, err = run(capsys, "cost", "2", "2", *flags)
    assert (code, out) == (64, "")
    assert err.endswith(": materialization_cap must be positive, got 0\n")


def test_config_file_missing(capsys, monkeypatch):
    monkeypatch.setenv("PEBBLEGAME_CONFIG", "/nonexistent/limits.cfg")
    code, _, err = run(capsys, "cost", "2", "2")
    assert code == 64
    assert "config" in err


# SHA-256 of stdout, with exit code 0 and empty stderr, as the per-cell layer
# pass wrote them before layers became slope runs.
PINNED_DIGESTS = [
    (("table", "2000", "16", "--format", "csv"),
     "4f38c79188bf3024cb08f193980665a582f33c2096c4ac8a63b8778009e11ee1"),
    (("table", "300", "12"),
     "726cc9915efcf5b54323d5af413958a143adbe947e4a2093cf0d3d49be3de73f"),
    (("bounds", "17"),
     "9afd568d6cfd78daf8ee4275aaf43d60c4bd412f022f090ae635a90648837340"),
    (("bounds", "12", "--kmax", "5"),
     "277c5bae550dabdb83560bd164a82caac5f55eaabc130f10d7c4c4b77ee81c7d"),
    (("fgamma", "18"),
     "1477f3b0cf24033484e418b9d0fa71aeab2ad30a044f62fb19b6d0ec902e2d36"),
    (("fgamma", "9", "--points", "7"),
     "24c9c11282b48fcb78de1ab0ea666dcc02a16420baa6bef03daa9da180200fae"),
    (("tsmin", "20000"),
     "fc8ccfca23fa34a3649b970df38380088a41d59499fdd1a01ea4d1589da2fee2"),
    # Tables as the rendering of a whole built table wrote them.  Plain: the
    # width of column S=8 of `table 200 9` is set by F(128, 8), above its
    # "inf" padding; the columns of `table 9 12` are as wide as their
    # headers; `table 4097 14` spans three blocks of rows.
    (("table", "4097", "14"),
     "33a572f5baa5f04b3d7778756565ca0050f09e242638d765129657efe6e45f08"),
    (("table", "200", "9"),
     "ef640dc4d7584c51009f980cb5fea2094aee933ae542b157a425fdaf7d31edee"),
    (("table", "9", "12"),
     "76ec68cdc1059306834c1a4404e7e814001d6538bafc9b75009ba4ec3f0d1b35"),
    (("table", "1", "1"),
     "f73b60d0870bd2f9c00cb313a4acf5095db17f687dc07aa64f66266d23a0ed9e"),
    (("table", "10", "4", "--format", "tsv"),
     "3db12491503a903d7cabb300f725cdd47bfcf33ceb08a8ef26dd966b00ddf087"),
    # As the writer that formatted every cell, "inf" ones too, wrote it.
    (("table", "70000", "19", "--format", "tsv"),
     "a4fb19d7ebb3c80f22fad454f68fa1e18c3b3665d4887eee51b7849c2d85671e"),
    # Plays as the emitter wrote them while it read its splits from a built table.
    (("strategy", "100", "8"),
     "66ac64e648daf944e1289c8f508eacd24dc04a7cdfb418209bab03b4fc5af469"),
    (("strategy", "100", "8", "--verify"),
     "78f33069aa6f396af38279e375dd94527497d8ac06afc7b02dd9b00e8de4a0c4"),
    (("strategy", "33", "7", "--emit", "intervals", "--verify"),
     "1bbe704245f1d51e93663cb87712012a4919cef97502d63d3c80a034639994a2"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_DIGESTS, ids=[" ".join(argv) for argv, _ in PINNED_DIGESTS]
)
def test_outputs_pinned_by_digest(capsys, monkeypatch, argv, digest):
    def no_table(*args, **kwargs):
        raise AssertionError("no command builds a table")

    monkeypatch.setattr(dp, "build_table", no_table)
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


# Exit code and stdout SHA-256 of command lines, stdin "+1\n+2\n-1\n" and MOVES a
# file of the same text, recorded with the argparse parser the COMMANDS table
# replaced; only the last two entries differ from it.  Help text is not pinned.
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
COST_51_7 = "09dd6144a71c15d7d32400f8618cf636a8c4920d4d0771d95a97ce24ba869b2b"
TABLE_10_4 = "7ff88b6219a0345569e291b71dba5272c660ab8fedfb638b50a34d940bc8e07e"
TABLE_10_4_CSV = "97331eff8d3f3ba37cfcd6f2d84dbfdecc04c8b1e9c78325fa8d03b575a698b2"
TABLE_10_4_TSV = "3db12491503a903d7cabb300f725cdd47bfcf33ceb08a8ef26dd966b00ddf087"
STRATEGY_4_3 = "aabbc71a629a6dcd7704ee3b91e656e5564c0fed30f524b7901ffe863674e012"
STRATEGY_4_3_VERIFY = "7fc2771fd39e3dc3b0f2360a75bcfbf06339d31095a8ae47f0bdf4bace3889d1"
STRATEGY_4_3_INTERVALS_VERIFY = "2233f4af23e844eaceb7285ee82f995b90d141b0d480ba7d7b03691db119a6af"
VERIFY_2_2 = "8c61abec063a9a088609f537f5d63e6bfce6a0c4d87347aeed41ac6f2fc46d39"
ORACLE_4_3_PATH = "c43b07a478ec9a937de30ebed7695a1f8b14498944e005645101c262ec130d33"
ORACLE_UNSOLVABLE = "11621a5f66663bbd4b4af557f172d10f2e0669a66d5ae5a41481de897ba639bc"
BOUNDS_5_KMAX_2 = "8440fa240503adf71bfc8c4f003fd0a8b17c0bd9fbf8454a6bee4fe077630e5c"
TSMIN_64 = "0cc828f0720aa57108f82c9037c6899f96751ede73c02584f392dea984129711"
FGAMMA_8_POINTS_3 = "7324a2aa95c7a9ec2f21a3a0c4719ba2f30d5ea89ae1f94b3dcf785b14961766"
ARGV_CORPUS = [
    # Each command, with its options in every accepted form: a unique prefix,
    # "=", "--", options between positionals, and a repeated option.
    (("cost", "51", "7"), 0, COST_51_7),
    (("cost", "51", "7", "--cell-budget", "1000"), 0, COST_51_7),
    (("cost", "51", "7", "--cell-budget=1000"), 0, COST_51_7),
    (("cost", "51", "7", "--cell", "1000"), 0, COST_51_7),
    (("cost", "51", "7", "--cell=1000"), 0, COST_51_7),
    (("cost", "--cell-budget", "1000", "51", "7"), 0, COST_51_7),
    (("cost", "51", "--cell-budget", "1000", "7"), 0, COST_51_7),
    (("cost", "--", "51", "7"), 0, COST_51_7),
    (("cost", "51", "7", "--max-moves", "5", "--m=6"), 0, COST_51_7),
    (("cost", "51", "7", "--cell-budget", "10", "--cell-budget", "1000"), 0, COST_51_7),
    (("cost", "51", "7", "--cell-budget", "1000", "--cell-budget", "10"), 65, NO_OUTPUT),
    (("table", "10", "4"), 0, TABLE_10_4),
    (("table", "10", "4", "--format", "csv"), 0, TABLE_10_4_CSV),
    (("table", "10", "4", "--format=tsv"), 0, TABLE_10_4_TSV),
    (("table", "10", "4", "--f", "csv"), 0, TABLE_10_4_CSV),
    (("table", "--form=csv", "10", "4"), 0, TABLE_10_4_CSV),
    (("table", "10", "--format", "tsv", "4"), 0, TABLE_10_4_TSV),
    (("table", "10", "4", "--format", "csv", "--format", "plain"), 0, TABLE_10_4),
    (("strategy", "4", "3"), 0, STRATEGY_4_3),
    (("strategy", "4", "3", "--verify"), 0, STRATEGY_4_3_VERIFY),
    (("strategy", "4", "3", "--verif"), 0, STRATEGY_4_3_VERIFY),
    (("strategy", "4", "--verify", "3"), 0, STRATEGY_4_3_VERIFY),
    (("strategy", "--emit", "intervals", "4", "3"), 0,
     "c629d906a1c5635b14e0b7b419ae6e394d3146bb862a94e9de4c4ccf6421751d"),
    (("strategy", "4", "3", "--emit=intervals", "--verify"), 0, STRATEGY_4_3_INTERVALS_VERIFY),
    (("strategy", "4", "3", "--e", "intervals", "--ver"), 0, STRATEGY_4_3_INTERVALS_VERIFY),
    (("strategy", "4", "3", "--verify", "--verify"), 0, STRATEGY_4_3_VERIFY),
    (("strategy", "4", "3", "--emit", "intervals", "--emit", "moves"), 0, STRATEGY_4_3),
    (("strategy", "8", "4", "--emit", "intervals", "--max-moves", "10"), 65, NO_OUTPUT),
    (("strategy", "8", "4", "--emit", "intervals", "--max", "100"), 0,
     "ef4c1bb0ee700bcbc13cb634ac02955352a637cfda00a495ca00d62a91b87615"),
    (("verify", "2", "2"), 0, VERIFY_2_2),
    (("verify", "2", "2", "-"), 0, VERIFY_2_2),
    (("verify", "2", "2", "MOVES"), 0, VERIFY_2_2),
    (("verify", "--", "2", "2", "-"), 0, VERIFY_2_2),
    (("verify", "2", "--cell", "100", "2", "-"), 0, VERIFY_2_2),
    (("verify", "--cell-budget=100", "2", "2"), 0, VERIFY_2_2),
    (("verify", "2", "1", "-"), 2,
     "38d6be9e1b9a0b98c1f08388aa2bb30f9605c737a7dfb573f1157ab67f236d61"),
    (("oracle", "4", "3"), 0, "88d2ed11954fcc86d63a9beabda68a27619f3f1e1f8a1494c09b7bc97ec72947"),
    (("oracle", "4", "3", "--path"), 0, ORACLE_4_3_PATH),
    (("oracle", "4", "3", "--pa"), 0, ORACLE_4_3_PATH),
    (("oracle", "--path", "4", "3"), 0, ORACLE_4_3_PATH),
    (("oracle", "2", "1", "--path"), 2, ORACLE_UNSOLVABLE),
    # Recorded while --path searched twice, once for the distance and once
    # for the witness; now the witness's length is the distance.
    (("oracle", "12", "6", "--path"), 0,
     "3399043a1f96cf77ba6fe1fc7a0ecc9eb9b430fdce4e7c91c0202184b2bd66fc"),
    (("oracle", "9", "3", "--path"), 2, ORACLE_UNSOLVABLE),
    (("bounds", "5"), 0, "27d151dd74f61b0eca882b1647d56a8c48370cf9aa6da513d5ee31363911e986"),
    (("bounds", "5", "--kmax", "2"), 0, BOUNDS_5_KMAX_2),
    (("bounds", "5", "--kmax=2"), 0, BOUNDS_5_KMAX_2),
    (("bounds", "--k", "2", "5"), 0, BOUNDS_5_KMAX_2),
    (("bounds", "5", "--kmax", "2", "--kmax", "3"), 0,
     "919788bffae218d805da7621bc090cdd457cefbdc3a94933b04e62879b1ef284"),
    (("tsmin", "64"), 0, TSMIN_64),
    (("tsmin", "64", "--cell-budget", "2000"), 0, TSMIN_64),
    (("tsmin", "--", "64"), 0, TSMIN_64),
    (("fgamma", "8"), 0, "fabf83fe6f46650363db0a2e55e854310314b66c8571bbc322965349028931ed"),
    (("fgamma", "8", "--points", "3"), 0, FGAMMA_8_POINTS_3),
    (("fgamma", "8", "--points=3"), 0, FGAMMA_8_POINTS_3),
    (("fgamma", "--p", "3", "8"), 0, FGAMMA_8_POINTS_3),
    # Signed and underscored integers: a negative one is a value, not an option.
    (("cost", "5", "-1"), 64, NO_OUTPUT),
    (("cost", "-5", "3"), 64, NO_OUTPUT),
    (("cost", "--", "5", "-1"), 64, NO_OUTPUT),
    (("cost", "+5", "+3"), 2, "98937a6e19cc58cdb391e913b634e3a98b9908b117e8d45749bb503bbcf3904f"),
    (("cost", "5_000", "5_000"), 0,
     "099f50c722d86d5a17d8b6d4343e1906efd6108cd159eb53f7c5c42c7f40b418"),
    (("cost", "51", "7", "--cell-budget", "-3"), 64, NO_OUTPUT),
    (("cost", "51", "7", "--cell-budget", "+1_000"), 0, COST_51_7),
    (("table", "+10", "4"), 0, TABLE_10_4),
    (("tsmin", "-1"), 64, NO_OUTPUT),
    (("bounds", "5", "--kmax", "-1"), 64, NO_OUTPUT),
    (("fgamma", "8", "--points", "-2"), 64, NO_OUTPUT),
    (("verify", "+2", "2", "-"), 0, VERIFY_2_2),
    (("verify", "1", "-1", "-"), 64, NO_OUTPUT),
    # Usage errors.
    ((), 64, NO_OUTPUT),
    (("nonsense",), 64, NO_OUTPUT),
    (("cos", "1", "1"), 64, NO_OUTPUT),
    (("cost",), 64, NO_OUTPUT),
    (("cost", "3"), 64, NO_OUTPUT),
    (("cost", "3", "3", "3"), 64, NO_OUTPUT),
    (("tsmin",), 64, NO_OUTPUT),
    (("tsmin", "5", "6"), 64, NO_OUTPUT),
    (("verify", "2"), 64, NO_OUTPUT),
    (("verify", "2", "2", "-", "extra"), 64, NO_OUTPUT),
    (("cost", "three", "5"), 64, NO_OUTPUT),
    (("cost", "1.5", "5"), 64, NO_OUTPUT),
    (("cost", "5", "-1.5"), 64, NO_OUTPUT),
    (("cost", "", "5"), 64, NO_OUTPUT),
    (("cost", "51", "7", "--cell-budget"), 64, NO_OUTPUT),
    (("cost", "51", "7", "--cell-budget", "--max-moves", "5"), 64, NO_OUTPUT),
    (("cost", "51", "7", "--cell-budget="), 64, NO_OUTPUT),
    (("cost", "51", "7", "--cell-budget", "x"), 64, NO_OUTPUT),
    (("table", "10", "4", "--format"), 64, NO_OUTPUT),
    (("table", "10", "4", "--format", "json"), 64, NO_OUTPUT),
    (("table", "10", "4", "--format=CSV"), 64, NO_OUTPUT),
    (("strategy", "4", "3", "--emit", "text"), 64, NO_OUTPUT),
    (("strategy", "4", "3", "--emit"), 64, NO_OUTPUT),
    (("strategy", "4", "3", "--verify=1"), 64, NO_OUTPUT),
    (("strategy", "4", "3", "--verif=yes"), 64, NO_OUTPUT),
    (("oracle", "4", "3", "--path=1"), 64, NO_OUTPUT),
    (("cost", "51", "7", "--bogus"), 64, NO_OUTPUT),
    (("cost", "51", "7", "-x"), 64, NO_OUTPUT),
    (("strategy", "4", "3", "--", "--verify"), 64, NO_OUTPUT),
    (("table", "10", "4", "--format", "--", "csv"), 64, NO_OUTPUT),
    (("cost", "51", "7", "--kmax", "2"), 64, NO_OUTPUT),
    (("--cell-budget", "100", "cost", "1", "1"), 64, NO_OUTPUT),
    # The argparse parser refused these two and exited 64: it settled the
    # optional file as absent before the option, and took "--" for a command.
    (("verify", "2", "2", "--cell-budget", "100", "-"), 0, VERIFY_2_2),
    (("--", "cost", "51", "7"), 0, COST_51_7),
]


@pytest.mark.parametrize(
    "argv, code, digest", ARGV_CORPUS, ids=[" ".join(argv) or "(none)" for argv, _, _ in ARGV_CORPUS]
)
def test_command_line_grammar_pinned(capsys, monkeypatch, tmp_path, argv, code, digest):
    moves = tmp_path / "moves.txt"
    moves.write_text("+1\n+2\n-1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(moves.read_text()))
    argv = [str(moves) if arg == "MOVES" else arg for arg in argv]
    got, out, err = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), err
    if code == 64:  # a usage error, or a value the command itself refuses
        assert err.startswith(("usage: pebblegame", "error: ")), err


@pytest.mark.parametrize(
    "argv, command",
    [
        (("-h",), None),
        (("--he",), None),
        (("-h", "cost"), None),
        (("cost", "-h"), "cost"),
        (("strategy", "4", "3", "--help"), "strategy"),
        (("table", "--h"), "table"),
        # Help wins over what the parse has not yet refused.
        (("cost", "1", "1", "1", "-h"), "cost"),
        (("cost", "--bogus", "-h"), "cost"),
        (("verify", "2", "2", "-", "-h"), "verify"),
    ],
)
def test_help_comes_from_the_command_table(capsys, argv, command):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if command is None:
        assert out.startswith("usage: pebblegame [-h] {cost,table,strategy,")
        assert all(f"\n  {name} " in out for name in COMMANDS)
    else:
        assert out.startswith(f"usage: pebblegame {command} [-h] [--cell-budget N] [--max-moves N]")
        assert all(name in out for name in COMMANDS[command][3])


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ("tsmin", "20000", "--cell-budget", "2000000"),
            "resource limit: tsmin(20000) needs at least 2020000 cells to certify its "
            "minimum; the cell budget is 2000000\n",
        ),
        (
            ("fgamma", "18", "--cell-budget", "10"),
            "resource limit: table of 2308014 cells exceeds the cell budget (10)\n",
        ),
        # Neither command fills a table, but the budget still counts its cells.
        (
            ("table", "50", "50", "--format", "csv", "--cell-budget", "2499"),
            "resource limit: table of 2500 cells exceeds the cell budget (2499)\n",
        ),
        (
            ("strategy", "100", "8", "--verify", "--cell-budget", "799"),
            "resource limit: table of 800 cells exceeds the cell budget (799)\n",
        ),
        # Every bound sum of S = 23 fits, so the layer's cells are priced.
        (
            ("bounds", "23"),
            "resource limit: table of 96469015 cells exceeds the cell budget (25000000)\n",
        ),
    ],
)
def test_limit_messages_pinned(capsys, argv, err):
    assert run(capsys, *argv) == (65, "", err)


# Runs the CLI on the arguments after ``-c``, then writes its exit code and its
# own peak RSS (VmHWM, in kB) to stderr.  A cut pipe ends the run as it would
# at a shell's ``| head``.
HWM_PROBE = """\
import os, sys
from pebblegame.cli import main
code = main(sys.argv[1:])
try:
    sys.stdout.flush()
except BrokenPipeError:
    pass
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
sys.stderr.write(f"exit={code} hwm_kb={hwm}\\n")
sys.stderr.flush()
os._exit(0)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "argv, lines, cut, bound_mb",
    [
        (("table", "100000", "24", "--format", "csv"), 100_001, False, 40),
        # 8 million cells, written a bounded block of them at a time.
        (("table", "2048", "4000", "--format", "csv"), 2_049, False, 40),
        (("strategy", "1048576", "21"), 1_000_000, True, 40),
        (("strategy", "16384", "15", "--verify"), 1_320_764, False, 40),
        (("strategy", "1048576", "21", "--verify"), 1_000_000, True, 40),
        # One list slot, and one step number, per square of the ladder's board.
        (("strategy", "2000000", "2000000", "--verify"), 4_000_000, False, 128),
        # A point query holds one layer, the last of its pass (46 MB with all 200).
        (("cost", "10000000000", "200", "--cell-budget", "10000000000000"), 2, False, 35),
    ],
    ids=[
        "table 100000 24 --format csv",
        "table 2048 4000 --format csv",
        "strategy 1048576 21 | head -1000000",
        "strategy 16384 15 --verify",
        "strategy 1048576 21 --verify | head -1000000",
        "strategy 2000000 2000000 --verify",
        "cost 10000000000 200 --cell-budget 10000000000000",
    ],
)
def test_peak_memory_of_large_runs(argv, lines, cut, bound_mb):
    # A cut run is read for its first `lines` lines, a whole one to its end, which
    # has `lines` lines.  VmHWM is the child's own peak; ru_maxrss of a child
    # started by subprocess can carry the parent's high-water mark.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-c", HWM_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        read = 0
        while (not cut or read < lines) and (block := child.stdout.read(1 << 16)):
            read += block.count(b"\n")
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == 0, err
    assert read >= lines if cut else read == lines
    summary = err.splitlines()[-1]
    code, hwm_kb = (int(field.split("=")[1]) for field in summary.split())
    assert code == 0, err
    assert hwm_kb < bound_mb * 1024, summary


@pytest.mark.parametrize("past", [0, 1], ids=["at-the-bound", "one-past"])
def test_plays_at_the_line_table_bound(capsys, monkeypatch, past):
    # Written through the table at the bound and with "%" past it, read back by the
    # table or by int(): the same bytes, reports and errors.
    n = play_engine.LINE_SQUARES + past
    code, out, err = run(capsys, "strategy", str(n), str(n), "--verify")
    text = play_engine._format_signed([*range(1, n + 1), *range(1 - n, 0)])
    assert (code, out, err) == (0, text + f"T={2 * n - 1} peak={n} valid=true\n", "")
    lines = text.splitlines(keepends=True)
    # Line n + 9 lifts square n - 10; lifting it twice halts at step n + 11, mid-chunk.
    for inserted, expected in [
        ([], (0, f"T={2 * n - 1} peak={n} valid=true\n", "")),
        ([lines[n + 9]], (2, f"T={2 * n} peak={n} valid=false\n",
                          f"first violation: step {n + 11} (occupancy)\n")),
        ([f"+{n + 1}\n"], (64, "", f"error: move +{n + 1} references a square outside "
                                  f"the {n}-square board\n")),
    ]:
        given = "".join(lines[:n + 10] + inserted + lines[n + 10:])
        monkeypatch.setattr("sys.stdin", io.StringIO(given))
        assert run(capsys, "verify", str(n), str(n)) == expected


def test_main_in_process_freezes_no_objects(capsys, monkeypatch):
    # Only the program (argv None) freezes its start-up heap out of the collector.
    # The program ends the process by os._exit, which here raises SystemExit instead.
    def exit_(code):
        raise SystemExit(code)

    before = gc.get_freeze_count()
    assert run(capsys, "cost", "51", "7")[0] == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr("sys.argv", ["pebblegame", "cost", "51", "7"])
    monkeypatch.setattr("os._exit", exit_)
    try:
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 0
        assert capsys.readouterr().out == "F(51,7) = 321\nm(51,7) = 20\n"
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()


# The program as the console script and the benchmark run it: main() reads
# sys.argv and ends the process by os._exit, with no interpreter teardown.
PROGRAM = "import sys; from pebblegame.cli import main; sys.exit(main())"
COST_HELP = """\
usage: pebblegame cost [-h] [--cell-budget N] [--max-moves N] n S

minimum move count F(n,S)

  --cell-budget N  max table cells (overrides config file)
  --max-moves N    materialization cap (overrides config file)
"""


def run_program(argv, stdin="", shell=None, lines=None):
    """(exit code, stdout, stderr) of the program in a fresh interpreter, its stdout
    a pipe, block-buffered.  ``shell`` wraps the command (``$@``) in a sh line;
    ``lines`` reads that many lines of stdout, then closes it, as ``| head`` does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    command = [sys.executable, "-c", PROGRAM, *argv]
    if shell is not None:
        command = ["sh", "-c", shell, "sh", *command]
    with subprocess.Popen(command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        if lines is None:
            out, err = child.communicate(stdin, timeout=60)
        else:
            child.stdin.close()
            out = "".join(child.stdout.readline() for _ in range(lines))
            child.stdout.close()
            err = child.stderr.read()
        return child.wait(timeout=60), out, err


@pytest.mark.parametrize(
    "argv, stdin, shell, lines, expected",
    [
        (("cost", "51", "7"), "", None, None, (0, "F(51,7) = 321\nm(51,7) = 20\n", "")),
        # The 4-square ladder with 3 pebbles: its fourth move is over the budget.
        (("verify", "4", "3"), "+1\n+2\n+3\n+4\n-3\n-2\n-1\n", None, None,
         (2, "T=7 peak=4 valid=false\n", "first violation: step 4 (budget)\n")),
        # Cut after one line, as `| head -n 1` cuts it: the rest goes to /dev/null.
        (("strategy", "1048576", "21"), "", None, 1, (0, "+1\n", "")),
        # Cut before the answer is flushed at exit: the handler's exit code, and no
        # "Exception ignored ... BrokenPipeError" (exit 120) from interpreter teardown.
        (("cost", "65", "7"), "", None, 0, (2, "", "")),
        # Stdout closed: the answer goes nowhere, the exit code stays the handler's.
        (("cost", "10", "3"), "", '"$@" >&-', None, (2, "", "")),
        (("cost", "1"), "", None, None, (64, "", COST_HELP.partition("\n")[0] + "\n"
         "pebblegame cost: error: the following arguments are required: S\n")),
        (("cost", "-h"), "", None, None, (0, COST_HELP, "")),
    ],
    ids=["cost", "verify-invalid", "strategy-cut", "cost-cut", "cost-stdout-closed", "usage-error",
         "help"],
)
def test_program_flushes_before_it_exits(argv, stdin, shell, lines, expected):
    assert run_program(argv, stdin, shell, lines) == expected


def readme_examples():
    """(command, output) of each ``$ pebblegame ...`` example under README "Command line"."""
    section = README.read_text().partition("## Command line")[2]
    block = section.partition("```sh\n")[2].partition("```")[0]
    for example in block.strip().split("\n\n"):
        command, *output = example.splitlines()
        yield command.removeprefix("$ "), "".join(line + "\n" for line in output)


@pytest.mark.parametrize(
    "command, expected", [pytest.param(*example, id=example[0]) for example in readme_examples()]
)
def test_readme_examples_run_as_shown(capsys, monkeypatch, command, expected):
    out = None
    for stage in command.split(" | "):
        program, *argv = stage.split()
        if stage == "tail -1":
            out = out.splitlines(keepends=True)[-1]
            continue
        assert program == "pebblegame", stage
        if out is not None:  # the pipe: the last stage's stdout is this one's stdin
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), stage
    assert out == expected


def test_readme_tour_min_ts_auto():
    line = next(line for line in README.read_text().splitlines() if "pg.min_ts_auto(" in line)
    assert line.split("#")[1].strip() == "TsRecord(best_s=19, product=142595, ...)"
    record = pebblegame.min_ts_auto(int(line.partition("(")[2].partition(")")[0]))
    assert (record.best_s, record.product) == (19, 142595)
