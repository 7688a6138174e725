"""End-to-end CLI tests: output bytes, exit codes, and config handling."""

import io
from pathlib import Path

import pytest

from pebblegame import (
    INFINITE,
    build_table,
    f_cost,
    format_moves,
    iter_strategy_moves,
    parse_cost,
    synthesize,
    to_intervals,
    verify,
)
from pebblegame.cli import main

DATA = Path(__file__).parent / "data"


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
            assert parse_cost(cells[s]) == tables.f[n][s], (n, s)


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


def test_strategy_intervals_match_the_library_route(capsys):
    # The CLI replays the streamed play once; the library materializes and replays twice.
    for n in range(1, 25):
        for s in range((n - 1).bit_length() + 1, 7):
            play = synthesize(n, s)
            report = verify(play, s)
            expected = to_intervals(play).to_text() + (
                f"T={report.step_count} peak={report.peak_pebbles} valid=true\n"
            )
            assert report.valid
            assert run(capsys, "strategy", str(n), str(s), "--emit", "intervals", "--verify") == (
                0, expected, ""
            ), (n, s)


def test_strategy_deep_play_verifies(capsys):
    code, out, err = run(capsys, "strategy", "1000", "1000", "--verify")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "T=1999 peak=1000 valid=true"


def test_strategy_unsolvable(capsys):
    code, out, err = run(capsys, "strategy", "5", "3")
    assert code == 2
    assert out == ""
    assert "unsolvable" in err


def test_strategy_interval_cap(capsys):
    code, _, err = run(capsys, "strategy", "8", "4", "--emit", "intervals", "--max-moves", "10")
    assert code == 65
    assert "cap" in err


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
    moves = format_moves(iter_strategy_moves(1024, 11))
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


def test_verify_empty_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _ChunkOnlyStdin(""))
    code, out, err = run(capsys, "verify", "3", "2")
    assert (code, out) == (2, "T=0 peak=0 valid=false\n")
    assert err == "first violation: step 0 (final)\n"


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


@pytest.mark.parametrize("argv", [("fgamma", "1024"), ("fgamma", "1100", "--points", "1")])
def test_fgamma_board_beyond_float_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err.startswith("resource limit: ") and "beyond float range" in err


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


def test_config_file_missing(capsys, monkeypatch):
    monkeypatch.setenv("PEBBLEGAME_CONFIG", "/nonexistent/limits.cfg")
    code, _, err = run(capsys, "cost", "2", "2")
    assert code == 64
    assert "config" in err
