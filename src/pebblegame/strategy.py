"""Move sequences: moves, their text parser and the library API over the play engine.

A move is ``+i`` (place a pebble on square i) or ``-i`` (remove one).  The text wire
format is one move per line, newline terminated.  At the library boundary a move is
``Move(True, i)`` or ``Move(False, i)``; the replay core and the emitter are ``play``'s.
The ``verify`` handler is last; it loads no ``runs`` and ends in ``play._verdict``.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import sys
from typing import Iterable, Iterator, NamedTuple

from . import config
from .errors import ResourceLimitError, _check_int
from .play import LINE_SQUARES, IntervalView, ReplayChecker, VerificationReport, _check_board
from .play import _emit, _format_signed, _lines, _off_board, _play_splits, _replay_intervals
from .play import _verdict

# A block of moves the parser may read by int() alone: each line a sign and a square of
# ASCII digits with no leading zero, "\n" or "\r\n" ended.
_PLAIN = re.compile(r"(?:[+-][1-9][0-9]*\r?\n)*")


class Move(NamedTuple):
    place: bool
    square: int

    def __str__(self) -> str:
        return f"{'+' if self.place else '-'}{self.square}"


def parse_move(text: str) -> Move:
    text = text.strip()
    if len(text) < 2 or text[0] not in "+-" or not text[1:].isdecimal():
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
        raise ValueError(f"malformed move {shown}; expected +<i> or -<i>")
    try:
        return Move(text[0] == "+", int(text[1:]))
    except ValueError:  # more digits than int() reads, so past any board size read as text
        raise ValueError(f"move {text[:40]!r}... references a square outside the board") from None


def _signed(moves: Iterable[Move]) -> list:
    return [move.square if move.place else -move.square for move in moves]


def _moves_of(values: Iterable[int]) -> Iterator[Move]:
    return (Move(value > 0, abs(value)) for value in values)


def _parse_lines(lines: Iterable[str]) -> Iterator[Move]:
    return (parse_move(line) for line in lines if line.strip())


def _iter_chunks(stream, size: int = 1 << 16, n: int | None = None) -> Iterator:
    """Parse moves from a text stream, calling only ``read(size)``, in memory
    O(size + the longest line): a line is held whole until its end is read.

    Lines are those of ``str.splitlines``, each read as ``parse_move`` reads it.
    When the text up to the last ``\\n`` read is plain (``_PLAIN``), it is yielded
    as one list of signed squares, read by int() or, once more lines than
    n <= LINE_SQUARES are read, looked up in the table of ``_lines(n)``.  Other
    text, and a plain block with a square of more digits than int() reads, goes
    through ``parse_move`` line by line and is yielded one ``Move`` at a time, so
    a consumer that applies each item before asking for the next sees errors in
    input order.  What follows the cut is held for the next read, to join a line
    or ``\\r\\n`` cut in two; a read with no line break is only held, so a long
    line is scanned and joined once.
    """
    held: list = []
    table: dict = {}
    seen = 0  # lines
    while chunk := stream.read(size):
        held.append(chunk)
        if "\n" not in chunk and chunk.splitlines() == [chunk]:
            continue
        text = "".join(held)
        cut = text.rfind("\n") + 1
        values = None
        if cut and n is not None and n <= LINE_SQUARES:
            lines = text[:cut].splitlines(keepends=True)
            seen += len(lines)
            if not table and n < seen:
                table = dict(zip(_lines(n)[1:], [*range(1, n + 1), *range(-n, 0)]))
            with contextlib.suppress(KeyError):
                values = list(map(table.__getitem__, lines))
        if values is None and cut and _PLAIN.fullmatch(text, 0, cut):
            with contextlib.suppress(ValueError):  # a square past int()'s digit limit
                values = list(map(int, text[:cut].split()))
        if values is not None:
            yield values
            held = [text[cut:]]
        else:
            *lines, carry = text.splitlines(keepends=True)
            yield from _parse_lines(lines)
            held = [carry]
    yield from _parse_lines("".join(held).splitlines())


class _StrategyFields(NamedTuple):
    n: int
    moves: tuple


class Strategy(_StrategyFields):
    """A move sequence on an n-square board.

    Construction checks square bounds only; legality of the sequence is the
    verifier's job, so arbitrary (even broken) sequences can be carried.
    Like the other records, it is a named tuple, ``(n, moves)``, with no
    attributes beside its fields.
    """

    __slots__ = ()

    def __new__(cls, n: int, moves: Iterable[Move]) -> "Strategy":
        _check_board(n)
        moves = tuple(moves)
        for move in moves:
            _check_int("square", move.square)
            if not 1 <= move.square <= n:
                raise _off_board(*move, n)
        return super().__new__(cls, n, moves)

    @property
    def peak_pebbles(self) -> int:
        """Most pebbles held at once, replayed by ``verify`` on each access.

        On an illegal sequence, the peak up to the first structural violation.
        """
        return verify(self, self.n).peak_pebbles

    @property
    def step_count(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        return _format_signed(_signed(self.moves))


def verify(strategy: Strategy, budget: int) -> VerificationReport:
    """Replay a strategy from the empty board and report every rule outcome.

    Valid means: every move legal, final board exactly {square n}, and the
    peak pebble count within the budget.
    """
    checker = ReplayChecker(strategy.n, budget=budget)
    checker.feed_signed(_signed(strategy.moves))
    return checker.finish(expected=frozenset({strategy.n}))


def iter_strategy_moves(n: int, s: int) -> Iterator[Move]:
    """Stream the moves of the canonical optimal play for (n, s).

    Where S >= n the play is the ladder; otherwise, with split m, it is: win the
    m-game, win the shifted (n-m)-game with one less pebble while a pebble rests
    on m, then undo the m-game with one less pebble by playing it backwards: the
    same three parts in reverse order, each backwards.  Emission is lazy and
    iterative, so very long plays are never materialized and have no depth
    limit; the moves are those of the signed-square lists of ``_emit``, with the
    splits of ``_play_splits``.
    """
    split = _play_splits(n, s, None)[0]
    return _moves_of(itertools.chain.from_iterable(_emit(n, s, split)))


def synthesize(n: int, s: int, *, max_moves: int | None = None) -> Strategy:
    """Materialize the canonical optimal play; length equals f_cost(n, s).  A play
    longer than the cap is refused from that length, before any move is emitted."""
    cap = config.DEFAULT_MATERIALIZATION_CAP if max_moves is None else max_moves
    split, total = _play_splits(n, s, None)
    _check_int("max_moves", cap)
    if total > cap:
        raise ResourceLimitError(
            f"play for n={n}, S={s} exceeds the materialization cap ({cap} moves)"
        )
    return Strategy(n, _moves_of(itertools.chain.from_iterable(_emit(n, s, split))))


def reverse_strategy(strategy: Strategy) -> Strategy:
    """Time-reverse a play: reversed order, place and remove swapped.

    An involution on any move sequence.  When the input is a valid solution,
    the result replayed from {square n} legally empties the board, because
    placing and removing share the same enabling condition.
    """
    return Strategy(
        strategy.n, tuple(Move(not move.place, move.square) for move in reversed(strategy.moves))
    )


def to_intervals(strategy: Strategy) -> IntervalView:
    """Residence intervals of a move sequence, as closed and left open by a replay;
    a structural violation raises ValueError naming its step and rule."""
    return _replay_intervals(ReplayChecker(strategy.n), [_signed(strategy.moves)])


def cmd_verify(args, limits) -> int:
    on_stdin = args.file in (None, "-")
    try:
        if on_stdin and sys.stdin is None:  # the process started with stdin closed
            raise OSError("it is closed")
        source = contextlib.nullcontext(sys.stdin) if on_stdin else open(args.file, encoding="utf-8")
        with source as stream:
            checker = ReplayChecker(args.n, budget=args.s)
            for chunk in _iter_chunks(stream, n=args.n):
                if isinstance(chunk, list):
                    checker.feed_signed(chunk)
                else:
                    checker.feed(chunk)
    except OSError as exc:
        where = "from stdin" if on_stdin else f"file {args.file!r}"
        raise ValueError(f"cannot read moves {where}: {exc}") from exc
    return _verdict(checker)
