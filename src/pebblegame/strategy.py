"""Move sequences: synthesis of optimal plays, replay verification, intervals.

A move is ``+i`` (place a pebble on square i) or ``-i`` (remove one).  The
text wire format is one move per line, newline terminated.  ``Move`` is the
type at the library boundary; inside, a play travels as lists of signed
squares, ``+i`` as ``i`` and ``-i`` as ``-i``, so that text is written, parsed
and replayed a chunk at a time.  Optimal plays are emitted by one loop over a
stack of subgames, as lists of about ``CHUNK`` signed squares; a subgame
played backwards is its parts in reverse order, each backwards.  One replay
core, ``ReplayChecker.feed_signed``, applies moves to a board under the game
rule that square i may change only when i == 1 or square i-1 is occupied; the
verification report, the peak, the residence intervals and their nesting are
by-products.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import config, dp
from .errors import ResourceLimitError, UnsolvableError

# Rule identifiers used in verification reports.
RULE_FINAL = "final"
RULE_ADD = "add"
RULE_REMOVE = "remove"
RULE_OCCUPANCY = "occupancy"
RULE_BUDGET = "budget"

# Signed squares per list yielded by the emitter.
CHUNK = 8192
# A block of moves the parser may read by int() alone: each line a sign and a
# square in plain ASCII digits, no leading zero, "\n" terminated.
_PLAIN = re.compile(r"(?:[+-][1-9][0-9]*\n)*")


class Move(NamedTuple):
    place: bool
    square: int

    def __str__(self) -> str:
        return f"{'+' if self.place else '-'}{self.square}"

    def flipped(self) -> "Move":
        return Move(not self.place, self.square)


def place(square: int) -> Move:
    return Move(True, square)


def remove(square: int) -> Move:
    return Move(False, square)


def parse_move(text: str) -> Move:
    text = text.strip()
    if len(text) < 2 or text[0] not in "+-" or not text[1:].isdigit():
        raise ValueError(f"malformed move {text!r}; expected +<i> or -<i>")
    return Move(text[0] == "+", int(text[1:]))


def _signed(moves: Iterable[Move]) -> list:
    return [move.square if move.place else -move.square for move in moves]


def _moves_of(values: Iterable[int]) -> Iterator[Move]:
    return (Move(value > 0, abs(value)) for value in values)


def _format_signed(values: list) -> str:
    """Signed squares as wire text: per square, the same bytes as ``f"{move}\\n"``."""
    return "%+d\n" * len(values) % tuple(values)


def format_moves(moves: Iterable[Move]) -> str:
    """Moves as wire text.  Squares are positive, as on every board: square 0
    has no sign, so a ``Move(False, 0)`` is written as ``+0``."""
    return _format_signed(_signed(moves))


def parse_moves(text: str) -> tuple:
    return tuple(parse_move(line) for line in text.splitlines() if line.strip())


def _parse_lines(lines: Iterable[str]) -> Iterator[Move]:
    return (parse_move(line) for line in lines if line.strip())


def _iter_chunks(stream, size: int = 1 << 16) -> Iterator:
    """Parse moves from a text stream in O(size) memory, calling only ``read(size)``.

    Lines are those of ``str.splitlines``, as in ``parse_moves``.  When the text
    up to the last ``\\n`` read is plain (``_PLAIN``), it is yielded as one list
    of signed squares.  Other text goes through ``parse_move`` line by line and
    is yielded one ``Move`` at a time, so a consumer that applies each item
    before asking for the next sees errors in input order.  What follows the
    cut is carried into the next read, to join a line or ``\\r\\n`` cut in two.
    """
    carry = ""
    while chunk := stream.read(size):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        if cut and _PLAIN.fullmatch(text, 0, cut):
            yield list(map(int, text[:cut].split()))
            carry = text[cut:]
        else:
            *lines, carry = text.splitlines(keepends=True)
            yield from _parse_lines(lines)
    yield from _parse_lines(carry.splitlines())


def _off_board(move, n: int) -> ValueError:
    return ValueError(f"move {move} references a square outside the {n}-square board")


class _StrategyFields(NamedTuple):
    n: int
    moves: tuple


class Strategy(_StrategyFields):
    """A move sequence on an n-square board.

    Construction checks square bounds only; legality of the sequence is the
    verifier's job, so arbitrary (even broken) sequences can be carried.
    Like the other records, it is a named tuple, ``(n, moves)``; it refuses
    attribute assignment, and keeps only its computed peak beside the fields.
    """

    def __new__(cls, n: int, moves: Iterable[Move]) -> "Strategy":
        if n < 1:
            raise ValueError(f"board size must be >= 1, got {n}")
        moves = tuple(moves)
        for move in moves:
            if not 1 <= move.square <= n:
                raise _off_board(move, n)
        return super().__new__(cls, n, moves)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @functools.cached_property
    def peak_pebbles(self) -> int:
        """Most pebbles held at once, by a ``ReplayChecker`` on first access.

        On an illegal sequence, the peak up to the first structural violation.
        """
        checker = ReplayChecker(self.n)
        checker.feed_signed(_signed(self.moves))
        return checker.peak

    @property
    def step_count(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        return format_moves(self.moves)


class VerificationReport(NamedTuple):
    valid: bool
    step_count: int
    peak_pebbles: int
    first_violation: Optional[tuple]  # (step, rule) or None
    nesting_violations: tuple  # ((square, (start, end-or-None)), ...)


class ReplayChecker:
    """Incremental legality checker; feed moves in order, one or a list at a time.

    Structural violations (double place, remove from empty, disabled move)
    halt the replay because later board states would be meaningless.  A
    budget overshoot is recorded but the replay continues, so the true peak
    is still reported.  Nested residence intervals are detected online: when
    an interval of square i closes while square i+1 has been held at least
    as long, that interval contributed nothing.  The board is a dict of the
    occupied squares, each mapped to the step it was pebbled at, so memory is
    O(pebbles) whatever the board size.
    """

    def __init__(self, n: int, budget: int | None = None, initial: Iterable[int] = ()):
        if n < 1:
            raise ValueError(f"board size must be >= 1, got {n}")
        self.n = n
        self.budget = budget
        self._open_start = dict.fromkeys(initial, 0)
        if any(not 1 <= i <= n for i in self._open_start):
            raise ValueError("initial pebbles outside the board")
        self.peak = len(self._open_start)
        self.steps = 0
        self.first_violation: Optional[tuple] = None
        self.halt: Optional[tuple] = None  # (step, rule) of the structural violation
        self.nesting: list = []

    @property
    def board(self):
        """The occupied squares, as a set-like view."""
        return self._open_start.keys()

    @property
    def halted(self) -> bool:
        return self.halt is not None

    def feed(self, move: Move) -> Optional[tuple]:
        """Apply one move; return the closed interval (start, end) of a remove, else None.

        A square outside the board raises ValueError, even after a halt.
        """
        i = move.square
        if not 1 <= i <= self.n:
            raise _off_board(move, self.n)
        closed: list = []
        self.feed_signed((i if move.place else -i,), closed)
        return closed[0][1] if closed else None

    def feed_signed(self, values: Iterable[int], closed: list | None = None) -> None:
        """Apply signed squares in order: ``i`` places a pebble on square i, ``-i`` removes it.

        Each remove appends ``(square, (start, end))`` to ``closed``, when given.
        A square outside the board raises ValueError, even after a halt; the
        moves before it stay applied.  This is the package's one replay loop:
        its state lives in locals, written back when the loop ends or raises.
        """
        n = self.n
        board = self._open_start
        nesting = self.nesting
        step, peak, size = self.steps, self.peak, len(board)
        violation, rule = self.first_violation, None
        # No square beyond n exists, so n pebbles are never over the limit.
        limit = n if self.budget is None or violation is not None else self.budget
        values = iter(values)
        try:
            if self.halt is None:
                for value in values:
                    if value > 0:
                        if value > n:
                            break
                        step += 1
                        if value in board:
                            rule = RULE_OCCUPANCY
                            break
                        if value - 1 not in board and value != 1:
                            rule = RULE_ADD
                            break
                        board[value] = step
                        size += 1
                        if size > peak:
                            peak = size
                        if size > limit:
                            violation, limit = (step, RULE_BUDGET), n
                    else:
                        i = -value
                        if not 0 < i <= n:
                            break
                        step += 1
                        start = board.get(i)
                        if start is None:
                            rule = RULE_OCCUPANCY
                            break
                        if i - 1 not in board and i != 1:
                            rule = RULE_REMOVE
                            break
                        del board[i]
                        size -= 1
                        if board.get(i + 1, step) <= start:
                            nesting.append((i, (start, step - 1)))
                        if closed is not None:
                            closed.append((i, (start, step - 1)))
                else:
                    return
                if rule is None:
                    raise _off_board(f"{value:+d}", n)
                self.halt = (step, rule)
                if violation is None:
                    violation = self.halt
            for value in values:  # after a halt, only the bounds are checked
                if not 0 < abs(value) <= n:
                    raise _off_board(f"{value:+d}", n)
                step += 1
        finally:
            self.steps, self.peak, self.first_violation = step, peak, violation

    def finish(self, expected: frozenset | None) -> VerificationReport:
        """Check the final board (unless ``expected`` is None) and open-interval
        nesting, and return the report of the whole replay."""
        if not self.halted:
            board = self._open_start
            for i in sorted(board):
                if i + 1 in board and board[i + 1] <= board[i]:
                    self.nesting.append((i, (board[i], None)))
            if expected is not None and board.keys() != set(expected):
                if self.first_violation is None:
                    self.first_violation = (self.steps, RULE_FINAL)
        return VerificationReport(
            valid=self.first_violation is None
            and (self.budget is None or self.peak <= self.budget),
            step_count=self.steps,
            peak_pebbles=self.peak,
            first_violation=self.first_violation,
            nesting_violations=tuple(self.nesting),
        )


def verify(strategy: Strategy, budget: int) -> VerificationReport:
    """Replay a strategy from the empty board and report every rule outcome.

    Valid means: every move legal, final board exactly {square n}, and the
    peak pebble count within the budget.  Nesting violations are reported
    but do not make the strategy invalid.
    """
    checker = ReplayChecker(strategy.n, budget=budget)
    checker.feed_signed(_signed(strategy.moves))
    return checker.finish(expected=frozenset({strategy.n}))


def iter_strategy_moves(n: int, s: int) -> Iterator[Move]:
    """Stream the moves of the canonical optimal play for (n, s).

    The play for n >= 2 with split m is: win the m-game, win the shifted
    (n-m)-game with one less pebble while a pebble rests on m, then undo the
    m-game with one less pebble by playing it backwards: the same three parts
    in reverse order, each backwards.  Emission is lazy and iterative, so very
    long plays are never materialized and have no depth limit; the moves are
    those of the signed-square lists of ``_emit``, with the splits of
    ``_play_splits``.
    """
    split = _play_splits(n, s, None)[0]
    return _moves_of(itertools.chain.from_iterable(_emit(n, s, split)))


def _play_splits(n: int, s: int, cell_budget: int | None) -> tuple:
    """The least split at every subgame of the (n, s) play, as a function of (n, S)
    for S <= n, and F(n, s), the play's length; UnsolvableError if n > 2**(s-1).
    Where s >= n the play is the ladder, split 1 throughout; otherwise each split is
    ``Layer.split`` of the run layers cut at n, under the cell budget of their table."""
    if not dp.is_solvable(n, s):
        raise UnsolvableError(f"n={n} needs more than S={s} pebbles (limit is n <= 2**(S-1))")
    if s >= n:
        return (lambda n, s: 1), dp._ladder(n)
    layers = list(dp._layers(n, s, cell_budget))
    return (lambda n, s: layers[s - 1].split(n) or 0), layers[-1].cost(n)


def _emit(n: int, s: int, split: Callable[[int, int], int]) -> Iterator[list]:
    """The play as lists of ``CHUNK`` signed squares (the last may be shorter), from a
    stack of (n, S, offset, backwards) subgames.  Parts are pushed reversed for a
    forward play (first part on top), as they are for a backwards one; the checked
    1 <= m < n makes every part smaller, so the loop ends.  The split of a subgame
    is ``split(n, min(S, n))``, asked once per (n, S) of the play."""
    stack = [(n, s, 0, False)]
    chunk: list = []
    splits: dict = {}
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


def synthesize(n: int, s: int, *, max_moves: int | None = None) -> Strategy:
    """Materialize the canonical optimal play; length equals f_cost(n, s)."""
    cap = config.DEFAULT_MATERIALIZATION_CAP if max_moves is None else max_moves
    moves = tuple(itertools.islice(iter_strategy_moves(n, s), max(cap, 0) + 1))
    if len(moves) > cap:
        raise ResourceLimitError(
            f"play for n={n}, S={s} exceeds the materialization cap ({cap} moves)"
        )
    return Strategy(n, moves)


def reverse_strategy(strategy: Strategy) -> Strategy:
    """Time-reverse a play: reversed order, place and remove swapped.

    An involution on any move sequence.  When the input is a valid solution,
    the result replayed from {square n} legally empties the board, because
    placing and removing share the same enabling condition.
    """
    return Strategy(
        strategy.n, tuple(move.flipped() for move in reversed(strategy.moves))
    )


class IntervalView(NamedTuple):
    """Residence intervals per square over step indices.

    ``squares[i - 1]`` lists the intervals of square i as (start, end) pairs
    meaning the square is occupied after steps start..end, end being None for
    the final interval that is never closed.
    """

    n: int
    squares: tuple

    def to_text(self) -> str:
        lines = []
        for index, intervals in enumerate(self.squares, 1):
            parts = [
                f"[{start},{end}]" if end is not None else f"[{start},)"
                for start, end in intervals
            ]
            lines.append(f"s{index}: {' '.join(parts)}" if parts else f"s{index}:")
        return "".join(line + "\n" for line in lines)


def to_intervals(strategy: Strategy) -> IntervalView:
    """Residence intervals of a move sequence, as closed and left open by a replay;
    a structural violation raises ValueError naming its step and rule."""
    return _replay_intervals(ReplayChecker(strategy.n), [_signed(strategy.moves)])


def _replay_intervals(checker: ReplayChecker, chunks: Iterable[list]) -> IntervalView:
    """``to_intervals`` of the signed-square lists ``chunks`` by ``checker``, whose
    ``finish`` then gives the report."""
    rows: list = [[] for _ in range(checker.n)]
    closed: list = []
    for chunk in chunks:
        before = checker.steps
        checker.feed_signed(chunk, closed)
        if checker.halted:
            step, rule = checker.halt
            move = chunk[step - before - 1]
            raise ValueError(f"step {step}: move {move:+d} breaks the {rule} rule")
        for i, interval in closed:
            rows[i - 1].append(interval)
        closed.clear()
    for i, start in checker._open_start.items():
        rows[i - 1].append((start, None))
    return IntervalView(checker.n, tuple(tuple(row) for row in rows))
