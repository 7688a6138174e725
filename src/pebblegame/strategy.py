"""Move sequences: synthesis of optimal plays, replay verification, intervals.

A move is ``+i`` (place a pebble on square i) or ``-i`` (remove one).  The
text wire format is one move per line, newline terminated.  Optimal plays are
emitted by one loop over a stack of subgames; a subgame played backwards is
its parts in reverse order, each backwards.  One replay core, ``ReplayChecker``,
applies moves to a board under the game rule that square i may change only
when i == 1 or square i-1 is occupied; the verification report, the peak, the
residence intervals and their nesting are by-products.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from . import config, dp
from .errors import ResourceLimitError, UnsolvableError

# Rule identifiers used in verification reports.
RULE_FINAL = "final"
RULE_ADD = "add"
RULE_REMOVE = "remove"
RULE_OCCUPANCY = "occupancy"
RULE_BUDGET = "budget"


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


def format_moves(moves: Iterable[Move]) -> str:
    return "".join(f"{move}\n" for move in moves)


def parse_moves(text: str) -> tuple:
    return tuple(parse_move(line) for line in text.splitlines() if line.strip())


def _iter_moves(stream, size: int = 1 << 16) -> Iterator[Move]:
    """Parse moves from a text stream in O(size) memory, calling only ``read(size)``.

    Lines are those of ``str.splitlines``, as in ``parse_moves``: the last line
    of each chunk is carried into the next, to join a line or ``\\r\\n`` cut in two.
    """
    carry = ""
    while chunk := stream.read(size):
        *lines, carry = (carry + chunk).splitlines(keepends=True)
        yield from (parse_move(line) for line in lines if line.strip())
    if carry.strip():
        yield parse_move(carry)


@dataclass(frozen=True)
class Strategy:
    """A move sequence on an n-square board.

    Construction checks square bounds only; legality of the sequence is the
    verifier's job, so arbitrary (even broken) sequences can be carried.
    """

    n: int
    moves: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"board size must be >= 1, got {self.n}")
        object.__setattr__(self, "moves", tuple(self.moves))
        for move in self.moves:
            if not 1 <= move.square <= self.n:
                raise ValueError(
                    f"move {move} references a square outside the {self.n}-square board"
                )

    @functools.cached_property
    def peak_pebbles(self) -> int:
        """Most pebbles held at once, by a ``ReplayChecker`` on first access.

        On an illegal sequence, the peak up to the first structural violation.
        """
        checker = ReplayChecker(self.n)
        for move in self.moves:
            checker.feed(move)
        return checker.peak

    @property
    def step_count(self) -> int:
        return len(self.moves)

    def to_text(self) -> str:
        return format_moves(self.moves)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    step_count: int
    peak_pebbles: int
    first_violation: Optional[tuple]  # (step, rule) or None
    nesting_violations: tuple  # ((square, (start, end-or-None)), ...)


class ReplayChecker:
    """Incremental legality checker; feed moves one at a time.

    Structural violations (double place, remove from empty, disabled move)
    halt the replay because later board states would be meaningless.  A
    budget overshoot is recorded but the replay continues, so the true peak
    is still reported.  Nested residence intervals are detected online: when
    an interval of square i closes while square i+1 has been held at least
    as long, that interval contributed nothing.
    """

    def __init__(self, n: int, budget: int | None = None, initial: Iterable[int] = ()):
        if n < 1:
            raise ValueError(f"board size must be >= 1, got {n}")
        self.n = n
        self.budget = budget
        self.board = set(initial)
        if any(not 1 <= i <= n for i in self.board):
            raise ValueError("initial pebbles outside the board")
        self._open_start = {i: 0 for i in self.board}
        self.peak = len(self.board)
        self.steps = 0
        self.first_violation: Optional[tuple] = None
        self.halted = False
        self.nesting: list = []

    def feed(self, move: Move) -> Optional[tuple]:
        """Apply one move; return the closed interval (start, end) of a remove, else None.

        A square outside the board raises ValueError, even after a halt.
        """
        i = move.square
        if not 1 <= i <= self.n:
            raise ValueError(
                f"move {move} references a square outside the {self.n}-square board"
            )
        self.steps += 1
        if self.halted:
            return None
        step = self.steps
        if move.place == (i in self.board):
            return self._halt(step, RULE_OCCUPANCY)
        if i != 1 and (i - 1) not in self.board:
            return self._halt(step, RULE_ADD if move.place else RULE_REMOVE)
        if move.place:
            self.board.add(i)
            self._open_start[i] = step
            if len(self.board) > self.peak:
                self.peak = len(self.board)
            if (
                self.budget is not None
                and len(self.board) > self.budget
                and self.first_violation is None
            ):
                self.first_violation = (step, RULE_BUDGET)
            return None
        start = self._open_start.pop(i)
        self.board.discard(i)
        interval = (start, step - 1)
        above = i + 1
        if above in self.board and self._open_start[above] <= start:
            self.nesting.append((i, interval))
        return interval

    def _halt(self, step: int, rule: str) -> None:
        self.halted = True
        if self.first_violation is None:
            self.first_violation = (step, rule)

    def finish(self, expected: frozenset | None) -> VerificationReport:
        """Check the final board (unless ``expected`` is None) and open-interval
        nesting, and return the report of the whole replay."""
        if not self.halted:
            for i in sorted(self.board):
                above = i + 1
                if above in self.board and self._open_start[above] <= self._open_start[i]:
                    self.nesting.append((i, (self._open_start[i], None)))
            if expected is not None and self.board != set(expected):
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
    for move in strategy.moves:
        checker.feed(move)
    return checker.finish(expected=frozenset({strategy.n}))


def iter_strategy_moves(
    n: int, s: int, *, tables: dp.DpTables | None = None
) -> Iterator[Move]:
    """Stream the moves of the canonical optimal play for (n, s).

    The play for n >= 2 with split m is: win the m-game, win the shifted
    (n-m)-game with one less pebble while a pebble rests on m, then undo the
    m-game with one less pebble by playing it backwards: the same three parts
    in reverse order, each backwards.  Emission is lazy and iterative, so very
    long plays are never materialized and have no depth limit.  Every subgame
    is at most (n, min(s, n)), so when ``tables`` do not cover that cell one
    table that does is built up front.
    """
    if not dp.is_solvable(n, s):
        raise UnsolvableError(
            f"n={n} is not solvable with S={s} pebbles (limit is n <= 2**(S-1))"
        )
    s_eff = min(s, n)
    if tables is None or n > tables.nmax or s_eff > tables.smax:
        tables = dp.build_table(n, s_eff)
    return _emit(n, s, tables.m)


def _emit(n: int, s: int, splits: tuple) -> Iterator[Move]:
    """The play from a stack of (n, S, offset, backwards) subgames.  Parts are pushed
    reversed for a forward play (first part on top), as they are for a backwards one;
    the checked 1 <= m < n makes every part smaller, so the loop ends."""
    stack = [(n, s, 0, False)]
    while stack:
        n, s, offset, backwards = stack.pop()
        if n == 1:
            yield Move(not backwards, offset + 1)
            continue
        m = splits[n][min(s, n)]
        if not 1 <= m < n:
            raise UnsolvableError(f"no split for n={n}, S={s}")
        parts = (
            (m, s, offset, backwards),
            (n - m, s - 1, offset + m, backwards),
            (m, s - 1, offset, not backwards),
        )
        stack.extend(parts if backwards else reversed(parts))


def synthesize(
    n: int,
    s: int,
    *,
    tables: dp.DpTables | None = None,
    max_moves: int | None = None,
) -> Strategy:
    """Materialize the canonical optimal play; length equals f_cost(n, s)."""
    cap = config.DEFAULT_MATERIALIZATION_CAP if max_moves is None else max_moves
    moves = tuple(itertools.islice(iter_strategy_moves(n, s, tables=tables), max(cap, 0) + 1))
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


@dataclass(frozen=True)
class IntervalView:
    """Residence intervals per square over step indices.

    ``squares[i - 1]`` lists the intervals of square i as (start, end) pairs
    meaning the square is occupied after steps start..end, end being None for
    the final interval that is never closed.
    """

    n: int
    squares: tuple

    def occupied_after(self, step: int) -> frozenset:
        result = set()
        for index, intervals in enumerate(self.squares, 1):
            for start, end in intervals:
                if start <= step and (end is None or step <= end):
                    result.add(index)
                    break
        return frozenset(result)

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
    return _replay_intervals(ReplayChecker(strategy.n), strategy.moves)


def _replay_intervals(checker: ReplayChecker, moves: Iterable[Move]) -> IntervalView:
    """``to_intervals`` of ``moves`` by ``checker``, whose ``finish`` then gives the report."""
    rows: list = [[] for _ in range(checker.n)]
    for move in moves:
        interval = checker.feed(move)
        if interval is not None:
            rows[move.square - 1].append(interval)
        elif checker.halted:
            step, rule = checker.first_violation
            raise ValueError(f"step {step}: move {move} breaks the {rule} rule")
    for i, start in checker._open_start.items():
        rows[i - 1].append((start, None))
    return IntervalView(checker.n, tuple(tuple(row) for row in rows))
