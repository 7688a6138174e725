"""The play engine: emission, move text and replay, all that ``strategy`` and ``verify`` run.

A play travels as lists of signed squares (``+i`` as ``i``, ``-i`` as ``-i``), emitted ``CHUNK``
at a time by one loop over a stack of subgames; a leaf is a ladder (S >= n) or a small subgame
copied from a memo, and a subgame played backwards is its parts in reverse order, each
backwards.  The text wire format is one move per line, newline terminated; at the library
boundary a move is ``Move(True, i)`` or ``Move(False, i)``.  One replay core,
``ReplayChecker.feed_signed``, applies moves under the rule that square i may change only when
i == 1 or square i-1 is occupied, one reader, ``_replay_text``, feeds it the text of a play,
and one verdict, ``_verdict``, ends a command's replay.  The handlers of ``strategy`` and
``verify`` are last; only a play's splits load ``runs``.
"""

import contextlib
import re
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import EXIT_OK, EXIT_UNSOLVABLE, ResourceLimitError, UnsolvableError, _check_int

# Rule identifiers used in verification reports.
RULE_FINAL = "final"
RULE_ADD = "add"
RULE_REMOVE = "remove"
RULE_OCCUPANCY = "occupancy"
RULE_BUDGET = "budget"

# Signed squares per list yielded by the emitter.
CHUNK = 8192
# In one play, subgames of at most MEMO_SQUARES squares are copied from a memo that
# holds at most MEMO_CAP signed squares.  Boards of at most LINE_SQUARES squares are
# written and read through a table of lines.
MEMO_SQUARES, MEMO_CAP = 128, 1 << 18
LINE_SQUARES = 1 << 16
# A block of moves the reader may read by int() alone: each line a sign and a square of
# ASCII digits with no leading zero, "\n" or "\r\n" ended.  Compiled (and cached by re)
# on the reader's first use, so a process that only writes plays does not compile it.
_PLAIN = r"(?:[+-][1-9][0-9]*\r?\n)*"


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


def _format_signed(values: list, lines: list | None = None) -> str:
    """Signed squares as wire text: per square, the same bytes as ``f"{move}\\n"``,
    looked up in ``lines`` (``_lines``) when given."""
    if lines is None:
        return "%+d\n" * len(values) % tuple(values)
    return "".join(map(lines.__getitem__, values))


def _lines(n: int) -> list | None:
    """The line of each signed square v of an n-square board at index v (a remove's
    counted from the end), or None where n > LINE_SQUARES."""
    if n > LINE_SQUARES:
        return None
    return _format_signed([*range(n + 1), *range(-n, 0)]).splitlines(keepends=True)


def _off_board(place: bool, square: int, n: int) -> ValueError:
    """The error of a move off the board, quoting at most the square's leading digits."""
    sign = ("+" if place else "-") + ("-" if square < 0 else "")
    hidden = max(0, int(abs(square).bit_length() * 0.30103) - 60)  # trailing digits, never shown
    text = f"{sign}{abs(square) // 10**hidden}"
    shown = text if len(text) <= 40 else f"{text[:40]}..."
    return ValueError(f"move {shown} references a square outside the {n}-square board")


def _check_move(move: Move, n: int) -> None:
    """ValueError unless the move's square is an int (not a bool) on the n-square board."""
    _check_int("square", move.square)
    if not 1 <= move.square <= n:
        raise _off_board(*move, n)


def _check_board(n) -> None:
    """ValueError unless the board size n is an int (not a bool) of at least 1."""
    _check_int("board size", n)
    if n < 1:
        raise ValueError(f"board size must be >= 1, got {n}")


class VerificationReport(NamedTuple):
    valid: bool
    step_count: int
    peak_pebbles: int
    first_violation: Optional[tuple]  # (step, rule) or None


class ReplayChecker:
    """Incremental legality checker; feed moves in order, one or a list at a time.

    Structural violations (double place, remove from empty, disabled move)
    halt the replay because later board states would be meaningless.  The
    budget is None (no limit) or S, checked after n by every command's S rule.
    A budget overshoot is recorded but the replay continues, so the true peak
    is still reported.  The board is a list, from square 0 up, of the step each
    square was pebbled at (0 for square 0, so that square 1 is enabled; None where
    empty).  It ends at the highest initial pebble; a legal place just past its end
    doubles it, to at most n + 1 slots and twice the highest square pebbled, plus one.
    """

    def __init__(self, n: int, budget: int | None = None, initial: Iterable[int] = ()):
        _check_board(n)
        if budget is not None:
            _check_int("S", budget, 0)
        self.n = n
        self.budget = budget
        initial = dict.fromkeys(initial, 0)
        for i in initial:
            _check_int("initial square", i)
            if not 1 <= i <= n:
                raise ValueError("initial pebbles outside the board")
        self._starts = [0] + [initial.get(i) for i in range(1, max(initial, default=0) + 1)]
        self._pebbles = self.peak = len(initial)
        self.steps = 0
        self.first_violation: Optional[tuple] = None
        self.halt: Optional[tuple] = None  # (step, rule) of the structural violation

    @property
    def board(self):
        """The occupied squares, as a set-like view."""
        return self._occupied().keys()

    def _occupied(self) -> dict:
        """Each occupied square, mapped to the step it was pebbled at."""
        return {i: start for i, start in enumerate(self._starts) if i and start is not None}

    def feed(self, move: Move) -> Optional[tuple]:
        """Apply one move; return the closed interval (start, end) of a remove, else None.

        A square outside the board raises ValueError, even after a halt.
        """
        _check_move(move, self.n)
        closed: list = []
        self.feed_signed((move.square if move.place else -move.square,), closed)
        return closed[0][1] if closed else None

    def feed_signed(self, values: Iterable[int], closed: list | None = None) -> None:
        """Apply signed squares in order: ``i`` places a pebble on square i, ``-i`` removes it.

        Values must be ints, not bools, as ``feed`` and ``Strategy`` check; this loop does not.
        Each remove appends ``(square, (start, end))`` to ``closed``, when given.
        A square outside the board raises ValueError, even after a halt; the
        moves before it stay applied.  This is the package's one replay loop:
        its state lives in locals, written back when the loop ends or raises.  Only
        a move past the board list's end asks more: off the board, or empty below.
        """
        n = self.n
        board, end = self._starts, len(self._starts)
        step, peak, size = self.steps, self.peak, self._pebbles
        violation, rule = self.first_violation, None
        # No square beyond n exists, so n pebbles are never over the limit.
        limit = n if self.budget is None or violation is not None else self.budget
        values = iter(values)
        try:
            if self.halt is None:
                for step, value in enumerate(values, step + 1):
                    if value > 0:
                        if value >= end:
                            if value > end or value > n or board[end - 1] is None:
                                rule = RULE_ADD if value <= n else None  # or off the board
                                break
                            board += [None] * min(end, n + 1 - end)
                            end = len(board)
                        if board[value] is not None:
                            rule = RULE_OCCUPANCY
                            break
                        if board[value - 1] is None:
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
                        if not 0 < i < end:
                            rule = RULE_OCCUPANCY if 0 < i <= n else None  # past the list, empty
                            break
                        start = board[i]
                        if start is None:
                            rule = RULE_OCCUPANCY
                            break
                        if board[i - 1] is None:
                            rule = RULE_REMOVE
                            break
                        board[i] = None
                        size -= 1
                        if closed is not None:
                            closed.append((i, (start, step - 1)))
                else:
                    return
                if rule is None:
                    step -= 1  # a move off the board is not a step
                    raise _off_board(value >= 0, abs(value), n)
                self.halt = (step, rule)
                if violation is None:
                    violation = self.halt
            for step, value in enumerate(values, step + 1):  # after a halt, only the bounds
                if not 0 < abs(value) <= n:
                    step -= 1
                    raise _off_board(value >= 0, abs(value), n)
        finally:
            self.steps, self.peak, self._pebbles = step, peak, size
            self.first_violation = violation

    def finish(self, expected: frozenset) -> VerificationReport:
        """Check the final board against ``expected`` and return the report of the
        whole replay."""
        if self.halt is None and self.board != set(expected) and self.first_violation is None:
            self.first_violation = (self.steps, RULE_FINAL)
        return VerificationReport(
            valid=self.first_violation is None
            and (self.budget is None or self.peak <= self.budget),
            step_count=self.steps,
            peak_pebbles=self.peak,
            first_violation=self.first_violation,
        )


def _replay_text(checker: ReplayChecker, stream, size: int = 1 << 16) -> None:
    """Replay the move text of ``stream`` into ``checker``, calling only ``read(size)``, in
    memory O(size + the longest line): a line is held whole until its end is read.

    Lines are those of ``str.splitlines``, each read as ``parse_move`` reads it, blank ones
    skipped.  When the text up to the last ``\\n`` read is plain (``_PLAIN``), it goes to
    ``feed_signed`` as one list of signed squares, read by int() or, once more lines than
    n <= LINE_SQUARES are read, looked up in the table of ``_lines(n)``.  Other text, and a
    plain block with a square of more digits than int() reads, goes through ``parse_move``
    to ``feed`` line by line, so errors come in input order.  What follows the cut is held
    for the next read, to join a line or ``\\r\\n`` cut in two; a read with no line break is
    only held, so a long line is scanned and joined once.
    """
    n = checker.n
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
        if cut and n <= LINE_SQUARES:
            lines = text[:cut].splitlines(keepends=True)
            seen += len(lines)
            if not table and n < seen:
                table = dict(zip(_lines(n)[1:], [*range(1, n + 1), *range(-n, 0)]))
            with contextlib.suppress(KeyError):
                values = list(map(table.__getitem__, lines))
        if values is None and cut and re.compile(_PLAIN).fullmatch(text, 0, cut):
            with contextlib.suppress(ValueError):  # a square past int()'s digit limit
                values = list(map(int, text[:cut].split()))
        if values is not None:
            checker.feed_signed(values)
            held = [text[cut:]]
            continue
        *lines, carry = text.splitlines(keepends=True)
        held = [carry]
        for line in filter(str.strip, lines):
            checker.feed(parse_move(line))
    for line in filter(str.strip, "".join(held).splitlines()):
        checker.feed(parse_move(line))


def _play_splits(n: int, s: int, cell_budget: int | None) -> tuple:
    """The least split at every subgame of the (n, s) play with S < n, as a function of (n, S),
    and F(n, s), the play's length: for a ladder None and ``runs._cell``'s F, else ``Layer.split``
    of the play's own pass of s layers cut at n, each read; UnsolvableError if n > 2**(s-1)."""
    from .runs import _cell, _layers, is_solvable

    if not is_solvable(n, s):
        raise UnsolvableError(f"n={n} needs more than S={s} pebbles (limit is n <= 2**(S-1))")
    if s >= n:
        return None, _cell(n, s, cell_budget)[0]
    layers = tuple(_layers(n, s, cell_budget))
    return (lambda n, s: layers[s - 1].split(n)), layers[-1].cost(n)


def _emit(n: int, s: int, split: Callable[[int, int], int] | None) -> Iterator[list]:
    """The play as lists of ``CHUNK`` signed squares (the last may be shorter), from a
    stack of (n, S, offset, backwards) subgames.  One of at most MEMO_SQUARES squares is
    copied from the memo, shifted by its offset (+o on a place, -o on a remove), and
    reversed with the signs swapped when backwards.  Any other, or one the memo has no
    room for, is a ladder if S >= n, two ranges cut only where they overfill a chunk, or
    has its three parts pushed, reversed for a forward play (first part on top) as for a
    backwards one; the checked 1 <= m < n makes every part smaller, so the loop ends.
    ``split(n, S)`` is asked once per (n, S) of the play with S < n.  A leaf is re-packed into
    chunks, as yielding each one was measured slower on plays with many small leaves."""
    stack = [(n, s, 0, False)]
    chunk: list = []
    splits: dict = {}
    memo: dict = {}  # (n, S) -> the forward subgame's signed squares at offset 0, or None
    room = MEMO_CAP

    def split_of(n, s):
        try:
            return splits[n, s]
        except KeyError:
            m = splits[n, s] = split(n, s)
            if not 1 <= m < n:
                raise UnsolvableError(f"no split for n={n}, S={s}") from None
            return m

    def shifted(moves, o, backwards):
        if backwards:
            return [o - v if v < 0 else -o - v for v in reversed(moves)]
        return [v + o if v > 0 else v - o for v in moves] if o else moves

    def played(n, s):  # by the same three-part rule, each part from the memo
        nonlocal room
        s = min(s, n)  # every S >= n plays the same ladder
        if (n, s) not in memo:
            if s >= n:
                moves = [*range(1, n + 1), *range(1 - n, 0)]
            else:
                m = split_of(n, s)
                first, middle, last = played(m, s), played(n - m, s - 1), played(m, s - 1)
                moves = None if None in (first, middle, last) else [
                    *first, *shifted(middle, m, False), *shifted(last, 0, True)
                ]
            fits = moves is not None and len(moves) <= room
            memo[n, s] = moves if fits else None
            room -= len(moves) if fits else 0
        return memo[n, s]

    while stack:
        n, s, o, backwards = stack.pop()
        moves = played(n, s) if n <= MEMO_SQUARES else None
        if moves is not None:
            parts = (shifted(moves, o, backwards),)
        elif s >= n:  # place 1..n, lift n-1..1; backwards, place 1..n-1, lift n..1 (all + o)
            forward = not backwards
            parts = (range(o + 1, o + n + forward), range(forward - o - n, -o))
        else:
            m = split_of(n, s)
            parts = (
                (m, s, o, backwards),
                (n - m, s - 1, o + m, backwards),
                (m, s - 1, o, not backwards),
            )
            stack.extend(parts if backwards else reversed(parts))
            continue
        for part in parts:
            while len(chunk) + len(part) >= CHUNK:
                cut = CHUNK - len(chunk)
                yield [*chunk, *part[:cut]]
                chunk, part = [], part[cut:]
            chunk += part
    if chunk:
        yield chunk


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


def _replay_intervals(checker: ReplayChecker, chunks: Iterable[list]) -> IntervalView:
    """The interval view of the signed-square lists ``chunks`` replayed by ``checker``, whose
    ``finish`` then gives the report: on a play that halts, the view of the moves before
    the halt."""
    rows: list = [[] for _ in range(checker.n)]
    closed: list = []
    for chunk in chunks:
        checker.feed_signed(chunk, closed)
        for i, interval in closed:
            rows[i - 1].append(interval)
        closed.clear()
    for i, start in checker._occupied().items():
        rows[i - 1].append((start, None))
    return IntervalView(checker.n, tuple(tuple(row) for row in rows))


def _verdict(checker: ReplayChecker) -> int:
    """The end of a command's replay: finish it on the goal board {n}, print its summary
    line, name its first violation on stderr, and return the exit code, 0 if valid, else 2."""
    report = checker.finish(expected=frozenset({checker.n}))
    print(f"T={report.step_count} peak={report.peak_pebbles} valid={str(report.valid).lower()}")
    if report.first_violation is not None:
        print("first violation: step %d (%s)" % report.first_violation, file=sys.stderr)
    return EXIT_OK if report.valid else EXIT_UNSOLVABLE


def cmd_strategy(args, limits) -> int:
    n, s = args.n, args.s
    split, total = _play_splits(n, s, limits.cell_budget)
    if args.emit == "intervals" and total > limits.materialization_cap:
        raise ResourceLimitError(
            f"interval view needs {total} moves materialized; cap is "
            f"{limits.materialization_cap} (the moves format streams instead)"
        )
    checker = ReplayChecker(n, budget=s)
    chunks = _emit(n, s, split)
    if args.emit == "intervals":
        print(_replay_intervals(checker, chunks).to_text(), end="")
    else:
        lines = _lines(n)
        for chunk in chunks:
            print(_format_signed(chunk, lines), end="")
            if args.verify:
                checker.feed_signed(chunk)
    return _verdict(checker) if args.verify else EXIT_OK


def cmd_verify(args, limits) -> int:
    on_stdin = args.file in (None, "-")
    try:
        if on_stdin and sys.stdin is None:  # the process started with stdin closed
            raise OSError("it is closed")
        source = contextlib.nullcontext(sys.stdin) if on_stdin else open(args.file, encoding="utf-8")
        with source as stream:
            checker = ReplayChecker(args.n, budget=args.s)
            _replay_text(checker, stream)
    except OSError as exc:
        where = "from stdin" if on_stdin else f"file {args.file!r}"
        raise ValueError(f"cannot read moves {where}: {exc}") from exc
    return _verdict(checker)
