"""The library API over the play engine: ``Strategy``, ``verify``, ``synthesize`` and views.

A move is ``Move(True, i)`` (place a pebble on square i) or ``Move(False, i)`` (remove one);
``Move``, its text reader ``parse_move``, the emitter, the replay core and both commands'
handlers are ``play``'s, and this module imports ``Move`` and ``parse_move`` back.
"""

import itertools
from typing import Iterable, Iterator, NamedTuple

from . import config
from .errors import ResourceLimitError, _check_int
from .play import IntervalView, Move, ReplayChecker, VerificationReport, parse_move
from .play import _check_board, _check_move, _emit, _format_signed, _play_splits, _replay_intervals


def _signed(moves: Iterable[Move]) -> list:
    return [move.square if move.place else -move.square for move in moves]


def _moves_of(values: Iterable[int]) -> Iterator[Move]:
    return (Move(value > 0, abs(value)) for value in values)


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
            _check_move(move, n)
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
    checker, moves = ReplayChecker(strategy.n), _signed(strategy.moves)
    view = _replay_intervals(checker, [moves])
    if checker.halt is not None:
        step, rule = checker.halt
        raise ValueError(f"step {step}: move {moves[step - 1]:+d} breaks the {rule} rule")
    return view
