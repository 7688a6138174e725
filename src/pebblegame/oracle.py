"""Ground truth by exhaustive search.

Board states are n-bit masks (square i at bit i-1), and only boards with at
most S pebbles are visited.  One breadth-first search, ``_meet``, runs from both
ends, the empty board and {n}, keeping the boards it reaches in dicts.  It gives
the least move count and a witness play apart from the recursion in ``dp``.
"""

from __future__ import annotations

from . import dp
from .cost import INFINITE, Cost
from .errors import ResourceLimitError

MAX_ORACLE_SQUARES = 20


def _validate(n: int, s: int) -> None:
    dp._validate(n, s)
    if n > MAX_ORACLE_SQUARES:
        raise ResourceLimitError(
            f"oracle search is capped at n <= {MAX_ORACLE_SQUARES} (state space 2**n); got n={n}"
        )


def _neighbours(state: int, full: int, budget: int):
    """The boards one move from ``state``, lowest square first.

    Square 1 is always enabled, and square i+1 when square i holds a pebble.
    With ``budget`` pebbles down, only the enabled squares that hold one can move.
    """
    enabled = ((state << 1) | 1) & full
    if state.bit_count() >= budget:
        enabled &= state
    while enabled:
        low = enabled & -enabled
        yield state ^ low
        enabled ^= low


def _meet(n: int, s: int):
    """The two dicts, board to depth from the empty board and from {n}, and the
    depths (f, b) of their last whole levels, once the two sides meet; or None.

    Each round expands one whole level of the smaller frontier; a move is its
    own inverse, so both ends use ``_neighbours``.  Before a round that takes
    one end from depth d_a, with the other at d_b, no board is on both sides, so
    every play is longer than d_a + d_b moves.  A meet in the round is a play of
    d_a + 1 + d_b' moves with d_b' <= d_b, so it has exactly d_a + 1 + d_b: the
    first meet gives the least, f + 1 + b.
    """
    full, budget = (1 << n) - 1, min(s, n)
    seen = ({0: 0}, {1 << (n - 1): 0})
    fronts = [[0], [1 << (n - 1)]]
    depths = [0, 0]
    while fronts[0] and fronts[1]:
        # A tie goes to the empty board, so with S = 0 its front, which has no
        # move, empties first, before {n} (a board S = 0 cannot hold) moves.
        side = 1 if len(fronts[1]) < len(fronts[0]) else 0
        mine, other = seen[side], seen[1 - side]
        depth = depths[side] + 1
        grown = []
        for state in fronts[side]:
            for nxt in _neighbours(state, full, budget):
                if nxt in other:
                    return seen, depths
                if nxt not in mine:
                    mine[nxt] = depth
                    grown.append(nxt)
        fronts[side] = grown
        depths[side] = depth
    return None


def bfs_min_time(n: int, s: int) -> Cost:
    """Length of the shortest legal play ending at exactly {square n}."""
    _validate(n, s)
    met = _meet(n, s)
    return INFINITE if met is None else met[1][0] + 1 + met[1][1]


def bfs_path(n: int, s: int):
    """The witness, as a ``Strategy``, or None when {n} is out of reach.

    The witness is the least shortest play, comparing the squares moved one by
    one from the first move.  After k of its f + 1 + b moves, a shortest play
    stands at depth k from the empty board while k <= f, and at depth
    f + 1 + b - k from {n} after that.  A depth-first walk over those boards,
    lowest square first, that drops each board that led nowhere, meets the least
    play first; past depth f every board has a move one level down.
    """
    _validate(n, s)
    met = _meet(n, s)
    if met is None:
        return None
    (up, down), (f, b) = met
    length, full, budget = f + 1 + b, (1 << n) - 1, min(s, n)
    boards, untried = [0], [_neighbours(0, full, budget)]
    while len(boards) <= length:
        k = len(boards)  # moves made once the next board is on
        level, depth = (up, k) if k <= f else (down, length - k)
        for nxt in untried[-1]:
            if level.get(nxt) == depth:
                boards.append(nxt)
                untried.append(_neighbours(nxt, full, budget))
                break
        else:  # a board that led nowhere leaves the forward dict, never to be tried again
            del up[boards.pop()]
            untried.pop()
    del met, up, down, level  # free the search before the module of the play loads
    from .strategy import Move, Strategy
    steps = zip(boards, boards[1:])  # placing a pebble sets a bit: the number grows
    return Strategy(n, (Move(nxt > prev, (nxt ^ prev).bit_length()) for prev, nxt in steps))
