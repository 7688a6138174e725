"""Ground truth by exhaustive search.

Board states are n-bit masks (square i at bit i-1), and only boards with at
most S pebbles are visited.  Two breadth-first searches give the true minimum
move count and a witness play for small boards, independently of the
recursion the rest of the package relies on:

- ``bfs_min_time`` searches from both ends, the empty board and {n}, in dicts
  keyed by board, so it visits only the boards within reach of either end.
- ``bfs_path`` searches from the empty board over an array of 2**n parents,
  and walks the parents back from {n} for its witness.
"""

from __future__ import annotations

from collections import deque

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


def bfs_min_time(n: int, s: int) -> Cost:
    """Length of the shortest legal play ending at exactly {square n}.

    Each round expands one whole level of the smaller frontier, from the empty
    board or from {n}; a move is its own inverse, so both ends use
    ``_neighbours``.  Before a round that takes one end from depth d_a, with the
    other at d_b, no board is on both sides, so every play is longer than
    d_a + d_b moves.  A meet in the round is a play of d_a + 1 + d_b' moves with
    d_b' <= d_b, so it has exactly d_a + 1 + d_b: the first meet gives the least.
    """
    _validate(n, s)
    full, budget = (1 << n) - 1, min(s, n)
    seen = ({0: 0}, {1 << (n - 1): 0})
    fronts = [[0], [1 << (n - 1)]]
    while fronts[0] and fronts[1]:
        # A tie goes to the empty board, so with S = 0 its front, which has no
        # move, empties first, before {n} (a board S = 0 cannot hold) moves.
        side = 1 if len(fronts[1]) < len(fronts[0]) else 0
        mine, other = seen[side], seen[1 - side]
        depth = mine[fronts[side][0]] + 1  # one level: every board in it has one depth
        grown = []
        for state in fronts[side]:
            for nxt in _neighbours(state, full, budget):
                if nxt in other:
                    return depth + other[nxt]
                if nxt not in mine:
                    mine[nxt] = depth
                    grown.append(nxt)
        fronts[side] = grown
    return INFINITE


def _search(n: int, s: int) -> list:
    """BFS from the empty board: parents[state] is the board one move before it on
    a shortest play, parents[0] is 0, and -1 marks a board not reached."""
    target, full, budget = 1 << (n - 1), (1 << n) - 1, min(s, n)
    parents = [-1] * (1 << n)
    parents[0] = 0
    queue = deque([0])
    while queue:
        state = queue.popleft()
        if state == target:
            break
        for nxt in _neighbours(state, full, budget):
            if parents[nxt] == -1:
                parents[nxt] = state
                queue.append(nxt)
    return parents


def bfs_path(n: int, s: int):
    """A witness play of minimum length, as a ``Strategy``, or None when unreachable."""
    from .strategy import Move, Strategy

    _validate(n, s)
    parents = _search(n, s)
    state = 1 << (n - 1)
    if parents[state] == -1:
        return None
    moves = []
    while state != 0:
        prev = parents[state]
        changed = state ^ prev
        moves.append(Move(bool(state & changed), changed.bit_length()))
        state = prev
    moves.reverse()
    return Strategy(n, tuple(moves))
