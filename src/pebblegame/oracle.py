"""Ground truth by exhaustive search.

Board states are n-bit masks (square i at bit i-1).  Breadth-first search
over every state with at most S pebbles gives the true minimum move count
and a witness play for small boards, independently of the recursion the
rest of the package relies on.
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


def _search(n: int, s: int, track_parents: bool):
    """BFS from the empty board; returns (dist, parents, target)."""
    target = 1 << (n - 1)
    budget = min(s, n)
    size = 1 << n
    dist = [-1] * size
    parents = [-1] * size if track_parents else None
    dist[0] = 0
    queue = deque([0])
    while queue:
        state = queue.popleft()
        if state == target:
            break
        base = dist[state] + 1
        for i in range(n):
            # Toggling bit i needs square i (1-based i+1) enabled.
            if i != 0 and not (state >> (i - 1)) & 1:
                continue
            nxt = state ^ (1 << i)
            if dist[nxt] != -1 or nxt.bit_count() > budget:
                continue
            dist[nxt] = base
            if parents is not None:
                parents[nxt] = state
            queue.append(nxt)
    return dist, parents, target


def bfs_min_time(n: int, s: int) -> Cost:
    """Length of the shortest legal play ending at exactly {square n}."""
    _validate(n, s)
    dist, _, target = _search(n, s, track_parents=False)
    return INFINITE if dist[target] == -1 else dist[target]


def bfs_path(n: int, s: int):
    """A witness play of minimum length, as a ``Strategy``, or None when unreachable."""
    from .strategy import Move, Strategy

    _validate(n, s)
    dist, parents, target = _search(n, s, track_parents=True)
    if dist[target] == -1:
        return None
    moves = []
    state = target
    while state != 0:
        prev = parents[state]
        changed = state ^ prev
        square = changed.bit_length()
        moves.append(Move(bool(state & changed), square))
        state = prev
    moves.reverse()
    return Strategy(n, tuple(moves))
