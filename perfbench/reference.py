"""Answers the benchmark checks outputs against, computed without pebblegame.

``costs`` is the naive recursion: every split is tried for every cell, and
the least minimizer is kept.  ``Replay`` replays a move list by the game's
rule.  The rest are closed forms taken from the definitions.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Large enough to exceed every finite cost in range, small enough that a sum
# of three never overflows int64.
INF = 1 << 60


def least_budget(n: int) -> int:
    """Least S with n <= 2**(S-1), the solvability frontier."""
    return (n - 1).bit_length() + 1


def costs(nmax: int, smax: int) -> tuple[np.ndarray, np.ndarray]:
    """F and least-split arrays indexed [n, S] for 1 <= n <= nmax, 1 <= S <= smax.

    F(n, S) = min over 1 <= m < n of F(m, S) + F(n-m, S-1) + F(m, S-1), with
    F(1, S) = 1 and F(n, 1) = inf for n >= 2.  Infinite cells hold INF, and
    the split array holds 0 where no split is defined.
    """
    f = np.full((nmax + 1, smax + 1), INF, dtype=np.int64)
    m = np.zeros((nmax + 1, smax + 1), dtype=np.int64)
    f[1, 1:] = 1
    for s in range(2, smax + 1):
        prev = f[:, s - 1]
        # g[k] = F(k, S) + F(k, S-1) for every k already filled in this layer.
        g = np.full(nmax + 1, INF, dtype=np.int64)
        g[1] = 1 + prev[1]
        # Cells past the solvability frontier stay INF: every split has an
        # infinite part there, which the full scan below would also find.
        top = min(nmax, 1 << (s - 1))
        for n in range(2, top + 1):
            totals = g[1:n] + prev[n - 1:0:-1]
            best = int(np.argmin(totals))
            value = int(totals[best])
            if value >= INF:
                continue
            f[n, s] = value
            m[n, s] = best + 1
            g[n] = value + prev[n]
    return f, m


def golden(path: Path) -> dict[tuple[int, int], int | None]:
    """The committed reference table: {(n, S): F or None for inf}."""
    out = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            n = int(row["n"])
            for key, value in row.items():
                if key != "n":
                    out[(n, int(key[2:]))] = None if value == "inf" else int(value)
    return out


def x_lower(k: int, s: int) -> int:
    return sum(math.comb(s - 1, i) for i in range(k + 1))


def x_upper(k: int, s: int) -> int:
    return min(math.comb(s + k - 1, k), 2 ** (s - 1))


def lower_sum(k: int, s: int) -> int:
    return sum(math.comb(s - 1, i) * 2 ** (i + 1) for i in range(k + 1))


def upper_sum(k: int, s: int) -> int:
    return sum(math.comb(s + i - 2, i) * (2**i + 1) for i in range(k + 1))


def entropy(gamma: float) -> float:
    if gamma in (0.0, 1.0):
        return 0.0
    return -gamma * math.log2(gamma) - (1 - gamma) * math.log2(1 - gamma)


class Replay:
    """Replays moves from the empty board and records the first broken rule.

    A pebble may be placed on or removed from square i only when i == 1 or
    square i-1 holds a pebble.
    """

    def __init__(self, n: int):
        self.n = n
        self.board = bytearray(n + 2)
        self.count = 0
        self.steps = 0
        self.peak = 0
        self.error: str | None = None

    def move(self, place: bool, i: int) -> None:
        self.steps += 1
        if self.error is not None:
            return
        board = self.board
        if not 1 <= i <= self.n:
            self.error = f"step {self.steps}: square {i} is off the board"
        elif i > 1 and not board[i - 1]:
            self.error = f"step {self.steps}: square {i} is not enabled"
        elif board[i] == place:
            self.error = f"step {self.steps}: square {i} is already {'full' if place else 'empty'}"
        else:
            board[i] = place
            self.count += 1 if place else -1
            if self.count > self.peak:
                self.peak = self.count

    def moves_text(self, lines) -> None:
        """Replay wire-format lines (``+i`` / ``-i``)."""
        for line in lines:
            sign = line[:1]
            if sign not in ("+", "-") or not line[1:].isdigit():
                self.steps += 1
                if self.error is None:
                    self.error = f"step {self.steps}: malformed move {line!r}"
                continue
            self.move(sign == "+", int(line[1:]))

    def solved(self) -> bool:
        """True when no rule broke and only square n holds a pebble."""
        return self.error is None and self.count == 1 and self.board[self.n] == 1
