import csv
import functools
from pathlib import Path

import pytest

from pebblegame import INFINITE, build_table
from pebblegame.cost import cost_sum

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def tables_100_20():
    return build_table(100, 20)


@pytest.fixture(scope="session")
def tables_64_64():
    return build_table(64, 64)


@pytest.fixture(scope="session")
def tables_2048_16():
    return build_table(2048, 16)


@pytest.fixture(scope="session")
def tables_32769_16():
    # Covers every threshold for S <= 16: the largest is at n = 2**15.
    return build_table(2**15 + 1, 16)


@pytest.fixture(scope="session")
def reference_costs():
    """Golden reference costs for 51 <= n <= 100, 1 <= S <= 20, as {(n, s): Cost}."""
    values = {}
    with open(DATA_DIR / "reference_costs_51_100.csv", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            n = int(row[0])
            for s in range(1, 21):
                values[n, s] = INFINITE if row[s] == "inf" else int(row[s])
    return values


@pytest.fixture(scope="session")
def naive_reference():
    """(F(n, S), least optimal split or 0) by the plain recursion over every split.

    Every split 1 <= m < n is scanned, with no window and no incremental-split
    argument, so it shares nothing with the package's layer pass and serves as
    the independent route that pass is checked against.
    """

    @functools.cache
    def solve(n, s):
        if s == 0 or (n >= 2 and s == 1):
            return INFINITE, 0
        if n == 1:
            return 1, 0
        best, best_m = INFINITE, 0
        for m in range(1, n):
            candidate = cost_sum(solve(m, s)[0], solve(n - m, s - 1)[0], solve(m, s - 1)[0])
            if candidate < best:
                best, best_m = candidate, m
        return best, best_m

    return solve


@pytest.fixture(scope="session")
def pairwise_nesting():
    """Intervals of square i contained in an interval of square i+1, found pairwise.

    Every interval of square i is compared with every interval of square i+1
    of an ``IntervalView``, in O(k**2) per square.  It shares nothing with the
    online detection in ``ReplayChecker`` and serves as its reference.
    """

    def nesting(view):
        found = []
        for i in range(1, view.n):
            for start, end in view.squares[i - 1]:
                for outer_start, outer_end in view.squares[i]:
                    if outer_start <= start and (
                        outer_end is None or (end is not None and end <= outer_end)
                    ):
                        found.append((i, (start, end)))
                        break
        return tuple(found)

    return nesting


class _ReferenceReplay:
    """A replay of signed squares on a set board, one move at a time.

    The plain per-move rules, with no batching and no state held in locals:
    the independent route ``ReplayChecker.feed_signed`` is checked against.
    Each remove's ``(square, (start, end))`` is kept in ``closed``.
    """

    def __init__(self, n, budget=None, initial=()):
        self.n = n
        self.budget = budget
        self.board = set(initial)
        self.open_start = {i: 0 for i in self.board}
        self.peak = len(self.board)
        self.steps = 0
        self.first_violation = None
        self.halted = False
        self.nesting = []
        self.closed = []

    def feed(self, value):
        place, i = value > 0, abs(value)
        if not 1 <= i <= self.n:
            raise ValueError(
                f"move {value:+d} references a square outside the {self.n}-square board"
            )
        self.steps += 1
        if self.halted:
            return
        step = self.steps
        if place == (i in self.board):
            return self._halt(step, "occupancy")
        if i != 1 and (i - 1) not in self.board:
            return self._halt(step, "add" if place else "remove")
        if place:
            self.board.add(i)
            self.open_start[i] = step
            self.peak = max(self.peak, len(self.board))
            if (
                self.budget is not None
                and len(self.board) > self.budget
                and self.first_violation is None
            ):
                self.first_violation = (step, "budget")
            return
        start = self.open_start.pop(i)
        self.board.discard(i)
        interval = (start, step - 1)
        if i + 1 in self.board and self.open_start[i + 1] <= start:
            self.nesting.append((i, interval))
        self.closed.append((i, interval))

    def _halt(self, step, rule):
        self.halted = True
        if self.first_violation is None:
            self.first_violation = (step, rule)


@pytest.fixture(scope="session")
def reference_replay():
    """The class of a per-move set-board replay, the reference for the replay core."""
    return _ReferenceReplay
