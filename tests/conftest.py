import csv
import functools
from pathlib import Path

import pytest

from pebblegame import INFINITE, build_table, parse_cost
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
                values[n, s] = parse_cost(row[s])
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
