"""Bennett's k-ary schedule: a published upper bound on F, built independently
of the recursion (Bennett, SIAM J. Comput. 18(4), 1989).

The schedule plays k**m squares with m(k-1)+1 pebbles in (2k-1)**m moves.
F is nondecreasing in n and does not rise with S, so (2k-1)**m bounds
F(n, S) for every n <= k**m and S >= m(k-1)+1.
"""

import pytest

from pebblegame import ReplayChecker


def bennett_schedule(k, m, offset=0):
    """The play of squares offset+1..offset+k**m, as signed squares: k sub-blocks
    forward, then the first k-1 of them backwards, in reverse order."""
    if m == 0:
        return [offset + 1]
    size = k ** (m - 1)
    blocks = [bennett_schedule(k, m - 1, offset + j * size) for j in range(k)]
    undo = [[-value for value in reversed(block)] for block in reversed(blocks[:-1])]
    return [value for block in blocks + undo for value in block]


@pytest.mark.parametrize("k, m", [(2, 3), (2, 6), (3, 3), (4, 3), (3, 5)])
def test_schedule_replays_valid_at_its_stated_cost(k, m):
    n, pebbles = k**m, m * (k - 1) + 1
    checker = ReplayChecker(n, budget=pebbles)
    checker.feed_signed(bennett_schedule(k, m))
    report = checker.finish(expected=frozenset({n}))
    assert report.valid, report.first_violation
    assert (report.step_count, report.peak_pebbles) == ((2 * k - 1) ** m, pebbles)


def test_schedule_bounds_every_cell_it_covers(tables_2048_16):
    t = tables_2048_16
    pairs = [
        (k, m)
        for k in range(2, t.nmax + 1)
        for m in range(1, 12)
        if k**m <= t.nmax and m * (k - 1) + 1 <= t.smax
    ]
    assert (2, 11) in pairs and (4, 5) in pairs
    for k, m in pairs:
        for s in range(m * (k - 1) + 1, t.smax + 1):
            for n in range(1, k**m + 1):
                assert t.f[n][s] <= (2 * k - 1) ** m, (k, m, n, s)


@pytest.mark.parametrize(
    "k, m, optimum",
    [(2, 3, 25), (2, 6, 531), (3, 3, 105), (4, 3, 293), (3, 5, 1937)],
)
def test_exact_optimum_beats_the_schedule(tables_2048_16, k, m, optimum):
    assert tables_2048_16.f[k**m][m * (k - 1) + 1] == optimum < (2 * k - 1) ** m
