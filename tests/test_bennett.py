"""Bennett's k-ary schedule: a published upper bound on F, built independently
of the recursion (Bennett, SIAM J. Comput. 18(4), 1989).

The schedule plays k**m squares with m(k-1)+1 pebbles in (2k-1)**m moves.
F is nondecreasing in n and does not rise with S, so (2k-1)**m bounds
F(n, S) for every n <= k**m and S >= m(k-1)+1.
"""

import random

import pytest

from pebblegame import ReplayChecker, runs


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


def test_schedule_bounds_sampled_cells_up_to_40_pebbles():
    # Every (k, m) with m(k-1)+1 from 17 to 40, at n = k**m and three seeded n
    # below it.  One pass of layers reaches n = 2**39 (k = 2 at S = 40), so the
    # cell budget is lifted for it.
    rng = random.Random(1989)
    cells = {}
    for s in range(17, 41):
        for k in range(2, s + 1):
            m, rest = divmod(s - 1, k - 1)
            if rest == 0:
                size = k**m
                for n in (size, *(rng.randint(1, size) for _ in range(3))):
                    cells.setdefault(s, []).append((k, m, n))
    nmax = max(n for group in cells.values() for _, _, n in group)
    assert nmax == 2**39
    for s, layer in enumerate(runs._layers(nmax, 40, nmax * 40), 1):
        for k, m, n in cells.get(s, ()):
            assert layer.cost(n) <= (2 * k - 1) ** m, (k, m, n, s)


@pytest.mark.parametrize(
    "k, m, optimum",
    [(2, 3, 25), (2, 6, 531), (3, 3, 105), (4, 3, 293), (3, 5, 1937)],
)
def test_exact_optimum_beats_the_schedule(tables_2048_16, k, m, optimum):
    assert tables_2048_16.f[k**m][m * (k - 1) + 1] == optimum < (2 * k - 1) ** m
