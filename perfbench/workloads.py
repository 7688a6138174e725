"""Seeded operation lists for the three workloads.

Every list is drawn from ``random.Random(seed)`` alone, so one seed always
gives the same operations.  Sizes and budgets are drawn by stratified
sampling: the heavy end of each distribution lands in every run in the same
proportion, so that runs with different seeds cost about the same while
their inputs differ.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

from reference import least_budget

GOLDEN_RATIO_FRAC = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Op:
    kind: str  # cost, oracle, table, tsmin, fgamma, bounds, strategy_verify, pipeline, intervals
    args: tuple  # command-line arguments after the program name
    limit: bool = False  # exit 65 (resource limit) is an accepted outcome

    def argv(self) -> list[str]:
        return [str(arg) for arg in self.args]


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [0, 1), in order.

    Neighbouring slices take mirrored offsets (r, 1 - r), so that where cost
    grows smoothly with the drawn value, a pair costs about the same in
    every run.
    """
    offsets = []
    while len(offsets) < count:
        r = rng.random()
        offsets += [r, 1 - r]
    return [(j + offsets[j]) / count for j in range(count)]


def _paired(rng: random.Random, count: int) -> list[float]:
    """A second coordinate for ``count`` sorted strata: a Latin hypercube.

    Stratum j gets slice (j * step) mod count of [0, 1), where step / count
    is near the golden ratio, and a seeded point inside that slice.  So the
    largest operations get budgets spread over the whole range, and the same
    slices in every run.
    """
    step = round(count * GOLDEN_RATIO_FRAC)
    while math.gcd(step, count) != 1:
        step += 1
    return [((j * step) % count + rng.random()) / count for j in range(count)]


def _pick(lo: int, hi: int, q: float) -> int:
    return lo + min(hi - lo, int(q * (hi - lo + 1)))


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def point_queries(seed: int) -> list[Op]:
    """Two-thirds `cost` (57 solvable, 10 unsolvable) and 33 `oracle` queries."""
    rng = random.Random(seed)
    ops = []
    sizes = sorted(
        (max(1, min(4096, round(_log_uniform(1, 4096, u)))) for u in _strata(rng, 57)),
        reverse=True,
    )
    for n, q in zip(sizes, _paired(rng, len(sizes))):
        ops.append(Op("cost", ("cost", n, _pick(least_budget(n), max(1, min(n, 20)), q))))
    for _ in range(10):
        s = rng.randint(1, 12)
        ops.append(Op("cost", ("cost", rng.randint(2 ** (s - 1) + 1, min(4096, 2 ** (s + 1))), s)))
    # Boards are fixed, about two per n: BFS time doubles with each square.
    boards = [2 + 17 * (2 * j + 1) // 66 for j in range(32, -1, -1)]
    for n, q in zip(boards, _paired(rng, len(boards))):
        ops.append(Op("oracle", ("oracle", n, _pick(least_budget(n), n, q))))
    rng.shuffle(ops)
    return ops


CELL_BUDGET_LIMIT = 2_000_000
# bulk-tables: five large operations, a band of BULK_BAND tables of about
# BULK_BAND_CELLS cells each (formats in turn), and small queries: tables
# (a third per format) and BULK_SMALL_EACH each of tsmin, fgamma and bounds.
BULK_BAND, BULK_BAND_CELLS = 7, 400_000
BULK_SMALL_TABLES, BULK_SMALL_EACH = 30, 16


def bulk_tables(seed: int) -> list[Op]:
    """Large tables in all three formats, `tsmin` 20000, `fgamma`, `bounds`, a
    limit case, and small queries of the same commands.

    Five operations take about a second or more, the seven of the band about half
    a second, and 78 are small, bound by start-up.  Of 90 operations, the
    90th percentile lies between the 3rd and 4th of the band, and the median
    among the small ones: neither is the time of one large operation.
    """
    rng = random.Random(seed)
    # The largest table is plain, the default format; smax falls as nmax
    # rises, so its cell count varies little.
    r = rng.random()
    nmax, smax = 90_000 + round(10_000 * r), 24 - round(4 * r)
    ops = [Op("table", ("table", nmax, smax, "--format", "plain"))]
    # Fixed: below about n = 19,900 the answer is certified one table
    # doubling earlier, which halves the work, so a seeded n would make runs
    # differ by whole seconds.
    ops.append(Op("tsmin", ("tsmin", 20_000)))
    # Fails late today: builds tables for seconds, then exits 65.
    ops.append(Op("tsmin", ("tsmin", 20_000, "--cell-budget", CELL_BUDGET_LIMIT), limit=True))
    # fgamma and bounds cost double with each pebble: the large ones are
    # fixed, at about a second each.
    ops.append(Op("fgamma", ("fgamma", 18)))
    ops.append(Op("bounds", ("bounds", 17)))
    # smax >= 32 keeps nearly every cell finite: infinite cells cost almost
    # nothing, so a wide short table would be cheaper.
    for j, u in enumerate(_strata(rng, BULK_BAND)):
        nmax = round(_log_uniform(10_000, 12_500, u))
        fmt = ("plain", "csv", "tsv")[j % 3]
        ops.append(Op("table", ("table", nmax, BULK_BAND_CELLS // nmax, "--format", fmt)))
    sizes = [round(_log_uniform(10, 1000, u)) for u in _strata(rng, BULK_SMALL_TABLES)]
    for j, (nmax, q) in enumerate(zip(sizes, _paired(rng, BULK_SMALL_TABLES))):
        fmt = ("plain", "csv", "tsv")[j % 3]
        ops.append(Op("table", ("table", nmax, _pick(4, 20, q), "--format", fmt)))
    ops += [
        Op("tsmin", ("tsmin", round(_log_uniform(2, 256, u))))
        for u in _strata(rng, BULK_SMALL_EACH)
    ]
    for command in ("fgamma", "bounds"):
        ops += [Op(command, (command, _pick(3, 10, u))) for u in _strata(rng, BULK_SMALL_EACH)]
    rng.shuffle(ops)
    return ops


PLAY_N_MAX = 2**14
# Per play kind: small plays with n log-uniform in [2, 2**8], bound by
# start-up, and medium plays drawn from the (n, S) pairs whose F lies in
# PLAY_MEDIUM_MOVES.
PLAY_SMALL = {"pipeline": 4, "strategy_verify": 17, "intervals": 17}
PLAY_MEDIUM = {"pipeline": 1, "strategy_verify": 1, "intervals": 1}
PLAY_MEDIUM_MOVES = (5_000, 15_000)
# A band of `--verify` plays whose F lies in PLAY_BAND_MOVES: slower than
# every small or medium play, faster than the 2**14 pipeline.
PLAY_BAND, PLAY_BAND_MOVES = 7, (50_000, 60_000)


def _moves_between(plays: list, lo: int, hi: int) -> list:
    return plays[bisect.bisect_left(plays, (lo,)) : bisect.bisect_right(plays, (hi + 1,))]


def play_stream(seed: int, f) -> list[Op]:
    """Small and medium plays of each kind, a band of like `--verify` plays,
    and the 2**14 pipeline.

    ``f[n, S]`` must give F(n, S) for n <= 2**14 and S <= 19; S is in
    [least solvable, least solvable + 4].

    There are 49 operations: 41 small or medium, the 7 of the band and the
    2**14 pipeline.  So the median operation is one of many small ones, and
    the 90th percentile is the 4th of the band: neither is the time of one
    long operation.
    """
    rng = random.Random(seed)
    plays = sorted(
        (int(f[n, s]), n, s)
        for n in range(2, PLAY_N_MAX + 1)
        for s in range(least_budget(n), least_budget(n) + 5)
    )
    medium = _moves_between(plays, *PLAY_MEDIUM_MOVES)
    band = _moves_between(plays, *PLAY_BAND_MOVES)
    top = least_budget(PLAY_N_MAX)
    ops = [Op("pipeline", ("strategy", PLAY_N_MAX, top))]
    # The band is drawn one play per slice of its range, sorted by F, so
    # that its total moves vary little between seeds.
    for u in _strata(rng, PLAY_BAND):
        _, n, s = band[int(u * len(band))]
        ops.append(Op("strategy_verify", ("strategy", n, s, "--verify")))
    for kind in ("pipeline", "strategy_verify", "intervals"):
        draws = []
        for u in _strata(rng, PLAY_SMALL[kind]):
            n = round(_log_uniform(2, 2**8, u))
            draws.append((n, rng.randint(least_budget(n), least_budget(n) + 4)))
        draws += [(n, s) for _, n, s in rng.sample(medium, PLAY_MEDIUM[kind])]
        for n, s in draws:
            if kind == "intervals":
                args = ("strategy", n, s, "--emit", "intervals", "--verify")
            elif kind == "strategy_verify":
                args = ("strategy", n, s, "--verify")
            else:
                args = ("strategy", n, s)
            ops.append(Op(kind, args))
    rng.shuffle(ops)
    return ops
