"""Output checks: each returns a list of problems, empty when the output is right.

Values are compared with ``reference`` where the naive recursion covers the
cell (``ref.f`` / ``ref.m`` arrays), and with closed forms everywhere:
exit 2 iff n > 2**(S-1), F odd, F >= 2n - 1 with equality when S >= n, F
non-increasing in S, and the binomial threshold bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

import reference
from workloads import Op

EXIT_OK, EXIT_UNSOLVABLE, EXIT_RESOURCE = 0, 2, 65


@dataclass
class Outcome:
    codes: list[int]  # exit code of each process, in pipeline order
    stdout: str  # standard output of the last process
    stderr: str


class Ref:
    """The naive recursion's tables, and which cells they cover."""

    def __init__(self, nmax: int, smax: int):
        self.f, self.m = reference.costs(nmax, smax)
        self.nmax, self.smax = nmax, smax

    def covers(self, n: int, s: int) -> bool:
        return 1 <= n <= self.nmax and 1 <= s <= self.smax

    def cost(self, n: int, s: int) -> int | None:
        value = int(self.f[n, s])
        return None if value >= reference.INF else value


def solvable(n: int, s: int) -> bool:
    return s >= 1 and n <= 2 ** (s - 1)


def _cost_problems(n: int, s: int, value: int | None, ref: Ref) -> list[str]:
    where = f"F({n},{s})"
    if value is None:
        return [] if not solvable(n, s) else [f"{where} is inf but n <= 2**(S-1)"]
    problems = []
    if not solvable(n, s):
        problems.append(f"{where} = {value} but n > 2**(S-1)")
    if value % 2 == 0:
        problems.append(f"{where} = {value} is even")
    if value < 2 * n - 1 or (s >= n and value != 2 * n - 1):
        problems.append(f"{where} = {value} breaks the 2n-1 floor")
    if ref.covers(n, s) and ref.cost(n, s) != value:
        problems.append(f"{where} = {value}, reference says {ref.cost(n, s)}")
    return problems


def _exit(out: Outcome, expected: int) -> list[str]:
    bad = [code for code in out.codes if code != expected]
    if bad:
        return [f"exit {out.codes}, expected {expected}: {out.stderr.strip()[-200:]}"]
    return []


def check(op: Op, out: Outcome, ref: Ref) -> list[str]:
    """Problems with one operation's outcome."""
    if op.limit and out.codes[-1] == EXIT_RESOURCE:
        if out.stdout or not out.stderr.startswith("resource limit:"):
            return ["exit 65 without the resource-limit diagnostic alone"]
        return []
    try:
        return CHECKS[op.kind](op, out, ref)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]


def check_cost(op: Op, out: Outcome, ref: Ref) -> list[str]:
    _, n, s = op.args
    lines = out.stdout.splitlines()
    head = f"F({n},{s}) = "
    if not solvable(n, s):
        return _exit(out, EXIT_UNSOLVABLE) + (
            [] if lines == [head + "inf"] else [f"unsolvable output {lines!r}"]
        )
    problems = _exit(out, EXIT_OK)
    if not lines or not lines[0].startswith(head):
        return problems + [f"unexpected output {lines!r}"]
    value = int(lines[0][len(head):])
    problems += _cost_problems(n, s, value, ref)
    if ref.covers(n, s):
        split_line = [f"m({n},{s}) = {int(ref.m[n, s])}"] if n >= 2 else []
        if lines[1:] != split_line:
            problems.append(f"split lines {lines[1:]!r}, reference says {split_line!r}")
    return problems


def check_oracle(op: Op, out: Outcome, ref: Ref) -> list[str]:
    _, n, s = op.args
    expected = ref.cost(n, s)
    line = f"bfs={expected} dp={expected} agree"
    problems = _exit(out, EXIT_OK)
    if out.stdout != line + "\n":
        problems.append(f"oracle printed {out.stdout!r}, expected {line!r}")
    return problems


def parse_table(text: str, fmt: str, nmax: int, smax: int) -> np.ndarray:
    """Cells of a rendered table as int64 [n-1, S-1], with -1 for inf."""
    sep = {"plain": None, "csv": ",", "tsv": "\t"}[fmt]
    header, _, body = text.partition("\n")
    expected_header = ["n"] + [f"S={s}" for s in range(1, smax + 1)]
    if header.split(sep) != expected_header:
        raise ValueError(f"header {header[:80]!r}")
    if sep is not None:
        body = body.replace(sep, " ")
    body = body.replace("inf", "-1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        flat = np.fromstring(body, dtype=np.int64, sep=" ")
    if flat.size != nmax * (smax + 1):
        raise ValueError(f"{flat.size} numbers for a {nmax} x {smax} table")
    grid = flat.reshape(nmax, smax + 1)
    if not np.array_equal(grid[:, 0], np.arange(1, nmax + 1)):
        raise ValueError("row labels are not 1..nmax")
    return grid[:, 1:]


def check_table(op: Op, out: Outcome, ref: Ref) -> list[str]:
    _, nmax, smax, _, fmt = op.args
    problems = _exit(out, EXIT_OK)
    cells = parse_table(out.stdout, fmt, nmax, smax)
    n = np.arange(1, nmax + 1)[:, None]
    s = np.arange(1, smax + 1)[None, :]
    finite = cells >= 0
    if not np.array_equal(finite, n <= 2 ** (s - 1).astype(np.int64)):
        problems.append("inf cells do not match n > 2**(S-1)")
    if np.any(finite & (cells % 2 == 0)):
        problems.append("even cost in table")
    floor = 2 * n - 1
    if np.any(finite & (cells < floor)) or np.any((s >= n) & (cells != floor)):
        problems.append("cost below 2n-1, or not 2n-1 where S >= n")
    both = finite[:, 1:] & finite[:, :-1]
    if np.any(both & (cells[:, 1:] > cells[:, :-1])):
        problems.append("cost increases with S")
    rows, cols = min(nmax, ref.nmax), min(smax, ref.smax)
    expected = ref.f[1 : rows + 1, 1 : cols + 1]
    expected = np.where(expected >= reference.INF, -1, expected)
    if not np.array_equal(cells[:rows, :cols], expected):
        problems.append("table disagrees with the reference recursion")
    return problems


def _ratio(product: int, n: int) -> float:
    return math.log2(product / n) / (2.0 * math.sqrt(math.log2(n)))


def check_tsmin(op: Op, out: Outcome, ref: Ref) -> list[str]:
    n = op.args[1]
    problems = _exit(out, EXIT_OK)
    fields = dict(part.split("=") for part in out.stdout.split())
    s, value, product = int(fields["S"]), int(fields["F"]), int(fields["TS"])
    problems += _cost_problems(n, s, value, ref)
    if product != s * value:
        problems.append(f"TS={product} is not S*F")
    if n > 1 and fields.get("ratio") != f"{_ratio(product, n):.4f}":
        problems.append(f"ratio {fields.get('ratio')} for TS={product}")
    if n <= ref.nmax:
        products = [
            (ref.cost(n, t) * t, t)
            for t in range(reference.least_budget(n), ref.smax + 1)
        ]
        best = min(products)
        # Past smax, F >= 2n-1 must price every budget above the best.
        if (2 * n - 1) * (ref.smax + 1) < best[0]:
            raise ValueError(f"reference too shallow to certify tsmin {n}")
        if (product, s) != best:
            problems.append(f"tsmin {n}: S={s} TS={product}, reference says {best[::-1]}")
    return problems


def check_fgamma(op: Op, out: Outcome, ref: Ref) -> list[str]:
    s = op.args[1]
    problems = _exit(out, EXIT_OK)
    lines = out.stdout.splitlines()
    if lines[0] != "gamma H n f gap" or len(lines) != 26:
        return problems + [f"fgamma layout: {lines[:2]!r}, {len(lines)} lines"]
    for i, line in enumerate(lines[1:], 1):
        gamma_text, h_text, n_text, f_text, gap_text = line.split()
        gamma = i / 50
        h = reference.entropy(gamma)
        n = math.floor(2 ** (h * s))
        if (gamma_text, h_text, int(n_text)) != (f"{gamma:.4f}", f"{h:.6f}", n):
            problems.append(f"fgamma row {i}: {line!r}")
            continue
        if not solvable(n, s):
            if (f_text, gap_text) != ("-", "-"):
                problems.append(f"fgamma row {i} should be infeasible: {line!r}")
            continue
        f_value = float(f_text)
        if ref.covers(n, s):
            if abs(f_value - math.log2(ref.cost(n, s)) / s) > 1e-6:
                problems.append(f"fgamma row {i}: f={f_text}, reference F={ref.cost(n, s)}")
        elif f_value < math.log2(2 * n - 1) / s - 1e-6:
            problems.append(f"fgamma row {i}: f={f_text} below the 2n-1 floor")
        if abs(float(gap_text) - (f_value - (gamma + h))) > 2e-6:
            problems.append(f"fgamma row {i}: gap {gap_text}")
    return problems


def _threshold_problems(k: int, s: int, x: int | None, ref: Ref) -> list[str]:
    """Compare x (None for 'beyond') with the least n the reference shows."""
    if s > ref.smax or ref.nmax < 2:
        return []
    f = [ref.cost(n, s) for n in range(1, ref.nmax + 1)]
    for n in range(1, ref.nmax):
        if f[n] is None or f[n] - f[n - 1] > 2**k:
            return [] if x == n else [f"x(k={k},S={s}) = {x}, reference says {n}"]
    if x is not None and x < ref.nmax:
        return [f"x(k={k},S={s}) = {x}, reference shows none below {ref.nmax}"]
    return []


def check_bounds(op: Op, out: Outcome, ref: Ref) -> list[str]:
    s = op.args[1]
    problems = _exit(out, EXIT_OK)
    lines = [line.split() for line in out.stdout.splitlines()]
    if lines[0][:2] != ["k", "x_lower"] or len(lines) != s:
        return problems + [f"bounds layout: {len(lines)} lines"]
    for k, row in enumerate(lines[1:], 1):
        k_text, xl, x, xu, ls, f_lower, le_ok, us, f_upper, ge_ok = row
        lo, hi = reference.x_lower(k, s), reference.x_upper(k, s)
        low_sum, up_sum = reference.lower_sum(k, s), reference.upper_sum(k, s)
        if [int(k_text), int(xl), int(xu), int(ls), int(us)] != [k, lo, hi, low_sum, up_sum]:
            problems.append(f"bounds k={k}: closed forms differ: {row!r}")
            continue
        threshold = None if x == "beyond" else int(x)
        if threshold is not None and not lo <= threshold <= hi:
            problems.append(f"bounds k={k}: x={threshold} outside [{lo}, {hi}]")
        problems += _threshold_problems(k, s, threshold, ref)
        for n, text in ((lo, f_lower), (hi, f_upper)):
            problems += _cost_problems(n, s, None if text == "inf" else int(text), ref)
        if le_ok != ("ok" if int(f_lower) <= low_sum else "FAIL"):
            problems.append(f"bounds k={k}: le_ok={le_ok}")
        if ge_ok != ("ok" if int(f_upper) >= up_sum else "FAIL"):
            problems.append(f"bounds k={k}: ge_ok={ge_ok}")
    return problems


def _summary_problems(n: int, s: int, line: str, ref: Ref) -> list[str]:
    expected = ref.cost(n, s)
    fields = dict(part.split("=") for part in line.split())
    if int(fields["T"]) != expected or int(fields["peak"]) > s or fields["valid"] != "true":
        return [f"play ({n},{s}) summary {line!r}, expected T={expected} peak<={s} valid"]
    return []


def _replay_problems(n: int, s: int, replay: reference.Replay, line: str, ref: Ref) -> list[str]:
    problems = _summary_problems(n, s, line, ref)
    fields = dict(part.split("=") for part in line.split())
    if not replay.solved():
        problems.append(f"play ({n},{s}) does not solve the game: {replay.error}")
    if replay.steps != int(fields["T"]) or replay.peak != int(fields["peak"]):
        problems.append(f"play ({n},{s}) replays to T={replay.steps} peak={replay.peak}")
    return problems


def check_pipeline(op: Op, out: Outcome, ref: Ref) -> list[str]:
    _, n, s = op.args
    return _exit(out, EXIT_OK) + _summary_problems(n, s, out.stdout.strip(), ref)


def check_strategy_verify(op: Op, out: Outcome, ref: Ref) -> list[str]:
    n, s = op.args[1], op.args[2]
    lines = out.stdout.splitlines()
    replay = reference.Replay(n)
    replay.moves_text(lines[:-1])
    return _exit(out, EXIT_OK) + _replay_problems(n, s, replay, lines[-1], ref)


def check_intervals(op: Op, out: Outcome, ref: Ref) -> list[str]:
    """Rebuild the moves from the residence intervals, then replay them."""
    n, s = op.args[1], op.args[2]
    lines = out.stdout.splitlines()
    if len(lines) != n + 1:
        return _exit(out, EXIT_OK) + [f"intervals: {len(lines)} lines for n={n}"]
    events = {}
    for i, line in enumerate(lines[:-1], 1):
        label, _, rest = line.partition(":")
        if label != f"s{i}":
            return [f"intervals line {i} is {line[:40]!r}"]
        for interval in rest.split():
            start, end = interval.strip("[)]").split(",")
            events.setdefault(int(start), []).append((True, i))
            if end:
                events.setdefault(int(end) + 1, []).append((False, i))
    replay = reference.Replay(n)
    for step in range(1, max(events, default=0) + 1):
        moves = events.get(step, [])
        if len(moves) != 1:
            return [f"intervals: {len(moves)} moves at step {step}"]
        replay.move(*moves[0])
    return _exit(out, EXIT_OK) + _replay_problems(n, s, replay, lines[-1], ref)


CHECKS = {
    "cost": check_cost,
    "oracle": check_oracle,
    "table": check_table,
    "tsmin": check_tsmin,
    "fgamma": check_fgamma,
    "bounds": check_bounds,
    "pipeline": check_pipeline,
    "strategy_verify": check_strategy_verify,
    "intervals": check_intervals,
}
