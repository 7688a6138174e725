"""Command-line interface.

Exit codes are a stable contract: 0 success/finite, 2 unsolvable or invalid,
64 usage error, 65 resource limit.  Data goes to stdout, diagnostics to
stderr, and identical invocations produce byte-identical output.  Each
command imports the modules it runs when it runs, so a process loads only
what its command needs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import config
from .cost import INFINITE, format_cost
from .errors import (
    CostOverflowError,
    ResourceLimitError,
    TableRangeError,
    UnsolvableError,
)

EXIT_OK = 0
EXIT_UNSOLVABLE = 2
EXIT_USAGE = 64
EXIT_RESOURCE = 65
EXIT_DISAGREE = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pebblegame", description="Exact pebble-game solver and analyzer.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cell-budget", type=int, default=None, help="max table cells (overrides config file)"
    )
    common.add_argument(
        "--max-moves", type=int, default=None, help="materialization cap (overrides config file)"
    )

    p = sub.add_parser("cost", parents=[common], help="minimum move count F(n,S)")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int, metavar="S")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("table", parents=[common], help="full F table up to (nmax, smax)")
    p.add_argument("nmax", type=int)
    p.add_argument("smax", type=int)
    p.add_argument("--format", choices=("plain", "csv", "tsv"), default="plain")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("strategy", parents=[common], help="emit an optimal play")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int, metavar="S")
    p.add_argument("--emit", choices=("moves", "intervals"), default="moves")
    p.add_argument("--verify", action="store_true", help="append a replay summary line")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("verify", parents=[common], help="replay a move list and report")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int, metavar="S")
    p.add_argument("file", nargs="?", default=None, help="moves file (default: stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", parents=[common], help="exhaustive-search cross-check")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int, metavar="S")
    p.add_argument("--path", action="store_true", help="also print a witness play")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", parents=[common], help="threshold and cost-bound rows")
    p.add_argument("s", type=int, metavar="S")
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tsmin", parents=[common], help="exact minimum of F(n,S)*S over S")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_tsmin)

    p = sub.add_parser("fgamma", parents=[common], help="normalized log-cost report on a gamma grid")
    p.add_argument("s", type=int, metavar="S")
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(func=cmd_fgamma)

    return parser


def cmd_cost(args, limits) -> int:
    from . import dp

    value, split = dp._cell(args.n, args.s, limits.cell_budget)
    print(f"F({args.n},{args.s}) = {format_cost(value)}")
    if value is not INFINITE and args.n >= 2:
        print(f"m({args.n},{args.s}) = {split}")
    return EXIT_OK if value is not INFINITE else EXIT_UNSOLVABLE


def _aligned(rows: list) -> str:
    """Rows of cells as text lines, each column right-justified to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(" ".join(map(str.rjust, row, widths)) + "\n" for row in rows)


def _render_table(tables, fmt: str) -> str:
    header = ["n"] + [f"S={s}" for s in range(1, tables.smax + 1)]
    rows = [header]
    for n in range(1, tables.nmax + 1):
        rows.append([str(n)] + [format_cost(tables.f[n][s]) for s in range(1, tables.smax + 1)])
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in rows)
    if fmt == "tsv":
        return "".join("\t".join(row) + "\n" for row in rows)
    return _aligned(rows)


def cmd_table(args, limits) -> int:
    from . import dp

    tables = dp.build_table(args.nmax, args.smax, cell_budget=limits.cell_budget)
    sys.stdout.write(_render_table(tables, args.format))
    return EXIT_OK


def _summary_line(report) -> str:
    valid = "true" if report.valid else "false"
    return f"T={report.step_count} peak={report.peak_pebbles} valid={valid}"


def cmd_strategy(args, limits) -> int:
    from . import dp, strategy

    n, s = args.n, args.s
    if not dp.is_solvable(n, s):
        print(
            f"unsolvable: n={n} needs more than S={s} pebbles (limit is n <= 2**(S-1))",
            file=sys.stderr,
        )
        return EXIT_UNSOLVABLE
    if s >= n:  # the ladder needs no table
        splits, total = None, dp._ladder(n)
    else:
        tables = dp.build_table(n, s, cell_budget=limits.cell_budget)
        splits, total = tables.m, tables.f[n][s]
    checker = strategy.ReplayChecker(n, budget=s)
    chunks = strategy._emit(n, s, splits)
    if args.emit == "intervals":
        if total > limits.materialization_cap:
            raise ResourceLimitError(
                f"interval view needs {total} moves materialized; cap is "
                f"{limits.materialization_cap} (the moves format streams instead)"
            )
        sys.stdout.write(strategy._replay_intervals(checker, chunks).to_text())
    else:
        write = sys.stdout.write
        for chunk in chunks:
            write(strategy._format_signed(chunk))
            if args.verify:
                checker.feed_signed(chunk)
    if args.verify:
        print(_summary_line(checker.finish(expected=frozenset({n}))))
    return EXIT_OK


def cmd_verify(args, limits) -> int:
    from . import strategy

    on_stdin = args.file in (None, "-")
    try:
        source = contextlib.nullcontext(sys.stdin) if on_stdin else open(args.file, encoding="utf-8")
        with source as stream:
            checker = strategy.ReplayChecker(args.n, budget=args.s)
            for chunk in strategy._iter_chunks(stream):
                if isinstance(chunk, list):
                    checker.feed_signed(chunk)
                else:
                    checker.feed(chunk)
    except OSError as exc:
        if on_stdin:
            raise
        raise ValueError(f"cannot read moves file {args.file!r}: {exc}") from exc
    report = checker.finish(expected=frozenset({args.n}))
    print(_summary_line(report))
    if report.first_violation is not None:
        step, rule = report.first_violation
        print(f"first violation: step {step} ({rule})", file=sys.stderr)
    return EXIT_OK if report.valid else EXIT_UNSOLVABLE


def cmd_oracle(args, limits) -> int:
    from . import dp, oracle

    bfs = oracle.bfs_min_time(args.n, args.s)
    dp_value = dp.f_cost(args.n, args.s, cell_budget=limits.cell_budget)
    agree = bfs == dp_value
    print(f"bfs={format_cost(bfs)} dp={format_cost(dp_value)} {'agree' if agree else 'disagree'}")
    if args.path and bfs is not INFINITE:
        witness = oracle.bfs_path(args.n, args.s)
        sys.stdout.write(witness.to_text())
    if not agree:
        return EXIT_DISAGREE
    return EXIT_OK if bfs is not INFINITE else EXIT_UNSOLVABLE


def cmd_bounds(args, limits) -> int:
    from . import analysis, dp

    s = args.s
    if s < 2:
        raise ValueError("bound evaluation needs S >= 2")
    kmax = s - 1 if args.kmax is None else args.kmax
    if not 1 <= kmax <= s - 1:
        raise ValueError(f"kmax must be in [1, S-1]; got {kmax} for S={s}")
    nmax = analysis.x_upper(kmax, s) + 1
    layer = dp._last_layer(nmax, s, limits.cell_budget)
    header = [
        "k", "x_lower", "x", "x_upper",
        "lower_sum", "F_lower", "le_ok",
        "upper_sum", "F_upper", "ge_ok",
    ]
    rows = [header]
    for k in range(1, kmax + 1):
        record = analysis.threshold_record(k, s, layer)
        lower_sum = analysis.f_bound_lower_sum(k, s)
        upper_sum = analysis.f_bound_upper_sum(k, s)
        f_lower = layer.cost(record.x_lower)
        f_upper = layer.cost(record.x_upper)
        rows.append(
            [
                str(k),
                str(record.x_lower),
                "beyond" if record.x is analysis.BEYOND_TABLE else str(record.x),
                str(record.x_upper),
                str(lower_sum),
                format_cost(f_lower),
                "ok" if f_lower <= lower_sum else "FAIL",
                str(upper_sum),
                format_cost(f_upper),
                "ok" if f_upper >= upper_sum else "FAIL",
            ]
        )
    sys.stdout.write(_aligned(rows))
    return EXIT_OK


def cmd_tsmin(args, limits) -> int:
    from . import analysis

    record = analysis.min_ts_auto(args.n, cell_budget=limits.cell_budget)
    if math.isnan(record.ratio):
        print(f"S={record.best_s} F={record.best_f} TS={record.product}")
    else:
        print(
            f"S={record.best_s} F={record.best_f} TS={record.product} ratio={record.ratio:.4f}"
        )
    return EXIT_OK


def cmd_fgamma(args, limits) -> int:
    from . import analysis, dp

    s = args.s
    if s < 1:
        raise ValueError("fgamma needs S >= 1")
    points = args.points
    if points < 1:
        raise ValueError("--points must be >= 1")
    gammas = [i / (2 * points) for i in range(1, points + 1)]
    solvable_cap = 2 ** (s - 1)
    nmax = 1
    for gamma in gammas:
        n = analysis._board_size(analysis.entropy(gamma), s)
        if 1 <= n <= solvable_cap:
            nmax = max(nmax, n)
    layer = dp._last_layer(nmax, s, limits.cell_budget)
    print("gamma H n f gap")
    for row in analysis.f_gamma_report(s, layer, gammas):
        if row.f_value is None:
            print(f"{row.gamma:.4f} {row.h:.6f} {row.n} - -")
        else:
            print(f"{row.gamma:.4f} {row.h:.6f} {row.n} {row.f_value:.6f} {row.gap:+.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        limits = config.load_limits(args.cell_budget, args.max_moves)
        return args.func(args, limits)
    except UnsolvableError as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except (ResourceLimitError, TableRangeError, CostOverflowError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
