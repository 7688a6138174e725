"""Command-line interface.

Exit codes are a stable contract: 0 success/finite, 2 unsolvable or invalid,
64 usage error, 65 resource limit.  Data goes to stdout, diagnostics to
stderr, and identical invocations produce byte-identical output.  A process
reads its command line by the COMMANDS table, not argparse, and imports only
the modules its command runs, so that start-up stays small.  A handler
that cannot answer raises, and ``main`` alone turns the error into its
stderr line and exit code.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from types import SimpleNamespace

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


def cmd_cost(args, limits) -> int:
    from . import dp

    value, split = dp._cell(args.n, args.s, limits.cell_budget)
    print(f"F({args.n},{args.s}) = {format_cost(value)}")
    if value is not INFINITE and args.n >= 2:
        print(f"m({args.n},{args.s}) = {split}")
    return EXIT_OK if value is not INFINITE else EXIT_UNSOLVABLE


# Rows of `table` formatted and written at a time.
TABLE_BLOCK = 2048


def cmd_table(args, limits) -> int:
    """Write F for n = 1..nmax, S = 1..smax, by solvability bands.

    F(n, S) is finite exactly where n <= top(S) = min(2**(S-1), nmax), so
    in row n the "inf" columns are the prefix S = 1..k, and that prefix is
    the same in every row of the band top(k) < n <= top(k+1).  Each band's
    line has those cells written in; only the finite layers' costs are
    formatted into it, TABLE_BLOCK rows per write.  The prefix holds only
    while tops never fall with S, which is checked.
    """
    from . import dp

    nmax = args.nmax
    layers = dp._table_layers(nmax, args.smax, limits.cell_budget)
    tops = [layer.top for layer in layers]
    if any(top > after for top, after in zip(tops, tops[1:])):
        raise ArithmeticError(f"layer tops {tops} fall with S: the infinite cells are not a prefix")
    header = ["n"] + [f"S={layer.s}" for layer in layers]
    if args.format == "plain":
        # F rises in n, so a column is as wide as its header or its last
        # finite cell; "inf" is no wider than "S=1", nor "n" than nmax.
        widths = [len(str(nmax))] + [
            max(len(head), len(str(layer.cost(layer.top))))
            for head, layer in zip(header[1:], layers)
        ]
        sep, header = " ", map(str.rjust, header, widths)
        cells = [f"%{width}s" for width in widths]
        infinite = ["inf".rjust(width) for width in widths[1:]]
    else:
        sep = {"csv": ",", "tsv": "\t"}[args.format]
        cells, infinite = ["%s"] * len(header), ["inf"] * len(layers)
    write = sys.stdout.write
    write(sep.join(header) + "\n")
    costs = [layer.costs() for layer in layers]
    first = 1
    for k, last in enumerate(tops + [nmax]):  # band k: rows first..last
        line = sep.join([cells[0], *infinite[:k], *cells[k + 1:]]) + "\n"
        rows = zip(range(first, last + 1), *costs[k:])
        width = len(layers) - k + 1
        while values := tuple(itertools.chain.from_iterable(itertools.islice(rows, TABLE_BLOCK))):
            write(line * (len(values) // width) % values)
        first = last + 1
    return EXIT_OK


def _summary_line(report) -> str:
    valid = "true" if report.valid else "false"
    return f"T={report.step_count} peak={report.peak_pebbles} valid={valid}"


def cmd_strategy(args, limits) -> int:
    from . import strategy

    n, s = args.n, args.s
    split, total = strategy._play_splits(n, s, limits.cell_budget)
    checker = strategy.ReplayChecker(n, budget=s)
    chunks = strategy._emit(n, s, split)
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

    if args.path:  # one search: the distance is the witness's length
        witness = oracle.bfs_path(args.n, args.s)
        bfs = INFINITE if witness is None else witness.step_count
    else:
        witness, bfs = None, oracle.bfs_min_time(args.n, args.s)
    dp_value = dp.f_cost(args.n, args.s, cell_budget=limits.cell_budget)
    agree = bfs == dp_value
    print(f"bfs={format_cost(bfs)} dp={format_cost(dp_value)} {'agree' if agree else 'disagree'}")
    if witness is not None:
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
    widths = [max(map(len, column)) for column in zip(*rows)]
    sys.stdout.write("".join(" ".join(map(str.rjust, row, widths)) + "\n" for row in rows))
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
    if points > limits.materialization_cap:
        raise ResourceLimitError(
            f"gamma grid needs {points} points materialized; cap is {limits.materialization_cap}"
        )
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


# Each command's handler, help line, positionals and own options; each also
# takes the _LIMITS options.  Positionals are integers, but for a last "[file]":
# a string that may be left out.  An option maps to (kind, default, help), the
# kind being int, a tuple of the words it accepts, or bool for a flag.
_LIMITS = {
    "--cell-budget": (int, None, "max table cells (overrides config file)"),
    "--max-moves": (int, None, "materialization cap (overrides config file)"),
}
COMMANDS = {
    "cost": (cmd_cost, "minimum move count F(n,S)", ("n", "S"), {}),
    "table": (cmd_table, "full F table up to (nmax, smax)", ("nmax", "smax"), {
        "--format": (("plain", "csv", "tsv"), "plain", "row format (default plain)"),
    }),
    "strategy": (cmd_strategy, "emit an optimal play", ("n", "S"), {
        "--emit": (("moves", "intervals"), "moves", "what to print (default moves)"),
        "--verify": (bool, False, "append a replay summary line"),
    }),
    "verify": (cmd_verify, "replay a move list (default stdin)", ("n", "S", "[file]"), {}),
    "oracle": (cmd_oracle, "exhaustive-search cross-check", ("n", "S"), {
        "--path": (bool, False, "also print a witness play"),
    }),
    "bounds": (cmd_bounds, "threshold and cost-bound rows", ("S",), {
        "--kmax": (int, None, "last k (default S-1)"),
    }),
    "tsmin": (cmd_tsmin, "exact minimum of F(n,S)*S over S", ("n",), {}),
    "fgamma": (cmd_fgamma, "normalized log-cost report on a gamma grid", ("S",), {
        "--points": (int, 25, "gamma grid points (default 25)"),
    }),
}


class _Stop(Exception):
    """Ends a parse with (exit code, text): 0 and help, or 64 and a usage error."""


def _label(name: str, kind) -> str:
    """An option as usage and help show it: its name, then the values it takes."""
    values = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else "N"
    return name if kind is bool else f"{name} {values}"


def _usage(command: str | None, full: bool = False) -> str:
    """The usage line of the program or of a command; ``full`` adds the help."""
    if command is None:
        title = "Exact pebble-game solver and analyzer."
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
        words = ["[-h]", "{" + ",".join(COMMANDS) + "}", "..."]
    else:
        _, title, positionals, options = COMMANDS[command]
        specs = {**_LIMITS, **options}.items()
        rows = [(_label(name, kind), text) for name, (kind, _, text) in specs]
        words = [command, "[-h]", *(f"[{label}]" for label, _ in rows), *positionals]
    text = " ".join(["usage: pebblegame", *words]) + "\n"
    if full:
        width = max(len(label) for label, _ in rows) + 2
        text += f"\n{title}\n\n" + "".join(f"  {label:<{width}}{line}\n" for label, line in rows)
    return text


def _error(command: str | None, message: str) -> _Stop:
    prog = "pebblegame" if command is None else f"pebblegame {command}"
    return _Stop(EXIT_USAGE, f"{_usage(command)}{prog}: error: {message}\n")


def _is_option(arg: str) -> bool:
    """A dash starts an option, but for a lone one and a negative number's."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()


def _convert(command: str, label: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _error(command, f"argument {label}: invalid int value: {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise _error(command, f"argument {label}: invalid choice: {text!r}")
    return text


def _parse(argv: list) -> tuple:
    """(handler, args) of a command line, read by the COMMANDS table.

    The command comes first.  Options may come before, between or after the
    positionals, as ``--opt value``, ``--opt=value`` or a unique prefix of
    ``--opt``; the last of a repeated option wins, and ``--`` ends them.  Each
    value is converted where it is read, so the first bad one is reported, and
    -h or --help stops the parse where it stands.
    """
    command, handler, positionals, options, values = None, None, (), {}, {}
    free, unknown, ended = [], [], False
    rest = iter(argv)
    for arg in rest:
        if arg == "--" and not ended:
            ended = True
        elif ended or not _is_option(arg):
            if command is None:
                if arg not in COMMANDS:
                    raise _error(None, f"argument command: invalid choice: {arg!r}")
                command, (handler, _, positionals, own) = arg, COMMANDS[arg]
                options = {**_LIMITS, **own}
                values = {name[2:].replace("-", "_"): entry[1] for name, entry in options.items()}
            elif len(free) < len(positionals):
                label = positionals[len(free)]
                free.append(_convert(command, label, str if label[0] == "[" else int, arg))
            else:
                unknown.append(arg)
        else:
            prefix, eq, value = arg.partition("=")
            found = [name for name in ("-h", "--help", *options) if name.startswith(prefix)]
            name = found[0] if len(found) == 1 else None
            kind = options[name][0] if name in options else bool
            if name is None:
                unknown.append(arg)
            elif kind is bool and eq:
                raise _error(command, f"argument {name}: ignored explicit argument {value!r}")
            elif name in ("-h", "--help"):
                raise _Stop(EXIT_OK, _usage(command, full=True))
            else:
                if kind is not bool and not eq:
                    value = next(rest, None)
                    if value is None or _is_option(value):
                        raise _error(command, f"argument {name}: expected one argument")
                value = True if kind is bool else _convert(command, name, kind, value)
                values[name[2:].replace("-", "_")] = value
    if command is None:
        raise _error(None, "the following arguments are required: command")
    if missing := [label for label in positionals[len(free):] if label[0] != "["]:
        raise _error(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _error(command, f"unrecognized arguments: {' '.join(unknown)}")
    for label, value in itertools.zip_longest(positionals, free):
        values[label.strip("[]").lower()] = value
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        limits = config.load_limits(args.cell_budget, args.max_moves)
        return handler(args, limits)
    except _Stop as stop:
        code, text = stop.args
        (sys.stdout if code == EXIT_OK else sys.stderr).write(text)
        return code
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
