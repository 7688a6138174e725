"""Command-line interface: the COMMANDS table, its parser, usage and ``main``.

A process reads its command line by the COMMANDS table, not argparse.  Each command's
handler, ``cmd_<command>``, lives in the module whose engine it drives (``runs``, ``dp``,
``play``, ``oracle`` or ``analysis``; ``strategy`` is the library API alone), and ``main``
imports that one module after the parse and the limits load, so that a process compiles
only the code its command runs.  Exit codes are the contract of ``errors``.  Data goes to stdout, all of
it through ``print``, so a closed stdout is treated as /dev/null, as a cut pipe is;
diagnostics go to stderr, and identical invocations produce byte-identical output.  A
handler that cannot answer raises, and ``main`` alone turns the error into its stderr
line and exit code.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import sys
from types import SimpleNamespace

from . import config
from .errors import EXIT_OK, EXIT_RESOURCE, EXIT_UNSOLVABLE, EXIT_USAGE
from .errors import CostOverflowError, ResourceLimitError, TableRangeError, UnsolvableError

# Each command's module, help line, positionals and own options; each also
# takes the _LIMITS options.  Positionals are integers, but for a last "[file]":
# a string that may be left out.  An option maps to (kind, default, help), the
# kind being int, a tuple of the words it accepts, or bool for a flag.
_LIMITS = {
    "--cell-budget": (int, None, "max table cells (overrides config file)"),
    "--max-moves": (int, None, "materialization cap (overrides config file)"),
}
COMMANDS = {
    "cost": ("runs", "minimum move count F(n,S)", ("n", "S"), {}),
    "table": ("dp", "full F table up to (nmax, smax)", ("nmax", "smax"), {
        "--format": (("plain", "csv", "tsv"), "plain", "row format (default plain)"),
    }),
    "strategy": ("play", "emit an optimal play", ("n", "S"), {
        "--emit": (("moves", "intervals"), "moves", "what to print (default moves)"),
        "--verify": (bool, False, "append a replay summary line"),
    }),
    "verify": ("play", "replay a move list (default stdin)", ("n", "S", "[file]"), {}),
    "oracle": ("oracle", "exhaustive-search cross-check", ("n", "S"), {
        "--path": (bool, False, "also print a witness play"),
    }),
    "bounds": ("analysis", "threshold and cost-bound rows", ("S",), {
        "--kmax": (int, None, "last k (default S-1)"),
    }),
    "tsmin": ("analysis", "exact minimum of F(n,S)*S over S", ("n",), {}),
    "fgamma": ("analysis", "normalized log-cost report on a gamma grid", ("S",), {
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
    """(command, args) of a command line, read by the COMMANDS table.

    The command comes first.  Options may come before, between or after the
    positionals, as ``--opt value``, ``--opt=value`` or a unique prefix of
    ``--opt``; the last of a repeated option wins, and ``--`` ends them.  Each
    value is converted where it is read, so the first bad one is reported, and
    -h or --help stops the parse where it stands.
    """
    command, positionals, options, values = None, (), {}, {}
    free, unknown, ended = [], [], False
    rest = iter(argv)
    for arg in rest:
        if arg == "--" and not ended:
            ended = True
        elif ended or not _is_option(arg):
            if command is None:
                if arg not in COMMANDS:
                    raise _error(None, f"argument command: invalid choice: {arg!r}")
                command, (_, _, positionals, own) = arg, COMMANDS[arg]
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
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:  # the program: no collection walks the start-up heap, nor the one at exit
        gc.freeze()
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        limits = config.load_limits(args.cell_budget, args.max_moves)
        module = importlib.import_module(f"{__package__}.{COMMANDS[command][0]}")
        return getattr(module, f"cmd_{command}")(args, limits)
    except _Stop as stop:
        code, text = stop.args
        print(text, end="", file=sys.stdout if code == EXIT_OK else sys.stderr)
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
