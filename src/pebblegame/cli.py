"""Command-line interface: the COMMANDS table, its parser and ``main``.

A process reads its command line by the COMMANDS table, not argparse.  Each command's
handler, ``cmd_<command>``, lives in the module whose engine it drives (``runs``, ``dp``,
``play``, ``oracle`` or ``analysis``; ``strategy`` is the library API alone), and ``main``
imports that one module after the parse and the limits load, so that a process compiles
only the code its command runs; the usage and help text (``usage``) load only for -h or a
usage error.  Exit codes are the contract of ``errors``.  Data goes to stdout, all of
it through ``print``, so a closed stdout is treated as /dev/null, as a cut pipe is;
diagnostics go to stderr, and identical invocations produce byte-identical output.  A
handler that cannot answer raises, and ``main`` alone turns the error into its stderr
line and exit code.
"""

import gc
import importlib
import itertools
import os
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
    """Ends a parse with (command, message): None for help, else a usage error."""


def _is_option(arg: str) -> bool:
    """A dash starts an option, but for a lone one and a negative number's."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].replace(".", "", 1).isdecimal()


def _convert(command: str, label: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _Stop(command, f"argument {label}: invalid int value: {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise _Stop(command, f"argument {label}: invalid choice: {text!r}")
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
                    raise _Stop(None, f"argument command: invalid choice: {arg!r}")
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
                raise _Stop(command, f"argument {name}: ignored explicit argument {value!r}")
            elif name in ("-h", "--help"):
                raise _Stop(command, None)
            else:
                if kind is not bool and not eq:
                    value = next(rest, None)
                    if value is None or _is_option(value):
                        raise _Stop(command, f"argument {name}: expected one argument")
                value = True if kind is bool else _convert(command, name, kind, value)
                values[name[2:].replace("-", "_")] = value
    if command is None:
        raise _Stop(None, "the following arguments are required: command")
    if missing := [label for label in positionals[len(free):] if label[0] != "["]:
        raise _Stop(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _Stop(command, f"unrecognized arguments: {' '.join(unknown)}")
    for label, value in itertools.zip_longest(positionals, free):
        values[label.strip("[]").lower()] = value
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command line and give its exit code.  The program (``argv`` None) reads
    sys.argv, flushes stdout and stderr and ends the process by ``os._exit``, with no
    interpreter teardown; called with a list, ``main`` returns the code."""
    if argv is not None:
        return _run(list(argv))
    gc.freeze()  # no collection walks the start-up heap
    code = _run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None where the stream was closed
                stream.flush()
        except BrokenPipeError:  # a cut pipe is /dev/null, as in the handler
            pass
    os._exit(code)


def _run(argv: list) -> int:
    try:
        command, args = _parse(argv)
        limits = config.load_limits(args.cell_budget, args.max_moves)
        module = importlib.import_module(f"{__package__}.{COMMANDS[command][0]}")
        return getattr(module, f"cmd_{command}")(args, limits)
    except _Stop as stop:
        from .usage import report

        return report(*stop.args)
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
