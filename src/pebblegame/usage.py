"""Usage and help text of the command line, loaded only for -h or a usage error."""

import sys

from .cli import _LIMITS, COMMANDS
from .errors import EXIT_OK, EXIT_USAGE


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


def report(command: str | None, message: str | None) -> int:
    """Print the help of the program or of a command to stdout (``message`` None) and
    return 0, or its usage and the error ``message`` to stderr and return 64."""
    if message is None:
        print(_usage(command, full=True), end="")
        return EXIT_OK
    prog = "pebblegame" if command is None else f"pebblegame {command}"
    print(f"{_usage(command)}{prog}: error: {message}", file=sys.stderr)
    return EXIT_USAGE
