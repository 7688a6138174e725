"""Exception types, exit codes and argument checks shared across the package.

Exit codes are a stable contract: 0 success/finite, 1 oracle disagreement (bfs
and dp), 2 unsolvable or invalid, 64 usage error, 65 resource limit.
"""

EXIT_OK = 0
EXIT_UNSOLVABLE = 2
EXIT_USAGE = 64
EXIT_RESOURCE = 65
EXIT_DISAGREE = 1


class CostOverflowError(ArithmeticError):
    """A finite move count would exceed the 64-bit cap."""


class ResourceLimitError(RuntimeError):
    """A configured limit (cell budget, materialization cap, search size) was exceeded."""


class UnsolvableError(ValueError):
    """The requested instance has no solution under the given pebble budget."""


class TableRangeError(ValueError):
    """A lookup needs entries beyond the extents of the supplied tables."""


def _check_int(name: str, value, least: int | None = None) -> None:
    """ValueError unless ``value`` is an int, not a bool, and at least ``least`` if given."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _validate(n: int, s: int) -> None:
    """The checks of a board (n >= 1) and a pebble budget (S >= 0)."""
    _check_int("n", n, 1)
    _check_int("S", s, 0)
