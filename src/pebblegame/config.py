"""Resource limits and the optional key=value config file.

The config file is located only through the ``PEBBLEGAME_CONFIG`` environment
variable; command-line flags override values from the file.
"""

import os
from typing import NamedTuple

CONFIG_ENV_VAR = "PEBBLEGAME_CONFIG"

DEFAULT_CELL_BUDGET = 25_000_000
DEFAULT_MATERIALIZATION_CAP = 2_000_000

class Limits(NamedTuple):
    cell_budget: int = DEFAULT_CELL_BUDGET
    materialization_cap: int = DEFAULT_MATERIALIZATION_CAP


def parse_config_text(text: str) -> dict:
    """Parse key=value lines; blank lines and '#' comments are ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in Limits._fields:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            number = int(value.strip())
        except ValueError:
            raise ValueError(f"config line {lineno}: {key} must be an integer") from None
        values[key] = number
    return values


def load_limits(cell_budget: int | None = None, materialization_cap: int | None = None) -> Limits:
    """Resolve limits: explicit argument > config file > built-in default.

    Every value given, by argument or in the file, must be positive: ValueError
    otherwise, even where an argument overrides the file's value.
    """
    from_file: dict = {}
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            with open(path, encoding="utf-8") as handle:
                from_file = parse_config_text(handle.read())
        except OSError as exc:
            raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    given = {
        key: value
        for key, value in zip(Limits._fields, (cell_budget, materialization_cap))
        if value is not None
    }
    for source, values in ((f"config file {path!r}: ", from_file), ("", given)):
        for key, value in values.items():
            if value < 1:
                raise ValueError(f"{source}{key} must be positive, got {value}")
    return Limits(**{**from_file, **given})
