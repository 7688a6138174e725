"""Exact solver, strategy synthesizer, and bound evaluator for the
space-bounded reversible pebble game.

The public names below are loaded from their submodules on first access, so
importing the package (as every command-line run does) costs only what is
used.
"""

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "analysis": (
        "BEYOND_TABLE",
        "FGammaRow",
        "ThresholdRecord",
        "TsRecord",
        "entropy",
        "f_bound_lower_sum",
        "f_bound_upper_sum",
        "f_gamma",
        "f_gamma_report",
        "min_ts_auto",
        "threshold_record",
        "x_lower",
        "x_threshold",
        "x_upper",
    ),
    "config": (),
    "cost": ("INFINITE", "MAX_FINITE_COST", "Cost", "format_cost"),
    "dp": (
        "DpTables",
        "build_table",
        "delta",
        "f_cost",
        "is_solvable",
        "split_point",
        "table_delta",
    ),
    "errors": ("CostOverflowError", "ResourceLimitError", "TableRangeError", "UnsolvableError"),
    "oracle": ("bfs_min_time", "bfs_path"),
    "strategy": (
        "IntervalView",
        "Move",
        "ReplayChecker",
        "Strategy",
        "VerificationReport",
        "format_moves",
        "iter_strategy_moves",
        "parse_moves",
        "place",
        "remove",
        "reverse_strategy",
        "synthesize",
        "to_intervals",
        "verify",
    ),
}
# Name -> the submodule it comes from; a submodule's own name maps to itself.
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    from importlib import import_module

    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f"{__name__}.{source}")
    if name == source:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_SOURCES))
