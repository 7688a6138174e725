"""What a command-line run imports, and the package's names loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pebblegame

SRC = Path(pebblegame.__file__).resolve().parent.parent

# Runs the CLI as the benchmark does, then lists the loaded modules on stderr.
PROBE = (
    "import sys; from pebblegame.cli import main; code = main(); "
    "print('modules:', *sorted(sys.modules), file=sys.stderr); sys.exit(code)"
)
BARE = "import sys; print('modules:', *sorted(sys.modules), file=sys.stderr)"

# Every name dir(pebblegame) listed when the package imported all its
# submodules up front, by the submodule that defines it, less the names
# since removed (min_ts, parse_cost).
PUBLIC_NAMES = {
    "analysis": """BEYOND_TABLE FGammaRow ThresholdRecord TsRecord entropy f_bound_lower_sum
        f_bound_upper_sum f_gamma f_gamma_report min_ts_auto threshold_record
        x_lower x_threshold x_upper""",
    "config": "",
    "cost": "INFINITE MAX_FINITE_COST Cost format_cost",
    "dp": "DpTables build_table delta f_cost is_solvable split_point table_delta",
    "errors": "CostOverflowError ResourceLimitError TableRangeError UnsolvableError",
    "oracle": "bfs_min_time bfs_path",
    "strategy": """IntervalView Move ReplayChecker Strategy VerificationReport format_moves
        iter_strategy_moves parse_moves place remove reverse_strategy synthesize
        to_intervals verify""",
}


def loaded_modules(code: str, *argv):
    """(exit code, stdout, modules loaded) of one run of ``code`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, set(done.stderr.rpartition("modules:")[2].split())


# The command line is read without argparse, which would bring gettext and locale.
PARSER = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv, last_line, absent",
    [
        (
            ("cost", "1", "1"),
            "F(1,1) = 1",
            {"dataclasses", "pebblegame.analysis", "pebblegame.oracle", "pebblegame.strategy"}
            | PARSER,
        ),
        (
            ("strategy", "8", "4", "--verify"),
            "T=25 peak=4 valid=true",
            {"dataclasses", "pebblegame.analysis"} | PARSER,
        ),
        (("tsmin", "9"), "S=5 F=25 TS=125 ratio=1.0660", {"pebblegame.strategy"} | PARSER),
        (
            ("table", "10", "4", "--format", "csv"),
            "10,inf,inf,inf,inf",
            {"pebblegame.analysis", "pebblegame.strategy"} | PARSER,
        ),
    ],
)
def test_a_command_loads_only_what_it_runs(argv, last_line, absent):
    code, out, modules = loaded_modules(PROBE, *argv)
    assert (code, out.splitlines()[-1]) == (0, last_line)
    assert "pebblegame.cli" in modules
    # Whatever the interpreter loads before any of our code is not ours.
    ours = modules - loaded_modules(BARE)[2]
    assert ours.isdisjoint(absent), sorted(ours & absent)


def test_public_names_resolve_to_their_submodule_objects():
    for module, names in PUBLIC_NAMES.items():
        submodule = importlib.import_module(f"pebblegame.{module}")
        assert getattr(pebblegame, module) is submodule
        for name in names.split():
            assert getattr(pebblegame, name) is getattr(submodule, name), name
    public = set(PUBLIC_NAMES).union(*(names.split() for names in PUBLIC_NAMES.values()))
    assert public | {"__version__"} <= set(dir(pebblegame))
    assert set(pebblegame.__all__) == public
    assert pebblegame.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        pebblegame.nothing
    assert not hasattr(pebblegame, "DEFAULT_CELL_BUDGET")
