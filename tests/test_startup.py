"""What a command-line run imports, and the package's names loaded on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pebblegame

SRC = Path(pebblegame.__file__).resolve().parent.parent

# Runs the CLI as the benchmark does.  The program ends the process by os._exit,
# patched here to list the loaded modules on stderr first.
PROBE = """\
import os, sys
from pebblegame.cli import main
def exit_(code, exit=os._exit):
    print('modules:', *sorted(sys.modules), file=sys.stderr, flush=True)
    exit(code)
os._exit = exit_
sys.exit(main())
"""
BARE = "import sys; print('modules:', *sorted(sys.modules), file=sys.stderr)"
# The stdin of every run: verify replays it, the other commands leave it unread.
PLAY = "+1\n+2\n-1\n"

# Every name dir(pebblegame) listed when the package imported all its
# submodules up front, by the submodule the package exports it from (which
# need not define it: the runs names under dp and Move under strategy are
# imported there from runs and play), less the names since removed (min_ts, parse_cost, f_gamma, place, remove, format_moves,
# parse_moves, threshold_record, ThresholdRecord, format_cost).
PUBLIC_NAMES = {
    "analysis": """BEYOND_TABLE FGammaRow TsRecord entropy f_bound_lower_sum
        f_bound_upper_sum f_gamma_report min_ts_auto x_lower x_threshold x_upper""",
    "config": "",
    "cost": "INFINITE MAX_FINITE_COST Cost",
    "dp": "DpTables build_table delta f_cost is_solvable split_point table_delta",
    "errors": "CostOverflowError ResourceLimitError TableRangeError UnsolvableError",
    "oracle": "bfs_min_time bfs_path",
    "strategy": """IntervalView Move ReplayChecker Strategy VerificationReport
        iter_strategy_moves reverse_strategy synthesize to_intervals verify""",
}


def loaded_modules(code: str, *argv):
    """(exit code, stdout, modules loaded) of one run of ``code`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        input=PLAY,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, set(done.stderr.rpartition("modules:")[2].split())


# The command line is read without argparse, which would bring gettext and locale.
PARSER = {"argparse", "gettext", "locale"}
# The modules behind the commands: those that hold the handlers, the layer engine
# (runs), which holds cost's handler and runs under dp, analysis, the oracle and the
# play engine (play), and the library API (strategy), which no command runs.  main
# imports one handler's module, or none for help; each command is pinned to the
# engines it runs.
ENGINES = {
    f"pebblegame.{name}" for name in ("dp", "runs", "play", "strategy", "oracle", "analysis")
}


# No package module imports __future__, and only -h or a usage error loads the usage text.
UNRUN = {"__future__", "pebblegame.usage"}


def loads_only(*names):
    """The engines that a command leaves unloaded when it runs only ``names``."""
    return ENGINES - {f"pebblegame.{name}" for name in names} | PARSER | UNRUN


@pytest.mark.parametrize(
    "argv, last_line, absent",
    [
        (("cost", "1", "1"), "F(1,1) = 1", {"dataclasses"} | loads_only("runs")),
        (
            ("strategy", "8", "4", "--verify"),
            "T=25 peak=4 valid=true",
            {"dataclasses"} | loads_only("play", "runs"),
        ),
        (("tsmin", "9"), "S=5 F=25 TS=125 ratio=1.0660", loads_only("analysis", "runs")),
        (("table", "10", "4", "--format", "csv"), "10,inf,inf,inf,inf", loads_only("dp", "runs")),
        (("verify", "2", "2"), "T=3 peak=2 valid=true", loads_only("play")),
        (("oracle", "8", "4"), "bfs=25 dp=25 agree", loads_only("oracle", "runs")),
        (
            ("bounds", "5"),
            "4      16 16      16       162      71    ok       839      71  FAIL",
            loads_only("analysis", "runs"),
        ),
        (("fgamma", "8"), "0.5000 1.000000 256 - -", loads_only("analysis", "runs")),
        (
            ("--help",),
            "  fgamma    normalized log-cost report on a gamma grid",
            loads_only() - {"pebblegame.usage"},
        ),
    ],
)
def test_a_command_loads_only_what_it_runs(argv, last_line, absent):
    code, out, modules = loaded_modules(PROBE, *argv)
    assert (code, out.splitlines()[-1]) == (0, last_line)
    assert "pebblegame.cli" in modules
    assert ("pebblegame.usage" in modules) == (argv == ("--help",))
    # Whatever the interpreter loads before any of our code is not ours.
    ours = modules - loaded_modules(BARE)[2]
    assert ours.isdisjoint(absent), sorted(ours & absent)


def test_a_usage_error_loads_the_usage_text_and_no_engine():
    code, out, modules = loaded_modules(PROBE, "cost", "1")
    assert (code, out) == (64, "")
    assert "pebblegame.usage" in modules
    ours = modules - loaded_modules(BARE)[2]
    absent = loads_only() - {"pebblegame.usage"}
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
    for removed in ("min_ts", "parse_cost", "f_gamma", "place", "remove"):
        assert not hasattr(pebblegame, removed), removed
    assert not hasattr(pebblegame.DpTables, "split")
    assert "nesting_violations" not in pebblegame.VerificationReport._fields
    assert not hasattr(pebblegame.ReplayChecker(1), "nesting")


# Runs the eight commands through cli.main in an interpreter started with -S,
# so no site-packages are on sys.path; verify reads the play strategy wrote.
STDLIB_ONLY = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
try:
    import numpy
except ImportError:
    pass
else:
    sys.exit("numpy imported without site-packages")
from pebblegame.cli import main
results, play = [], ""
for argv in json.loads(sys.argv[2]):
    sys.stdin, out = io.StringIO(play), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    play = out.getvalue()
    results.append([code, play.splitlines()[-1]])
print(json.dumps({"results": results, "modules": sorted(sys.modules)}))
"""


def test_every_command_runs_on_the_standard_library_alone():
    runs = {
        ("cost", "51", "7"): "m(51,7) = 20",
        ("table", "10", "4", "--format", "csv"): "10,inf,inf,inf,inf",
        ("strategy", "8", "4"): "-1",
        ("verify", "8", "4"): "T=25 peak=4 valid=true",
        ("oracle", "8", "4"): "bfs=25 dp=25 agree",
        ("bounds", "5"): "4      16 16      16       162      71    ok       839      71  FAIL",
        ("tsmin", "9"): "S=5 F=25 TS=125 ratio=1.0660",
        ("fgamma", "8"): "0.5000 1.000000 256 - -",
    }
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY, str(SRC), json.dumps(list(runs))],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert report["results"] == [[0, last_line] for last_line in runs.values()]
    tops = {name.partition(".")[0] for name in report["modules"]} - {"__main__", "pebblegame"}
    assert tops <= set(sys.stdlib_module_names), sorted(tops - set(sys.stdlib_module_names))
