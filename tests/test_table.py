"""The `table` writer against a reference that formats every cell.

`table` writes the rows of each solvability band, top(k) < n <= top(k+1),
from one line in which the "inf" cells of columns 1..k are already written,
and formats only the finite cells.  ``reference_table`` is the writer it
replaced: it pads each layer with INFINITE past its top and formats every
cell with %s, one row at a time.
"""

import contextlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pebblegame
from pebblegame import dp, runs
from pebblegame.cli import main
from pebblegame.cost import INFINITE, InfiniteCost

FORMATS = ("plain", "csv", "tsv")


def reference_table(nmax: int, smax: int, fmt: str) -> str:
    """`table nmax smax --format fmt` with every cell formatted, "inf" ones too."""
    layers = list(runs._layers(nmax, smax, None))
    header = ["n"] + [f"S={layer.s}" for layer in layers]
    if fmt == "plain":
        widths = [len(str(nmax))] + [
            max(len(head), len(str(layer.cost(layer.top))))
            for head, layer in zip(header[1:], layers)
        ]
        line = " ".join(f"%{width}s" for width in widths) + "\n"
    else:
        line = {"csv": ",", "tsv": "\t"}[fmt].join(["%s"] * len(header)) + "\n"
    columns = [
        itertools.chain(layer.costs(), itertools.repeat(INFINITE, nmax - layer.top))
        for layer in layers
    ]
    rows = zip(itertools.count(1), *columns)
    return "".join([line % tuple(header), *(line % row for row in rows)])


def table(nmax: int, smax: int, fmt: str) -> tuple:
    """Exit code and stdout of the `table` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", str(nmax), str(smax), "--format", fmt])
    return code, out.getvalue()


# nmax is 1 or 2**k - 1, 2**k, 2**k + 1 for k <= 13, each with smax from 1 to
# log2(nmax) + 2: the last smax leave no "inf" band below row nmax, and small
# smax an all-"inf" tail.  `table` writes 65,536 cells, or at least one row, at
# a time, so every band here fits in one write; the cases below split bands.
BOARDS = sorted({1} | {2**k + d for k in range(1, 14) for d in (-1, 0, 1)})


@pytest.mark.parametrize("nmax", BOARDS)
def test_table_matches_the_every_cell_writer(nmax):
    for smax, fmt in itertools.product(range(1, nmax.bit_length() + 2), FORMATS):
        assert table(nmax, smax, fmt) == (0, reference_table(nmax, smax, fmt)), (smax, fmt)


@pytest.mark.parametrize(
    "nmax, smax",
    [
        (5000, 3),  # 4,996 rows of "inf" only
        (6000, 14),  # the last band, 4097..6000, is finite at S=14 only
        (10000, 15),  # 4097..8192, then 8193..10000, finite at S=15 only
        (3, 70000),  # more columns than a write holds: one row per write
        (9000, 20),  # 3,120 rows a write: 4097..8192 takes two, 2049..4096 one
        (20000, 40),  # 1,598 rows a write: 8193..16384 takes six
    ],
)
@pytest.mark.parametrize("fmt", FORMATS)
def test_table_bands_across_blocks(nmax, smax, fmt):
    assert table(nmax, smax, fmt) == (0, reference_table(nmax, smax, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_table_formats_no_infinite_object(monkeypatch, fmt):
    """No INFINITE object reaches a formatter: "inf" is written as text."""
    expected = reference_table(4097, 14, fmt)

    def refuse(self):
        raise AssertionError("an INFINITE object reached a formatter")

    monkeypatch.setattr(InfiniteCost, "__repr__", refuse)
    with pytest.raises(AssertionError, match="reached a formatter"):
        "%s" % INFINITE
    assert table(4097, 14, fmt) == (0, expected)


def test_table_refuses_tops_that_fall(monkeypatch):
    """The bands hold only while layer tops never fall with S; falling tops
    raise rather than print a misplaced "inf"."""
    layers = list(runs._layers(8, 4, None))
    swapped = [layers[0], layers[1], layers[3], layers[2]]
    monkeypatch.setattr(dp, "_layers", lambda *args: swapped)
    with pytest.raises(ArithmeticError, match="fall with S"):
        table(8, 4, "csv")


def test_table_writes_only_the_bands_that_hold_rows():
    """A band between equal layer tops holds no row and is given no line, so a
    wide table costs its cells, not smax cells per band.  Writing a line of
    20,000 cells for each of the 20,000 bands of `table 1 20000` took 17-20 s on
    a 2-core x86 VM, against about 0.2 s for the band walk."""
    src = Path(pebblegame.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from pebblegame.cli import main; sys.exit(main())",
         "table", "1", "20000", "--format", "csv"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=15,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == reference_table(1, 20000, "csv")
