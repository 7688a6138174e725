"""The record types are named tuples: keyword construction, defaults, repr,
equality and hash as before, no attribute assignment, and unpacking."""

import math
import re

import pytest

from pebblegame import (
    DpTables,
    FGammaRow,
    IntervalView,
    Move,
    Strategy,
    TsRecord,
    VerificationReport,
    build_table,
)
from pebblegame.config import DEFAULT_CELL_BUDGET, DEFAULT_MATERIALIZATION_CAP, Limits

MOVES = (Move(True, 1), Move(True, 2), Move(False, 1))

# One instance of each record, built by keyword, and its repr.
RECORDS = [
    (
        Limits(cell_budget=5, materialization_cap=7),
        "Limits(cell_budget=5, materialization_cap=7)",
    ),
    (
        DpTables(nmax=1, smax=1, f=((None, None), (None, 1)), m=((0, 0), (0, 0))),
        "DpTables(nmax=1, smax=1, f=((None, None), (None, 1)), m=((0, 0), (0, 0)))",
    ),
    (
        Strategy(n=2, moves=MOVES),
        "Strategy(n=2, moves=(Move(place=True, square=1), Move(place=True, square=2),"
        " Move(place=False, square=1)))",
    ),
    (
        VerificationReport(
            valid=True,
            step_count=3,
            peak_pebbles=2,
            first_violation=None,
        ),
        "VerificationReport(valid=True, step_count=3, peak_pebbles=2, first_violation=None)",
    ),
    (
        IntervalView(n=2, squares=(((1, 2),), ((2, None),))),
        "IntervalView(n=2, squares=(((1, 2),), ((2, None),)))",
    ),
    (
        TsRecord(n=1, best_s=1, best_f=1, product=1, ratio=math.nan),
        "TsRecord(n=1, best_s=1, best_f=1, product=1, ratio=nan)",
    ),
    (
        FGammaRow(gamma=0.5, h=1.0, n=16, f_value=None, gap=None),
        "FGammaRow(gamma=0.5, h=1.0, n=16, f_value=None, gap=None)",
    ),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda x: type(x).__name__)
def test_record_repr_equality_and_hash(record, text):
    assert repr(record) == text
    twin = type(record)(**record._asdict())
    assert twin == record and twin is not record
    if not any(isinstance(value, float) and math.isnan(value) for value in record):
        assert hash(twin) == hash(record)
    assert twin != record._replace(**{record._fields[0]: "other"})


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=lambda x: type(x).__name__)
def test_record_refuses_attribute_assignment(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_limits_defaults():
    assert Limits() == Limits(DEFAULT_CELL_BUDGET, DEFAULT_MATERIALIZATION_CAP)
    assert Limits(materialization_cap=3).cell_budget == DEFAULT_CELL_BUDGET


def test_records_unpack_and_index():
    tables = build_table(3, 2)
    nmax, smax, f, m = tables
    assert (nmax, smax, f, m) == (tables[0], tables[1], tables.f, tables.m) == (3, 2, f, m)
    n, moves = Strategy(2, MOVES)
    assert (n, moves) == (2, MOVES)


def test_strategy_converts_moves_and_keeps_its_checks():
    assert Strategy(2, iter(MOVES)).moves == MOVES
    assert Strategy(2, list(MOVES)) == Strategy(n=2, moves=MOVES)
    with pytest.raises(ValueError, match=r"^board size must be >= 1, got 0$"):
        Strategy(0, ())
    for n in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match=rf"^board size must be an integer, got {n!r}$"):
            Strategy(n, ())
    with pytest.raises(
        ValueError,
        match=r"^move \+3 references a square outside the 2-square board$",
    ):
        Strategy(2, [Move(True, 1), Move(True, 3)])
    # A square is an int, not a bool, checked before its range: a bool was written
    # as "+1", and a float was kept until the replay indexed the board with it.
    for moves in ([Move(True, True)], [Move(True, 1), Move(True, 2.0)], [Move(False, 1e50)]):
        message = rf"^square must be an integer, got {re.escape(repr(moves[-1].square))}$"
        with pytest.raises(ValueError, match=message):
            Strategy(3, moves)
    with pytest.raises(TypeError):
        Strategy(2)
    # The peak is a replay on each access, not an attribute that can be set.
    play = Strategy(2, MOVES)
    assert play.peak_pebbles == 2
    with pytest.raises(AttributeError):
        play.peak_pebbles = 5
    assert not hasattr(play, "__dict__")
