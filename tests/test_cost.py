import copy
import math
import operator
import pickle

import pytest

from pebblegame import (
    INFINITE,
    MAX_FINITE_COST,
    CostOverflowError,
)
from pebblegame.analysis import BEYOND_TABLE
from pebblegame.cost import InfiniteCost, cost_sum


def test_sentinel_is_a_singleton():
    assert InfiniteCost() is INFINITE


@pytest.mark.parametrize("sentinel", [INFINITE, BEYOND_TABLE], ids=repr)
def test_sentinels_survive_pickle_and_deepcopy(sentinel):
    # Every protocol stores the module-level name, so loading finds the one object.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(sentinel, protocol)) is sentinel, protocol
    assert copy.deepcopy(sentinel) is sentinel
    assert copy.copy(sentinel) is sentinel


ORDERING_OPERANDS = [0, 7, -3, 10**30, True, False, 1.5, float("inf"), "x", None, INFINITE]


def test_ordering_against_ints():
    # INFINITE ranks above every int (bools included) and level with itself;
    # it equals nothing else, and ordering it against a non-int is a TypeError.
    def rank(value):
        return math.inf if value is INFINITE else value

    for other in ORDERING_OPERANDS:
        for left, right in ((INFINITE, other), (other, INFINITE)):
            assert (left == right) is (other is INFINITE)
            assert (left != right) is (other is not INFINITE)
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                if other is INFINITE or isinstance(other, int):
                    assert op(left, right) is op(rank(left), rank(right)), (op, left, right)
                else:
                    with pytest.raises(TypeError):
                        op(left, right)
    assert INFINITE > 10**18
    assert not INFINITE < 0
    assert 5 < INFINITE
    assert INFINITE >= INFINITE
    assert not INFINITE > INFINITE
    assert min(INFINITE, 7) == 7
    assert min(3, INFINITE) == 3
    assert max(3, INFINITE) is INFINITE


def test_equality_and_hash():
    assert INFINITE == INFINITE
    assert INFINITE != 7
    assert 7 != INFINITE
    assert hash(INFINITE) == hash(InfiniteCost())


def test_sorting_mixed_costs():
    assert sorted([INFINITE, 3, 1, INFINITE, 2]) == [1, 2, 3, INFINITE, INFINITE]


def test_cost_sum_propagates_infinity():
    assert cost_sum(1, 2, 3) == 6
    assert cost_sum(1, INFINITE, 3) is INFINITE
    assert cost_sum() == 0


def test_cost_sum_overflow():
    assert cost_sum(MAX_FINITE_COST) == MAX_FINITE_COST
    with pytest.raises(CostOverflowError):
        cost_sum(MAX_FINITE_COST, 1)


@pytest.mark.parametrize("value", [0, 1, 321, MAX_FINITE_COST, INFINITE])
def test_format_parse_round_trip(value):
    # A cost's text is str(cost), as the commands interpolate it.
    text = str(value)
    assert f"{value}" == text
    # Read back as the table tests read a cell.
    assert (INFINITE if text == "inf" else int(text)) == value
