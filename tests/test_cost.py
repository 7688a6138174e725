import math
import operator

import pytest

from pebblegame import (
    INFINITE,
    MAX_FINITE_COST,
    CostOverflowError,
    format_cost,
    is_finite,
    parse_cost,
)
from pebblegame.cost import InfiniteCost, cost_sum


def test_sentinel_is_a_singleton():
    assert InfiniteCost() is INFINITE


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


def test_is_finite():
    assert is_finite(0)
    assert not is_finite(INFINITE)


@pytest.mark.parametrize("value", [0, 1, 321, MAX_FINITE_COST])
def test_format_parse_round_trip(value):
    assert parse_cost(format_cost(value)) == value


def test_parse_infinite_and_errors():
    assert parse_cost("inf") is INFINITE
    assert parse_cost(" 42 ") == 42
    with pytest.raises(ValueError):
        parse_cost("-3")
    with pytest.raises(ValueError):
        parse_cost("infinity")
