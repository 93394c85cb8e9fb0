"""Check bookkeeping: the worst-of and least-of reductions behind every sampled item."""

import math

import numpy as np
import pytest

from meanlab.report import CheckItem, least, worst


def test_worst_of_nothing_is_zero():
    assert worst([]) == 0.0


def test_worst_of_negatives_is_zero():
    assert worst([-3.0, -1e-300]) == 0.0


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan], [0.5, 2.0, math.nan]])
def test_worst_keeps_a_nan_wherever_it_sits(values):
    assert math.isnan(worst(values))
    assert not CheckItem.bound("item", worst(values), 1.0).passed


def test_worst_ties_keep_the_first_maximal_value():
    first = np.float64(2.0)
    assert worst([1.0, first, 2.0]) is first
    assert math.copysign(1.0, worst([-0.0])) == 1.0


def test_least_of_nothing_is_nan():
    # A floor with no evidence must fail.
    assert math.isnan(least([]))
    assert not CheckItem.floor("item", least([]), 1e-3).passed


def test_least_is_the_minimum():
    assert least([3.0, -1.0, 2.0]) == -1.0
    assert least(iter([0.5])) == 0.5


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan], [0.5, 2.0, math.nan]])
def test_least_keeps_a_nan_wherever_it_sits(values):
    assert math.isnan(least(values))
    assert not CheckItem.floor("item", least(values), 1e-3).passed


def test_least_ties_keep_the_first_minimal_value():
    first = np.float64(1.0)
    assert least([2.0, first, 1.0]) is first
