"""Bit-string conversions: the array forms against the scalar rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisqlab.bits import int_to_bits, ints_to_bits, str_to_arr, strs_to_arr
from nisqlab.errors import UsageError


@st.composite
def words(draw):
    """(width, values) at widths 1..22, with 0 and 2^width - 1 among the values."""
    width = draw(st.integers(1, 22))
    values = draw(st.lists(st.integers(0, 2**width - 1), max_size=40))
    return width, [0, 2**width - 1, *values]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(words())
def test_array_forms_match_the_scalar_rules(case):
    width, values = case
    strings = ints_to_bits(np.array(values), width)
    assert strings == [int_to_bits(v, width) for v in values]
    matrix = strs_to_arr(strings)
    assert matrix.dtype == np.uint8 and matrix.shape == (len(values), width)
    for row, s in zip(matrix, strings):
        np.testing.assert_array_equal(row, str_to_arr(s))


def test_array_forms_of_nothing():
    assert ints_to_bits(np.array([], dtype=np.int64), 5) == []
    assert strs_to_arr([]).shape == (0, 0)


@pytest.mark.parametrize("strings", [["00", "0", "000"], ["0101", "01"], ["1", ""]])
def test_strings_of_unequal_length_are_usage_error(strings):
    with pytest.raises(UsageError, match="differ in length"):
        strs_to_arr(strings)
