"""Fixtures shared by the test modules."""

import sys

import pytest

from helpers import DEFAULT_MAX_STR_DIGITS


@pytest.fixture
def unproved_sectors():
    """No sector table proved before a test patches the constants it is built from.

    Clearing ``_sector_table`` is all it takes: each table keeps the checked Q'
    it was recorded from, so no other cache holds Q'.
    """
    from octocf.octagon import _sector_table

    _sector_table.cache_clear()
    yield
    _sector_table.cache_clear()


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-string limit for one test, whatever limit the
    interpreter started with (``PYTHONINTMAXSTRDIGITS``); restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # this Python has no limit to set
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_MAX_STR_DIGITS)
    yield
    sys.set_int_max_str_digits(previous)
