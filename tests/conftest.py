"""Fixtures shared by the test modules."""

import pytest


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
