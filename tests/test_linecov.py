"""The executable lines that ``tools/linecov.py`` expects some process to run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
_SPEC = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecov)

_SOURCE = '''\
"""A module docstring, never a line event in a function."""
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from fractions import Fraction
else:
    Fraction = None


@decorator(
    1,
)
def f(x,
      y):
    """A docstring."""
    global G
    try:
        return (x +
                y)
    except ValueError:
        pass
'''


def test_each_statement_counts_from_its_header_lines():
    assert linecov.executable_lines(_SOURCE) == {
        2: range(2, 3),
        3: range(3, 4),  # the test runs, the TYPE_CHECKING body never does
        6: range(6, 7),
        12: range(9, 14),  # decorators and signature: made when the module runs
        16: range(16, 17),
        17: range(17, 19),
        20: range(20, 21),
    }
