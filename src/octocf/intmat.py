"""Small dense integer matrices as tuples of tuples.

The label matrices of :mod:`octocf.diagch` are built and composed with
them; sizes stay tiny, so plain Python integers are all that is needed.
"""

from __future__ import annotations

from operator import mul

__all__ = [
    "IntMat",
    "identity",
    "matmul",
    "elementary",
]

IntMat = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def freeze(rows) -> IntMat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def matmul(a: IntMat, b: IntMat) -> IntMat:
    assert len(a[0]) == len(b), "dimension mismatch"
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def elementary(n: int, entries) -> IntMat:
    """Identity plus ones at the given (row, col) index pairs (0-based)."""
    rows = [list(r) for r in identity(n)]
    for i, j in entries:
        rows[i][j] += 1
    return freeze(rows)
