"""Small dense integer matrices as tuples of tuples.

These track how staircase moves recombine labeled wedge vectors; sizes stay
tiny (2k x 2k with k = 3 for the octagon), so plain Python integers are all
that is needed.
"""

from __future__ import annotations

__all__ = [
    "IntMat",
    "identity",
    "matmul",
    "elementary",
    "block_perm_matrix",
]

IntMat = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def freeze(rows) -> IntMat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def matmul(a: IntMat, b: IntMat) -> IntMat:
    n, m = len(a), len(b[0])
    inner = len(b)
    assert len(a[0]) == inner, "dimension mismatch"
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(m))
        for i in range(n)
    )


def elementary(n: int, entries) -> IntMat:
    """Identity plus ones at the given (row, col) index pairs (0-based)."""
    rows = [list(r) for r in identity(n)]
    for i, j in entries:
        rows[i][j] += 1
    return freeze(rows)


def block_perm_matrix(sigma: tuple[int, ...], swap: bool = False) -> IntMat:
    """The 2k x 2k matrix relabeling quadrilateral i to sigma(i).

    Row/column blocks follow the basis ordering (1,l),(1,r),...,(k,r); with
    ``swap`` the left and right slots are exchanged inside every block.
    """
    k = len(sigma)
    rows = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(1, k + 1):
        for eps in (0, 1):
            src = 2 * (i - 1) + eps
            dst = 2 * (sigma[i - 1] - 1) + (1 - eps if swap else eps)
            rows[dst][src] = 1
    return freeze(rows)
