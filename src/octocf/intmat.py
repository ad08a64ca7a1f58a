"""Small dense integer matrices as tuples of tuples.

These track how staircase moves recombine labeled wedge vectors; sizes stay
tiny (2k x 2k with k = 3 for the octagon), so plain Python integers and
Bareiss elimination are all that is needed.
"""

from __future__ import annotations

__all__ = [
    "IntMat",
    "identity",
    "matmul",
    "matvec",
    "det",
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


def matvec(a: IntMat, v):
    """Apply ``a`` to a sequence whose entries support + and integer scaling."""
    n = len(a)
    assert len(v) == n
    out = []
    for i in range(n):
        acc = None
        for j, c in enumerate(a[i]):
            if c == 0:
                continue
            term = v[j] if c == 1 else _scale(v[j], c)
            acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("matrix has a zero row")
        out.append(acc)
    return tuple(out)


def _scale(x, c: int):
    if isinstance(x, int):
        return x * c
    if hasattr(x, "scale"):
        return x.scale(c)
    return x * c


def det(a: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    After step k every remaining entry is a (k+1) x (k+1) minor of ``a``, so
    the division by the previous pivot is exact and all work stays in ints.
    """
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * prev


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
