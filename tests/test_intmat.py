"""Integer matrices: the Bareiss determinant oracle against the Leibniz expansion."""

from itertools import permutations
from math import prod

from hypothesis import given
from hypothesis import strategies as st

from helpers import int_det
from octocf import intmat


def leibniz_det(a) -> int:
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


@st.composite
def int_matrices(draw):
    """Square int matrices of size 1..5; small entries make singular ones common."""
    n = draw(st.integers(min_value=1, max_value=5))
    bound = draw(st.sampled_from([1, 3, 100]))
    entries = st.integers(min_value=-bound, max_value=bound)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # force singularity: the last row becomes a combination of two others
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        s, t = draw(entries), draw(entries)
        rows[-1] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return intmat.freeze(rows)


@given(int_matrices())
def test_det_matches_leibniz(a):
    assert int_det(a) == leibniz_det(a)


def test_det_examples():
    assert int_det(((7,),)) == 7
    assert int_det(((0, 1), (1, 0))) == -1
    assert int_det(((2, 4), (1, 2))) == 0
    assert int_det(((0, 2, 0), (3, 0, 0), (0, 0, 5))) == -30
    # a zero leading pivot that needs a row swap partway down
    assert int_det(((1, 1, 1), (1, 1, 2), (1, 2, 3))) == -1
