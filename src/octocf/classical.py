"""Torus baseline: the Gauss map and the geometric construction of convergents.

The continued fraction of a positive number alpha can be built geometrically:
starting from the basis (0,1), (1,0) of the integer lattice, repeatedly add
the newer vector to the older one as many times as possible without crossing
the line in direction (alpha, 1).  The totals are the partial quotients, the
vectors e_n = (p_n, q_n) are the convergents, and the skipped multiples
i*e_{n-1} + e_{n-2} (i < a_n) are the intermediate convergents.  This is the
k = 1 instance of diagonal changes and serves as its sanity oracle.

Inputs are restricted to exact quadratic irrationals (a + b*sqrt(d))/c and
rationals so that every line-crossing test is an exact sign computation; a
rational direction makes the construction land on the line, which is
reported with a halt flag rather than an error.
"""

from __future__ import annotations

from math import gcd, isqrt

from .numerics import (
    QuadNum,
    _FrozenValue,
    _int_arg,
    _is_fraction,
    _quotient,
    _rational_text,
    _reduced,
    quad_float,
    quad_floor,
    quad_sign,
)

__all__ = [
    "QuadraticIrrational",
    "gauss_step",
    "GeometricConvergents",
    "geometric_convergents",
    "intermediate_convergents",
]


class QuadraticIrrational(_FrozenValue):
    """The exact real number (a + b*sqrt(d))/c with integer a, b, c and d >= 0.

    The representative is canonical: c > 0, gcd(a, b, c) = 1, and d = 0
    whenever the value is rational (square d is folded into the rational
    part), so value equality and hashing over ``(a, b, c, d)`` are numeric.
    Immutable.  The class carries no arithmetic: the torus baseline reads its
    ints and computes with the exact kernel in ``numerics``.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("the radicand must be nonnegative")
        r = isqrt(d)
        if r * r == d:
            a, b, d = a + b * r, 0, 0
        if b == 0:
            d = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(c, a, b)
        super().__init__(a // g, b // g, c // g, d)

    @staticmethod
    def sqrt_of(n: int) -> "QuadraticIrrational":
        return QuadraticIrrational(0, 1, 1, n)

    @staticmethod
    def golden_ratio() -> "QuadraticIrrational":
        return QuadraticIrrational(1, 1, 2, 5)

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.d)

    def floor(self) -> int:
        """Exact floor; the irrational part is bracketed by integer square roots."""
        return quad_floor(self.a, self.b, self.c, self.d)

    def __float__(self) -> float:
        return quad_float(self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return _rational_text(self.a, self.c)
        text = f"{self.a}{self.b:+}*sqrt({self.d})"
        return text if self.c == 1 else f"({text})/{self.c}"


def _ints(x) -> tuple[int, int, int, int]:
    """The ints (a, b, c, d) with x = (a + b*sqrt(d))/c and c > 0."""
    if isinstance(x, QuadraticIrrational):
        return x.a, x.b, x.c, x.d
    if isinstance(x, QuadNum):
        return (*x.ints, 2)
    if isinstance(x, int) or _is_fraction(x):
        return x.numerator, 0, x.denominator, 0
    raise TypeError(
        f"expected an exact number: int, Fraction, QuadNum or QuadraticIrrational, "
        f"got {type(x).__name__}"
    )


def gauss_step(x):
    """One step of the Gauss map on (0,1): the digit floor(1/x) and {1/x}.

    The input type (Fraction, QuadNum, or QuadraticIrrational) is preserved.
    """
    a, b, c, d = _ints(x)
    if quad_sign(a, b, d) <= 0 or quad_sign(a - c, b, d) >= 0:
        raise ValueError("gauss_step needs 0 < x < 1")
    # 1/x = c/(a + b*sqrt(d)); the norm is nonzero for x != 0
    p, q, norm = _quotient(c, 0, a, b, d)
    digit = quad_floor(p, q, norm, d)
    p -= digit * norm
    if isinstance(x, QuadraticIrrational):
        return digit, QuadraticIrrational(p, q, norm, d)
    if isinstance(x, QuadNum):
        return digit, _reduced(p, q, norm)
    from fractions import Fraction

    return digit, Fraction(p, norm)


class GeometricConvergents(_FrozenValue):
    """Output of the geometric construction along the line (alpha, 1).

    Immutable, with value equality and hashing over ``(digits, vectors, halted)``.
    """

    __slots__ = ("digits", "vectors", "halted")

    @property
    def intermediates(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The skipped multiples i*e_{n-1} + e_{n-2} (0 < i < a_n), grouped per step."""
        return tuple(map(tuple, self.iter_intermediates()))

    def iter_intermediates(self):
        """Each step's skipped multiples, as an iterator of (p, q) pairs, formed as read.

        Each step's iterator holds that step's vectors, so the iterators may be
        kept and read in any order.
        """
        basis = ((0, 1), (1, 0)) + self.vectors
        return map(_multiples, basis, basis[1:], self.digits)

    def to_json(self) -> dict:
        return self._record([[[p, q] for p, q in group] for group in self.iter_intermediates()])

    def _record(self, intermediates) -> dict:
        """The record of :meth:`to_json` with ``intermediates`` in its place."""
        return {
            "digits": list(self.digits),
            "vectors": [list(v) for v in self.vectors],
            "intermediates": intermediates,
            "halted": self.halted,
        }


def _multiples(prev: tuple[int, int], cur: tuple[int, int], digit: int):
    """The pairs prev + i*cur for 0 < i < digit."""
    for i in range(1, digit):
        yield prev[0] + i * cur[0], prev[1] + i * cur[1]


def _steps(alpha, n: int):
    """Yield ``(digit, vector, landed)`` for the first n steps of the construction.

    With alpha = (a + b*sqrt(d))/c, the lattice vector (p, q) is off the line
    by C = c*(q*alpha - p) = (q*a - p*c) + q*b*sqrt(d).  Write
    C_prev*conj(C_cur) = s - t*sqrt(d); each digit k is then one exact floor of
    -C_prev/C_cur = (-s + t*sqrt(d))/N(C_cur).  For C_new = C_prev + k*C_cur,
    N(C_new) = N(C_prev) + 2*k*s + k^2*N(C_cur), and the pair (C_cur, C_new)
    has s + k*N(C_cur) and -t, so these four ints keep the size of alpha's
    while the vectors grow.  A vector lands on the line when C = 0, that is
    when N(C) = 0, as sqrt(d) is irrational whenever b != 0; the iterator
    stops after that step.
    """
    a, b, c, d = _ints(alpha)
    if quad_sign(a, b, d) <= 0:
        raise ValueError("alpha must be positive")
    _int_arg(n, "n", 0)
    e_prev, e_cur = (0, 1), (1, 0)
    # C = a + b*sqrt(d) for (0, 1) and C = -c for (1, 0)
    n_prev, n_cur, s, t = a * a - d * b * b, c * c, -a * c, b * c
    for _ in range(n):
        if n_cur > 0:
            digit = quad_floor(-s, t, n_cur, d)
        else:
            digit = quad_floor(s, -t, -n_cur, d)
        e_prev, e_cur = e_cur, (e_prev[0] + digit * e_cur[0], e_prev[1] + digit * e_cur[1])
        n_prev, n_cur, s, t = n_cur, n_prev + digit * (2 * s + digit * n_cur), s + digit * n_cur, -t
        landed = n_cur == 0
        yield digit, e_cur, landed
        if landed:
            return


def geometric_convergents(alpha, n: int, check=None) -> GeometricConvergents:
    """Run n steps of the geometric convergent construction for alpha > 0.

    Each step adds the newer basis vector to the older one as many times as
    possible without crossing the line; the construction halts early (with
    the flag set) when a vector lands exactly on the line, which happens
    precisely for rational alpha.  ``check(digit, vector)``, if given, sees
    each step as it is made and may raise to stop the construction there.
    """
    digits: list[int] = []
    vectors: list[tuple[int, int]] = []
    halted = False
    for digit, vector, halted in _steps(alpha, n):
        if check is not None:
            check(digit, vector)
        digits.append(digit)
        vectors.append(vector)
    return GeometricConvergents(tuple(digits), tuple(vectors), halted)


def intermediate_convergents(alpha, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The intermediate convergents i*e_{n-1} + e_{n-2}, grouped per step."""
    return geometric_convergents(alpha, n).intermediates
