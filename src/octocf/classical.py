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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .numerics import QuadNum, quad_float, quad_floor, quad_sign

__all__ = [
    "QuadraticIrrational",
    "gauss_step",
    "GeometricConvergents",
    "geometric_convergents",
    "intermediate_convergents",
]


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class QuadraticIrrational:
    """The exact real number (a + b*sqrt(d))/c with integer a, b, c and d >= 0.

    The representative is canonical: c > 0, gcd(a, b, c) = 1, and d = 0
    whenever the value is rational (square d is folded into the rational
    part).  Arithmetic stays inside Q(sqrt(d)).
    """

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("the radicand must be nonnegative")
        if _is_square(d):
            a, b, d = a + b * isqrt(d), 0, 0
        if b == 0:
            d = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "c", c // g)
        object.__setattr__(self, "d", d)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction | int) -> "QuadraticIrrational":
        x = Fraction(x)
        return QuadraticIrrational(x.numerator, 0, x.denominator, 0)

    @staticmethod
    def from_quadnum(q: QuadNum) -> "QuadraticIrrational":
        return QuadraticIrrational(*q.ints, 2)

    @staticmethod
    def sqrt_of(n: int) -> "QuadraticIrrational":
        return QuadraticIrrational(0, 1, 1, n)

    @staticmethod
    def golden_ratio() -> "QuadraticIrrational":
        return QuadraticIrrational(1, 1, 2, 5)

    # -- arithmetic ------------------------------------------------------------

    def _compatible(self, other) -> "QuadraticIrrational":
        if isinstance(other, (int, Fraction)):
            other = QuadraticIrrational.from_fraction(other)
        if not isinstance(other, QuadraticIrrational):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"incompatible radicands {self.d} and {other.d}")
        return other

    def __add__(self, other) -> "QuadraticIrrational":
        other = self._compatible(other)
        d = self.d or other.d
        return QuadraticIrrational(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    __radd__ = __add__

    def __neg__(self) -> "QuadraticIrrational":
        return QuadraticIrrational(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "QuadraticIrrational":
        return self + (-self._compatible(other))

    def __rsub__(self, other) -> "QuadraticIrrational":
        return (-self) + self._compatible(other)

    def __mul__(self, other) -> "QuadraticIrrational":
        other = self._compatible(other)
        d = self.d or other.d
        return QuadraticIrrational(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticIrrational":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticIrrational(self.a * self.c, -self.b * self.c, norm, self.d)

    def __truediv__(self, other) -> "QuadraticIrrational":
        return self * self._compatible(other).inverse()

    def __rtruediv__(self, other) -> "QuadraticIrrational":
        return self._compatible(other) * self.inverse()

    # -- order -------------------------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.d)

    def __abs__(self) -> "QuadraticIrrational":
        return -self if self.sign() < 0 else self

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    def floor(self) -> int:
        """Exact floor; the irrational part is bracketed by integer square roots."""
        return quad_floor(self.a, self.b, self.c, self.d)

    def __float__(self) -> float:
        return quad_float(self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(Fraction(self.a, self.c))
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


def _exact(alpha) -> QuadraticIrrational:
    if isinstance(alpha, QuadraticIrrational):
        return alpha
    if isinstance(alpha, QuadNum):
        return QuadraticIrrational.from_quadnum(alpha)
    if isinstance(alpha, (int, Fraction)):
        return QuadraticIrrational.from_fraction(alpha)
    raise TypeError(
        "alpha must be exact: int, Fraction, QuadNum or QuadraticIrrational"
    )


def gauss_step(x):
    """One step of the Gauss map on (0,1): the digit floor(1/x) and {1/x}.

    The input type (Fraction, QuadNum, or QuadraticIrrational) is preserved.
    """
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        if not 0 < x < 1:
            raise ValueError("gauss_step needs 0 < x < 1")
        inv = 1 / x
        digit = inv.numerator // inv.denominator
        return digit, inv - digit
    if isinstance(x, (QuadNum, QuadraticIrrational)):
        if x.sign() <= 0 or (x - 1).sign() >= 0:
            raise ValueError("gauss_step needs 0 < x < 1")
        inv = x.inverse()
        digit = inv.floor()
        return digit, inv - digit
    raise TypeError("unsupported operand type for the Gauss map")


@dataclass(frozen=True)
class GeometricConvergents:
    """Output of the geometric construction along the line (alpha, 1)."""

    digits: tuple[int, ...]
    vectors: tuple[tuple[int, int], ...]
    halted: bool

    @property
    def intermediates(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The skipped multiples i*e_{n-1} + e_{n-2} (0 < i < a_n), grouped per step."""
        basis = ((0, 1), (1, 0)) + self.vectors
        return tuple(
            tuple((prev[0] + i * cur[0], prev[1] + i * cur[1]) for i in range(1, digit))
            for digit, prev, cur in zip(self.digits, basis, basis[1:])
        )

    def to_json(self) -> dict:
        return {
            "digits": list(self.digits),
            "vectors": [list(v) for v in self.vectors],
            "intermediates": [[list(v) for v in group] for group in self.intermediates],
            "halted": self.halted,
        }


def geometric_convergents(alpha, n: int) -> GeometricConvergents:
    """Run n steps of the geometric convergent construction for alpha > 0.

    Each step adds the newer basis vector to the older one as many times as
    possible without crossing the line; the construction halts early (with
    the flag set) when a vector lands exactly on the line, which happens
    precisely for rational alpha.
    """
    a = _exact(alpha)
    if a.sign() <= 0:
        raise ValueError("alpha must be positive")
    if n < 0:
        raise ValueError("n must be >= 0")
    e_prev, e_cur = (0, 1), (1, 0)
    c_prev, c_cur = a, QuadraticIrrational.from_fraction(-1)
    digits: list[int] = []
    vectors: list[tuple[int, int]] = []
    halted = False
    for _ in range(n):
        ratio = -c_prev / c_cur
        digit = ratio.floor()
        new_vec = (e_prev[0] + digit * e_cur[0], e_prev[1] + digit * e_cur[1])
        digits.append(digit)
        vectors.append(new_vec)
        c_new = c_prev + digit * c_cur
        if c_new.sign() == 0:
            halted = True
            break
        e_prev, e_cur = e_cur, new_vec
        c_prev, c_cur = c_cur, c_new
    return GeometricConvergents(tuple(digits), tuple(vectors), halted)


def intermediate_convergents(alpha, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The intermediate convergents i*e_{n-1} + e_{n-2}, grouped per step."""
    return geometric_convergents(alpha, n).intermediates
