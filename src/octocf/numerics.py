"""Exact arithmetic in Q(sqrt(2)), 2x2 linear algebra over it, and directions.

Every geometric predicate in this package reduces to the exact sign of an
element ``a + b*sqrt(2)`` with rational ``a, b``, held as canonical ints
``(p + q*sqrt(2))/den``.  Values are immutable and canonical (component-wise
equality is field equality), so they can be shared freely and used as dict
keys.

The side of a ray that a vector lies on is the one orientation predicate of
the Farey map and of diagonal changes: ``_cross_ints`` reads it from
unreduced ints with no gcd, ``_cross_sign`` from two :class:`Vec2`, and
:func:`theta_cmp` orders :class:`Direction` rays by angle with it.

The bilinear 2x2 forms (``Mat2.apply``, ``Mat2 @``, ``det``, ``Vec2.cross``
and ``dot``) build each output entry with one kernel that forms both
products unreduced and divides by one gcd at the end, not one per field
operation.  The canonical form is unique, so the result has the same ints,
and so the same ``==`` and ``hash``, as the composed operators give.

Decimal output is quarantined in :func:`to_decimal`; nothing in this package
branches on a decimal rendering.
"""

from __future__ import annotations

from functools import cache
from math import atan2, gcd, isqrt, pi
from operator import attrgetter
import re
import sys

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "QuadNum",
    "Vec2",
    "Mat2",
    "Direction",
    "theta_cmp",
    "QuadNumParseError",
    "to_decimal",
]


class QuadNumParseError(ValueError):
    """Raised when a string does not denote an exact element of Q(sqrt(2))."""


def _is_fraction(x) -> bool:
    """isinstance(x, Fraction) without importing fractions, before which no Fraction exists."""
    return "fractions" in sys.modules and isinstance(x, sys.modules["fractions"].Fraction)


def _ratio(x) -> tuple[int, int]:
    """The numerator and positive denominator of an int or a Fraction."""
    if isinstance(x, int) or _is_fraction(x):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _int_arg(value, name: str, least: int, most: int | None = None) -> None:
    """The package's one check of a count or an index: ``value`` must be an int,
    not a bool, in least..most (no upper bound when ``most`` is None)."""
    if type(value) is not int:  # True is an int too
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if most is None:
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    elif not least <= value <= most:
        raise ValueError(f"{name} must be between {least} and {most}")


def _rational_text(n: int, den: int) -> str:
    """n/den, den > 0, as ``str(Fraction(n, den))`` writes it: ``-3`` or ``7/2``."""
    g = gcd(n, den)
    return str(n // g) if den == g else f"{n // g}/{den // g}"


# -- the exact kernel over (p + q*sqrt(d))/den -------------------------------------
#
# Shared by QuadNum (d = 2) and the torus baseline in classical, which computes
# on the ints of (a + b*sqrt(d))/c for any d.  Every function assumes den > 0
# and that d is not a perfect square whenever q != 0.


def _sign(p: int, q: int, d: int) -> int:
    """An int with the sign of p + q*sqrt(d), the package's one sign rule: p or q
    when they agree in sign, else the one of larger magnitude, p^2 against d*q^2."""
    return (p or q) if (p >= 0) == (q >= 0) else p if p * p > d * q * q else q


def quad_sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) as -1, 0 or 1: :func:`_sign`, normalised."""
    s = _sign(p, q, d)
    return (s > 0) - (s < 0)


def _quotient(p1: int, q1: int, p2: int, q2: int, d: int) -> tuple[int, int, int]:
    """(p1 + q1*sqrt(d))/(p2 + q2*sqrt(d)) as (p + q*sqrt(d))/norm, the one conjugate
    division: norm > 0, or 0 for a zero divisor, which the caller refuses."""
    p, q, norm = p1 * p2 - d * q1 * q2, q1 * p2 - p1 * q2, p2 * p2 - d * q2 * q2
    return (p, q, norm) if norm > 0 else (-p, -q, -norm)


def quad_floor(p: int, q: int, den: int, d: int) -> int:
    """Exact floor of (p + q*sqrt(d))/den.

    q*sqrt(d) is irrational, so it lies strictly between the integers
    lo = floor(q*sqrt(d)) and lo + 1.  Then floor((p + lo)/den) is the answer:
    the value could only reach the next integer if p + lo + 1 were a multiple
    of den, and the strict upper bound rules that out.
    """
    if q == 0:
        return p // den
    t = isqrt(d * q * q)
    lo = t if q > 0 else -t - 1
    return (p + lo) // den


_FLOAT_SCALE = 10**18


def quad_float(p: int, q: int, den: int, d: int) -> float:
    """(p + q*sqrt(d))/den to within 1e-18, as a float; for display only.

    The last step divides int by int, so every value in the float range
    converts and values beyond it raise OverflowError, as for Fraction.
    """
    return quad_floor(p * _FLOAT_SCALE, q * _FLOAT_SCALE, den, d) / _FLOAT_SCALE


#: An exact rational literal, as ``QuadNum.to_json`` writes one: ``-3`` or ``7/2``.
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def _max_int_digits() -> int:
    """The digits an int may have when converted to or from a string: the limit
    Python runs with (``PYTHONINTMAXSTRDIGITS``, ``-X int_max_str_digits`` or
    ``sys.set_int_max_str_digits``), or its default 4300 where there is none,
    so the CLI refuses a decimal literal such as ``1e30000000`` before its
    exponent is expanded into an exact integer.  Pythons before 3.10.7 have
    no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _fraction(text: str) -> tuple[int, int]:
    """The ints (n, d) of an exact rational literal ``n`` or ``n/d``, d > 0, not reduced."""
    if not isinstance(text, str):
        raise QuadNumParseError(f"expected a string coefficient, got {type(text).__name__}")
    if not _RATIONAL.fullmatch(text):
        # no decimal or exponent: 1e30000000 would expand at length
        raise QuadNumParseError(f"expected an exact rational like -3/2, got {text[:40]!r}")
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # the literal is well formed, so its ints pass the digit limit
        raise ValueError(
            f"an exact literal has more than {_max_int_digits()} digits, past Python's "
            "int-to-string limit"
        ) from None
    if d == 0:
        raise QuadNumParseError(f"zero denominator in {text!r}")
    return n, d


def _from_ratios(a: tuple[int, int], b: tuple[int, int]) -> QuadNum:
    """The QuadNum a + b*sqrt(2) from the ints (n, d) of a and of b, d > 0."""
    (an, ad), (bn, bd) = a, b
    return _reduced(an * bd, bn * ad, ad * bd)


class QuadNum:
    """The real number ``a + b*sqrt(2)`` with ``a, b`` rational.

    It is stored as three ints ``(p, q, den)`` for ``(p + q*sqrt(2))/den`` in
    canonical form: ``den > 0`` and ``gcd(p, q, den) = 1``.  The form is unique
    because sqrt(2) is irrational, so structural equality is numeric equality
    and values can be hashed.  As with Fraction, the slots are private and the
    public views ``a``, ``b`` and ``ints`` are read-only, so values never change
    once built.  Arithmetic is exact; division uses the field conjugate
    ``a - b*sqrt(2)``.
    """

    __slots__ = ("_p", "_q", "_den")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            self._p, self._q, self._den = a, b, 1
            return
        self._p, self._q, self._den = _from_ratios(_ratio(a), _ratio(b)).ints

    @property
    def a(self) -> Fraction:
        """The rational part."""
        from fractions import Fraction

        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        from fractions import Fraction

        return Fraction(self._q, self._den)

    @property
    def ints(self) -> tuple[int, int, int]:
        """The canonical ints ``(p, q, den)``."""
        return self._p, self._q, self._den

    def __eq__(self, other) -> bool:
        if other.__class__ is not QuadNum:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._den))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "QuadNum") -> "QuadNum":
        if other.__class__ is not QuadNum:
            other = _coerce(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _reduced(self._p + other._p, self._q + other._q, d1)
        return _reduced(self._p * d2 + other._p * d1, self._q * d2 + other._q * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: "QuadNum") -> "QuadNum":
        if other.__class__ is not QuadNum:
            other = _coerce(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _reduced(self._p - other._p, self._q - other._q, d1)
        return _reduced(self._p * d2 - other._p * d1, self._q * d2 - other._q * d1, d1 * d2)

    def __rsub__(self, other) -> "QuadNum":
        return _coerce(other) - self

    def __neg__(self) -> "QuadNum":
        return _reduced(-self._p, -self._q, self._den)

    def __mul__(self, other) -> "QuadNum":
        if other.__class__ is not QuadNum:
            other = _coerce(other)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        return _reduced(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadNum":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "QuadNum":
        return _coerce(other) * self.inverse()

    def inverse(self) -> "QuadNum":
        """Exact inverse via the conjugate: den/(p+q*sqrt2) = den*(p-q*sqrt2)/(p^2-2q^2)."""
        p, q, norm = _quotient(self._den, 0, self._p, self._q, 2)
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return _reduced(p, q, norm)

    # -- order structure ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(2)."""
        return quad_sign(self._p, self._q, 2)

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> "QuadNum":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- integer part ------------------------------------------------------

    def floor(self) -> int:
        """Exact floor."""
        return quad_floor(self._p, self._q, self._den, 2)

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        # Display/diagnostic helper only; all logic uses exact predicates.
        return quad_float(self._p, self._q, self._den, 2)

    def __str__(self) -> str:
        p, q, den = self._p, self._q, self._den
        if q == 0:
            return _rational_text(p, den)
        if abs(q) == den:
            tail = "sqrt(2)"
        else:
            tail = f"{_rational_text(abs(q), den)}*sqrt(2)"
        sign = "-" if q < 0 else ("+" if p else "")
        head = _rational_text(p, den) if p else ""
        return f"{head}{sign}{tail}"

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r})"

    def to_json(self) -> dict:
        return {"a": _rational_text(self._p, self._den), "b": _rational_text(self._q, self._den)}

    @staticmethod
    def from_json(obj: dict) -> "QuadNum":
        return _from_ratios(_fraction(obj["a"]), _fraction(obj["b"]))

    @staticmethod
    def parse(text: str) -> "QuadNum":
        """Parse an exact string like ``3``, ``-1/2``, ``1+sqrt2``, ``2-3/2*sqrt(2)``.

        The unicode radical (as in ``1+√2`` or ``-3/2√2``) is accepted as well.
        """
        s = text.strip().replace(" ", "")
        s = s.replace("√2", "@").replace("sqrt(2)", "@").replace("sqrt2", "@")
        s = s.replace("*@", "@")
        if not s:
            raise QuadNumParseError("empty literal")
        if "@" not in s:
            if not _RATIONAL.fullmatch(s):
                raise QuadNumParseError(f"cannot parse {text!r} as an element of Q(sqrt(2))")
            return _from_ratios(_fraction(s), (0, 1))
        m = re.fullmatch(
            r"(?:(?P<ra>[+-]?\d+(?:/\d+)?)(?=[+-]))?"
            r"(?P<sb>[+-])?(?P<rb>\d+(?:/\d+)?)?@",
            s,
        )
        if not m:
            raise QuadNumParseError(f"cannot parse {text!r} as an element of Q(sqrt(2))")
        a = _fraction(m.group("ra")) if m.group("ra") else (0, 1)
        bn, bd = _fraction(m.group("rb")) if m.group("rb") else (1, 1)
        return _from_ratios(a, (-bn if m.group("sb") == "-" else bn, bd))


_object_new = object.__new__


def _reduced(p: int, q: int, den: int) -> QuadNum:
    """A QuadNum from ints with den > 0, divided by their gcd unless it is 1.

    den goes first: math.gcd stops once the running gcd is 1, so a small or
    unit den spares Euclid on two big numerators.
    """
    g = gcd(den, p, q)
    x = _object_new(QuadNum)
    if g == 1:
        x._p, x._q, x._den = p, q, den
    else:
        x._p, x._q, x._den = p // g, q // g, den // g
    return x


def _dot2(x1: QuadNum, y1: QuadNum, x2: QuadNum, y2: QuadNum) -> QuadNum:
    """x1*y1 + x2*y2 from the unreduced products, with one gcd reduction."""
    p1, q1, p2, q2 = x1._p, x1._q, y1._p, y1._q
    p3, q3, p4, q4 = x2._p, x2._q, y2._p, y2._q
    pa, qa, da = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, x1._den * y1._den
    pb, qb, db = p3 * p4 + 2 * q3 * q4, p3 * q4 + q3 * p4, x2._den * y2._den
    if da == db:
        return _reduced(pa + pb, qa + qb, da)
    return _reduced(pa * db + pb * da, qa * db + qb * da, da * db)


def _cross_ints(x1, y1, x2, y2) -> int:
    """The sign of x1*y2 - y1*x2, each entry the ints (p, q, den) of
    (p + q*sqrt(2))/den with den > 0, reduced or not: the package's one
    side-of-ray rule.  Both products are formed unreduced, with no gcd."""
    (p1, q1, d1), (p2, q2, d2), (p3, q3, d3), (p4, q4, d4) = x1, y2, y1, x2
    pa, qa, da = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2
    pb, qb, db = p3 * p4 + 2 * q3 * q4, p3 * q4 + q3 * p4, d3 * d4
    if da == db:
        return quad_sign(pa - pb, qa - qb, 2)
    return quad_sign(pa * db - pb * da, qa * db - qb * da, 2)


def _cross_sign(v: Vec2, w: Vec2) -> int:
    """The sign of cross(v, w) = v.x*w.y - v.y*w.x, by :func:`_cross_ints`."""
    x1, y1, x2, y2 = v.x, v.y, w.x, w.y
    return _cross_ints(
        (x1._p, x1._q, x1._den), (y1._p, y1._q, y1._den),
        (x2._p, x2._q, x2._den), (y2._p, y2._q, y2._den),
    )


def _coerce(x) -> QuadNum:
    if x.__class__ is QuadNum:
        return x
    if isinstance(x, int) or _is_fraction(x):
        return QuadNum(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(sqrt(2))")


def to_decimal(q: QuadNum, digits: int) -> str:
    """Correctly rounded decimal string of ``q`` with ``digits`` places.

    The output is exact round-half-even of the true real value.  For
    irrational q no tie is possible; rational ties round half to even.
    """
    limit = _max_int_digits()
    _int_arg(digits, "digits", 1, limit)  # the digits are written as one int
    p, s, den = q._p, q._q, q._den
    unit = 10**digits
    # So is the integer part: |q| >= 10**limit - 1/(2*unit) rounds to more than
    # limit digits.  |q| < 2**(bits + 2 - len(den)) <= 8**limit clears all but
    # the values near that bound, which are decided exactly.
    if max(p.bit_length(), s.bit_length() + 1) + 2 - den.bit_length() > 3 * limit:
        a, b = (p, s) if quad_sign(p, s, 2) >= 0 else (-p, -s)
        if _sign(2 * unit * a - (2 * 10**limit * unit - 1) * den, 2 * unit * b, 2) >= 0:
            raise ValueError(
                f"the integer part has more than {limit} digits, past Python's "
                "int-to-string limit"
            )
    if s == 0:
        n, rest = divmod(p * unit, den)
        if 2 * rest > den or (2 * rest == den and n & 1):
            n += 1
    else:
        # No tie: the value is irrational, so floor(value*unit + 1/2) is its rounding.
        n = quad_floor(2 * p * unit + den, 2 * s * unit, 2 * den, 2)
    sign = "-" if n < 0 else ""
    intpart, fracpart = divmod(abs(n), unit)
    return f"{sign}{intpart}.{fracpart:0{digits}d}"


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a value type,
    read from a frozen dataclass over its fields and defaults that is made on
    the first read, so no value type loads ``dataclasses`` at import."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner):
        return getattr(_as_dataclass(owner), self.name)


@cache  # per class, not stored on it: a subclass would inherit its base's fields
def _as_dataclass(cls):
    from dataclasses import make_dataclass

    names, defaults = cls.__slots__, cls._defaults
    # the defaults are class attributes of the made class, as in a class body
    given = dict(zip(names[len(names) - len(defaults) :], defaults))
    return make_dataclass(cls.__name__, names, namespace=given, frozen=True)


class _FrozenValue:
    """Base of the slotted immutable value types.

    The fields are the names in a class's own ``__slots__``, which every
    subclass declares.  Once per class, ``_fields`` is set to a
    getter of their values as a tuple, ``_setters`` to their slot setters,
    both in ``__slots__`` order, and ``__match_args__`` to their names.
    Equality, hash, repr and pickling (through the constructor) are over that
    tuple, as a frozen dataclass over the same fields has them, without the
    code generation that a dataclass runs at import.  ``__init__`` takes the
    fields positionally or by keyword, the last ones defaulting to
    ``_defaults`` as a function's to its ``__defaults__``, writes them through
    the setters and runs ``__post_init__``, a subclass's checks; so a type
    with no checks and no defaults declares only its ``__slots__``.  A type
    that builds its fields itself, or a trusted constructor, writes them
    through ``_setters`` too.  The dataclass field table is built on first
    read (:class:`_DataclassView`), so ``dataclasses.replace``, ``fields``
    and ``asdict`` take every value type.
    """

    __slots__ = ()
    _defaults: tuple = ()
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__dict__["__slots__"]
        if len(names) == 1:
            get = attrgetter(names[0])
            cls._fields = staticmethod(lambda value: (get(value),))
        else:
            cls._fields = staticmethod(attrgetter(*names))
        cls._setters = tuple(cls.__dict__[name].__set__ for name in names)
        cls.__match_args__ = names

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            positional = names[: len(args)]
            given = dict(zip(names[len(names) - len(self._defaults) :], self._defaults))
            given.update(zip(positional, args), **kwargs)
            if len(args) > len(names) or kwargs.keys() & positional or given.keys() != set(names):
                raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(names)}")
            args = [given[name] for name in names]
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the fields once they are written; a type with checks overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __replace__(self, **changes):
        """``copy.replace``: a copy with ``changes``, built by the constructor."""
        return self.__class__(**dict(zip(self.__slots__, self._fields(self)), **changes))


class Vec2(_FrozenValue):
    """A planar vector with exact Q(sqrt(2)) components.

    Immutable, with value equality and hashing over ``(x, y)``.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        super().__init__(_coerce(x), _coerce(y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return _vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return _vec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return _vec(-self.x, -self.y)

    def scale(self, c) -> "Vec2":
        c = _coerce(c)
        return _vec(self.x * c, self.y * c)

    def cross(self, other: "Vec2") -> QuadNum:
        return _dot2(self.x, other.y, -self.y, other.x)

    def dot(self, other: "Vec2") -> QuadNum:
        return _dot2(self.x, other.x, self.y, other.y)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Vec2":
        return Vec2(QuadNum.from_json(obj["x"]), QuadNum.from_json(obj["y"]))


def _vec(x: QuadNum, y: QuadNum, _setters=Vec2._setters) -> Vec2:
    """A Vec2 from components that are already QuadNums."""
    set_x, set_y = _setters
    v = _object_new(Vec2)
    set_x(v, x)
    set_y(v, y)
    return v


class Direction(_FrozenValue):
    """A direction of the flow, i.e. a nonzero vector up to positive scaling.

    Directions live in the closed upper half plane; the two horizontal rays
    (theta = 0 and theta = pi) are kept distinct even though both have
    inverse slope u = infinity.  Vectors handed in with y < 0 are negated.
    Immutable, with value equality and hashing over the stored ``vector``.
    """

    __slots__ = ("vector",)

    def __init__(self, vector: Vec2):
        if vector.is_zero():
            raise ValueError("the zero vector has no direction")
        ys = vector.y.sign()
        if ys < 0:
            vector = -vector
        self._setters[0](self, vector)

    def u_text(self) -> str:
        """The inverse slope u = x/y as exact text, ``inf`` on both horizontal rays."""
        x, y = self.vector.x, self.vector.y
        return "inf" if y.is_zero() else str(x / y)

    @property
    def is_theta_zero(self) -> bool:
        return self.vector.y.is_zero() and self.vector.x.sign() > 0

    @property
    def is_theta_pi(self) -> bool:
        return self.vector.y.is_zero() and self.vector.x.sign() < 0

    def ray_eq(self, other: "Direction") -> bool:
        return theta_cmp(self, other) == 0

    def theta_float(self) -> float:
        """Approximate angle in [0, pi]; diagnostics and widths only."""
        if self.vector.y.is_zero():
            return 0.0 if self.vector.x.sign() > 0 else pi
        return atan2(1.0, float(self.vector.x / self.vector.y))

    def __str__(self) -> str:
        return f"dir{self.vector}"

    def to_json(self) -> dict:
        return self.vector.to_json()

    @staticmethod
    def from_json(obj: dict) -> "Direction":
        return Direction(Vec2.from_json(obj))


def _direction(vector: Vec2, _set=Direction._setters[0]) -> Direction:
    """A Direction from a vector proved nonzero with y >= 0, with no zero or sign test."""
    d = _object_new(Direction)
    _set(d, vector)
    return d


def theta_cmp(d1: Direction, d2: Direction) -> int:
    """Exact three-way comparison of angles in [0, pi].

    In the closed upper half plane the sign of the cross product orders any
    two rays except the opposite horizontals, the only parallel pair that is
    not equal: parallel rays off the horizontals have y > 0 and are equal,
    and on them theta = pi (x < 0) comes last.
    """
    v1, v2 = d1.vector, d2.vector
    side = _cross_sign(v1, v2)
    if side or not v1.y.is_zero():
        return -side
    return (v1.x.sign() < 0) - (v2.x.sign() < 0)


class _Invertible(_FrozenValue):
    """Holds a matrix's inverse once it is taken, in a slot outside its fields."""

    __slots__ = ("_inverse",)


class Mat2(_Invertible):
    """A 2x2 matrix over Q(sqrt(2)); group elements here have det +-1.

    Immutable, with value equality and hashing over ``(a, b, c, d)``.  The
    inverse is computed on the first call and kept outside those fields; the
    inverse keeps no link back, so no cycle is made.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        super().__init__(_coerce(a), _coerce(b), _coerce(c), _coerce(d))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return _mat(
            _dot2(self.a, other.a, self.b, other.c),
            _dot2(self.a, other.b, self.b, other.d),
            _dot2(self.c, other.a, self.d, other.c),
            _dot2(self.c, other.b, self.d, other.d),
        )

    def det(self) -> QuadNum:
        return _dot2(self.a, self.d, -self.b, self.c)

    def inverse(self) -> "Mat2":
        try:
            return self._inverse
        except AttributeError:
            pass
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("singular matrix")
        inv = det.inverse()
        m = _mat(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)
        _Invertible._setters[0](self, m)
        return m

    def apply(self, v: Vec2) -> Vec2:
        return _vec(_dot2(self.a, v.x, self.b, v.y), _dot2(self.c, v.x, self.d, v.y))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def to_json(self) -> list:
        return [[self.a.to_json(), self.b.to_json()], [self.c.to_json(), self.d.to_json()]]


def _mat(a: QuadNum, b: QuadNum, c: QuadNum, d: QuadNum, _setters=Mat2._setters) -> Mat2:
    """A Mat2 from entries that are already QuadNums."""
    set_a, set_b, set_c, set_d = _setters
    m = _object_new(Mat2)
    set_a(m, a)
    set_b(m, b)
    set_c(m, c)
    set_d(m, d)
    return m
