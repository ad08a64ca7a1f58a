"""Paths and helpers shared by the workload modules."""

from __future__ import annotations

import os
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def have_source() -> bool:
    return os.path.isfile(os.path.join(SRC, "octocf", "__init__.py"))


def use_source() -> None:
    """Import octocf from this checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(extra: dict | None = None) -> dict:
    """Environment for a child interpreter that imports octocf from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class CheckFailure(Exception):
    """An operation's output is not exactly what it must be."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def fraction_bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def quadnum_bits(q) -> int:
    """Coefficient bit-height of a QuadNum: its largest numerator or denominator."""
    return max(fraction_bits(q.a), fraction_bits(q.b))


def vector_bits(vectors) -> int:
    return max(max(quadnum_bits(v.x), quadnum_bits(v.y)) for v in vectors)
