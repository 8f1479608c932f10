"""Exact rational vectors and the componentwise (positive-cone) order.

All scalar arithmetic in this package is done with ``fractions.Fraction``;
floats are rejected so every identity can be checked with exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import DimensionError

Rat = Fraction
RatLike = Union[Fraction, int, str]
Vec = tuple[Fraction, ...]


def as_rat(value: RatLike) -> Fraction:
    """Coerce an int, a string like ``-3/2``, or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_vec(entries: Iterable[RatLike]) -> Vec:
    return tuple(as_rat(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def basis_vec(i: int, n: int) -> Vec:
    if not 0 <= i < n:
        raise DimensionError(f"basis index {i} out of range for dimension {n}")
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def _check_len(a: Vec, b: Vec) -> None:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths differ: {len(a)} vs {len(b)}")


def vec_add(a: Vec, b: Vec) -> Vec:
    _check_len(a, b)
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    _check_len(a, b)
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: RatLike, a: Vec) -> Vec:
    c = as_rat(c)
    return tuple(c * x for x in a)


def vec_is_nonneg(a: Vec) -> bool:
    return all(x >= 0 for x in a)


def vec_le(a: Vec, b: Vec) -> bool:
    """Componentwise order: a <= b in the standard cone."""
    _check_len(a, b)
    return all(x <= y for x, y in zip(a, b))


def vec_str(a: Vec) -> str:
    return "[" + ", ".join(str(x) for x in a) + "]"
