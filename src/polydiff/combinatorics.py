"""Exact combinatorial quantities: binomials, multinomials, Stirling numbers.

Everything returns arbitrary-precision integers (or Fractions for the falling
factorial of a rational argument).  Stirling numbers are computed row by row
of their triangle, without recursion, in O(j * n) integer operations; no
state is shared between calls, so the functions are safe for concurrent use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """Pascal-triangle value C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return math.comb(n, k)


def multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / prod(parts!) for parts summing to k."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != k:
        raise ValueError(f"parts {parts} do not sum to {k}")
    out = 1
    total = 0
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


def stirling2(j: int, n: int) -> int:
    """Stirling number of the second kind S(j, n), by the triangle recurrence.

    S(j, n) counts partitions of a j-set into n nonempty blocks; S(j, n) = 0
    for j < n and S(0, 0) = 1.  Row i of the triangle, columns 0..n, is
    updated in place from row i - 1 by S(i, k) = k S(i-1, k) + S(i-1, k-1).
    """
    if j < 0 or n < 0:
        raise ValueError("stirling2 arguments must be nonnegative")
    if n > j:
        return 0
    row = [1] + [0] * n
    for i in range(1, j + 1):
        for k in range(min(i, n), 0, -1):
            row[k] = k * row[k] + row[k - 1]
        row[0] = 0
    return row[n]


def stirling2_alternating_sum(j: int, n: int) -> int:
    """S(j, n) via the defining alternating sum (1/n!) sum (-1)^(n-i) C(n,i) i^j.

    Independent of the recurrence in :func:`stirling2`; the two are
    cross-checked in the test suite.  Python's 0**0 == 1 supplies the needed
    convention for i = j = 0.
    """
    if j < 0 or n < 0:
        raise ValueError("stirling2 arguments must be nonnegative")
    total = 0
    for i in range(n + 1):
        total += (-1) ** (n - i) * math.comb(n, i) * i**j
    value = Fraction(total, math.factorial(n))
    if value.denominator != 1:
        raise AssertionError("alternating sum is not an integer")
    return int(value)


def stirling1_unsigned(j: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(j, k).

    Satisfies the falling-factorial expansion
    n(n-1)...(n-j+1) = sum_k (-1)^(j-k) c(j, k) n^k and the recurrence
    c(j, k) = c(j-1, k-1) + (j-1) c(j-1, k), applied row by row as in
    :func:`stirling2`.
    """
    if j < 0 or k < 0:
        raise ValueError("stirling1 arguments must be nonnegative")
    if k > j:
        return 0
    row = [1] + [0] * k
    for i in range(1, j + 1):
        for col in range(min(i, k), 0, -1):
            row[col] = row[col - 1] + (i - 1) * row[col]
        row[0] = 0
    return row[k]


def falling_factorial(n, j: int):
    """n(n-1)...(n-j+1); 1 for j = 0.  Exact for int or Fraction arguments."""
    if j < 0:
        raise ValueError("falling factorial order must be nonnegative")
    out = 1
    for i in range(j):
        out = out * (n - i)
    return out
