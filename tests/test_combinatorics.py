"""Combinatorial kernels against independent oracles (Pascal, factorials, sums)."""

import math
from fractions import Fraction

import pytest

from polydiff.combinatorics import (
    binomial,
    falling_factorial,
    multinomial,
    stirling1_unsigned,
    stirling2,
    stirling2_alternating_sum,
)


def pascal_oracle(n, k):
    """Pascal-triangle recurrence, independent of math.comb."""
    if k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def stirling1_recurrence_oracle(j, k):
    table = {(0, 0): 1}
    for jj in range(1, j + 1):
        for kk in range(0, jj + 1):
            table[(jj, kk)] = table.get((jj - 1, kk - 1), 0) + (jj - 1) * table.get((jj - 1, kk), 0)
    return table.get((j, k), 0)


def test_binomial_examples():
    assert binomial(3, 1) == 3
    assert binomial(4, 2) == 6 == pascal_oracle(4, 2)
    assert binomial(2, 5) == 0
    assert binomial(7, 0) == 1


def test_binomial_matches_pascal_triangle():
    for n in range(0, 11):
        for k in range(0, 13):
            assert binomial(n, k) == pascal_oracle(n, k)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_multinomial_examples():
    assert multinomial(3, [3]) == 1
    assert multinomial(3, [1, 1, 1]) == math.factorial(3)
    assert multinomial(4, [2, 1, 1]) == math.factorial(4) // (2 * 1 * 1)


def test_multinomial_equals_factorial_ratio():
    cases = [(5, [2, 3]), (6, [1, 2, 3]), (4, [4]), (0, []), (7, [7, 0])]
    for k, parts in cases:
        expected = math.factorial(k)
        for p in parts:
            expected //= math.factorial(p)
        assert multinomial(k, parts) == expected


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(3, [1, 1])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


def test_stirling2_examples():
    assert stirling2(3, 2) == 3 == stirling2_alternating_sum(3, 2)
    for k in range(7):
        assert stirling2(k, k) == 1
    assert stirling2(2, 3) == 0
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7


def test_stirling2_recurrence_equals_defining_sum():
    for j in range(9):
        for n in range(9):
            assert stirling2(j, n) == stirling2_alternating_sum(j, n)


def test_stirling1_examples():
    assert stirling1_unsigned(3, 2) == 3 == stirling1_recurrence_oracle(3, 2)
    assert stirling1_unsigned(4, 2) == 11 == stirling1_recurrence_oracle(4, 2)
    for j in range(7):
        assert stirling1_unsigned(j, j) == 1
    assert stirling1_unsigned(2, 5) == 0


def test_stirling1_matches_recurrence_oracle():
    for j in range(9):
        for k in range(9):
            assert stirling1_unsigned(j, k) == stirling1_recurrence_oracle(j, k)


def test_falling_factorial_examples():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(17, 0) == 1
    assert falling_factorial(Fraction(1, 2), 0) == 1
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_falling_factorial_expands_through_stirling1():
    # n^(j) = sum_k (-1)^(j-k) c(j,k) n^k, for integers around the index range
    for j in range(9):
        for n in range(-2, j + 3):
            expansion = sum(
                (-1) ** (j - k) * stirling1_unsigned(j, k) * n**k for k in range(j + 1)
            )
            assert falling_factorial(n, j) == expansion


def test_binomial_is_falling_factorial_over_factorial():
    for n in range(13):
        for j in range(13):
            assert Fraction(falling_factorial(n, j), math.factorial(j)) == binomial(n, j)


def test_stirling2_far_beyond_small_indices_matches_defining_sum():
    # row-by-row evaluation: no recursion depth, polynomial time in the indices
    assert stirling2(200, 100) == stirling2_alternating_sum(200, 100)
    assert stirling2(1200, 3) == (3**1200 - 3 * 2**1200 + 3) // 6


def test_falling_factorial_expands_through_stirling1_at_order_200():
    j = 200
    coeffs = [(-1) ** (j - k) * stirling1_unsigned(j, k) for k in range(j + 1)]
    for n in (-3, 0, 1, 7, 199, 200, 250):
        assert falling_factorial(n, j) == sum(c * n**k for k, c in enumerate(coeffs))
