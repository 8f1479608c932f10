"""Symmetric forms: polarization round trips, base independence, positivity."""

from fractions import Fraction
from random import Random

import pytest

from polydiff.errors import DimensionError, NotHomogeneousError
from polydiff.poly import ScalarPoly, VectorPoly, as_vector_poly, variables
from polydiff.positivity import counterexample_cubic
from polydiff.sampling import SamplerConfig, rand_homogeneous_poly, rand_vec
from polydiff.tensor import (
    SymTensor,
    polarize_mo,
    polarize_signs,
    poly_to_tensor,
    tensor_apply_powers,
    tensor_eval,
    tensor_is_nonneg,
    tensor_to_poly,
)
from polydiff.vectors import basis_vec


def test_polarize_x1x2():
    x1, x2 = variables(2)
    tensor = polarize_signs(x1 * x2)
    assert tensor.value_at((0, 1)) == (Fraction(1, 2),)
    assert tensor.value_at((0, 0)) == (Fraction(0),)
    assert tensor.value_at((1, 1)) == (Fraction(0),)


def test_polarize_square_one_var():
    (x,) = variables(1)
    tensor = polarize_signs(x**2)
    assert tensor.value_at((0, 0)) == (Fraction(1),)


def test_polarize_x1sq_x2():
    x1, x2 = variables(2)
    tensor = polarize_signs(x1**2 * x2)
    assert tensor.value_at((0, 0, 1)) == (Fraction(1, 3),)


def test_polarize_rejects_inhomogeneous():
    (x,) = variables(1)
    with pytest.raises(NotHomogeneousError):
        polarize_signs(x**2 + x)
    with pytest.raises(NotHomogeneousError):
        polarize_mo(x**2 + x, (0,))


def test_polarize_mo_examples():
    x1, x2 = variables(2)
    base_free = polarize_signs(x1 * x2)
    assert polarize_mo(x1 * x2, (0, 0)) == base_free
    assert polarize_mo(x1 * x2, (7, -3)) == base_free
    (x,) = variables(1)
    assert polarize_mo(x**2, (1,)).value_at((0, 0)) == (Fraction(1),)


def test_tensor_eval_multilinearity_zero_argument():
    x1, x2 = variables(2)
    tensor = polarize_signs(x1 * x2)
    assert tensor_eval(tensor, [(0, 0), (3, 5)]) == (Fraction(0),)
    assert tensor_eval(tensor, [basis_vec(0, 2), basis_vec(1, 2)]) == (Fraction(1, 2),)


def test_tensor_eval_cubic_witness():
    tensor = polarize_signs(counterexample_cubic())
    args = [basis_vec(i, 3) for i in range(3)]
    assert tensor_eval(tensor, args) == (Fraction(-1),)


def test_tensor_to_poly_examples():
    assert tensor_to_poly(SymTensor.zero(2, 2)).is_zero
    x1, x2 = variables(2)
    tensor = SymTensor(2, 2, 1, {(0, 1): (Fraction(1, 2),)})
    assert tensor_to_poly(tensor) == as_vector_poly(x1 * x2)
    (x,) = variables(1)
    diag = SymTensor(2, 1, 1, {(0, 0): (1,)})
    assert tensor_to_poly(diag) == as_vector_poly(x**2)


def test_tensor_to_poly_matches_diagonal_eval():
    rng = Random(3)
    cfg = SamplerConfig(numerator_bound=6, denominator_bound=4)
    for _ in range(15):
        p = rand_homogeneous_poly(rng, 3, 3)
        tensor = polarize_signs(p)
        x = rand_vec(rng, 3, cfg)
        assert tensor_to_poly(tensor).evaluate(x) == tensor_eval(tensor, [x] * 3)


def test_roundtrip_random_homogeneous():
    rng = Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        p = rand_homogeneous_poly(rng, n, k, codim=rng.randint(1, 2))
        tensor = polarize_signs(p)
        assert tensor_to_poly(tensor) == p


def test_base_independence_random():
    rng = Random(29)
    cfg = SamplerConfig(numerator_bound=8, denominator_bound=4)
    for _ in range(20):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        p = rand_homogeneous_poly(rng, n, k)
        reference = polarize_signs(p)
        for _ in range(2):
            base = rand_vec(rng, n, cfg)
            assert polarize_mo(p, base) == reference


def test_symmetry_under_argument_permutations():
    rng = Random(37)
    cfg = SamplerConfig(numerator_bound=6, denominator_bound=3)
    for _ in range(10):
        p = rand_homogeneous_poly(rng, 2, 3)
        tensor = polarize_signs(p)
        args = [rand_vec(rng, 2, cfg) for _ in range(3)]
        reference = tensor_eval(tensor, args)
        shuffled = list(args)
        rng.shuffle(shuffled)
        assert tensor_eval(tensor, shuffled) == reference


def test_tensor_is_nonneg():
    x1, x2 = variables(2)
    ok, witness = tensor_is_nonneg(polarize_signs(x1 * x2))
    assert ok and witness is None
    ok, witness = tensor_is_nonneg(polarize_signs(counterexample_cubic()))
    assert not ok
    assert witness == (0, 1, 2)
    ok, witness = tensor_is_nonneg(SymTensor.zero(3, 2))
    assert ok and witness is None


def test_tensor_apply_powers():
    (x,) = variables(1)
    tensor = polarize_signs(x**2)
    h = (Fraction(3, 2),)
    assert tensor_apply_powers(tensor, [(h, 2)]) == (Fraction(9, 4),)
    x1, x2 = variables(2)
    tri = polarize_signs(x1**2 * x2)
    assert tensor_apply_powers(tri, [(basis_vec(0, 2), 2), (basis_vec(1, 2), 1)]) == (Fraction(1, 3),)
    full = tensor_apply_powers(tri, [((2, 5), 3)])
    assert full == as_vector_poly(x1**2 * x2).evaluate((2, 5))


def test_tensor_apply_powers_validates_multiplicities():
    (x,) = variables(1)
    tensor = polarize_signs(x**2)
    with pytest.raises(DimensionError):
        tensor_apply_powers(tensor, [((1,), 1)])


def test_order_zero_tensor_is_constant():
    tensor = SymTensor(0, 3, 2, {(): (4, -1)})
    assert tensor_eval(tensor, []) == (Fraction(4), Fraction(-1))
    poly = tensor_to_poly(tensor)
    assert poly.evaluate((9, 9, 9)) == (Fraction(4), Fraction(-1))


def test_coefficient_route_equals_both_polarizations():
    """poly_to_tensor reads coefficients; the two polarizations only evaluate."""
    rng = Random(41)
    cfg = SamplerConfig(numerator_bound=7, denominator_bound=5)
    forms = [
        rand_homogeneous_poly(
            rng, rng.randint(1, 4), rng.randint(1, 4), codim=rng.randint(1, 2), coeff_den_bound=6
        )
        for _ in range(40)
    ]
    zero_coord = VectorPoly(
        (ScalarPoly(3, {(1, 2, 0): Fraction(-5, 3), (0, 0, 3): Fraction(7, 2)}), ScalarPoly.zero(3))
    )
    constant = VectorPoly.constant(2, [Fraction(-4, 9), Fraction(3)])  # order 0
    for p in forms + [zero_coord, constant]:
        tensor = poly_to_tensor(p)
        assert tensor.order == p.degree()
        assert polarize_signs(p) == tensor
        for _ in range(3):
            assert polarize_mo(p, rand_vec(rng, p.nvars, cfg)) == tensor
        assert tensor_to_poly(tensor) == p


def test_coefficient_route_zero_form_and_errors():
    zero = VectorPoly.zero(3, 2)
    for k in (0, 2, 3):
        expected = SymTensor.zero(k, 3, 2)
        assert poly_to_tensor(zero, order=k) == expected
        assert polarize_signs(zero, order=k) == expected
        assert polarize_mo(zero, (1, Fraction(-2, 3), 5), order=k) == expected
    x1, x2 = variables(2)
    with pytest.raises(NotHomogeneousError):
        poly_to_tensor(zero)
    with pytest.raises(NotHomogeneousError):
        poly_to_tensor(x1**2 + x2)
    with pytest.raises(NotHomogeneousError):
        poly_to_tensor(x1 * x2, order=3)
    assert poly_to_tensor(x1**2 * x2).value_at((1, 0, 0)) == (Fraction(1, 3),)
