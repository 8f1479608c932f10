"""Cone extension: Newton rearrangement, homogeneous extension, round trips."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from polydiff.errors import (
    ConeDomainError,
    ExtensionHypothesisError,
    MissingSampleError,
)
from polydiff.kantorovich import (
    ConeFunction,
    check_extension_hypotheses,
    cone_components,
    homogeneous_extend,
    jordan_parts,
    kantorovich_extend,
    table_grid_points,
)
from polydiff.poly import ScalarPoly, VectorPoly, as_vector_poly, variables
from polydiff.positivity import counterexample_cubic, is_positive
from polydiff.sampling import SamplerConfig, rand_vec, rand_vector_poly
from polydiff.tensor import SymTensor, polarize_signs, tensor_eval
from polydiff.vectors import as_vec, basis_vec, vec_sub, zero_vec

CFG = SamplerConfig(seed=2, samples=16)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@given(st.lists(rationals, min_size=1, max_size=5))
def test_jordan_parts_properties(entries):
    x = as_vec(entries)
    pos, neg = jordan_parts(x)
    assert vec_sub(pos, neg) == x
    assert all(p >= 0 and q >= 0 for p, q in zip(pos, neg))
    assert all(min(p, q) == 0 for p, q in zip(pos, neg))


def test_jordan_parts_examples():
    assert jordan_parts((3, -2)) == ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(2)))
    assert jordan_parts((2, 5)) == ((Fraction(2), Fraction(5)), (Fraction(0), Fraction(0)))
    assert jordan_parts((0, 0)) == (zero_vec(2), zero_vec(2))


def test_hypotheses_pass_for_positive_product():
    x1, x2 = variables(2)
    report = check_extension_hypotheses(ConeFunction.from_poly(x1 * x2), 2, CFG)
    assert report.verdict == "pass"


def test_hypotheses_fail_condition_ii():
    x1, x2 = variables(2)
    f = ConeFunction.from_poly((x1 - x2) ** 2)
    report = check_extension_hypotheses(f, 2, CFG)
    assert report.failed
    witness = report.witnesses[0]
    assert witness.points == (zero_vec(2), basis_vec(0, 2), basis_vec(1, 2))
    assert witness.value == (Fraction(-2),)


def test_hypotheses_fail_condition_i():
    (t,) = variables(1)
    f = ConeFunction.from_poly(t**3)
    report = check_extension_hypotheses(f, 2, CFG)
    assert report.failed
    witness = report.witnesses[0]
    assert len(witness.points) == 4
    assert witness.value == (Fraction(6),)


def test_cone_function_rejects_off_cone_points():
    x1, x2 = variables(2)
    f = ConeFunction.from_poly(x1 * x2)
    with pytest.raises(ConeDomainError):
        f((1, -1))
    with pytest.raises(ConeDomainError):
        cone_components(f, 2, (-1, 0))


def test_cone_components_examples():
    x1, x2 = variables(2)
    f = ConeFunction.from_poly(x1 * x2 + x1)
    assert cone_components(f, 2, (1, 1)) == [(Fraction(0),), (Fraction(1),), (Fraction(1),)]
    g = ConeFunction.from_poly(ScalarPoly.constant(2, Fraction(7, 2)))
    assert cone_components(g, 2, (3, 4)) == [(Fraction(7, 2),), (Fraction(0),), (Fraction(0),)]
    cubic = ConeFunction.from_poly(counterexample_cubic())
    assert cone_components(cubic, 3, (1, 1, 1)) == [
        (Fraction(0),),
        (Fraction(0),),
        (Fraction(0),),
        (Fraction(15),),
    ]


def test_cone_components_match_split_and_scale():
    rng = Random(151)
    for _ in range(15):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 4)
        m = p.degree() if p.degree() is not None else 0
        f = ConeFunction.from_poly(p)
        x = rand_vec(rng, n, CFG, nonneg=True)
        comps = cone_components(f, m, x)
        split = p.homogeneous_split() or [VectorPoly.zero(n, p.codim)]
        for k in range(m + 1):
            expected = split[k].evaluate(x) if k < len(split) else zero_vec(p.codim)
            assert comps[k] == expected
        # natural-multiplier homogeneity of the extracted values
        for pmul in (2, 3):
            scaled = cone_components(f, m, tuple(pmul * c for c in x))
            for k in range(m + 1):
                assert scaled[k] == tuple(pmul**k * c for c in comps[k])


def test_cone_components_newton_check_catches_high_degree():
    (t,) = variables(1)
    f = ConeFunction.from_poly(t**3)
    with pytest.raises(ExtensionHypothesisError) as info:
        cone_components(f, 2, (1,))
    assert info.value.condition == "(i)"
    # the order-3 pure difference of t^3 along 1 is 3! = 6
    assert info.value.witness.points == ((Fraction(1),),)
    assert info.value.witness.value == (Fraction(6),)
    assert "multiplier 3" in str(info.value)


def test_homogeneous_extend_examples():
    x1, x2 = variables(2)
    t_lin = homogeneous_extend(ConeFunction.from_poly(as_vector_poly(x1)), 1, CFG)
    assert t_lin == SymTensor(1, 2, 1, {(0,): (1,)})
    t_prod = homogeneous_extend(ConeFunction.from_poly(x1 * x2), 2, CFG)
    assert t_prod.value_at((0, 1)) == (Fraction(1, 2),)
    assert t_prod.value_at((0, 0)) == (Fraction(0),)
    const = ConeFunction(2, 1, lambda v: (Fraction(5),))
    t_const = homogeneous_extend(const, 0, CFG)
    assert t_const == SymTensor(0, 2, 1, {(): (5,)})


def test_homogeneous_extend_rejects_inhomogeneous_data():
    x1, x2 = variables(2)
    f = ConeFunction.from_poly(x1 * x2 + x1)  # not 2-homogeneous
    with pytest.raises(ExtensionHypothesisError):
        homogeneous_extend(f, 2, CFG)


def test_extension_round_trip_examples():
    x1, x2 = variables(2)
    result = kantorovich_extend(ConeFunction.from_poly(x1 * x2), 2, CFG)
    assert result.poly == as_vector_poly(x1 * x2)
    assert result.hypothesis_report.verdict == "pass"
    assert result.agreement_report.verdict == "pass"

    rich = 2 + 3 * x1 + x1**2 * x2**2
    result = kantorovich_extend(ConeFunction.from_poly(rich), 4, CFG)
    assert result.poly == as_vector_poly(rich)
    assert is_positive(result.poly)[0]


def test_extension_components_sum_to_poly():
    x1, x2 = variables(2)
    rich = 1 + x1 + 2 * x1 * x2 + x2**3
    result = kantorovich_extend(ConeFunction.from_poly(rich), 3, CFG)
    from polydiff.tensor import tensor_to_poly

    total = VectorPoly.zero(2, 1)
    for tensor in result.components:
        total = total + tensor_to_poly(tensor)
    assert total == result.poly


def test_extension_rejects_non_cone_monotone_square():
    x1, x2 = variables(2)
    with pytest.raises(ExtensionHypothesisError) as info:
        kantorovich_extend(ConeFunction.from_poly((x1 - x2) ** 2), 2, CFG)
    assert info.value.condition == "(ii)"
    assert info.value.witness.value == (Fraction(-2),)


def test_extension_rejects_degree_overflow():
    (t,) = variables(1)
    with pytest.raises(ExtensionHypothesisError) as info:
        kantorovich_extend(ConeFunction.from_poly(t**3), 2, CFG)
    assert info.value.condition == "(i)"


def test_extension_round_trip_random_nonneg():
    rng = Random(163)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 4, codim=rng.randint(1, 2), nonneg=True)
        result = kantorovich_extend(ConeFunction.from_poly(p), 4, CFG)
        assert result.poly == p
        assert is_positive(result.poly)[0]


def test_extension_tensors_match_independent_polarization():
    rng = Random(167)
    for _ in range(8):
        p = rand_vector_poly(rng, 2, 3, nonneg=True)
        result = kantorovich_extend(ConeFunction.from_poly(p), 3, CFG)
        split = p.homogeneous_split()
        for k, tensor in enumerate(result.components):
            if k < len(split):
                assert tensor == polarize_signs(split[k], order=k)
            else:
                assert tensor.is_zero


def test_jordan_extension_equals_multilinear_expansion():
    """The variable-at-a-time x = x+ - x- extension agrees with direct
    multilinear evaluation on mixed-sign arguments."""

    def jordan_eval(tensor, args):
        args = [as_vec(a) for a in args]
        for slot, arg in enumerate(args):
            pos, neg = jordan_parts(arg)
            if any(neg):
                plus = jordan_eval(tensor, args[:slot] + [pos] + args[slot + 1 :])
                minus = jordan_eval(tensor, args[:slot] + [neg] + args[slot + 1 :])
                return vec_sub(plus, minus)
        return tensor_eval(tensor, args)

    rng = Random(173)
    cfg = SamplerConfig(seed=9, samples=8)
    for _ in range(10):
        p = rand_vector_poly(rng, 2, 3, nonneg=True)
        result = kantorovich_extend(ConeFunction.from_poly(p), 3, cfg)
        for tensor in result.components:
            if tensor.order == 0:
                continue
            args = [rand_vec(rng, 2, cfg) for _ in range(tensor.order)]
            assert jordan_eval(tensor, args) == tensor_eval(tensor, args)


def test_opaque_cone_function_extension():
    x1, x2 = variables(2)
    secret = x1 * x2 + 2 * x1
    poly = as_vector_poly(secret)
    f = ConeFunction(2, 1, poly.evaluate)  # no poly marker: sampling path
    result = kantorovich_extend(f, 2, SamplerConfig(seed=11, samples=12))
    assert result.poly == poly
    assert result.hypothesis_report.verdict == "probabilistic"
    assert result.agreement_report.verdict == "probabilistic"
    assert result.agreement_report.samples_used == 12


def test_table_backed_extension_round_trip():
    x1, x2 = variables(2)
    poly = as_vector_poly(x1 * x2)
    table = {pt: poly.evaluate(pt) for pt in table_grid_points(2, 2)}
    f = ConeFunction.from_table(2, 1, table)
    result = kantorovich_extend(f, 2, SamplerConfig(seed=3, samples=8))
    assert result.poly == poly


def test_table_missing_point_is_reported():
    x1, x2 = variables(2)
    poly = as_vector_poly(x1 * x2)
    table = {pt: poly.evaluate(pt) for pt in table_grid_points(2, 2)}
    removed = as_vec((2, 2))
    del table[removed]
    f = ConeFunction.from_table(2, 1, table)
    with pytest.raises(MissingSampleError) as info:
        kantorovich_extend(f, 2, SamplerConfig(seed=3, samples=8))
    assert info.value.point == removed
