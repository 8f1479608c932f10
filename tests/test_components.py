"""Component extraction by three routes against the coefficient-split oracle."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from polydiff.components import (
    component_by_scaling,
    components_by_interpolation,
    components_by_stirling,
    degree_search,
    degree_test,
    interpolation_component_polys,
    nonzero_point,
    stirling_component_polys,
    tensor_by_scaling,
    vandermonde_inverse,
)
from polydiff.diffcalc import BlackBoxFn, Witness, pure_diff_at
from polydiff.poly import ScalarPoly, VectorPoly, as_vector_poly, variables
from polydiff.positivity import counterexample_cubic
from polydiff.sampling import SamplerConfig, rand_vec, rand_vector_poly
from polydiff.tensor import SymTensor, polarize_signs
from polydiff.vectors import as_vec, zero_vec

CFG = SamplerConfig(numerator_bound=7, denominator_bound=4)


def test_vandermonde_inverse_small_cases():
    alpha = vandermonde_inverse(1)
    assert alpha.rows == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
    alpha = vandermonde_inverse(2)
    assert alpha.rows[1] == (Fraction(-3, 2), Fraction(2), Fraction(-1, 2))


def test_vandermonde_inverse_defining_property():
    for m in range(9):
        alpha = vandermonde_inverse(m)
        for k in range(m + 1):
            for l in range(m + 1):
                acc = sum(
                    (alpha.entry(k, j) * Fraction(j**l) for j in range(m + 1)),
                    Fraction(0),
                )
                assert acc == (1 if k == l else 0)


def test_interpolation_t_squared():
    (t,) = variables(1)
    f = BlackBoxFn.from_poly(t**2)
    assert components_by_interpolation(f, 2, (1,)) == [
        (Fraction(0),),
        (Fraction(0),),
        (Fraction(1),),
    ]


def test_interpolation_constant():
    f = BlackBoxFn.from_poly(ScalarPoly.constant(2, Fraction(5, 3)))
    comps = components_by_interpolation(f, 3, (2, 7))
    assert comps[0] == (Fraction(5, 3),)
    assert all(c == (Fraction(0),) for c in comps[1:])


def test_interpolation_cubic_at_ones():
    f = BlackBoxFn.from_poly(counterexample_cubic())
    comps = components_by_interpolation(f, 3, (1, 1, 1))
    assert comps == [(Fraction(0),), (Fraction(0),), (Fraction(0),), (Fraction(15),)]


def test_stirling_t_squared_kills_odd_component():
    (t,) = variables(1)
    f = BlackBoxFn.from_poly(t**2)
    for x in [(1,), (Fraction(3, 2),), (5,)]:
        comps = components_by_stirling(f, 2, x)
        assert comps[1] == (Fraction(0),)
        assert comps[2] == (x[0] ** 2,)


def test_stirling_homogeneous_single_index():
    x1, x2 = variables(2)
    f = BlackBoxFn.from_poly(x1**2 * x2)
    comps = components_by_stirling(f, 4, (2, 3))
    assert comps[3] == (Fraction(12),)
    assert all(comps[k] == (Fraction(0),) for k in range(5) if k != 3)


def test_methods_agree_with_split_oracle():
    rng = Random(71)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 5, codim=rng.randint(1, 2))
        m = p.degree() if p.degree() is not None else 0
        x = rand_vec(rng, n, CFG)
        split = p.homogeneous_split() or [VectorPoly.zero(n, p.codim)]
        expected = [split[k].evaluate(x) if k < len(split) else zero_vec(p.codim) for k in range(m + 1)]
        f = BlackBoxFn.from_poly(p)
        assert components_by_interpolation(f, m, x) == expected
        assert components_by_stirling(f, m, x) == expected
        for k in range(m + 1):
            part = split[k] if k < len(split) else VectorPoly.zero(n, p.codim)
            assert component_by_scaling(p, k) == part


def test_reconstruction_sums_to_value_for_arbitrary_black_box():
    from polydiff.diffcalc import BlackBoxFn

    def weird(v):
        x = v[0]
        return (abs(x) + x * x,)

    f = BlackBoxFn(1, 1, weird)
    rng = Random(77)
    for _ in range(10):
        x = rand_vec(rng, 1, CFG)
        comps = components_by_interpolation(f, 3, x)
        total = comps[0]
        for c in comps[1:]:
            total = (total[0] + c[0],)
        assert total == f(x)


def test_symbolic_component_polys_match_split():
    rng = Random(79)
    for _ in range(15):
        n = rng.randint(1, 2)
        p = rand_vector_poly(rng, n, 4)
        m = p.degree() if p.degree() is not None else 0
        split = p.homogeneous_split() or [VectorPoly.zero(n, p.codim)]
        padded = [split[k] if k < len(split) else VectorPoly.zero(n, p.codim) for k in range(m + 1)]
        assert interpolation_component_polys(p, m) == padded
        assert stirling_component_polys(p, m) == padded


def test_scaling_component_examples():
    (x,) = variables(1)
    p = x**2 + x
    assert component_by_scaling(p, 1) == as_vector_poly(x)
    assert component_by_scaling(p, 2) == as_vector_poly(x**2)
    assert component_by_scaling(p, 0).is_zero


def test_scaling_respects_dilation():
    rng = Random(83)
    for _ in range(10):
        p = rand_vector_poly(rng, 2, 4)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for k in range(5):
            assert component_by_scaling(p.dilate(c), k) == component_by_scaling(p, k) * c**k


def test_tensor_by_scaling_examples():
    x1, x2 = variables(2)
    p = x1 * x2 + x1
    assert tensor_by_scaling(p, 2) == polarize_signs(as_vector_poly(x1 * x2))
    assert tensor_by_scaling(as_vector_poly(x1), 2) == SymTensor.zero(2, 2)
    cubic = counterexample_cubic()
    tensor = tensor_by_scaling(cubic, 3)
    assert tensor == polarize_signs(cubic)
    assert tensor.value_at((0, 1, 2)) == (Fraction(-1),)


def test_tensor_by_scaling_random_matches_polarization():
    rng = Random(89)
    for _ in range(15):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 4)
        top = p.degree() if p.degree() is not None else 0
        for k in range(1, top + 1):
            part = p.homogeneous_split()[k]
            assert tensor_by_scaling(p, k) == polarize_signs(part, order=k)


def test_degree_test_symbolic():
    (t,) = variables(1)
    cube = BlackBoxFn.from_poly(t**3)
    report = degree_test(cube, 2)
    assert report.failed
    witness = report.witnesses[0]
    x, h = witness.points[0], witness.points[1]
    assert len(witness.points) == 4  # x plus the increment repeated m+1 times
    assert pure_diff_at(cube, x, h, 3) == witness.value
    assert any(witness.value)
    assert degree_test(cube, 3).verdict == "pass"


def test_degree_test_opaque_absolute_value():
    def absfn(v):
        return (abs(v[0]),)

    f = BlackBoxFn(1, 1, absfn)
    report = degree_test(f, 1, SamplerConfig(seed=5, samples=64))
    assert report.failed
    witness = report.witnesses[0]
    assert pure_diff_at(f, witness.points[0], witness.points[1], 2) == witness.value


def test_degree_test_opaque_pass_is_probabilistic():
    (t,) = variables(1)
    hidden = t**2  # wrapped without the poly marker
    f = BlackBoxFn(1, 1, as_vector_poly(hidden).evaluate)
    report = degree_test(f, 2, SamplerConfig(seed=2, samples=32))
    assert report.verdict == "probabilistic"
    assert report.samples_used == 32


def test_degree_search_finds_exact_degree():
    rng = Random(97)
    for _ in range(10):
        n = rng.randint(1, 2)
        d = rng.randint(0, 4)
        p = rand_vector_poly(rng, n, d, exact_degree=True) if d else rand_vector_poly(rng, n, 0)
        if p.degree() is None:
            continue
        f = BlackBoxFn.from_poly(p)
        least, report = degree_search(f)
        assert least == p.degree()
        assert report.verdict == "pass"


def test_degree_search_cap_exhausted():
    (t,) = variables(1)
    f = BlackBoxFn.from_poly(t**5)
    least, report = degree_search(f, cap=3)
    assert least is None
    assert report.failed


def lex_scan(p: VectorPoly):
    """Reference: first point of {0..d+1}^n, in lexicographic order, where p does not vanish."""
    for pt in product(range((p.degree() or 0) + 2), repeat=p.nvars):
        value = p.evaluate(pt)
        if any(value):
            return as_vec(pt), value
    raise AssertionError("nonzero polynomial vanished on its grid")


def test_nonzero_point_is_the_lex_first_grid_point():
    rng = Random(53)
    x1, x2, x3 = variables(3)
    only_second = VectorPoly((x1 * (x1 - 1), x2 * x3))  # only the second coordinate survives at the witness
    polys = [rand_vector_poly(rng, rng.randint(1, 3), rng.randint(0, 3), codim=rng.randint(1, 2)) for _ in range(40)]
    polys += [
        as_vector_poly(x1 * (x1 - 1) * (x1 - 2) * (x2 - 3)),  # leading variables must skip roots
        only_second,
        VectorPoly((ScalarPoly.zero(3), x2 * x3 * (x3 - 1) - x1)),  # one coordinate is identically zero
        VectorPoly.constant(0, [0, Fraction(5, 2)]),
    ]
    checked = 0
    for p in polys:
        if p.is_zero:
            with pytest.raises(ValueError):
                nonzero_point(p)
            continue
        assert nonzero_point(p) == lex_scan(p)
        checked += 1
    assert checked >= 30
    assert nonzero_point(only_second) == ((0, 1, 1), (0, 1))


def test_degree_test_many_variables_returns_lex_first_witness():
    # the order-2 difference lives on 16 variables: a grid scan would face 11^16 points
    xs = variables(8)
    p = xs[0] ** 2
    for x in xs[1:]:
        p = p * x
    report = degree_test(BlackBoxFn.from_poly(p), 1)
    zeros, ones = (Fraction(0),) * 8, (Fraction(1),) * 8
    assert report.verdict == "fail"
    assert report.witnesses == [Witness((zeros, ones, ones), (Fraction(510),))]
