"""Positivity: tensor test, cone sampling, the separating cubic."""

from fractions import Fraction
from random import Random

from polydiff.diffcalc import BlackBoxFn, mixed_diff_at, symbolic_pure_diff
from polydiff.poly import VectorPoly, as_vector_poly, variables
from polydiff.positivity import (
    ComponentVerdict,
    affine_line_positive,
    affine_line_restriction,
    counterexample_cubic,
    counterexample_report,
    is_positive,
    mixed_diff_nonneg_sample,
    pure_diff_nonneg_check,
)
from polydiff.sampling import SamplerConfig, rand_vec, rand_vector_poly
from polydiff.tensor import polarize_signs, tensor_is_nonneg
from polydiff.vectors import basis_vec, vec_add, vec_le, zero_vec

CFG = SamplerConfig(seed=1, samples=16)


def all_coeffs_nonneg(p: VectorPoly) -> bool:
    """Independent oracle: a polynomial map is positive iff no stored
    monomial coefficient is negative."""
    return all(c >= 0 for coord in p.coords for c in coord.terms.values())


def test_is_positive_examples():
    x1, x2 = variables(2)
    assert is_positive(x1 * x2 + x1)[0]
    ok, cert = is_positive(counterexample_cubic())
    assert not ok
    failure = cert.first_failure()
    assert failure.degree == 3
    assert failure.witness_index == (0, 1, 2)
    assert failure.witness_value == (Fraction(-1),)
    assert is_positive(VectorPoly.zero(3, 2))[0]


def test_is_positive_matches_coefficient_oracle():
    rng = Random(101)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 4, codim=rng.randint(1, 2))
        assert is_positive(p)[0] == all_coeffs_nonneg(p)


def test_is_positive_certificate_equals_polarization_route():
    """The coefficient route gives the certificate the sign-sum polarization gives."""
    rng = Random(211)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 4, codim=rng.randint(1, 2), coeff_den_bound=5)
        expected = []
        for k, part in enumerate(p.homogeneous_split()):
            tensor = polarize_signs(part, order=k)
            good, key = tensor_is_nonneg(tensor)
            expected.append(ComponentVerdict(k, good, key, None if key is None else tensor.value_at(key)))
        positive, cert = is_positive(p)
        assert cert.components == tuple(expected)
        assert positive == all(entry.nonneg for entry in expected)


def test_mixed_sample_positive_polynomial_passes():
    rng = Random(7)
    configs = [CFG, SamplerConfig(seed=9, samples=8, numerator_bound=5, denominator_bound=2)]
    for _ in range(5):
        p = rand_vector_poly(rng, 2, 3, nonneg=True)
        for cfg in configs:
            for r_max in (1, 3):
                report = mixed_diff_nonneg_sample(p, r_max, cfg)
                assert report.verdict == "pass"
                assert not report.witnesses


def test_mixed_sample_cubic_fails_with_basis_witness():
    report = mixed_diff_nonneg_sample(counterexample_cubic(), 3, CFG)
    assert report.failed
    basis = tuple(basis_vec(i, 3) for i in range(3))
    expected = (zero_vec(3), *basis)
    assert any(w.points == expected and w.value == (Fraction(-6),) for w in report.witnesses)


def test_mixed_sample_negative_constant_caught_at_origin():
    (x,) = variables(1)
    report = mixed_diff_nonneg_sample(x - 1, 1, CFG)
    assert report.failed
    assert any(w.points == (zero_vec(1),) and w.value == (Fraction(-1),) for w in report.witnesses)


def test_pure_check_certifies_square():
    (x,) = variables(1)
    report = pure_diff_nonneg_check(x**2, 2, CFG)
    assert report.verdict == "certified"
    assert report.samples_used == 0
    xb, hb = variables(2)
    assert symbolic_pure_diff(x**2, 1) == as_vector_poly(2 * xb * hb + hb**2)


def test_pure_check_certifies_nonneg_coefficient_polys():
    rng = Random(113)
    for _ in range(10):
        p = rand_vector_poly(rng, 2, 3, nonneg=True)
        assert pure_diff_nonneg_check(p, 3, CFG).verdict == "certified"


def test_pure_check_cubic_probabilistic():
    cubic = counterexample_cubic()
    sym = symbolic_pure_diff(cubic, 1)
    assert any(c < 0 for coord in sym.coords for c in coord.terms.values())
    # the specific negative monomial: x1 x2 h3 with coefficient -6
    key = (1, 1, 0, 0, 0, 1)
    assert sym.coords[0].terms[key] == Fraction(-6)
    report = pure_diff_nonneg_check(cubic, 1, CFG)
    assert report.verdict == "probabilistic"
    # spot value on the grid: step from (1,1,0) along e3 raises the value
    f = BlackBoxFn.from_poly(cubic)
    assert mixed_diff_at(f, (1, 1, 0), [basis_vec(2, 3)]) == (Fraction(7),)


def test_pure_check_negative_linear_fails_with_cone_witness():
    (x,) = variables(1)
    report = pure_diff_nonneg_check(-x, 1, CFG)
    assert report.failed
    witness = report.witnesses[0]
    assert all(c >= 0 for point in witness.points for c in point)
    assert any(c < 0 for c in witness.value)
    zero = (Fraction(0),)
    one = (Fraction(1),)
    assert any(w.points == (zero, one) and w.value == (Fraction(-1),) for w in report.witnesses)


def test_certified_pass_is_sound_on_samples():
    rng = Random(131)
    cfg = SamplerConfig(seed=3, samples=8)
    for _ in range(5):
        p = rand_vector_poly(rng, 2, 3, nonneg=True)
        report = pure_diff_nonneg_check(p, 2, cfg)
        assert report.verdict == "certified"
        f = BlackBoxFn.from_poly(p)
        for _ in range(10):
            x = rand_vec(rng, 2, cfg, nonneg=True)
            h = rand_vec(rng, 2, cfg, nonneg=True)
            for r in range(3):
                value = mixed_diff_at(f, x, [h] * r)
                assert all(c >= 0 for c in value)


def test_positive_implies_monotone_on_cone():
    rng = Random(137)
    cfg = SamplerConfig(seed=4, samples=8)
    for _ in range(10):
        p = rand_vector_poly(rng, 2, 3, nonneg=True)
        x = rand_vec(rng, 2, cfg, nonneg=True)
        y = vec_add(x, rand_vec(rng, 2, cfg, nonneg=True))
        assert vec_le(x, y)
        assert vec_le(p.evaluate(x), p.evaluate(y))
        assert all(c >= 0 for c in p.evaluate(x))


def test_counterexample_separates_pure_from_positive():
    cubic = counterexample_cubic()
    assert not is_positive(cubic)[0]
    assert pure_diff_nonneg_check(cubic, 3, CFG).verdict == "probabilistic"


def test_affine_line_restriction_and_positivity():
    cubic = counterexample_cubic()
    restriction = affine_line_restriction(cubic, (0, 0, 0), (1, 1, 1))
    assert restriction.evaluate((1,)) == (Fraction(15),)
    assert affine_line_positive(cubic, (0, 0, 0), (1, 1, 1))
    # direction leaving the cone is allowed to go negative
    assert not affine_line_positive(cubic, (0, 0, 0), (-1, 0, 0))
    rng = Random(139)
    for _ in range(20):
        a = rand_vec(rng, 3, CFG, nonneg=True)
        b = rand_vec(rng, 3, CFG, nonneg=True)
        assert affine_line_positive(cubic, a, b)


def test_counterexample_report_confirms_all_facts():
    data = counterexample_report(SamplerConfig(seed=0, samples=16))
    assert data["ok"]
    names = set(data["checks"])
    assert {"coefficient_x1x2x3", "is_positive", "tensor_witness_index"} <= names
