"""Difference operators: vertex sums, recursion, Newton expansion, closed forms."""

import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import polydiff

from polydiff.combinatorics import stirling2
from polydiff.diffcalc import (
    SYMBOLIC_TERM_LIMIT,
    BlackBoxFn,
    block_names,
    homog_mixed_diff_closed,
    homog_pure_diff_closed,
    mixed_diff_at,
    mixed_diff_recursive,
    mixed_from_pure,
    newton_expand,
    pure_diff_at,
    symbolic_mixed_diff,
    symbolic_pure_diff,
)
from polydiff.errors import DimensionError, PolydiffError, ResourceLimitError
from polydiff.poly import ScalarPoly, VectorPoly, as_vector_poly, variables
from polydiff.positivity import counterexample_cubic
from polydiff.sampling import (
    SamplerConfig,
    rand_homogeneous_poly,
    rand_vec,
    rand_vector_poly,
)
from polydiff.tensor import polarize_signs, tensor_eval, tensor_to_poly
from polydiff.vectors import basis_vec, vec_add, vec_scale, zero_vec

CFG = SamplerConfig(numerator_bound=7, denominator_bound=4)


def square():
    (t,) = variables(1)
    return BlackBoxFn.from_poly(t**2)


def test_mixed_diff_square():
    f = square()
    for h1, h2 in [((1,), (2,)), ((Fraction(1, 3),), (Fraction(5, 2),))]:
        expected = (2 * h1[0] * h2[0],)
        assert mixed_diff_at(f, (Fraction(4, 7),), [h1, h2]) == expected
        assert mixed_diff_recursive(f, (Fraction(4, 7),), [h1, h2]) == expected


def test_mixed_diff_constant_vanishes():
    f = BlackBoxFn.from_poly(ScalarPoly.constant(2, 9))
    assert mixed_diff_at(f, (1, 2), [(3, 4)]) == (Fraction(0),)
    assert mixed_diff_at(f, (1, 2), [(3, 4), (1, 1)]) == (Fraction(0),)


def test_mixed_diff_cubic_basis():
    f = BlackBoxFn.from_poly(counterexample_cubic())
    hs = [basis_vec(i, 3) for i in range(3)]
    assert mixed_diff_at(f, zero_vec(3), hs) == (Fraction(-6),)


def test_mixed_diff_order_zero_returns_value():
    f = square()
    assert mixed_diff_at(f, (5,), []) == (Fraction(25),)


def test_pure_diff_examples():
    (t,) = variables(1)
    cube = BlackBoxFn.from_poly(t**3)
    assert pure_diff_at(cube, (0,), (1,), 2) == (Fraction(6),)
    assert Fraction(6) == math.factorial(2) * stirling2(3, 2)
    assert pure_diff_at(cube, (4,), (1,), 0) == (Fraction(64),)
    assert pure_diff_at(square(), (0,), (1,), 3) == (Fraction(0),)


def test_pure_equals_mixed_with_repeated_increment():
    rng = Random(3)
    for _ in range(20):
        p = rand_vector_poly(rng, 2, 4)
        f = BlackBoxFn.from_poly(p)
        x = rand_vec(rng, 2, CFG)
        h = rand_vec(rng, 2, CFG)
        r = rng.randint(0, 4)
        assert pure_diff_at(f, x, h, r) == mixed_diff_at(f, x, [h] * r)


def step_table_fn():
    """A deliberately non-polynomial exact map on Q^1."""

    def fn(v):
        x = v[0]
        return (abs(x) + Fraction(math.floor(x)),)

    return BlackBoxFn(1, 1, fn)


def test_newton_expansion_examples():
    f = square()
    x, h = (Fraction(2, 3),), (Fraction(5, 7),)
    assert newton_expand(f, x, h, 3) == f(vec_add(x, vec_scale(3, h)))
    assert newton_expand(f, x, h, 0) == f(x)
    g = step_table_fn()
    x, h = (Fraction(-7, 2),), (Fraction(3, 4),)
    assert newton_expand(g, x, h, 4) == g(vec_add(x, vec_scale(4, h)))


def test_newton_inversion_arbitrary_black_boxes():
    rng = Random(9)
    g = step_table_fn()
    for _ in range(30):
        x = rand_vec(rng, 1, CFG)
        h = rand_vec(rng, 1, CFG)
        r = rng.randint(0, 6)
        assert newton_expand(g, x, h, r) == g(vec_add(x, vec_scale(r, h)))


def test_mixed_from_pure_square():
    f = square()
    x = (Fraction(11, 5),)
    h1, h2 = (Fraction(1),), (Fraction(2),)
    assert mixed_from_pure(f, x, [h1, h2]) == (Fraction(4),)


def test_mixed_from_pure_r1_reduces_to_plain_difference():
    f = square()
    assert mixed_from_pure(f, (3,), [(2,)]) == mixed_diff_at(f, (3,), [(2,)])


def test_mixed_from_pure_random_cubics():
    rng = Random(15)
    for _ in range(15):
        p = rand_vector_poly(rng, 2, 3)
        f = BlackBoxFn.from_poly(p)
        x = rand_vec(rng, 2, CFG)
        hs = [rand_vec(rng, 2, CFG) for _ in range(3)]
        assert mixed_from_pure(f, x, hs) == mixed_diff_at(f, x, hs)


def test_three_definitions_agree():
    rng = Random(21)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 4, codim=rng.randint(1, 2))
        f = BlackBoxFn.from_poly(p)
        r = rng.randint(1, 4)
        x = rand_vec(rng, n, CFG)
        hs = [rand_vec(rng, n, CFG) for _ in range(r)]
        vertex = mixed_diff_at(f, x, hs)
        assert vertex == mixed_diff_recursive(f, x, hs)
        assert vertex == mixed_from_pure(f, x, hs)


def test_symbolic_mixed_examples():
    (x,) = variables(1)
    sym = symbolic_mixed_diff(x**2, 2)
    big = variables(3)  # blocks: x1 | h1_1 | h2_1
    assert sym == as_vector_poly(2 * big[1] * big[2])

    x1, x2 = variables(2)
    sym = symbolic_mixed_diff(x1 * x2, 1)
    b = variables(4)  # x1 x2 | h1_1 h1_2
    assert sym == as_vector_poly(b[0] * b[3] + b[1] * b[2] + b[2] * b[3])


def test_symbolic_mixed_annihilates_above_degree():
    rng = Random(33)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, rng.randint(0, 5))
        d = p.degree()
        r = (d if d is not None else -1) + 1
        assert symbolic_mixed_diff(p, r).is_zero


def test_symbolic_mixed_evaluates_like_numeric():
    rng = Random(39)
    for _ in range(10):
        n = rng.randint(1, 2)
        p = rand_vector_poly(rng, n, 3)
        r = rng.randint(0, 3)
        sym = symbolic_mixed_diff(p, r)
        x = rand_vec(rng, n, CFG)
        hs = [rand_vec(rng, n, CFG) for _ in range(r)]
        point = x + tuple(c for h in hs for c in h)
        assert sym.evaluate(point) == mixed_diff_at(BlackBoxFn.from_poly(p), x, hs)


def test_symbolic_mixed_top_order_drops_x():
    rng = Random(43)
    for _ in range(15):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        p = rand_homogeneous_poly(rng, n, k)
        sym = symbolic_mixed_diff(p, k)
        for coord in sym.coords:
            for exps in coord.terms:
                assert all(e == 0 for e in exps[:n])


def test_symbolic_pure_examples():
    (x,) = variables(1)
    sym = symbolic_pure_diff(x**3, 2)
    xb, hb = variables(2)
    # oracle: alternating sum built independently through compose
    p = as_vector_poly(x**3)
    oracle = (
        p.compose([xb + 2 * hb])
        - 2 * p.compose([xb + hb])
        + p.compose([xb])
    )
    assert sym == oracle
    assert sym == as_vector_poly(6 * xb * hb**2 + 6 * hb**3)
    assert symbolic_pure_diff(ScalarPoly.constant(1, 5), 1).is_zero
    assert symbolic_pure_diff(x**2, 2) == as_vector_poly(2 * hb**2)


def test_symbolic_pure_matches_numeric():
    rng = Random(51)
    for _ in range(10):
        n = rng.randint(1, 2)
        p = rand_vector_poly(rng, n, 4)
        r = rng.randint(0, 4)
        sym = symbolic_pure_diff(p, r)
        x = rand_vec(rng, n, CFG)
        h = rand_vec(rng, n, CFG)
        assert sym.evaluate(x + h) == pure_diff_at(BlackBoxFn.from_poly(p), x, h, r)


def compose_pure_diff(p, r):
    """Reference route: sum_k (-1)^(r-k) C(r, k) P(x + k h), each term a substitution."""
    p = as_vector_poly(p)
    n = p.nvars
    gens = variables(2 * n)
    total = VectorPoly.zero(2 * n, p.codim)
    for k in range(r + 1):
        args = [gens[i] + k * gens[n + i] for i in range(n)]
        total = total + ((-1) ** (r - k) * math.comb(r, k)) * p.compose(args, nvars_out=2 * n)
    return total


def compose_mixed_diff(p, r):
    """Reference route: the recursion, substituting x -> x + h_s one block at a time."""
    p = as_vector_poly(p)
    n = p.nvars
    big = n * (1 + r)
    pad = (0,) * (n * r)
    cur = VectorPoly(tuple(ScalarPoly(big, {e + pad: c for e, c in coord.terms.items()}) for coord in p.coords))
    gens = variables(big)
    for s in range(1, r + 1):
        args = [gens[i] + gens[n * s + i] if i < n else gens[i] for i in range(big)]
        cur = cur.compose(args, nvars_out=big) - cur
    return cur


def closed_form_cases():
    """Seeded rational polynomials (n 1-4, codim 1-2, degree 0-4) and edge cases."""
    rng = Random(61)
    cases = [
        rand_vector_poly(rng, rng.randint(1, 4), rng.randint(0, 4), codim=rng.randint(1, 2), max_terms=4)
        for _ in range(300)
    ]
    x1, x2 = variables(2)
    cases += [
        VectorPoly.zero(3, 2),
        VectorPoly.constant(2, [Fraction(-5, 3)]),
        VectorPoly((x1**3 * x2 - Fraction(1, 2) * x2, ScalarPoly.zero(2))),
        as_vector_poly(Fraction(2, 7) * x1**5 * x2),
    ]
    return cases


def test_symbolic_closed_forms_equal_compose_routes():
    above_degree = 0
    for p in closed_form_cases():
        for r in range(6):
            assert symbolic_pure_diff(p, r) == compose_pure_diff(p, r)
            assert symbolic_mixed_diff(p, r) == compose_mixed_diff(p, r)
            above_degree += r > (p.degree() or 0)
    assert above_degree


def sympy_terms(expr, gens):
    """Coefficient dict of an expanded sympy expression, as Fractions."""
    import sympy

    return {
        e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(expr, *gens).as_dict().items() if c
    }


def test_symbolic_closed_forms_equal_sympy_expansions():
    sympy = pytest.importorskip("sympy")
    rng = Random(67)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, rng.randint(0, 4), codim=rng.randint(1, 2), max_terms=4)
        r = rng.randint(0, 4)
        gens = sympy.symbols(block_names(n, max(r, 1)))
        xs = gens[:n]
        for coord, pure, mixed in zip(p.coords, symbolic_pure_diff(p, r).coords, symbolic_mixed_diff(p, r).coords):
            base = sum(
                (sympy.Rational(c.numerator, c.denominator) * sympy.prod([x**k for x, k in zip(xs, e)])
                 for e, c in coord.terms.items()),
                sympy.Integer(0),
            )
            hs = gens[n : 2 * n]
            expanded = sum(
                ((-1) ** (r - k) * math.comb(r, k) * base.xreplace({x: x + k * h for x, h in zip(xs, hs)})
                 for k in range(r + 1)),
                sympy.Integer(0),
            )
            assert pure.terms == sympy_terms(sympy.expand(expanded), gens[: 2 * n])
            nested = base
            for s in range(1, r + 1):
                block = gens[n * s : n * (s + 1)]
                nested = nested.xreplace({x: x + h for x, h in zip(xs, block)}) - nested
            assert mixed.terms == sympy_terms(sympy.expand(nested), gens[: n * (1 + r)])


def test_block_names_layout():
    assert block_names(2, 2) == ["x1", "x2", "h1_1", "h1_2", "h2_1", "h2_2"]


def test_homog_closed_forms_match_direct_sums():
    rng = Random(57)
    for _ in range(200):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        p = rand_homogeneous_poly(rng, n, k)
        tensor = polarize_signs(p)
        f = BlackBoxFn.from_poly(tensor_to_poly(tensor))
        x = rand_vec(rng, n, CFG)
        r = rng.randint(0, k + 1)
        hs = [rand_vec(rng, n, CFG) for _ in range(r)]
        assert homog_mixed_diff_closed(tensor, x, hs) == mixed_diff_at(f, x, hs)
        h = rand_vec(rng, n, CFG)
        assert homog_pure_diff_closed(tensor, x, h, r) == pure_diff_at(f, x, h, r)


def test_homog_mixed_top_order_is_factorial_times_tensor():
    x1, x2 = variables(2)
    tensor = polarize_signs(x1 * x2)
    hs = [(Fraction(2), Fraction(1)), (Fraction(0), Fraction(3))]
    expected = vec_scale(2, tensor_eval(tensor, hs))
    for x in [zero_vec(2), (Fraction(5), Fraction(-7))]:
        assert homog_mixed_diff_closed(tensor, x, hs) == expected


def test_homog_closed_vanishes_above_order():
    x1, x2 = variables(2)
    tensor = polarize_signs(x1 * x2)
    hs = [basis_vec(0, 2)] * 3
    assert homog_mixed_diff_closed(tensor, zero_vec(2), hs) == (Fraction(0),)
    assert homog_pure_diff_closed(tensor, zero_vec(2), basis_vec(0, 2), 3) == (Fraction(0),)


def test_homog_pure_at_origin_is_stirling_multiple():
    rng = Random(61)
    for _ in range(20):
        n = rng.randint(1, 2)
        k = rng.randint(1, 4)
        p = rand_homogeneous_poly(rng, n, k)
        tensor = polarize_signs(p)
        diag = tensor_to_poly(tensor)
        h = rand_vec(rng, n, CFG)
        for r in range(k + 2):
            expected = vec_scale(math.factorial(r) * stirling2(k, r), diag.evaluate(h))
            assert homog_pure_diff_closed(tensor, zero_vec(n), h, r) == expected


def test_black_box_validates_dimensions():
    f = square()
    with pytest.raises(DimensionError):
        f((1, 2))
    with pytest.raises(DimensionError):
        mixed_diff_at(f, (1,), [(1, 2)])


def product_monomial(n):
    xs = variables(n)
    p = xs[0] ** 2
    for x in xs[1:]:
        p = p * x
    return p


def term_bound(p):
    """The size bound symbolic_pure_diff checks: sum over terms of prod (e_i + 1)."""
    return sum(math.prod(e + 1 for e in exps) for coord in as_vector_poly(p).coords for exps in coord.terms)


def test_symbolic_pure_diff_rejects_oversized_expansion():
    assert issubclass(ResourceLimitError, PolydiffError)
    assert "ResourceLimitError" in polydiff.__all__
    p = product_monomial(14)
    assert term_bound(p) == 3 * 2**13 > SYMBOLIC_TERM_LIMIT
    with pytest.raises(ResourceLimitError, match=f"up to 24576 terms, above the limit of {SYMBOLIC_TERM_LIMIT}"):
        symbolic_pure_diff(p, 2)
    assert term_bound(product_monomial(8)) == 3 * 2**7
    assert not symbolic_pure_diff(product_monomial(8), 2).is_zero


def split_bound(p, r):
    """The size bound symbolic_mixed_diff checks: sum over terms of prod C(e_i + r, r)."""
    coords = as_vector_poly(p).coords
    return sum(math.prod(math.comb(e + r, r) for e in exps) for coord in coords for exps in coord.terms)


def test_symbolic_mixed_diff_rejects_oversized_expansion():
    x1, x2, x3 = variables(3)
    p = x1**4 * x2**4 * x3**4
    assert split_bound(p, 5) == 126**3 > SYMBOLIC_TERM_LIMIT
    message = (
        f"symbolic mixed difference would expand to up to {126**3} terms, above the limit of {SYMBOLIC_TERM_LIMIT}"
    )
    with pytest.raises(ResourceLimitError, match=message):
        symbolic_mixed_diff(p, 5)
    assert split_bound(p, 2) == 15**3
    assert symbolic_mixed_diff(p, 2) == compose_mixed_diff(p, 2)


def test_bench_inputs_stay_far_below_the_term_limit(monkeypatch):
    """Every symbolic pure and mixed difference the benchmark workloads take is small."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads
    from polydiff import cli, components, diffcalc, positivity

    bounds = []
    mixed_bounds = []

    def recording(p, r):
        bounds.append(term_bound(p))
        return symbolic_pure_diff(p, r)

    def recording_mixed(p, r):
        mixed_bounds.append(split_bound(p, r))
        return symbolic_mixed_diff(p, r)

    for module in (cli, components, diffcalc, positivity):
        monkeypatch.setattr(module, "symbolic_pure_diff", recording)
    for module in (cli, diffcalc):
        monkeypatch.setattr(module, "symbolic_mixed_diff", recording_mixed)
    for workload in workloads.WORKLOADS.values():
        rng = Random(101)
        for op in workload.prelude(rng) + workload.round(rng):
            try:
                op.call()
            except PolydiffError:
                pass
    assert bounds and max(bounds) * 100 < SYMBOLIC_TERM_LIMIT
    assert mixed_bounds and max(mixed_bounds) * 100 < SYMBOLIC_TERM_LIMIT
