"""The integer ray kernel against the exact Fraction routes it stands in for.

Every numerator the kernel produces, turned back into a value, must equal
``pure_diff_at`` / ``mixed_diff_recursive`` on the same polynomial; whole
reports of the sampling checks must equal reference loops written on those
routes.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

from polydiff import positivity
from polydiff.diffcalc import (
    BlackBoxFn,
    ClearedPoly,
    DiffReport,
    Witness,
    forward_differences,
    mixed_diff_recursive,
    newton_components,
    newton_stirling_matrix,
    pure_diff_at,
    symbolic_pure_diff,
)
from polydiff.poly import ScalarPoly, VectorPoly
from polydiff.positivity import (
    DEFAULT_GRID,
    GRID_PAIR_CAP,
    mixed_diff_nonneg_sample,
    pure_diff_nonneg_check,
)
from polydiff.sampling import SamplerConfig, rand_vec, rand_vector_poly
from polydiff.vectors import basis_vec, vec_scale, zero_vec

POINTS = SamplerConfig(numerator_bound=9, denominator_bound=6)


def kernel_polys(rng: Random) -> list[VectorPoly]:
    """Random rational polynomials, codim 1 and 2, plus the edge cases."""
    polys = []
    for _ in range(24):
        n = rng.randint(1, 3)
        polys.append(rand_vector_poly(rng, n, rng.randint(0, 4), codim=rng.randint(1, 2)))
    zero_coord = VectorPoly(
        (ScalarPoly(2, {(2, 1): Fraction(-3, 4), (0, 1): Fraction(5, 6)}), ScalarPoly.zero(2))
    )
    constant = VectorPoly.constant(2, [Fraction(-7, 3), Fraction(1, 2)])
    return polys + [zero_coord, constant, VectorPoly.zero(3, 2)]


def test_kernel_values_equal_exact_routes():
    rng = Random(20261017)
    for p in kernel_polys(rng):
        f = BlackBoxFn.from_poly(p)
        cleared = ClearedPoly(p)
        n = p.nvars
        for _ in range(4):
            x = rand_vec(rng, n, POINTS, nonneg=True)
            h = rand_vec(rng, n, POINTS, nonneg=True)
            evaluator, (a, b) = cleared.over([x, h])
            diffs = evaluator.pure_diffs(a, b, 4)
            assert [evaluator.value(d) for d in diffs] == [pure_diff_at(f, x, h, r) for r in range(5)]
            for r in range(4):
                hs = [rand_vec(rng, n, POINTS, nonneg=True) for _ in range(r)]
                evaluator, (a, *bs) = cleared.over([x, *hs])
                assert evaluator.value(evaluator.mixed_diff(a, bs)) == mixed_diff_recursive(f, x, hs)


def test_kernel_signs_follow_numerators():
    # the denominator D_c L^deg is positive, so a numerator's sign is the value's sign
    rng = Random(5)
    for p in kernel_polys(rng):
        cleared = ClearedPoly(p)
        x = rand_vec(rng, p.nvars, POINTS, nonneg=True)
        evaluator, (a,) = cleared.over([x])
        assert all(den > 0 for den in evaluator.dens)
        nums = evaluator.numerators(a)
        for num, value in zip(nums, p.evaluate(x)):
            assert (num > 0) == (value > 0) and (num < 0) == (value < 0)


def test_forward_differences_equal_pure_differences():
    rng = Random(11)
    p = rand_vector_poly(rng, 2, 4, codim=2)
    f = BlackBoxFn.from_poly(p)
    x, h = rand_vec(rng, 2, POINTS), rand_vec(rng, 2, POINTS)
    ray = [f(tuple(c + i * d for c, d in zip(x, h))) for i in range(6)]
    assert forward_differences(ray) == [pure_diff_at(f, x, h, r) for r in range(6)]


def test_newton_stirling_rearrangement_interpolates_any_map():
    # f(n x) = sum_k n^k f_k(x) holds exactly for n = 0..m, polynomial or not
    def kinked(v):
        return (abs(v[0] - 3), max(v[0], 2 * v[0] - 1))

    f = BlackBoxFn(1, 2, kinked)
    x = (Fraction(5, 3),)
    for m in range(7):
        samples = [f(vec_scale(i, x)) for i in range(m + 1)]
        comps = newton_components(forward_differences(samples))
        for mult in range(m + 1):
            predicted = tuple(sum(mult**k * comp[i] for k, comp in enumerate(comps)) for i in range(2))
            assert predicted == samples[mult]
    matrix = newton_stirling_matrix(4)
    assert newton_stirling_matrix(4) is matrix
    assert matrix[1] == (0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4))


def reference_pure_check(p, r_max, cfg, grid=DEFAULT_GRID, cap=GRID_PAIR_CAP) -> DiffReport:
    """The two-stage pure check written directly on pure_diff_at."""
    f = BlackBoxFn.from_poly(p)
    n = p.nvars
    uncertified = [
        r
        for r in range(r_max + 1)
        if any(c < 0 for coord in symbolic_pure_diff(p, r).coords for c in coord.terms.values())
    ]
    if not uncertified:
        return DiffReport("certified", [], 0, cfg.seed)
    witnesses = []
    used = 0
    points = [tuple(Fraction(c) for c in pt) for pt in product(grid, repeat=n)]
    pairs = list(product(points, repeat=2))
    stride = max(1, -(-len(pairs) // cap))
    checks = [(x, x, 0) for x in points if 0 in uncertified]
    checks += [(x, h, r) for x, h in pairs[::stride] for r in uncertified if r]
    rng = Random(cfg.seed)
    for _ in range(cfg.samples):
        x = rand_vec(rng, n, cfg, nonneg=True)
        h = rand_vec(rng, n, cfg, nonneg=True)
        checks += [(x, h, r) for r in uncertified]
    for x, h, r in checks:
        used += 1
        value = pure_diff_at(f, x, h, r)
        if any(c < 0 for c in value):
            witnesses.append(Witness((x,) + (h,) * r, value))
    witnesses.sort(key=Witness.sort_key)
    return DiffReport("fail" if witnesses else "probabilistic", witnesses, used, cfg.seed)


def reference_mixed_check(p, r_max, cfg) -> DiffReport:
    """Basis probes at the origin, then seeded cone samples, on mixed_diff_recursive."""
    f = BlackBoxFn.from_poly(p)
    n = p.nvars
    checks = [
        (zero_vec(n), [basis_vec(i, n) for i in key])
        for r in range(r_max + 1)
        for key in combinations_with_replacement(range(n), r)
    ]
    rng = Random(cfg.seed)
    for r in range(r_max + 1):
        for _ in range(cfg.samples):
            x = rand_vec(rng, n, cfg, nonneg=True)
            checks.append((x, [rand_vec(rng, n, cfg, nonneg=True) for _ in range(r)]))
    witnesses = []
    for x, hs in checks:
        value = mixed_diff_recursive(f, x, hs)
        if any(c < 0 for c in value):
            witnesses.append(Witness((x, *hs), value))
    witnesses.sort(key=Witness.sort_key)
    return DiffReport("fail" if witnesses else "pass", witnesses, len(checks), cfg.seed)


def test_pure_check_reports_equal_reference_loop():
    rng = Random(77)
    third = tuple(Fraction(i, 3) for i in range(4))
    cases = 0
    for trial in range(12):
        n = rng.randint(1, 2)
        p = rand_vector_poly(rng, n, rng.randint(1, 3), codim=rng.randint(1, 2))
        cfg = SamplerConfig(seed=trial, samples=12)
        grid = third if trial % 2 else DEFAULT_GRID
        report = pure_diff_nonneg_check(p, 3, cfg, grid)
        assert report == reference_pure_check(p, 3, cfg, grid)
        cases += report.verdict == "fail"
    assert cases  # the witnesses path was exercised


def test_pure_check_strided_grid_equals_reference_loop():
    # 13^2 grid points give 28,561 pairs, above the cap: every second pair is taken
    x1, x2 = ScalarPoly.variable(0, 2), ScalarPoly.variable(1, 2)
    p = VectorPoly.from_scalar(x1 * x1 - x1 * x2 + Fraction(1, 2) * x2)
    grid = tuple(Fraction(i, 4) for i in range(13))
    cfg = SamplerConfig(seed=3, samples=8)
    report = pure_diff_nonneg_check(p, 1, cfg, grid)
    assert report == reference_pure_check(p, 1, cfg, grid)
    assert report.failed


def test_pure_check_grid_stride_jumps_to_the_same_pairs(monkeypatch):
    # a lowered cap forces strides 625, 90, 13 and 3 over the 625 pairs of the default grid
    x1, x2 = ScalarPoly.variable(0, 2), ScalarPoly.variable(1, 2)
    p = VectorPoly((x1 * x1 - x1 * x2 + Fraction(1, 2) * x2, x2 - x1))
    cfg = SamplerConfig(seed=5, samples=4)
    for cap in (1, 7, 50, 300):
        monkeypatch.setattr(positivity, "GRID_PAIR_CAP", cap)
        report = pure_diff_nonneg_check(p, 2, cfg)
        assert report == reference_pure_check(p, 2, cfg, cap=cap)
        assert report.failed


def test_mixed_check_reports_equal_reference_loop():
    rng = Random(78)
    for trial in range(10):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, rng.randint(0, 3), codim=rng.randint(1, 2))
        cfg = SamplerConfig(seed=trial, samples=10)
        assert mixed_diff_nonneg_sample(p, 3, cfg) == reference_mixed_check(p, 3, cfg)

