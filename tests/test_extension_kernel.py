"""The extension's fast paths against the exact routes they stand in for.

``homogeneous_extend`` reads basis values off one shared vertex table,
``cone_components`` / ``newton_components`` apply integer Newton-Stirling
rows, the spot checks take forward differences, and ``degree_witness``
reads the degree before expanding.  Each is compared here with a reference
written on ``mixed_diff_at`` / ``pure_diff_at``, the Fraction matrix
product, or ``symbolic_pure_diff``, including the conditions, witnesses and
messages of every raised error.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

import pytest

from polydiff.components import degree_witness, nonzero_point
from polydiff.diffcalc import (
    Witness,
    forward_differences,
    mixed_diff_at,
    newton_components,
    newton_stirling_matrix,
    pure_diff_at,
    symbolic_pure_diff,
)
from polydiff.errors import ExtensionHypothesisError, MissingSampleError, PolydiffError
from polydiff.kantorovich import (
    HOMOGENEITY_MULTIPLIERS,
    SPOT_SAMPLES,
    ConeFunction,
    _draw_cone_vec,
    cone_components,
    homogeneous_extend,
    kantorovich_extend,
    table_grid_points,
)
from polydiff.poly import ScalarPoly, VectorPoly
from polydiff.sampling import SamplerConfig, rand_homogeneous_poly, rand_vec, rand_vector_poly
from polydiff.tensor import SymTensor, tensor_to_poly
from polydiff.vectors import as_vec, basis_vec, vec_scale, vec_sub, zero_vec

CFG = SamplerConfig(seed=7, samples=8)


def reference_homogeneous_extend(fk, k, cfg):
    """homogeneous_extend written on pure_diff_at and one mixed_diff_at per basis tuple."""
    n = fk.nvars
    rng = Random(cfg.seed)
    spots = [_draw_cone_vec(rng, fk, cfg) for _ in range(SPOT_SAMPLES)]
    for h in spots:
        try:
            value = pure_diff_at(fk, zero_vec(n), h, k + 1)
        except MissingSampleError:
            continue
        if any(value):
            raise ExtensionHypothesisError(
                "(i)",
                Witness((zero_vec(n),) + (h,) * (k + 1), value),
                f"order-{k + 1} pure difference of the degree-{k} component does not vanish",
            )
    for x in spots:
        try:
            base = fk(x)
            for mult in HOMOGENEITY_MULTIPLIERS:
                scaled = fk(vec_scale(mult, x))
                if scaled != vec_scale(mult**k, base):
                    raise ExtensionHypothesisError(
                        "(ii)",
                        Witness((x,), vec_sub(scaled, vec_scale(mult**k, base))),
                        f"component of degree {k} is not {k}-homogeneous at multiplier {mult}",
                    )
        except MissingSampleError:
            continue
    inv = Fraction(1, math.factorial(k))
    values = {
        key: vec_scale(inv, mixed_diff_at(fk, zero_vec(n), [basis_vec(i, n) for i in key]))
        for key in combinations_with_replacement(range(n), k)
    }
    tensor = SymTensor(k, n, fk.codim, values)
    diag = tensor_to_poly(tensor)
    for x in spots:
        try:
            expected = fk(x)
        except MissingSampleError:
            continue
        if diag.evaluate(x) != expected:
            raise ExtensionHypothesisError(
                "(ii)",
                Witness((x,), vec_sub(diag.evaluate(x), expected)),
                f"rebuilt degree-{k} diagonal disagrees with the component at {x}",
            )
    return tensor


def outcome(call):
    """The result, or everything a caller can read off the raised error."""
    try:
        return "ok", call()
    except PolydiffError as exc:
        detail = (getattr(exc, name, None) for name in ("condition", "witness", "point"))
        return (type(exc).__name__, str(exc), *detail)


def same_outcome(fk, k, cfg=CFG):
    got = outcome(lambda: homogeneous_extend(fk, k, cfg))
    assert got == outcome(lambda: reference_homogeneous_extend(fk, k, cfg))
    return got


def test_vertex_table_matches_mixed_differences_on_forms():
    rng = Random(404)
    codims = set()
    for k in range(4):
        for _ in range(6):
            n = rng.randint(1, 3)
            p = rand_homogeneous_poly(rng, n, k, codim=rng.randint(1, 2), coeff_den_bound=5)
            codims.add(p.codim)
            for fk in (ConeFunction.from_poly(p), ConeFunction(n, p.codim, p.evaluate)):
                assert same_outcome(fk, k)[0] == "ok"
    assert codims == {1, 2}


def test_vertex_table_matches_mixed_differences_on_rejected_data():
    rng = Random(405)
    kinds = Counter()
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, rng.randint(0, 3), codim=rng.randint(1, 2))
        for k in range(4):
            kinds[same_outcome(ConeFunction(n, p.codim, p.evaluate), k)[0]] += 1
    assert kinds["ok"] and kinds["ExtensionHypothesisError"]


def test_vertex_table_matches_mixed_differences_on_tables():
    rng = Random(406)
    raised = 0
    for case in range(12):
        n = rng.randint(1, 2)
        k = rng.randint(0, 3)
        p = rand_homogeneous_poly(rng, n, k, coeff_den_bound=3)
        table = {pt: p.evaluate(pt) for pt in table_grid_points(n, max(k, 1))}
        cfg = SamplerConfig(seed=case, samples=8)
        assert same_outcome(ConeFunction.from_table(n, 1, table), k, cfg)[0] == "ok"
        vertices = [as_vec(v) for v in product(range(k + 1), repeat=n) if sum(v) <= k]
        corrupted = dict(table)
        victim = vertices[rng.randrange(len(vertices))]
        corrupted[victim] = (corrupted[victim][0] + Fraction(1, 3),)
        raised += same_outcome(ConeFunction.from_table(n, 1, corrupted), k, cfg)[0] != "ok"
        # two vertices missing: the first one the vertex sums touch is reported
        missing = dict(table)
        for v in rng.sample(vertices, min(2, len(vertices))):
            del missing[v]
        same_outcome(ConeFunction.from_table(n, 1, missing), k, cfg)
    assert raised >= 6


def test_each_vertex_is_evaluated_once():
    rng = Random(407)
    for k in range(4):
        n = 3
        p = rand_homogeneous_poly(rng, n, k, codim=2)
        calls = Counter()

        def counting(pt):
            calls[pt] += 1
            return p.evaluate(pt)

        fk = ConeFunction(n, 2, counting)
        homogeneous_extend(fk, k, CFG)
        # the spot checks evaluate at i h (pure differences), x and mult x
        # (homogeneity) and x again (diagonal); every other call is a vertex
        spot_rng = Random(CFG.seed)
        spots = [rand_vec(spot_rng, n, CFG, nonneg=True) for _ in range(SPOT_SAMPLES)]
        checks = Counter(vec_scale(i, h) for h in spots for i in range(k + 2))
        checks.update(vec_scale(mult, x) for x in spots for mult in (1, *HOMOGENEITY_MULTIPLIERS))
        checks.update(spots)
        vertices = calls - checks
        assert calls == checks + vertices
        assert set(vertices) == {as_vec(v) for v in product(range(k + 1), repeat=n) if sum(v) <= k}
        assert set(vertices.values()) == {1}


def test_extension_calls_the_function_once_per_point():
    rng = Random(408)
    for _ in range(6):
        n = rng.randint(1, 3)
        p = rand_vector_poly(rng, n, 3, codim=rng.randint(1, 2), nonneg=True)
        calls = Counter()

        def counting(pt):
            calls[pt] += 1
            return p.evaluate(pt)

        m = p.degree() or 0
        result = kantorovich_extend(ConeFunction(n, p.codim, counting, poly=p), m, CFG)
        assert result.poly == p
        assert calls and set(calls.values()) == {1}


def matrix_components(diffs):
    """The Fraction product of the Newton-Stirling matrix with the differences."""
    codim = len(diffs[0])
    return [
        tuple(sum((c * d[i] for c, d in zip(row, diffs)), Fraction(0)) for i in range(codim))
        for row in newton_stirling_matrix(len(diffs) - 1)
    ]


def rand_rational(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def test_newton_components_equal_the_matrix_product():
    rng = Random(409)
    for m in range(7):
        for codim in (1, 2, 3):
            diffs = [tuple(rand_rational(rng) for _ in range(codim)) for _ in range(m + 1)]
            assert newton_components(diffs) == matrix_components(diffs)
            ints = [tuple(rng.randint(-5, 5) for _ in range(codim)) for _ in range(m + 1)]
            assert newton_components(ints) == matrix_components(ints)


def test_cone_components_equal_the_matrix_product():
    rng = Random(410)
    outcomes = Counter()
    for case in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(0, 4)
        codim = rng.randint(1, 2)
        if case % 2:
            # degree m, m+1 or m+2: passes, or fails the m+1 check
            p = rand_vector_poly(rng, n, m + case % 3, codim=codim, coeff_den_bound=7)
            fn = p.evaluate
        else:
            table = {}

            def fn(pt, table=table):
                return table.setdefault(pt, tuple(rand_rational(rng) for _ in range(codim)))

        f = ConeFunction(n, codim, fn)
        x = rand_vec(rng, n, CFG, nonneg=True)
        diffs = forward_differences([f(vec_scale(i, x)) for i in range(m + 2)])
        got = outcome(lambda: cone_components(f, m, x))
        if any(diffs[m + 1]):
            assert got[0] == "ExtensionHypothesisError"
            assert got[2:4] == ("(i)", Witness((x,), diffs[m + 1]))
            assert f"multiplier {m + 1}" in got[1]
        else:
            assert got == ("ok", matrix_components(diffs[: m + 1]))
        outcomes[got[0]] += 1
    assert outcomes["ok"] >= 5 and outcomes["ExtensionHypothesisError"] >= 5


def test_degree_witness_reads_the_degree_exactly():
    rng = Random(411)
    polys = [rand_vector_poly(rng, rng.randint(1, 3), rng.randint(0, 4), codim=rng.randint(1, 2)) for _ in range(38)]
    polys += [VectorPoly.zero(2, 1), VectorPoly.constant(2, [Fraction(-3, 2)])]
    failing = 0
    for p in polys:
        d = p.degree() or 0
        for m in range(max(d - 2, 0), d + 2):
            sym = symbolic_pure_diff(p, m + 1)
            witness = degree_witness(p, m)
            assert (witness is None) == sym.is_zero
            if witness is not None:
                point, value = nonzero_point(sym)
                assert witness == Witness((point[: p.nvars],) + (point[p.nvars :],) * (m + 1), value)
                failing += 1
    assert failing >= 20


def test_degree_witness_skips_the_expansion_within_the_bound(monkeypatch):
    import polydiff.components as components

    def forbidden(p, r):
        raise AssertionError("expanded although the degree bound holds")

    monkeypatch.setattr(components, "symbolic_pure_diff", forbidden)
    xs = ScalarPoly.variable(0, 3), ScalarPoly.variable(1, 3), ScalarPoly.variable(2, 3)
    p = VectorPoly((xs[0] ** 2 * xs[1] * xs[2] + xs[0],))
    assert degree_witness(p, 4) is None
    assert degree_witness(VectorPoly.zero(3, 2), 0) is None
    with pytest.raises(AssertionError):
        degree_witness(p, 3)
