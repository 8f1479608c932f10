"""Extraction of homogeneous components and degree testing.

Three independent routes recover the degree-k part P_k of a polynomial map:

* interpolation: P_k(x) = sum_j alpha_kj P(j x), where (alpha_kj) is the
  exact inverse of the (m+1) x (m+1) Vandermonde matrix (j^k) on nodes 0..m;
* Stirling extraction from pure differences at the origin,
  P_k(x) = sum_{j=k}^{m} (1/j!) c(j,k) (-1)^(j-k) Delta^j P(0; x^j); and
* scaling: the t^k coefficient of Delta^k P(0; (t x)^k) divided by k!,
  computed by exact coefficient extraction in a formal scalar t (the faithful
  rendering, over polynomials, of letting t -> 0).

The coefficient-level ``homogeneous_split`` of poly.py is the ground-truth
oracle all three are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random
from typing import Sequence

from .combinatorics import binomial
from .diffcalc import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_PROBABILISTIC,
    BlackBoxFn,
    DiffReport,
    Witness,
    forward_differences,
    newton_components,
    newton_stirling_matrix,
    pure_diff_at,
    symbolic_pure_diff,
)
from .errors import DimensionError
from .poly import ScalarPoly, VectorPoly, as_vector_poly
from .sampling import DEFAULT_CONFIG, SamplerConfig, rand_vec
from .tensor import SymTensor
from .vectors import Vec, as_vec, vec_add, vec_scale, zero_vec


@dataclass(frozen=True)
class AlphaMatrix:
    """Exact inverse of the Vandermonde matrix V[j][k] = j^k on nodes 0..m.

    rows[k][j] holds alpha_kj, so a degree-m curve q has coefficients
    c_k = sum_j alpha_kj q(j).
    """

    m: int
    rows: tuple[tuple[Fraction, ...], ...]

    def entry(self, k: int, j: int) -> Fraction:
        return self.rows[k][j]


def _invert_exact(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    size = len(matrix)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(size)] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def vandermonde_inverse(m: int) -> AlphaMatrix:
    """Invert V[j][k] = j^k (0**0 = 1) by rational Gauss-Jordan elimination."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    size = m + 1
    vand = [[Fraction(j**k) for k in range(size)] for j in range(size)]
    alpha = _invert_exact(vand)
    # defining property, checked on every construction
    for k in range(size):
        for l in range(size):
            acc = sum((alpha[k][j] * vand[j][l] for j in range(size)), Fraction(0))
            if acc != (1 if k == l else 0):
                raise AssertionError("Vandermonde inversion failed self-check")
    return AlphaMatrix(m, tuple(tuple(row) for row in alpha))


def components_by_interpolation(f: BlackBoxFn, m: int, x: Sequence) -> list[Vec]:
    """Values (P_0(x), ..., P_m(x)) from the samples f(0), f(x), ..., f(m x)."""
    pt = as_vec(x)
    if len(pt) != f.nvars:
        raise DimensionError(f"point length {len(pt)}, expected {f.nvars}")
    alpha = vandermonde_inverse(m)
    samples = [f(vec_scale(j, pt)) for j in range(m + 1)]
    out = []
    for k in range(m + 1):
        acc = zero_vec(f.codim)
        for j in range(m + 1):
            if alpha.entry(k, j):
                acc = vec_add(acc, vec_scale(alpha.entry(k, j), samples[j]))
        out.append(acc)
    return out


def components_by_stirling(f: BlackBoxFn, m: int, x: Sequence) -> list[Vec]:
    """Same values from pure differences of f at the origin along x."""
    pt = as_vec(x)
    if len(pt) != f.nvars:
        raise DimensionError(f"point length {len(pt)}, expected {f.nvars}")
    return newton_components(forward_differences([f(vec_scale(i, pt)) for i in range(m + 1)]))


def interpolation_component_polys(p: VectorPoly, m: int | None = None) -> list[VectorPoly]:
    """Symbolic counterpart of interpolation: P_k = sum_j alpha_kj P(j x)."""
    p = as_vector_poly(p)
    if m is None:
        m = p.degree() or 0
    alpha = vandermonde_inverse(m)
    dilations = [p.dilate(j) for j in range(m + 1)]
    out = []
    for k in range(m + 1):
        acc = VectorPoly.zero(p.nvars, p.codim)
        for j in range(m + 1):
            if alpha.entry(k, j):
                acc = acc + alpha.entry(k, j) * dilations[j]
        out.append(acc)
    return out


def stirling_component_polys(p: VectorPoly, m: int | None = None) -> list[VectorPoly]:
    """Symbolic counterpart of Stirling extraction, via symbolic pure differences."""
    p = as_vector_poly(p)
    if m is None:
        m = p.degree() or 0
    n = p.nvars
    gens = [ScalarPoly.variable(i, n) for i in range(n)]
    zero_args = [ScalarPoly.zero(n) for _ in range(n)]
    diffs = []
    for j in range(m + 1):
        sym = symbolic_pure_diff(p, j)
        diffs.append(sym.compose(zero_args + gens, nvars_out=n))  # x := 0, h := x
    out = []
    for row in newton_stirling_matrix(m):
        acc = VectorPoly.zero(n, p.codim)
        for coeff, diff in zip(row, diffs):
            if coeff:
                acc = acc + coeff * diff
        out.append(acc)
    return out


def component_by_scaling(p: VectorPoly, k: int) -> VectorPoly:
    """Degree-k component as the t^k coefficient of Delta^k P(0; (t x)^k) / k!.

    Works in the ring (t, x_1, ..., x_n); the pure difference at the origin is
    sum_i (-1)^(k-i) C(k, i) P(i t x), a polynomial whose t^j coefficient is
    k! S(j, k) P_j(x), so the t^k coefficient divided by k! is exactly P_k.
    """
    if k < 0:
        raise ValueError("component index must be nonnegative")
    p = as_vector_poly(p)
    n = p.nvars
    big = 1 + n
    t_gen = ScalarPoly.variable(0, big)
    x_gens = [ScalarPoly.variable(1 + i, big) for i in range(n)]
    total = VectorPoly.zero(big, p.codim)
    for i in range(k + 1):
        args = [i * t_gen * xg for xg in x_gens]
        total = total + ((-1) ** (k - i) * binomial(k, i)) * p.compose(args, nvars_out=big)
    inv = Fraction(1, math.factorial(k))
    coords = tuple(inv * coord.coeff_of_var(0, k) for coord in total.coords)
    return VectorPoly(coords)


def tensor_by_scaling(p: VectorPoly, k: int) -> SymTensor:
    """Symmetric form of the degree-k component via formal-t mixed differences.

    Entry at (i_1 <= ... <= i_k) is the t^k coefficient of
    Delta^k P(0; t e_{i_1}, ..., t e_{i_k}) divided by k!.
    """
    if k < 1:
        raise ValueError("tensor extraction needs order k >= 1")
    p = as_vector_poly(p)
    n = p.nvars
    t_gen = ScalarPoly.variable(0, 1)
    inv = Fraction(1, math.factorial(k))
    values = {}
    for key in combinations_with_replacement(range(n), k):
        acc = VectorPoly.zero(1, p.codim)
        for delta in product((0, 1), repeat=k):
            direction = [0] * n
            for d, i in zip(delta, key):
                if d:
                    direction[i] += 1
            args = [direction[j] * t_gen for j in range(n)]
            acc = acc + ((-1) ** (k - sum(delta))) * p.compose(args, nvars_out=1)
        values[key] = tuple(inv * coord.terms.get((k,), Fraction(0)) for coord in acc.coords)
    return SymTensor(k, n, p.codim, values)


def nonzero_point(p: VectorPoly) -> tuple[Vec, Vec]:
    """Lex-first point of the grid {0, ..., d+1}^nvars where a nonzero polynomial does not vanish.

    d is the total degree.  A nonzero polynomial of degree <= d in each
    variable cannot vanish on a grid with more than d values per variable
    (the grid argument of the Combinatorial Nullstellensatz, Alon 1999), so
    variables are fixed greedily: each takes the least v in 0..d+1 whose
    substitution leaves a nonzero (vector) polynomial in the rest.  That is
    the lex-first nonvanishing grid point, found with O(nvars (d+2))
    substitutions and one evaluation.  The grid stays in the positive cone,
    so the point is always a valid cone witness.  Returns (point, value).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    bound = (p.degree() or 0) + 2
    coords = [coord.terms for coord in p.coords]
    point = []
    for _ in range(p.nvars):
        for v in range(bound):
            rest = []
            for terms in coords:
                acc: dict[tuple[int, ...], Fraction] = {}
                for exps, coeff in terms.items():
                    acc[exps[1:]] = acc.get(exps[1:], 0) + coeff * v ** exps[0]
                rest.append({e: c for e, c in acc.items() if c})
            if any(rest):
                break
        else:
            raise AssertionError("unreachable: nonzero polynomial vanished on its grid")
        point.append(v)
        coords = rest
    pt = as_vec(point)
    return pt, p.evaluate(pt)


def degree_witness(p: VectorPoly, m: int) -> Witness | None:
    """Exact check that the order-(m+1) pure differences of p vanish.

    None when they do; otherwise the witness (x, h, ..., h) at the
    lex-first nonvanishing point of the symbolic difference over [x | h].
    Over Q they vanish exactly when deg p <= m, which needs no expansion.
    """
    if (p.degree() or 0) <= m:
        return None
    sym = symbolic_pure_diff(p, m + 1)
    if sym.is_zero:
        return None
    point, value = nonzero_point(sym)
    n = p.nvars
    return Witness((point[:n],) + (point[n:],) * (m + 1), value)


def degree_test(f: BlackBoxFn, m: int, cfg: SamplerConfig = DEFAULT_CONFIG) -> DiffReport:
    """Check that all pure differences of order m+1 vanish.

    Polynomial-backed inputs are checked symbolically (exact verdict: "pass"
    or "fail" with the witness of :func:`degree_witness`).  Opaque inputs are
    sampled at seeded rational pairs (x, h); a clean run is only
    "probabilistic".
    """
    if m < 0:
        raise ValueError("degree bound must be nonnegative")
    if f.poly is not None:
        witness = degree_witness(f.poly, m)
        if witness is None:
            return DiffReport(VERDICT_PASS, [], 0, cfg.seed)
        return DiffReport(VERDICT_FAIL, [witness], 0, cfg.seed)
    rng = Random(cfg.seed)
    witnesses = []
    for _ in range(cfg.samples):
        x = rand_vec(rng, f.nvars, cfg)
        h = rand_vec(rng, f.nvars, cfg)
        value = pure_diff_at(f, x, h, m + 1)
        if any(value):
            witnesses.append(Witness((x,) + (h,) * (m + 1), value))
    witnesses.sort(key=Witness.sort_key)
    verdict = VERDICT_FAIL if witnesses else VERDICT_PROBABILISTIC
    return DiffReport(verdict, witnesses, cfg.samples, cfg.seed)


def degree_search(
    f: BlackBoxFn, cap: int = 8, cfg: SamplerConfig = DEFAULT_CONFIG
) -> tuple[int | None, DiffReport]:
    """Least m in 0..cap whose degree test passes, with that test's report."""
    report = DiffReport(VERDICT_FAIL, [], 0, cfg.seed)
    for m in range(cap + 1):
        report = degree_test(f, m, cfg)
        if not report.failed:
            return m, report
    return None, report
