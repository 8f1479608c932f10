"""Forward-difference operators, numeric and symbolic.

The first difference of f at x with increment h is f(x + h) - f(x); higher
mixed differences iterate this with fresh increments, and admit the closed
vertex-sum form

    sum over delta in {0,1}^r of (-1)^(r - sum delta) f(x + sum delta_s h_s).

Both the recursion and the vertex sum are implemented and cross-checked.
Pure differences repeat a single increment and reduce to a binomial sum.
These routes act on any evaluable map and stay the reference oracles.

Checks that sample many differences of one polynomial go through the
integer ray kernel of poly.py (:class:`ClearedPoly`, :class:`RayEvaluator`,
re-exported here with :func:`forward_differences`): every value and every
difference is an integer numerator over a known positive denominator.

Symbolic variants return VectorPoly values in an enlarged ring of n(1+r)
variables with block layout [x | h_1 | ... | h_r]; :func:`block_names` gives
the canonical variable names (x1..xn, h1_1..h1_n, ...) used by the formatter.
They are read off the coefficients in closed form: Stirling-weighted
binomials for pure differences, multinomials for mixed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from .combinatorics import binomial, multinomial, stirling1_unsigned, stirling2
from .errors import DimensionError, ResourceLimitError
from .poly import (
    ClearedPoly,
    RayEvaluator,
    ScalarPoly,
    VectorPoly,
    as_vector_poly,
    common_numerators,
    forward_differences,
)
from .tensor import SymTensor, tensor_apply_powers
from .vectors import Vec, as_vec, vec_add, vec_scale, zero_vec

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_CERTIFIED = "certified"
VERDICT_PROBABILISTIC = "probabilistic"
SYMBOLIC_TERM_LIMIT = 2**14  # splits a symbolic difference may expand


@dataclass(frozen=True)
class BlackBoxFn:
    """An opaque evaluable map Q^n -> Q^m; must be deterministic.

    When the map is backed by a VectorPoly, attach it via ``poly`` (or use
    :meth:`from_poly`) so degree and positivity checks can run symbolically.
    """

    nvars: int
    codim: int
    fn: Callable[[Vec], Sequence]
    poly: VectorPoly | None = None

    @classmethod
    def from_poly(cls, p: VectorPoly) -> "BlackBoxFn":
        p = as_vector_poly(p)
        return cls(p.nvars, p.codim, p.evaluate, poly=p)

    def __call__(self, x: Sequence) -> Vec:
        pt = as_vec(x)
        if len(pt) != self.nvars:
            raise DimensionError(f"point length {len(pt)}, expected {self.nvars}")
        value = as_vec(self.fn(pt))
        if len(value) != self.codim:
            raise DimensionError(f"value length {len(value)}, expected {self.codim}")
        return value


@dataclass(frozen=True)
class Witness:
    """One failing (or notable) evaluation: the points used and the value found.

    For differences the convention is points = (x, h_1, ..., h_r); a pure
    difference repeats its single increment, so the order r is recoverable
    as len(points) - 1.
    """

    points: tuple[Vec, ...]
    value: Vec

    def sort_key(self):
        return (self.points, self.value)


@dataclass
class DiffReport:
    """Outcome of a sampling or symbolic check.

    verdict is one of "pass" (exact), "certified" (coefficient certificate),
    "probabilistic" (clean sampling, not a proof), or "fail" (with at least
    one witness).  samples_used counts difference evaluations performed.
    """

    verdict: str
    witnesses: list[Witness] = field(default_factory=list)
    samples_used: int = 0
    seed: int = 0

    @property
    def failed(self) -> bool:
        return self.verdict == VERDICT_FAIL


Evaluable = Callable[[Vec], Vec]


def mixed_diff_at(f: Evaluable, x: Sequence, hs: Sequence[Sequence]) -> Vec:
    """Mixed difference of order r = len(hs) by the alternating vertex sum."""
    base = as_vec(x)
    incs = [as_vec(h) for h in hs]
    r = len(incs)
    total: Vec | None = None
    for delta in product((0, 1), repeat=r):
        pt = base
        for d, h in zip(delta, incs):
            if d:
                pt = vec_add(pt, h)
        term = vec_scale((-1) ** (r - sum(delta)), f(pt))
        total = term if total is None else vec_add(total, term)
    assert total is not None
    return total


def mixed_diff_recursive(f: Evaluable, x: Sequence, hs: Sequence[Sequence]) -> Vec:
    """Same difference by the defining recursion; cross-check for the vertex sum."""
    base = as_vec(x)
    incs = [as_vec(h) for h in hs]

    def rec(pt: Vec, k: int) -> Vec:
        if k == 0:
            return f(pt)
        return tuple(
            a - b for a, b in zip(rec(vec_add(pt, incs[k - 1]), k - 1), rec(pt, k - 1))
        )

    return rec(base, len(incs))


def pure_diff_at(f: Evaluable, x: Sequence, h: Sequence, r: int) -> Vec:
    """Pure difference with one repeated increment: sum (-1)^(r-k) C(r,k) f(x + k h)."""
    if r < 0:
        raise ValueError("difference order must be nonnegative")
    base = as_vec(x)
    inc = as_vec(h)
    total: Vec | None = None
    for k in range(r + 1):
        pt = vec_add(base, vec_scale(k, inc))
        term = vec_scale((-1) ** (r - k) * binomial(r, k), f(pt))
        total = term if total is None else vec_add(total, term)
    assert total is not None
    return total


def newton_expand(f: Evaluable, x: Sequence, h: Sequence, r: int) -> Vec:
    """Binomial-weighted sum of pure differences; equals f(x + r h) for any f."""
    if r < 0:
        raise ValueError("expansion order must be nonnegative")
    total: Vec | None = None
    for k in range(r + 1):
        term = vec_scale(binomial(r, k), pure_diff_at(f, x, h, k))
        total = term if total is None else vec_add(total, term)
    assert total is not None
    return total


def mixed_from_pure(f: Evaluable, x: Sequence, hs: Sequence[Sequence]) -> Vec:
    """Mixed difference as a signed sum of pure differences.

    For each delta in {0,1}^r the base point shifts by sum delta_j h_j and the
    single repeated increment is -(sum delta_j h_j / j); the division by the
    1-based position j is exact in rational arithmetic.
    """
    base = as_vec(x)
    incs = [as_vec(h) for h in hs]
    r = len(incs)
    if r < 1:
        raise ValueError("mixed-from-pure needs at least one increment")
    n = len(base)
    total: Vec | None = None
    for delta in product((0, 1), repeat=r):
        shift = zero_vec(n)
        inc = zero_vec(n)
        for j, (d, h) in enumerate(zip(delta, incs), start=1):
            if d:
                shift = vec_add(shift, h)
                inc = vec_add(inc, vec_scale(Fraction(-1, j), h))
        term = vec_scale((-1) ** sum(delta), pure_diff_at(f, vec_add(base, shift), inc, r))
        total = term if total is None else vec_add(total, term)
    assert total is not None
    return total


@lru_cache(maxsize=64)
def newton_stirling_matrix(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rearrangement of the Newton expansion at 0 into powers of the multiplier.

    Row k, column j holds (-1)^(j-k) c(j, k) / j! (zero for j < k), so that
    f(n x) = sum_j C(n, j) Delta^j f(0; x^j) = sum_k n^k f_k(x) with
    f_k(x) = sum_j M[k][j] Delta^j f(0; x^j) for every natural n <= m: the
    falling factorial n(n-1)...(n-j+1) = j! C(n, j) expands through the
    unsigned Stirling numbers of the first kind.  Built once per m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return tuple(
        tuple(
            Fraction((-1) ** (j - k) * stirling1_unsigned(j, k), math.factorial(j)) if j >= k else Fraction(0)
            for j in range(m + 1)
        )
        for k in range(m + 1)
    )


def newton_components(diffs: Sequence[Vec]) -> list[Vec]:
    """Values (f_0(x), ..., f_m(x)) from the pure differences Delta^j f(0; x^j), j = 0..m.

    Runs on integer numerators over one common denominator L.
    """
    return newton_components_of_numerators(*common_numerators(diffs))


def newton_components_of_numerators(nums: Sequence[Sequence[int]], den: int) -> list[Vec]:
    """:func:`newton_components` of nums[j] / den: the matrix rows scaled by m! are integers."""
    scale = math.factorial(len(nums) - 1)
    out = []
    for row in newton_stirling_matrix(len(nums) - 1):
        weights = [(c.numerator * (scale // c.denominator), d) for c, d in zip(row, nums) if c]
        out.append(tuple(Fraction(sum(w * d[i] for w, d in weights), scale * den) for i in range(len(nums[0]))))
    return out


def block_names(n: int, r: int) -> list[str]:
    """Variable names for the enlarged ring [x | h_1 | ... | h_r]."""
    names = [f"x{i + 1}" for i in range(n)]
    for s in range(1, r + 1):
        names.extend(f"h{s}_{i + 1}" for i in range(n))
    return names


def _weighted_splits(k: int, blocks: int) -> list[tuple[tuple[int, ...], int]]:
    """Every ordered split k = a_0 + ... + a_(blocks-1) into nonnegative parts, with multinomial(k; a)."""
    rows = [((), 1, k)]
    for _ in range(blocks - 1):
        rows = [(parts + (j,), w * math.comb(left, j), left - j) for parts, w, left in rows for j in range(left + 1)]
    return [(parts + (left,), w) for parts, w, left in rows]


def _expand_splits(p: VectorPoly, r: int, blocks: int, kind: str, weigh: Callable) -> VectorPoly:
    """Sum of c_e weigh(a) prod_i multinomial(e_i; a_0i, a_1i, ...) x^(a_0 | a_1 | ...) over terms and splits.

    A split writes e = a_0 + a_1 + ... in the given number of blocks; the
    monomial fixes the term and the split, so each pair writes its own key.
    Terms of degree below r are skipped (both callers weigh them zero).
    Raises ResourceLimitError above SYMBOLIC_TERM_LIMIT splits.
    """
    bound = sum(math.prod(math.comb(k + blocks - 1, k) for k in e) for coord in p.coords for e in coord.terms)
    if bound > SYMBOLIC_TERM_LIMIT:
        raise ResourceLimitError(
            f"symbolic {kind} difference would expand to up to {bound} terms, above the limit of {SYMBOLIC_TERM_LIMIT}"
        )
    splits = lru_cache(maxsize=None)(lambda k: _weighted_splits(k, blocks))
    coords = []
    for coord in p.coords:
        out = {}
        for e, c in coord.terms.items():
            if sum(e) < r:
                continue
            for split in product(*map(splits, e)):
                key = tuple(parts[s] for s in range(blocks) for parts, _ in split)
                w = weigh(key)
                if w:
                    out[key] = c * w * math.prod(m for _, m in split)
        coords.append(ScalarPoly._build(p.nvars * blocks, out))
    return VectorPoly(coords)


def symbolic_mixed_diff(p: VectorPoly, r: int) -> VectorPoly:
    """Mixed difference as a polynomial in (x, h_1, ..., h_r).

    Evaluating the result at concrete blocks equals mixed_diff_at on P.  By
    inclusion-exclusion over the vertex sum, a monomial x^e contributes
    prod_i multinomial(e_i; a_0i, ..., a_ri) x^a_0 h_1^a_1 ... h_r^a_r for
    every split e = a_0 + a_1 + ... + a_r whose blocks a_1, ..., a_r are all
    nonzero, and nothing else.  Raises ResourceLimitError above
    SYMBOLIC_TERM_LIMIT splits, sum_e prod_i C(e_i + r, r).
    """
    if r < 0:
        raise ValueError("difference order must be nonnegative")
    p = as_vector_poly(p)
    n = p.nvars
    return _expand_splits(p, r, r + 1, "mixed", lambda a: all(any(a[n * s : n * (s + 1)]) for s in range(1, r + 1)))


def symbolic_pure_diff(p: VectorPoly, r: int) -> VectorPoly:
    """Pure difference as a polynomial over [x | h] (2n variables).

    Since sum_k (-1)^(r-k) C(r, k) k^j = r! S(j, r), a monomial x^e
    contributes r! S(|a|, r) prod_i C(e_i, a_i) x^(e-a) h^a for every a <= e
    (zero unless |a| >= r).  Raises ResourceLimitError when x -> x + h would
    expand P past SYMBOLIC_TERM_LIMIT terms, sum_e prod_i (e_i + 1).
    """
    if r < 0:
        raise ValueError("difference order must be nonnegative")
    p = as_vector_poly(p)
    n = p.nvars
    weight = lru_cache(maxsize=None)(lambda j: math.factorial(r) * stirling2(j, r))
    return _expand_splits(p, r, 2, "pure", lambda a: weight(sum(a[n:])))


def homog_mixed_diff_closed(tensor: SymTensor, x: Sequence, hs: Sequence[Sequence]) -> Vec:
    """Mixed difference of the diagonal polynomial of a symmetric form, in closed form.

    Sums multinomial(k; j_0, j_1, ..., j_r) A(x^j0, h_1^j1, ..., h_r^jr) over
    j_0 >= 0 and j_1, ..., j_r >= 1 with total k; zero when r exceeds the
    order, and k! A(h_1, ..., h_r) when r equals it (x drops out).
    """
    k = tensor.order
    base = as_vec(x)
    incs = [as_vec(h) for h in hs]
    r = len(incs)
    if r > k:
        return zero_vec(tensor.codim)
    total = zero_vec(tensor.codim)
    for parts in product(range(1, k - r + 2), repeat=r):
        rest = k - sum(parts)
        if rest < 0:
            continue
        coeff = multinomial(k, [rest, *parts])
        pairs = [(base, rest)] + list(zip(incs, parts))
        total = vec_add(total, vec_scale(coeff, tensor_apply_powers(tensor, pairs)))
    return total


def homog_pure_diff_closed(tensor: SymTensor, x: Sequence, h: Sequence, r: int) -> Vec:
    """Pure difference of the diagonal polynomial via Stirling numbers.

    r! sum_{j=r}^{k} C(k, j) S(j, r) A(x^(k-j), h^j); at x = 0 this collapses
    to r! S(k, r) P_k(h), and it vanishes for r > k.
    """
    if r < 0:
        raise ValueError("difference order must be nonnegative")
    k = tensor.order
    base = as_vec(x)
    inc = as_vec(h)
    total = zero_vec(tensor.codim)
    rfact = math.factorial(r)
    for j in range(r, k + 1):
        coeff = rfact * binomial(k, j) * stirling2(j, r)
        if not coeff:
            continue
        total = vec_add(
            total, vec_scale(coeff, tensor_apply_powers(tensor, [(base, k - j), (inc, j)]))
        )
    return total
