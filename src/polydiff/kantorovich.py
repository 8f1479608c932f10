"""Constructive polynomial extension from the positive cone.

Given f defined on the cone of Q^n with values in the cone of Q^m and a
degree bound m, suppose

  (i)  all pure differences of order m+1 vanish on the cone, and
  (ii) all mixed differences of orders 1..m are nonnegative on the cone
       (with f itself cone-valued).

Then f extends to a unique positive polynomial of degree at most m.  The
construction is fully finite:

* rearrange the Newton expansion of f at 0 into f(n x) = sum_k f_k(x) n^k,
  where f_k(x) = sum_{j=k}^{m} (1/j!) c(j,k) (-1)^(j-k) Delta^j f(0; x^j);
* each f_k is k-homogeneous on the cone and its symmetric form has basis
  values (1/k!) Delta^k f_k(0; e_{i_1}, ..., e_{i_k}); every evaluation point
  in that difference is a 0/1 sum of basis vectors, hence inside the cone,
  and is read once from a vertex table shared by all basis tuples;
* off-cone arguments are reached by multilinear expansion, which in finite
  dimensions is literally the variable-at-a-time x = x+ - x- extension (the
  test suite compares both computations on mixed-sign arguments).

Hypotheses are never assumed: polynomial-backed inputs are checked exactly
(symbolically), opaque ones by seeded cone sampling, and violations raise
:class:`ExtensionHypothesisError` naming the condition with a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random
from typing import Callable, Sequence

from .diffcalc import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_PROBABILISTIC,
    DiffReport,
    Witness,
    common_numerators,
    forward_differences,
    mixed_diff_at,
    newton_components_of_numerators,
    pure_diff_at,
)
from .components import degree_witness
from .errors import (
    ConeDomainError,
    DimensionError,
    ExtensionHypothesisError,
    MissingSampleError,
)
from .poly import VectorPoly, as_vector_poly
from .positivity import is_positive
from .sampling import DEFAULT_CONFIG, SamplerConfig, rand_vec
from .tensor import SymTensor, tensor_to_poly
from .vectors import (
    Vec,
    as_vec,
    basis_vec,
    vec_is_nonneg,
    vec_scale,
    vec_sub,
    zero_vec,
)

# light fixed sample count for the per-component spot checks inside
# homogeneous_extend; the full hypothesis check runs once per extension
SPOT_SAMPLES = 4
HOMOGENEITY_MULTIPLIERS = (1, 2, 3)


def jordan_parts(x: Sequence) -> tuple[Vec, Vec]:
    """Componentwise positive and negative parts: x = pos - neg, disjoint."""
    v = as_vec(x)
    pos = tuple(c if c > 0 else Fraction(0) for c in v)
    neg = tuple(-c if c < 0 else Fraction(0) for c in v)
    return pos, neg


@dataclass(frozen=True)
class ConeFunction:
    """Deterministic map defined on the positive cone of Q^n.

    ``poly`` marks a polynomial restriction (enables exact hypothesis
    checks); ``pool`` restricts sampling to tabulated points for table-backed
    functions.  Calls outside the cone raise :class:`ConeDomainError`.
    """

    nvars: int
    codim: int
    fn: Callable[[Vec], Sequence]
    poly: VectorPoly | None = None
    pool: tuple[Vec, ...] | None = None

    @classmethod
    def from_poly(cls, p: VectorPoly) -> "ConeFunction":
        p = as_vector_poly(p)
        return cls(p.nvars, p.codim, p.evaluate, poly=p)

    @classmethod
    def from_table(cls, nvars: int, codim: int, table: dict[Vec, Vec]) -> "ConeFunction":
        data = {as_vec(k): as_vec(v) for k, v in table.items()}
        for point in data:
            if not vec_is_nonneg(point):
                raise ConeDomainError(f"table point {point} lies outside the cone")

        def lookup(pt: Vec) -> Vec:
            got = data.get(pt)
            if got is None:
                raise MissingSampleError(pt)
            return got

        return cls(nvars, codim, lookup, pool=tuple(sorted(data)))

    def __call__(self, x: Sequence) -> Vec:
        pt = as_vec(x)
        if len(pt) != self.nvars:
            raise DimensionError(f"point length {len(pt)}, expected {self.nvars}")
        if not vec_is_nonneg(pt):
            raise ConeDomainError(f"point {pt} lies outside the positive cone")
        value = as_vec(self.fn(pt))
        if len(value) != self.codim:
            raise DimensionError(f"value length {len(value)}, expected {self.codim}")
        return value


@dataclass
class ExtensionResult:
    """A recovered extension: the polynomial, its symmetric forms, and reports."""

    poly: VectorPoly
    components: tuple[SymTensor, ...]
    hypothesis_report: DiffReport
    agreement_report: DiffReport


def table_grid_points(n: int, m: int) -> list[Vec]:
    """Integer cone grid sufficient for a degree-m extension from a table.

    The construction queries f only at integer scalings i * v, 0 <= i <= m+1,
    of 0/1-multiset sums v of basis vectors with at most m repetitions, so
    every coordinate stays within m(m+1).  The full box {0..m(m+1)}^n is a
    convenient superset.
    """
    from itertools import product as iproduct

    top = m * (m + 1)
    return [as_vec(pt) for pt in iproduct(range(top + 1), repeat=n)]


def _draw_cone_vec(rng: Random, f: ConeFunction, cfg: SamplerConfig) -> Vec:
    if f.pool is not None:
        return f.pool[rng.randrange(len(f.pool))]
    return rand_vec(rng, f.nvars, cfg, nonneg=True)


def _condition_i_witnesses(
    f: ConeFunction, m: int, cfg: SamplerConfig, rng: Random
) -> tuple[list[Witness], bool, int]:
    """Vanishing of order-(m+1) pure differences on the cone.

    Returns (witnesses, exact, evaluations).  Polynomial-backed: symbolic,
    with the small-integer cone witness of :func:`degree_witness`.
    Otherwise seeded sampling; table-backed draws skip pairs that leave the
    table.
    """
    if f.poly is not None:
        witness = degree_witness(f.poly, m)
        return ([] if witness is None else [witness]), True, 0
    witnesses = []
    used = 0
    attempts = 0
    while used < cfg.samples and attempts < 4 * cfg.samples:
        attempts += 1
        x = _draw_cone_vec(rng, f, cfg)
        h = _draw_cone_vec(rng, f, cfg)
        try:
            value = pure_diff_at(f, x, h, m + 1)
        except MissingSampleError:
            continue
        used += 1
        if any(value):
            witnesses.append(Witness((x,) + (h,) * (m + 1), value))
    witnesses.sort(key=Witness.sort_key)
    return witnesses, False, used


def _condition_ii_witnesses(
    f: ConeFunction, m: int, cfg: SamplerConfig, rng: Random
) -> tuple[list[Witness], bool, int]:
    """Nonnegativity of mixed differences of orders 0..m on the cone.

    Order 0 is the requirement that f itself is cone-valued.  For a
    polynomial restriction (of degree already known to be <= m) this is
    equivalent to positivity of the polynomial, decided exactly through the
    tensor test; a failing component yields the concrete cone witness
    Delta^k f(0; e_{i_1}, ..., e_{i_k}) = k! * A(e_{i_1}, ..., e_{i_k}) < 0.
    """
    n = f.nvars
    if f.poly is not None:
        positive, certificate = is_positive(f.poly)
        if positive:
            return [], True, 0
        failure = certificate.first_failure()
        assert failure is not None and failure.witness_index is not None
        hs = [basis_vec(i, n) for i in failure.witness_index]
        value = mixed_diff_at(f, zero_vec(n), hs)
        return [Witness((zero_vec(n), *hs), value)], True, 0
    witnesses = []
    used = 0
    for k in range(m + 1):
        draws = 0
        attempts = 0
        while draws < cfg.samples and attempts < 4 * cfg.samples:
            attempts += 1
            x = _draw_cone_vec(rng, f, cfg)
            hs = [_draw_cone_vec(rng, f, cfg) for _ in range(k)]
            try:
                value = mixed_diff_at(f, x, hs)
            except MissingSampleError:
                continue
            draws += 1
            used += 1
            if any(c < 0 for c in value):
                witnesses.append(Witness((x, *hs), value))
    witnesses.sort(key=Witness.sort_key)
    return witnesses, False, used


def _hypothesis_witnesses(
    f: ConeFunction, m: int, cfg: SamplerConfig, stop_after_i: bool
) -> tuple[list[Witness], list[Witness], bool, int]:
    """Witnesses of (i) and (ii) from one seeded stream: (wit_i, wit_ii, exact, evaluations).

    (ii) is skipped after an exact failure of (i), where its polynomial
    route is not meaningful, and after any failure of (i) when
    ``stop_after_i`` is set.
    """
    if m < 0:
        raise ValueError("degree bound must be nonnegative")
    rng = Random(cfg.seed)
    wit_i, exact_i, used_i = _condition_i_witnesses(f, m, cfg, rng)
    if wit_i and (exact_i or stop_after_i):
        return wit_i, [], exact_i, used_i
    wit_ii, exact_ii, used_ii = _condition_ii_witnesses(f, m, cfg, rng)
    return wit_i, wit_ii, exact_i and exact_ii, used_i + used_ii


def check_extension_hypotheses(
    f: ConeFunction, m: int, cfg: SamplerConfig = DEFAULT_CONFIG
) -> DiffReport:
    """Report on conditions (i) and (ii); never raises on a violation.

    The verdict is exact ("pass"/"fail") for polynomial restrictions and
    "probabilistic"/"fail" for opaque cone functions.  When the symbolic
    degree check (i) already failed, the polynomial route for (ii) is not
    meaningful and is skipped.
    """
    wit_i, wit_ii, exact, used = _hypothesis_witnesses(f, m, cfg, stop_after_i=False)
    witnesses = sorted(wit_i + wit_ii, key=Witness.sort_key)
    if witnesses:
        return DiffReport(VERDICT_FAIL, witnesses, used, cfg.seed)
    return DiffReport(VERDICT_PASS if exact else VERDICT_PROBABILISTIC, [], used, cfg.seed)


def cone_components(f: ConeFunction, m: int, x: Sequence) -> list[Vec]:
    """Values (f_0(x), ..., f_m(x)) rearranged from the Newton expansion at 0.

    Requires x in the cone.  The samples f(i x), i = 0..m+1, over one common
    denominator give the pure differences Delta^j f(0; x^j) along the ray as
    integer numerators, and the integer Newton-Stirling rows turn those of
    orders 0..m into the component values.  The rearrangement reproduces
    f(n x) = sum_k f_k(x) n^k exactly for n = 0..m, so the one consistency
    check left is n = m+1: it holds exactly when the order-(m+1) pure
    difference along x vanishes, and raises with that difference as the
    witness value otherwise.
    """
    pt = as_vec(x)
    if len(pt) != f.nvars:
        raise DimensionError(f"point length {len(pt)}, expected {f.nvars}")
    if not vec_is_nonneg(pt):
        raise ConeDomainError(f"point {pt} lies outside the positive cone")
    nums, den = common_numerators([f(vec_scale(i, pt)) for i in range(m + 2)])
    diffs = forward_differences(nums)
    if any(diffs[m + 1]):
        raise ExtensionHypothesisError(
            "(i)",
            Witness((pt,), tuple(Fraction(d, den) for d in diffs[m + 1])),
            f"Newton consistency fails at multiplier {m + 1} along {pt}: "
            "order-(m+1) differences do not vanish on this ray",
        )
    return newton_components_of_numerators(diffs[: m + 1], den)


def homogeneous_extend(
    fk: ConeFunction, k: int, cfg: SamplerConfig = DEFAULT_CONFIG
) -> SymTensor:
    """Symmetric form of a k-homogeneous cone function from basis differences.

    Basis values are (1/k!) Delta^k f_k(0; e_{i_1}, ..., e_{i_k}), summed with
    integer signs over one table of vertices (0/1 sums of basis vectors, all
    in the cone) shared by all basis tuples; each vertex is evaluated once,
    in the order mixed_diff_at's vertex sums first touch it, so a failure
    raises where it would there.  The hypotheses (vanishing order-(k+1) pure
    differences at 0 and f_k(p x) = p^k f_k(x) for small natural p) are spot
    checked at seeded cone points, as is agreement of the rebuilt diagonal
    with f_k; violations raise.  The extension to mixed-sign arguments is
    multilinear expansion of the resulting tensor.
    """
    if k < 0:
        raise ValueError("homogeneity order must be nonnegative")
    n = fk.nvars
    rng = Random(cfg.seed)
    spots = [_draw_cone_vec(rng, fk, cfg) for _ in range(SPOT_SAMPLES)]
    for h in spots:
        try:
            value = forward_differences([fk(vec_scale(i, h)) for i in range(k + 2)])[k + 1]
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
    fact = math.factorial(k)
    table: dict[tuple[int, ...], Vec] = {}
    values = {}
    for key in combinations_with_replacement(range(n), k):
        weights: dict[tuple[int, ...], int] = {}
        for delta in product((0, 1), repeat=k):
            vertex = [0] * n
            for d, i in zip(delta, key):
                vertex[i] += d
            vertex = tuple(vertex)
            weights[vertex] = weights.get(vertex, 0) + (-1) ** (k - sum(delta))
        for vertex in weights:
            if vertex not in table:
                table[vertex] = fk(vertex)
        values[key] = tuple(sum(w * table[v][c] for v, w in weights.items()) / fact for c in range(fk.codim))
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


def kantorovich_extend(
    f: ConeFunction, m: int, cfg: SamplerConfig = DEFAULT_CONFIG
) -> ExtensionResult:
    """Extend a cone function satisfying (i) and (ii) to a positive polynomial.

    Checks the hypotheses (exactly for polynomial restrictions, by seeded
    sampling otherwise), extracts the component functions f_k, turns each
    into a symmetric form on basis tuples, and sums the diagonals.  The
    returned polynomial is verified to agree with f: coefficientwise against
    a polynomial restriction, at fresh seeded cone points otherwise.
    """
    wit_i, wit_ii, exact, used = _hypothesis_witnesses(f, m, cfg, stop_after_i=True)
    if wit_i:
        raise ExtensionHypothesisError("(i)", wit_i[0], "order-(m+1) differences do not vanish on the cone")
    if wit_ii:
        raise ExtensionHypothesisError("(ii)", wit_ii[0], "a mixed difference is negative on the cone")
    hypothesis_report = DiffReport(VERDICT_PASS if exact else VERDICT_PROBABILISTIC, [], used, cfg.seed)

    value_cache: dict[Vec, Sequence] = {}

    def cached_eval(pt: Vec) -> Sequence:
        got = value_cache.get(pt)
        if got is None:
            got = f.fn(pt)
            value_cache[pt] = got
        return got

    cached = ConeFunction(f.nvars, f.codim, cached_eval, poly=f.poly, pool=f.pool)
    comps_cache: dict[Vec, list[Vec]] = {}

    def comps_at(pt: Vec) -> list[Vec]:
        got = comps_cache.get(pt)
        if got is None:
            got = cone_components(cached, m, pt)
            comps_cache[pt] = got
        return got

    tensors = []
    for k in range(m + 1):
        fk = ConeFunction(f.nvars, f.codim, lambda pt, k=k: comps_at(pt)[k], pool=f.pool)
        tensors.append(homogeneous_extend(fk, k, cfg))
    poly = VectorPoly.zero(f.nvars, f.codim)
    for tensor in tensors:
        poly = poly + tensor_to_poly(tensor)

    if f.poly is not None:
        if poly != f.poly:
            raise ExtensionHypothesisError(
                "agreement",
                None,
                "recovered polynomial differs from the generating polynomial",
            )
        agreement_report = DiffReport(VERDICT_PASS, [], 0, cfg.seed + 1)
    else:
        rng2 = Random(cfg.seed + 1)
        used = 0
        attempts = 0
        while used < cfg.samples and attempts < 4 * cfg.samples:
            attempts += 1
            x = _draw_cone_vec(rng2, f, cfg)
            try:
                expected = cached(x)
            except MissingSampleError:
                continue
            used += 1
            got = poly.evaluate(x)
            if got != expected:
                raise ExtensionHypothesisError(
                    "agreement",
                    Witness((x,), vec_sub(got, expected)),
                    f"extension disagrees with the cone data at {x}",
                )
        agreement_report = DiffReport(VERDICT_PROBABILISTIC, [], used, cfg.seed + 1)

    return ExtensionResult(poly, tuple(tensors), hypothesis_report, agreement_report)
