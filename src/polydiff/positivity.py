"""Positivity of polynomial maps with respect to the componentwise order.

A homogeneous polynomial is positive when its generating symmetric form is
nonnegative on cone arguments, which for Q^n reduces to nonnegativity of the
tensor's basis values, equivalently of all monomial coefficients.  A general
polynomial is positive when each homogeneous component is.

Positivity is equivalent to all mixed differences being nonnegative on the
cone.  Pure differences are strictly weaker: this module packages a cubic on
Q^3 whose pure differences stay nonnegative on the cone although the
polynomial is not positive (its x1*x2*x3 coefficient is -6).

Cone nonnegativity of a polynomial family has no finite coefficient
certificate in this representation, so checks report three-valued verdicts:
"certified" (all monomial coefficients of the symbolic difference are
nonnegative), "probabilistic" (clean grid plus seeded random sampling), or
"fail" with a concrete witness.  The three are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random
from typing import Sequence

from .diffcalc import (
    VERDICT_CERTIFIED,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_PROBABILISTIC,
    BlackBoxFn,
    ClearedPoly,
    DiffReport,
    Witness,
    mixed_diff_at,
    symbolic_pure_diff,
)
from .poly import ScalarPoly, VectorPoly, as_vector_poly
from .sampling import DEFAULT_CONFIG, SamplerConfig, rand_vec
from .tensor import poly_to_tensor, tensor_is_nonneg
from .vectors import Vec, as_vec, basis_vec, zero_vec

# grid used by the cone sampling stage: step 1/2 on [0, 2] in every coordinate
DEFAULT_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 2) for i in range(5))
GRID_PAIR_CAP = 20000


@dataclass(frozen=True)
class ComponentVerdict:
    """Per-component outcome of a positivity test."""

    degree: int
    nonneg: bool
    witness_index: tuple[int, ...] | None
    witness_value: Vec | None


@dataclass(frozen=True)
class PositivityCertificate:
    positive: bool
    components: tuple[ComponentVerdict, ...]

    def first_failure(self) -> ComponentVerdict | None:
        for entry in self.components:
            if not entry.nonneg:
                return entry
        return None


def is_positive(p: VectorPoly) -> tuple[bool, PositivityCertificate]:
    """Split into homogeneous components and test each one's symmetric form.

    Forms are read off the coefficients by :func:`poly_to_tensor`, with no
    evaluations; a component's witness is its first negative basis value.
    """
    p = as_vector_poly(p)
    entries = []
    positive = True
    for k, part in enumerate(p.homogeneous_split()):
        tensor = poly_to_tensor(part, order=k)
        good, key = tensor_is_nonneg(tensor)
        entries.append(
            ComponentVerdict(k, good, key, tensor.value_at(key) if key is not None else None)
        )
        positive = positive and good
    return positive, PositivityCertificate(positive, tuple(entries))


def mixed_diff_nonneg_sample(
    p: VectorPoly, r_max: int, cfg: SamplerConfig = DEFAULT_CONFIG
) -> DiffReport:
    """Sample mixed differences of orders 0..r_max at cone points.

    Deterministic probes come first: the value at the origin and every
    basis-tuple difference at the origin (these recover the tensor values up
    to k!, so a component with a negative basis value always yields a
    witness).  Seeded random cone samples follow.  Failure is certain and
    carries witnesses; a clean pass is theorem-backed only when the
    polynomial is positive.  Vertex sums run on the integer ray kernel, and
    the basis probes share their integer evaluations at common vertices.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    p = as_vector_poly(p)
    cleared = ClearedPoly(p)
    n = p.nvars
    origin = zero_vec(n)
    basis = [basis_vec(i, n) for i in range(n)]
    probe, (corner, *units) = cleared.over([origin, *basis])
    witnesses = []
    used = 0
    for r in range(r_max + 1):
        for key in combinations_with_replacement(range(n), r):
            nums = probe.mixed_diff(corner, [units[i] for i in key])
            used += 1
            if any(c < 0 for c in nums):
                witnesses.append(Witness((origin, *(basis[i] for i in key)), probe.value(nums)))
    rng = Random(cfg.seed)
    for r in range(r_max + 1):
        for _ in range(cfg.samples):
            x = rand_vec(rng, n, cfg, nonneg=True)
            hs = [rand_vec(rng, n, cfg, nonneg=True) for _ in range(r)]
            evaluator, (a, *bs) = cleared.over([x, *hs])
            nums = evaluator.mixed_diff(a, bs)
            used += 1
            if any(c < 0 for c in nums):
                witnesses.append(Witness((x, *hs), evaluator.value(nums)))
    witnesses.sort(key=Witness.sort_key)
    verdict = VERDICT_FAIL if witnesses else VERDICT_PASS
    return DiffReport(verdict, witnesses, used, cfg.seed)


def pure_diff_nonneg_check(
    p: VectorPoly,
    r_max: int,
    cfg: SamplerConfig = DEFAULT_CONFIG,
    grid: Sequence[Fraction] = DEFAULT_GRID,
) -> DiffReport:
    """Two-stage cone check of pure differences of orders 0..r_max.

    Stage 1 expands each symbolic difference over [x | h]; when every
    monomial coefficient is nonnegative for every order, the verdict is
    "certified" (coefficient nonnegativity implies cone nonnegativity).
    Orders without a certificate fall back to stage 2: the full grid
    grid^n x grid^n (deterministically strided once it exceeds the pair cap)
    plus cfg.samples seeded random cone pairs.  Stage 2 runs on the integer
    ray kernel: each pair (x, h) is evaluated once at x + i h for i up to the
    highest uncertified order, every order is read off that one ray, and grid
    rays share evaluations at common points.  Witness values are exact
    Fractions, equal to :func:`pure_diff_at` of the polynomial.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    p = as_vector_poly(p)
    n = p.nvars
    uncertified = []
    for r in range(r_max + 1):
        sym = symbolic_pure_diff(p, r)
        if any(c < 0 for coord in sym.coords for c in coord.terms.values()):
            uncertified.append(r)
    if not uncertified:
        return DiffReport(VERDICT_CERTIFIED, [], 0, cfg.seed)

    cleared = ClearedPoly(p)
    witnesses = []
    used = 0
    points = [as_vec(pt) for pt in product(grid, repeat=n)]
    on_grid, ints = cleared.over(points)
    orders = [r for r in uncertified if r > 0]
    if 0 in uncertified:
        for x, a in zip(points, ints):
            used += 1
            nums = on_grid.numerators(a)
            if any(c < 0 for c in nums):
                witnesses.append(Witness((x,), on_grid.value(nums)))
    size = len(points)
    stride = max(1, -(-size * size // GRID_PAIR_CAP))  # ceil division
    if orders:
        for idx in range(0, size * size, stride):  # every stride-th pair of product(points, repeat=2)
            i, j = divmod(idx, size)
            x, a, h, b = points[i], ints[i], points[j], ints[j]
            diffs = on_grid.pure_diffs(a, b, orders[-1])
            for r in orders:
                used += 1
                if any(c < 0 for c in diffs[r]):
                    witnesses.append(Witness((x,) + (h,) * r, on_grid.value(diffs[r])))
    rng = Random(cfg.seed)
    for _ in range(cfg.samples):
        x = rand_vec(rng, n, cfg, nonneg=True)
        h = rand_vec(rng, n, cfg, nonneg=True)
        evaluator, (a, b) = cleared.over([x, h])
        diffs = evaluator.pure_diffs(a, b, uncertified[-1])
        for r in uncertified:
            used += 1
            if any(c < 0 for c in diffs[r]):
                witnesses.append(Witness((x,) + (h,) * r, evaluator.value(diffs[r])))
    witnesses.sort(key=Witness.sort_key)
    verdict = VERDICT_FAIL if witnesses else VERDICT_PROBABILISTIC
    return DiffReport(verdict, witnesses, used, cfg.seed)


def counterexample_cubic() -> VectorPoly:
    """The cubic on Q^3 separating pure-difference nonnegativity from positivity.

    x1^3 + x2^3 + x3^3 + 3 x1^2 (x2 + x3) + 3 x2^2 (x1 + x3)
    + 3 x3^2 (x1 + x2) - 6 x1 x2 x3.
    """
    terms = {
        (3, 0, 0): 1,
        (0, 3, 0): 1,
        (0, 0, 3): 1,
        (2, 1, 0): 3,
        (2, 0, 1): 3,
        (1, 2, 0): 3,
        (0, 2, 1): 3,
        (1, 0, 2): 3,
        (0, 1, 2): 3,
        (1, 1, 1): -6,
    }
    return VectorPoly.from_scalar(ScalarPoly(3, terms))


def affine_line_restriction(p: VectorPoly, base: Sequence, direction: Sequence) -> VectorPoly:
    """Restrict P to the line t -> base + t * direction, as a polynomial in t."""
    p = as_vector_poly(p)
    a = as_vec(base)
    b = as_vec(direction)
    if len(a) != p.nvars or len(b) != p.nvars:
        raise ValueError("base and direction must match the variable count")
    t_gen = ScalarPoly.variable(0, 1)
    args = [ScalarPoly.constant(1, a[i]) + b[i] * t_gen for i in range(p.nvars)]
    return p.compose(args, nvars_out=1)


def affine_line_positive(p: VectorPoly, base: Sequence, direction: Sequence) -> bool:
    """Whether the one-variable restriction to the given line is positive.

    In one variable positivity is exactly nonnegativity of every
    coefficient, so this is decided exactly per line.
    """
    restriction = affine_line_restriction(p, base, direction)
    return all(c >= 0 for coord in restriction.coords for c in coord.terms.values())


def counterexample_report(cfg: SamplerConfig = DEFAULT_CONFIG, line_samples: int = 32) -> dict:
    """Verify the packaged cubic's distinguishing facts; returns a structured dict.

    Checks: the -6 coefficient on x1 x2 x3, the values 15 at (1,1,1) and 8 at
    (1,1,0), non-positivity with the (1,2,3) tensor witness of -1, the mixed
    difference -6 at the origin with basis increments, cone nonnegativity of
    sampled pure differences, and positivity on seeded cone lines.
    """
    p = counterexample_cubic()
    f = BlackBoxFn.from_poly(p)
    checks: dict[str, dict] = {}

    def record(name: str, expected, actual) -> None:
        checks[name] = {"expected": expected, "actual": actual, "ok": expected == actual}

    record("coefficient_x1x2x3", Fraction(-6), p.coefficient((1, 1, 1))[0])
    record("value_at_1_1_1", Fraction(15), p.evaluate((1, 1, 1))[0])
    record("value_at_1_1_0", Fraction(8), p.evaluate((1, 1, 0))[0])

    positive, certificate = is_positive(p)
    record("is_positive", False, positive)
    failure = certificate.first_failure()
    witness_1based = (
        tuple(i + 1 for i in failure.witness_index)
        if failure and failure.witness_index is not None
        else None
    )
    record("tensor_witness_index", (1, 2, 3), witness_1based)
    record(
        "tensor_witness_value",
        (Fraction(-1),),
        failure.witness_value if failure else None,
    )

    basis = [basis_vec(i, 3) for i in range(3)]
    record("mixed_diff_origin_basis", (Fraction(-6),), mixed_diff_at(f, zero_vec(3), basis))

    pure_report = pure_diff_nonneg_check(p, 3, cfg)
    record("pure_cone_check_verdict", VERDICT_PROBABILISTIC, pure_report.verdict)

    # the mixed stage only needs the deterministic basis probes plus a modest
    # random batch; cfg.samples scales the pure check above instead
    mixed_cfg = SamplerConfig(
        seed=cfg.seed,
        samples=min(cfg.samples, 64),
        numerator_bound=cfg.numerator_bound,
        denominator_bound=cfg.denominator_bound,
    )
    mixed_report = mixed_diff_nonneg_sample(p, 3, mixed_cfg)
    record("mixed_cone_check_verdict", VERDICT_FAIL, mixed_report.verdict)
    has_basis_witness = any(
        w.points == (zero_vec(3), *basis) and w.value == (Fraction(-6),)
        for w in mixed_report.witnesses
    )
    record("mixed_witness_minus_6", True, has_basis_witness)

    rng = Random(cfg.seed)
    lines_ok = True
    for _ in range(line_samples):
        a = rand_vec(rng, 3, cfg, nonneg=True)
        b = rand_vec(rng, 3, cfg, nonneg=True)
        if not affine_line_positive(p, a, b):
            lines_ok = False
            break
    record("positive_on_sampled_cone_lines", True, lines_ok)

    return {
        "polynomial": p,
        "checks": checks,
        "pure_report": pure_report,
        "mixed_report": mixed_report,
        "ok": all(entry["ok"] for entry in checks.values()),
    }
