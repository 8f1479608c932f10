"""Sparse multivariate polynomials with exact rational coefficients.

``ScalarPoly`` maps exponent tuples to nonzero Fraction coefficients (the
canonical form: zero coefficients are never stored, so equality is plain
dictionary equality).  ``VectorPoly`` bundles one ScalarPoly per output
coordinate and is the representation of a polynomial map into a
finite-dimensional ordered space with the componentwise order.

Both classes are immutable after construction and safe for concurrent use.

:class:`ClearedPoly` and :class:`RayEvaluator` evaluate one polynomial at
many points in integers: every value, difference and polarization sum is an
integer numerator over a known positive denominator, and a Fraction is built
only for a value that is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Mapping, Sequence

from .errors import DimensionError
from .vectors import RatLike, Vec, as_rat, as_vec

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    """Graded-lexicographic sort key: total degree first, then lex on exponents."""
    return (sum(exps), exps)


class ScalarPoly:
    """One coordinate of a polynomial map, stored as {exponents: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], RatLike] | None = None):
        if nvars < 0:
            raise DimensionError("nvars must be nonnegative")
        canon: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != nvars:
                raise DimensionError(f"exponent tuple {key} has length {len(key)}, expected {nvars}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            c = as_rat(coeff)
            if c:
                canon[key] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _build(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "ScalarPoly":
        # internal fast path: keys already validated, only zero-filtering needed
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    @classmethod
    def zero(cls, nvars: int) -> "ScalarPoly":
        return cls._build(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: RatLike) -> "ScalarPoly":
        c = as_rat(value)
        return cls._build(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "ScalarPoly":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._build(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: RatLike = 1) -> "ScalarPoly":
        return cls(nvars, {tuple(exps): coeff})

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ScalarPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; compare by value only

    def __repr__(self) -> str:
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])))
        return f"ScalarPoly({self.nvars}, {{{items}}})"

    def _coerce(self, other) -> "ScalarPoly | None":
        if isinstance(other, ScalarPoly):
            if other.nvars != self.nvars:
                raise DimensionError(f"variable counts differ: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in rhs.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ScalarPoly._build(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarPoly._build(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return ScalarPoly._build(self.nvars, {e: c * v for e, v in self.terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return ScalarPoly._build(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = ScalarPoly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def degree(self) -> int | None:
        """Max total degree of a nonzero term; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def evaluate(self, point: Sequence[RatLike]) -> Fraction:
        pt = as_vec(point)
        if len(pt) != self.nvars:
            raise DimensionError(f"point has length {len(pt)}, expected {self.nvars}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            dead = False
            for x, e in zip(pt, exps):
                if not e:
                    continue
                if not x:
                    dead = True
                    break
                term *= x**e
            if not dead:
                total += term
        return total

    def compose(self, args: Sequence["ScalarPoly"], nvars_out: int | None = None) -> "ScalarPoly":
        """Substitute args[i] for variable i; result lives over the args' ring."""
        if len(args) != self.nvars:
            raise DimensionError(f"{len(args)} substitutions for {self.nvars} variables")
        if args:
            q = args[0].nvars
            for a in args:
                if a.nvars != q:
                    raise DimensionError("substitution polynomials live over different rings")
        else:
            q = 0 if nvars_out is None else nvars_out
        powers: list[dict[int, ScalarPoly]] = [{} for _ in args]

        def arg_power(i: int, e: int) -> "ScalarPoly":
            cache = powers[i]
            if e in cache:
                return cache[e]
            best = max((k for k in cache if k < e), default=0)
            value = cache.get(best, ScalarPoly.constant(q, 1))
            for k in range(best + 1, e + 1):
                value = value * args[i]
                cache[k] = value
            return value

        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            prod = ScalarPoly.constant(q, coeff)
            for i, e in enumerate(exps):
                if e:
                    prod = prod * arg_power(i, e)
            for e2, c2 in prod.terms.items():
                out[e2] = out.get(e2, Fraction(0)) + c2
        return ScalarPoly._build(q, out)

    def dilate(self, c: RatLike) -> "ScalarPoly":
        """x -> P(c x): scales each degree-k term by c^k."""
        c = as_rat(c)
        pows: dict[int, Fraction] = {0: Fraction(1)}

        def cpow(k: int) -> Fraction:
            if k not in pows:
                pows[k] = cpow(k - 1) * c
            return pows[k]

        return ScalarPoly._build(self.nvars, {e: v * cpow(sum(e)) for e, v in self.terms.items()})

    def coeff_of_var(self, index: int, power: int) -> "ScalarPoly":
        """Coefficient of variable[index]**power, as a polynomial without that variable."""
        if not 0 <= index < self.nvars:
            raise DimensionError(f"variable index {index} out of range")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[index] == power:
                out[exps[:index] + exps[index + 1 :]] = coeff
        return ScalarPoly._build(self.nvars - 1, out)


class VectorPoly:
    """Polynomial map into Q^m: one ScalarPoly per output coordinate."""

    __slots__ = ("nvars", "coords")

    def __init__(self, coords: Sequence[ScalarPoly]):
        coords = tuple(coords)
        if not coords:
            raise DimensionError("codomain dimension must be at least 1")
        nvars = coords[0].nvars
        for c in coords:
            if c.nvars != nvars:
                raise DimensionError("coordinates live over different variable counts")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPoly is immutable")

    @classmethod
    def from_scalar(cls, p: ScalarPoly) -> "VectorPoly":
        return cls((p,))

    @classmethod
    def zero(cls, nvars: int, codim: int = 1) -> "VectorPoly":
        return cls(tuple(ScalarPoly.zero(nvars) for _ in range(codim)))

    @classmethod
    def constant(cls, nvars: int, values: Sequence[RatLike]) -> "VectorPoly":
        return cls(tuple(ScalarPoly.constant(nvars, v) for v in values))

    @property
    def codim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coords == other.coords

    __hash__ = None

    def __repr__(self) -> str:
        return f"VectorPoly({list(self.coords)!r})"

    def _check(self, other: "VectorPoly") -> None:
        if other.nvars != self.nvars or other.codim != self.codim:
            raise DimensionError("polynomial shapes differ")

    def __add__(self, other):
        if not isinstance(other, VectorPoly):
            return NotImplemented
        self._check(other)
        return VectorPoly(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, VectorPoly):
            return NotImplemented
        self._check(other)
        return VectorPoly(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return VectorPoly(tuple(-c for c in self.coords))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return VectorPoly(tuple(c * scalar for c in self.coords))

    __rmul__ = __mul__

    def coefficient(self, exps: Sequence[int]) -> Vec:
        key = tuple(int(e) for e in exps)
        return tuple(c.terms.get(key, Fraction(0)) for c in self.coords)

    def evaluate(self, point: Sequence[RatLike]) -> Vec:
        pt = as_vec(point)
        return tuple(c.evaluate(pt) for c in self.coords)

    def compose(self, args: Sequence[ScalarPoly], nvars_out: int | None = None) -> "VectorPoly":
        return VectorPoly(tuple(c.compose(args, nvars_out) for c in self.coords))

    def dilate(self, c: RatLike) -> "VectorPoly":
        return VectorPoly(tuple(coord.dilate(c) for coord in self.coords))

    def degree(self) -> int | None:
        degs = [c.degree() for c in self.coords]
        degs = [d for d in degs if d is not None]
        return max(degs) if degs else None

    def is_homogeneous(self, k: int) -> bool:
        """True when every stored term has total degree exactly k (zero qualifies)."""
        return all(sum(e) == k for c in self.coords for e in c.terms)

    def homogeneous_split(self) -> list["VectorPoly"]:
        """Degree buckets [P_0, ..., P_m]; empty list for the zero polynomial."""
        top = self.degree()
        if top is None:
            return []
        out = []
        for k in range(top + 1):
            coords = tuple(
                ScalarPoly._build(self.nvars, {e: c for e, c in coord.terms.items() if sum(e) == k})
                for coord in self.coords
            )
            out.append(VectorPoly(coords))
        return out


def variables(nvars: int) -> tuple[ScalarPoly, ...]:
    """Generator tuple (x1, ..., xn) for building polynomials arithmetically."""
    return tuple(ScalarPoly.variable(i, nvars) for i in range(nvars))


def as_vector_poly(p: "ScalarPoly | VectorPoly") -> VectorPoly:
    """Wrap a ScalarPoly as a one-coordinate VectorPoly; pass VectorPoly through."""
    if isinstance(p, VectorPoly):
        return p
    if isinstance(p, ScalarPoly):
        return VectorPoly.from_scalar(p)
    raise TypeError(f"not a polynomial: {p!r}")


def forward_differences(values: Sequence[Sequence]) -> list[tuple]:
    """Delta^0, ..., Delta^r at the start of a ray from its values at i = 0..r.

    values[i] is the (vector) value at x + i h; row s of the forward-difference
    table is the s-th difference along the ray, and its first entry is
    Delta^s f(x; h^s).  Works for Fraction and integer vectors alike.
    """
    row = [tuple(v) for v in values]
    out = []
    while row:
        out.append(row[0])
        row = [tuple(map(sub, v, u)) for u, v in zip(row, row[1:])]
    return out


def common_numerators(vectors: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], int]:
    """Integer numerators of rational vectors over their least common denominator L, and L."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den


class ClearedPoly:
    """A polynomial map written as P_c = Q_c / D_c with integer Q_c, per coordinate.

    D_c is the least common denominator of the coordinate's coefficients, so
    Q_c has integer coefficients q_e.  :meth:`over` fixes a common
    denominator L for a set of points and returns the evaluator that works
    on their integer numerators.
    """

    def __init__(self, p: VectorPoly):
        p = as_vector_poly(p)
        self.degree = p.degree() or 0
        self.dens: list[int] = []
        # per coordinate: (q_e, |e|, ((variable, exponent), ...) over nonzero exponents)
        self.coords: list[list[tuple[int, int, tuple[tuple[int, int], ...]]]] = []
        for coord in p.coords:
            den = math.lcm(*(c.denominator for c in coord.terms.values()))
            self.dens.append(den)
            self.coords.append(
                [
                    (c.numerator * (den // c.denominator), sum(e), tuple((i, k) for i, k in enumerate(e) if k))
                    for e, c in coord.terms.items()
                ]
            )

    def over(self, vectors: Sequence[Sequence]) -> tuple["RayEvaluator", list[tuple[int, ...]]]:
        """Evaluator for the vectors' common denominator L, and each vector times L."""
        ints, scale = common_numerators(vectors)
        return RayEvaluator(self, scale), ints


class RayEvaluator:
    """Values of a :class:`ClearedPoly` at points a / L, integer a, as integer numerators.

    P_c(a / L) = N_c(a) / (D_c L^deg) with N_c(a) = sum_e q_e a^e L^(deg - |e|),
    and the denominator is positive, so every value and every difference of
    values has the sign of its integer numerator.  Numerators are cached per
    integer point, so rays and vertex sums that meet share evaluations.
    """

    def __init__(self, cleared: ClearedPoly, scale: int):
        deg = cleared.degree
        self.terms = [
            [(q * scale ** (deg - total), pairs) for q, total, pairs in coord] for coord in cleared.coords
        ]
        self.dens = [den * scale**deg for den in cleared.dens]
        self._cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def numerators(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """N_c(a) for every coordinate c."""
        got = self._cache.get(a)
        if got is None:
            values = []
            for terms in self.terms:
                total = 0
                for weight, pairs in terms:
                    for i, k in pairs:
                        weight *= a[i] ** k
                    total += weight
                values.append(total)
            got = self._cache[a] = tuple(values)
        return got

    def value(self, nums: Sequence[int]) -> Vec:
        """The exact value a numerator vector stands for."""
        return tuple(Fraction(num, den) for num, den in zip(nums, self.dens))

    def pure_diffs(self, a: tuple[int, ...], b: tuple[int, ...], top: int) -> list[tuple[int, ...]]:
        """Numerators of Delta^r P(a/L; (b/L)^r) for r = 0..top, from one ray of top + 1 values."""
        ray = [self.numerators(a)]
        for _ in range(top):
            a = tuple(map(add, a, b))
            ray.append(self.numerators(a))
        return forward_differences(ray)

    def mixed_diff(self, a: tuple[int, ...], bs: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        """Numerator of the mixed difference at a / L with increments b_s / L, by the vertex sum."""
        r = len(bs)
        total = [0] * len(self.dens)
        for delta in product((0, 1), repeat=r):
            pt = a
            for d, b in zip(delta, bs):
                if d:
                    pt = tuple(map(add, pt, b))
            total = list(map(sub if (r - sum(delta)) % 2 else add, total, self.numerators(pt)))
        return tuple(total)
