"""Symmetric k-linear forms stored by their values on sorted basis tuples.

A symmetric k-linear map A on Q^n is determined by the values
A(e_{i_1}, ..., e_{i_k}) with i_1 <= ... <= i_k; evaluation on arbitrary
arguments is multilinear expansion in the basis.  Storing only sorted tuples
makes symmetry structural rather than asserted.

On Q^n the form of a k-homogeneous polynomial can be read off its
coefficients: the value at the index tuple of a monomial x^e is its
coefficient divided by multinomial(k; e) (:func:`poly_to_tensor`, the exact
inverse of :func:`tensor_to_poly`).  The two polarization routes recover
A from the diagonal P(x) = A(x, ..., x) by evaluation alone:

* a sign sum over all choices epsilon_j = +-1 of
  (1 / (2^k k!)) sum eps_1...eps_k P(eps_1 x_1 + ... + eps_k x_k), and
* a vertex sum anchored at an arbitrary base point x,
  (1 / k!) sum_{delta_i = 0,1} (-1)^(k - sum delta) P(x + delta_1 x_1 + ...),

whose output is independent of the base point.  Both are evaluated term by
term on the integer kernel of poly.py, deliberately avoiding linear algebra
and never reading a coefficient, so they serve as mutually independent
oracles for the coefficient route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add, sub
from typing import Mapping, Sequence

from .combinatorics import multinomial
from .errors import DimensionError, NotHomogeneousError
from .poly import ClearedPoly, RayEvaluator, ScalarPoly, VectorPoly, as_vector_poly
from .vectors import Vec, as_vec, basis_vec, vec_add, vec_scale, zero_vec


class SymTensor:
    """Symmetric k-linear form on Q^n with values in Q^m."""

    __slots__ = ("order", "nvars", "codim", "values")

    def __init__(self, order: int, nvars: int, codim: int, values: Mapping[Sequence[int], Sequence] | None = None):
        if order < 0 or nvars < 0 or codim < 1:
            raise DimensionError("invalid tensor shape")
        canon: dict[tuple[int, ...], Vec] = {}
        for key, value in (values or {}).items():
            idx = tuple(sorted(int(i) for i in key))
            if len(idx) != order:
                raise DimensionError(f"index tuple {idx} has length {len(idx)}, expected {order}")
            if any(i < 0 or i >= nvars for i in idx):
                raise DimensionError(f"index tuple {idx} out of range for {nvars} variables")
            vec = as_vec(value)
            if len(vec) != codim:
                raise DimensionError(f"value {vec} has length {len(vec)}, expected {codim}")
            if any(vec):
                canon[idx] = vec
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "values", dict(sorted(canon.items())))

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @classmethod
    def zero(cls, order: int, nvars: int, codim: int = 1) -> "SymTensor":
        return cls(order, nvars, codim, {})

    def value_at(self, key: Sequence[int]) -> Vec:
        idx = tuple(sorted(int(i) for i in key))
        return self.values.get(idx, zero_vec(self.codim))

    @property
    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.nvars == other.nvars
            and self.codim == other.codim
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {tuple(str(x) for x in v)}" for k, v in self.values.items())
        return f"SymTensor(order={self.order}, nvars={self.nvars}, codim={self.codim}, {{{body}}})"


def tensor_eval(tensor: SymTensor, args: Sequence[Sequence]) -> Vec:
    """Multilinear evaluation A(v_1, ..., v_k) by basis expansion."""
    vecs = [as_vec(a) for a in args]
    if len(vecs) != tensor.order:
        raise DimensionError(f"{len(vecs)} arguments for an order-{tensor.order} tensor")
    for v in vecs:
        if len(v) != tensor.nvars:
            raise DimensionError(f"argument length {len(v)}, expected {tensor.nvars}")
    total = zero_vec(tensor.codim)
    if tensor.order == 0:
        return tensor.value_at(())
    for idx in product(range(tensor.nvars), repeat=tensor.order):
        coeff = Fraction(1)
        for slot, i in enumerate(idx):
            coeff *= vecs[slot][i]
            if not coeff:
                break
        if not coeff:
            continue
        base = tensor.values.get(tuple(sorted(idx)))
        if base is not None:
            total = vec_add(total, vec_scale(coeff, base))
    return total


def tensor_to_poly(tensor: SymTensor) -> VectorPoly:
    """The diagonal x -> A(x, ..., x), a homogeneous polynomial of degree k."""
    n, k = tensor.nvars, tensor.order
    coords: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(tensor.codim)]
    for key, vec in tensor.values.items():
        exps = [0] * n
        for i in key:
            exps[i] += 1
        count = multinomial(k, [e for e in exps if e])
        mono = tuple(exps)
        for c in range(tensor.codim):
            if vec[c]:
                coords[c][mono] = count * vec[c]
    return VectorPoly(tuple(ScalarPoly._build(n, terms) for terms in coords))


def _infer_order(pk: VectorPoly, order: int | None) -> int:
    if order is None:
        order = pk.degree()
        if order is None:
            raise NotHomogeneousError("cannot infer the order of the zero polynomial; pass it explicitly")
    if not pk.is_homogeneous(order):
        raise NotHomogeneousError(f"polynomial is not homogeneous of degree {order}")
    return order


def poly_to_tensor(pk: VectorPoly, order: int | None = None) -> SymTensor:
    """Symmetric form of a k-homogeneous polynomial, read off its coefficients.

    The exact inverse of :func:`tensor_to_poly`: the monomial x^e holds the
    basis value at its sorted index tuple times multinomial(k; e), so that
    value is the coefficient divided by the multinomial.  O(terms).
    """
    pk = as_vector_poly(pk)
    k = _infer_order(pk, order)
    values: dict[tuple[int, ...], list[Fraction]] = {}
    for c, coord in enumerate(pk.coords):
        for exps, coeff in coord.terms.items():
            key = tuple(i for i, e in enumerate(exps) for _ in range(e))
            vec = values.setdefault(key, [Fraction(0)] * pk.codim)
            vec[c] = coeff / multinomial(k, [e for e in exps if e])
    return SymTensor(k, pk.nvars, pk.codim, values)


def polarize_signs(pk: VectorPoly, order: int | None = None) -> SymTensor:
    """Recover the symmetric form from its diagonal via the +-1 sign sum.

    Evaluates P only, never reads its coefficients: each signed basis sum is
    an integer point, evaluated once as integer numerators, and the division
    by 2^k k! and the coefficient denominator comes at the end.
    """
    pk = as_vector_poly(pk)
    k = _infer_order(pk, order)
    n = pk.nvars
    evaluator = RayEvaluator(ClearedPoly(pk), 1)
    scale = 2**k * math.factorial(k)
    values = {}
    for key in combinations_with_replacement(range(n), k):
        acc = [0] * pk.codim
        for signs in product((1, -1), repeat=k):
            point = [0] * n
            for s, i in zip(signs, key):
                point[i] += s
            nums = evaluator.numerators(tuple(point))
            acc = list(map(add if math.prod(signs) > 0 else sub, acc, nums))
        values[key] = [Fraction(num, scale * den) for num, den in zip(acc, evaluator.dens)]
    return SymTensor(k, n, pk.codim, values)


def polarize_mo(pk: VectorPoly, base: Sequence, order: int | None = None) -> SymTensor:
    """Recover the symmetric form via the 0/1 vertex sum anchored at ``base``.

    The result does not depend on the base point; with base 0 the sign sum of
    :func:`polarize_signs` is the special case.  Evaluates P only: the vertex
    sum is :meth:`RayEvaluator.mixed_diff` over the common denominator of the
    base and the basis, so vertices shared between index tuples are
    evaluated once, and the division by k! comes at the end.
    """
    pk = as_vector_poly(pk)
    k = _infer_order(pk, order)
    n = pk.nvars
    x = as_vec(base)
    if len(x) != n:
        raise DimensionError(f"base point length {len(x)}, expected {n}")
    evaluator, (a, *units) = ClearedPoly(pk).over([x, *(basis_vec(i, n) for i in range(n))])
    scale = math.factorial(k)
    values = {}
    for key in combinations_with_replacement(range(n), k):
        nums = evaluator.mixed_diff(a, [units[i] for i in key])
        values[key] = [Fraction(num, scale * den) for num, den in zip(nums, evaluator.dens)]
    return SymTensor(k, n, pk.codim, values)


def tensor_is_nonneg(tensor: SymTensor) -> tuple[bool, tuple[int, ...] | None]:
    """Componentwise nonnegativity of every stored basis value.

    Because the positive cone of Q^n is generated by the basis vectors, this
    is equivalent to A >= 0 on all cone arguments.  Returns the first
    violating index tuple (in sorted key order) as a witness.
    """
    for key, vec in tensor.values.items():
        if any(c < 0 for c in vec):
            return False, key
    return True, None


def tensor_apply_powers(tensor: SymTensor, pairs: Sequence[tuple[Sequence, int]]) -> Vec:
    """Evaluate with each vector repeated per its multiplicity: A(x^j0, h^j1, ...)."""
    args: list[Vec] = []
    for vec, mult in pairs:
        if mult < 0:
            raise DimensionError("multiplicities must be nonnegative")
        args.extend([as_vec(vec)] * mult)
    if len(args) != tensor.order:
        raise DimensionError(f"multiplicities sum to {len(args)}, expected {tensor.order}")
    return tensor_eval(tensor, args)
