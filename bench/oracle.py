"""Independent reference arithmetic for checking the benchmark's outputs.

Nothing here calls polydiff: polynomials are plain ``{exponents: Fraction}``
dicts (one per output coordinate), evaluated and differenced by direct
formulas, and sympy expands the symbolic differences.  sympy is imported
only inside the functions that need it, so the timed code never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

Terms = dict[tuple[int, ...], Fraction]


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def evaluate(terms: Terms, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = coeff
        for x, e in zip(point, exps):
            term *= Fraction(x) ** e
        total += term
    return total


def evaluate_vec(coords: list[Terms], point) -> tuple[Fraction, ...]:
    return tuple(evaluate(t, point) for t in coords)


def shifted(x, steps) -> tuple[Fraction, ...]:
    """x + sum of (scalar, vector) steps."""
    out = [Fraction(v) for v in x]
    for scalar, vec in steps:
        for i, v in enumerate(vec):
            out[i] += scalar * Fraction(v)
    return tuple(out)


def pure_diff(coords: list[Terms], x, h, r: int) -> tuple[Fraction, ...]:
    """sum_k (-1)^(r-k) C(r,k) P(x + k h)."""
    total = [Fraction(0)] * len(coords)
    for k in range(r + 1):
        weight = (-1) ** (r - k) * math.comb(r, k)
        for c, v in enumerate(evaluate_vec(coords, shifted(x, [(k, h)]))):
            total[c] += weight * v
    return tuple(total)


def mixed_diff(coords: list[Terms], x, hs) -> tuple[Fraction, ...]:
    """Alternating vertex sum over {0,1}^r."""
    r = len(hs)
    total = [Fraction(0)] * len(coords)
    for delta in product((0, 1), repeat=r):
        point = shifted(x, [(d, h) for d, h in zip(delta, hs)])
        sign = (-1) ** (r - sum(delta))
        for c, v in enumerate(evaluate_vec(coords, point)):
            total[c] += sign * v
    return tuple(total)


def degree(coords: list[Terms]) -> int | None:
    degs = [sum(e) for t in coords for e in t]
    return max(degs) if degs else None


def split(coords: list[Terms], m: int) -> list[list[Terms]]:
    """Homogeneous parts of degrees 0..m."""
    return [[{e: c for e, c in t.items() if sum(e) == k} for t in coords] for k in range(m + 1)]


def tensor_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


def tensor_values(terms: Terms) -> dict[tuple[int, ...], Fraction]:
    """Basis values of the symmetric form of a homogeneous form: coeff / multinomial."""
    out = {}
    for exps, coeff in terms.items():
        k = sum(exps)
        multi = math.factorial(k)
        for e in exps:
            multi //= math.factorial(e)
        out[tensor_key(exps)] = coeff / multi
    return dict(sorted(out.items()))


def lib_terms(poly) -> list[Terms]:
    """A polydiff VectorPoly as plain coordinate dicts (reads its data only)."""
    return [dict(c.terms) for c in poly.coords]


# ----- sympy ---------------------------------------------------------------


def _symbols(names: list[str]):
    import sympy

    return sympy.symbols(names) if len(names) > 1 else [sympy.Symbol(names[0])]


def sympy_poly_dict(expr, names: list[str]) -> Terms:
    import sympy

    gens = _symbols(names)
    poly = sympy.Poly(sympy.expand(expr), *gens)
    return {
        tuple(int(e) for e in exps): Fraction(int(c.p), int(c.q))
        for exps, c in poly.as_dict().items()
        if c != 0
    }


def sympy_expr(terms: Terms, names: list[str]):
    import sympy

    gens = _symbols(names)
    expr = sympy.Integer(0)
    for exps, coeff in terms.items():
        mono = sympy.Rational(coeff.numerator, coeff.denominator)
        for g, e in zip(gens, exps):
            mono *= g**e
        expr += mono
    return expr


def sympy_parse(text: str, names: list[str]) -> Terms:
    """Coefficient dict of a polynomial printed in polydiff's text syntax."""
    from sympy.parsing.sympy_parser import parse_expr

    local = dict(zip(names, _symbols(names)))
    return sympy_poly_dict(parse_expr(text.replace("^", "**"), local_dict=local), names)


def sympy_mixed_diff(terms: Terms, n: int, r: int) -> Terms:
    """Mixed difference over [x | h_1 | ... | h_r], expanded by sympy."""
    import sympy

    names = [f"x{i + 1}" for i in range(n)]
    for s in range(1, r + 1):
        names += [f"h{s}_{i + 1}" for i in range(n)]
    gens = _symbols(names)
    base = sympy_expr(terms, names[:n])
    xs = gens[:n]
    total = sympy.Integer(0)
    for delta in product((0, 1), repeat=r):
        sub = {
            xs[i]: xs[i] + sum(gens[n * s + i] for s, d in enumerate(delta, start=1) if d)
            for i in range(n)
        }
        total += (-1) ** (r - sum(delta)) * base.xreplace(sub)
    return sympy_poly_dict(total, names)


def sympy_pure_diff(terms: Terms, n: int, r: int) -> Terms:
    """Pure difference over [x | h], expanded by sympy."""
    import sympy

    names = [f"x{i + 1}" for i in range(n)] + [f"h{i + 1}" for i in range(n)]
    gens = _symbols(names)
    base = sympy_expr(terms, names[:n])
    total = sympy.Integer(0)
    for k in range(r + 1):
        sub = {gens[i]: gens[i] + k * gens[n + i] for i in range(n)}
        total += (-1) ** (r - k) * math.comb(r, k) * base.xreplace(sub)
    return sympy_poly_dict(total, names)


# ----- checks that need sympy ------------------------------------------------
#
# Module-level functions, so an operation's check can hand the harness a
# picklable ``functools.partial`` of one; the harness spools them to disk and
# runs them after the timed loop.


def check_printed(texts: list[str], names: list[str], expected: list[Terms], what: str) -> None:
    """Each printed polynomial, read by sympy, has its expected terms."""
    expect([sympy_parse(text, names) for text in texts] == expected, what)


def check_symbolic_diffs(terms: Terms, n: int, mixed: list[Terms], r_mixed: int,
                         pure: list[Terms], r_pure: int) -> None:
    expect(mixed == [sympy_mixed_diff(terms, n, r_mixed)], "symbolic mixed difference")
    expect(pure == [sympy_pure_diff(terms, n, r_pure)], "symbolic pure difference")
