"""The benchmark's three workloads: seeded inputs, operations and their oracles.

Every input is drawn here from ``random.Random(seed)``; the library receives
only the finished polynomials, points and configs.  A workload is an optional
prelude of fixed baseline operations followed by rounds.  Each round has a
fixed composition of operation kinds, and only the random coefficients,
exponents and seeds change between rounds and seeds.  The composition puts
the median and the 90th percentile inside groups of operations of similar
cost, so the percentiles do not jump between groups from one seed to the
next.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from random import Random
from typing import Callable

from polydiff import cli, components, diffcalc, errors, kantorovich, parser, poly, positivity, sampling, tensor

import oracle
from oracle import expect

WITNESS_CHECK_CAP = 32


@dataclass
class Op:
    """One closed-loop operation: ``call()`` is timed, ``check(output)`` is not.

    ``check`` raises ``oracle.Mismatch``, or returns the part of the check
    that needs sympy as a picklable ``functools.partial`` of an ``oracle``
    function, which the harness spools to disk and runs after the timed loop.
    ``inputs`` is a printable record of the generated inputs.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], partial | None]
    inputs: str


# ----- input generation ------------------------------------------------------


def _coeff(rng: Random, nonneg: bool, den: int = 4) -> Fraction:
    num = rng.randint(1, 9) if nonneg else rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, den))


def _monomial(rng: Random, n: int, deg: int) -> tuple[int, ...]:
    exps = [0] * n
    for _ in range(deg):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _terms(rng: Random, n: int, degrees, count: int, nonneg: bool, top: int | None = None,
           exclude=()) -> oracle.Terms:
    """``count`` distinct monomials with total degree drawn from ``degrees``.

    With ``top`` one monomial of exactly that degree is included.
    """
    terms: oracle.Terms = {}
    if top is not None:
        terms[_monomial(rng, n, top)] = _coeff(rng, nonneg)
    while len(terms) < count:
        exps = _monomial(rng, n, rng.choice(degrees))
        if exps not in terms and exps not in exclude:
            terms[exps] = _coeff(rng, nonneg)
    return terms


def _form(rng: Random, n: int, k: int, count: int, negative: int | None = None) -> oracle.Terms:
    """Homogeneous form with integer coefficients.

    ``negative=None`` draws signs at random; otherwise exactly that many
    coefficients are negative.
    """
    monos = [tuple(key.count(i) for i in range(n)) for key in combinations_with_replacement(range(n), k)]
    chosen = rng.sample(monos, count)
    out = {}
    for idx, exps in enumerate(chosen):
        mag = rng.randint(1, 9)
        if negative is None:
            sign = rng.choice((-1, 1))
        else:
            sign = -1 if idx < negative else 1
        out[exps] = Fraction(sign * mag)
    return out


def _vpoly(coords: list[oracle.Terms], n: int) -> poly.VectorPoly:
    return poly.VectorPoly(tuple(poly.ScalarPoly(n, t) for t in coords))


def _cfg(rng: Random, samples: int = 16) -> sampling.SamplerConfig:
    return sampling.SamplerConfig(seed=rng.randrange(1 << 30), samples=samples)


def _names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def format_terms(terms: oracle.Terms, names: list[str]) -> str:
    """Plain text for the CLI, written independently of polydiff's printer."""
    text = ""
    for exps, coeff in terms.items():
        factors = [str(abs(coeff)) if coeff.denominator == 1 else f"({abs(coeff)})"]
        factors += [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        sign = "-" if coeff < 0 else "+"
        text += f" {sign} " + "*".join(factors) if text else ("-" if coeff < 0 else "") + "*".join(factors)
    return text or "0"


# ----- shared checks ---------------------------------------------------------


def _sampled_witnesses(witnesses) -> list:
    """First, last and evenly spaced witnesses, at most WITNESS_CHECK_CAP."""
    if len(witnesses) <= WITNESS_CHECK_CAP:
        return list(witnesses)
    step = (len(witnesses) - 1) / (WITNESS_CHECK_CAP - 1)
    return [witnesses[round(i * step)] for i in range(WITNESS_CHECK_CAP)]


def _check_sorted(witnesses) -> None:
    keys = [w.sort_key() for w in witnesses]
    expect(keys == sorted(keys), "witnesses are not sorted")


def _check_pure_witnesses(coords, report) -> None:
    _check_sorted(report.witnesses)
    for w in _sampled_witnesses(report.witnesses):
        x, hs = w.points[0], w.points[1:]
        expect(all(h == hs[0] for h in hs), "pure witness with distinct increments")
        expect(all(v >= 0 for p in w.points for v in p), "witness point outside the cone")
        value = oracle.pure_diff(coords, x, hs[0], len(hs)) if hs else oracle.evaluate_vec(coords, x)
        expect(tuple(w.value) == value, f"pure witness value {w.value} != {value}")
        expect(any(c < 0 for c in value), "pure witness is not negative")


def _check_mixed_witnesses(coords, report) -> None:
    _check_sorted(report.witnesses)
    for w in _sampled_witnesses(report.witnesses):
        value = oracle.mixed_diff(coords, w.points[0], w.points[1:])
        expect(all(v >= 0 for p in w.points for v in p), "witness point outside the cone")
        expect(tuple(w.value) == value, f"mixed witness value {w.value} != {value}")
        expect(any(c < 0 for c in value), "mixed witness is not negative")


def _check_same_poly(got, coords: list[oracle.Terms], what: str) -> None:
    expect(oracle.lib_terms(got) == coords, f"{what}: {got!r} != {coords!r}")


# ----- cone_sampling ---------------------------------------------------------

CUBIC = {
    (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (2, 1, 0): 3, (2, 0, 1): 3,
    (1, 2, 0): 3, (0, 2, 1): 3, (1, 0, 2): 3, (0, 1, 2): 3, (1, 1, 1): -6,
}


def _counterexample_op(seed: int) -> Op:
    cfg = sampling.SamplerConfig(seed=seed, samples=16)

    def check(report) -> None:
        expect(report["ok"], "counterexample suite reports a failed check")
        expect(oracle.lib_terms(report["polynomial"]) == [{e: Fraction(c) for e, c in CUBIC.items()}],
               "packaged cubic differs from the hand-written one")
        facts = {
            "coefficient_x1x2x3": Fraction(-6),
            "value_at_1_1_1": Fraction(15),
            "value_at_1_1_0": Fraction(8),
            "is_positive": False,
            "tensor_witness_index": (1, 2, 3),
            "tensor_witness_value": (Fraction(-1),),
            "mixed_diff_origin_basis": (Fraction(-6),),
            "pure_cone_check_verdict": "probabilistic",
            "mixed_cone_check_verdict": "fail",
            "mixed_witness_minus_6": True,
            "positive_on_sampled_cone_lines": True,
        }
        for name, value in facts.items():
            expect(report["checks"][name]["actual"] == value, f"cubic fact {name}")
        expect(not report["pure_report"].witnesses, "pure check of the cubic found a witness")
        _check_mixed_witnesses([dict(CUBIC)], report["mixed_report"])

    return Op("counterexample_suite", lambda: positivity.counterexample_report(cfg), check, repr(cfg))


def _pure_certified_op(rng: Random, n: int) -> Op:
    coords = [_terms(rng, n, (1, 2, 3), 4, nonneg=True, top=3)]
    p, cfg = _vpoly(coords, n), _cfg(rng)

    def check(report) -> None:
        # nonnegative coefficients give nonnegative coefficients in every difference
        expect(report.verdict == "certified" and not report.witnesses, f"verdict {report.verdict}")

    return Op("pure_check.certified", lambda: positivity.pure_diff_nonneg_check(p, 3, cfg), check,
              repr((coords, cfg)))


def _pure_sampled_op(rng: Random) -> Op:
    terms = _terms(rng, 2, (1, 2, 3), 3, nonneg=True, top=3, exclude={(1, 1)})
    terms[(1, 1)] = -_coeff(rng, nonneg=True)  # negative coefficient: no certificate at order 0
    coords = [terms]
    p, cfg = _vpoly(coords, 2), _cfg(rng)

    def check(report) -> None:
        expect(report.verdict in ("fail", "probabilistic"), f"verdict {report.verdict}")
        expect((report.verdict == "fail") == bool(report.witnesses), "verdict disagrees with witnesses")
        _check_pure_witnesses(coords, report)

    return Op("pure_check.sampled", lambda: positivity.pure_diff_nonneg_check(p, 3, cfg), check,
              repr((coords, cfg)))


def _mixed_positive_op(rng: Random, n: int) -> Op:
    coords = [_terms(rng, n, (1, 2, 3), 4, nonneg=True, top=3)]
    p, cfg = _vpoly(coords, n), _cfg(rng)

    def check(report) -> None:
        # a positive polynomial has nonnegative mixed differences on the cone
        expect(report.verdict == "pass" and not report.witnesses, f"verdict {report.verdict}")

    return Op("mixed_check.positive", lambda: positivity.mixed_diff_nonneg_sample(p, 3, cfg), check,
              repr((coords, cfg)))


def _mixed_negative_op(rng: Random, n: int) -> Op:
    terms = _form(rng, n, 3, 4, negative=1)
    coords = [terms]
    neg_exps = next(e for e, c in terms.items() if c < 0)
    p, cfg = _vpoly(coords, n), _cfg(rng)
    origin = (Fraction(0),) * n
    basis = [tuple(Fraction(int(j == i)) for j in range(n)) for i in oracle.tensor_key(neg_exps)]
    # Delta^3 P(0; e_i, e_j, e_k) = 3! A(e_i, e_j, e_k) = coeff * prod(e!) for a cubic form
    expected = (terms[neg_exps] * math.prod(math.factorial(e) for e in neg_exps),)

    def check(report) -> None:
        expect(report.verdict == "fail", f"verdict {report.verdict}")
        expect(any(w.points == (origin, *basis) and tuple(w.value) == expected for w in report.witnesses),
               "basis witness at the origin missing")
        _check_mixed_witnesses(coords, report)

    return Op("mixed_check.negative", lambda: positivity.mixed_diff_nonneg_sample(p, 3, cfg), check,
              repr((coords, cfg)))


def cone_sampling_round(rng: Random) -> list[Op]:
    return [
        _pure_certified_op(rng, 2),
        _mixed_positive_op(rng, 2),
        _pure_sampled_op(rng),
        _pure_certified_op(rng, 3),
        _mixed_negative_op(rng, 2),
        _pure_certified_op(rng, 2),
        _mixed_positive_op(rng, 3),
        _pure_sampled_op(rng),
        _pure_certified_op(rng, 3),
        _mixed_negative_op(rng, 3),
    ]


# ----- extension -------------------------------------------------------------


def _extend_poly_op(rng: Random, n: int, m: int, codim: int) -> Op:
    count = min(4, math.comb(n + m, n))
    coords = [_terms(rng, n, range(m + 1), count, nonneg=True, top=m) for _ in range(codim)]
    q, cfg = _vpoly(coords, n), _cfg(rng)

    def call():
        return kantorovich.kantorovich_extend(kantorovich.ConeFunction.from_poly(q), m, cfg)

    def check(result) -> None:
        _check_same_poly(result.poly, coords, "extension")
        expect(result.hypothesis_report.verdict == "pass", "hypotheses not exact")
        expect(result.agreement_report.verdict == "pass", "agreement not exact")

    return Op(f"extend.poly.n{n}m{m}", call, check, repr((coords, cfg)))


def _extend_table_op(rng: Random, n: int, m: int) -> Op:
    count = min(3, math.comb(n + m, n))
    coords = [_terms(rng, n, range(m + 1), count, nonneg=True, top=m)]
    top = m * (m + 1)
    table = {pt: oracle.evaluate_vec(coords, pt) for pt in product(range(top + 1), repeat=n)}
    cfg = _cfg(rng, samples=8)

    def call():
        return kantorovich.kantorovich_extend(kantorovich.ConeFunction.from_table(n, 1, table), m, cfg)

    def check(result) -> None:
        _check_same_poly(result.poly, coords, "table extension")
        expect(result.hypothesis_report.verdict == "probabilistic", "table hypotheses verdict")
        expect(result.agreement_report.verdict == "probabilistic", "table agreement verdict")

    return Op(f"extend.table.n{n}m{m}", call, check, repr((coords, cfg)))


def _extend_control_op(rng: Random, which: str) -> Op:
    cfg = _cfg(rng)
    if which == "square":  # (x1 - x2)^2 is not positive: condition (ii)
        coords, n = [{(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}], 2
        condition = "(ii)"
        points = ((Fraction(0),) * 2, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        value = (Fraction(-2),)
    else:  # t^3 at bound 2: order-3 differences do not vanish, condition (i)
        coords, n = [{(3,): Fraction(1)}], 1
        condition = "(i)"
        points = ((Fraction(0),), (Fraction(1),), (Fraction(1),), (Fraction(1),))
        value = (Fraction(6),)
    q = _vpoly(coords, n)

    def call():
        try:
            kantorovich.kantorovich_extend(kantorovich.ConeFunction.from_poly(q), 2, cfg)
        except errors.ExtensionHypothesisError as exc:
            return exc
        return None

    def check(exc) -> None:
        expect(exc is not None, "control was not rejected")
        expect(exc.condition == condition, f"condition {exc.condition}")
        expect(exc.witness.points == points and exc.witness.value == value, f"witness {exc.witness}")

    return Op(f"extend.control.{which}", call, check, repr(cfg))


def _vars(n: int) -> list[str]:
    return ["--vars", ",".join(_names(n))]


def _expect_exit(out, code: int) -> dict:
    rc, doc = out
    expect(rc == code, f"exit code {rc}, expected {code}")
    return doc


def _extend_cli_op(rng: Random, which: str) -> Op:
    """``polydiff extend`` run in-process: parse, extend, print, JSON."""
    if which == "x1x2":  # the command as in the acceptance criteria
        argv = ["extend", "x1*x2", "--degree", "2", "--json", "--seed", "13"]
        coords = [{(1, 1): Fraction(1)}]
    else:
        coords = [_terms(rng, 2, range(3), 3, nonneg=True, top=2)]
        argv = ["extend", format_terms(coords[0], _names(2)), "--degree", "2", "--json",
                "--seed", str(rng.randrange(1000)), *_vars(2)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, json.loads(out.getvalue())

    def check(out):
        result = _expect_exit(out, 0)["result"]
        expect(result["hypothesis"]["verdict"] == "pass", "extension hypotheses")
        return partial(oracle.check_printed, [result["polynomial"]], _names(2), coords, "extension polynomial")

    return Op(f"extend.cli.{which}", call, check, " ".join(argv))


def extension_round(rng: Random) -> list[Op]:
    return [
        _extend_cli_op(rng, "x1x2"),
        _extend_control_op(rng, "square"),
        _extend_poly_op(rng, 1, 3, 1),
        _extend_table_op(rng, 1, 2),
        _extend_poly_op(rng, 3, 4, 1),
        _extend_poly_op(rng, 1, 4, 1),
        _extend_poly_op(rng, 2, 2, 2),
        _extend_table_op(rng, 2, 2),
        _extend_poly_op(rng, 2, 3, 1),
        _extend_poly_op(rng, 3, 4, 1),
        _extend_poly_op(rng, 1, 4, 2),
        _extend_control_op(rng, "cube"),
        _extend_poly_op(rng, 2, 3, 2),
        _extend_table_op(rng, 1, 3),
        _extend_poly_op(rng, 3, 4, 1),
        _extend_poly_op(rng, 2, 4, 1),
        _extend_cli_op(rng, "poly"),
        _extend_poly_op(rng, 3, 2, 1),
        _extend_table_op(rng, 2, 3),
        _extend_poly_op(rng, 3, 2, 2),
        _extend_poly_op(rng, 3, 4, 1),
        _extend_poly_op(rng, 3, 3, 1),
    ]


# ----- symbolic --------------------------------------------------------------


def _is_positive_op(rng: Random, n: int, k: int) -> Op:
    terms = _form(rng, n, k, 4)
    p = _vpoly([terms], n)

    def check(out) -> None:
        positive, cert = out
        values = oracle.tensor_values(terms)
        bad = [key for key, v in values.items() if v < 0]
        expect(positive == (not bad), "positivity verdict")
        failure = cert.first_failure()
        if bad:
            expect(failure.degree == k and failure.witness_index == bad[0], "witness index")
            expect(failure.witness_value == (values[bad[0]],), "witness value")
        else:
            expect(failure is None, "failure reported for a positive form")

    return Op(f"is_positive.n{n}k{k}", lambda: positivity.is_positive(p), check, repr(terms))


def _polarize_op(rng: Random, n: int, k: int) -> Op:
    terms = _form(rng, n, k, 4)
    p = _vpoly([terms], n)
    base = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))

    def call():
        signs = tensor.polarize_signs(p)
        return signs, tensor.polarize_mo(p, base), tensor.tensor_to_poly(signs)

    def check(out) -> None:
        signs, mo, back = out
        expected = {key: (v,) for key, v in oracle.tensor_values(terms).items()}
        expect(signs.values == expected, "polarize_signs values")
        expect(mo == signs, "polarize_mo != polarize_signs")
        _check_same_poly(back, [terms], "tensor_to_poly")

    return Op(f"polarize.n{n}k{k}", call, check, repr((terms, base)))


def _components_op(rng: Random, n: int, m: int) -> Op:
    coords = [_terms(rng, n, range(m + 1), 5, nonneg=False, top=m)]
    p = _vpoly(coords, n)

    def call():
        return (
            components.interpolation_component_polys(p, m),
            components.stirling_component_polys(p, m),
            [components.component_by_scaling(p, k) for k in range(m + 1)],
        )

    def check(out) -> None:
        expected = oracle.split(coords, m)
        for route, parts in zip(("interpolation", "stirling", "scaling"), out):
            expect([oracle.lib_terms(q) for q in parts] == expected, f"{route} components")

    return Op(f"components.n{n}m{m}", call, check, repr(coords))


def _degree_search_op(rng: Random, n: int, m: int) -> Op:
    coords = [_terms(rng, n, range(m + 1), 5, nonneg=False, top=m)]
    p = _vpoly(coords, n)

    def call():
        return components.degree_search(diffcalc.BlackBoxFn.from_poly(p), 8)

    def check(out) -> None:
        least, report = out
        expect(least == oracle.degree(coords), f"least degree {least}")
        expect(report.verdict == "pass", f"verdict {report.verdict}")

    return Op(f"degree_search.n{n}m{m}", call, check, repr(coords))


def _degree_family_op(rng: Random, n: int) -> Op:
    """c * x_a^2 * (product of the other variables), in a seeded variable order."""
    order = list(range(n))
    rng.shuffle(order)
    exps = [1] * n
    exps[order[0]] = 2
    coords = [{tuple(exps): _coeff(rng, nonneg=False)}]
    p = _vpoly(coords, n)

    def call():
        return components.degree_test(diffcalc.BlackBoxFn.from_poly(p), 1)

    def check(report) -> None:
        expect(report.verdict == "fail" and len(report.witnesses) == 1, f"verdict {report.verdict}")
        w = report.witnesses[0]
        expect(len(w.points) == 3 and w.points[1] == w.points[2], "witness shape")
        value = oracle.pure_diff(coords, w.points[0], w.points[1], 2)
        expect(tuple(w.value) == value and any(value), f"witness value {w.value} != {value}")

    return Op(f"degree_test.family.n{n}", call, check, repr(coords))


def _symbolic_diff_op(rng: Random, n: int, m: int) -> Op:
    coords = [_terms(rng, n, range(m + 1), 4, nonneg=False, top=m)]
    p = _vpoly(coords, n)

    def call():
        return diffcalc.symbolic_mixed_diff(p, 2), diffcalc.symbolic_pure_diff(p, 3)

    def check(out):
        mixed, pure = (oracle.lib_terms(q) for q in out)
        return partial(oracle.check_symbolic_diffs, coords[0], n, mixed, 2, pure, 3)

    return Op(f"symbolic_diff.n{n}m{m}", call, check, repr(coords))


def _parse_op(rng: Random, n: int, m: int) -> Op:
    coords = [_terms(rng, n, range(m + 1), 5, nonneg=False, top=m) for _ in range(2)]
    p = _vpoly(coords, n)
    names = _names(n)

    def call():
        text = parser.format_poly(p, names)
        return text, parser.parse(text, names)

    def check(out):
        text, back = out
        _check_same_poly(back, coords, "parse(format_poly(p))")
        expect(text.startswith("[") and text.endswith("]"), "vector text")
        return partial(oracle.check_printed, text[1:-1].split(","), names, coords,
                       "printed text disagrees with sympy")

    return Op(f"parse_roundtrip.n{n}m{m}", call, check, repr(coords))


def symbolic_prelude(rng: Random) -> list[Op]:
    return [_is_positive_op(rng, 6, 5), _is_positive_op(rng, 5, 5)]


def symbolic_round(rng: Random) -> list[Op]:
    return [
        _is_positive_op(rng, 5, 4),
        _parse_op(rng, 3, 4),
        _degree_search_op(rng, 2, 4),
        _polarize_op(rng, 3, 4),
        _degree_family_op(rng, 3),
        _components_op(rng, 3, 4),
        _degree_family_op(rng, 5),
        _symbolic_diff_op(rng, 3, 3),
        _is_positive_op(rng, 4, 4),
        _degree_family_op(rng, 4),
        _symbolic_diff_op(rng, 2, 4),
        _is_positive_op(rng, 3, 3),
    ]


# ----- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prelude: Callable[[Random], list[Op]]
    round: Callable[[Random], list[Op]]
    trace_rounds: int  # rounds after the prelude in the fixed traced batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cone_sampling", lambda rng: [_counterexample_op(rng.randrange(1 << 30))], cone_sampling_round, 3),
        Workload("extension", lambda rng: [], extension_round, 3),
        Workload("symbolic", symbolic_prelude, symbolic_round, 2),
    )
}


def input_fingerprint(workload: str, seed: int, rounds: int = 2) -> list[str]:
    """Names and generated inputs of the first operations, for checking seed dependence."""
    w = WORKLOADS[workload]
    rng = Random(seed)
    ops = w.prelude(rng) + [op for _ in range(rounds) for op in w.round(rng)]
    return [f"{op.name} {op.inputs}" for op in ops]
