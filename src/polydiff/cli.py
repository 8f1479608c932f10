"""Command-line interface.

Subcommands: eval, diff, components, polarize, degree, positivity, extend,
counterexample, stirling.  The flags --seed, --samples, --json, and --vars
are accepted by every subcommand (after the subcommand name).

Exit codes: 0 success / mathematical pass, 1 mathematical fail with a
witness, 2 usage or parse errors.

JSON reports follow one schema and are byte-identical for a fixed seed:

    {"command": ..., "verdict": "pass"|"fail"|"certified"|"probabilistic",
     "witnesses": [{"points": [[...], ...], "value": [...]}],
     "seed": int, "samples": int, "result": ...}
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .combinatorics import stirling1_unsigned, stirling2
from .components import (
    component_by_scaling,
    components_by_interpolation,
    components_by_stirling,
    degree_search,
    degree_test,
    interpolation_component_polys,
    stirling_component_polys,
)
from .diffcalc import (
    BlackBoxFn,
    DiffReport,
    VERDICT_FAIL,
    VERDICT_PASS,
    Witness,
    block_names,
    mixed_diff_at,
    pure_diff_at,
    symbolic_mixed_diff,
    symbolic_pure_diff,
)
from .errors import (
    ConeDomainError,
    DimensionError,
    ExtensionHypothesisError,
    MissingSampleError,
    NotHomogeneousError,
    ParseError,
    PolydiffError,
)
from .kantorovich import ConeFunction, kantorovich_extend
from .parser import format_poly, parse
from .poly import VectorPoly
from .positivity import (
    counterexample_report,
    is_positive,
    pure_diff_nonneg_check,
)
from .sampling import SamplerConfig
from .tensor import SymTensor, polarize_mo, polarize_signs
from .vectors import Vec, as_rat, vec_str, zero_vec


def _parse_point(text: str) -> Vec:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")] if body else []
    if not parts or any(not p for p in parts):
        raise ValueError(f"cannot parse point {text!r}")
    return tuple(as_rat(p) for p in parts)


def _rat_json(value: Fraction) -> str:
    return str(value)


def _vec_json(vec: Sequence[Fraction]) -> list[str]:
    return [str(v) for v in vec]


def _value_json(vec: Sequence[Fraction]):
    return str(vec[0]) if len(vec) == 1 else _vec_json(vec)


def _witness_json(witness: Witness) -> dict:
    return {"points": [_vec_json(p) for p in witness.points], "value": _vec_json(witness.value)}


def _report_json(command: str, report: DiffReport, result) -> dict:
    return {
        "command": command,
        "verdict": report.verdict,
        "witnesses": [_witness_json(w) for w in report.witnesses],
        "seed": report.seed,
        "samples": report.samples_used,
        "result": result,
    }


def _emit(ns, command: str, report: DiffReport, result, text_lines: list[str]) -> None:
    if ns.json:
        print(json.dumps(_report_json(command, report, result), indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _plain_report(verdict: str, seed: int, samples: int = 0) -> DiffReport:
    return DiffReport(verdict, [], samples, seed)


def _cfg(ns) -> SamplerConfig:
    return SamplerConfig(seed=ns.seed, samples=ns.samples)


def _tensor_mapping(tensor: SymTensor) -> dict:
    out = {}
    for key, vec in tensor.values.items():
        label = ",".join(str(i + 1) for i in key)
        out[label] = _value_json(vec)
    return out


def _parse_expr(ns) -> VectorPoly:
    names = [v.strip() for v in ns.vars.split(",")] if ns.vars else None
    return parse(ns.expr, names)


def _names(ns, nvars: int) -> list[str]:
    if ns.vars:
        return [v.strip() for v in ns.vars.split(",")]
    return [f"x{i + 1}" for i in range(nvars)]


def cmd_eval(ns) -> int:
    poly = _parse_expr(ns)
    point = _parse_point(ns.at)
    if len(point) != poly.nvars:
        raise DimensionError(f"point has {len(point)} entries, polynomial has {poly.nvars} variables")
    value = poly.evaluate(point)
    report = _plain_report(VERDICT_PASS, ns.seed)
    _emit(ns, "eval", report, _value_json(value), [vec_str(value) if len(value) > 1 else str(value[0])])
    return 0


def cmd_diff(ns) -> int:
    poly = _parse_expr(ns)
    n = poly.nvars
    pure = not ns.mixed
    report = _plain_report(VERDICT_PASS, ns.seed)
    if ns.symbolic:
        order = ns.order if ns.order is not None else 1
        sym = symbolic_pure_diff(poly, order) if pure else symbolic_mixed_diff(poly, order)
        names = block_names(n, 1 if pure else order)
        text = format_poly(sym, names)
        _emit(ns, "diff", report, text, [text])
        return 0
    if ns.at is None:
        raise ValueError("numeric differences need --at")
    x = _parse_point(ns.at)
    incs = [_parse_point(t) for t in ns.inc or []]
    f = BlackBoxFn.from_poly(poly)
    if pure:
        if len(incs) != 1:
            raise ValueError("pure differences need exactly one --inc")
        order = ns.order if ns.order is not None else 1
        value = pure_diff_at(f, x, incs[0], order)
    else:
        if not incs:
            raise ValueError("mixed differences need one --inc per increment")
        if ns.order is not None and ns.order != len(incs):
            raise ValueError("--order disagrees with the number of --inc flags")
        value = mixed_diff_at(f, x, incs)
    _emit(ns, "diff", report, _value_json(value), [vec_str(value) if len(value) > 1 else str(value[0])])
    return 0


def cmd_components(ns) -> int:
    poly = _parse_expr(ns)
    m = ns.degree if ns.degree is not None else (poly.degree() or 0)
    names = _names(ns, poly.nvars)
    methods = ["interp", "stirling", "scaling"] if ns.method == "all" else [ns.method]
    result: dict = {}
    lines = []
    if ns.at is not None:
        x = _parse_point(ns.at)
        f = BlackBoxFn.from_poly(poly)
        values: dict[str, list] = {}
        if "interp" in methods:
            values["interp"] = components_by_interpolation(f, m, x)
        if "stirling" in methods:
            values["stirling"] = components_by_stirling(f, m, x)
        if "scaling" in methods:
            values["scaling"] = [component_by_scaling(poly, k).evaluate(x) for k in range(m + 1)]
        for name, vecs in values.items():
            result[name] = [_value_json(v) for v in vecs]
            lines.append(f"{name}: " + "; ".join(vec_str(v) if len(v) > 1 else str(v[0]) for v in vecs))
        agree = len({json.dumps(v) for v in result.values()}) <= 1
    else:
        polys: dict[str, list[VectorPoly]] = {}
        if "interp" in methods:
            polys["interp"] = interpolation_component_polys(poly, m)
        if "stirling" in methods:
            polys["stirling"] = stirling_component_polys(poly, m)
        if "scaling" in methods:
            polys["scaling"] = [component_by_scaling(poly, k) for k in range(m + 1)]
        for name, plist in polys.items():
            result[name] = [format_poly(p, names) for p in plist]
            lines.append(f"{name}: " + "; ".join(result[name]))
        agree = len({json.dumps(v) for v in result.values()}) <= 1
    result["agree"] = agree
    lines.append(f"agree: {str(agree).lower()}")
    report = _plain_report(VERDICT_PASS if agree else VERDICT_FAIL, ns.seed)
    _emit(ns, "components", report, result, lines)
    return 0 if agree else 1


def cmd_polarize(ns) -> int:
    poly = _parse_expr(ns)
    if ns.method == "mo":
        base = _parse_point(ns.base) if ns.base else zero_vec(poly.nvars)
        tensor = polarize_mo(poly, base)
    else:
        tensor = polarize_signs(poly)
    mapping = _tensor_mapping(tensor)
    lines = [f"({key}) -> {value}" for key, value in mapping.items()] or ["zero tensor"]
    _emit(ns, "polarize", _plain_report(VERDICT_PASS, ns.seed), mapping, lines)
    return 0


def cmd_degree(ns) -> int:
    poly = _parse_expr(ns)
    f = BlackBoxFn.from_poly(poly)
    cfg = _cfg(ns)
    if ns.max is not None:
        report = degree_test(f, ns.max, cfg)
        result = {"bound": ns.max, "holds": not report.failed}
        lines = [f"degree <= {ns.max}: {'yes' if not report.failed else 'no'}"]
        for witness in report.witnesses[:1]:
            lines.append(f"witness value: {vec_str(witness.value)}")
        if report.samples_used:
            lines.append(f"seed: {report.seed}")
        _emit(ns, "degree", report, result, lines)
        return 1 if report.failed else 0
    least, report = degree_search(f, ns.cap, cfg)
    result = {"cap": ns.cap, "least_degree": least}
    lines = [f"least degree bound: {least if least is not None else f'none <= {ns.cap}'}"]
    if report.samples_used:
        lines.append(f"seed: {report.seed}")
    _emit(ns, "degree", report, result, lines)
    return 0 if least is not None else 1


def cmd_positivity(ns) -> int:
    poly = _parse_expr(ns)
    cfg = _cfg(ns)
    positive, certificate = is_positive(poly)
    components = [
        {
            "degree": entry.degree,
            "nonneg": entry.nonneg,
            "witness_index": list(entry.witness_index) if entry.witness_index else None,
            "witness_value": _value_json(entry.witness_value) if entry.witness_value else None,
        }
        for entry in certificate.components
    ]
    result: dict = {"positive": positive, "components": components}
    lines = [f"positive: {str(positive).lower()}"]
    failure = certificate.first_failure()
    if failure is not None and failure.witness_index is not None:
        label = ",".join(str(i + 1) for i in failure.witness_index)
        lines.append(f"witness: degree {failure.degree}, index ({label}), value {failure.witness_value[0]}")
    report = _plain_report(VERDICT_PASS if positive else VERDICT_FAIL, ns.seed)
    exit_code = 0 if positive else 1
    if ns.pure_check:
        pure_report = pure_diff_nonneg_check(poly, ns.order, cfg)
        result["pure_check"] = {
            "verdict": pure_report.verdict,
            "witnesses": [_witness_json(w) for w in pure_report.witnesses],
            "samples": pure_report.samples_used,
        }
        lines.append(f"pure cone check (orders 0..{ns.order}): {pure_report.verdict}")
        lines.append(f"seed: {pure_report.seed}")
        if pure_report.failed:
            exit_code = 1
    _emit(ns, "positivity", report, result, lines)
    return exit_code


def cmd_extend(ns) -> int:
    cfg = _cfg(ns)
    if ns.table:
        with open(ns.table, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        table = {
            tuple(as_rat(c) for c in entry["x"]): tuple(as_rat(c) for c in entry["value"])
            for entry in payload["samples"]
        }
        fn = ConeFunction.from_table(int(payload["nvars"]), int(payload["codim"]), table)
        names = [f"x{i + 1}" for i in range(fn.nvars)]
    else:
        if not ns.expr:
            raise ValueError("extend needs an expression or --table")
        poly = _parse_expr(ns)
        fn = ConeFunction.from_poly(poly)
        names = _names(ns, poly.nvars)
    try:
        outcome = kantorovich_extend(fn, ns.degree, cfg)
    except ExtensionHypothesisError as exc:
        witnesses = [exc.witness] if exc.witness is not None else []
        report = DiffReport(VERDICT_FAIL, witnesses, 0, cfg.seed)
        result = {"condition": exc.condition, "message": str(exc)}
        lines = [f"hypothesis violated: condition {exc.condition}", str(exc)]
        if witnesses:
            lines.append(f"witness value: {vec_str(witnesses[0].value)}")
        _emit(ns, "extend", report, result, lines)
        return 1
    text = format_poly(outcome.poly, names)
    result = {
        "polynomial": text,
        "hypothesis": {
            "verdict": outcome.hypothesis_report.verdict,
            "samples": outcome.hypothesis_report.samples_used,
        },
        "agreement": {
            "verdict": outcome.agreement_report.verdict,
            "samples": outcome.agreement_report.samples_used,
        },
    }
    lines = [
        text,
        f"hypotheses: {outcome.hypothesis_report.verdict}",
        f"agreement: {outcome.agreement_report.verdict}",
        f"seed: {cfg.seed}",
    ]
    _emit(ns, "extend", outcome.hypothesis_report, result, lines)
    return 0


def cmd_counterexample(ns) -> int:
    cfg = _cfg(ns)
    data = counterexample_report(cfg)
    checks_json = {
        name: {
            "expected": _check_value(entry["expected"]),
            "actual": _check_value(entry["actual"]),
            "ok": entry["ok"],
        }
        for name, entry in data["checks"].items()
    }
    result = {
        "polynomial": format_poly(data["polynomial"]),
        "checks": checks_json,
        "pure_check": {
            "verdict": data["pure_report"].verdict,
            "samples": data["pure_report"].samples_used,
        },
        "mixed_check": {
            "verdict": data["mixed_report"].verdict,
            "witnesses": [_witness_json(w) for w in data["mixed_report"].witnesses],
            "samples": data["mixed_report"].samples_used,
        },
    }
    verdict = VERDICT_PASS if data["ok"] else VERDICT_FAIL
    samples = data["pure_report"].samples_used + data["mixed_report"].samples_used
    report = DiffReport(verdict, [], samples, cfg.seed)
    lines = [format_poly(data["polynomial"])]
    for name, entry in data["checks"].items():
        lines.append(f"{name}: {'ok' if entry['ok'] else 'MISMATCH'}")
    lines.append(f"suite: {'confirmed' if data['ok'] else 'FAILED'} (seed {cfg.seed})")
    _emit(ns, "counterexample", report, result, lines)
    return 0 if data["ok"] else 1


def _check_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_check_value(v) for v in value]
    return value


def cmd_stirling(ns) -> int:
    if ns.kind == 1:
        value = stirling1_unsigned(ns.j, ns.n)
    else:
        value = stirling2(ns.j, ns.n)
    _emit(ns, "stirling", _plain_report(VERDICT_PASS, ns.seed), str(value), [str(value)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomized checks")
    common.add_argument("--samples", type=int, default=64, help="sample count for randomized checks")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--vars", default=None, help="comma-separated variable names")

    top = argparse.ArgumentParser(prog="polydiff", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a polynomial at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True, help="evaluation point, e.g. '1,2' or '[1,2]'")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("diff", parents=[common], help="forward differences, numeric or symbolic")
    p.add_argument("expr")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pure", action="store_true", help="repeat one increment (default)")
    group.add_argument("--mixed", action="store_true", help="distinct increments")
    p.add_argument("--order", type=int, default=None, help="difference order r")
    p.add_argument("--symbolic", action="store_true", help="return the difference as a polynomial")
    p.add_argument("--at", default=None, help="base point for numeric differences")
    p.add_argument("--inc", action="append", help="increment vector (repeat for mixed)")
    p.set_defaults(handler=cmd_diff)

    p = sub.add_parser("components", parents=[common], help="homogeneous components")
    p.add_argument("expr")
    p.add_argument("--method", choices=["interp", "stirling", "scaling", "all"], default="all")
    p.add_argument("--degree", type=int, default=None, help="degree bound m (default: deg P)")
    p.add_argument("--at", default=None, help="evaluate components at this point")
    p.set_defaults(handler=cmd_components)

    p = sub.add_parser("polarize", parents=[common], help="symmetric form of a homogeneous polynomial")
    p.add_argument("expr")
    p.add_argument("--method", choices=["signs", "mo"], default="signs")
    p.add_argument("--base", default=None, help="base point for the vertex-sum method")
    p.set_defaults(handler=cmd_polarize)

    p = sub.add_parser("degree", parents=[common], help="polynomial degree-bound test")
    p.add_argument("expr")
    p.add_argument("--max", type=int, default=None, help="test this bound; omit to search")
    p.add_argument("--cap", type=int, default=8, help="search cap when --max is omitted")
    p.set_defaults(handler=cmd_degree)

    p = sub.add_parser("positivity", parents=[common], help="positivity of a polynomial")
    p.add_argument("expr")
    p.add_argument("--pure-check", action="store_true", dest="pure_check",
                   help="also run the pure-difference cone check")
    p.add_argument("--order", type=int, default=2, help="max order for --pure-check")
    p.set_defaults(handler=cmd_positivity)

    p = sub.add_parser("extend", parents=[common], help="positive polynomial extension from the cone")
    p.add_argument("expr", nargs="?", default=None, help="polynomial, read as its cone restriction")
    p.add_argument("--table", default=None, help="JSON file of tabulated cone samples")
    p.add_argument("--degree", type=int, required=True, help="degree bound m")
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("counterexample", parents=[common],
                       help="verify the packaged non-positive cubic suite")
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("stirling", parents=[common], help="Stirling numbers")
    p.add_argument("--kind", type=int, choices=[1, 2], required=True)
    p.add_argument("j", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=cmd_stirling)

    return top


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.handler(ns)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, NotHomogeneousError, ConeDomainError, MissingSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExtensionHypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 1
    except PolydiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
