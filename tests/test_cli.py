"""Command-line surface: subcommands, exit codes, JSON determinism."""

import json

from polydiff.cli import run
from polydiff.diffcalc import SYMBOLIC_TERM_LIMIT


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stirling_subcommand(capsys):
    code, out, _ = invoke(capsys, "stirling", "--kind", "2", "3", "2")
    assert code == 0
    assert out.strip() == "3"
    code, out, _ = invoke(capsys, "stirling", "--kind", "1", "4", "2")
    assert code == 0
    assert out.strip() == "11"


def test_stirling_subcommand_large_index(capsys):
    code, out, _ = invoke(capsys, "stirling", "--kind", "2", "1200", "3")
    assert code == 0
    assert int(out) == (3**1200 - 3 * 2**1200 + 3) // 6


def test_eval_subcommand(capsys):
    code, out, _ = invoke(capsys, "eval", "x1^2*x2", "--at", "2,3")
    assert code == 0
    assert out.strip() == "12"
    code, out, _ = invoke(capsys, "eval", "[x1, x1 + x2]", "--at", "[1, 1/2]")
    assert code == 0
    assert out.strip() == "[1, 3/2]"


def test_eval_dimension_error_is_usage(capsys):
    code, _, err = invoke(capsys, "eval", "x1*x2", "--at", "1")
    assert code == 2
    assert "error" in err


def test_diff_numeric_and_symbolic(capsys):
    code, out, _ = invoke(capsys, "diff", "x^2", "--pure", "--order", "2", "--at", "0", "--inc", "1")
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = invoke(
        capsys, "diff", "x1*x2", "--mixed", "--at", "0,0", "--inc", "1,0", "--inc", "0,1"
    )
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = invoke(capsys, "diff", "x1*x2", "--mixed", "--symbolic", "--order", "1")
    assert code == 0
    assert out.strip() == "x1*h1_2 + x2*h1_1 + h1_1*h1_2"


def test_components_all_methods_agree(capsys):
    code, out, _ = invoke(capsys, "components", "--method", "all", "x^2 + x")
    assert code == 0
    lines = out.strip().splitlines()
    bodies = {line.split(": ", 1)[1] for line in lines[:3]}
    assert bodies == {"0; x1; x1^2"}
    assert lines[3] == "agree: true"


def test_components_at_point_json(capsys):
    code, out, _ = invoke(
        capsys, "components", "x^2 + x", "--at", "2", "--method", "all", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["interp"] == ["0", "2", "4"]
    assert payload["result"]["agree"] is True


def test_polarize_json_mapping(capsys):
    code, out, _ = invoke(capsys, "polarize", "x1*x2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"1,2": "1/2"}
    code, out, _ = invoke(capsys, "polarize", "x1*x2", "--method", "mo", "--base", "7,-3")
    assert code == 0
    assert out.strip() == "(1,2) -> 1/2"


def test_polarize_rejects_inhomogeneous(capsys):
    code, _, err = invoke(capsys, "polarize", "x^2 + x")
    assert code == 2
    assert "homogeneous" in err


def test_degree_bound_fail_and_search(capsys):
    code, out, _ = invoke(capsys, "degree", "--max", "2", "x^3", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["witnesses"]
    code, out, _ = invoke(capsys, "degree", "x^3")
    assert code == 0
    assert "3" in out


def test_degree_on_eight_variables_answers_with_witness(capsys):
    code, out, _ = invoke(capsys, "degree", "x1^2*x2*x3*x4*x5*x6*x7*x8", "--max", "1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["witnesses"] == [{"points": [["0"] * 8, ["1"] * 8, ["1"] * 8], "value": ["510"]}]


def test_degree_rejects_an_oversized_symbolic_expansion(capsys):
    expr = "*".join(["x1^2"] + [f"x{i}" for i in range(2, 21)])
    code, out, err = invoke(capsys, "degree", expr, "--max", "1", "--json")
    assert code == 2
    assert out == ""
    assert f"up to {3 * 2**19} terms, above the limit of {SYMBOLIC_TERM_LIMIT}" in err


def test_diff_rejects_an_oversized_symbolic_mixed_expansion(capsys):
    code, out, err = invoke(capsys, "diff", "x1^4*x2^4*x3^4", "--symbolic", "--mixed", "--order", "5")
    assert code == 2
    assert out == ""
    assert f"mixed difference would expand to up to {126**3} terms, above the limit of {SYMBOLIC_TERM_LIMIT}" in err


def test_positivity_samples_count_only_the_pure_check(capsys):
    argv = ["positivity", "x1^2-x1*x2+x2^2", "--json", "--seed", "3", "--pure-check", "--order", "3"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["samples"] == 0  # the verdict is read off the coefficients
    assert payload["result"]["pure_check"]["samples"] == 1467


def test_positivity_exit_codes(capsys):
    code, out, _ = invoke(capsys, "positivity", "x1*x2 + x1")
    assert code == 0
    assert "positive: true" in out
    cubic = (
        "x1^3 + x2^3 + x3^3 + 3*x1^2*(x2+x3) + 3*x2^2*(x1+x3) "
        "+ 3*x3^2*(x1+x2) - 6*x1*x2*x3"
    )
    code, out, _ = invoke(capsys, "positivity", cubic)
    assert code == 1
    assert "positive: false" in out
    assert "(1,2,3)" in out
    code, out, _ = invoke(capsys, "positivity", "x^2", "--pure-check", "--order", "2")
    assert code == 0
    assert "certified" in out


def test_extend_round_trip_and_rejection(capsys):
    code, out, _ = invoke(capsys, "extend", "x1*x2", "--degree", "2")
    assert code == 0
    assert out.splitlines()[0] == "x1*x2"
    code, out, _ = invoke(capsys, "extend", "(x1-x2)^2", "--degree", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["result"]["condition"] == "(ii)"
    assert payload["witnesses"][0]["value"] == ["-2"]


def test_extend_from_table(tmp_path, capsys):
    from polydiff.kantorovich import table_grid_points
    from polydiff.parser import parse

    poly = parse("x1*x2")
    samples = [
        {"x": [str(c) for c in pt], "value": [str(v) for v in poly.evaluate(pt)]}
        for pt in table_grid_points(2, 2)
    ]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"nvars": 2, "codim": 1, "samples": samples}))
    code, out, _ = invoke(capsys, "extend", "--table", str(path), "--degree", "2")
    assert code == 0
    assert out.splitlines()[0] == "x1*x2"

    trimmed = [s for s in samples if s["x"] != ["2", "2"]]
    path.write_text(json.dumps({"nvars": 2, "codim": 1, "samples": trimmed}))
    code, _, err = invoke(capsys, "extend", "--table", str(path), "--degree", "2")
    assert code == 2
    assert "no tabulated value" in err


def test_counterexample_json(capsys):
    code, out, _ = invoke(capsys, "counterexample", "--json", "--samples", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    checks = payload["result"]["checks"]
    assert checks["is_positive"]["actual"] is False
    assert checks["mixed_diff_origin_basis"]["actual"] == ["-6"]
    assert payload["result"]["pure_check"]["verdict"] == "probabilistic"


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "eval", "x1 +", "--at", "1")
    assert code == 2
    assert "parse error" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = invoke(capsys, "degree")  # missing expression
    assert code == 2
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2


def test_json_reports_are_deterministic(capsys):
    args = ["counterexample", "--json", "--seed", "7", "--samples", "16"]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args = ["degree", "--max", "2", "x^3", "--json", "--seed", "3"]
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2
