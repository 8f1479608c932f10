"""Golden stdout: fixed-seed CLI reports must match the recorded bytes exactly.

The files under ``tests/golden/`` hold the stdout of ``python -m polydiff``
for the criterion-10 commands of the acceptance gate plus a failing pure
check with many witnesses, recorded before the numeric differences moved to
the integer ray kernel, and one symbolic pure and one symbolic mixed
difference, recorded before the symbolic differences were read off the
coefficients.  Criterion 10 only compares two runs of the same code; this
test pins the bytes across changes to the code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code)
CASES = {
    "counterexample": (["counterexample", "--json", "--seed", "11", "--samples", "16"], 0),
    "degree": (["degree", "--max", "2", "x^3", "--json", "--seed", "5"], 1),
    "positivity": (["positivity", "x1*x2 + x1", "--json", "--seed", "5", "--pure-check", "--order", "2"], 0),
    "extend": (["extend", "x1*x2", "--degree", "2", "--json", "--seed", "13"], 0),
    "polarize": (["polarize", "x1^2*x2", "--json"], 0),
    "diff_symbolic_pure": (["diff", "x1^3*x2 - (1/2)*x1*x2^2 + 3", "--symbolic", "--order", "3", "--json"], 0),
    "diff_symbolic_mixed": (
        ["diff", "x1^2*x2 - (1/3)*x2^3 + x1", "--symbolic", "--mixed", "--order", "2", "--json"],
        0,
    ),
    "positivity_pure_fail": (
        ["positivity", "x1^2-x1*x2+x2^2", "--json", "--seed", "3", "--pure-check", "--order", "3"],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    argv, code = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "polydiff", *argv], capture_output=True, check=False, env=env
    )
    assert run.returncode == code, run.stderr
    assert run.stdout == (GOLDEN / f"{name}.json").read_bytes()
