#!/usr/bin/env python3
"""polydiff benchmark: one seeded closed-loop workload, measured end to end.

    python3 bench/run.py --workload cone_sampling --seed 1 --seconds 25 --trace 0

Run from the repository root or anywhere else: the harness imports the
repository's own ``src/polydiff`` (and spawns it for the set-up probes) and
refuses to run against any other copy.  One client runs one operation at a time (a closed loop): first the
workload's prelude of fixed baseline operations, then whole rounds until
``--seconds`` have passed and at least MIN_OPS operations ran.  Every output
is checked against an independent oracle outside the timed operations.
Reported times are calibrated against a reference kernel (see below).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
batch (the prelude plus a fixed number of rounds) once untraced and once
with the layer tracer installed, and reports the per-layer metrics (raw,
uncalibrated times; counts that repeat exactly for a seed).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Run records and span files are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import NoReturn

from oracle import Mismatch
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5  # before and again after the timed loop
MIN_OPS = 100  # so at least ten operations lie beyond p90
IMPORT_PROBES = 5
WORKLOAD_NAMES = ("cone_sampling", "extension", "symbolic")


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_library() -> None:
    """Import polydiff from this repository's src/ and nowhere else."""
    if not (SRC / "polydiff" / "__init__.py").is_file():
        fail(f"no polydiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polydiff

    if Path(polydiff.__file__).resolve().parent != (SRC / "polydiff").resolve():
        fail(f"polydiff resolved to {polydiff.__file__}, not {SRC / 'polydiff'}")


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "library": str(SRC / "polydiff"),
    }


# ----- calibration ---------------------------------------------------------
#
# On a shared host the CPU's speed drifts by up to a third for minutes at a
# time, longer than a run.  Reported times are therefore calibrated:
# multiplied by REF_NOMINAL_S over the time the reference kernel takes at
# that moment (before and after the operation's batch), which gives the
# time the work would take at the nominal speed.  The kernel shares no code
# with polydiff, so a change to the library moves calibrated times as it
# moves raw ones.  Raw values are printed and kept in the run record.
# Set-up probes get one factor per run, from the kernel timed before each
# probe: raw, their medians moved by up to a quarter between sets of runs;
# calibrated, by under a tenth.  Calibration corrects a slower CPU, not a
# shared one: run nothing else on the pinned CPU while measuring.

REF_NOMINAL_S = 0.002


def reference_kernel() -> None:
    """Fixed pure-Python exact-rational work of the kind the library does."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        table[(i % 17, i % 3)] = acc


def reference_time() -> float:
    """Best of three timings of the reference kernel: the host's current speed."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


# ----- set-up --------------------------------------------------------------

PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import {module}\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t0), repr(t1), {module}.__file__)\n"
)


def import_probes(module: str, count: int) -> list[tuple[float, float, float]]:
    """Fresh interpreters importing ``module``.

    Returns (set-up time from spawn until the import finished, import-only
    time, reference time just before) per probe.  perf_counter is the
    system-wide monotonic clock, so the child's reading can be compared with
    the parent's.
    """
    probes = []
    expected = (SRC / "polydiff").resolve()
    for _ in range(count):
        ref = reference_time()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PROBE.format(module=module)], capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, timeout=60, check=True, text=True)
        t0, t1, path = done.stdout.split()
        if expected not in Path(path).resolve().parents:
            fail(f"child imported {module} from {path}")
        probes.append((float(t1) - start, float(t1) - float(t0), ref))
    return probes


# ----- running -------------------------------------------------------------


def run_ops(ops, tracer=None) -> list:
    """Run ops one at a time; return [(op, output, error, latency)]."""
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op_index = len(records)
        start = time.perf_counter()
        try:
            output, error = op.call(), None
        except Exception:  # an unexpected exception is a failed operation
            output, error = None, traceback.format_exc(limit=3)
        records.append((op, output, error, time.perf_counter() - start))
    return records


def _attempt(label: str, check, *args) -> tuple[str | None, object]:
    """Call a check; return (failure message or None, what it returned)."""
    try:
        return None, check(*args)
    except Mismatch as exc:
        return f"{label}: {exc}", None
    except Exception:  # a crash in the checker still fails the operation
        return f"{label}: checker raised\n{traceback.format_exc(limit=3)}", None


class Deferred:
    """Checks that need sympy, spooled to a temporary file until ``run``.

    Running them after the timed loop keeps sympy out of the measured
    process's peak memory; spooling them to disk keeps the checks waiting to
    run out of it too, so peak_rss_mb does not grow with the number of
    rounds a run completes.
    """

    def __init__(self):
        self.file = tempfile.TemporaryFile(dir=OUT)

    def add(self, label: str, later) -> None:
        pickle.dump((label, later), self.file)

    def run(self) -> list[str]:
        failures = []
        self.file.seek(0)
        with self.file:
            while True:
                try:
                    label, later = pickle.load(self.file)
                except EOFError:
                    return failures
                failure, _ = _attempt(label, later)
                if failure is not None:
                    failures.append(failure)


def check_records(records: list, deferred: Deferred, offset: int = 0) -> list[str]:
    """Run each op's oracle; return one message per failed operation.

    The part of a check that needs sympy goes to ``deferred``.
    """
    failures = []
    for index, (op, output, error, _) in enumerate(records, start=offset):
        label = f"#{index} {op.name}"
        if error is not None:
            failures.append(f"{label}: raised\n{error}")
            continue
        failure, later = _attempt(label, op.check, output)
        if failure is not None:
            failures.append(failure)
        elif later is not None:
            deferred.add(label, later)
    return failures


def run_timed(workload, seed: int, seconds: float, deferred: Deferred) -> tuple[list, list[str]]:
    """Prelude, then whole rounds until ``seconds`` have passed and MIN_OPS ran.

    The reference kernel is timed before and after every batch, and each
    batch is checked as soon as it ends, outside its timings, so outputs do
    not pile up in memory.  Returns ([(op name, latency, calibration
    factor)], failures).
    """
    rng = Random(seed)
    samples: list = []
    failures: list[str] = []
    start = time.perf_counter()
    ref_before = reference_time()
    batch = workload.prelude(rng)
    while True:
        records = run_ops(batch)
        ref_after = reference_time()
        factor = REF_NOMINAL_S / ((ref_before + ref_after) / 2)
        failures += check_records(records, deferred, offset=len(samples))
        samples += [(op.name, latency, factor) for op, _, _, latency in records]
        ref_before = ref_after
        if time.perf_counter() - start >= seconds and len(samples) >= MIN_OPS:
            return samples, failures
        batch = workload.round(rng)


def fixed_batch(workload, seed: int) -> list:
    rng = Random(seed)
    ops = workload.prelude(rng)
    for _ in range(workload.trace_rounds):
        ops += workload.round(rng)
    return ops


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    # set-up is probed on both sides of the loop so one slow phase of a
    # shared machine does not decide the median
    probes = import_probes("polydiff", SETUP_PROBES)
    deferred = Deferred()
    samples, failures = run_timed(workload, seed, seconds, deferred)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    probes += import_probes("polydiff", SETUP_PROBES)
    failures += deferred.run()

    raw = [latency for _, latency, _ in samples]
    cal = [latency * factor for _, latency, factor in samples]
    p90 = statistics.quantiles(cal, n=10)[8]
    raw_setup = statistics.median(setup for setup, _, _ in probes)
    metrics = {
        "ops_per_s": (len(cal) / sum(cal), "1/s"),
        "op_p50_ms": (statistics.median(cal) * 1000.0, "ms"),
        "op_p90_ms": (p90 * 1000.0, "ms"),
        "setup_s": (raw_setup * REF_NOMINAL_S / statistics.median(ref for _, _, ref in probes), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    info = {
        "ops": len(samples),
        "beyond_p90": sum(1 for x in cal if x > p90),
        "error_rate": len(failures) / len(samples),
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1000.0,
            "op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1000.0,
            "setup_s": raw_setup,
        },
        "calibration_factor_median": statistics.median(factor for _, _, factor in samples),
        "op_counts": dict(Counter(name for name, _, _ in samples)),
    }
    return metrics, failures, info


def per_layer(workload, seed: int, spans_path: Path) -> tuple[dict, list, dict]:
    plain = run_ops(fixed_batch(workload, seed))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(fixed_batch(workload, seed), tracer)
    finally:
        tracer.uninstall()
    raw = tracer.raw()
    plain_s = sum(r[3] for r in plain)
    traced_s = sum(r[3] for r in traced)
    probes = import_probes("polydiff.cli", IMPORT_PROBES)
    metrics = layer_metrics(raw)
    metrics["cli.import_s"] = (statistics.median(imp for _, imp, _ in probes), "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    failures = []
    for records in (plain, traced):
        deferred = Deferred()
        failures += check_records(records, deferred)
        failures += deferred.run()
    tracer.write_spans(spans_path)
    info = {
        "ops": len(plain),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "fn_calls": raw["fn_calls"],
        "spans": tracer.span_count,
        "spans_file": spans_path.name,
    }
    return metrics, failures, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    load_library()
    env = environment()
    # one CPU for the harness, its operations and its children, so the
    # reference kernel reads the speed of the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit']}")

    stem = f"{args.workload}_s{args.seed}"
    if args.trace:
        metrics, failures, info = per_layer(workload, args.seed, OUT / f"spans_{stem}.tsv")
        attempted = 2 * info["ops"]
        print(f"# fixed batch of {info['ops']} ops: untraced {info['untraced_s']:.3f} s, "
              f"traced {info['traced_s']:.3f} s; {info['spans']} spans in {OUT / info['spans_file']}")
    else:
        metrics, failures, info = end_to_end(workload, args.seed, args.seconds)
        attempted = info["ops"]
        print(f"# {info['ops']} ops, {info['beyond_p90']} beyond p90; median calibration factor "
              f"{info['calibration_factor_median']:.4f}")
    for message in failures[:5]:
        print(f"bench: FAILED {message}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    if not args.trace:
        print(f"{'error_rate':34s} {info['error_rate']:14.6f} ratio")
        for name, value in info["raw"].items():
            print(f"{'raw ' + name:34s} {value:14.6f} {metrics[name][1]}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": {k: v for k, (v, _) in metrics.items()}, "failures": failures, **info}
    (OUT / f"run_{stem}_t{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
