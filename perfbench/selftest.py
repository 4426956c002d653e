"""Self-test of the benchmark at toy sizes: its gate passes correct results
and fails wrong ones.

    python3 perfbench/selftest.py

Each workload's ops run at toy sizes through the same code the benchmark
uses, untraced and traced.  Then deliberately corrupted results (a
coefficient off by one, a nonzero imaginary part, a missing term,
all_equal False, an op that raises, a CLI process that exits non-zero or
prints a wrong or partial grid) must each count as a failed op, and a
directory holding only the benchmark must refuse to run.  Exits non-zero at
the first check that does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from unittest import mock

import calibrate
import reference
import run
import worker

CORRUPT_CLI = """
import contextlib, io, json, sys
from fibhess.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[1:])
lines = buf.getvalue().splitlines()
record = json.loads(lines[-1])
record["values"]["per-k"][0]["re"] = str(int(record["values"]["per-k"][0]["re"]) + 1)
print("\\n".join(lines[:-1] + [json.dumps(record)]))
sys.exit(code)
"""
TRUNCATED_CLI = """
import sys
from fibhess.cli import main
sys.stdout.write = lambda s, w=sys.stdout.write: w(s) if '"n": 1,' not in s else 0
sys.exit(main(sys.argv[1:]))
"""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok    {what}")


def toy_workloads() -> list:
    return [
        worker.CrosscheckLarge(centres=((1, 12), (2, 15), (5, 20)), jitter=1),
        worker.CheckGrid(grids=((2, 5), (3, 4))),
        worker.Families(sizes=(6, 11), jitter=0),
    ]


def bump(poly, fibhess, re: int = 1, im: int = 0, drop: bool = False):
    """``poly`` with its leading coefficient changed, or its last term dropped."""
    terms = dict(poly.terms())
    mono = next(iter(terms))
    if drop:
        del terms[min(terms)]
    else:
        c = terms[mono]
        terms[mono] = fibhess.GaussianInt(c.re + re, c.im + im)
    return fibhess.BivarPoly(terms)


def all_fail(fibhess, workload, ops, what: str) -> None:
    result = worker.run_untraced(fibhess, workload, ops, 0)
    expect(result["attempted"] == len(ops) and result["failed"] == len(ops),
           f"{workload.name}: {what} -> {result['failed']} of {result['attempted']} ops failed")


def check_correct_runs(fibhess) -> None:
    declared = {m["name"] for m in json.loads((worker.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for workload in toy_workloads():
        ops = workload.ops(fibhess, random.Random(1))
        result = worker.run_untraced(fibhess, workload, ops, 0)
        expect(result["attempted"] == len(ops) and result["failed"] == 0,
               f"{workload.name}: toy round of {len(ops)} ops passes")
        traced = worker.run_traced(fibhess, workload, ops, 0, log_limit=100)
        expect(traced["failed"] == 0 and not traced["inconsistent"],
               f"{workload.name}: traced toy round passes")
        expect(set(traced["per_layer"]) == declared,
               f"{workload.name}: traced run gives every per-layer metric in BENCHMARK.json")
        tracer = traced["tracer"]
        accounted = sum(tracer.self_s.values()) + tracer.bookkeeping_s
        expect(math.isclose(accounted, sum(tracer.op_walls), rel_tol=1e-6, abs_tol=1e-6),
               f"{workload.name}: self times plus bookkeeping add up to the op wall time")


def check_corruptions(fibhess) -> None:
    crosscheck, grid, families = toy_workloads()
    ops = crosscheck.ops(fibhess, random.Random(1))
    real = fibhess.cross_check
    for what, change in [
        ("a coefficient off by one", lambda v: bump(v, fibhess, re=1)),
        ("a nonzero imaginary part", lambda v: bump(v, fibhess, re=0, im=1)),
        ("a missing term", lambda v: bump(v, fibhess, drop=True)),
    ]:
        def corrupted(p, n, change=change):
            report = real(p, n)
            values = {**report.values, "det-m": change(report.values["det-m"])}
            return dataclasses.replace(report, values=values)
        with mock.patch.object(fibhess, "cross_check", corrupted):
            all_fail(fibhess, crosscheck, ops, what)
    def unequal(p, n):
        return dataclasses.replace(real(p, n), all_equal=False)

    with mock.patch.object(fibhess, "cross_check", unequal):
        all_fail(fibhess, crosscheck, ops, "all_equal False")
    with mock.patch.object(fibhess, "cross_check", lambda p, n: 1 // 0):
        all_fail(fibhess, crosscheck, ops, "an op that raises")

    ops = grid.ops(fibhess, random.Random(1))
    for what, command in [
        ("a CLI process that exits 1", [sys.executable, "-c", "import sys; sys.exit(1)"]),
        ("a CLI process printing a coefficient off by one", [sys.executable, "-c", CORRUPT_CLI]),
        ("a CLI process leaving out cells", [sys.executable, "-c", TRUNCATED_CLI]),
    ]:
        all_fail(fibhess, worker.CheckGrid(grid.grids, command), ops, what)

    ops = families.ops(fibhess, random.Random(1))
    real_family, real_number = fibhess.family_value, fibhess.fib_p_number
    def bumped(spec, n, p=None):
        return bump(real_family(spec, n, p=p), fibhess)

    with mock.patch.object(fibhess, "family_value", bumped):
        all_fail(fibhess, families, ops, "family values off by one")
    with mock.patch.object(fibhess, "fib_p_number", lambda p, n: real_number(p, n) + 1):
        all_fail(fibhess, families, ops, "fib_p_number off by one")


def check_bare_directory() -> None:
    """A directory with only BENCHMARK.json and perfbench/ must not give a result."""
    bare = worker.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(worker.ROOT / "BENCHMARK.json", bare)
    for path in worker.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "families", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"run.py without the sources exits {proc.returncode} and prints no result")


def check_statistics() -> None:
    ref = calibrate.REFERENCE_REP_S

    def measured(latencies, rep_s=ref, setup=(0.1,), start_s=run.REFERENCE_START_S):
        result = {"latencies": latencies, "calibration": [[rep_s]] * len(latencies),
                  "ops_per_round": 3, "peak_rss_mib_first_round": 1.0}
        return run.end_to_end(result, (list(setup), [start_s] * (len(setup) + 1)), 1.0)

    metrics = measured([float(i) for i in range(50, 0, -1)])
    expect(metrics["latency_tail_s"][0] == 40.0 and metrics["latency_p50_s"][0] == 25.5,
           "tail is the sample with ten beyond it (p80 of 50)")
    expect(measured([3.0, 1.0, 2.0, 5.0, 1.0, 1.0, 0.5, 4.0, 0.5])["latency_tail_s"][0] == 4.0,
           "under 40 ops the tail is the median of the rounds' slowest ops")
    slow = measured([3.0, 1.0, 2.0], rep_s=2 * ref, setup=(0.2, 0.4, 0.3),
                    start_s=2 * run.REFERENCE_START_S)
    expect(math.isclose(slow["latency_p50_s"][0], 1.0) and math.isclose(slow["ops_per_s"][0], 1.0)
           and math.isclose(slow["setup_s"][0], 0.15),
           "times taken while the kernel and the reference start run at half speed are halved")
    local = calibrate.scaled([1.0, 1.0], calibrate.around([[ref], [3 * ref], [ref, 5 * ref]]))
    expect(all(map(math.isclose, local, [1 / 2, 1 / 3])),
           "a time is scaled by the mean of the reps on its two sides")
    sampler = calibrate.Sampler()
    sampler.call(time.sleep, 0.2)
    expect(len(sampler.reps) >= 5 and 0 < sampler.spent < 0.2,
           f"an op is sampled while it runs ({len(sampler.reps)} reps in 0.2 s)")
    expect(reference.g_terms(2, 7) == {(6, 0): 1, (3, 1): 4, (0, 2): 1},
           "closed form G(2, 7) = x^6 + 4x^3y + y^2")


def main() -> int:
    os.environ["PYTHONPATH"] = str(worker.SRC)
    fibhess = worker.import_fibhess()
    check_statistics()
    check_correct_runs(fibhess)
    check_corruptions(fibhess)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
