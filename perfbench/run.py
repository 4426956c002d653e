"""fibhess benchmark: one run of one workload, ending in one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; fibhess is imported from ./src.  The
workload runs in a fresh child process (worker.py).  With --trace 0 the
result carries the end-to-end metrics named in BENCHMARK.json, with
--trace 1 its per-layer metrics.  The run's context (commit or source
digest, Python, CPUs, load average at start and end, seed) is printed above
the result and written with the numbers to perfbench/out/.  Exits non-zero,
without a result line, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate
from worker import HERE, OUT, ROOT, SRC, WORKLOADS

WORKER = HERE / "worker.py"
SETUP_PROBES = 11
# Each set-up probe is scaled by this reference start, timed before and
# after it: a fresh interpreter that imports the standard-library modules
# the worker imports, and no fibhess.  REFERENCE_START_S is about its time
# on the 2-vCPU Xeon the bounds were set on.
REFERENCE_START = ("import argparse, contextlib, dataclasses, functools, io, json, pathlib,"
                   " random, resource, signal, statistics, subprocess; print('ready', flush=True)")
REFERENCE_START_S = 0.08
RUN_LIMIT_S = 170
clock = time.perf_counter


class BenchError(Exception):
    pass


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _stop(proc: subprocess.Popen) -> None:
    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _time_to_ready(args: list[str]) -> float:
    """Seconds from starting ``python args`` to its printing 'ready'."""
    start = clock()
    proc = _spawn(args)
    try:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
        proc.wait()
    finally:
        proc.stdout.close()
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode} without getting ready")
    return elapsed


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to its inputs being ready, and
    the reference starts timed before, between and after the probes."""
    probe = [str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    references = [_time_to_ready(["-c", REFERENCE_START])]
    for _ in range(SETUP_PROBES):
        samples.append(_time_to_ready(probe))
        references.append(_time_to_ready(["-c", REFERENCE_START]))
    return samples, references


def run_worker(args: list[str]) -> tuple[dict, float]:
    """The worker's result and the peak RSS in MiB of it and its children."""
    proc = _spawn([str(WORKER), *args])
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    lines = out.splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    # Linux reports ru_maxrss in KiB; wait4 covers the child and the
    # descendants it waited for, and no other workload's processes.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024


def context(workload: str, seed: int, trace: int, seconds: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fibhess").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(worker: dict, setup: tuple[list[float], list[list[float]]],
               peak_rss_mib: float) -> dict:
    """name -> (value, how it was taken).

    Every time is first scaled to the reference speed: an op's by the
    calibration reps timed during it or on both sides of it (calibrate.py),
    a set-up probe's by the reference starts on both sides of it."""
    latencies = calibrate.scaled(worker["latencies"], worker["calibration"])
    probes, references = setup
    setup_s = calibrate.scaled(probes, calibrate.around([[t] for t in references]),
                               reference=REFERENCE_START_S)
    n = len(latencies)
    ordered = sorted(latencies)
    # Below 40 ops the percentile with ten samples beyond it falls under p75,
    # which is no tail.  The median over rounds of each round's slowest op
    # stands in for it: steadier than the maximum of a few ops.
    if n >= 40:
        tail = ordered[n - 11]
        tail_note = f"p{100 * (n - 10) / n:.1f} of {n} ops, 10 beyond it"
    else:
        k = worker["ops_per_round"]
        slowest = [max(latencies[i:i + k]) for i in range(0, n, k)]
        tail = statistics.median(slowest)
        tail_note = (f"median of the slowest op in each of {len(slowest)} rounds"
                     " (under 40 ops, no percentile from p75 up has 10 beyond it)")
    scaled = "; each at reference speed"
    return {
        "ops_per_s": (n / sum(latencies), f"{n} ops in {sum(latencies):.2f} s of op time{scaled}"),
        "latency_p50_s": (statistics.median(latencies), f"median of {n} ops{scaled}"),
        "latency_tail_s": (tail, tail_note + scaled),
        "peak_rss_mib": (worker["peak_rss_mib_first_round"],
                         "through the first round, of the worker process or, on check-grid, of the"
                         f" largest CLI process; {peak_rss_mib:.1f} MiB for all processes and rounds"),
        "setup_s": (statistics.median(setup_s), f"median of {len(setup_s)} fresh processes{scaled}"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fibhess" / "__init__.py").is_file():
        print(f"error: no fibhess sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        ctx = context(args.workload, args.seed, args.trace, args.seconds)
        # Byte-compile as an install would, so no set-up probe or op pays for it.
        if subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)]).returncode:
            raise BenchError("byte-compiling the sources failed")
        setup = ([], []) if args.trace else setup_times(args.workload, args.seed)
        result, peak_rss_mib = run_worker([
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        ctx["loadavg_end"] = os.getloadavg()
        if args.trace:
            measured = {name: (value, "") for name, value in result["per_layer"].items()}
        else:
            measured = end_to_end(result, setup, peak_rss_mib)
        if set(measured) != set(declared):
            raise BenchError(f"measured {sorted(measured)}, BENCHMARK.json declares {sorted(declared)}")
        if not args.trace and not all(value > 0 for value, _ in measured.values()):
            raise BenchError(f"an end-to-end metric is not positive: {measured}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result.get("inconsistent")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed, {result['ops_per_round']} ops per round")
    for error in result["errors"] + result.get("inconsistent", []):
        print(f"  FAILED {error}")
    for name, (value, note) in measured.items():
        shown = f"{value:<22}" if isinstance(value, int) else f"{value:<22.6g}"
        print(f"  {name:34} {shown} {declared[name]:6} {note}")
    print(f"  {'failed_ratio':34} {failed / attempted:<22.6g} {'ratio':6} {failed} of {attempted} ops")
    print("context " + json.dumps(ctx))
    metrics = {name: {"value": value, "unit": declared[name]} for name, (value, _) in measured.items()}
    OUT.mkdir(exist_ok=True)
    record = dict(context=ctx, metrics=metrics, worker=result, setup_s_samples=setup[0],
                  setup_reference_starts=setup[1])
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
