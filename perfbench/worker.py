"""Run one benchmark workload in this process and print its raw results.

run.py starts this script once per run, so that each workload gets a fresh
interpreter and its own peak-RSS reading.  The workload's ops run in a closed
loop with one client: one op at a time, the next one when the last is done.
Each op's result is checked against the closed form in reference.py outside
the timed region.  The last line on stdout is one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ROUTES = ("recurrence", "det-w", "det-m", "per-h", "per-k")
SPAN_LOG_LIMIT = 50_000
# An op run as a subprocess is followed by calibration reps for this share
# of its time, and the first one is preceded by FIRST_CALIBRATION_S of them,
# so each has the machine's speed measured on both sides.
CALIBRATION_SHARE = 0.25
FIRST_CALIBRATION_S = 0.25
clock = time.perf_counter
g_ref = functools.cache(reference.g_terms)


def import_fibhess():
    sys.path.insert(0, str(SRC))
    import fibhess

    if Path(fibhess.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"fibhess came from {fibhess.__file__}, not from {SRC}")
    return fibhess


class CrosscheckLarge:
    """cross_check(p, n) in process: large term maps and n^2 matrix slots."""

    name = "crosscheck-large"
    # Larger p gives fewer, smaller terms, so n grows with p to keep each op
    # at 2.5-4 s.  The seed moves each n by a step or two, which changes the
    # work per run by about 1%, well inside the run-to-run noise.
    # The order stays fixed, because it shapes the heap and so peak RSS.
    CENTRES = ((1, 520), (2, 650), (5, 780))

    def __init__(self, centres=CENTRES, jitter: int = 2):
        self.centres = centres
        self.jitter = jitter

    def ops(self, fibhess, rng: random.Random) -> list:
        return [(p, n + rng.randint(-self.jitter, self.jitter)) for p, n in self.centres]

    def call(self, fibhess, op):
        return fibhess.cross_check(*op)

    def check(self, op, report) -> tuple[str | None, int, int]:
        p, n = op
        if not report.all_equal:
            return f"all_equal is False (first mismatch {report.first_mismatch})", 0, 0
        return _check_routes(report.values, g_ref(p, n + 1), reference.from_poly)


class CheckGrid:
    """``fibhess check --format json`` on small grids, one process per op."""

    name = "check-grid"
    # Three grids of clearly different cost, so the median op is the middle
    # grid and not a boundary between two.  One more or less row changes a
    # grid's time by 7-10%, so the seed only orders the grids.
    GRIDS = ((4, 24), (5, 27), (6, 30))

    def __init__(self, grids=GRIDS, command: list[str] | None = None):
        self.grids = grids
        self.command = command or [sys.executable, "-m", "fibhess.cli"]

    def ops(self, fibhess, rng: random.Random) -> list:
        ops = list(self.grids)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        p_max, n_max = op
        return ["check", "--p-max", str(p_max), "--n-max", str(n_max), "--format", "json"]

    def spawn(self, fibhess, op):
        proc = subprocess.run(self.command + self.argv(op), capture_output=True)
        return proc.returncode, proc.stdout

    def call(self, fibhess, op):
        """fibhess.cli.main in process, with stdout captured."""
        import fibhess.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fibhess.cli.main(self.argv(op))
        return code, buf.getvalue().encode()

    def check(self, op, outcome) -> tuple[str | None, int, int]:
        code, out = outcome
        if code != 0:
            return f"exit code {code}", 0, 0
        p_max, n_max = op
        records = [json.loads(line) for line in out.decode().splitlines()]
        cells = [(r["p"], r["n"]) for r in records]
        if cells != [(p, n) for p in range(1, p_max + 1) for n in range(1, n_max + 1)]:
            return f"output covers cells {cells[:3]}... not the {p_max}x{n_max} grid", 0, 0
        terms = bits = 0
        for r in records:
            if r["all_equal"] is not True or r["first_mismatch"] is not None:
                return f"p={r['p']} n={r['n']}: all_equal {r['all_equal']}", 0, 0
            error, t, b = _check_routes(r["values"], g_ref(r["p"], r["n"] + 1), reference.from_json)
            if error:
                return f"p={r['p']} n={r['n']}: {error}", 0, 0
            terms, bits = terms + t, max(bits, b)
        return None, terms, bits


class Families:
    """family_value for all 15 families and fib_p_number at one n, in process.

    One op is every family at one n.  With one op per call, the median op
    sat on the edge between the p = 2 and p = 1 families at n = 200 and
    jumped between them from run to run; with one op per n the median is the
    n = 200 op."""

    name = "families"
    SIZES = (100, 200, 300)
    P = 2

    def __init__(self, sizes=SIZES, jitter: int = 1):
        self.sizes = sizes
        self.jitter = jitter

    def ops(self, fibhess, rng: random.Random) -> list:
        specs = [(name, fibhess.get_family(name)) for name in reference.FAMILIES]
        ops = []
        for size in self.sizes:
            rng.shuffle(specs)
            ops.append((size + rng.randint(-self.jitter, self.jitter), list(specs)))
        rng.shuffle(ops)
        return ops

    def call(self, fibhess, op):
        n, specs = op
        values = [fibhess.family_value(spec, n, p=self.P) for _, spec in specs]
        return values, fibhess.fib_p_number(self.P, n)

    def check(self, op, outcome) -> tuple[str | None, int, int]:
        n, specs = op
        values, number = outcome
        want = reference.fib_p_number(self.P, n)
        if type(number) is not int or number != want:
            return f"fib_p_number({self.P}, {n}) = {number!r}, want {want}", 0, 0
        terms, bits = 1, want.bit_length()
        for (name, _), value in zip(specs, values, strict=True):
            got = reference.from_poly(value)
            error = reference.diff(got, reference.family_terms(name, n, self.P))
            if error:
                return f"{name} n={n}: {error}", 0, 0
            t, b = reference.size(got)
            terms, bits = terms + t, max(bits, b)
        return None, terms, bits


WORKLOADS = {w.name: w for w in (CrosscheckLarge, CheckGrid, Families)}


def _check_routes(values: dict, want: dict, read) -> tuple[str | None, int, int]:
    """Every route's value against the reference; (error, terms, max bits)."""
    missing = [route for route in ROUTES if route not in values]
    if missing:
        return f"routes {missing} missing", 0, 0
    terms = bits = 0
    for route, value in values.items():
        got = read(value)
        error = reference.diff(got, want)
        if error:
            return f"{route}: {error}", 0, 0
        t, b = reference.size(got)
        terms, bits = terms + t, max(bits, b)
    return None, terms, bits


class Tally:
    """Ops attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, fn, check, op) -> tuple[float, object, int, int]:
        """Time fn(op), then check its result untimed.

        Returns (seconds, outcome, result terms, result max bits); the
        outcome is None when the op failed."""
        self.attempted += 1
        outcome, error, terms, bits = None, None, 0, 0
        start = clock()
        try:
            outcome = fn(op)
        except Exception as exc:
            error = f"raised {exc!r}"
        seconds = clock() - start
        if error is None:
            try:
                error, terms, bits = check(op, outcome)
            except Exception as exc:
                error = f"result unreadable: {exc!r}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                label = tuple(x for x in op if isinstance(x, (int, str)))
                self.errors.append(f"{label}: {error}")
            outcome = None
        return seconds, outcome, terms, bits


def _done(start: float, rounds: int, seconds: float) -> bool:
    """Stop after the number of whole rounds that ends nearest ``seconds``."""
    elapsed = clock() - start
    return rounds > 0 and elapsed + elapsed / rounds / 2 >= seconds


def run_untraced(fibhess, workload, ops: list, seconds: float) -> dict:
    """Whole rounds over ``ops``, as many as end nearest ``seconds``.

    Each op's time comes with the calibration reps that measure the
    machine's speed while it ran: reps timed during the op, whose time is
    taken off the op's, or for a subprocess reps on both sides of it."""
    tally = Tally()
    spawned = hasattr(workload, "spawn")
    sampler = calibrate.Sampler()
    windows = [calibrate.reps(FIRST_CALIBRATION_S)] if spawned else []
    latencies: list[float] = []
    speeds: list[list[float]] = []

    def measure(op) -> float:
        if spawned:
            took = tally.attempt(lambda o: workload.spawn(fibhess, o), workload.check, op)[0]
            windows.append(calibrate.reps(CALIBRATION_SHARE * took))
            return took
        took = tally.attempt(lambda o: sampler.call(workload.call, fibhess, o), workload.check, op)[0]
        speeds.append(sampler.reps)
        return took - sampler.spent

    start = clock()
    while True:
        for op in ops:
            latencies.append(measure(op))
        if len(latencies) == len(ops):
            first_round_rss = peak_rss_mib(children=spawned)
        if _done(start, len(latencies) // len(ops), seconds):
            break
    return {"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
            "latencies": latencies, "calibration": calibrate.around(windows) if spawned else speeds,
            "peak_rss_mib_first_round": first_round_rss}


def peak_rss_mib(children: bool) -> float:
    """Peak RSS so far of this process, or of the largest child it waited for.

    Later rounds repeat the same ops but add up to a MiB of allocator
    fragmentation each, and how many rounds fit in a run depends on the
    machine's speed; so the benchmark reports the peak after the first round.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024  # Linux reports KiB


def run_traced(fibhess, workload, ops: list, seconds: float, log_limit: int) -> dict:
    """Rounds over ``ops``, as many as end nearest ``seconds``, in which each
    op runs untraced and then traced; derive the per-layer metrics.

    Running the two back to back keeps the machine's drift out of
    ``trace.overhead_ratio``.  Counts come from the first round and must
    repeat exactly in every later one; times are medians over the rounds.
    """
    tally = Tally()
    call = workload.call
    spawn = getattr(workload, "spawn", None)
    process_latencies: list[float] = []
    inprocess_latencies: list[float] = []
    rounds: list[dict] = []
    first = None
    start = clock()
    while not _done(start, len(rounds), seconds):
        tracer = spans.Tracer(log_limit if first is None else 0)
        untraced_wall = 0.0
        terms = bits = output_bytes = 0
        for op in ops:
            if spawn is not None:
                process_latencies.append(tally.attempt(lambda o: spawn(fibhess, o), workload.check, op)[0])
            wall = tally.attempt(lambda o: call(fibhess, o), workload.check, op)[0]
            inprocess_latencies.append(wall)
            untraced_wall += wall
            with spans.installed(tracer, fibhess):
                _, outcome, t, b = tally.attempt(lambda o: tracer.op(call, fibhess, o), workload.check, op)
            terms, bits = terms + t, max(bits, b)
            if spawn is not None and outcome is not None:
                output_bytes += len(outcome[1])
        metrics = _layer_metrics(tracer, terms, bits, output_bytes)
        metrics["trace.overhead_ratio"] = metrics["trace.op_wall_s"] / untraced_wall
        rounds.append(metrics)
        first = first or tracer
    per_layer = {}
    inconsistent = []
    for name, value in rounds[0].items():
        values = [r[name] for r in rounds]
        if name.endswith("_s") or name == "trace.overhead_ratio":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            inconsistent.append(f"count {name} differs between rounds: {values}")
        per_layer[name] = value
    per_layer["cli.process_overhead_s"] = (
        statistics.median(process_latencies) - statistics.median(inprocess_latencies)
        if spawn is not None else 0.0)
    return {"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
            "inconsistent": inconsistent, "per_layer": per_layer, "rounds": len(rounds),
            "tracer": first}


def _layer_metrics(tracer: spans.Tracer, terms: int, bits: int, output_bytes: int) -> dict:
    m = {}
    for name in ("ring.mul", "ring.add", "ring.pow", "ring.substitute", "matrices.build",
                 "evaluators.det", "evaluators.per", "sequences.f_poly"):
        m[f"{name}.calls"] = tracer.calls[name]
    for name in ("ring.mul", "ring.add", "ring.pow", "ring.substitute", "ring.scale",
                 "matrices.build", "evaluators.det", "evaluators.per", "sequences.f_poly",
                 "sequences.cross_check", "sequences.family_value", "cli.main"):
        m[f"{name}.self_s"] = tracer.self_s[name]
    for layer in ("ring", "matrices", "evaluators", "sequences", "cli", "bench"):
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    m["ring.mul.term_pairs"] = tracer.counts["ring.mul.term_pairs"]
    m["ring.add.terms_in"] = tracer.counts["ring.add.terms_in"]
    slots = tracer.counts["matrices.slots"]
    m["matrices.slots"] = slots
    m["matrices.nonzero_ratio"] = tracer.counts["matrices.nonzero"] / slots if slots else 0.0
    m["sequences.result_terms"] = terms
    m["sequences.result_coeff_bits_max"] = bits
    m["cli.output_bytes"] = output_bytes
    m["trace.op_wall_s"] = sum(tracer.op_walls)
    m["trace.bookkeeping_s"] = tracer.bookkeeping_s
    return m


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    """The first traced round's spans as JSON lines, times relative to the first span."""
    path.parent.mkdir(exist_ok=True)
    t0 = min((s[4] for s in tracer.log), default=0.0)
    with path.open("w") as f:
        for span_id, parent, op_id, name, start, end in tracer.log:
            f.write(json.dumps({"id": span_id, "parent": parent, "op": op_id, "name": name,
                                "start_s": start - t0, "end_s": end - t0}) + "\n")
        if tracer.log_dropped:
            f.write(json.dumps({"dropped": tracer.log_dropped}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import fibhess, make the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    fibhess = import_fibhess()
    workload = WORKLOADS[args.workload]()
    ops = workload.ops(fibhess, random.Random(f"{args.workload}:{args.seed}"))
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.trace:
        result = run_traced(fibhess, workload, ops, args.seconds, SPAN_LOG_LIMIT)
        tracer = result.pop("tracer")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(tracer, path)
        result["span_file"] = str(path.relative_to(ROOT))
    else:
        result = run_untraced(fibhess, workload, ops, args.seconds)
    result["ops_per_round"] = len(ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
