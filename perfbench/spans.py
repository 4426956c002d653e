"""Spans around the calls into fibhess's layers, for the traced run.

The wrappers live here, not in the library: ``installed`` rebinds each
public function in every module that binds it (``sequences`` and ``cli``
import their helpers with ``from .x import y``, so patching the defining
module alone would miss those calls) and the ``BivarPoly`` operator methods
on the class.  ``GaussianInt`` is left alone: it is called millions of times
per large op.

A span's self time is its duration minus the time its child spans cover.
Counters are updated inside the wrappers, and the time that takes is
bookkeeping, kept out of every span, so that over a set of ops

    sum of op wall times = sum of self times over all spans + bookkeeping

where the root span of each op (``bench.op``) holds the benchmark's own code.
Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

clock = time.perf_counter

ROOT = "bench.op"
MODULES = ("fibhess", "fibhess.sequences", "fibhess.cli")
# Public function name -> span name, wrapped wherever MODULES bind the name.
FUNCTIONS = {
    "build_w": "matrices.build",
    "build_m": "matrices.build",
    "build_h": "matrices.build",
    "build_k": "matrices.build",
    "det_hessenberg": "evaluators.det",
    "per_hessenberg": "evaluators.per",
    "f_poly": "sequences.f_poly",
    "cross_check": "sequences.cross_check",
    "family_value": "sequences.family_value",
    "fib_p_number": "sequences.fib_p_number",
    "main": "cli.main",
}
METHODS = {
    "__add__": "ring.add",
    "__sub__": "ring.sub",
    "__neg__": "ring.neg",
    "__mul__": "ring.mul",
    "__pow__": "ring.pow",
    "scale": "ring.scale",
    "substitute": "ring.substitute",
}


def _nterms(poly) -> int:
    return len(poly.terms())


def _count_mul(counts: Counter, a, b) -> None:
    counts["ring.mul.term_pairs"] += _nterms(a) * _nterms(b)


def _count_add(counts: Counter, a, b) -> None:
    counts["ring.add.terms_in"] += _nterms(a) + _nterms(b)


def _count_build(counts: Counter, matrix) -> None:
    counts["matrices.slots"] += matrix.n**2
    counts["matrices.nonzero"] += sum(not e.is_zero() for row in matrix.rows() for e in row)


COUNT_ARGS = {"ring.mul": _count_mul, "ring.add": _count_add}
COUNT_RESULT = {"matrices.build": _count_build}


class Tracer:
    """Spans and counters of one traced pass over a workload's ops."""

    def __init__(self, log_limit: int = 0):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        self.op_walls: list[float] = []
        # (span id, parent id or -1, op id, name, start, end), up to
        # log_limit spans; the op id is the id of the op's root span.
        self.log: list[tuple[int, int, int, str, float, float]] = []
        self.log_limit = log_limit
        self.log_dropped = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._op_id = -1

    def span(self, name: str, fn, args: tuple, kwargs: dict):
        outer_start = clock()
        count_args = COUNT_ARGS.get(name)
        if count_args is not None:
            count_args(self.counts, *args)
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        if parent is None:
            self._op_id = frame[0]
        self._stack.append(frame)
        returned = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = clock()
            self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[1]
            count_result = COUNT_RESULT.get(name)
            if returned and count_result is not None:
                count_result(self.counts, result)
            if len(self.log) < self.log_limit:
                self.log.append((frame[0], parent[0] if parent else -1, self._op_id, name, start, end))
            else:
                self.log_dropped += 1
            outer_end = clock()
            if parent is None:
                self.op_walls.append(end - start)
            else:
                parent[1] += outer_end - outer_start
                self.bookkeeping_s += (outer_end - outer_start) - (end - start)

    def op(self, fn, *args):
        """Run one op under a root span."""
        return self.span(ROOT, fn, args, {})

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))


@contextlib.contextmanager
def installed(tracer: Tracer, fibhess):
    """Route the layer calls through ``tracer`` until the block exits."""
    patched = []
    wrappers = {}

    def wrap(owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        if fn not in wrappers:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs)

            wrappers[fn] = traced
        patched.append((owner, attr, fn))
        setattr(owner, attr, wrappers[fn])

    try:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, name in FUNCTIONS.items():
                if hasattr(module, attr):
                    wrap(module, attr, name)
        for attr, name in METHODS.items():
            wrap(fibhess.BivarPoly, attr, name)
        yield tracer
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)
