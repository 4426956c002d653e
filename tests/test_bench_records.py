"""The committed benchmark records (``BENCH_*.json`` at the repository
root) stay readable and name only what ``BENCHMARK.json`` defines.

Each record holds, per workload, the parent and change medians of
end-to-end metrics over a number of alternating run pairs, so a record
that names a renamed workload or metric would silently stop meaning
anything.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    return workloads, metrics


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_only_benchmark_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    workloads, metrics = benchmark_names()
    assert isinstance(record["parent_commit"], str) and record["parent_commit"]
    assert isinstance(record["python"], str) and record["python"]
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for entry in record["workloads"].values():
        assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1
        assert entry["medians"] and set(entry["medians"]) <= metrics
        for pair in entry["medians"].values():
            assert set(pair) == {"parent", "change"}
            assert all(isinstance(v, (int, float)) and v > 0 for v in pair.values())
