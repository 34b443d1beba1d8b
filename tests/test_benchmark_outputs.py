"""Benchmark smoke runs keep the committed full-workload results.

``benchmarks/results/BENCH_*.json`` are the committed references; a
``--smoke`` run without ``--out`` must write its ``*.smoke.json``
sibling (listed in ``.gitignore``) and leave the reference untouched.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compaction_smoke_leaves_committed_results(tmp_path, monkeypatch):
    bench = _bench_module("bench_compaction")
    committed = (BENCHMARKS / "results" / "BENCH_compaction.json").read_bytes()
    reference = tmp_path / "BENCH_compaction.json"
    reference.write_bytes(committed)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)

    assert bench.main(["--smoke"]) == 0

    assert reference.read_bytes() == committed
    smoke = tmp_path / "BENCH_compaction.smoke.json"
    assert bench.json.loads(smoke.read_text())["workload"]["smoke"] is True
    ignored = (BENCHMARKS.parent / ".gitignore").read_text().splitlines()
    assert "benchmarks/results/BENCH_compaction.smoke.json" in ignored


def test_query_check_fails_on_an_inconsistent_scan_row():
    bench = _bench_module("bench_query")
    rows = [
        {"backend": "cm-pbe-1", "kind": kind, "consistent": True}
        for kind in ("events", "times", "peak")
    ]
    payload = {"rows": [], "scan_rows": rows}
    assert bench.check_query_results(payload) == []
    for row in rows[1:]:
        row["consistent"] = False
        failures = bench.check_query_results(payload)
        assert any(row["kind"] in failure for failure in failures)
        row["consistent"] = True
