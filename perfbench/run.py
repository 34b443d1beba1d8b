"""The repository benchmark: durable burst-store ingest, live and
quiescent queries, and crash recovery, timed at a reference machine speed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live-exact --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that adds benchmark-side spans and split-out calls and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys

# One thread for BLAS/OpenMP, and none of the program's optional
# accelerators or process tracers: every run does the same work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_NUMBA", "REPRO_TRACE", "REPRO_TRACE_SAMPLE", "REPRO_TRACE_SLOW_MS"):
    os.environ.pop(_var, None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {
    "setup_s": "s",
    "ingest_rec_per_s": "rec/s",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "events_p50_ms": "ms",
    "events_p90_ms": "ms",
    "times_p50_ms": "ms",
    "times_p90_ms": "ms",
    "peak_p50_ms": "ms",
    "peak_p90_ms": "ms",
    "recover_s": "s",
    "bytes_per_record": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "durable.view_build_ms": "ms",
    "store.answer_point_ms": "ms",
    "store.answer_events_ms": "ms",
    "store.answer_times_ms": "ms",
    "store.answer_peak_ms": "ms",
    "store.extend_ms": "ms",
    "durable.append_ms": "ms",
    "wal.bytes_per_record": "B",
    "wal.fsyncs": "count",
    "durable.seal_ms": "ms",
    "durable.seals": "count",
    "durable.segments": "count",
    "compaction.busy_s": "s",
    "compaction.runs": "count",
    "compaction.rewrite_ratio": "ratio",
    "serialize.segment_bytes_per_record": "B",
    "serialize.open_s": "s",
    "wal.replay_s": "s",
    "wal.replayed_records": "count",
    "durable.recover_call_s": "s",
    "durable.first_answer_s": "s",
    "machine.probe_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

WORKLOAD_NAMES = ("live-exact", "history-cmpbe1")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _table(title: str, rows) -> None:
    print(f"== {title}")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program source under {SRC}; run from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import measure
    import workloads

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench = workloads.Bench(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        workdir=workdir, query_probe=workloads.QUERY_PROBE[args.workload],
    )
    try:
        end_to_end = workloads.WORKLOADS[args.workload](bench)
        bench.check_single_threaded("end of run")
        layers = workloads.layer_metrics(bench) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fsync": workloads.FSYNC,
        "probe_ref_ms": 1e3 * measure.PROBE_REF_S,
        "probe_median_ms": 1e3 * bench.probe.median_s(),
        "probe_readings": len(bench.probe.readings),
        "query_probe": bench.query_probe,
    }
    if bench.probe.list_readings:
        env["list_probe_ref_ms"] = 1e3 * measure.LIST_PROBE_REF_S
        env["list_probe_median_ms"] = 1e3 * bench.probe.median_s("lists")
    print("env " + json.dumps(env, sort_keys=True))
    _table(
        "end-to-end (value at the reference speed, raw value, unit)",
        [(name, f"{end_to_end[name][0]:.6g}", f"{end_to_end[name][1]:.6g}", unit)
         for name, unit in END_TO_END.items()],
    )
    if args.trace:
        _table(
            "per layer (at the reference speed)",
            [(name, f"{layers[name]:.6g}", unit) for name, unit in PER_LAYER.items()],
        )
        spans = sorted(bench.spans.totals.items(), key=lambda item: -item[1][2])
        _table(
            "benchmark spans (name, calls, total s, self s); the self time "
            "of phase.* spans is the uncovered remainder (loop glue: slicing "
            "batches, picking the next query)",
            [(name, int(n), f"{total:.4f}", f"{own:.4f}") for name, (n, total, own) in spans],
        )
    for error in bench.errors:
        print(f"failed: {error}")

    chosen = {name: layers[name] for name in PER_LAYER} if args.trace else {
        name: end_to_end[name][0] for name in END_TO_END
    }
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in chosen.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in chosen.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
