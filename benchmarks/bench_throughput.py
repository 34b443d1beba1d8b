"""Construction throughput and point-query latency micro-benchmarks.

These are the repeated-measurement benchmarks (pytest-benchmark's bread
and butter): elements/second into each sketch and microseconds per point
query out of it.  The paper reports construction times in Fig. 8a/9a;
this suite gives the per-operation view.

Run standalone (no pytest needed) for the scalar-vs-batch ingest
comparison, which writes ``benchmarks/results/BENCH_ingest.json``::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--quick] [--check]

``--quick`` shrinks the workloads for a CI smoke run; ``--check`` exits
nonzero if batching regressed (any layer slower than scalar beyond
noise, or the vectorized layers below their expected multiple).

A note on what the numbers show: the hashing and Count-Min layers
vectorize end-to-end, so batching wins an order of magnitude over
per-element calls.  The PBE cores are compression-bound — PBE-1's
optimal-staircase DP at each buffer compression, PBE-2's polygon
clipping per committed corner — so their ingest floors are pinned to
the *seed* scalar rates recorded before the compression cores were
vectorized (``PBE_SEED_SCALAR_RATES``): ``extend_batch`` must clear
``PBE_BATCH_FLOOR_MULTIPLE`` times those rates.  The in-run scalar
column has itself been accelerated by the same kernels, so the
scalar/batch ratio *within* one run understates the gain — compare
against the seed constants, not the neighbouring column.  Every
benchmarked row is additionally bit-identity-checked: the batch-built
sketch must serialize to exactly the same bytes (or hash to the same
values) as its scalar-built twin, so a rate can never be bought with a
drifted answer.

The ``seal-fold`` row is not an ingest layer: it folds the partial
PBE-1 buffers a CM-PBE-1 grid holds at a seal, cell by cell (``flush``)
in the scalar column and in one batched ``fold_buffers`` sweep in the
batch column, and ``--check`` requires the batch to clear
``BATCH_SPEEDUP_FLOORS`` over the loop with bit-identical cells.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.cmpbe import CMPBE
from repro.core.dyadic import BurstyEventIndex
from repro.core.metrics import global_registry
from repro.core.pbe1 import (
    PBE1,
    StaircaseApproximation,
    _gap_cost_table,
    _validated,
    fold_buffers,
)
from repro.core.pbe2 import PBE2
from repro.core.serialize import dump_cmpbe, dump_pbe1, dump_pbe2
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily
from repro.workloads.profiles import DAY

N_ELEMENTS = 4_000


@pytest.fixture(scope="module")
def burst_chunk(soccer_timestamps):
    return soccer_timestamps[:N_ELEMENTS]


@pytest.fixture(scope="module")
def mixed_chunk(olympicrio_stream):
    return list(olympicrio_stream)[:N_ELEMENTS]


class TestConstructionThroughput:
    def test_pbe1_ingest(self, benchmark, burst_chunk):
        def run():
            sketch = PBE1(eta=100, buffer_size=1500)
            sketch.extend(burst_chunk)
            sketch.flush()
            return sketch

        sketch = benchmark(run)
        assert sketch.count == len(burst_chunk)

    def test_pbe2_ingest(self, benchmark, burst_chunk):
        def run():
            sketch = PBE2(gamma=20.0)
            sketch.extend(burst_chunk)
            sketch.finalize()
            return sketch

        sketch = benchmark(run)
        assert sketch.count == len(burst_chunk)

    def test_cmpbe1_ingest(self, benchmark, mixed_chunk):
        def run():
            sketch = CMPBE.with_pbe1(
                eta=100, width=6, depth=3, buffer_size=1500
            )
            sketch.extend(mixed_chunk)
            return sketch

        sketch = benchmark(run)
        assert sketch.count == len(mixed_chunk)

    def test_index_ingest(self, benchmark, mixed_chunk):
        def run():
            index = BurstyEventIndex.with_pbe2(
                128, gamma=20.0, width=6, depth=3
            )
            index.extend(mixed_chunk)
            return index

        index = benchmark(run)
        assert index.level_sketch(0).count == len(mixed_chunk)


class TestBatchedConstructionThroughput:
    """Batched counterparts of the scalar ingest benchmarks above."""

    @pytest.fixture(scope="class")
    def burst_column(self, burst_chunk):
        return np.asarray(burst_chunk, dtype=np.float64)

    @pytest.fixture(scope="class")
    def mixed_columns(self, mixed_chunk):
        ids = np.asarray([e for e, _ in mixed_chunk], dtype=np.int64)
        ts = np.asarray([t for _, t in mixed_chunk], dtype=np.float64)
        return ids, ts

    def test_pbe1_ingest_batch(self, benchmark, burst_column):
        def run():
            sketch = PBE1(eta=100, buffer_size=1500)
            sketch.extend_batch(burst_column)
            sketch.flush()
            return sketch

        sketch = benchmark(run)
        assert sketch.count == burst_column.size

    def test_pbe2_ingest_batch(self, benchmark, burst_column):
        def run():
            sketch = PBE2(gamma=20.0)
            sketch.extend_batch(burst_column)
            sketch.finalize()
            return sketch

        sketch = benchmark(run)
        assert sketch.count == burst_column.size

    def test_cmpbe1_ingest_batch(self, benchmark, mixed_columns):
        ids, ts = mixed_columns

        def run():
            sketch = CMPBE.with_pbe1(
                eta=100, width=6, depth=3, buffer_size=1500
            )
            sketch.extend_batch(ids, ts)
            return sketch

        sketch = benchmark(run)
        assert sketch.count == ids.size

    def test_index_ingest_batch(self, benchmark, mixed_columns):
        ids, ts = mixed_columns

        def run():
            index = BurstyEventIndex.with_pbe2(
                128, gamma=20.0, width=6, depth=3
            )
            index.extend_batch(ids, ts)
            return index

        index = benchmark(run)
        assert index.level_sketch(0).count == ids.size


class TestQueryLatency:
    @pytest.fixture(scope="class")
    def built(self, soccer_timestamps, olympicrio_stream):
        pbe1 = PBE1(eta=100, buffer_size=1500)
        pbe1.extend(soccer_timestamps)
        pbe1.flush()
        pbe2 = PBE2(gamma=20.0)
        pbe2.extend(soccer_timestamps)
        pbe2.finalize()
        index = BurstyEventIndex.with_pbe1(
            128, eta=60, width=6, depth=3, buffer_size=1500
        )
        index.extend(list(olympicrio_stream)[:20_000])
        index.finalize()
        return pbe1, pbe2, index

    def test_pbe1_point_query(self, benchmark, built):
        pbe1, _, _ = built
        benchmark(pbe1.burstiness, 15 * DAY, DAY)

    def test_pbe2_point_query(self, benchmark, built):
        _, pbe2, _ = built
        benchmark(pbe2.burstiness, 15 * DAY, DAY)

    def test_index_point_query(self, benchmark, built):
        _, _, index = built
        benchmark(index.point_query, 0, 15 * DAY, DAY)

    def test_index_bursty_event_query(self, benchmark, built):
        _, _, index = built
        benchmark(index.bursty_events, 15 * DAY, 100.0, DAY)


# ----------------------------------------------------------------------
# Standalone scalar-vs-batch ingest comparison (BENCH_ingest.json)
# ----------------------------------------------------------------------
RESULTS_DIR = Path(__file__).parent / "results"

#: Layers whose batch path is fully vectorized and must clear this
#: multiple over scalar; the PBE layers are compression-bound (see the
#: module docstring) and only need to not regress.
VECTORIZED_FLOOR = 5.0
NOISE_TOLERANCE = 0.85

#: Scalar ingest rates of the compression-bound PBE cores as recorded by
#: the pre-vectorization seed run of this benchmark (elements/second,
#: ``--quick`` workload, committed in BENCH_ingest.json).  Fallback
#: yardstick for the batched ingest floor when a payload predates the
#: in-run oracle measurement; the preferred denominator is the oracle
#: rate re-measured in the same run (see ``_ingest_layers``), which a
#: shared runner's multi-minute slow phases cannot skew.
PBE_SEED_SCALAR_RATES = {"pbe1": 10_777.56, "pbe2": 43_153.08}
#: ``extend_batch`` on the PBE cores must sustain at least this multiple
#: of the seed compression path's rate (NOISE_TOLERANCE absorbs jitter).
PBE_BATCH_FLOOR_MULTIPLE = 5.0
#: Rows whose batch path must clear a layer-specific multiple over the
#: scalar column: one batched PBE-1 fold of a seal's partial buffers
#: against the per-cell flush loop (3.4x on a 2-vCPU VM).
BATCH_SPEEDUP_FLOORS = {"seal-fold": 2.0}
#: Records in one seal of the perfbench history-cmpbe1 store.
SEAL_RECORDS = 1_000


#: Repeats of the rows whose floor compares the batch path with the
#: in-run oracle (at least ``--repeats``): both sides are best-of-N
#: minima, and more interleaved repeats give each a steadier minimum.
FLOOR_REPEATS = 15


def _best_seconds_of(fns, repeats: int) -> list[float]:
    """Best-of-N CPU times of functions timed interleaved.

    Each repeat times every function once, rotating which goes first,
    so the bests come from the same machine phase: a slow phase of a
    shared runner slows all of them, not just the one that happened to
    run in it.  The clock is the process's CPU time, so time the
    process spends descheduled on a shared host is not counted.  One
    untimed warmup each absorbs cold caches.  The
    collector is paused around the timed region (and the warmups'
    garbage collected before it) so a cycle collection triggered by a
    *previous* layer's allocations cannot land inside a measurement.
    """
    for fn in fns:
        fn()
    gc.collect()
    best = [float("inf")] * len(fns)
    gc.disable()
    try:
        for repeat in range(repeats):
            for step in range(len(fns)):
                index = (repeat + step) % len(fns)
                start = time.process_time()
                fns[index]()
                best[index] = min(best[index], time.process_time() - start)
    finally:
        gc.enable()
    return best


def approximate_staircase_cht(
    xs: np.ndarray, ys: np.ndarray, eta: int
) -> StaircaseApproximation:
    """PBE-1's historical ``O(eta * n)`` monotone convex-hull-trick DP.

    The seed compression path, kept here as the scalar oracle whose
    in-run rate is the denominator of the PBE-1 throughput floor (see
    :func:`_ingest_layers`).  Its per-layer lower-envelope evaluation
    shares no code with the vectorized refinement sweep in
    ``repro.core.pbe1``.
    """
    xs, ys, trivial = _validated(xs, ys, eta)
    if trivial is not None:
        return trivial
    n = xs.size
    cw = _gap_cost_table(xs, ys)
    inf = float("inf")

    prev = [inf] * n  # E_{k-1}
    prev[0] = 0.0
    parent = np.full((eta + 1, n), -1, dtype=np.int32)
    xs_list = xs.tolist()
    ys_list = ys.tolist()
    cw_list = cw.tolist()

    best_layer_error = inf
    for k in range(2, eta + 1):
        current = [inf] * n
        # Monotone convex-hull trick: lines f_i(x) = -y_i * x + intercept_i
        # arrive with strictly decreasing slopes, queries at increasing x_j.
        slopes: list[float] = []
        intercepts: list[float] = []
        owners: list[int] = []
        head = 0
        for j in range(k - 1, n):
            i = j - 1
            if prev[i] != inf:
                slope = -ys_list[i]
                intercept = prev[i] - cw_list[i] + ys_list[i] * xs_list[i]
                # Pop hull lines made redundant by the new line.
                while len(slopes) - head >= 2:
                    s1, c1 = slopes[-2], intercepts[-2]
                    s2, c2 = slopes[-1], intercepts[-1]
                    # line 2 is unnecessary if the crossing of line 1 and the
                    # new line lies at or below line 2.
                    if (c2 - c1) * (s2 - slope) >= (intercept - c2) * (
                        s1 - s2
                    ):
                        slopes.pop()
                        intercepts.pop()
                        owners.pop()
                    else:
                        break
                if len(slopes) - head == 1 and slopes[-1] == slope:
                    # Equal slopes cannot happen (ys strictly increase) but
                    # guard against float collapse: keep the lower line.
                    if intercept < intercepts[-1]:
                        intercepts[-1] = intercept
                        owners[-1] = i
                else:
                    slopes.append(slope)
                    intercepts.append(intercept)
                    owners.append(i)
                if head >= len(slopes):
                    head = len(slopes) - 1
            if head < len(slopes):
                x = xs_list[j]
                while head + 1 < len(slopes) and (
                    slopes[head + 1] * x + intercepts[head + 1]
                    <= slopes[head] * x + intercepts[head]
                ):
                    head += 1
                value = slopes[head] * x + intercepts[head]
                current[j] = value + cw_list[j]
                parent[k][j] = owners[head]
        prev = current
    selected = [n - 1]
    j = n - 1
    for k in range(eta, 1, -1):
        j = int(parent[k][j])
        selected.append(j)
    selected.reverse()
    return StaircaseApproximation(np.asarray(selected), float(prev[n - 1]))


def _ingest_layers(
    soccer_ts: np.ndarray, mixed_ids: np.ndarray, mixed_ts: np.ndarray
):
    """(layer, n, vectorized, scalar_fn, batch_fn, verify_fn, oracle_fn).

    ``soccer_ts`` is the fig10 single-stream workload; the mixed columns
    drive the hash/counter/grid layers that need event ids.  Each
    ``verify_fn`` rebuilds the layer once through the scalar path and
    once through the batch path (outside any timed region) and returns
    whether the two end states are bit-identical — serialized bytes for
    the sketches, exact table/index equality for the array layers.

    The PBE rows also carry an ``oracle_fn`` (``None`` elsewhere): a full
    ingest routed through the *seed* compression path, which the tree
    keeps as the cross-check oracles — PBE-1's convex-hull-trick DP
    (:func:`approximate_staircase_cht` below) and PBE-2's
    two-`clipped` half-plane chain.  Timing the oracle in the same run
    gives the batched-floor check a denominator that moves with the
    machine, so a shared runner's slow phases cannot fail the gate nor
    a fast phase hide a real regression.
    """
    soccer_list = soccer_ts.tolist()
    mixed_pairs = list(zip(mixed_ids.tolist(), mixed_ts.tolist()))
    family = HashFamily(depth=3, width=1 << 14, seed=1)

    def hash_scalar():
        for item in mixed_pairs:
            family.hash_all(item[0])

    def countmin_scalar():
        sketch = CountMinSketch(width=2048, depth=3, seed=1)
        for event_id, _ in mixed_pairs:
            sketch.update(event_id)

    def countmin_batch():
        CountMinSketch(width=2048, depth=3, seed=1).update_batch(mixed_ids)

    def pbe1_scalar():
        sketch = PBE1(eta=100, buffer_size=1500)
        sketch.extend(soccer_list)
        sketch.flush()

    def pbe1_batch():
        sketch = PBE1(eta=100, buffer_size=1500)
        sketch.extend_batch(soccer_ts)
        sketch.flush()

    def pbe2_scalar():
        sketch = PBE2(gamma=20.0)
        sketch.extend(soccer_list)
        sketch.finalize()

    def pbe2_batch():
        sketch = PBE2(gamma=20.0)
        sketch.extend_batch(soccer_ts)
        sketch.finalize()

    def cmpbe_scalar():
        CMPBE.with_pbe1(
            eta=100, width=6, depth=3, buffer_size=1500
        ).extend(mixed_pairs)

    def cmpbe_batch():
        CMPBE.with_pbe1(
            eta=100, width=6, depth=3, buffer_size=1500
        ).extend_batch(mixed_ids, mixed_ts)

    def hash_verify():
        batch = family.hash_many(mixed_ids)
        scalar = np.asarray(
            [family.hash_all(int(i)) for i in mixed_ids], dtype=np.int64
        )
        return bool(np.array_equal(batch, scalar))

    def countmin_verify():
        a = CountMinSketch(width=2048, depth=3, seed=1)
        for event_id, _ in mixed_pairs:
            a.update(event_id)
        b = CountMinSketch(width=2048, depth=3, seed=1)
        b.update_batch(mixed_ids)
        return bool(np.array_equal(a._table, b._table))

    def pbe1_verify():
        a = PBE1(eta=100, buffer_size=1500)
        a.extend(soccer_list)
        a.flush()
        b = PBE1(eta=100, buffer_size=1500)
        b.extend_batch(soccer_ts)
        b.flush()
        return dump_pbe1(a) == dump_pbe1(b)

    def pbe2_verify():
        a = PBE2(gamma=20.0)
        a.extend(soccer_list)
        a.finalize()
        b = PBE2(gamma=20.0)
        b.extend_batch(soccer_ts)
        b.finalize()
        return dump_pbe2(a) == dump_pbe2(b)

    def cmpbe_verify():
        a = CMPBE.with_pbe1(eta=100, width=6, depth=3, buffer_size=1500)
        a.extend(mixed_pairs)
        b = CMPBE.with_pbe1(eta=100, width=6, depth=3, buffer_size=1500)
        b.extend_batch(mixed_ids, mixed_ts)
        return dump_cmpbe(a) == dump_cmpbe(b)

    # Seal fold: the partial buffers a durable CM-PBE-1 memtable holds
    # at a seal (the perfbench history-cmpbe1 cells, one 1,000-record
    # seal of the mixed stream), folded cell by cell vs in one sweep.
    # Each call folds fresh copies, so every repeat does the same work.
    seal_grid = CMPBE.with_pbe1(
        eta=60, width=16, depth=5, buffer_size=400, seed=0
    )
    seal_grid.extend_batch(mixed_ids[:SEAL_RECORDS], mixed_ts[:SEAL_RECORDS])
    seal_cells = seal_grid.cells()
    seal_corners = sum(len(cell._buffer_xs) for cell in seal_cells)

    def seal_fold_per_cell():
        copies = copy.deepcopy(seal_cells)
        for cell in copies:
            cell.flush()
        return copies

    def seal_fold_batched():
        copies = copy.deepcopy(seal_cells)
        fold_buffers(copies)
        return copies

    def seal_fold_verify():
        return [dump_pbe1(c) for c in seal_fold_per_cell()] == [
            dump_pbe1(c) for c in seal_fold_batched()
        ]

    def pbe1_oracle():
        import repro.core.pbe1 as pbe1_mod

        def cht(cells, eta):
            return [
                approximate_staircase_cht(xs, ys, eta) for xs, ys in cells
            ]

        saved = pbe1_mod.approximate_staircases
        pbe1_mod.approximate_staircases = cht
        try:
            sketch = PBE1(eta=100, buffer_size=1500)
            sketch.extend(soccer_list)
            sketch.flush()
        finally:
            pbe1_mod.approximate_staircases = saved

    def pbe2_oracle():
        import repro.core.pbe2 as pbe2_mod
        from repro.sketch.geometry import ConvexPolygon, HalfPlane

        def chain_clip(vx, vy, t, lo, hi):
            poly = ConvexPolygon(list(zip(vx, vy)))
            poly = poly.clipped(HalfPlane(-t, -1.0, -lo))
            poly = poly.clipped(HalfPlane(t, 1.0, hi))
            verts = poly.vertices
            return [v[0] for v in verts], [v[1] for v in verts]

        saved = pbe2_mod.clip_strip
        pbe2_mod.clip_strip = chain_clip
        try:
            sketch = PBE2(gamma=20.0)
            sketch.extend(soccer_list)
            sketch.finalize()
        finally:
            pbe2_mod.clip_strip = saved

    return [
        ("hashing", mixed_ids.size, True, hash_scalar,
         lambda: family.hash_many(mixed_ids), hash_verify, None),
        ("countmin", mixed_ids.size, True, countmin_scalar, countmin_batch,
         countmin_verify, None),
        ("pbe1", soccer_ts.size, False, pbe1_scalar, pbe1_batch,
         pbe1_verify, pbe1_oracle),
        ("pbe2", soccer_ts.size, False, pbe2_scalar, pbe2_batch,
         pbe2_verify, pbe2_oracle),
        ("cmpbe-pbe1", mixed_ids.size, False, cmpbe_scalar, cmpbe_batch,
         cmpbe_verify, None),
        ("seal-fold", seal_corners, False, seal_fold_per_cell,
         seal_fold_batched, seal_fold_verify, None),
    ]


#: Tracing-overhead ceilings for the smoke gate, as ratios over the
#: tracing-disabled run: full sampling must stay under 5% slowdown and
#: sample_rate=0.0 (the only cost is one ContextVar read per span site)
#: must stay under 2%.
TRACING_SAMPLED_CEILING = 1.05
TRACING_UNSAMPLED_CEILING = 1.02


def _per_span_seconds(tracer, repeats: int = 3, n: int = 4_000) -> float:
    """Best-of-N per-span cost of entering/exiting one exported span."""
    from repro.core.tracing import set_tracer

    previous = set_tracer(tracer)
    try:
        best = float("inf")
        for _ in range(repeats + 1):  # first pass doubles as warm-up
            start = time.perf_counter()
            for _ in range(n):
                with tracer.span("wal.append", frames=1):
                    pass
            best = min(best, (time.perf_counter() - start) / n)
        return best
    finally:
        set_tracer(previous)


def run_tracing_overhead(
    quick: bool = True, repeats: int = 5, base_dir: Path | None = None
) -> dict:
    """Measure tracing overhead on a durable ingest; returns the ratios
    the smoke gate checks.

    The workload is the instrumented write path itself (WAL appends,
    seals, manifest commits) at batch size 512 — 16x more span sites
    per element than the CLI default of 8192, so per-span cost is
    over- rather than under-weighted while the denominator stays a
    realistic amount of real work per span.  ``fsync="never"`` keeps
    the disk out of the denominator; exporters write real JSONL so the
    measured cost is the production one, not just the in-memory ring.

    The gated ratios are *derived*: exact span count per ingest times
    the tight-loop per-span cost, over the best-of-N ingest time.  A
    direct A/B of two ~100 ms ingests cannot resolve a few-percent
    effect on shared CI hardware (run-to-run scheduler noise is ~10%,
    larger than the quantity being gated), while each derived factor is
    individually stable: the span count is deterministic, the per-span
    microbenchmark is a tight loop, and the denominator uses min-of-N
    (the fastest plausible ingest — the *strictest* denominator).  The
    raw A/B timings are still reported for reference.
    """
    import shutil
    import tempfile

    from repro.core.durable import create_durable
    from repro.core.tracing import JsonlSpanExporter, Tracer, set_tracer

    n = 32_000 if quick else 96_000
    batch = 512
    ts = np.arange(n, dtype=np.float64)
    ids = (np.arange(n) * 7) % 128
    scratch = Path(
        tempfile.mkdtemp(prefix="trace-overhead-", dir=base_dir)
    )
    sequence = [0]

    def ingest_once():
        directory = scratch / f"run-{sequence[0]:04d}"
        sequence[0] += 1
        store = create_durable(
            directory,
            backend="exact",
            fsync="never",
            seal_elements=512,
        )
        for start in range(0, n, batch):
            store.extend_batch(
                ids[start:start + batch], ts[start:start + batch]
            )
        store.flush()
        store.close()
        shutil.rmtree(directory)

    def timed_once(tracer: "Tracer | None") -> float:
        previous = set_tracer(tracer)
        try:
            start = time.perf_counter()
            ingest_once()
            return time.perf_counter() - start
        finally:
            set_tracer(previous)

    try:
        sampled_tracer = Tracer(
            exporters=[JsonlSpanExporter(scratch / "spans-1.jsonl")],
            sample_rate=1.0,
        )
        unsampled_tracer = Tracer(
            exporters=[JsonlSpanExporter(scratch / "spans-0.jsonl")],
            sample_rate=0.0,
        )
        # One sampled run pins the exact span count per ingest, then a
        # round-robin A/B (reported, not gated) with the collector
        # paused as in _best_seconds_of.
        set_tracer(sampled_tracer)
        try:
            ingest_once()
        finally:
            set_tracer(None)
        sampled_spans = len(sampled_tracer.finished_spans())
        gc.collect()
        samples = {"disabled": [], "sampled": [], "unsampled": []}
        gc.disable()
        try:
            for _ in range(repeats):
                samples["disabled"].append(timed_once(None))
                samples["sampled"].append(timed_once(sampled_tracer))
                samples["unsampled"].append(timed_once(unsampled_tracer))
            span_s = _per_span_seconds(sampled_tracer)
            site_s = _per_span_seconds(unsampled_tracer)
        finally:
            gc.enable()
        disabled_s = min(samples["disabled"])
        sampled_s = min(samples["sampled"])
        unsampled_s = min(samples["unsampled"])
        sampled_tracer.close()
        unsampled_tracer.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "n_elements": n,
        "batch": batch,
        "repeats": repeats,
        "disabled_seconds": disabled_s,
        "sampled_seconds": sampled_s,
        "unsampled_seconds": unsampled_s,
        "measured_sampled_ratio": sampled_s / disabled_s,
        "measured_unsampled_ratio": unsampled_s / disabled_s,
        "per_span_seconds": span_s,
        "per_site_unsampled_seconds": site_s,
        "sampled_ratio": 1.0 + sampled_spans * span_s / disabled_s,
        "unsampled_ratio": 1.0 + sampled_spans * site_s / disabled_s,
        "sampled_spans": sampled_spans,
    }


def check_tracing_overhead(section: dict) -> list[str]:
    """Regression gate over a ``run_tracing_overhead`` section."""
    failures = []
    if section["sampled_spans"] <= 0:
        failures.append(
            "tracing: the fully-sampled run recorded no spans — the "
            "overhead measurement exercised nothing"
        )
    if section["sampled_ratio"] > TRACING_SAMPLED_CEILING:
        failures.append(
            f"tracing: sample_rate=1.0 ingest is "
            f"{(section['sampled_ratio'] - 1) * 100:.1f}% slower than "
            f"disabled (ceiling "
            f"{(TRACING_SAMPLED_CEILING - 1) * 100:.0f}%)"
        )
    if section["unsampled_ratio"] > TRACING_UNSAMPLED_CEILING:
        failures.append(
            f"tracing: sample_rate=0.0 ingest is "
            f"{(section['unsampled_ratio'] - 1) * 100:.1f}% slower than "
            f"disabled (ceiling "
            f"{(TRACING_UNSAMPLED_CEILING - 1) * 100:.0f}%)"
        )
    return failures


def run_ingest_comparison(
    quick: bool = False, repeats: int = 3, out_path: Path | None = None
) -> dict:
    """Time scalar vs batched ingest per layer; write BENCH_ingest.json."""
    from repro.workloads.olympics import make_olympicrio, make_soccer_stream

    n_single = 4_000 if quick else 20_000
    n_mixed = 4_000 if quick else 30_000
    soccer_ts = np.asarray(
        make_soccer_stream(total_mentions=n_single).timestamps,
        dtype=np.float64,
    )
    mixed = make_olympicrio(n_events=128, total_mentions=n_mixed)
    mixed_ids, mixed_ts = mixed.as_columns()

    rows = []
    for (
        name, n, vectorized, scalar_fn, batch_fn, verify_fn, oracle_fn
    ) in _ingest_layers(soccer_ts, mixed_ids, mixed_ts):
        # The scalar path, the oracle and the batch path are timed
        # interleaved so the speedup and floor checks compare
        # measurements from the same machine phase (see _ingest_layers).
        if oracle_fn is None:
            oracle_s = None
            scalar_s, batch_s = _best_seconds_of(
                [scalar_fn, batch_fn], repeats
            )
        else:
            scalar_s, oracle_s, batch_s = _best_seconds_of(
                [scalar_fn, oracle_fn, batch_fn],
                max(repeats, FLOOR_REPEATS),
            )
        rows.append(
            {
                "layer": name,
                "n_elements": int(n),
                "vectorized": vectorized,
                "scalar_seconds": scalar_s,
                "batch_seconds": batch_s,
                "scalar_elements_per_s": n / scalar_s,
                "batch_elements_per_s": n / batch_s,
                "speedup": scalar_s / batch_s,
                "oracle_seconds": oracle_s,
                "oracle_elements_per_s": (
                    n / oracle_s if oracle_s is not None else None
                ),
                "bit_identical": bool(verify_fn()),
            }
        )
    payload = {
        "workload": {
            "single_stream": "fig10 soccer",
            "n_single": int(soccer_ts.size),
            "mixed_stream": "olympicrio (128 events)",
            "n_mixed": int(mixed_ids.size),
            "quick": quick,
            "repeats": repeats,
        },
        "rows": rows,
        "max_speedup": max(r["speedup"] for r in rows),
        "metrics": global_registry().snapshot(),
    }
    target = out_path or RESULTS_DIR / "BENCH_ingest.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_ingest_results(payload: dict) -> list[str]:
    """Regression gate over a BENCH_ingest.json payload."""
    failures = []
    for row in payload["rows"]:
        if row["speedup"] < NOISE_TOLERANCE:
            failures.append(
                f"{row['layer']}: batch is slower than scalar "
                f"(speedup {row['speedup']:.2f}x)"
            )
        if row["vectorized"] and row["speedup"] < VECTORIZED_FLOOR:
            failures.append(
                f"{row['layer']}: vectorized layer below "
                f"{VECTORIZED_FLOOR:.0f}x (got {row['speedup']:.2f}x)"
            )
        floor = BATCH_SPEEDUP_FLOORS.get(row["layer"])
        if floor is not None and row["speedup"] < floor:
            failures.append(
                f"{row['layer']}: batch below {floor:.0f}x the per-cell "
                f"loop (got {row['speedup']:.2f}x)"
            )
        if not row.get("bit_identical", True):
            failures.append(
                f"{row['layer']}: batch ingest state diverged from the "
                "scalar oracle (bit-identity check failed)"
            )
        seed_rate = PBE_SEED_SCALAR_RATES.get(row["layer"])
        if seed_rate is not None:
            # Prefer the in-run oracle rate (same machine phase); fall
            # back to the recorded seed constant for old payloads.
            baseline = row.get("oracle_elements_per_s") or seed_rate
            floor = PBE_BATCH_FLOOR_MULTIPLE * baseline * NOISE_TOLERANCE
            if row["batch_elements_per_s"] < floor:
                failures.append(
                    f"{row['layer']}: batched ingest "
                    f"{row['batch_elements_per_s']:,.0f} el/s is below "
                    f"{PBE_BATCH_FLOOR_MULTIPLE:.0f}x the seed "
                    f"compression path ({baseline:,.0f} el/s; floor "
                    f"{floor:,.0f} after noise tolerance)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar-vs-batch ingest throughput comparison"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI smoke preset: --quick workloads, results written to a "
            "scratch file so the committed BENCH_ingest.json is never "
            "clobbered by a noisy runner"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if batching regressed",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.quick = True
        if args.out is None:
            args.out = RESULTS_DIR / "BENCH_ingest.smoke.json"
    payload = run_ingest_comparison(
        quick=args.quick, repeats=args.repeats, out_path=args.out
    )
    if args.smoke:
        # The tracing layer rides along in the smoke preset: an ingest
        # with full sampling must stay within a few percent of one with
        # tracing disabled, and sampling 0.0 within noise of it.
        overhead = run_tracing_overhead(quick=True, repeats=args.repeats)
        payload["tracing_overhead"] = overhead
        if args.out is not None:
            args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"tracing overhead over {overhead['sampled_spans']} spans: "
            f"sampled {(overhead['sampled_ratio'] - 1) * 100:+.1f}%, "
            f"unsampled {(overhead['unsampled_ratio'] - 1) * 100:+.1f}% "
            "vs disabled"
        )
    header = (
        f"{'layer':<12} {'n':>7} {'scalar el/s':>14} "
        f"{'batch el/s':>14} {'speedup':>8} {'identical':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in payload["rows"]:
        print(
            f"{row['layer']:<12} {row['n_elements']:>7} "
            f"{row['scalar_elements_per_s']:>14,.0f} "
            f"{row['batch_elements_per_s']:>14,.0f} "
            f"{row['speedup']:>7.2f}x "
            f"{'yes' if row['bit_identical'] else 'NO':>10}"
        )
    for row in payload["rows"]:
        oracle = row.get("oracle_elements_per_s")
        if oracle:
            print(
                f"{row['layer']}: batch is "
                f"{row['batch_elements_per_s'] / oracle:.2f}x the seed "
                f"compression path ({oracle:,.0f} el/s in this run)"
            )
    print(f"\nmax speedup: {payload['max_speedup']:.1f}x")
    if args.check:
        failures = check_ingest_results(payload)
        if "tracing_overhead" in payload:
            failures += check_tracing_overhead(payload["tracing_overhead"])
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
