"""Layered durable reads: the exact read view is a stack of immutable parts.

A durable store with an ``exact`` child answers queries over its cached
sealed view (a stack of the segments), each frozen pending-seal
generation and a snapshot of the live memtable that copies only its
record log's per-event counts, without merging them.  The locks on that:

* a hypothesis differential — every query on the surface, in every
  lifecycle state (memtable only, sealed only, sealed + memtable,
  pending background generations + memtable, right after ``compact()``),
  answers bit-for-bit like an in-memory :class:`ExactStore` oracle fed
  the same prefix;
* the same differential after any drawn schedule of writes, seals,
  compactions and one ``recover()``;
* snapshot purity — appending after taking a view leaves that view's
  answers unchanged;
* deterministic guards against the O(history) read cliffs: between two
  seals, write→query rounds never call the exact merge hook
  ``ExactStore._merged`` (nor serialize the memtable) and never iterate
  the memtable's table, even with thousands of events; no read merges
  after a seal, a compaction swap or a recovery either (only the
  compaction's own merge calls the hook); a seal hands the frozen
  memtable's record log to the new segment, so an events query over it
  derives none; and sketch children merge pending generations into
  their base once, not once per read;
* the two store operations the read view is built from, on every
  backend of the test matrix: a ``snapshot()`` answers unchanged after
  its source ingests more, and ``stack(parts)`` over consecutive parts
  answers like nested two-part ``merge`` calls;
* sketch children read their memtable's PBE-1 buffers as they stand:
  a hypothesis differential pins durable ``cm-pbe-1`` and ``index``
  stores, over any write split, seal and compaction schedule and one
  ``recover()``, to in-memory stores finalized at each seal point;
  write→query rounds and the first query after a recovery call the DP
  (``approximate_staircases``) 0 times; and a durable merge still
  saves each memtable folded, as a seal writes it.
"""

from __future__ import annotations

import inspect
import os
import tempfile
import threading
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import exact
from repro.core import pbe1
from repro.core.durable import DurableBurstStore, create_durable, recover
from repro.core.parallel import merge_stores
from repro.core.serialize import save_store
from repro.core.store import CMPBEStore, ExactStore, create_store

from tests.backends import BACKEND_IDS, BACKEND_MATRIX
from tests.backends import UNIVERSE as MATRIX_UNIVERSE

UNIVERSE = 5
STATES = ("memtable", "sealed", "sealed+memtable", "pending", "compacted")


@st.composite
def streams(draw, min_size=24, max_size=140):
    """Timestamp-ordered ``(ids, ts, counts)`` columns with ties and
    occasional multi-mention records."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            min_size=n,
            max_size=n,
        )
    )
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.5]),
            min_size=n,
            max_size=n,
        )
    )
    counts = None
    if draw(st.booleans()):
        counts = np.asarray(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=3),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
    ts = 10.0 + np.cumsum(np.asarray(gaps, dtype=np.float64))
    return np.asarray(ids, dtype=np.int64), ts, counts


def _slice(counts, start, stop):
    return None if counts is None else counts[start:stop]


def _oracle(ids, ts, counts):
    oracle = ExactStore()
    if len(ids):
        oracle.extend_batch(ids, ts, counts)
    return oracle


def surface(store, tau: float, theta: float, times, records=True) -> dict:
    """Every query answer over a fixed panel, as comparable values
    (``records=False`` leaves out ``export_records``, which only record-
    retaining backends answer)."""
    times = [float(t) for t in times]
    out = {}
    for event in range(UNIVERSE + 1):  # the last id is never ingested
        out["point", event] = [
            store.point_query(event, t, tau) for t in times
        ]
        out["cf", event] = [
            store.cumulative_frequency(event, t) for t in times
        ]
        out["starts", event] = store.segment_starts(event)
        out["times", event] = store.bursty_time_query(event, theta, tau)
        out["times_end", event] = store.bursty_time_query(
            event, theta, tau, t_end=times[-2]
        )
        out["times_gap", event] = store.bursty_time_query(
            event, theta, tau, merge_gap=tau
        )
        out["times_linear", event] = store.bursty_time_query(
            event, theta, tau, piecewise="linear"
        )
        out["peak", event] = store.peak_query(
            event, times[1], times[-2], tau
        )
    batch_ids = np.repeat(np.arange(UNIVERSE + 1), len(times))
    batch_ts = np.tile(np.asarray(times), UNIVERSE + 1)
    answers = store.point_query_batch(batch_ids, batch_ts, tau)
    out["batch"] = (answers.dtype.str, answers.tobytes())
    for t in times:
        out["events", t] = store.bursty_event_query(t, theta, tau)
        out["events0", t] = store.bursty_event_query(t, 0.0, tau)
    if records:
        rec_ids, rec_ts = store.export_records()
        out["export"] = (
            rec_ids.dtype.str,
            rec_ids.tobytes(),
            rec_ts.dtype.str,
            rec_ts.tobytes(),
        )
    out["count"] = store.count
    return out


def panel_times(ts, tau: float, extra=()) -> list[float]:
    """Query instants spanning the history, plus exact record times
    (the step function's breakpoints)."""
    grid = np.linspace(float(ts[0]) - 2 * tau, float(ts[-1]) + 3 * tau, 9)
    return sorted(set(grid.tolist()) | {float(t) for t in extra})


@contextmanager
def held_background_seals():
    """Hold every background seal at its start until the block exits,
    so frozen generations stay pending while the test reads."""
    gate = threading.Event()
    original = DurableBurstStore._complete_seal

    def gated(self, job):
        gate.wait()
        return original(self, job)

    with mock.patch.object(DurableBurstStore, "_complete_seal", gated):
        try:
            yield gate
        finally:
            gate.set()


def build(state: str, directory: str, ids, ts, counts, seal: int):
    """A durable exact store in ``state`` holding the given records."""
    kwargs = dict(backend="exact", fsync="never")
    if state == "memtable":
        store = create_durable(directory, seal_elements=10**9, **kwargs)
    elif state == "pending":
        store = create_durable(
            directory,
            seal_elements=seal,
            background_seal=True,
            max_unsealed=10**6,
            **kwargs,
        )
    else:
        store = create_durable(directory, seal_elements=seal, **kwargs)
    store.extend_batch(ids, ts, counts)
    if state == "sealed":
        store.seal()
    elif state == "compacted":
        store.compact(fanin=2, min_segments=2)
    return store


class TestLayeredReadDifferential:
    @pytest.mark.parametrize("state", STATES)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stream=streams(),
        seal=st.integers(min_value=3, max_value=20),
        split=st.floats(min_value=0.4, max_value=0.9),
        tau=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
        theta=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_matches_exact_oracle_and_views_stay_pure(
        self, state, stream, seal, split, tau, theta
    ):
        ids, ts, counts = stream
        cut = max(1, int(split * ids.size))
        times = panel_times(ts, tau, extra=ts[:: max(1, ids.size // 6)])
        with (
            tempfile.TemporaryDirectory() as root,
            held_background_seals() as gate,
        ):
            store = build(
                state,
                os.path.join(root, "s"),
                ids[:cut],
                ts[:cut],
                _slice(counts, 0, cut),
                seal,
            )
            try:
                prefix = _oracle(
                    ids[:cut], ts[:cut], _slice(counts, 0, cut)
                )
                expected = surface(prefix, tau, theta, times)
                if state == "memtable":
                    assert store.n_segments == 0
                elif state == "sealed":
                    assert store._memtable_elements == 0
                elif state == "pending" and prefix.count >= seal:
                    assert store.seal_queue_depth >= 1
                assert surface(store, tau, theta, times) == expected

                # Purity: a view taken now never sees later appends.
                view = store._read_view()
                assert surface(view, tau, theta, times) == expected
                store.extend_batch(
                    ids[cut:], ts[cut:], _slice(counts, cut, None)
                )
                assert surface(view, tau, theta, times) == expected
                full = surface(
                    _oracle(ids, ts, counts), tau, theta, times
                )
                assert surface(store, tau, theta, times) == full
                if state == "pending":
                    # Committing the held generations swaps parts,
                    # not answers.
                    gate.set()
                    store.drain_seals()
                    assert store.seal_queue_depth == 0
                    assert surface(store, tau, theta, times) == full
                if state == "compacted":
                    store.compact(fanin=2, min_segments=2)
                    assert surface(store, tau, theta, times) == full
            finally:
                gate.set()
                store.close()

    def test_compaction_actually_splices_segments(self, tmp_path):
        ids = np.arange(60, dtype=np.int64) % UNIVERSE
        ts = np.arange(60, dtype=np.float64)
        store = build("compacted", str(tmp_path / "s"), ids, ts, None, 7)
        try:
            assert 1 <= store.n_segments < 60 // 7
            assert store._memtable_elements == 60 % 7
            times = panel_times(ts, 2.0)
            assert surface(store, 2.0, 1.0, times) == surface(
                _oracle(ids, ts, None), 2.0, 1.0, times
            )
        finally:
            store.close()


STEPS = ("write", "write", "seal", "compact")


class TestLifecycleScheduleDifferential:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stream=streams(min_size=40, max_size=160),
        steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=14),
        recover_at=st.integers(min_value=0, max_value=14),
        seal=st.integers(min_value=3, max_value=25),
        tau=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
        theta=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_any_schedule_answers_like_the_exact_oracle(
        self, stream, steps, recover_at, seal, tau, theta
    ):
        ids, ts, counts = stream
        times = panel_times(ts, tau, extra=ts[:: max(1, ids.size // 6)])
        writes = max(1, steps.count("write"))
        size = -(-ids.size // writes)
        steps = [*steps[:recover_at], "recover", *steps[recover_at:]]
        written = 0
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "s")
            store = create_durable(
                path, backend="exact", seal_elements=seal, fsync="never"
            )
            try:
                for step in steps:
                    if step == "write" and written < ids.size:
                        stop = min(ids.size, written + size)
                        store.extend_batch(
                            ids[written:stop],
                            ts[written:stop],
                            _slice(counts, written, stop),
                        )
                        written = stop
                    elif step == "seal":
                        store.seal()
                    elif step == "compact":
                        store.compact(fanin=2, min_segments=2)
                    elif step == "recover":
                        store.close()
                        store = recover(path, fsync="never")
                expected = surface(
                    _oracle(
                        ids[:written],
                        ts[:written],
                        _slice(counts, 0, written),
                    ),
                    tau,
                    theta,
                    times,
                )
                assert surface(store, tau, theta, times) == expected
            finally:
                store.close()


def _count_calls(monkeypatch, cls, name):
    """Record each call of the method or classmethod ``cls.<name>``."""
    calls = []
    original = getattr(cls, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    if isinstance(inspect.getattr_static(cls, name), classmethod):
        counting = staticmethod(counting)  # ``original`` is bound to cls
    monkeypatch.setattr(cls, name, counting)
    return calls


def _ask_all(store, i: int, t: float) -> None:
    ids = np.arange(UNIVERSE + 1)
    store.point_query_batch(ids, np.full(ids.size, t), 5.0)
    store.point_query(i % UNIVERSE, t, 5.0)
    store.bursty_event_query(t, 1.0, 5.0)
    store.bursty_time_query(i % UNIVERSE, 1.0, 5.0)
    store.peak_query(i % UNIVERSE, t - 20.0, t, 5.0)


class TestNoReadAfterWriteCliff:
    """Deterministic: counts calls, never times them."""

    @pytest.mark.parametrize("background", [False, True])
    def test_write_query_rounds_between_seals_never_merge(
        self, tmp_path, monkeypatch, background
    ):
        ids = np.arange(5_000, dtype=np.int64) % UNIVERSE
        ts = np.arange(5_000, dtype=np.float64)
        seals = (
            held_background_seals()
            if background
            else nullcontext(threading.Event())
        )
        with seals as gate:
            store = create_durable(
                tmp_path / "s",
                backend="exact",
                seal_elements=1_000,
                fsync="never",
                background_seal=background,
                max_unsealed=10,
            )
            try:
                store.extend_batch(ids[:2_500], ts[:2_500])
                _ask_all(store, 0, 2_499.0)  # folds the sealed segments once
                parts = (store.n_segments, store.seal_queue_depth)
                assert parts == ((0, 2) if background else (2, 0))
                merges = _count_calls(monkeypatch, ExactStore, "_merged")
                codecs = _count_calls(monkeypatch, ExactStore, "to_bytes")
                for i in range(40):
                    start = 2_500 + 10 * i
                    store.extend_batch(
                        ids[start : start + 10], ts[start : start + 10]
                    )
                    _ask_all(store, i, float(ts[start + 9]))
                assert (store.n_segments, store.seal_queue_depth) == parts
                assert merges == []
                assert codecs == []
            finally:
                gate.set()
                store.close()

    def test_reads_never_merge_after_seal_compaction_or_recovery(
        self, tmp_path, monkeypatch
    ):
        ids = np.arange(5_000, dtype=np.int64) % UNIVERSE
        ts = np.arange(5_000, dtype=np.float64)
        reading = threading.local()
        read_view = DurableBurstStore._read_view
        merged = inspect.getattr_static(ExactStore, "_merged").__func__
        merges = []

        def counted_read_view(self):
            depth = getattr(reading, "depth", 0)
            reading.depth = depth + 1
            try:
                return read_view(self)
            finally:
                reading.depth = depth

        def counted_merged(cls, parts):
            if getattr(reading, "depth", 0):  # not compaction's own merge
                merges.append(len(parts))
            return merged(cls, parts)

        monkeypatch.setattr(DurableBurstStore, "_read_view", counted_read_view)
        monkeypatch.setattr(ExactStore, "_merged", classmethod(counted_merged))
        compactions = _count_calls(monkeypatch, ExactStore, "_merged")
        path = tmp_path / "s"
        store = create_durable(
            path, backend="exact", seal_elements=1_000, fsync="never"
        )
        try:
            store.extend_batch(ids[:2_500], ts[:2_500])  # two seals
            assert store.n_segments == 2
            _ask_all(store, 0, 2_499.0)
            store.extend_batch(ids[2_500:3_000], ts[2_500:3_000])  # a seal
            assert store.n_segments == 3
            _ask_all(store, 1, 2_999.0)
            assert store.compact(fanin=2, min_segments=2) >= 1  # a swap
            assert compactions and 2 <= store.n_segments < 3
            _ask_all(store, 2, 2_999.0)
            store.extend_batch(ids[3_000:3_300], ts[3_000:3_300])
        finally:
            store.close()
        store = recover(path, fsync="never")
        try:
            assert store.n_segments >= 2 and store.count == 3_300
            _ask_all(store, 3, 3_299.0)  # the first query after recovery
        finally:
            store.close()
        assert merges == []

    def test_memtable_snapshots_never_walk_the_table(
        self, tmp_path, monkeypatch
    ):
        # Thousands of memtable events: each read view's snapshot bounds
        # the memtable by its log's per-code counts, so no write→query
        # round iterates the memtable's own table.
        n_events = 4_000
        ids = np.arange(3 * n_events, dtype=np.int64) % n_events
        ts = np.arange(ids.size, dtype=np.float64)
        store = create_durable(
            tmp_path / "s", backend="exact", seal_elements=10**6, fsync="never"
        )
        try:
            store.extend_batch(ids[: 2 * n_events], ts[: 2 * n_events])
            table = store._memtable.inner._timestamps
            assert len(table) == n_events and store.n_segments == 0
            walks = []
            for name in ("__iter__", "items", "keys", "values"):
                original = getattr(exact._Table, name)

                def counting(self, *args, _name=name, _original=original):
                    if self is table:
                        walks.append(_name)
                    return _original(self, *args)

                monkeypatch.setattr(exact._Table, name, counting)
            for i in range(20):
                start = 2 * n_events + 50 * i
                store.extend_batch(
                    ids[start : start + 50], ts[start : start + 50]
                )
                _ask_all(store, i, float(ts[start + 49]))
            assert store._memtable.inner._timestamps is table
            assert walks == []
        finally:
            store.close()

    def test_a_seal_hands_its_log_to_the_new_segment(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(8)
        ids = rng.integers(-3, 2 * UNIVERSE, 1_500)
        ts = np.sort(rng.integers(0, 600, 1_500)).astype(np.float64)
        store = create_durable(
            tmp_path / "s", backend="exact", seal_elements=1_000, fsync="never"
        )
        oracle = _oracle(ids, ts, None)
        try:
            store.extend_batch(ids, ts)
            assert store.n_segments == 1 and store._memtable_elements == 500
            derived = _count_calls(monkeypatch, exact._RecordLog, "derived")
            for t in (ts[0], ts[500], ts[999], ts[1_200], ts[-1] + 3.0):
                for theta in (0.0, 2.0):
                    assert store.bursty_event_query(
                        t, theta, 5.0
                    ) == oracle.bursty_event_query(t, theta, 5.0)
            assert derived == []
        finally:
            store.close()

    def test_sketch_pending_generations_fold_once(
        self, tmp_path, monkeypatch
    ):
        cfg = dict(universe_size=UNIVERSE, eta=20, width=4, depth=2, seed=0)
        ids = np.arange(400, dtype=np.int64) % UNIVERSE
        ts = np.arange(400, dtype=np.float64)
        panel = np.arange(UNIVERSE)
        with held_background_seals() as gate:
            store = create_durable(
                tmp_path / "s",
                backend="cm-pbe-1",
                seal_elements=100,
                fsync="never",
                background_seal=True,
                max_unsealed=10,
                **cfg,
            )
            try:
                store.extend_batch(ids[:350], ts[:350])
                assert store.seal_queue_depth == 3
                store.point_query(0, 349.0, 5.0)  # folds the base once
                merges = _count_calls(monkeypatch, CMPBEStore, "_merged")
                rounds = 9
                for i in range(rounds):
                    start = 350 + 5 * i
                    store.extend_batch(
                        ids[start : start + 5], ts[start : start + 5]
                    )
                    store.point_query(0, float(ts[start + 4]), 5.0)
                assert store.seal_queue_depth == 3
                # One merge per new view: the base + the memtable part.
                assert len(merges) == rounds
                held = store.point_query_batch(
                    panel, np.full(UNIVERSE, 394.0), 5.0
                )
            finally:
                gate.set()
                store.close()
        # Same answers as a store that folds every part per read: an
        # ephemeral store with the same seal threshold.
        with create_store(
            "durable", backend="cm-pbe-1", seal_elements=100, **cfg
        ) as oracle:
            oracle.extend_batch(ids[:395], ts[:395])
            expected = oracle.point_query_batch(
                panel, np.full(UNIVERSE, 394.0), 5.0
            )
        assert held.tobytes() == expected.tobytes()


@pytest.mark.parametrize("backend", ["exact", "cm-pbe-1"])
def test_close_drops_the_read_view_caches_and_keeps_answers(
    tmp_path, backend
):
    # A closed store that is still referenced must not pin a merged copy
    # of its history; the next read rebuilds the view from its segments.
    cfg = (
        {}
        if backend == "exact"
        else dict(universe_size=UNIVERSE, eta=20, width=4, depth=2, seed=0)
    )
    ids = np.arange(330, dtype=np.int64) % UNIVERSE
    ts = np.arange(330, dtype=np.float64)
    store = create_durable(
        tmp_path / "s",
        backend=backend,
        seal_elements=100,
        fsync="never",
        **cfg,
    )
    panel = np.arange(UNIVERSE + 1)

    def answers():
        return (
            store.point_query_batch(
                panel, np.full(panel.size, 329.0), 5.0
            ).tobytes(),
            store.bursty_event_query(329.0, 1.0, 5.0),
            store.bursty_event_query(200.0, 0.0, 5.0),
            store.bursty_time_query(1, 1.0, 5.0),
        )

    try:
        store.extend_batch(ids, ts)
        assert store.n_segments == 3 and store._memtable_elements == 30
        before = answers()
        assert store._view is not None and store._sealed_view is not None
    finally:
        store.close()
    assert (store._view, store._lower, store._sealed_view) == (None,) * 3
    assert answers() == before


# ----------------------------------------------------------------------
# snapshot / stack: the two operations the read view is built from
# ----------------------------------------------------------------------
def _matrix_stream(n=900):
    """A fixed timestamp-ordered stream over the matrix universe, with
    tied timestamps."""
    rng = np.random.default_rng(25)
    ids = rng.integers(0, MATRIX_UNIVERSE, n).astype(np.int64)
    ts = np.sort(np.round(rng.uniform(0.0, 1_000.0, n) * 2.0) / 2.0)
    return ids, ts


def _cut(ts, at: int) -> int:
    """The first index from ``at`` that does not split a timestamp tie."""
    while ts[at] == ts[at - 1]:
        at += 1
    return at


def _matrix_answers(store) -> tuple:
    """One answer of every query type over a fixed panel (any backend)."""
    panel = np.arange(MATRIX_UNIVERSE + 1)
    return (
        store.count,
        store.point_query_batch(
            panel, np.full(panel.size, 700.0), 60.0
        ).tobytes(),
        store.point_query(3, 400.0, 60.0),
        store.bursty_event_query(700.0, 2.0, 60.0),
        store.bursty_time_query(3, 2.0, 60.0),
        store.peak_query(5, 100.0, 900.0, 60.0),
    )


@pytest.mark.parametrize("label, backend, cfg", BACKEND_MATRIX, ids=BACKEND_IDS)
def test_snapshot_answers_unchanged_after_its_source_ingests(
    label, backend, cfg
):
    ids, ts = _matrix_stream()
    cut = _cut(ts, 500)
    with create_store(backend, **cfg) as store:
        store.extend_batch(ids[:cut], ts[:cut])
        snapshot = store.snapshot()
        before = _matrix_answers(snapshot)
        if getattr(getattr(store, "spec", None), "kind", None) == "pbe1":
            # A PBE-1 sketch's snapshot reads its buffers as they stand,
            # so it answers like its source, not like the folded codec.
            assert before == _matrix_answers(store)
        else:
            saved = type(store).from_bytes(store.to_bytes())
            assert before == _matrix_answers(saved)
        store.extend_batch(ids[cut:], ts[cut:])
        assert _matrix_answers(snapshot) == before


@pytest.mark.parametrize("label, backend, cfg", BACKEND_MATRIX, ids=BACKEND_IDS)
def test_stack_answers_like_the_merge_fold(label, backend, cfg):
    ids, ts = _matrix_stream()
    bounds = [0, _cut(ts, 300), _cut(ts, 600), ids.size]
    parts = []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            part = create_store(backend, **cfg)
            parts.append(part)
            part.extend_batch(ids[start:stop], ts[start:stop])
        folded = parts[0].merge(parts[1]).merge(parts[2])
        stacked = type(parts[0]).stack(parts)
        assert _matrix_answers(stacked) == _matrix_answers(folded)
    finally:
        for part in parts:
            part.close()


# ----------------------------------------------------------------------
# Sketch children: a read folds no PBE-1 buffer
# ----------------------------------------------------------------------
# Small corner budgets, so that folding a buffer changes its corners.
PBE1_SKETCHES = [
    (
        "cm-pbe-1",
        dict(universe_size=UNIVERSE, eta=3, buffer_size=9, width=3, depth=3),
    ),
    (
        "index",
        dict(
            universe_size=UNIVERSE,
            cell="pbe1",
            eta=3,
            buffer_size=9,
            width=3,
            depth=3,
        ),
    ),
]
SKETCH_STEPS = ("write", "write", "write", "seal", "compact")


@contextmanager
def _buffers_read_as_kept(store):
    """Append every PBE-1 buffer of an in-memory ``store`` to its kept
    corners for the block (the curve the store answers with, which a
    merge then copies and does not fold), then put the buffers back."""
    cells = [cell for level in store._levels() for cell in level.cells()]
    saved = [
        (c._kept_xs, c._kept_ys, c._buffer_xs, c._buffer_ys) for c in cells
    ]
    for cell in cells:
        cell._kept_xs, cell._kept_ys = cell._corner_arrays()
        cell._buffer_xs, cell._buffer_ys = [], []
    try:
        yield
    finally:
        for cell, state in zip(cells, saved):
            (
                cell._kept_xs,
                cell._kept_ys,
                cell._buffer_xs,
                cell._buffer_ys,
            ) = state


class _SealedInMemory:
    """In-memory stores fed a durable store's records, with
    ``finalize()`` where the durable store seals.

    One store takes every record, except across a seal that splits a
    timestamp tie: there a durable store starts the tied records in a
    new memtable corner, where one in-memory store would grow its last
    kept corner, so a new in-memory store takes the records after it.
    A read merges the closed stores with the open one read as it stands.
    """

    def __init__(self, backend: str, cfg: dict, seal: int, stream) -> None:
        self.backend, self.cfg, self.seal_elements = backend, cfg, seal
        self.ids, self.ts, self.counts = stream
        self.closed: list = []
        self.open = create_store(backend, **cfg)
        self.written = 0
        self.elements = 0  # in the durable store's memtable

    def write(self, stop: int) -> None:
        """Records ``[written, stop)``, sealing as the durable store
        does: after the record that brings its memtable to
        ``seal_elements`` stream elements."""
        for i in range(self.written, stop):
            self.open.extend_batch(
                self.ids[i : i + 1],
                self.ts[i : i + 1],
                _slice(self.counts, i, i + 1),
            )
            self.written = i + 1
            self.elements += 1 if self.counts is None else int(self.counts[i])
            if self.elements >= self.seal_elements:
                self.seal()

    def seal(self) -> None:
        if self.elements == 0:
            return
        self.open.finalize()
        self.elements = 0
        i = self.written
        if i < len(self.ts) and self.ts[i] == self.ts[i - 1]:
            self.closed.append(self.open)
            self.open = create_store(self.backend, **self.cfg)

    def view(self):
        if not self.closed:
            return self.open
        if self.open.count == 0:
            return merge_stores(self.closed)
        with _buffers_read_as_kept(self.open):
            return merge_stores([*self.closed, self.open])


class TestSketchReadsFoldNothing:
    @pytest.mark.parametrize(
        "backend, cfg", PBE1_SKETCHES, ids=[b for b, _ in PBE1_SKETCHES]
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stream=streams(min_size=40, max_size=140),
        steps=st.lists(
            st.sampled_from(SKETCH_STEPS), min_size=1, max_size=12
        ),
        recover_at=st.none() | st.integers(min_value=0, max_value=12),
        seal=st.integers(min_value=3, max_value=40),
        tau=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
        theta=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_reads_answer_like_in_memory_finalized_at_each_seal(
        self, backend, cfg, stream, steps, recover_at, seal, tau, theta
    ):
        ids, ts, counts = stream
        times = panel_times(ts, tau, extra=ts[:: max(1, ids.size // 6)])
        writes = max(1, steps.count("write"))
        size = -(-ids.size // writes)
        if recover_at is not None:
            steps = [*steps[:recover_at], "recover", *steps[recover_at:]]
        oracle = _SealedInMemory(backend, cfg, seal, stream)
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "s")
            store = create_durable(
                path,
                backend=backend,
                seal_elements=seal,
                fsync="never",
                **cfg,
            )
            try:
                for step in steps:
                    if step == "write" and oracle.written < ids.size:
                        start = oracle.written
                        stop = min(ids.size, start + size)
                        store.extend_batch(
                            ids[start:stop],
                            ts[start:stop],
                            _slice(counts, start, stop),
                        )
                        oracle.write(stop)
                    elif step == "seal":
                        store.seal()
                        oracle.seal()
                    elif step == "compact":
                        store.compact(fanin=2, min_segments=2)
                    elif step == "recover":
                        store.close()
                        store = recover(path, fsync="never")
                    if oracle.written:
                        assert surface(
                            store, tau, theta, times, records=False
                        ) == surface(
                            oracle.view(), tau, theta, times, records=False
                        )
            finally:
                store.close()

    def test_write_query_rounds_and_recovery_run_no_dp(
        self, tmp_path, monkeypatch
    ):
        # Every cell's buffer holds more than eta corners, so a fold
        # would run the DP; seal_elements < buffer_size, so between
        # seals no write fills a buffer either.
        cfg = dict(universe_size=UNIVERSE, eta=3, buffer_size=400, width=3)
        ids = np.arange(1_000, dtype=np.int64) % UNIVERSE
        ts = np.arange(1_000, dtype=np.float64)
        path = tmp_path / "s"
        store = create_durable(
            path, backend="cm-pbe-1", seal_elements=300, fsync="never", **cfg
        )
        dp = _count_calls(monkeypatch, pbe1, "approximate_staircases")
        try:
            store.extend_batch(ids[:650], ts[:650])
            assert store.n_segments == 2 and dp  # the seals fold
            dp.clear()
            for i in range(24):
                start = 650 + 10 * i
                store.extend_batch(
                    ids[start : start + 10], ts[start : start + 10]
                )
                _ask_all(store, i, float(ts[start + 9]))
            assert store.n_segments == 2
            assert dp == []
        finally:
            store.close()
        store = recover(path, fsync="never")
        try:
            assert store._memtable_elements == 290
            _ask_all(store, 0, 889.0)  # the first query after recovery
            assert dp == []
        finally:
            store.close()


def test_a_durable_merge_saves_each_memtable_as_a_seal_writes_it():
    cfg = dict(universe_size=UNIVERSE, eta=3, buffer_size=50, width=3)
    ids = np.arange(400, dtype=np.int64) % UNIVERSE
    ts = np.arange(400, dtype=np.float64)
    parts = []
    for lo, hi in ((0, 170), (170, 400)):
        part = create_store(
            "durable", backend="cm-pbe-1", seal_elements=100, **cfg
        )
        part.extend_batch(ids[lo:hi], ts[lo:hi])
        assert part.n_segments >= 1 and part._memtable_elements > 0
        parts.append(part)
    segments = []
    for part in parts:
        memtable = part._memtable
        segments.extend(part._parts_locked())
        segments.append(type(memtable).from_bytes(memtable.to_bytes()))
    sealed = DurableBurstStore(
        None,
        backend="cm-pbe-1",
        seal_elements=100,
        _segments=segments,
        **cfg,
    )
    sealed._t_end = parts[-1]._t_end
    assert save_store(merge_stores(parts)) == save_store(sealed)
