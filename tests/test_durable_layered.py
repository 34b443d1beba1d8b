"""Layered durable reads: the exact read view is a stack of immutable parts.

A durable store with an ``exact`` child answers queries over its cached
sealed view, each frozen pending-seal generation and an O(events)
snapshot of the live memtable, without merging them.  Three locks on that:

* a hypothesis differential — every query on the surface, in every
  lifecycle state (memtable only, sealed only, sealed + memtable,
  pending background generations + memtable, right after ``compact()``),
  answers bit-for-bit like an in-memory :class:`ExactStore` oracle fed
  the same prefix;
* snapshot purity — appending after taking a view leaves that view's
  answers unchanged;
* a deterministic guard against the O(history) read-after-write cliff:
  between two seals, write→query rounds never call ``ExactStore.merge``
  (nor serialize the memtable), and sketch children merge pending
  generations into their base once, not once per read.
"""

from __future__ import annotations

import os
import tempfile
import threading
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.durable import DurableBurstStore, create_durable
from repro.core.store import CMPBEStore, ExactStore, create_store

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


def surface(store, tau: float, theta: float, times) -> dict:
    """Every exact-query answer over a fixed panel, as comparable values."""
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


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

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
                merges = _count_calls(monkeypatch, ExactStore, "merge")
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
                merges = _count_calls(monkeypatch, CMPBEStore, "merge")
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
