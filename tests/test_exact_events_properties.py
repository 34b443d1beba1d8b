"""Property tests: exact bursty-event queries from record logs.

:class:`~repro.baselines.exact.ExactBurstStore` answers a bursty-event
query from each stacked table's time-ordered record log: three
``searchsorted`` calls find the windows ``(t - 2 tau, t - tau]`` and
``(t - tau, t]``, two ``bincount`` calls count them per event code, and
the tables' values sum by event id.  These tests pin, at zero tolerance
(float bit patterns, hit order included), that this equals the
per-event scan kept in :mod:`tests.oracles.exact`:

* over plain, stacked, bounded-snapshot, snapshot-of-snapshot,
  ``merge``-derived and ``from_bytes``-derived parts, columnar parts
  read in place by ``load_store`` and merged into one column, and stores
  that append after their log was derived;
* with ``theta <= 0`` (every seen event listed, zeros included), ids
  below zero and at or above ``2**31``, multi-mention records, query
  times that put records exactly at ``t - tau`` and ``t - 2 tau``, and
  tie-heavy, Unix-epoch and signed-zero streams;
* in the raw hit order (falling ``b``, then first-seen order across the
  stack) and, through :class:`ExactStore`, in the canonical order;
* while a writer thread appends to a snapshot's source and grows the
  log buffer under it, the snapshot keeps answering its own prefix;
* a columnar part's derived log equals one stable argsort of the
  table's concatenated runs;
* log columns in their own anonymous mappings (large logs) answer like
  heap-allocated ones.
"""

from __future__ import annotations

import sys
import threading
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import exact
from repro.baselines.exact import ExactBurstStore
from repro.core.serialize import load_store, save_store
from repro.core.store import ExactStore, _canonical_hits
from tests.oracles import exact as oracle

# Negative ids and ids at and past 2**31 share a stream with small ones.
IDS = [-(2**40), -7, -1, 0, 3, 11, 2**31 - 1, 2**31, 2**31 + 5, 2**40]
EPOCH = 1.7e9
TAUS = [0.5, 1.0, 4.0, 25.0]
THETAS = [-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
LAYOUTS = [
    "plain",
    "scalar",
    "stacked",
    "bounded",
    "snapshot-of-snapshot",
    "merged",
    "merged+appended",
    "decoded",
    "columnar",
]
PROPERTIES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def record_streams(draw, min_size: int = 1, max_size: int = 90):
    """A sorted ``(ids, ts, counts)`` stream: tie-heavy integers around
    zero, quarter steps at Unix-epoch scale, or zero-heavy integers
    whose zeros carry random signs; ``counts`` is ``None`` or 1–3."""
    kind = draw(st.sampled_from(["ties", "epoch", "signed-zero"]))
    span = (-4, 4) if kind == "signed-zero" else (-30, 120)
    raw = sorted(
        draw(st.lists(st.integers(*span), min_size=min_size,
                      max_size=max_size))
    )
    if kind == "epoch":
        ts = [EPOCH + 0.25 * t for t in raw]
    else:
        ts = [float(t) for t in raw]
    if kind == "signed-zero":
        signs = draw(
            st.lists(st.booleans(), min_size=len(ts), max_size=len(ts))
        )
        ts = [-0.0 if t == 0.0 and neg else t for t, neg in zip(ts, signs)]
    ids = draw(
        st.lists(st.sampled_from(IDS), min_size=len(ts), max_size=len(ts))
    )
    counts = None
    if draw(st.booleans()):
        counts = np.asarray(
            draw(st.lists(st.integers(1, 3), min_size=len(ts),
                          max_size=len(ts))),
            dtype=np.int64,
        )
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(ts, dtype=np.float64),
        counts,
    )


def _counts(counts, lo, hi):
    return None if counts is None else counts[lo:hi]


def _fed(ids, ts, counts=None) -> ExactStore:
    store = ExactStore()
    if len(ids):
        store.extend_batch(ids, ts, counts)
    return store


def _cuts(n: int, fractions) -> list[int]:
    return [0, *sorted(int(f * n) for f in fractions), n]


def view_of(layout: str, ids, ts, counts, fractions) -> ExactStore:
    """A store answering over the whole stream, built as ``layout``."""
    edges = _cuts(len(ids), fractions)
    pieces = [
        (ids[lo:hi], ts[lo:hi], _counts(counts, lo, hi))
        for lo, hi in zip(edges, edges[1:])
    ]
    parts = [_fed(*piece) for piece in pieces]
    later = ts[-1] + 1.0
    if layout == "plain":
        return _fed(ids, ts, counts)
    if layout == "scalar":
        store = ExactStore()
        for i, (event_id, t) in enumerate(zip(ids.tolist(), ts.tolist())):
            store.update(event_id, t, 1 if counts is None else int(counts[i]))
        return store
    if layout == "stacked":
        return ExactStore.stack(parts)
    if layout == "bounded":
        live = parts.pop()
        parts.append(live.snapshot())
        # Later records of seen events and of ids the view never saw.
        live.extend_batch(IDS, np.full(len(IDS), later))
        live.update(12345, later + 1.0, 2)
        return ExactStore.stack(parts)
    if layout == "snapshot-of-snapshot":
        live = ExactStore.stack(parts[:1])
        for piece in pieces[1:-1]:
            if len(piece[0]):
                live.extend_batch(*piece)
        first = live.snapshot()
        live.update(777, later)  # never seen below
        if len(pieces[-1][0]) and len(pieces) > 1:
            first.extend_batch(*pieces[-1])
        second = first.snapshot()
        first.update(778, later)  # never seen below
        return ExactStore.stack([second])
    if layout in ("merged", "merged+appended"):
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        if layout == "merged":
            return merged
        # A store filled directly derives its log before it grows.
        half = len(ids) // 2
        head = _fed(ids[:half], ts[:half], _counts(counts, 0, half))
        head = head.merge(ExactStore())
        if half < len(ids):
            head.extend_batch(
                ids[half:], ts[half:], _counts(counts, half, None)
            )
        return head
    if layout == "columnar":
        # Parts read in place from their save_store bytes, all but the
        # last merged into one column, the last stacked on top of it.
        loaded = [load_store(save_store(part), lazy=True) for part in parts]
        merged = loaded[0]
        for part in loaded[1:-1]:
            merged = merged.merge(part)
        return ExactStore.stack([merged, loaded[-1]])
    assert layout == "decoded"
    decoded = [ExactStore.from_bytes(part.to_bytes()) for part in parts]
    # A snapshot of a decoded part, whose source then appends.
    last = decoded.pop()
    decoded.append(last.snapshot())
    last.extend_batch(IDS, np.full(len(IDS), later))
    return ExactStore.stack(decoded)


def query_times(ts, tau: float) -> list[float]:
    """Record times and their ``tau`` / ``2 tau`` shifts (records then
    sit exactly on a window edge), plus instants off every record and
    both signed zeros."""
    picks = ts[:: max(1, ts.size // 5)]
    return sorted(
        {
            *picks.tolist(),
            *(picks + tau).tolist(),
            *(picks + 2 * tau).tolist(),
            float(ts.min()) - 1.0,
            float(ts.max()) + 3 * tau,
        }
    ) + [0.0, -0.0]


def bits(hits) -> list[tuple[int, str]]:
    """Hits as comparable values: ids and float bit patterns, in order."""
    return [(hit.event_id, float(hit.burstiness).hex()) for hit in hits]


# ----------------------------------------------------------------------
# The log answers like the per-event scan
# ----------------------------------------------------------------------
@PROPERTIES
@given(
    stream=record_streams(),
    layout=st.sampled_from(LAYOUTS),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    tau=st.sampled_from(TAUS),
    theta=st.sampled_from(THETAS),
)
def test_bursty_events_match_the_scan(stream, layout, fractions, tau, theta):
    ids, ts, counts = stream
    store = view_of(layout, ids, ts, counts, fractions)
    inner = store.inner
    for t in query_times(ts, tau):
        expected = oracle.bursty_events(inner, t, theta, tau)
        assert bits(inner.bursty_events(t, theta, tau)) == bits(expected)
        if theta >= 0:  # the store surface refuses a negative theta
            assert bits(store.bursty_event_query(t, theta, tau)) == bits(
                _canonical_hits(expected)
            )


@PROPERTIES
@given(
    stream=record_streams(),
    layout=st.sampled_from(LAYOUTS),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    tau=st.sampled_from(TAUS),
)
def test_every_layout_answers_like_one_plain_store(
    stream, layout, fractions, tau
):
    ids, ts, counts = stream
    store = view_of(layout, ids, ts, counts, fractions)
    plain = _fed(ids, ts, counts)
    for t in query_times(ts, tau):
        for theta in (0.0, 1.0):
            assert bits(store.bursty_event_query(t, theta, tau)) == bits(
                plain.bursty_event_query(t, theta, tau)
            )


def test_nonpositive_theta_lists_every_seen_event_with_zeros():
    store = ExactBurstStore.from_stream(
        [(5, 0.0), (-3, 1.0), (2**31, 100.0)]
    )
    hits = store.bursty_events(100.0, 0.0, 1.0)
    assert [(h.event_id, h.burstiness) for h in hits] == [
        (2**31, 1.0),
        (5, 0.0),
        (-3, 0.0),
    ]
    negative = store.bursty_events(1.5, -1.0, 1.0)
    assert bits(negative) == bits(oracle.bursty_events(store, 1.5, -1.0, 1.0))
    assert [h.event_id for h in negative] == [-3, 2**31, 5]


def test_raw_ties_keep_first_seen_order_across_the_stack():
    # Table keys (first-seen order): [9, 2], then [4, 2, 1], then [7].
    older = ExactStore()
    older.extend_batch([9, 2], [0.0, 0.0])
    newer = ExactStore()
    for event_id in (4, 2, 1):  # a batch would insert them sorted
        newer.update(event_id, 1.0)
    view = ExactStore.stack([older, newer])
    view.update(7, 1.0)
    hits = view.inner.bursty_events(1.0, 0.0, 5.0)
    # 2 has two records; 9, 4, 1 and 7 tie and keep first-seen order.
    assert [(h.event_id, h.burstiness) for h in hits] == [
        (2, 2.0),
        (9, 1.0),
        (4, 1.0),
        (1, 1.0),
        (7, 1.0),
    ]
    assert bits(hits) == bits(oracle.bursty_events(view.inner, 1.0, 0.0, 5.0))
    assert [h.event_id for h in view.bursty_event_query(1.0, 0.0, 5.0)] == [
        2, 1, 4, 7, 9,
    ]


def test_a_part_derives_its_log_once(monkeypatch):
    calls = []
    original = exact._RecordLog.derived.__func__

    def counting(cls, table):
        calls.append(len(table))
        return original(cls, table)

    part = ExactStore.from_bytes(
        _fed(np.arange(40) % 7, np.arange(40, dtype=np.float64)).to_bytes()
    )
    monkeypatch.setattr(exact._RecordLog, "derived", classmethod(counting))
    assert part.inner._timestamps.log is None  # decoding derives none
    for t in (10.0, 20.0, 30.0):
        ExactStore.stack([part]).bursty_event_query(t, 1.0, 3.0)
        part.bursty_event_query(t, 1.0, 3.0)
    assert calls == [7]


# ----------------------------------------------------------------------
# A snapshot reads its own prefix while the log grows under it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mapped", [False, True])
def test_snapshot_answers_its_prefix_while_a_writer_grows_the_log(
    monkeypatch, mapped
):
    if mapped:  # every column, however small, in its own mapping
        monkeypatch.setattr(exact, "_MAPPED_COLUMN_BYTES", 0)
    rng = np.random.default_rng(11)
    n, batch, tau = 40_000, 64, 15.0
    ids = rng.choice(np.asarray(IDS), n)
    ts = np.sort(rng.integers(0, 4_000, n)).astype(np.float64)
    cut = 1_000
    live = _fed(ids[:cut], ts[:cut])
    view = live.snapshot()
    log = live.inner._timestamps.log
    buffer_at_snapshot = log.ts
    ref = _fed(ids[:cut], ts[:cut]).inner
    probes = [float(t) for t in np.linspace(-10.0, 4_100.0, 17)]
    expected = {
        t: [
            bits(oracle.bursty_events(ref, t, theta, tau))
            for theta in (0, 2)
        ]
        for t in probes
    }
    done = threading.Event()

    def writer():
        try:
            for start in range(cut, n, batch):
                live.extend_batch(
                    ids[start : start + batch], ts[start : start + batch]
                )
        finally:
            done.set()

    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=writer)
        thread.start()
        rounds = 0
        while not done.is_set() or rounds < 3:
            for t in probes:
                got = [
                    bits(view.inner.bursty_events(t, theta, tau))
                    for theta in (0, 2)
                ]
                if got != expected[t]:
                    failures.append((rounds, t))
            rounds += 1
        thread.join(timeout=120)
        assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert log.ts is not buffer_at_snapshot  # the writer grew the buffer
    assert isinstance(log.ts.base, memoryview) == mapped
    assert log.n == live.count == n


@pytest.mark.parametrize("count", [1, 3])
def test_log_growth_keeps_the_prefix(count):
    store = ExactBurstStore()
    for i in range(2_000):
        store.update(i % 13 - 6, float(i // 3), count)
    log = store._timestamps.log
    assert log.n == store.count == 2_000 * count
    assert log.ts.size < 2 * log.n  # grown by a quarter, not doubled
    for t in (0.0, 100.5, 400.0, 667.0):
        assert bits(store.bursty_events(t, -1.0, 7.0)) == bits(
            oracle.bursty_events(store, t, -1.0, 7.0)
        )


@pytest.mark.parametrize(
    "layout", ["plain", "scalar", "merged", "decoded", "columnar"]
)
def test_mapped_columns_answer_like_heap_columns(monkeypatch, layout):
    rng = np.random.default_rng(5)
    ids = rng.choice(np.asarray(IDS), 3_000)
    ts = np.sort(rng.integers(-50, 900, 3_000)).astype(np.float64)
    counts = rng.integers(1, 3, 3_000)
    fractions = [0.3, 0.6]
    heap = view_of(layout, ids, ts, counts, fractions)
    monkeypatch.setattr(exact, "_MAPPED_COLUMN_BYTES", 0)
    mapped = view_of(layout, ids, ts, counts, fractions)
    for t in query_times(ts, 6.0):
        expected = oracle.bursty_events(heap.inner, t, 0.0, 6.0)
        assert bits(mapped.inner.bursty_events(t, 0.0, 6.0)) == bits(expected)
        assert bits(heap.inner.bursty_events(t, 0.0, 6.0)) == bits(expected)
    logs = [exact._log_of(table) for table in mapped.inner._tables]
    assert all(isinstance(log.ts.base, memoryview) for log in logs if log.n)


@PROPERTIES
@given(
    stream=record_streams(min_size=2, max_size=150),
    layout=st.sampled_from(["merged", "decoded", "columnar"]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    tau=st.sampled_from(TAUS),
)
def test_derived_log_equals_one_stable_argsort(stream, layout, fractions, tau):
    ids, ts, counts = stream
    store = view_of(layout, ids, ts, counts, fractions)
    for table in store.inner._tables:
        if not table or table.log is not None:
            continue
        lists = list(table.values())
        flat = np.fromiter(chain.from_iterable(lists), np.float64)
        order = np.argsort(flat, kind="stable")
        owner = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
        log = exact._log_of(table)
        assert log.ts[: log.n].tobytes() == flat[order].tobytes()
        assert log.codes[: log.n].tolist() == owner[order].tolist()
        assert log.keys == list(table)
    for t in query_times(ts, tau):
        assert bits(store.inner.bursty_events(t, 0.0, tau)) == bits(
            oracle.bursty_events(store.inner, t, 0.0, tau)
        )


def test_derived_log_keeps_tie_order():
    # Tie-heavy: 20,000 records on 300 distinct times, so the argsort
    # meets long runs of equal times from many events.
    rng = np.random.default_rng(17)
    ts = np.sort(rng.integers(0, 300, 20_000)).astype(np.float64)
    ids = rng.choice(np.asarray(IDS), ts.size)
    store = _fed(ids, ts).merge(ExactStore())
    table, own = store.inner._tables
    assert not own
    lists = list(table.values())
    flat = np.fromiter(chain.from_iterable(lists), np.float64)
    order = np.argsort(flat, kind="stable")
    owner = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
    log = exact._log_of(table)
    assert log.ts.tobytes() == flat[order].tobytes()
    assert log.codes.tolist() == owner[order].tolist()
