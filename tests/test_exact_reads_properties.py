"""Property tests: exact reads equal the reference reads they replaced.

:class:`~repro.baselines.exact.ExactBurstStore` answers a point batch by
grouping pairs per event (bisects for small groups, one windowed
``searchsorted`` per lag for large ones), a bursty-time query with one
array program over the breakpoints, and takes snapshots that share the
append-only lists bounded by their lengths instead of copying them.
These tests pin, at zero tolerance (float bit patterns, ``0.0`` and
``-0.0`` told apart), that all three are speed changes only:

* the array bursty-time walk equals the per-candidate walk in
  :mod:`tests.oracles.exact` with ``t_end`` unset, on a breakpoint,
  before the first record, past the last one and at a signed zero, on
  tie-heavy, Unix-epoch and signed-zero streams, on plain, stacked and
  bounded views;
* a point batch equals the scalar ``burstiness`` loop and the reference
  batch with event groups on both sides of ``_SMALL_GROUP``;
* a snapshot answers every query kind unchanged after its source
  appends to existing and to new events, and so does a snapshot of a
  snapshot read through ``ExactStore.stack``;
* ``export_records``, ``to_bytes`` and ``merge`` of a bounded snapshot
  equal those of the copied snapshot it replaced;
* a reader querying older snapshots while a writer thread appends gets
  the answers of each snapshot's prefix;
* columnar parts (runs read in place by ``load_store``, merges that
  concatenate one column) answer like the other layouts; merging
  consecutive parts of any split equals one store fed everything,
  ``save_store`` bytes included, and merging interleaved parts equals
  the list merge it replaced; a loaded store accepts appends.
"""

from __future__ import annotations

import queue
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import exact
from repro.core.errors import StreamOrderError
from repro.core.serialize import load_store, save_store
from repro.core.store import ExactStore
from tests.oracles import exact as oracle

UNIVERSE = 6
EPOCH = 1.7e9
TAUS = [0.5, 1.0, 4.0, 25.0]
PROPERTIES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies and helpers
# ----------------------------------------------------------------------
@st.composite
def record_streams(draw, min_size: int = 1, max_size: int = 120):
    """A sorted ``(ids, ts)`` stream: tie-heavy integers around zero,
    quarter steps at Unix-epoch scale, or zero-heavy integers whose
    zeros carry random signs."""
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
        st.lists(
            st.integers(0, UNIVERSE - 1), min_size=len(ts), max_size=len(ts)
        )
    )
    return np.asarray(ids, dtype=np.int64), np.asarray(ts, dtype=np.float64)


def _fed(ids, ts) -> ExactStore:
    store = ExactStore()
    if len(ids):
        store.extend_batch(ids, ts)
    return store


def _columnar(parts: list[ExactStore]) -> ExactStore:
    """``parts`` read in place from their ``save_store`` bytes, all but
    the last merged into one column and the last stacked on top."""
    loaded = [load_store(save_store(part), lazy=True) for part in parts]
    merged = loaded[0]
    for part in loaded[1:-1]:
        merged = merged.merge(part)
    return ExactStore.stack([merged, loaded[-1]])


def view_of(layout: str, ids, ts, cuts) -> ExactStore:
    """A read view over the whole stream: one table (``plain``), a stack
    of immutable parts (``stacked``), parts under a bounded snapshot
    of a store that kept appending (``bounded``), or decoded and merged
    columnar parts (``columnar``)."""
    if layout == "plain":
        return _fed(ids, ts)
    edges = [0, *sorted(int(c * len(ids)) for c in cuts), len(ids)]
    parts = [
        _fed(ids[lo:hi], ts[lo:hi]) for lo, hi in zip(edges, edges[1:])
    ]
    if layout == "columnar":
        return _columnar(parts)
    if layout == "bounded":
        live = parts.pop()
        parts.append(live.snapshot())
        # Later records of every event, and of one the view never saw.
        live.extend_batch(
            np.arange(UNIVERSE + 2), np.full(UNIVERSE + 2, ts[-1] + 1.0)
        )
    return ExactStore.stack(parts)


def live_store(ids, ts, layered: bool) -> ExactStore:
    """A writable store fed ``(ids, ts)``: one table, or (``layered``)
    a stack over an immutable first half with the rest in its own
    table."""
    if not layered:
        return _fed(ids, ts)
    half = len(ids) // 2
    live = ExactStore.stack([_fed(ids[:half], ts[:half])])
    live.extend_batch(ids[half:], ts[half:])
    return live


layouts = st.sampled_from(["plain", "stacked", "bounded", "columnar"])
cut_lists = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)


def bits(value):
    """``value`` with every float replaced by its bit pattern."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def surface(store: ExactStore, tau: float, theta: float, times) -> dict:
    """Every exact query kind over a fixed panel, as comparable values."""
    times = [float(t) for t in times]
    events = range(UNIVERSE + 3)  # ids past UNIVERSE are never ingested
    inner = store.inner
    out = {"count": store.count, "ids": inner.event_ids()}
    for event in events:
        out["point", event] = bits(
            [store.point_query(event, t, tau) for t in times]
        )
        out["cf", event] = bits(
            [store.cumulative_frequency(event, t) for t in times]
        )
        out["cf_many", event] = store.cumulative_frequency_many(
            event, times
        ).tobytes()
        out["times", event] = bits(store.bursty_time_query(event, theta, tau))
        out["times_end", event] = bits(
            store.bursty_time_query(event, theta, tau, t_end=times[-1])
        )
        out["peak", event] = bits(
            store.peak_query(event, times[0], times[-1], tau)
        )
        out["starts", event] = bits(store.segment_starts(event))
    batch_ids = np.repeat(np.asarray(events), len(times))
    batch_ts = np.tile(np.asarray(times), len(events))
    out["batch"] = store.point_query_batch(batch_ids, batch_ts, tau).tobytes()
    for t in times:
        out["events", t] = bits(store.bursty_event_query(t, theta, tau))
    rec_ids, rec_ts = store.export_records()
    out["export"] = (rec_ids.tobytes(), rec_ts.tobytes())
    out["bytes"] = store.to_bytes()
    return out


def panel(ts, tau: float) -> list[float]:
    """Query instants before, on, between and past the records."""
    lo, hi = float(ts.min()), float(ts.max())
    return sorted(
        {lo - 1.0, lo, (lo + hi) / 2, hi - tau, hi, hi + tau, hi + 3 * tau}
    )


# ----------------------------------------------------------------------
# Bursty-time array walk
# ----------------------------------------------------------------------
@PROPERTIES
@given(
    stream=record_streams(),
    layout=layouts,
    cuts=cut_lists,
    tau=st.sampled_from(TAUS),
    theta=st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]),
    end=st.sampled_from(["none", "candidate", "before", "past", "zero"]),
    pick=st.integers(0, 10_000),
)
def test_bursty_times_matches_the_walk(
    stream, layout, cuts, tau, theta, end, pick
):
    ids, ts = stream
    inner = view_of(layout, ids, ts, cuts).inner
    t_end = {
        "none": None,
        "candidate": float(ts[pick % ts.size]) + (pick % 3) * tau,
        "before": float(ts.min()) - 1.0,
        "past": float(ts.max()) + 5 * tau,
        "zero": -0.0 if pick % 2 else 0.0,
    }[end]
    for event in range(UNIVERSE + 2):
        expected = oracle.bursty_times(inner, event, theta, tau, t_end)
        assert bits(inner.bursty_times(event, theta, tau, t_end)) == bits(
            expected
        )


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_bursty_times_keeps_the_first_signed_zero(first):
    # np.unique keeps an arbitrary one of many equal zeros; the walk
    # kept the first record's.
    rng = np.random.default_rng(3)
    zeros = np.where(rng.random(400) < 0.5, -0.0, 0.0)
    zeros[0] = first
    store = exact.ExactBurstStore.from_stream((1, t) for t in zeros)
    expected = oracle.bursty_times(store, 1, 1.0, 1.0)
    assert bits(expected[0][0]) == bits(first)
    assert bits(store.bursty_times(1, 1.0, 1.0)) == bits(expected)


def test_bursty_times_keeps_the_interval_opening_at_end():
    # b(t) first reaches theta at the breakpoint that is also t_end.
    store = exact.ExactBurstStore.from_stream([(1, 0.0), (1, 1.0)])
    expected = oracle.bursty_times(store, 1, 2.0, 5.0, t_end=1.0)
    assert expected == [(1.0, 1.0)]
    assert store.bursty_times(1, 2.0, 5.0, t_end=1.0) == expected


# ----------------------------------------------------------------------
# Grouped point batches
# ----------------------------------------------------------------------
@PROPERTIES
@given(
    stream=record_streams(),
    layout=layouts,
    cuts=cut_lists,
    tau=st.sampled_from(TAUS),
    sizes=st.lists(
        st.integers(1, 3 * exact._SMALL_GROUP), min_size=0, max_size=5
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_batch_matches_scalar_on_both_sides_of_the_group_size(
    stream, layout, cuts, tau, sizes, seed
):
    ids, ts = stream
    inner = view_of(layout, ids, ts, cuts).inner
    rng = np.random.default_rng(seed)
    # Events 0 and 1 sit exactly on and just past the group-size cut.
    sizes = [exact._SMALL_GROUP, exact._SMALL_GROUP + 1, *sizes]
    pool = np.concatenate(
        [ts, ts + tau, ts + 2 * tau, ts - 0.5, [-0.0, 0.0, ts.min() - 1.0]]
    )
    q_ids = np.repeat(np.arange(len(sizes)) % (UNIVERSE + 2), sizes)
    order = rng.permutation(q_ids.size)
    q_ids = q_ids[order]
    q_ts = rng.choice(pool, size=q_ids.size)
    got = inner.burstiness_many(q_ids, q_ts, tau)
    scalar = np.asarray(
        [
            inner.burstiness(int(e), float(t), tau)
            for e, t in zip(q_ids, q_ts)
        ],
        dtype=np.float64,
    )
    assert got.tobytes() == scalar.tobytes()
    assert (
        got.tobytes()
        == oracle.burstiness_many(inner, q_ids, q_ts, tau).tobytes()
    )


def test_empty_point_batch():
    store = exact.ExactBurstStore.from_stream([(1, 0.0)])
    assert store.burstiness_many([], [], 1.0).size == 0


# ----------------------------------------------------------------------
# Bounded snapshots
# ----------------------------------------------------------------------
@PROPERTIES
@given(
    stream=record_streams(min_size=2),
    layered=st.booleans(),
    split=st.floats(0.2, 0.8),
    tau=st.sampled_from(TAUS),
    theta=st.sampled_from([1.0, 2.0]),
)
def test_snapshot_is_unchanged_by_later_appends(
    stream, layered, split, tau, theta
):
    ids, ts = stream
    cut = max(1, int(split * ids.size))
    live = live_store(ids[:cut], ts[:cut], layered)
    view = live.snapshot()
    times = panel(ts, tau)
    expected = surface(_fed(ids[:cut], ts[:cut]), tau, theta, times)
    before = surface(view, tau, theta, times)
    # Appends to existing events and to events the view never saw.
    live.extend_batch(ids[cut:], ts[cut:])
    live.extend_batch(
        [UNIVERSE, UNIVERSE + 1, 0], [ts[-1] + 1.0, ts[-1] + 1.0, ts[-1] + 2]
    )
    after = surface(view, tau, theta, times)
    assert after == before == expected


@PROPERTIES
@given(
    stream=record_streams(min_size=2),
    split=st.floats(0.2, 0.8),
    layered=st.booleans(),
)
def test_bounded_snapshot_dumps_and_merges_like_a_copied_one(
    stream, split, layered
):
    ids, ts = stream
    cut = max(1, int(split * ids.size))
    live = live_store(ids[:cut], ts[:cut], layered)
    bounded = live.snapshot()
    copied = ExactStore(oracle.copied_snapshot(live.inner))
    assert bounded.inner._bounds[-2] is not None
    live.extend_batch(ids[cut:], ts[cut:])
    live.update(UNIVERSE + 1, float(ts[-1]) + 1.0)
    other = _fed(ids[cut:], ts[cut:])

    def dumps(store):
        rec_ids, rec_ts = store.export_records()
        return (rec_ids.tobytes(), rec_ts.tobytes(), store.to_bytes())

    assert dumps(bounded) == dumps(copied)
    assert dumps(bounded.merge(other)) == dumps(copied.merge(other))
    assert dumps(other.merge(bounded)) == dumps(other.merge(copied))


@PROPERTIES
@given(
    stream=record_streams(min_size=4),
    cuts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    tau=st.sampled_from(TAUS),
)
# The horizon of a stream ending 0.0, -0.0 must not depend on the split.
@example(
    stream=(np.zeros(4, dtype=np.int64), np.array([0.0, 0.0, 0.0, -0.0])),
    cuts=[0.0, 1.0, 0.5],
    tau=0.5,
)
def test_snapshot_of_a_snapshot_reads_through_stack(stream, cuts, tau):
    ids, ts = stream
    a, b, c = sorted(int(x * ids.size) for x in cuts)
    base = _fed(ids[:a], ts[:a])
    live = ExactStore.stack([base])
    if b > a:
        live.extend_batch(ids[a:b], ts[a:b])
    first = live.snapshot()
    live.update(UNIVERSE + 1, float(ts[-1]) + 1.0)  # never seen below
    if c > b:
        first.extend_batch(ids[b:c], ts[b:c])
    second = first.snapshot()
    first.update(UNIVERSE, float(ts[-1]) + 1.0)  # never seen below
    view = ExactStore.stack([second])
    times = panel(ts, tau)
    assert surface(view, tau, 1.0, times) == surface(
        _fed(ids[:c], ts[:c]), tau, 1.0, times
    )


def test_readers_of_old_snapshots_race_a_writer():
    rng = np.random.default_rng(7)
    n, batch = 20_000, 50
    ids = rng.integers(0, 40, n)
    ts = np.sort(rng.integers(0, 3_000, n)).astype(np.float64)
    tau = 20.0
    live, lock = ExactStore(), threading.Lock()
    views: queue.Queue = queue.Queue()
    failures: list[str] = []

    def writer():
        for start in range(0, n, batch):
            with lock:
                live.extend_batch(
                    ids[start : start + batch], ts[start : start + batch]
                )
                views.put((live.snapshot(), start + batch))
        views.put(None)

    def reader():
        while (item := views.get(timeout=60)) is not None:
            view, size = item
            if size % 2_000:
                continue
            ref = _fed(ids[:size], ts[:size])
            prefix = ref.inner
            q_ids = np.arange(42).repeat(12)
            q_ts = rng.choice(ts[:size], q_ids.size)
            got = view.point_query_batch(q_ids, q_ts, tau)
            want = oracle.burstiness_many(prefix, q_ids, q_ts, tau)
            checks = [
                got.tobytes() == want.tobytes(),
                view.bursty_event_query(float(ts[size - 1]), 2.0, tau)
                == ref.bursty_event_query(float(ts[size - 1]), 2.0, tau),
                view.bursty_time_query(3, 2.0, tau)
                == oracle.bursty_times(prefix, 3, 2.0, tau, ts[size - 1]
                                       + 2 * tau),
                view.to_bytes() == ref.to_bytes(),
            ]
            if not all(checks):
                failures.append(f"view of {size} records: {checks}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures


# ----------------------------------------------------------------------
# Columnar parts: decoded views and concatenating merges
# ----------------------------------------------------------------------
def _loaded(store: ExactStore, lazy: bool) -> ExactStore:
    return load_store(save_store(store), lazy=lazy)


@PROPERTIES
@given(
    stream=record_streams(),
    cuts=cut_lists,
    decoded=st.booleans(),
    tau=st.sampled_from(TAUS),
)
def test_merging_consecutive_parts_equals_one_store(
    stream, cuts, decoded, tau
):
    ids, ts = stream
    edges = [0, *sorted(int(c * len(ids)) for c in cuts), len(ids)]
    parts = [
        _fed(ids[lo:hi], ts[lo:hi]) for lo, hi in zip(edges, edges[1:])
    ]
    if decoded:
        parts = [_loaded(part, lazy=True) for part in parts]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    whole = _fed(ids, ts)
    times = panel(ts, tau)
    assert surface(merged, tau, 1.0, times) == surface(whole, tau, 1.0, times)
    assert save_store(merged) == save_store(whole)


@PROPERTIES
@given(
    stream=record_streams(),
    seed=st.integers(0, 2**32 - 1),
    decoded=st.booleans(),
    tau=st.sampled_from(TAUS),
)
def test_merging_interleaved_parts_sorts_like_the_lists(
    stream, seed, decoded, tau
):
    ids, ts = stream
    owner = np.random.default_rng(seed).integers(0, 3, ids.size)
    parts = [_fed(ids[owner == k], ts[owner == k]) for k in range(3)]
    if decoded:
        parts = [_loaded(part, lazy=False) for part in parts]
    merged = parts[0].merge(parts[1]).merge(parts[2])
    reference = ExactStore(oracle.list_merged([part.inner for part in parts]))
    reference._t_end = max(part._t_end for part in parts)
    times = panel(ts, tau)
    got = surface(merged, tau, 1.0, times)
    assert got == surface(reference, tau, 1.0, times)
    assert save_store(merged) == save_store(reference)
    if not np.signbit(ts).any():
        # Equal times are then bit-equal, so part order and stream order
        # give the same lists: the merge equals one store fed everything.
        assert got == surface(_fed(ids, ts), tau, 1.0, times)
        assert save_store(merged) == save_store(_fed(ids, ts))


@PROPERTIES
@given(
    stream=record_streams(min_size=2),
    split=st.floats(0.0, 1.0),
    lazy=st.booleans(),
    tau=st.sampled_from(TAUS),
)
def test_a_loaded_store_accepts_appends(stream, split, lazy, tau):
    ids, ts = stream
    cut = max(1, int(split * ids.size))
    loaded = _loaded(_fed(ids[:cut], ts[:cut]), lazy)
    with pytest.raises(StreamOrderError):
        loaded.update(0, float(ts[cut - 1]) - 1.0)
    if cut < ids.size:
        loaded.extend_batch(ids[cut:], ts[cut:])
    times = panel(ts, tau)
    assert surface(loaded, tau, 1.0, times) == surface(
        _fed(ids, ts), tau, 1.0, times
    )
