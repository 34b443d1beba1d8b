"""Non-finite timestamps are rejected before they reach any state.

NaN compares false against everything, so ``np.diff(ts) < 0`` and
``timestamp < t_end`` both let it through; ``+inf`` passes them too and
then makes every later write look out of order.  Every ingest entry
point must therefore raise :class:`InvalidParameterError` for NaN and
``±inf`` — scalar and batch, on every store backend, on a durable store
before the record reaches the WAL, on the parallel-ingest coordinator,
on the bare PBE-1 / PBE-2 sketches and on the raw exact baseline — and
leave the target exactly as it was, still accepting later finite
records.  Query times and
bursty-time / peak bounds are held to the same rule on every backend.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.exact import ExactBurstStore
from repro.core.durable import create_durable, recover
from repro.core.errors import InvalidParameterError
from repro.core.parallel_ingest import ParallelIngestCoordinator
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.core.store import create_store
from tests.backends import BACKEND_IDS, BACKEND_MATRIX

NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_IDS = ["nan", "+inf", "-inf"]


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
@pytest.mark.parametrize("label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS)
def test_store_rejects_non_finite(label, backend, cfg, bad):
    store = create_store(backend, **cfg)
    with pytest.raises(InvalidParameterError, match="finite"):
        store.extend_batch([0, 0, 0], [1.0, bad, 0.5])
    assert store.count == 0
    store.update(0, 1.0)
    with pytest.raises(InvalidParameterError, match="finite"):
        store.update(0, bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        store.extend_batch([1, 1], [2.0, bad])
    assert store.count == 1
    assert store.t_end == 1.0
    store.update(0, 2.0)
    store.extend_batch([1, 2], [3.0, 4.0])
    assert store.count == 4
    assert store.t_end == 4.0
    store.close()


def test_durable_store_rejects_non_finite_before_the_wal(tmp_path):
    directory = tmp_path / "s"
    store = create_durable(directory, backend="exact", seal_elements=4)
    store.extend_batch([0, 1, 2, 0, 1], [0.5, 1.0, 1.5, 2.0, 2.0])
    for bad in NON_FINITE:
        with pytest.raises(InvalidParameterError, match="finite"):
            store.extend_batch([0, 0, 0], [3.0, bad, 2.5])
        with pytest.raises(InvalidParameterError, match="finite"):
            store.append(0, bad)
    assert store.count == 5
    assert store.t_end == 2.0
    store.close()
    recovered = recover(directory)
    assert recovered.count == 5
    assert recovered.t_end == 2.0
    recovered.extend_batch([0], [3.0])
    assert recovered.count == 6
    recovered.close()


def test_coordinator_rejects_non_finite_before_dispatch(tmp_path):
    with ParallelIngestCoordinator(
        tmp_path / "s", writers=1, fsync="never"
    ) as coordinator:
        coordinator.extend_batch([1, 2], [1.0, 2.0])
        for bad in NON_FINITE:
            with pytest.raises(InvalidParameterError, match="finite"):
                coordinator.extend_batch([1, 2, 3], [3.0, bad, 2.5])
        coordinator.extend_batch([3], [3.0])
        assert coordinator.flush() == 3


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
@pytest.mark.parametrize(
    "make",
    [
        lambda: PBE1(eta=4, buffer_size=8),
        lambda: PBE2(gamma=2.0),
    ],
    ids=["pbe1", "pbe2"],
)
def test_sketch_rejects_non_finite(make, bad):
    sketch = make()
    sketch.update(1.0)
    with pytest.raises(InvalidParameterError, match="finite"):
        sketch.update(bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        sketch.extend_batch([2.0, bad, 1.5])
    with pytest.raises(InvalidParameterError, match="finite"):
        sketch.extend_batch(np.array([bad]))
    assert sketch.count == 1
    sketch.update(2.0)
    sketch.extend_batch([3.0, 4.0])
    assert sketch.count == 4


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
def test_exact_baseline_rejects_non_finite(bad):
    # The raw ground-truth class, not only the stores wrapping it.
    with pytest.raises(InvalidParameterError, match="finite"):
        ExactBurstStore.from_stream([(1, 1.0), (1, bad)])
    store = ExactBurstStore()
    store.update(1, 1.0)
    with pytest.raises(InvalidParameterError, match="finite"):
        store.update(1, bad)
    store.update(1, 5.0)
    assert store.count == 2
    assert list(store.timestamps_of(1)) == [1.0, 5.0]
    assert store.burstiness(1, 5.0, 1.0) == 1
    queries = [
        lambda: store.burstiness(1, bad, 1.0),
        lambda: store.burstiness_many([1, 1], [2.0, bad], 1.0),
        lambda: store.cumulative_frequency(1, bad),
        lambda: store.cumulative_frequency_many(1, [2.0, bad]),
        lambda: store.bursty_events(bad, 0.0, 1.0),
        lambda: store.bursty_times(1, 0.0, 1.0, t_end=bad),
    ]
    for ask in queries:
        with pytest.raises(InvalidParameterError, match="finite"):
            ask()


# ----------------------------------------------------------------------
# Query times
# ----------------------------------------------------------------------
# A non-finite query time has no answer: NaN would read as "before every
# corner" (0.0 / no hits / no intervals) and ±inf as the far ends of the
# history.  Every query entry point must reject it.
QUERY_KINDS = {
    "point": lambda store, bad: store.point_query(0, bad, 5.0),
    "point_batch": lambda store, bad: store.point_query_batch(
        [0, 1, 2], [1.0, bad, 2.0], 5.0
    ),
    "events": lambda store, bad: store.bursty_event_query(bad, 0.0, 5.0),
    "times_t_end": lambda store, bad: store.bursty_time_query(
        0, 0.0, 5.0, t_end=bad
    ),
    "peak_start": lambda store, bad: store.peak_query(0, bad, 3.0, 5.0),
    "peak_end": lambda store, bad: store.peak_query(0, 1.0, bad, 5.0),
}


@pytest.mark.parametrize("kind", sorted(QUERY_KINDS))
@pytest.mark.parametrize("label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS)
def test_store_rejects_non_finite_query_times(label, backend, cfg, kind):
    store = create_store(backend, **cfg)
    store.extend_batch([0, 1, 2, 0, 1, 0], [1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    ask = QUERY_KINDS[kind]
    answer = ask(store, 2.0)
    for bad in NON_FINITE:
        with pytest.raises(InvalidParameterError, match="finite"):
            ask(store, bad)
    # A rejected query leaves the store answering as before.
    again = ask(store, 2.0)
    if kind == "point_batch":
        np.testing.assert_array_equal(again, answer)
    else:
        assert again == answer
    store.close()


def test_durable_store_rejects_non_finite_query_times(tmp_path):
    store = create_durable(tmp_path / "s", backend="cm-pbe-1",
                           seal_elements=4, universe_size=8, eta=4,
                           buffer_size=8, width=4, depth=3)
    store.extend_batch([0, 1, 2, 0, 1], [0.5, 1.0, 1.5, 2.0, 2.0])
    for bad in NON_FINITE:
        for kind, ask in QUERY_KINDS.items():
            with pytest.raises(InvalidParameterError, match="finite"):
                ask(store, bad)
    store.close()
