"""Property tests: the array query engine equals the scalar oracles.

The breakpoint queries of paper §V (bursty-time and peak) and the flat
stores' bursty-event scans run as array programs: one ``value_many``
read of every breakpoint sample, one batched point query over the id
set.  These hypothesis tests pin the contract that this is purely a
throughput change — zero tolerance, not approximate equality — against
the scalar loops kept in :mod:`tests.oracles.queries`:

* bursty-time (both ``piecewise`` modes, with and without
  ``merge_gap``, explicit and default ``t_end``), peak and bursty-event
  answers equal the oracles on every backend in the matrix, plus
  CM-PBE grids with the ``min`` combiner and an even depth; the
  ``piecewise`` argument is set against the store's curve kind both
  ways (a staircase asked for ``"linear"``, a PLA for ``"constant"``),
* streams start at the origin or at a Unix-epoch second, and ``tau``
  is dyadic or not, so shifted samples round: ``(k + tau) - tau != k``
  for some knots ``k`` near the origin, ``(k + tau) - 2 tau != k - tau``
  at the epoch,
* the same holds on durable stores whose memtable is not empty (for
  PBE-1 children, holding unfolded buffers),
* a store whose staircase combines CM-PBE rows reads an event's
  estimate once per query, at no more than one time per knot plus
  one; a PLA store and a direct map read it at every breakpoint
  sample,
* non-finite ``tau`` and NaN ``theta`` are rejected by every backend,
* bursty-time and peak answers are shift-equivariant at Unix-epoch
  timestamps (linear-mode samples move one ulp inside a breakpoint).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cmpbe import CMPBE, DirectPBEMap
from repro.core.errors import InvalidParameterError
from repro.core.store import create_store
from repro.workloads.olympics import make_olympicrio
from tests.backends import BACKEND_IDS, BACKEND_MATRIX, EXACT_LABELS, UNIVERSE
from tests.oracles.queries import (
    ScalarCurveView,
    bursty_events_scalar,
    bursty_time_intervals,
    canonical_hits,
    flat_bursty_events,
    max_burstiness,
    merge_intervals,
)

settings.register_profile("query_engine", deadline=None, max_examples=30)
settings.load_profile("query_engine")

TAU = 4.0
#: A Unix-epoch second, where a ``tau`` shift rounds.
EPOCH = 1.7e9
#: ``tau`` values of the workloads: dyadic, and one that is not.
TAUS = (TAU, 4.1)

_MATRIX_CFG = {label: cfg for label, _, cfg in BACKEND_MATRIX}
_EVEN_DEPTH = dict(depth=4)
#: CM-PBE combiners beside the matrix's odd-depth median.
COMBINER_MATRIX = [
    (
        "cm-pbe-1-min",
        "cm-pbe-1",
        dict(_MATRIX_CFG["cm-pbe-1"], combiner="min"),
    ),
    (
        "cm-pbe-1-median-even",
        "cm-pbe-1",
        dict(_MATRIX_CFG["cm-pbe-1"], **_EVEN_DEPTH),
    ),
    (
        "cm-pbe-2-min-even",
        "cm-pbe-2",
        dict(_MATRIX_CFG["cm-pbe-2"], combiner="min", **_EVEN_DEPTH),
    ),
]
QUERY_MATRIX = BACKEND_MATRIX + COMBINER_MATRIX
QUERY_IDS = [label for label, _, _ in QUERY_MATRIX]
#: The stores whose estimate is a PBE-1 staircase combined from CM-PBE
#: rows: they read it once per knot.
STAIRCASE_MATRIX = [
    row for row in QUERY_MATRIX
    if row[0] not in EXACT_LABELS
    and not any(tag in row[0] for tag in ("pbe-2", "pbe2", "direct"))
]
DURABLE_CHILDREN = [
    ("durable-exact", dict(backend="exact")),
    ("durable-cm-pbe-1", dict(backend="cm-pbe-1", **_MATRIX_CFG["cm-pbe-1"])),
    ("durable-cm-pbe-2", dict(backend="cm-pbe-2", **_MATRIX_CFG["cm-pbe-2"])),
]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def workloads(draw, max_size: int = 80):
    """A sorted record stream plus one query of each kind."""
    raw = draw(st.lists(st.integers(0, 160), min_size=1, max_size=max_size))
    origin = draw(st.sampled_from([0.0, EPOCH]))
    ts = sorted(origin + t / 4 for t in raw)
    ids = draw(
        st.lists(
            st.integers(0, UNIVERSE - 1), min_size=len(ts), max_size=len(ts)
        )
    )
    t_end = draw(st.one_of(st.none(), st.floats(-5.0, 60.0)))
    return {
        "ids": ids,
        "ts": ts,
        "tau": draw(st.sampled_from(TAUS)),
        "event": draw(st.sampled_from(ids + [UNIVERSE - 1])),
        "theta": draw(st.floats(0.5, 6.0)),
        "merge_gap": draw(st.sampled_from([0.0, 1.0, 4.0])),
        "t_end": None if t_end is None else origin + t_end,
        "t": origin + draw(st.floats(-5.0, 50.0)),
        "t_start": origin + draw(st.floats(-10.0, 40.0)),
        "span": draw(st.floats(0.25, 20.0)),
    }


# ----------------------------------------------------------------------
# Oracles per backend
# ----------------------------------------------------------------------
def _exact_twin(data):
    twin = create_store("exact")
    twin.extend_batch(data["ids"], data["ts"])
    return twin


def _oracle_times(store, label, data, piecewise):
    event, theta, tau = data["event"], data["theta"], data["tau"]
    t_end, gap = data["t_end"], data["merge_gap"]
    if label in EXACT_LABELS:
        twin = _exact_twin(data)
        end = t_end if t_end is not None else twin.t_end + 2 * tau
        intervals = twin.inner.bursty_times(event, theta, tau, t_end=end)
        return merge_intervals(intervals, gap) if gap > 0.0 else intervals
    knots = store.segment_starts(event)
    if not knots:
        return []
    end = t_end if t_end is not None else store.t_end + 2 * tau
    return bursty_time_intervals(
        ScalarCurveView(store, event), knots, theta, tau, end,
        piecewise=piecewise, merge_gap=gap,
    )


def _oracle_peak(store, label, data):
    event, t_start, tau = data["event"], data["t_start"], data["tau"]
    t_end = t_start + data["span"]
    if label in EXACT_LABELS:
        twin = _exact_twin(data)
        knots = twin.inner.timestamps_between(event, t_start - 2 * tau, t_end)
        return max_burstiness(
            ScalarCurveView(twin, event), knots, tau, t_start, t_end
        )
    return max_burstiness(
        ScalarCurveView(store, event), store.segment_starts(event), tau,
        t_start, t_end, piecewise=store.piecewise,
    )


def _oracle_events(store, label, backend, data):
    t, theta, tau = data["t"], data["theta"], data["tau"]
    if label in EXACT_LABELS:
        return _exact_twin(data).bursty_event_query(t, theta, tau)
    if backend == "index":
        return canonical_hits(bursty_events_scalar(store.inner, t, theta, tau))
    if backend == "direct":
        seen = sorted(set(data["ids"]))
        return flat_bursty_events(store, seen, t, theta, tau)
    return flat_bursty_events(store, range(UNIVERSE), t, theta, tau)


def _hits(hits):
    return [(hit.event_id, hit.burstiness) for hit in hits]


def _assert_matches_oracles(store, label, backend, data):
    event, tau = data["event"], data["tau"]
    for piecewise in ("constant", "linear"):
        got = store.bursty_time_query(
            event, data["theta"], tau, t_end=data["t_end"],
            merge_gap=data["merge_gap"], piecewise=piecewise,
        )
        assert got == _oracle_times(store, label, data, piecewise)
    t_start = data["t_start"]
    peak = store.peak_query(event, t_start, t_start + data["span"], tau)
    assert peak == _oracle_peak(store, label, data)
    got_hits = store.bursty_event_query(data["t"], data["theta"], tau)
    assert _hits(got_hits) == _hits(
        _oracle_events(store, label, backend, data)
    )


# ----------------------------------------------------------------------
# Every backend: array engine == scalar oracle
# ----------------------------------------------------------------------
class TestEngineMatchesScalarOracle:
    @pytest.mark.parametrize(
        "label,backend,cfg", QUERY_MATRIX, ids=QUERY_IDS
    )
    @given(data=workloads())
    def test_backend_matrix(self, label, backend, cfg, data):
        store = create_store(backend, **cfg)
        store.extend_batch(data["ids"], data["ts"])
        _assert_matches_oracles(store, label, backend, data)

    @pytest.mark.parametrize(
        "label,cfg", DURABLE_CHILDREN,
        ids=[label for label, _ in DURABLE_CHILDREN],
    )
    @given(data=workloads(max_size=120))
    def test_durable_with_live_memtable(self, label, cfg, data):
        """A sealed segment under a non-empty memtable: the read view
        the engine reads merges (sketches) or stacks (exact) both."""
        half = len(data["ts"]) // 2
        with create_store("durable", seal_elements=100_000, **cfg) as store:
            store.extend_batch(data["ids"][:half], data["ts"][:half])
            store.seal()
            store.extend_batch(data["ids"][half:], data["ts"][half:])
            assert store._memtable_elements > 0
            if cfg["backend"] == "cm-pbe-1":
                assert any(
                    cell._buffer_xs
                    for cell in store._memtable._leaf.cells()
                )
            _assert_matches_oracles(store, label, "durable", data)

    @pytest.mark.parametrize("origin", [0.0, EPOCH])
    @pytest.mark.parametrize(
        "label,backend,cfg", QUERY_MATRIX, ids=QUERY_IDS
    )
    def test_rounding_shifts(self, label, backend, cfg, origin):
        """With ``tau = 4.1`` a sample of a shifted knot is not where
        exact arithmetic puts it: near the origin ``(k + tau) - tau``
        is not ``k`` for some knots ``k``, and at Unix-epoch seconds
        ``(k + tau) - 2 tau`` is not ``k - tau``.  Reading the
        staircase once per knot must still give every sample its
        level."""
        rng = np.random.default_rng(5)
        ts = np.sort(origin + rng.integers(0, 160, 300) / 4)
        ids = rng.integers(0, 8, ts.size)
        tau = 4.1
        data = {
            "ids": ids.tolist(), "ts": ts.tolist(), "tau": tau,
            "theta": 2.0, "merge_gap": 0.0, "t_end": None,
            "t": origin + 20.0, "t_start": origin + 5.0, "span": 12.0,
        }
        knots = np.unique(ts)
        if origin == 0.0:
            assert np.any((knots + tau) - tau != knots)
        else:
            assert np.any((knots + tau) - 2 * tau != knots - tau)
        store = create_store(backend, **cfg)
        store.extend_batch(ids, ts)
        for event in range(8):
            _assert_matches_oracles(
                store, label, backend, dict(data, event=event)
            )


# ----------------------------------------------------------------------
# Breakpoint reads: once per knot on a staircase, per sample on a PLA
# ----------------------------------------------------------------------
def _knot_read_store(backend, cfg):
    store = create_store(backend, **cfg)
    rng = np.random.default_rng(7)
    store.extend_batch(
        rng.integers(0, 4, 400), np.sort(rng.uniform(0.0, 60.0, 400))
    )
    return store


class TestBreakpointReads:
    """Counts the ``cumulative_frequency_many`` calls a bursty-time or
    peak query makes on the CM-PBE grid that answers it."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls: list[int] = []
        for grid in (CMPBE, DirectPBEMap):
            original = grid.cumulative_frequency_many

            def spy(sketch, event_id, ts, original=original):
                calls.append(np.asarray(ts).size)
                return original(sketch, event_id, ts)

            monkeypatch.setattr(grid, "cumulative_frequency_many", spy)
        return calls

    @pytest.mark.parametrize(
        "label,backend,cfg", STAIRCASE_MATRIX,
        ids=[label for label, _, _ in STAIRCASE_MATRIX],
    )
    def test_staircase_reads_once_per_knot(self, reads, label, backend, cfg):
        store = _knot_read_store(backend, cfg)
        for event in range(4):
            n_knots = len(store.segment_starts(event))
            for query in (
                lambda: store.bursty_time_query(event, 2.0, TAU),
                lambda: store.bursty_time_query(
                    event, 2.0, TAU, piecewise="linear"
                ),
                lambda: store.peak_query(event, 10.0, 40.0, TAU),
            ):
                reads.clear()
                query()
                assert len(reads) == 1
                assert reads[0] <= n_knots + 1

    @pytest.mark.parametrize(
        "label,backend,cfg",
        [row for row in QUERY_MATRIX if row[0] in ("cm-pbe-2", "direct-pbe1")],
        ids=["cm-pbe-2", "direct-pbe1"],
    )
    def test_per_sample_reads(self, reads, label, backend, cfg):
        """A PLA changes inside its pieces, and a direct map's one cell
        per id costs one search per sample already: both read ``F~``
        at every breakpoint sample."""
        store = _knot_read_store(backend, cfg)
        for event in range(4):
            knots = np.asarray(store.segment_starts(event))
            end = store.t_end + 2 * TAU
            shifted = np.unique(np.concatenate(
                (knots, knots + TAU, knots + 2 * TAU)
            ))
            breakpoints = np.union1d(shifted[shifted <= end], [end])
            reads.clear()
            store.bursty_time_query(event, 2.0, TAU, piecewise="constant")
            assert reads == [3 * breakpoints.size]
            reads.clear()
            store.bursty_time_query(event, 2.0, TAU, piecewise="linear")
            assert reads == [6 * (breakpoints.size - 1)]


# ----------------------------------------------------------------------
# Parameter validation: every backend, every query type
# ----------------------------------------------------------------------
def _small_store(backend, cfg):
    store = create_store(backend, **cfg)
    rng = np.random.default_rng(11)
    store.extend_batch(
        rng.integers(0, UNIVERSE, 200), np.sort(rng.uniform(0, 40, 200))
    )
    return store


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_tau_rejected(self, label, backend, cfg, tau):
        store = _small_store(backend, cfg)
        queries = [
            lambda: store.point_query(3, 10.0, tau),
            lambda: store.point_query_batch([3, 4], [10.0, 12.0], tau),
            lambda: store.bursty_time_query(3, 1.0, tau),
            lambda: store.bursty_event_query(10.0, 1.0, tau),
            lambda: store.peak_query(3, 0.0, 20.0, tau),
        ]
        for query in queries:
            with pytest.raises(InvalidParameterError):
                query()

    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_nan_theta_rejected(self, label, backend, cfg):
        """NaN compares false against every threshold, so an unchecked
        NaN ``theta`` (or ``merge_gap``) silently answers ``[]``."""
        store = _small_store(backend, cfg)
        queries = [
            lambda: store.bursty_event_query(10.0, math.nan, TAU),
            lambda: store.bursty_time_query(3, math.nan, TAU),
            lambda: store.bursty_time_query(3, math.nan, TAU, t_end=30.0),
            lambda: store.bursty_time_query(3, 1.0, TAU, merge_gap=math.nan),
        ]
        for query in queries:
            with pytest.raises(InvalidParameterError):
                query()
        # Burstiness can be negative, so a negative threshold stays legal.
        assert isinstance(store.bursty_time_query(3, -1.0, TAU), list)

    def test_nan_time_range_rejected(self):
        store = _small_store("exact", {})
        with pytest.raises(InvalidParameterError):
            store.peak_query(3, math.nan, 20.0, TAU)


# ----------------------------------------------------------------------
# Linear-mode nudge at Unix-epoch timestamps
# ----------------------------------------------------------------------
EPOCH_SHIFT = 1.47e9


class TestEpochShiftEquivariance:
    """A ``1e-9`` nudge is below the ulp of a Unix-second timestamp
    (2.4e-7 at 1.47e9), so "just inside a breakpoint" used to land on
    the breakpoint itself and the answers depended on the time origin.
    Shifting a stream by ``EPOCH_SHIFT`` must only shift the answers:
    the two stores' curves agree to about 3e-7, so the interval
    endpoints may move by a rounding-level amount, never by a piece."""

    @pytest.fixture(scope="class")
    def stores(self):
        ids, ts = make_olympicrio(
            n_events=64, total_mentions=6000, seed=3
        ).as_columns()
        cfg = dict(
            universe_size=64, gamma=12.0, unit=1.0, width=16, depth=5, seed=0
        )
        base = create_store("cm-pbe-2", **cfg)
        base.extend_batch(ids, ts)
        shifted = create_store("cm-pbe-2", **cfg)
        shifted.extend_batch(ids, ts + EPOCH_SHIFT)
        return base, shifted, float(ts[-1])

    def test_bursty_times(self, stores):
        base, shifted, _ = stores
        tau, theta = 86_400.0, 3.0
        for event in range(40):
            want = base.bursty_time_query(event, theta, tau)
            got = shifted.bursty_time_query(event, theta, tau)
            assert len(got) == len(want), event
            unshifted = np.asarray(got).reshape(-1) - EPOCH_SHIFT
            assert np.allclose(
                unshifted, np.asarray(want).reshape(-1), rtol=0.0, atol=1.0
            ), event

    def test_peak(self, stores):
        base, shifted, last = stores
        tau = 86_400.0
        for event in range(40):
            t_want, b_want = base.peak_query(event, 0.0, last, tau)
            t_got, b_got = shifted.peak_query(
                event, EPOCH_SHIFT, EPOCH_SHIFT + last, tau
            )
            assert abs((t_got - EPOCH_SHIFT) - t_want) <= 1.0, event
            assert abs(b_got - b_want) <= 1e-4, event
