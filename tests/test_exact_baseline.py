"""Tests for the exact baseline store (ground truth oracle)."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.baselines.exact import ExactBurstStore
from repro.core.errors import (
    InvalidParameterError,
    SerializationError,
    StreamOrderError,
)
from repro.core.store import ExactStore, _pack_config, _unpack_config
from repro.streams.events import SingleEventStream


class TestUpdates:
    def test_rejects_out_of_order(self):
        store = ExactBurstStore()
        store.update(1, 5.0)
        with pytest.raises(StreamOrderError):
            store.update(2, 4.0)

    def test_rejects_bad_count(self):
        store = ExactBurstStore()
        with pytest.raises(InvalidParameterError):
            store.update(1, 1.0, count=0)

    def test_count_with_multiplicity(self):
        store = ExactBurstStore()
        store.update(1, 1.0, count=3)
        assert store.count == 3
        assert store.cumulative_frequency(1, 1.0) == 3

    def test_event_ids_sorted(self):
        store = ExactBurstStore()
        store.update(9, 1.0)
        store.update(2, 2.0)
        store.update(9, 3.0)
        assert store.event_ids() == [2, 9]

    def test_size(self):
        store = ExactBurstStore()
        store.update(1, 1.0)
        store.update(2, 2.0)
        assert store.size_in_bytes() == 16


class TestPointQueries:
    def test_matches_single_event_stream(self, small_timestamps):
        store = ExactBurstStore()
        for t in small_timestamps:
            store.update(0, t)
        reference = SingleEventStream(small_timestamps)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 2_200, size=50):
            assert store.cumulative_frequency(0, t) == (
                reference.cumulative_frequency(t)
            )
            assert store.burstiness(0, t, 100.0) == (
                reference.burstiness(t, 100.0)
            )

    def test_unseen_event_is_zero(self):
        store = ExactBurstStore()
        store.update(1, 1.0)
        assert store.cumulative_frequency(42, 10.0) == 0
        assert store.burstiness(42, 10.0, 1.0) == 0

    def test_invalid_tau(self):
        store = ExactBurstStore()
        store.update(1, 1.0)
        with pytest.raises(InvalidParameterError):
            store.burstiness(1, 1.0, 0.0)


class TestBurstyTimes:
    def test_intervals_match_dense_evaluation(self, bursty_timestamps):
        """Interval answer == brute-force evaluation on a dense grid."""
        store = ExactBurstStore()
        for t in bursty_timestamps:
            store.update(0, t)
        tau, theta = 400.0, 120.0
        t_end = max(bursty_timestamps) + 2 * tau
        intervals = store.bursty_times(0, theta, tau, t_end=t_end)

        def inside(t: float) -> bool:
            return any(start <= t < end for start, end in intervals)

        for t in np.arange(0.0, t_end, 13.0):
            expected = store.burstiness(0, t, tau) >= theta
            assert inside(t) == expected, f"mismatch at t={t}"

    def test_no_bursts_above_huge_threshold(self, bursty_timestamps):
        store = ExactBurstStore()
        for t in bursty_timestamps:
            store.update(0, t)
        assert store.bursty_times(0, 1e9, 100.0) == []

    def test_unseen_event_empty(self):
        store = ExactBurstStore()
        store.update(1, 1.0)
        assert store.bursty_times(7, 0.0, 1.0) == []

    def test_negative_threshold_covers_everything_bursty_or_not(self):
        store = ExactBurstStore()
        for t in (1.0, 2.0, 3.0):
            store.update(0, t)
        intervals = store.bursty_times(0, -1e9, 1.0, t_end=10.0)
        # Burstiness is always >= the threshold, one interval to the end.
        assert intervals == [(1.0, 10.0)]


class TestBurstyEvents:
    def test_ranked_descending(self, mixed_stream):
        store = ExactBurstStore.from_stream(mixed_stream)
        hits = store.bursty_events(520.0, 10.0, 50.0)
        values = [hit.burstiness for hit in hits]
        assert values == sorted(values, reverse=True)

    def test_threshold_respected(self, mixed_stream):
        store = ExactBurstStore.from_stream(mixed_stream)
        theta = 100.0
        hits = store.bursty_events(520.0, theta, 50.0)
        for hit in hits:
            assert hit.burstiness >= theta

    def test_finds_the_planted_burst(self, mixed_stream):
        store = ExactBurstStore.from_stream(mixed_stream)
        hits = store.bursty_events(520.0, 300.0, 50.0)
        assert [hit.event_id for hit in hits] == [5]


class TestExactStoreDecoding:
    """``ExactStore.from_bytes`` refuses payloads its encoder never
    writes, instead of loading a store whose count lies."""

    @staticmethod
    def _three_records() -> tuple[dict, bytes]:
        store = ExactStore()
        store.extend_batch([4, 9, 4], [1.0, 2.0, 3.0])
        return _unpack_config(store.to_bytes())

    def test_round_trip_still_loads(self):
        config, payload = self._three_records()
        loaded = ExactStore.from_bytes(_pack_config(config, payload))
        assert loaded.count == 3
        assert loaded.to_bytes() == _pack_config(config, payload)

    def test_header_count_must_match_the_stored_records(self):
        config, payload = self._three_records()
        _, n_events = struct.unpack_from("<QQ", payload)
        lying = struct.pack("<QQ", 99, n_events) + payload[16:]
        with pytest.raises(SerializationError, match="99 records"):
            ExactStore.from_bytes(_pack_config(config, lying))

    def test_trailing_bytes_are_refused(self):
        config, payload = self._three_records()
        for tail in (b"\x00", b"\x00" * 8, b"\x00" * 24):
            with pytest.raises(SerializationError, match="trailing bytes"):
                ExactStore.from_bytes(_pack_config(config, payload + tail))

    def test_a_repeated_event_is_refused(self):
        config, payload = self._three_records()
        count, _ = struct.unpack_from("<QQ", payload)
        # Event 4's block again: a fourth event and two more records.
        block = payload[16 : 16 + 16 + 8 * 2]
        assert struct.unpack_from("<qQ", block) == (4, 2)
        doubled = struct.pack("<QQ", count + 2, 3) + payload[16:] + block
        with pytest.raises(SerializationError, match="of 2"):
            ExactStore.from_bytes(_pack_config(config, doubled))

    def test_truncated_event_header_is_refused(self):
        config, payload = self._three_records()
        with pytest.raises(SerializationError, match="truncated"):
            ExactStore.from_bytes(_pack_config(config, payload[:20]))
