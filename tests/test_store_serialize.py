"""Serialization tests for the versioned store envelope: hypothesis
round-trip properties over every registered backend, the envelope's
error paths, and backward compatibility with committed v1 blobs."""

from __future__ import annotations

import pathlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SerializationError
from repro.core.serialize import (
    ENVELOPE_MAGIC,
    STORE_FORMAT_VERSION,
    dump_cmpbe,
    dump_index,
    dump_direct_map,
    load_store,
    save_store,
)
from repro.core.store import create_store

from tests.backends import BACKEND_IDS, BACKEND_MATRIX, UNIVERSE

DATA_DIR = pathlib.Path(__file__).parent / "data"


def record_batches():
    """Small sorted (ids, timestamps) batches over a tiny universe."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            st.floats(
                min_value=0.0,
                max_value=500.0,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=0,
        max_size=60,
    ).map(lambda rows: sorted(rows, key=lambda row: row[1]))


class TestEnvelopeRoundTrip:
    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(rows=record_batches())
    def test_round_trip_preserves_answers(self, label, backend, cfg, rows):
        store = create_store(backend, **cfg)
        for event_id, timestamp in rows:
            store.update(event_id, timestamp)
        store.finalize()
        payload = save_store(store)
        again = load_store(payload)
        assert again.backend_key == store.backend_key
        assert again.count == store.count
        assert again.memory_elements() == store.memory_elements()
        tau = 40.0
        probes = {event_id for event_id, _ in rows} | {0}
        for event_id in sorted(probes):
            for t in (75.0, 250.0, 525.0):
                assert again.point_query(event_id, t, tau) == pytest.approx(
                    store.point_query(event_id, t, tau), abs=1e-9
                )
        if rows:
            t_probe = max(t for _, t in rows)
            assert again.bursty_event_query(
                t_probe, 1.0, tau
            ) == store.bursty_event_query(t_probe, 1.0, tau)

    @pytest.mark.parametrize(
        "label,backend,cfg", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_round_trip_survives_a_second_generation(
        self, label, backend, cfg
    ):
        """load -> save -> load must be a fixed point."""
        rng = np.random.default_rng(13)
        ts = np.sort(rng.uniform(0.0, 300.0, 150))
        ids = rng.integers(0, UNIVERSE, 150)
        store = create_store(backend, **cfg)
        store.extend_batch(ids, ts)
        store.finalize()
        first = save_store(store)
        second = save_store(load_store(first))
        assert first == second

    def test_envelope_header_is_self_describing(self):
        store = create_store("exact")
        store.update(1, 5.0)
        payload = save_store(store)
        magic, version, key_length = struct.unpack_from("<4sHH", payload)
        assert magic == ENVELOPE_MAGIC
        assert version == STORE_FORMAT_VERSION
        assert payload[8 : 8 + key_length].decode() == "exact"


class TestEnvelopeErrors:
    def test_unknown_magic_rejected(self):
        with pytest.raises(SerializationError):
            load_store(b"XXXX" + b"\x00" * 32)

    def test_truncated_payload_rejected(self):
        store = create_store("exact")
        store.update(1, 5.0)
        payload = save_store(store)
        with pytest.raises(SerializationError):
            load_store(payload[: len(payload) // 2])

    def test_future_version_rejected(self):
        store = create_store("exact")
        store.update(1, 5.0)
        payload = bytearray(save_store(store))
        struct.pack_into("<H", payload, 4, STORE_FORMAT_VERSION + 1)
        with pytest.raises(SerializationError, match="newer than supported"):
            load_store(bytes(payload))

    def test_bare_pbe_blob_gets_guidance(self):
        from repro.core.pbe1 import PBE1
        from repro.core.serialize import dump_pbe1

        sketch = PBE1(eta=4, buffer_size=8)
        sketch.extend([1.0, 2.0, 3.0])
        sketch.flush()
        with pytest.raises(SerializationError, match="load_pbe1"):
            load_store(dump_pbe1(sketch))


class TestV1Compatibility:
    """v1 blobs (bare CMPB/DMAP/BIDX payloads, written before the
    envelope existed) must keep loading through load_store."""

    def test_committed_v1_cmpbe_fixture(self):
        """A blob written by the v1 dump_cmpbe codec and committed to
        the repo; the expected values are pinned from the build that
        wrote it (eta=24, width=8, depth=3, seed=1, 400 mentions)."""
        blob = (DATA_DIR / "v1_cmpbe.bin").read_bytes()
        store = load_store(blob)
        assert store.backend_key == "cm-pbe-1"
        assert store.count == 400
        assert store.point_query(0, 250.0, 40.0) == pytest.approx(-2.0)
        assert store.point_query(3, 400.0, 40.0) == pytest.approx(4.0)
        assert store.cumulative_frequency(7, 100.0) == pytest.approx(15.0)

    @pytest.mark.parametrize("kind", ["cmpbe", "direct", "index"])
    def test_v1_blobs_round_trip_through_envelope(self, kind):
        rng = np.random.default_rng(5)
        ts = np.sort(rng.uniform(0.0, 200.0, 120))
        ids = rng.integers(0, 16, 120)
        if kind == "cmpbe":
            store = create_store(
                "cm-pbe-2", gamma=8.0, width=4, depth=3, universe_size=16
            )
            store.extend_batch(ids, ts)
            store.finalize()
            blob = dump_cmpbe(store.inner)
        elif kind == "direct":
            store = create_store("direct", cell="pbe1", eta=16)
            store.extend_batch(ids, ts)
            store.finalize()
            blob = dump_direct_map(store.inner)
        else:
            store = create_store(
                "index", universe_size=16, cell="pbe1", eta=16, width=4,
                depth=3,
            )
            store.extend_batch(ids, ts)
            store.finalize()
            blob = dump_index(store.inner)
        legacy = load_store(blob)
        assert legacy.backend_key == store.backend_key
        assert legacy.count == store.count
        for event_id in (0, 5, 11):
            for t in (60.0, 140.0):
                assert legacy.point_query(
                    event_id, t, 25.0
                ) == pytest.approx(
                    store.point_query(event_id, t, 25.0), abs=1e-9
                )
        # And once loaded, a legacy store saves forward as v2.
        upgraded = load_store(save_store(legacy))
        assert upgraded.count == store.count

    @pytest.mark.parametrize("cell", ["pbe1", "pbe2"])
    @pytest.mark.parametrize("kind", ["cmpbe", "direct", "index"])
    def test_v1_blob_infers_the_builders_spec(self, kind, cell):
        knobs = (
            dict(eta=16, buffer_size=300)
            if cell == "pbe1"
            else dict(gamma=8.0, unit=2.0)
        )
        key, dump, cfg = {
            "cmpbe": (
                f"cm-pbe-{cell[-1]}",
                dump_cmpbe,
                dict(width=4, depth=3, universe_size=16),
            ),
            "direct": ("direct", dump_direct_map, dict(cell=cell)),
            "index": (
                "index",
                dump_index,
                dict(cell=cell, width=4, depth=3, universe_size=16),
            ),
        }[kind]
        rng = np.random.default_rng(11)
        store = create_store(key, **knobs, **cfg)
        store.extend_batch(
            rng.integers(0, 16, 120), np.sort(rng.uniform(0.0, 200.0, 120))
        )
        store.finalize()
        legacy = load_store(dump(store.inner))
        assert legacy.backend_key == store.backend_key
        assert legacy.spec.to_dict() == store.spec.to_dict()

    @pytest.mark.parametrize("codec", ["v1", "envelope"])
    def test_loaded_index_grows_cells_of_its_spec(self, codec):
        """Ids first seen after a load get cells of the stored spec at
        every level, so the loaded index still merges with a later
        part (new direct-level cells were once hard-wired PBE-1)."""
        cfg = dict(universe_size=64, cell="pbe2", gamma=5.0, width=4, depth=2)
        store = create_store("index", **cfg)
        store.extend_batch(np.array([0, 1]), np.array([1.0, 2.0]))
        blob = dump_index(store.inner) if codec == "v1" else save_store(store)
        loaded = load_store(blob)
        loaded.extend_batch(np.array([63, 62]), np.array([3.0, 4.0]))
        later = create_store("index", **cfg)
        later.extend_batch(np.array([63]), np.array([10.0]))
        merged = loaded.merge(later)
        assert merged.count == 5
        assert load_store(save_store(merged)).count == 5
