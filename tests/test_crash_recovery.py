"""Crash-injection differential suite.

Three layers of violence against the durable lifecycle, all held to the
same bar: after ``recover()``, the store must answer the full query
matrix bit-identically to an :class:`ExactStore` oracle fed the
acknowledged prefix of the stream.

* property tests truncating the WAL at arbitrary byte offsets, and a
  check that replaying each WAL as one batch leaves the memtable that
  frame-by-frame replay left,
* fault injection that raises mid-seal and mid-manifest-update,
* a subprocess SIGKILL torture test (single store and 3 shards).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.durable as durable_mod
import repro.core.serialize as serialize_mod
from repro.core.durable import create_durable, recover
from repro.core.errors import RecoveryError
from repro.core.serialize import (
    atomic_write_bytes,
    load_store,
    save_store,
    write_store,
)
from repro.core.store import (
    ExactStore,
    ShardedBurstStore,
    create_store,
    shard_routes,
)
from repro.core.wal import replay_wal

UNIVERSE = 9
TAU = 4.0
THETA = 0.4


def _stream(n, universe=UNIVERSE):
    ids = (np.arange(n) * 7) % universe
    ts = np.arange(n, dtype=np.float64) * 0.5
    return ids, ts


def _oracle(ids, ts):
    oracle = ExactStore()
    if len(ids):
        oracle.extend_batch(np.asarray(ids), np.asarray(ts))
    return oracle


def assert_matrix_identical(store, oracle, universe=UNIVERSE):
    """The full query surface, bit-for-bit against the oracle."""
    horizon = max(oracle.t_end if oracle.count else 0.0, 1.0) + 2 * TAU
    panel_ids = np.repeat(np.arange(universe), 7)
    panel_ts = np.tile(np.linspace(0.0, horizon, 7), universe)
    np.testing.assert_array_equal(
        store.point_query_batch(panel_ids, panel_ts, TAU),
        oracle.point_query_batch(panel_ids, panel_ts, TAU),
    )
    for event in range(universe):
        assert store.bursty_time_query(event, THETA, TAU) == (
            oracle.bursty_time_query(event, THETA, TAU)
        ), event
    for t in np.linspace(0.0, horizon, 5):
        assert store.bursty_event_query(float(t), THETA, TAU) == (
            oracle.bursty_event_query(float(t), THETA, TAU)
        ), t
    assert store.count == oracle.count


def _active_wal(directory):
    wals = sorted(glob.glob(os.path.join(directory, "wal-*.log")))
    assert len(wals) == 1, wals
    return wals[0]


class TestTornWalProperty:
    """Truncate the crashed WAL at every interesting byte offset."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_records=st.integers(min_value=1, max_value=90),
        cut=st.integers(min_value=0, max_value=400),
    )
    def test_recovery_converges_to_acknowledged_prefix(self, n_records, cut):
        ids, ts = _stream(n_records)
        with tempfile.TemporaryDirectory() as root:
            live = os.path.join(root, "live")
            crashed = os.path.join(root, "crashed")
            store = create_durable(live, seal_elements=17, fsync="never")
            store.extend_batch(ids, ts)
            sealed = sum(seg.count for seg in store._segments)
            # "Crash": snapshot the directory with the WAL still open,
            # then chop an arbitrary number of bytes off the live log.
            shutil.copytree(live, crashed)
            store.close()
            wal_path = _active_wal(crashed)
            size = os.path.getsize(wal_path)
            with open(wal_path, "r+b") as handle:
                handle.truncate(max(0, size - cut))
            recovered = recover(crashed)
            survived = recovered.count
            assert sealed <= survived <= n_records
            assert_matrix_identical(
                recovered, _oracle(ids[:survived], ts[:survived])
            )
            recovered.close()

    @settings(max_examples=15, deadline=None)
    @given(
        n_records=st.integers(min_value=5, max_value=60),
        cut=st.integers(min_value=1, max_value=200),
        extra=st.integers(min_value=1, max_value=30),
    )
    def test_ingest_resumes_cleanly_after_a_torn_tail(
        self, n_records, cut, extra
    ):
        ids, ts = _stream(n_records + extra)
        with tempfile.TemporaryDirectory() as root:
            live = os.path.join(root, "live")
            crashed = os.path.join(root, "crashed")
            store = create_durable(live, seal_elements=13, fsync="never")
            store.extend_batch(ids[:n_records], ts[:n_records])
            shutil.copytree(live, crashed)
            store.close()
            wal_path = _active_wal(crashed)
            size = os.path.getsize(wal_path)
            with open(wal_path, "r+b") as handle:
                handle.truncate(max(0, size - cut))
            resumed = recover(crashed)
            survived = resumed.count
            # Keep global stream order: replay the lost suffix too.
            resumed.extend_batch(ids[survived:], ts[survived:])
            resumed.close()
            final = recover(crashed)
            assert_matrix_identical(final, _oracle(ids, ts))
            final.close()


class TestOneBatchPerWal:
    """Recovery applies each replayed WAL as one batch; the memtable it
    leaves must be byte-identical to applying the frames one by one."""

    @pytest.mark.parametrize("backend", ["exact", "cm-pbe-1"])
    @pytest.mark.parametrize("cut", [0, 5])
    def test_one_batch_equals_frame_by_frame(self, tmp_path, backend, cut):
        rng = np.random.default_rng(23)
        n = 600
        ids = rng.integers(0, UNIVERSE, n)
        ts = np.sort(rng.integers(0, 300, n)).astype(np.float64)
        counts = rng.integers(1, 4, n)
        cfg = (
            {}
            if backend == "exact"
            else dict(width=4, depth=2, eta=8, buffer_size=32)
        )
        live, crashed = tmp_path / "live", tmp_path / "crashed"
        store = create_durable(
            live, backend=backend, seal_elements=10**6, fsync="never", **cfg
        )
        # One frame per call: with counts, without, a single record.
        edges = [0, 50, 130, 131, 260, 400, n]
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            store.extend_batch(
                ids[lo:hi], ts[lo:hi], counts[lo:hi] if k % 2 else None
            )
        shutil.copytree(live, crashed)
        store.close()
        wal_path = _active_wal(crashed)
        with open(wal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal_path) - cut)
        replay = replay_wal(wal_path)
        assert replay.torn == (cut > 0)
        assert replay.frames == len(edges) - 1 - (cut > 0)
        per_frame = create_store(backend, **cfg)
        for frame in replay:
            per_frame._ingest_batch(*frame)
        recovered = recover(crashed)
        try:
            assert recovered.count == per_frame.count
            assert save_store(recovered._memtable) == save_store(per_frame)
        finally:
            recovered.close()


class _InjectedCrash(RuntimeError):
    pass


class _FailingAtomicWrite:
    """Stand-in for atomic_write_bytes that dies on call number N."""

    def __init__(self, fail_on_call):
        self.fail_on_call = fail_on_call
        self.calls = 0

    def __call__(self, path, data, *, fsync=True):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise _InjectedCrash(f"injected on call {self.calls}: {path}")
        return atomic_write_bytes(path, data, fsync=fsync)


class TestCrashMidSeal:
    """Kill the seal between its atomic steps; nothing acked may vanish.

    A seal writes the segment (call 1), rotates the WAL, then commits
    the manifest (call 2).  Crashing on either call must leave the
    directory recoverable to every record already framed into the WAL.
    """

    @pytest.mark.parametrize(
        "fail_on_call", [1, 2], ids=["mid-segment", "mid-manifest"]
    )
    def test_seal_crash_is_recoverable(
        self, tmp_path, monkeypatch, fail_on_call
    ):
        ids, ts = _stream(64)
        live = tmp_path / "live"
        crashed = tmp_path / "crashed"
        store = create_durable(live, seal_elements=1000, fsync="never")
        acked = 0
        for start in range(0, 64, 8):
            store.extend_batch(ids[start : start + 8], ts[start : start + 8])
            acked = start + 8
            if acked == 40:
                break
        # The creation-time manifest was call-free by now; count from
        # here so the very next seal hits the injected fault.
        failer = _FailingAtomicWrite(fail_on_call)
        monkeypatch.setattr(durable_mod, "atomic_write_bytes", failer)
        with pytest.raises(_InjectedCrash):
            store.seal()
        assert failer.calls == fail_on_call
        monkeypatch.undo()
        shutil.copytree(live, crashed)
        recovered = recover(crashed)
        survived = recovered.count
        assert survived >= acked
        assert_matrix_identical(
            recovered, _oracle(ids[:survived], ts[:survived])
        )
        recovered.close()
        # Recovery is idempotent even over the crash debris.
        again = recover(crashed)
        assert_matrix_identical(
            again, _oracle(ids[:survived], ts[:survived])
        )
        again.close()

    def test_mid_batch_seal_crash_keeps_earlier_slices(
        self, tmp_path, monkeypatch
    ):
        """A seal triggered *inside* a big batch dies; the slices framed
        before it must survive recovery."""
        ids, ts = _stream(50)
        live = tmp_path / "live"
        crashed = tmp_path / "crashed"
        store = create_durable(live, seal_elements=20, fsync="never")
        failer = _FailingAtomicWrite(3)  # creation manifest is call-free;
        # seal #1 = calls 1-2; die on seal #2's segment write (call 3).
        monkeypatch.setattr(durable_mod, "atomic_write_bytes", failer)
        with pytest.raises(_InjectedCrash):
            store.extend_batch(ids, ts)
        monkeypatch.undo()
        shutil.copytree(live, crashed)
        recovered = recover(crashed)
        survived = recovered.count
        # Seal #1 committed 20 records; every later record fully framed
        # into the post-rotation WAL must be back.
        assert survived >= 40
        assert_matrix_identical(
            recovered, _oracle(ids[:survived], ts[:survived])
        )
        recovered.close()


class TestAtomicWriteFaults:
    """Satellite: crash-safe save_store — a dying writer never tears
    the destination file and never litters temp files."""

    def _fail_partway(self, monkeypatch):
        def dying_write(handle, data, *, fsync):
            handle.write(data[: len(data) // 2])
            handle.flush()
            raise _InjectedCrash("writer died mid-payload")

        monkeypatch.setattr(serialize_mod, "_write_and_sync", dying_write)

    def test_old_envelope_survives_a_torn_rewrite(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.beds"
        first = create_store("exact")
        first.extend_batch(*_stream(30))
        write_store(first, path)
        golden = path.read_bytes()
        second = create_store("exact")
        second.extend_batch(*_stream(60))
        self._fail_partway(monkeypatch)
        with pytest.raises(_InjectedCrash):
            write_store(second, path)
        assert path.read_bytes() == golden
        assert not list(tmp_path.glob("*.tmp"))
        monkeypatch.undo()
        write_store(second, path)
        assert save_store(load_store(path.read_bytes())) == save_store(
            second
        )

    def test_fresh_write_failure_leaves_nothing(self, tmp_path, monkeypatch):
        self._fail_partway(monkeypatch)
        with pytest.raises(_InjectedCrash):
            atomic_write_bytes(tmp_path / "new.bin", b"payload" * 100)
        assert sorted(os.listdir(tmp_path)) == []


_CHILD_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    import numpy as np
    from repro.core.durable import create_durable

    directory, ack_path, shards, n, universe = sys.argv[1:6]
    n, universe, shards = int(n), int(universe), int(shards)
    ids = (np.arange(n) * 7) % universe
    ts = np.arange(n, dtype=np.float64) * 0.5
    store = create_durable(
        directory, shards=shards, seal_elements=500, fsync="never"
    )
    batch = 137
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        store.extend_batch(ids[start:stop], ts[start:stop])
        tmp = ack_path + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(str(stop))
        os.replace(tmp, ack_path)
        # Pace the ingest so the parent's SIGKILL lands mid-stream
        # instead of racing a sub-second clean completion.
        time.sleep(0.001)
    store.close()
    """
)


def _read_ack(path):
    try:
        with open(path) as handle:
            return int(handle.read())
    except (OSError, ValueError):
        return 0


class TestSigkillTorture:
    """SIGKILL a real ingesting process; recovery answers the full
    query matrix bit-identically to the oracle on the acked prefix."""

    N = 20_000
    UNIVERSE = 23

    def _torture(self, directory, ack_path, shards):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD_SCRIPT,
                str(directory),
                str(ack_path),
                str(shards),
                str(self.N),
                str(self.UNIVERSE),
            ],
            env=env,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if _read_ack(ack_path) >= 2_000:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.01)
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        acked = _read_ack(ack_path)
        assert acked >= 2_000, "child never reached the kill window"
        assert acked < self.N, "child finished before the SIGKILL landed"
        return acked

    def test_single_store(self, tmp_path):
        directory = tmp_path / "store"
        acked = self._torture(directory, tmp_path / "ack", shards=1)
        recovered = recover(directory)
        survived = recovered.count
        assert acked <= survived <= self.N, (acked, survived)
        ids, ts = _stream(self.N, universe=self.UNIVERSE)
        assert_matrix_identical(
            recovered,
            _oracle(ids[:survived], ts[:survived]),
            universe=self.UNIVERSE,
        )
        recovered.close()

    def test_three_shards(self, tmp_path):
        directory = tmp_path / "store"
        acked = self._torture(directory, tmp_path / "ack", shards=3)
        recovered = recover(directory)
        assert isinstance(recovered, ShardedBurstStore)
        ids, ts = _stream(self.N, universe=self.UNIVERSE)
        routes = shard_routes(np.arange(self.UNIVERSE), 3)
        # A kill mid-batch can land between per-shard sub-appends, so
        # the recovered state is a prefix of each shard's OWN
        # sub-stream, not one global prefix.  Verify each shard against
        # its per-shard oracle, then the whole store against the union.
        union_ids, union_ts = [], []
        for index, shard in enumerate(recovered.shards):
            mask = routes[ids] == index
            shard_ids, shard_ts = ids[mask], ts[mask]
            took = shard.count
            acked_here = int(mask[:acked].sum())
            assert acked_here <= took <= len(shard_ids), (
                index,
                acked_here,
                took,
            )
            oracle = _oracle(shard_ids[:took], shard_ts[:took])
            for event in np.arange(self.UNIVERSE)[
                routes == index
            ].tolist():
                assert shard.bursty_time_query(event, THETA, TAU) == (
                    oracle.bursty_time_query(event, THETA, TAU)
                )
            union_ids.append(shard_ids[:took])
            union_ts.append(shard_ts[:took])
        all_ids = np.concatenate(union_ids)
        all_ts = np.concatenate(union_ts)
        order = np.argsort(all_ts, kind="stable")
        assert_matrix_identical(
            recovered,
            _oracle(all_ids[order], all_ts[order]),
            universe=self.UNIVERSE,
        )
        recovered.close()


class TestCompactionCrashInjection:
    """Kill a compaction merge at each of its three crash windows.

    Whatever the window, a recovered directory must answer the full
    query surface bit-identically to the uncompacted oracle: the merge
    either never happened (orphan output reaped) or fully happened
    (tombstoned inputs drained) — never half.
    """

    def _fifty_segment_store(self, path, n=300):
        ids, ts = _stream(n)
        store = create_durable(path, seal_elements=10, fsync="never")
        store.extend_batch(ids, ts)
        store.seal()
        return store, ids, ts

    def _assert_recovers_identically(self, crashed, ids, ts):
        recovered = recover(crashed)
        assert_matrix_identical(recovered, _oracle(ids, ts))
        recovered.close()
        # And again: recovery over the drained debris is idempotent.
        again = recover(crashed)
        assert_matrix_identical(again, _oracle(ids, ts))
        again.close()

    def test_crash_mid_merge_write(self, tmp_path, monkeypatch):
        """Die inside the merged-segment write: inputs must win."""
        import repro.core.compaction as compaction_mod
        from repro.core.errors import CompactionError

        live = tmp_path / "live"
        crashed = tmp_path / "crashed"
        store, ids, ts = self._fifty_segment_store(live)
        with store:
            before = list(store._segment_names)
            failer = _FailingAtomicWrite(1)
            monkeypatch.setattr(
                compaction_mod, "atomic_write_bytes", failer
            )
            with pytest.raises(CompactionError):
                store.compact(fanin=4, min_segments=2)
            monkeypatch.undo()
            # The failed run changed nothing the reader can see.
            assert list(store._segment_names) == before
            assert_matrix_identical(store, _oracle(ids, ts))
            shutil.copytree(live, crashed)
        self._assert_recovers_identically(crashed, ids, ts)

    def test_crash_after_segment_before_manifest_swap(
        self, tmp_path, monkeypatch
    ):
        """Die between the merged-segment write and the manifest swap:
        the output is an orphan the next recovery must reap."""
        live = tmp_path / "live"
        crashed = tmp_path / "crashed"
        store, ids, ts = self._fifty_segment_store(live)
        try:
            manifest_before = (live / "MANIFEST.json").read_bytes()
            failer = _FailingAtomicWrite(1)  # first manifest write dies
            monkeypatch.setattr(durable_mod, "atomic_write_bytes", failer)
            with pytest.raises(_InjectedCrash):
                store.compact(fanin=4, min_segments=2)
            monkeypatch.undo()
            # The old manifest survived the torn swap ...
            assert (live / "MANIFEST.json").read_bytes() == manifest_before
            # ... and the merged segment is on disk but unreferenced.
            import json as json_mod

            manifest = json_mod.loads(manifest_before)
            on_disk = {
                p.name for p in live.glob("segment-*.beds")
            }
            orphans = on_disk - set(manifest["segments"])
            assert len(orphans) == 1
            shutil.copytree(live, crashed)
        finally:
            store._closed = True  # memtable state is torn; skip close
        self._assert_recovers_identically(crashed, ids, ts)
        # Recovery reaped the orphan output.
        assert not (
            {p.name for p in crashed.glob("segment-*.beds")} & orphans
        )

    def test_crash_after_swap_before_input_delete(
        self, tmp_path, monkeypatch
    ):
        """Die after the manifest swap, before the input unlinks: the
        tombstoned inputs must be drained by recovery."""
        import os as os_mod

        live = tmp_path / "live"
        crashed = tmp_path / "crashed"
        store, ids, ts = self._fifty_segment_store(live)
        try:
            doomed = set()
            real_unlink = os.unlink

            def tripwire(path, *args, **kwargs):
                name = os.path.basename(os.fspath(path))
                if name.startswith("segment-") and name.endswith(".beds"):
                    doomed.add(name)
                    raise _InjectedCrash(f"unlink {name}")
                return real_unlink(path, *args, **kwargs)

            monkeypatch.setattr(os_mod, "unlink", tripwire)
            with pytest.raises(_InjectedCrash):
                store.compact(fanin=4, min_segments=2)
            monkeypatch.undo()
            # The swap committed: manifest lists the merged segment and
            # tombstones the inputs, which are still on disk.
            import json as json_mod

            manifest = json_mod.loads(
                (live / "MANIFEST.json").read_bytes()
            )
            assert doomed
            assert set(manifest["tombstones"]) >= doomed
            for name in doomed:
                assert (live / name).exists()
            shutil.copytree(live, crashed)
        finally:
            store._closed = True
        self._assert_recovers_identically(crashed, ids, ts)
        # Recovery drained the tombstones: inputs gone, none listed.
        import json as json_mod

        manifest = json_mod.loads((crashed / "MANIFEST.json").read_bytes())
        assert manifest["tombstones"] == []
        for name in doomed:
            assert not (crashed / name).exists()


_MISSING = object()


def _edit_manifest(directory, field, value) -> None:
    path = os.path.join(directory, durable_mod.MANIFEST_NAME)
    with open(path) as handle:
        manifest = json.load(handle)
    if value is _MISSING:
        del manifest[field]
    else:
        manifest[field] = value
    with open(path, "w") as handle:
        json.dump(manifest, handle)


def _listing(directory) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(root, name), directory)
        for root, _, names in os.walk(directory)
        for name in names
    )


class TestMalformedManifest:
    """Recovery checks every manifest field it reads before it drains a
    tombstone, sweeps a file or rewrites the manifest: a malformed field
    raises a RecoveryError naming it and leaves the directory as it
    was."""

    @staticmethod
    def _sealed_store(directory, shards=1):
        ids, ts = _stream(20)
        store = create_durable(
            directory, backend="exact", shards=shards, seal_elements=5,
            fsync="never",
        )
        store.extend_batch(ids, ts)
        store.close()

    def test_missing_segments_keeps_every_sealed_segment(self, tmp_path):
        directory = tmp_path / "store"
        self._sealed_store(directory)
        _edit_manifest(directory, "segments", _MISSING)
        before = _listing(directory)
        assert len(glob.glob(str(directory / "segment-*.beds"))) == 4
        with pytest.raises(RecoveryError, match="'segments'"):
            recover(directory)
        assert _listing(directory) == before
        assert len(glob.glob(str(directory / "segment-*.beds"))) == 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seal_elements", 0),
            ("seal_elements", _MISSING),
            ("seal_elements", "five"),
            ("backend", _MISSING),
            ("backend", 7),
            ("wal_seq", _MISSING),
            ("wal_seq", "one"),
            ("child_cfg", {"no_such_knob": 1}),
        ],
        ids=[
            "seal_elements-zero", "seal_elements-missing",
            "seal_elements-not-int", "backend-missing", "backend-not-str",
            "wal_seq-missing", "wal_seq-not-int", "child_cfg-refused",
        ],
    )
    def test_malformed_store_field_is_named(self, tmp_path, field, value):
        directory = tmp_path / "store"
        self._sealed_store(directory)
        _edit_manifest(directory, field, value)
        before = _listing(directory)
        with pytest.raises(RecoveryError, match=repr(field)):
            recover(directory)
        assert _listing(directory) == before

    @pytest.mark.parametrize(
        "edits",
        [
            {"shards": 0, "shard_dirs": []},
            {"shards": _MISSING},
            {"shards": "two"},
        ],
        ids=["shards-zero", "shards-missing", "shards-not-int"],
    )
    def test_malformed_shard_count_is_named(self, tmp_path, edits):
        directory = tmp_path / "store"
        self._sealed_store(directory, shards=2)
        for field, value in edits.items():
            _edit_manifest(directory, field, value)
        before = _listing(directory)
        with pytest.raises(RecoveryError, match="'shards'"):
            recover(directory)
        assert _listing(directory) == before
