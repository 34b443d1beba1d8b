"""Write-ahead log framing, fsync policies and replay semantics."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.wal import (
    FSYNC_POLICIES,
    WAL_HEADER_SIZE,
    WAL_MAGIC,
    WriteAheadLog,
    replay_wal,
)


def _batch(n, offset=0):
    ids = np.arange(n, dtype=np.int64) % 7
    ts = np.arange(offset, offset + n, dtype=np.float64)
    return ids, ts


class TestAppendReplay:
    def test_round_trips_batches_in_order(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for i in range(5):
                ids, ts = _batch(10, offset=10 * i)
                wal.append(ids, ts)
        replay = replay_wal(path)
        assert replay.frames == 5
        assert replay.records == 50
        assert not replay.torn
        assert replay.good_offset == os.path.getsize(path)
        for i, (ids, ts, counts) in enumerate(replay):
            want_ids, want_ts = _batch(10, offset=10 * i)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(ts, want_ts)
            assert counts is None

    def test_counts_column_round_trips(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([1, 2], [0.0, 1.0], np.asarray([3, 4]))
            wal.append_record(9, 2.0, count=5)
            wal.append_record(9, 3.0)
        replay = replay_wal(path)
        assert replay.frames == 3
        np.testing.assert_array_equal(replay.batches[0][2], [3, 4])
        np.testing.assert_array_equal(replay.batches[1][2], [5])
        assert replay.batches[2][2] is None

    def test_missing_file_replays_empty(self, tmp_path):
        replay = replay_wal(tmp_path / "nope.log")
        assert replay.frames == 0 and not replay.torn
        assert replay.good_offset == 0

    def test_empty_log_replays_empty(self, tmp_path):
        path = tmp_path / "wal.log"
        WriteAheadLog(path).close()
        replay = replay_wal(path)
        assert replay.frames == 0 and not replay.torn
        assert replay.good_offset == WAL_HEADER_SIZE

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InvalidParameterError, match="not a WAL"):
            replay_wal(path)


class TestTornTails:
    def _write_two_frames(self, path):
        with WriteAheadLog(path) as wal:
            wal.append(*_batch(4))
            wal.append(*_batch(4, offset=4))
        return os.path.getsize(path)

    @pytest.mark.parametrize("cut", [1, 4, 7, 8, 15])
    def test_truncation_drops_only_the_torn_frame(self, tmp_path, cut):
        path = tmp_path / "wal.log"
        size = self._write_two_frames(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - cut)
        replay = replay_wal(path)
        assert replay.torn
        assert replay.frames == 1
        np.testing.assert_array_equal(replay.batches[0][1], _batch(4)[1])

    def test_corrupt_crc_stops_replay_at_the_bad_frame(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_two_frames(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte in the second frame
        path.write_bytes(bytes(data))
        replay = replay_wal(path)
        assert replay.torn
        assert replay.frames == 1

    def test_absurd_length_field_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        WriteAheadLog(path).close()
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 2**31, 0) + b"xx")
        replay = replay_wal(path)
        assert replay.torn and replay.frames == 0

    def test_append_after_resume_at_skips_the_torn_bytes(self, tmp_path):
        path = tmp_path / "wal.log"
        size = self._write_two_frames(path)
        with open(path, "ab") as handle:
            handle.write(b"\x07garbage")  # torn tail
        replay = replay_wal(path)
        assert replay.torn and replay.frames == 2
        wal = WriteAheadLog(path, _resume_at=replay.good_offset)
        wal.append(*_batch(4, offset=8))
        wal.close()
        again = replay_wal(path)
        assert not again.torn
        assert again.frames == 3
        assert again.good_offset == size + (again.good_offset - size)


class TestPolicies:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_all_policies_produce_identical_bytes(self, tmp_path, policy):
        path = tmp_path / f"wal-{policy}.log"
        with WriteAheadLog(path, fsync=policy) as wal:
            wal.append(*_batch(16))
            wal.flush()
        assert path.read_bytes()[:4] == WAL_MAGIC
        replay = replay_wal(path)
        assert replay.frames == 1 and replay.records == 16

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="fsync policy"):
            WriteAheadLog(tmp_path / "w.log", fsync="sometimes")

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.close()
        wal.close()
        assert wal.closed

    def test_size_tracks_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        assert wal.size == WAL_HEADER_SIZE
        grown = wal.append(*_batch(3))
        assert grown == wal.size == os.path.getsize(wal.path)
        wal.close()


class TestFlushThresholds:
    """Under ``fsync="batch"`` the log syncs on its own once the
    unsynced tail crosses the byte threshold, so a slow producer
    cannot hold acknowledged records unsynced indefinitely.

    A 4-record frame is 8 bytes of frame header plus a 70-byte payload
    (1 kind + 4 count + 4x8 ids + 4x8 timestamps + 1 counts flag) =
    78 bytes; the byte-threshold test leans on that arithmetic.
    """

    def test_byte_threshold_triggers_a_sync(self, tmp_path):
        with WriteAheadLog(
            tmp_path / "w.log", fsync="batch", flush_bytes=100
        ) as wal:
            wal.append(*_batch(4))  # 78 bytes: below the threshold
            assert wal.unsynced_bytes == 78
            wal.append(*_batch(4, offset=4))  # 156 >= 100: synced
            assert wal.unsynced_bytes == 0
            wal.append(*_batch(4, offset=8))  # window restarts
            assert wal.unsynced_bytes == 78

    def test_explicit_flush_resets_the_window(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.log", fsync="batch") as wal:
            wal.append(*_batch(4))
            assert wal.unsynced_bytes > 0
            wal.flush()
            assert wal.unsynced_bytes == 0

    def test_always_policy_never_accumulates(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.log", fsync="always") as wal:
            wal.append(*_batch(4))
            assert wal.unsynced_bytes == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"flush_bytes": 0}, {"flush_bytes": -1}],
        ids=["zero-bytes", "negative-bytes"],
    )
    def test_nonpositive_thresholds_rejected(self, tmp_path, kwargs):
        with pytest.raises(InvalidParameterError, match="positive"):
            WriteAheadLog(tmp_path / "w.log", fsync="batch", **kwargs)


def test_frame_layout_is_length_crc_payload(tmp_path):
    """The documented wire format, checked byte-for-byte."""
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append(np.asarray([5], dtype=np.int64), np.asarray([2.5]))
    data = path.read_bytes()
    offset = WAL_HEADER_SIZE
    length, crc = struct.unpack_from("<II", data, offset)
    payload = data[offset + 8 : offset + 8 + length]
    assert zlib.crc32(payload) == crc
    kind, n = struct.unpack_from("<BI", payload)
    assert kind == 1 and n == 1
    assert struct.unpack_from("<q", payload, 5)[0] == 5
    assert struct.unpack_from("<d", payload, 13)[0] == 2.5
    assert payload[21] == 0  # no counts column
