"""Offline shard rebalancing: crash matrix and shard-layout manifests.

The crash matrix runs 4→2 and 2→3 rebalances with a fault injected at
the k-th call, for every k, of ``atomic_write_bytes`` (durable and
compaction modules) and of the process-global ``os.replace``,
``os.unlink`` and ``shutil.rmtree``.  After every crash a copy of the
directory must recover to the full query matrix of the un-rebalanced
records, with the old or the new shard count, with nothing at the root
but ``MANIFEST.json`` and the shard directories the manifest lists,
and identically a second time.

The layout tests pin the top-level ``sharded-durable`` manifest:
manifests without ``shard_dirs`` (the layout before rebalances named
their directories) still recover and rebalance, a leftover rebalance
journal from an older version is refused untouched, an uncommitted
newer-generation shard directory is swept while a same-generation
extra one is refused, and the parallel-ingest coordinator resumes on
the directories a rebalance committed.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.core.compaction import rebalance
from repro.core.durable import MANIFEST_NAME, create_durable, recover
from repro.core.errors import RecoveryError, ShardLayoutError
from repro.core.parallel_ingest import ParallelIngestCoordinator

from test_crash_recovery import (
    _InjectedCrash,
    _oracle,
    _stream,
    assert_matrix_identical,
)
from test_durable_lifecycle import _Faults

N_RECORDS = 400


def _build(directory, ids, ts, shards):
    store = create_durable(
        directory, shards=shards, seal_elements=32, fsync="never"
    )
    with store:
        store.extend_batch(ids, ts)


def _read_manifest(directory):
    with open(os.path.join(directory, MANIFEST_NAME), "rb") as handle:
        return json.loads(handle.read().decode("utf-8"))


def _listed_shard_dirs(directory):
    """The shard directories the top-level manifest commits to; a
    manifest without ``shard_dirs`` names ``shard-000 … shard-{N-1}``."""
    manifest = _read_manifest(directory)
    return manifest.get("shard_dirs") or [
        f"shard-{index:03d}" for index in range(int(manifest["shards"]))
    ]


def _assert_recovered(directory, oracle, shard_counts):
    store = recover(directory, fsync="never")
    with store:
        assert len(store.shards) in shard_counts
        assert_matrix_identical(store, oracle)
        layout = len(store.shards)
    assert sorted(os.listdir(directory)) == sorted(
        [MANIFEST_NAME, *_listed_shard_dirs(directory)]
    )
    return layout


class TestRebalanceCrashMatrix:
    @pytest.mark.parametrize("old,new", [(4, 2), (2, 3)])
    @pytest.mark.parametrize("kind", ["write", "replace", "unlink", "rmtree"])
    def test_every_crash_point_recovers(self, tmp_path, old, new, kind):
        ids, ts = _stream(N_RECORDS)
        oracle = _oracle(ids, ts)
        base = tmp_path / "base"
        _build(base, ids, ts, shards=old)

        dry = tmp_path / "dry"
        shutil.copytree(base, dry)
        with _Faults(kind, 0) as counter:
            rebalance(dry, shards=new, fsync="never")
        assert counter.calls > 0

        for k in range(1, counter.calls + 1):
            work = tmp_path / f"work-{k}"
            crashed = tmp_path / f"crashed-{k}"
            shutil.copytree(base, work)
            with _Faults(kind, k) as fault:
                try:
                    rebalance(work, shards=new, fsync="never")
                except (_InjectedCrash, RecoveryError):
                    # A fault in the thread-pooled recovery of the old
                    # layout surfaces wrapped in a RecoveryError.
                    pass
            assert fault.fired, (kind, k)
            shutil.copytree(work, crashed)
            first = _assert_recovered(crashed, oracle, (old, new))
            second = _assert_recovered(crashed, oracle, (first,))
            assert second == first
            shutil.rmtree(work)
            shutil.rmtree(crashed)


def _tree(directory):
    """Every file under ``directory`` with its bytes."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


class TestShardLayoutManifest:
    def test_manifest_without_shard_dirs_recovers_and_rebalances(
        self, tmp_path
    ):
        ids, ts = _stream(N_RECORDS)
        root = tmp_path / "store"
        _build(root, ids, ts, shards=3)
        # The top-level manifest as written before it named its shards.
        manifest = _read_manifest(root)
        legacy = {
            key: manifest[key]
            for key in (
                "format", "kind", "shards", "backend", "child_cfg",
                "seal_elements",
            )
        }
        (root / MANIFEST_NAME).write_text(json.dumps(legacy))
        assert _assert_recovered(root, _oracle(ids, ts), (3,)) == 3
        assert _read_manifest(root) == legacy

        rebalance(root, shards=2, fsync="never")
        assert _listed_shard_dirs(root) == ["shard-000.g1", "shard-001.g1"]
        assert _read_manifest(root)["tombstones"] == []
        assert _assert_recovered(root, _oracle(ids, ts), (2,)) == 2

        rebalance(root, shards=3, fsync="never")
        assert _listed_shard_dirs(root) == [
            "shard-000.g2", "shard-001.g2", "shard-002.g2",
        ]
        assert _assert_recovered(root, _oracle(ids, ts), (3,)) == 3

    def test_legacy_rebalance_journal_is_refused_untouched(self, tmp_path):
        ids, ts = _stream(64)
        root = tmp_path / "store"
        _build(root, ids, ts, shards=2)
        (root / "REBALANCE-COMMIT.json").write_text('{"nonce": "x"}\n')
        before = _tree(root)
        with pytest.raises(RecoveryError, match="REBALANCE-COMMIT.json"):
            recover(root)
        with pytest.raises(RecoveryError, match="REBALANCE-COMMIT.json"):
            rebalance(root, shards=3)
        assert _tree(root) == before

    def test_newer_generation_orphan_is_removed(self, tmp_path):
        ids, ts = _stream(N_RECORDS)
        root = tmp_path / "store"
        _build(root, ids, ts, shards=2)
        # What a rebalance leaves when it dies before its commit: a
        # whole newer-generation store the manifest does not list.
        _build(tmp_path / "orphan", ids, ts, shards=2)
        shutil.copytree(
            tmp_path / "orphan" / "shard-000", root / "shard-000.g1"
        )
        assert _assert_recovered(root, _oracle(ids, ts), (2,)) == 2
        assert not (root / "shard-000.g1").exists()

    def test_same_or_older_generation_extra_dir_is_refused(self, tmp_path):
        ids, ts = _stream(N_RECORDS)
        root = tmp_path / "store"
        _build(root, ids, ts, shards=3)
        rebalance(root, shards=2, fsync="never")
        (root / "shard-002.g1").mkdir()
        with pytest.raises(ShardLayoutError, match="extra shard-002.g1"):
            recover(root)
        (root / "shard-002.g1").rmdir()
        (root / "shard-000").mkdir()
        with pytest.raises(ShardLayoutError, match="extra shard-000"):
            recover(root)

    def test_missing_listed_dir_is_refused(self, tmp_path):
        ids, ts = _stream(N_RECORDS)
        root = tmp_path / "store"
        _build(root, ids, ts, shards=3)
        rebalance(root, shards=2, fsync="never")
        shutil.rmtree(root / "shard-001.g1")
        with pytest.raises(ShardLayoutError, match="missing shard-001.g1"):
            recover(root)


class TestResumeAfterRebalance:
    def test_coordinator_resumes_on_rebalanced_layout(self, tmp_path):
        ids, ts = _stream(800)
        root = tmp_path / "store"

        def ingest(sl, writers, resume):
            with ParallelIngestCoordinator(
                root,
                writers=writers,
                seal_elements=64,
                fsync="never",
                resume=resume,
            ) as coordinator:
                for start in range(sl.start, sl.stop, 97):
                    stop = min(start + 97, sl.stop)
                    coordinator.extend_batch(ids[start:stop], ts[start:stop])
                return coordinator.flush()

        ingest(slice(0, 400), writers=4, resume=False)
        rebalance(root, shards=2, fsync="never")
        assert ingest(slice(400, 800), writers=2, resume=True) == 800
        assert _assert_recovered(root, _oracle(ids, ts), (2,)) == 2
        assert not (root / "shard-000").exists()

    def test_cli_recover_names_real_shard_dirs(self, tmp_path, capsys):
        ids, ts = _stream(N_RECORDS)
        root = tmp_path / "store"
        _build(root, ids, ts, shards=3)
        rebalance(root, shards=2, fsync="never")
        assert main(["recover", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "shard-000.g1=" in out and "shard-001.g1=" in out
