"""Segment compaction and shard rebalancing for durable stores.

The durable lifecycle (:mod:`repro.core.durable`) only ever *adds*
sealed ``segment-NNNNNN.beds`` files, so a long-running ingest degrades:
queries fold an ever-growing list of small segments and ``recover()``
reopens all of them.  This module is the maintenance half of that
lifecycle — the merge-down of immutable sketch snapshots that
Hokusai-style stores use to keep unbounded streams bounded:

* :func:`plan_compaction` — the pure tiering policy.  Segments are
  bucketed into factor-of-four byte-size tiers (:func:`size_tier`);
  the plan picks the leftmost maximal run of *adjacent* same-tier
  segments on the smallest tier, capped at ``fanin`` inputs.  Only
  adjacent segments may merge, in time order.  Regrouping merges keeps
  exact and PBE-1 answers bit for bit (integer offsets); PBE-2 answers
  may move by rounding (8.5e-14 at most in ``tests/test_merge_contract``
  measurements, which pin a 1e-12 bound).
* :func:`merge_pass` — one merge: it merges the planned run through
  :func:`~repro.core.parallel.merge_stores` in one n-part call (PBE-1
  cells concatenate their segments' zero-copy corner arrays, PBE-2
  cells their segment columns), writes the merged segment
  atomically under a name reserved from the store, then commits one
  atomic manifest swap through the store's segment commit — the same
  one every seal uses: new segment in, inputs out, inputs listed in the
  manifest's ``tombstones`` field.  Only after the swap are the input files
  unlinked and the tombstones cleared.  :func:`compact_until_stable`
  repeats it until the plan is empty.  Both run only when
  ``DurableBurstStore.compact()`` is called, on the caller's thread.

  Crash windows, by construction:

  - crash before the manifest swap → the reserved output is an orphan
    segment never referenced by any manifest; recovery's stale-file
    sweep reaps it, and the store answers from the untouched inputs;
  - crash after the swap, before the input unlinks → the manifest
    already serves the merged segment; recovery drains ``tombstones``
    (and the stale sweep backstops it) by deleting the inputs;
  - crash mid-manifest-write → ``os.replace`` leaves the old manifest
    intact, which is the "before" case.

* :func:`rebalance` — offline shard-count changes for
  ``sharded-durable`` directories (CLI: ``repro rebalance DIR --shards
  M``).  Every acknowledged record is exported from the old layout,
  streamed through the same Fibonacci shard hash the sharded store
  routes with, and written into ``M`` new shard directories under the
  root, named for the next layout generation.  It commits the way a
  compaction swap does: one atomic top-level manifest replace names the
  new directories and lists the old ones as ``tombstones``, then the
  old directories are removed and the tombstones cleared.

  Crash windows, by construction:

  - crash before the manifest replace → the old layout is intact; the
    new directories are of a newer generation than any the manifest
    lists, so :func:`repro.core.durable.recover` removes them;
  - crash after the replace, before the drain ends → the manifest
    already serves the new layout; recovery drains the tombstoned old
    directories (a half-deleted one included);
  - crash mid-manifest-write → ``os.replace`` leaves the old manifest
    intact, which is the "before" case.
"""

from __future__ import annotations

import os

from repro.core import tracing as _tracing
from repro.core.errors import CompactionError, InvalidParameterError
from repro.core.parallel import merge_stores
from repro.core.serialize import atomic_write_bytes, open_store, save_store
from repro.core.store import shard_routes

__all__ = [
    "DEFAULT_COMPACT_FANIN",
    "DEFAULT_COMPACT_MIN_SEGMENTS",
    "compact_until_stable",
    "merge_pass",
    "plan_compaction",
    "rebalance",
    "size_tier",
]

DEFAULT_COMPACT_FANIN = 8
DEFAULT_COMPACT_MIN_SEGMENTS = 4


# ----------------------------------------------------------------------
# Tiering policy (pure)
# ----------------------------------------------------------------------
def size_tier(size: int) -> int:
    """Bucket a segment byte size into a factor-of-four tier.

    Tier ``t`` covers sizes in ``[4**t, 4**(t+1))`` (zero and negative
    sizes clamp to tier 0), so segments within one tier are within 4x
    of each other — merging a run of them costs at most ``fanin``
    times the smallest member, the bound that keeps write
    amplification logarithmic.
    """
    return max(int(size), 1).bit_length() // 2


def plan_compaction(
    sizes,
    *,
    fanin: int = DEFAULT_COMPACT_FANIN,
    min_segments: int = DEFAULT_COMPACT_MIN_SEGMENTS,
):
    """Pick the next adjacent run of segments to merge, or ``None``.

    ``sizes`` are the byte sizes of the committed segments in time
    order.  Returns a half-open index range ``(start, stop)`` of at
    least two adjacent segments on the smallest tier that has such a
    run (leftmost on ties), capped at ``fanin`` inputs; ``None`` when
    fewer than ``min_segments`` segments exist or no tier has two
    adjacent members.  Each committed plan strictly reduces the
    segment count, so repeated planning always terminates.
    """
    fanin = int(fanin)
    min_segments = int(min_segments)
    if fanin < 2:
        raise InvalidParameterError(f"fanin must be >= 2, got {fanin}")
    if min_segments < 2:
        raise InvalidParameterError(
            f"min_segments must be >= 2, got {min_segments}"
        )
    sizes = [int(size) for size in sizes]
    if len(sizes) < min_segments:
        return None
    tiers = [size_tier(size) for size in sizes]
    best = None
    index = 0
    while index < len(tiers):
        stop = index
        while stop < len(tiers) and tiers[stop] == tiers[index]:
            stop += 1
        if stop - index >= 2 and (best is None or tiers[index] < best[0]):
            best = (tiers[index], index, stop)
        index = stop
    if best is None:
        return None
    _, start, stop = best
    return (start, min(stop, start + fanin))


# ----------------------------------------------------------------------
# Merge passes
# ----------------------------------------------------------------------
def merge_pass(store, *, fanin: int, min_segments: int) -> bool:
    """Plan and commit one merge of ``store``'s sealed segments; ``True``
    if one ran.

    The caller holds ``store._compact_lock``, so passes never
    interleave.  The store's seal condition is taken only to check that
    the store is writable and to snapshot and plan (the store's
    ``_commit_segment`` takes it again for the swap); the merge and the
    atomic segment write run outside any store lock.  Sealed segments
    are immutable and a seal only ever *appends* to the segment list, so
    the planned slice stays valid across that unlocked window.
    """
    with store._seal_cv:
        store._check_writable()
        names_all = list(store._segment_names)
        try:
            sizes = [
                os.path.getsize(os.path.join(store.directory, name))
                for name in names_all
            ]
        except OSError:
            return False
        store._compaction_live.set(len(names_all))
        plan = plan_compaction(sizes, fanin=fanin, min_segments=min_segments)
        if plan is None:
            return False
        start, stop = plan
        names = names_all[start:stop]
        parts = list(store._segments[start:stop])
        out_name = store._next_segment_name_locked()
    out_path = os.path.join(store.directory, out_name)
    try:
        with store._span(
            "compact.merge",
            inputs=len(parts),
            segment=out_name,
            bytes_in=int(sum(sizes[start:stop])),
        ):
            payload = save_store(merge_stores(parts))
        written = atomic_write_bytes(
            out_path, payload, fsync=store.fsync_policy != "never"
        )
        segment = open_store(out_path, lazy=True)
    except BaseException as exc:
        # The reserved output (if it got written) is an orphan no
        # manifest references; the next recovery reaps it.
        raise CompactionError(
            f"compaction of {names} failed: {exc!r}"
        ) from exc
    with store._span(
        "compact.manifest_swap", segment=out_name, inputs=len(names)
    ):
        store._commit_segment(out_name, segment, replaces=names)
    store._compaction_runs.inc()
    store._compaction_bytes_rewritten.inc(int(written))
    store._compaction_segments_merged.inc(len(names))
    store._compaction_live.set(store.n_segments)
    return True


def compact_until_stable(store, *, fanin: int, min_segments: int) -> int:
    """Run :func:`merge_pass` until the tiering policy is satisfied;
    returns the number of merges committed."""
    runs = 0
    while merge_pass(store, fanin=fanin, min_segments=min_segments):
        runs += 1
    return runs


# ----------------------------------------------------------------------
# Offline shard rebalancing
# ----------------------------------------------------------------------
def rebalance(directory, *, shards: int, fsync: str = "batch", tracer=None) -> dict:
    """Rewrite a ``sharded-durable`` directory to ``shards`` shards.

    Offline maintenance (no writer may hold the directory open):
    recovers the old layout, exports every acknowledged record
    (requires a record-retaining child backend such as ``exact``),
    routes them through the same Fibonacci shard hash the sharded
    store queries with, and builds the new shard directories beside
    the old ones.  The switch is one atomic manifest replace; a crash
    at any point either leaves the old layout intact or is completed
    by the next :func:`~repro.core.durable.recover`.

    Returns ``{"shards": M, "records": N}``.
    """
    from repro.core.durable import (
        DEFAULT_SEAL_ELEMENTS,
        DurableBurstStore,
        _commit_shard_layout,
        _next_shard_layout,
        _read_manifest_file,
        _sharded_layout,
        recover,
    )

    directory = os.fspath(directory)
    shards = int(shards)
    if shards <= 0:
        raise InvalidParameterError(f"shards must be > 0, got {shards}")
    manifest = _read_manifest_file(directory)
    names = _next_shard_layout(_sharded_layout(directory, manifest), shards)
    child_cfg = dict(manifest.get("child_cfg", {}))
    seal_elements = int(
        manifest.get("seal_elements", DEFAULT_SEAL_ELEMENTS)
    )
    store = recover(directory, fsync=fsync, tracer=tracer)
    try:
        ids, ts = store.export_records()
    finally:
        store.close()
    routes = shard_routes(ids, shards)
    for index, name in enumerate(names):
        mask = routes == index
        sub_ids = ids[mask]
        sub_ts = ts[mask]
        with _tracing.span(
            "rebalance.shard",
            tracer=tracer,
            shard=index,
            records=int(sub_ids.size),
        ):
            child = DurableBurstStore(
                os.path.join(directory, name),
                backend=manifest["backend"],
                seal_elements=seal_elements,
                fsync=fsync,
                tracer=tracer,
                **child_cfg,
            )
            try:
                if sub_ids.size:
                    # Records are globally time-ordered, so each
                    # routed subsequence is too — one batch suffices
                    # (internal splitting handles seal boundaries).
                    child.extend_batch(sub_ids, sub_ts)
            finally:
                child.close()
    _commit_shard_layout(directory, manifest, names)
    return {"shards": shards, "records": int(ids.size)}
