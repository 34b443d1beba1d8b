"""Parallel sketch construction over mutually exclusive time ranges.

The paper notes (§III-A) that "parallel processing on mutually exclusive
time ranges can be leveraged to improve system throughput": because both
PBE constructions are local in time, a stream can be split into
consecutive chunks, each chunk summarized independently (with *local*
cumulative counts), and the parts merged by offsetting each part's counts
by everything that came before it.  This module implements that merge for
both sketches plus a chunked builder that can fan the chunks out to a
process pool.

Every merge takes n parts in one call and copies each part once; for
whole stores :func:`merge_stores` hands them to the backend's one merge
hook.  It saves the same bytes as merging two at a time from the left:
the same integer offsets, and the same previous end for PBE-2's clip.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.core.serialize import folded_cells

__all__ = [
    "merge_pbe1",
    "merge_pbe2",
    "merge_stores",
    "build_pbe1_chunked",
    "build_pbe2_chunked",
    "build_store_chunked",
]


def merge_pbe1(parts: Sequence[PBE1]) -> PBE1:
    """Merge PBE-1 parts built over consecutive, disjoint time ranges.

    Each part must have summarized its *own* chunk (counts starting from
    zero); parts must be in time order.  The merged sketch's corners are
    the concatenation with cumulative count offsets applied, each
    offset by one IEEE add per corner.  Partial buffers are folded on
    scratch copies (one batched call), so the parts themselves are never
    mutated.
    """
    if not parts:
        raise InvalidParameterError("need at least one part")
    merged = PBE1(eta=parts[0].eta, buffer_size=parts[0].buffer_size)
    xs_parts = []
    ys_parts = []
    offset = 0.0
    last_x = float("-inf")
    for part in folded_cells(parts):
        xs = part._kept_xs
        if xs.size:
            if xs[0] < last_x:
                raise InvalidParameterError(
                    "parts must cover consecutive disjoint time ranges"
                )
            last_x = xs[-1]
        xs_parts.append(xs)
        ys_parts.append(part._kept_ys + offset)
        offset += part.count
        merged._count += part.count
        merged._construction_error += part.construction_error
    merged._set_kept(np.concatenate(xs_parts), np.concatenate(ys_parts))
    return merged


def merge_pbe2(parts: Sequence[PBE2]) -> PBE2:
    """Merge PBE-2 parts built over consecutive, disjoint time ranges.

    A part's line ``a t + b`` becomes ``a t + (b + offset)`` where
    ``offset`` is the total count of all earlier parts, one IEEE add per
    row.  A part's rows are in time order, so only its first row can
    reach back into the previous part.  Live parts are finalized on
    scratch copies, so the parts themselves are never mutated.
    """
    if not parts:
        raise InvalidParameterError("need at least one part")
    merged = PBE2(gamma=parts[0].gamma, unit=parts[0].unit)
    folded = folded_cells(parts)
    table = np.empty((4, sum(part.n_segments for part in folded)))
    at = 0
    offset = 0.0
    last_end = float("-inf")
    for part in folded:
        if part.n_segments:
            block = table[:, at : at + part.n_segments]
            block[:] = part._table()
            block[1] += offset
            t_start = float(block[2, 0])
            if t_start < last_end:
                # A part's first committed corner also constrains the
                # point one clock unit earlier, so its opening segment
                # can reach up to ``unit`` before the previous part's
                # end when timestamps are not unit-aligned.  Clip that
                # construction artifact; anything deeper is a genuinely
                # overlapping part.
                if last_end - t_start > merged.unit + 1e-12:
                    raise InvalidParameterError(
                        "parts must cover consecutive disjoint time ranges"
                    )
                block[2, 0] = last_end
                block[3, 0] = max(float(block[3, 0]), last_end)
            last_end = float(block[3, -1])
            at += part.n_segments
        offset += part.count
        merged._count += part.count
    merged._set_table(table)
    return merged


def _build_pbe1_chunk(
    args: tuple[np.ndarray, int, int],
) -> PBE1:
    timestamps, eta, buffer_size = args
    sketch = PBE1(eta=eta, buffer_size=buffer_size)
    sketch.extend_batch(timestamps)
    sketch.flush()
    return sketch


def _build_pbe2_chunk(args: tuple[np.ndarray, float, float]) -> PBE2:
    timestamps, gamma, unit = args
    sketch = PBE2(gamma=gamma, unit=unit)
    sketch.extend_batch(timestamps)
    sketch.finalize()
    return sketch


def _chunk_bounds(timestamps, n_chunks: int) -> list[tuple[int, int]]:
    """``(start, stop)`` bounds of ~equal time-contiguous chunks of the
    sorted ``timestamps``, never splitting a run of equal timestamps (a
    straddled timestamp would make the parts overlap).  Builders copy
    each chunk to one contiguous float64 array, a compact pool job."""
    if n_chunks <= 0:
        raise InvalidParameterError("n_chunks must be > 0")
    total = len(timestamps)
    size = max(1, total // n_chunks)
    bounds = []
    start = 0
    while start < total:
        end = min(start + size, total)
        while end < total and timestamps[end] == timestamps[end - 1]:
            end += 1
        bounds.append((start, end))
        start = end
    return bounds


def build_pbe1_chunked(
    timestamps: Sequence[float],
    eta: int,
    buffer_size: int = 1500,
    n_chunks: int = 4,
    n_workers: int = 1,
) -> PBE1:
    """Build a PBE-1 by summarizing time chunks independently and merging.

    With ``n_workers > 1`` the chunks are built in a process pool —
    the paper's suggested throughput optimization.
    """
    ts = np.ascontiguousarray(timestamps, dtype=np.float64)
    jobs = [
        (ts[start:stop].copy(), eta, buffer_size)
        for start, stop in _chunk_bounds(ts, n_chunks)
    ]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_build_pbe1_chunk, jobs))
    else:
        parts = [_build_pbe1_chunk(job) for job in jobs]
    return merge_pbe1(parts)


def build_pbe2_chunked(
    timestamps: Sequence[float],
    gamma: float,
    unit: float = 1.0,
    n_chunks: int = 4,
    n_workers: int = 1,
) -> PBE2:
    """Build a PBE-2 by summarizing time chunks independently and merging."""
    ts = np.ascontiguousarray(timestamps, dtype=np.float64)
    jobs = [
        (ts[start:stop].copy(), gamma, unit)
        for start, stop in _chunk_bounds(ts, n_chunks)
    ]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_build_pbe2_chunk, jobs))
    else:
        parts = [_build_pbe2_chunk(job) for job in jobs]
    return merge_pbe2(parts)


# ----------------------------------------------------------------------
# Whole-store parallel construction through the backend registry
# ----------------------------------------------------------------------
def merge_stores(parts: Sequence) -> "object":
    """Merge time-range parts of one backend into one store.

    Parts must be in time order, each having summarized its own chunk,
    and all of one backend class; the class's ``_merged`` hook merges
    every part in one call (the §III-A merge: each part's counts are
    offset by the total of every earlier part).  A single part is
    returned as it is.  The merged store's horizon is the latest part's.
    """
    if not parts:
        raise InvalidParameterError("need at least one part")
    cls = type(parts[0])
    if any(type(part) is not cls for part in parts):
        raise InvalidParameterError(
            f"cannot merge parts of another class with {cls.__name__}"
        )
    if len(parts) == 1:
        return parts[0]
    merged = cls._merged(list(parts))
    merged._t_end = max(part._t_end for part in parts)
    return merged


def _build_store_chunk(
    args: tuple[str, dict, np.ndarray, np.ndarray],
) -> bytes:
    # Workers return serialized envelopes rather than stores: some
    # backends hold closures (CM-PBE cell factories) that cannot cross a
    # process boundary, but bytes always can.
    backend, cfg, event_ids, timestamps = args
    from repro.core.serialize import save_store
    from repro.core.store import create_store

    store = create_store(backend, **cfg)
    store.extend_batch(event_ids, timestamps)
    store.finalize()
    return save_store(store)


def build_store_chunked(
    event_ids,
    timestamps,
    backend: str,
    /,
    n_chunks: int = 4,
    n_workers: int = 1,
    **cfg,
):
    """Build any registered backend by summarizing time chunks and merging.

    The §III-A parallel-build recipe, generalized from single PBEs to
    whole stores: the record batch is split into time-contiguous chunks,
    each chunk is ingested into a fresh ``create_store(backend, **cfg)``
    (in a process pool when ``n_workers > 1``), and the parts fold
    together with the backend's ``merge``.  Works for every mergeable
    backend, sharded composites included.
    """
    from repro.core.serialize import load_store

    ids = np.asarray(event_ids)
    ts = np.asarray(timestamps, dtype=np.float64)
    if ids.shape != ts.shape:
        raise InvalidParameterError(
            "event_ids and timestamps must have equal length"
        )
    jobs = [
        (backend, cfg, ids[start:stop].copy(), ts[start:stop].copy())
        for start, stop in _chunk_bounds(ts, n_chunks)
    ]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            payloads = list(pool.map(_build_store_chunk, jobs))
    else:
        payloads = [_build_store_chunk(job) for job in jobs]
    return merge_stores([load_store(payload) for payload in payloads])
