"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish the specific
failure mode.
"""

from __future__ import annotations

import math

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StreamOrderError(ReproError):
    """A stream element arrived with a timestamp smaller than its predecessor.

    All sketches in this library process elements online and rely on
    non-decreasing timestamps; feeding an out-of-order element would silently
    corrupt the frequency curves, so it is rejected eagerly.
    """


class FinalizedError(ReproError):
    """An update was attempted on a sketch that has already been finalized."""


class NotFinalizedError(ReproError):
    """A query was attempted on a sketch that has not been finalized yet."""


class InvalidParameterError(ReproError, ValueError):
    """A constructor or query parameter is outside its valid domain."""


class EmptySketchError(ReproError):
    """A query requires data but the sketch has ingested no elements."""


class UnknownBackendError(ReproError, KeyError):
    """A backend key was requested that is not in the store registry."""


class SerializationError(ReproError):
    """A store payload is malformed, truncated, or of an unknown version."""


class CorruptOffsetTableError(SerializationError):
    """The envelope's blob offset table is truncated, out of bounds, or
    disagrees with the payload it indexes.

    Lazy (mmap) loading trusts the offset table to locate PBE cell
    payloads without walking them, so any inconsistency must be a hard
    error at open time — never a garbage answer at query time.
    """


class WriterProcessError(ReproError):
    """A parallel-ingest writer process failed or died.

    Carries the writer id and the remote traceback text; the records
    acknowledged before the failure are durable in that shard's WAL and
    recoverable with :func:`repro.core.durable.recover`.
    """

    def __init__(self, writer_id: int, message: str) -> None:
        super().__init__(f"writer {writer_id}: {message}")
        self.writer_id = writer_id


class RecoveryError(ReproError):
    """A durable store directory cannot be recovered: the manifest is
    missing or malformed, or a sealed segment it references is gone.

    A *torn WAL tail* is not a recovery error — frames past the last
    valid CRC are the acknowledged-but-unsynced window the fsync policy
    explicitly trades away, and replay simply stops there.
    """


class ShardLayoutError(RecoveryError):
    """A sharded-durable directory disagrees with its manifest.

    The manifest lists N shard directories (``shard_dirs``; a manifest
    without it means ``shard-000 … shard-{N-1}``) but the on-disk set
    differs: *missing* shards mean acknowledged data would silently
    vanish from query answers; *extra* shard directories mean someone's
    acknowledged records exist on disk but would never be consulted.
    (An unlisted directory of a newer layout generation is the output
    of a rebalance that crashed before its commit; recovery removes it
    instead.)
    Either way recovery must stop instead of answering queries from a
    partial store.  The message names the offending shards.
    """


class ShardCountMismatchError(RecoveryError):
    """A durable directory was opened expecting a different shard count.

    One writer owns exactly one shard, so resuming a 4-shard layout
    with ``writers=2`` (or ``shards=2``) cannot work in place.  The
    shard count of an existing store is changed offline with
    ``repro rebalance DIR --shards M``
    (:func:`repro.core.compaction.rebalance`), which streams every
    record through the Fibonacci shard hash into the new layout.
    """


class CompactionError(ReproError):
    """A segment-compaction or rebalancing maintenance run failed.

    The store itself stays consistent: compaction only publishes its
    merged segment in a single atomic manifest swap, so a failed run
    leaves (at worst) an orphan segment file that the next recovery
    reaps.
    """


# ----------------------------------------------------------------------
# Shared parameter validation
#
# The three query parameters of the paper (burst span ``tau``, threshold
# ``theta``, and a time range) are validated identically by every store,
# sketch and query helper; these functions are the single home for those
# checks so each call site carries one line instead of a copied branch.
# ----------------------------------------------------------------------
def require_tau(tau: float) -> float:
    """Validate the burst span ``tau`` (must be finite and strictly
    positive)."""
    if not 0 < tau < float("inf"):
        raise InvalidParameterError(
            f"burst span tau must be finite and > 0, got {tau}"
        )
    return tau


def require_finite_time(timestamps):
    """Validate stream timestamps (a scalar or an array): NaN and
    ``±inf`` are rejected.

    NaN compares false against everything, so it would slip past every
    stream-order check, and ``+inf`` would pass them but then refuse
    every later write.  Returns ``timestamps`` unchanged.
    """
    if isinstance(timestamps, np.ndarray):
        finite = bool(np.isfinite(timestamps).all())
    else:
        finite = math.isfinite(timestamps)
    if not finite:
        raise InvalidParameterError("timestamps must be finite")
    return timestamps


def require_theta(theta: float, positive: bool = False) -> float:
    """Validate the burstiness threshold ``theta``.

    By default ``theta`` may be zero (a bursty-event query with
    ``theta = 0`` is well defined); pass ``positive=True`` for contexts
    such as live alerting where a non-positive threshold is meaningless.
    NaN is rejected either way.
    """
    if positive:
        if not theta > 0:
            raise InvalidParameterError(f"theta must be > 0, got {theta}")
    elif not theta >= 0:
        raise InvalidParameterError(f"theta must be >= 0, got {theta}")
    return theta


def require_time_range(t_start: float, t_end: float) -> tuple[float, float]:
    """Validate a query time range: finite bounds, ``t_end`` must exceed
    ``t_start``."""
    require_finite_time(t_start)
    require_finite_time(t_end)
    if not t_end > t_start:
        raise InvalidParameterError("t_end must exceed t_start")
    return t_start, t_end


def require_count(count: int) -> int:
    """Validate an occurrence count (must be strictly positive)."""
    if count <= 0:
        raise InvalidParameterError("count must be positive")
    return count
