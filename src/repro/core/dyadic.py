"""Dyadic bursty-event index (paper §V, Fig. 6, Algorithm 3).

A bursty event query ``q(t, theta, tau)`` asks for every event whose
burstiness at ``t`` reaches ``theta``.  Probing all ``K`` events is
expensive, so the index maintains one CM-PBE per level of a binary
decomposition of the id space: level ``l`` summarizes the streams of
dyadic ranges of ``2^l`` ids (an element ``(e, t)`` updates its covering
range at every level).

Because ``F`` is additive over sibling ranges, ``b_p = b_l + b_r`` and
therefore ``b_p^2 - 2 b_l b_r = b_l^2 + b_r^2``.  If that quantity is
below ``theta^2`` then neither child's burstiness can reach ``theta`` in
magnitude, so the subtree is pruned (Eq. 6).  With estimated quantities
the rule is a heuristic filter — the paper notes the sketch error makes
the final answer approximate, which the precision/recall study (Fig. 12)
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.cmpbe import (
    CMPBE,
    DirectPBEMap,
    PersistentSketchCell,
    finalize_sketches,
)
from repro.core.errors import (
    InvalidParameterError,
    require_tau,
    require_theta,
)
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.sketch.dyadic_ranges import DyadicDecomposition

__all__ = ["BurstyEventIndex", "BurstyEvent"]


@dataclass(frozen=True, slots=True)
class BurstyEvent:
    """One bursty-event query hit: an event id and its estimated b(t)."""

    event_id: int
    burstiness: float


class BurstyEventIndex:
    """Hierarchy of CM-PBEs answering bursty event queries in ~O(log K).

    Parameters
    ----------
    universe_size:
        Size ``K`` of the event-id space (ids are ``0 .. K-1``).
    cell_factory:
        Factory for the PBE placed in every CM-PBE cell; use
        :meth:`with_pbe1` / :meth:`with_pbe2` for the paper's variants.
    width, depth:
        CM-PBE grid dimensions, shared by every level.  At coarse levels
        the number of distinct range ids can be below ``width``; the grid
        width is shrunk accordingly so no space is wasted.
    """

    def __init__(
        self,
        universe_size: int,
        cell_factory: Callable[[], PersistentSketchCell],
        width: int,
        depth: int,
        combiner: str = "median",
        seed: int = 0,
    ) -> None:
        if universe_size <= 0:
            raise InvalidParameterError("universe_size must be > 0")
        self.universe_size = universe_size
        self.decomposition = DyadicDecomposition(universe_size)
        self._levels: list[CMPBE | DirectPBEMap] = []
        for level in range(self.decomposition.n_levels + 1):
            n_ranges = self.decomposition.n_ranges(level)
            if n_ranges <= width:
                # So few range ids that hashing them into <= width cells
                # would merge siblings (breaking the pruning rule) while a
                # direct per-range PBE costs no more space.
                self._levels.append(DirectPBEMap(cell_factory))
            else:
                self._levels.append(
                    CMPBE(
                        cell_factory=cell_factory,
                        width=width,
                        depth=depth,
                        combiner=combiner,
                        seed=seed + level,
                    )
                )
        self._point_queries_issued = 0

    @classmethod
    def from_levels(
        cls, universe_size: int, levels: list[CMPBE | DirectPBEMap]
    ) -> "BurstyEventIndex":
        """An index over already-built level sketches, leaf level first
        (as a decoder or a merge produces them): no cell is built."""
        index = cls.__new__(cls)
        index.universe_size = universe_size
        index.decomposition = DyadicDecomposition(universe_size)
        if len(levels) != index.n_levels:
            raise InvalidParameterError(
                "level count mismatch (corrupt payload?)"
            )
        index._levels = list(levels)
        index._point_queries_issued = 0
        return index

    # ------------------------------------------------------------------
    @classmethod
    def with_pbe1(
        cls,
        universe_size: int,
        eta: int,
        width: int,
        depth: int,
        buffer_size: int = 1500,
        combiner: str = "median",
        seed: int = 0,
    ) -> "BurstyEventIndex":
        """Index whose cells are PBE-1 sketches."""
        return cls(
            universe_size,
            cell_factory=lambda: PBE1(eta=eta, buffer_size=buffer_size),
            width=width,
            depth=depth,
            combiner=combiner,
            seed=seed,
        )

    @classmethod
    def with_pbe2(
        cls,
        universe_size: int,
        gamma: float,
        width: int,
        depth: int,
        unit: float = 1.0,
        combiner: str = "median",
        seed: int = 0,
    ) -> "BurstyEventIndex":
        """Index whose cells are PBE-2 sketches."""
        return cls(
            universe_size,
            cell_factory=lambda: PBE2(gamma=gamma, unit=unit),
            width=width,
            depth=depth,
            combiner=combiner,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest one mention: updates the covering range at every level."""
        if not 0 <= event_id < self.universe_size:
            raise InvalidParameterError(
                f"event id {event_id} outside [0, {self.universe_size})"
            )
        for level, sketch in enumerate(self._levels):
            sketch.update(
                self.decomposition.range_id(event_id, level),
                timestamp,
                count,
            )

    def extend(self, records) -> None:
        """Ingest many ``(event_id, timestamp)`` pairs in stream order."""
        for event_id, timestamp in records:
            self.update(event_id, timestamp)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest of a record batch into every level.

        The per-level range ids are a single vectorized right-shift of
        the id column; each level's sketch then ingests the shifted batch
        through its own ``extend_batch``.  Byte-identical to the
        equivalent sequence of :meth:`update` calls.
        """
        ids = np.asarray(event_ids)
        if ids.size and (
            bool(np.any(ids < 0))
            or bool(np.any(ids >= self.universe_size))
        ):
            raise InvalidParameterError(
                f"event ids outside [0, {self.universe_size})"
            )
        ids = ids.astype(np.int64)
        for level, sketch in enumerate(self._levels):
            sketch.extend_batch(ids >> level, timestamps, counts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def point_query(self, event_id: int, t: float, tau: float) -> float:
        """Estimated ``b_e(t)`` from the leaf-level CM-PBE."""
        self._point_queries_issued += 1
        return self._levels[0].burstiness(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        """Batched :meth:`point_query`: estimated ``b_e(t)`` per pair."""
        estimates = self._levels[0].burstiness_many(event_ids, ts, tau)
        self._point_queries_issued += int(estimates.size)
        return estimates

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Bursty event query ``q(t, theta, tau)`` via pruned descent.

        Returns events whose *estimated* burstiness reaches ``theta``,
        sorted by decreasing burstiness.  The descent is level-at-a-time:
        the whole surviving frontier of one level is evaluated in a
        single ``burstiness_many`` batch per sketch, instead of one
        recursive scalar point query per node.  Hits, ordering and the
        point-query counter match the recursive scalar descent exactly.
        """
        require_theta(theta)
        require_tau(tau)
        frontier = np.zeros(1, dtype=np.int64)
        for level in range(self.decomposition.n_levels, 0, -1):
            frontier = frontier[(frontier << level) < self.universe_size]
            if frontier.size == 0:
                return []
            self._point_queries_issued += 3 * int(frontier.size)
            ts = np.full(frontier.size, t, dtype=np.float64)
            left = frontier * 2
            right = left + 1
            b_parent = self._levels[level].burstiness_many(frontier, ts, tau)
            b_left = self._levels[level - 1].burstiness_many(left, ts, tau)
            b_right = self._levels[level - 1].burstiness_many(right, ts, tau)
            survives = (
                b_parent * b_parent - 2.0 * b_left * b_right
                >= theta * theta
            )
            # Interleave surviving children so the frontier stays in
            # ascending range-id order (the scalar DFS visit order).
            frontier = np.stack(
                [left[survives], right[survives]], axis=1
            ).reshape(-1)
        frontier = frontier[frontier < self.universe_size]
        if frontier.size == 0:
            return []
        self._point_queries_issued += int(frontier.size)
        estimates = self._levels[0].burstiness_many(
            frontier, np.full(frontier.size, t, dtype=np.float64), tau
        )
        results = [
            BurstyEvent(int(event_id), float(estimate))
            for event_id, estimate in zip(frontier, estimates)
            if estimate >= theta
        ]
        results.sort(key=lambda hit: -hit.burstiness)
        return results

    def top_k_bursty_events(
        self, t: float, k: int, tau: float, theta_floor: float = 1.0
    ) -> list[BurstyEvent]:
        """The ``k`` events with the largest estimated burstiness at ``t``.

        Implemented as a geometric threshold descent: run the pruned
        bursty event query with a high ``theta`` and halve it until at
        least ``k`` events qualify (or ``theta`` falls to
        ``theta_floor``), then return the top ``k``.  Reuses the §V
        pruning, so the cost stays near ``O(log K)`` point queries per
        round.
        """
        if k <= 0:
            raise InvalidParameterError("k must be > 0")
        if theta_floor <= 0:
            raise InvalidParameterError("theta_floor must be > 0")
        theta = max(
            theta_floor,
            abs(
                self._levels[self.decomposition.n_levels].burstiness(
                    0, t, tau
                )
            ),
        )
        hits: list[BurstyEvent] = []
        while True:
            hits = self.bursty_events(t, theta, tau)
            if len(hits) >= k or theta <= theta_floor:
                break
            theta /= 2.0
        return hits[:k]

    def naive_bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Baseline: one leaf point query per event id (§V's naive cost)."""
        hits = []
        for event_id in range(self.universe_size):
            estimate = self.point_query(event_id, t, tau)
            if estimate >= theta:
                hits.append(BurstyEvent(event_id, estimate))
        hits.sort(key=lambda hit: -hit.burstiness)
        return hits

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def point_queries_issued(self) -> int:
        """Cumulative point queries (the pruning-effectiveness metric)."""
        return self._point_queries_issued

    def reset_query_counter(self) -> None:
        """Zero the point-query counter (for per-query measurements)."""
        self._point_queries_issued = 0

    @property
    def n_levels(self) -> int:
        """Number of tree levels (``log2 K`` + 1, leaves included)."""
        return self.decomposition.n_levels + 1

    def level_sketch(self, level: int) -> CMPBE | DirectPBEMap:
        """The sketch summarizing level ``level`` (0 = leaves)."""
        return self._levels[level]

    def finalize(self) -> None:
        """Fold every level's cells, all levels in one batched call."""
        finalize_sketches(self._levels)

    def size_in_bytes(self) -> int:
        """Total footprint across all levels."""
        return sum(sketch.size_in_bytes() for sketch in self._levels)
