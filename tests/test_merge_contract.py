"""The merge contract: one n-part merge per backend, equal to nested merges.

``merge_stores(parts)`` merges any number of consecutive time-range
parts in one call (the §III-A merge: each part's counts are offset by
the total of every earlier part), and ``a.merge(b)`` is its two-part
case.  Two locks on that, over every backend of ``tests/backends.py``:

* a hypothesis property — for any split of a stream into 2–5
  consecutive parts, the n-part merge saves the same bytes as the
  left-nested two-part merges and as the right-nested ones.  PBE-2
  cells store real-valued line intercepts, and right nesting adds a
  part's offsets in another order, so for PBE-2 backends only the left
  nesting is bit-identical; the right nesting is pinned to a measured
  absolute bound on the answers instead;
* a geometry mismatch (seed, width, index universe, durable child
  configuration) in any one of the n parts is refused by name.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.parallel import merge_stores
from repro.core.serialize import save_store
from repro.core.store import create_store

from tests.backends import BACKEND_IDS, BACKEND_MATRIX, UNIVERSE

#: Labels whose cells are PBE-2 (line segments with real intercepts).
PBE2_LABELS = {"cm-pbe-2", "direct-pbe2", "index-pbe2"}

#: The largest |right-nested - n-part| level answer measured for the
#: PBE-2 backends was 8.5e-14 (index-pbe2, 30 random 2-5 part splits of
#: 3,000-record streams, answers up to 138; cm-pbe-2 and direct-pbe2
#: matched bit for bit).  The bound leaves headroom for other splits
#: without hiding a real offset or clipping error, which moves answers
#: by whole counts.
PBE2_RIGHT_NESTING_BOUND = 1e-12

N_RECORDS = 600


def _stream(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A timestamp-ordered stream over the matrix universe: times on a
    1/64 grid, so not unit-aligned (PBE-2 clips part boundaries) and
    with a few ties."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, UNIVERSE, N_RECORDS).astype(np.int64)
    ts = np.sort(np.round(rng.uniform(0.0, 1_000.0, N_RECORDS) * 64) / 64)
    return ids, ts


def _bounds(ts: np.ndarray, cuts: list[int]) -> list[int]:
    """Part bounds from raw cut points, each moved past a timestamp tie
    (a straddled timestamp would make two parts overlap)."""
    bounds = [0]
    for cut in sorted(cuts):
        while cut < ts.size and ts[cut] == ts[cut - 1]:
            cut += 1
        if bounds[-1] < cut < ts.size:
            bounds.append(cut)
    return [*bounds, ts.size]


def _parts(backend: str, cfg: dict, ids, ts, bounds) -> list:
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        part = create_store(backend, **cfg)
        part.extend_batch(ids[start:stop], ts[start:stop])
        parts.append(part)
    return parts


def _level_answers(store) -> np.ndarray:
    """Burstiness of every id at a grid of times on every level sketch
    of a PBE-celled store (the index's upper levels drive its
    bursty-event descent)."""
    ids = np.repeat(np.arange(UNIVERSE), 51)
    times = np.tile(np.linspace(0.0, 1_100.0, 51), UNIVERSE)
    return np.concatenate(
        [
            level.burstiness_many(ids, times, 40.0)
            for level in store._levels()
        ]
    )


@pytest.mark.parametrize(
    "label, backend, cfg", BACKEND_MATRIX, ids=BACKEND_IDS
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    cuts=st.lists(
        st.integers(1, N_RECORDS - 1), min_size=1, max_size=4, unique=True
    ),
)
def test_n_part_merge_equals_nested_merges(label, backend, cfg, seed, cuts):
    ids, ts = _stream(seed)
    parts = _parts(backend, cfg, ids, ts, _bounds(ts, cuts))
    try:
        merged = merge_stores(parts)
        left = reduce(lambda acc, part: acc.merge(part), parts)
        right = reduce(lambda acc, part: part.merge(acc), reversed(parts))
        assert save_store(left) == save_store(merged)
        if label in PBE2_LABELS:
            drift = np.abs(_level_answers(right) - _level_answers(merged))
            assert float(drift.max()) <= PBE2_RIGHT_NESTING_BOUND
        else:
            assert save_store(right) == save_store(merged)
    finally:
        for part in parts:
            part.close()


_MATRIX = {label: (backend, cfg) for label, backend, cfg in BACKEND_MATRIX}

# (matrix label, override for the odd part, refusal message)
_MISMATCHES = [
    ("cm-pbe-1", dict(seed=5), "grid dimensions/seed differ"),
    ("cm-pbe-1", dict(width=8), "grid dimensions/seed differ"),
    ("index-pbe1", dict(seed=5), "grid dimensions/seed differ"),
    ("index-pbe1", dict(width=8), "grid dimensions/seed differ"),
    ("index-pbe1", dict(universe_size=2 * UNIVERSE), "universe sizes differ"),
    ("sharded-x3-cm-pbe-1", dict(seed=5), "grid dimensions/seed differ"),
    ("durable-cm-pbe-1", dict(seed=5), "configurations differ"),
    ("durable-cm-pbe-1", dict(width=8), "configurations differ"),
]


@pytest.mark.parametrize("odd", range(4))
@pytest.mark.parametrize(
    "label, override, message",
    _MISMATCHES,
    ids=[f"{label}-{next(iter(o))}" for label, o, _ in _MISMATCHES],
)
def test_any_part_with_other_geometry_is_refused(
    label, override, message, odd
):
    backend, cfg = _MATRIX[label]
    ids, ts = _stream(1)
    bounds = _bounds(ts, [150, 300, 450])
    parts = _parts(backend, cfg, ids, ts, bounds)
    start, stop = bounds[odd], bounds[odd + 1]
    parts[odd] = create_store(backend, **{**cfg, **override})
    parts[odd].extend_batch(ids[start:stop], ts[start:stop])
    try:
        with pytest.raises(InvalidParameterError, match=message):
            merge_stores(parts)
    finally:
        for part in parts:
            part.close()


def test_parts_of_other_backend_classes_are_refused():
    exact = create_store("exact")
    sketch = create_store("cm-pbe-1", universe_size=UNIVERSE)
    with pytest.raises(InvalidParameterError, match="cannot merge"):
        merge_stores([exact, exact, sketch])


def test_a_single_part_is_returned_as_it_is():
    store = create_store("exact")
    assert merge_stores([store]) is store
