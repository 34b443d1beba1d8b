"""Shared backend matrix for the store-layer test suite.

Every registered backend key must appear here (ShardedBurstStore at two
or more shard counts).  ``tests/test_store_registry.py`` — wired into CI
as the registry-completeness check — fails the build whenever a key in
:func:`repro.core.store.backend_keys` is missing from this matrix, so a
newly registered backend automatically joins the parametrized
differential, query and round-trip tests or breaks the build trying.
"""

from __future__ import annotations

UNIVERSE = 48

# Sketch knobs sized so the fixed-seed workloads below stay deterministic
# yet collisions are actually exercised (width < universe).
_PBE1 = dict(eta=60, buffer_size=400, width=16, depth=5, seed=0)
_PBE2 = dict(gamma=12.0, unit=1.0, width=16, depth=5, seed=0)

# (label, backend key, create_store config)
BACKEND_MATRIX: list[tuple[str, str, dict]] = [
    ("exact", "exact", {}),
    ("cm-pbe-1", "cm-pbe-1", dict(universe_size=UNIVERSE, **_PBE1)),
    ("cm-pbe-2", "cm-pbe-2", dict(universe_size=UNIVERSE, **_PBE2)),
    ("direct-pbe1", "direct", dict(cell="pbe1", eta=60, buffer_size=400)),
    ("direct-pbe2", "direct", dict(cell="pbe2", gamma=12.0, unit=1.0)),
    ("index-pbe1", "index", dict(universe_size=UNIVERSE, cell="pbe1", **_PBE1)),
    ("index-pbe2", "index", dict(universe_size=UNIVERSE, cell="pbe2", **_PBE2)),
    ("sharded-x2-exact", "sharded", dict(shards=2, backend="exact")),
    ("sharded-x4-exact", "sharded", dict(shards=4, backend="exact")),
    (
        "sharded-x3-cm-pbe-1",
        "sharded",
        dict(shards=3, backend="cm-pbe-1", universe_size=UNIVERSE, **_PBE1),
    ),
    # Ephemeral durable lifecycle (directory=None): the tiny seal
    # threshold forces several memtable → segment transitions under the
    # standard workloads, so the matrix exercises the merge-fan read
    # path, not just a lone memtable.
    ("durable-exact", "durable", dict(backend="exact", seal_elements=64)),
    (
        "durable-cm-pbe-1",
        "durable",
        dict(
            backend="cm-pbe-1",
            seal_elements=64,
            universe_size=UNIVERSE,
            **_PBE1,
        ),
    ),
]

BACKEND_IDS = [label for label, _, _ in BACKEND_MATRIX]

# Labels whose answers must match the exact oracle bit-for-bit (no
# sketching anywhere in the stack).
EXACT_LABELS = {
    "exact",
    "sharded-x2-exact",
    "sharded-x4-exact",
    "durable-exact",
}


def covered_keys() -> set[str]:
    """Backend keys exercised by the matrix."""
    return {backend for _, backend, _ in BACKEND_MATRIX}


def sharded_shard_counts() -> set[int]:
    """Distinct shard counts the matrix runs ShardedBurstStore at."""
    return {
        cfg["shards"]
        for _, backend, cfg in BACKEND_MATRIX
        if backend == "sharded"
    }
