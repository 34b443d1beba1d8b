"""Model-based lifecycle test for the durable store's one commit path.

Every change to the segment list — an inline seal, a background seal,
a compaction swap — commits through ``DurableBurstStore._commit_segment``.
A hypothesis ``RuleBasedStateMachine`` interleaves appends, seals,
``drain_seals``, compactions, queries, crashes (copy the directory,
``recover()`` the copy) and clean restarts (``close()``, then
``recover()`` in place), and injects a failure at the k-th
``atomic_write_bytes``, ``os.unlink`` or ``os.replace`` of a seal or of
a compaction.
The model is the list of acknowledged records: after every step the
store must answer the full query matrix bit-identically to an
``ExactStore`` fed exactly that prefix, and so must every recovery.

The machine runs once with inline seals and once with background
seals.  In background mode a crash first closes the store (joining the
seal thread), because copying a directory while the seal thread writes
into it would not be a snapshot of any single instant; compactions and
fault injections likewise start from a drained queue, so that every
step is reproducible.

Also here: the regression test for the inline seal that, when its
manifest commit failed, published the segment but kept the memtable —
so the next seal sealed the same records twice.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

import repro.core.compaction as compaction_mod
import repro.core.durable as durable_mod
from repro.core.durable import create_durable, recover
from repro.core.errors import CompactionError, SerializationError
from test_crash_recovery import (
    UNIVERSE,
    _InjectedCrash,
    _oracle,
    _stream,
    assert_matrix_identical,
)

SEAL_ELEMENTS = 8


_GLOBAL_CALLS = {
    "unlink": (os, "unlink"),
    "replace": (os, "replace"),
    "rmtree": (shutil, "rmtree"),
}


class _Faults:
    """Raise :class:`_InjectedCrash` at the k-th call of one kind.

    ``kind="write"`` counts ``atomic_write_bytes`` calls through the
    durable and compaction modules together; ``"unlink"``, ``"replace"``
    and ``"rmtree"`` count process-global ``os.unlink``, ``os.replace``
    and ``shutil.rmtree`` calls.  ``fired`` tells whether the k-th call
    came; ``k=0`` never fires, so it only counts the calls.
    """

    def __init__(self, kind: str, k: int) -> None:
        self.kind = kind
        self.k = k
        self.calls = 0
        self.fired = False
        self._patches = []

    def _wrap(self, real):
        def faulty(*args, **kwargs):
            self.calls += 1
            if self.calls == self.k:
                self.fired = True
                raise _InjectedCrash(f"{self.kind} call {self.k}")
            return real(*args, **kwargs)

        return faulty

    def __enter__(self) -> "_Faults":
        if self.kind == "write":
            faulty = self._wrap(durable_mod.atomic_write_bytes)
            self._patches = [
                mock.patch.object(module, "atomic_write_bytes", faulty)
                for module in (durable_mod, compaction_mod)
            ]
        else:
            module, name = _GLOBAL_CALLS[self.kind]
            self._patches = [
                mock.patch.object(
                    module, name, self._wrap(getattr(module, name))
                )
            ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info) -> None:
        for patch in self._patches:
            patch.stop()


class TestFailedInlineSealCommit:
    """A failed inline manifest commit must not seal the memtable twice."""

    def test_failed_commit_keeps_one_copy_and_refuses_writes(self, tmp_path):
        ids, ts = _stream(41)
        live = tmp_path / "live"
        store = create_durable(live, backend="exact", fsync="never")
        store.extend_batch(ids[:40], ts[:40])
        # Call 1 writes the segment, call 2 the manifest.
        with _Faults("write", 2) as fault, pytest.raises(_InjectedCrash):
            store.seal()
        assert fault.calls == 2
        # The frozen generation is still pending: reads see it once.
        assert_matrix_identical(store, _oracle(ids[:40], ts[:40]))
        with pytest.raises(SerializationError, match="recover"):
            store.extend_batch(ids[40:], ts[40:])
        with pytest.raises(SerializationError):
            store.seal()
        store.close()
        recovered = recover(live)
        assert_matrix_identical(recovered, _oracle(ids[:40], ts[:40]))
        recovered.close()


_FAULT = st.sampled_from(["write", "unlink", "replace"])


class DurableLifecycle(RuleBasedStateMachine):
    background = False

    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="durable-lifecycle-")
        self.generation = 0
        self.ids: list[int] = []
        self.ts: list[float] = []
        self.store = create_durable(
            self._path(),
            backend="exact",
            seal_elements=SEAL_ELEMENTS,
            fsync="never",
            background_seal=self.background,
        )

    def _path(self) -> str:
        return os.path.join(self.root, f"gen-{self.generation}")

    def _sealed_parts(self) -> int:
        """Segments plus pending generations: unlike either count, the
        sum does not depend on how far the seal thread has got."""
        with self.store._lock:
            return len(self.store._parts_locked())

    def _oracle(self):
        return _oracle(np.asarray(self.ids), np.asarray(self.ts))

    def _next_batch(self, events, gaps):
        start = self.ts[-1] if self.ts else 0.0
        ts = start + np.cumsum(np.asarray(gaps, dtype=np.float64))
        return np.asarray(events, dtype=np.int64), ts

    def _crash(self) -> None:
        if self.background:
            self.store.close()
        source = self._path()
        self.generation += 1
        shutil.copytree(source, self._path())
        self.store.close()
        self.store = recover(
            self._path(), fsync="never", background_seal=self.background
        )
        assert self.store.count == len(self.ids)
        assert_matrix_identical(self.store, self._oracle())

    @rule(
        events=st.lists(
            st.integers(0, UNIVERSE - 1), min_size=1, max_size=12
        ),
        gap=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def append(self, events, gap):
        ids, ts = self._next_batch(events, [gap] * len(events))
        self.store.extend_batch(ids, ts)
        self.ids.extend(ids.tolist())
        self.ts.extend(ts.tolist())

    @rule()
    def seal(self):
        self.store.seal()

    @rule()
    def drain_seals(self):
        self.store.drain_seals()

    @rule()
    def compact(self):
        # Drained first: which segments a compaction sees must not hang
        # on the seal thread's progress, or replays would diverge.
        self.store.drain_seals()
        self.store.compact(fanin=2, min_segments=2)

    @rule()
    def query(self):
        assert_matrix_identical(self.store, self._oracle())

    @rule()
    def crash(self):
        self._crash()

    @rule()
    def close_and_resume(self):
        self.store.close()
        self.store = recover(
            self._path(), fsync="never", background_seal=self.background
        )
        assert self.store.count == len(self.ids)
        assert_matrix_identical(self.store, self._oracle())

    @precondition(lambda self: self.store._memtable_elements > 0)
    @rule(kind=_FAULT, k=st.integers(1, 3))
    def faulty_seal(self, kind, k):
        # Quiesce first, so that only this seal's calls are counted.
        self.store.drain_seals()
        with _Faults(kind, k) as fault:
            try:
                self.store.seal()
                self.store.drain_seals()
                raised = False
            except (_InjectedCrash, SerializationError):
                raised = True
        assert raised == fault.fired
        if not fault.fired:
            return
        # Whichever step failed, reads are still exact ...
        assert_matrix_identical(self.store, self._oracle())
        # ... and writes refuse until the directory is recovered.
        ids, ts = self._next_batch([0], [1.0])
        with pytest.raises(SerializationError):
            self.store.extend_batch(ids, ts)
        self._crash()

    @precondition(lambda self: self._sealed_parts() >= 2)
    @rule(kind=_FAULT, k=st.integers(1, 4))
    def faulty_compact(self, kind, k):
        self.store.drain_seals()
        with _Faults(kind, k) as fault:
            try:
                self.store.compact(fanin=2, min_segments=2)
                raised = False
            except (_InjectedCrash, CompactionError):
                raised = True
        assert raised == fault.fired
        # A failed compaction leaves the store exact, and later rules
        # keep writing to it.
        assert_matrix_identical(self.store, self._oracle())

    def teardown(self) -> None:
        try:
            self.store.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


class BackgroundSealLifecycle(DurableLifecycle):
    background = True


_SETTINGS = settings(
    max_examples=100,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestInlineSealLifecycle = DurableLifecycle.TestCase
TestInlineSealLifecycle.settings = _SETTINGS
TestBackgroundSealLifecycle = BackgroundSealLifecycle.TestCase
TestBackgroundSealLifecycle.settings = _SETTINGS
