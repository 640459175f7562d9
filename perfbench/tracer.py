"""In-memory span recorder and the wrappers of the traced run.

A span has a name, a start, an end, a parent span and a group: every
span of one policy run or one serve op shares the group id of that
run's or op's root span.  Spans are held in flat ``array`` columns
(a few tens of bytes each) and written out once, when the run ends.

The wrappers time calls into each layer's public functions from the
outside; nothing under ``src/`` changes.  Two rules keep the traced run
the same program as the untraced one:

* ``wants`` and ``observe`` of policy classes are never wrapped and no
  policy type is substituted: the fast engine dispatches on the
  identity of those methods and the sieve kernel on the exact policy
  type, so a class-level wrapper would move sievestore-c and AOD onto
  the per-miss path.  The serve gate is wrapped on its instance.
* Everything else is wrapped on the class or module attribute that the
  engines look up at call time, so pickled checkpoints never see a
  wrapper.

Every wrapper is a ``mock.patch.object`` entered on the caller's
``ExitStack``; closing the stack undoes it.
"""

from __future__ import annotations

import contextlib
import os
from unittest import mock
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")
        self._stack: List[int] = []
        self._group = -1
        #: non-time counts measured at the same boundaries (rows read,
        #: checkpoint bytes, gate admissions, ...).
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, name: str) -> int:
        """Open a span; a span opened with no open parent starts a group."""
        index = len(self.start)
        stack = self._stack
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            self._group += 1
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.group.append(self._group)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = fn
        return traced

    # -- derived figures ----------------------------------------------------
    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.frombuffer(self.name, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return names, duration, parent

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children (children of one span never overlap: the
        program is single-threaded).
        """
        if not self.names:
            return {}
        names, duration, parent = self._columns()
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - children
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        inclusive = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Every recorded duration (seconds) of spans called ``name``."""
        if name not in self._name_ids:
            return np.empty(0)
        names, duration, _parent = self._columns()
        return duration[names == self._name_ids[name]]

    def save(self, path: Path) -> None:
        """Write every span to one ``.npz`` (names in ``span_names``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            group=np.frombuffer(self.group, dtype=np.int32),
        )


def _policy_classes() -> List[type]:
    """Every loaded :class:`AllocationPolicy` class, base first."""
    import repro.sim.experiment  # noqa: F401 -- loads every Figure 5 policy
    from repro.cache.allocation import AllocationPolicy

    found: List[type] = []
    pending = [AllocationPolicy]
    while pending:
        cls = pending.pop(0)
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def install_sim(tracer: Tracer, stack: contextlib.ExitStack) -> None:
    """Wrap the simulator layers on their classes and modules."""
    from repro.cache.stats import CacheStats
    from repro.core.sieve_kernel import SieveStoreCKernel
    from repro.faults.injector import FaultInjector
    from repro.sim import serialize
    from repro.traces.segments import SegmentStore

    wrap = tracer.wrap
    kernel = SieveStoreCKernel
    precompute = wrap(kernel.precompute_chunk, "core.kernel_precompute")
    stack.enter_context(mock.patch.object(kernel, "precompute_chunk", precompute))
    stack.enter_context(mock.patch.object(kernel, "sync", wrap(kernel.sync, "core.kernel_sync")))
    _install_mct(tracer, stack)
    record_ssd_io = wrap(CacheStats.record_ssd_io, "cache.record_ssd_io")
    stack.enter_context(mock.patch.object(CacheStats, "record_ssd_io", record_ssd_io))
    for cls in _policy_classes():
        if "epoch_boundary" in cls.__dict__:
            boundary = wrap(cls.__dict__["epoch_boundary"], "core.epoch_boundary")
            stack.enter_context(mock.patch.object(cls, "epoch_boundary", boundary))
    for method in (
        "health_at",
        "latency_factor",
        "read_fails",
        "write_fails",
        "record_ssd_write",
        "time_in_states",
    ):
        wrapped = wrap(FaultInjector.__dict__[method], "faults.injector")
        stack.enter_context(mock.patch.object(FaultInjector, method, wrapped))

    save_checkpoint = serialize.save_checkpoint

    def traced_save_checkpoint(payload, path):
        index = tracer.begin("sim.checkpoint")
        try:
            save_checkpoint(payload, path)
        finally:
            tracer.finish(index)
        tracer.counts["sim.checkpoint_bytes"] += os.path.getsize(path)

    stack.enter_context(mock.patch.object(serialize, "save_checkpoint", traced_save_checkpoint))

    iter_chunks = SegmentStore.iter_chunks

    def traced_iter_chunks(self, chunk_rows=None, start_row=0):
        chunks = iter_chunks(self, chunk_rows, start_row)
        while True:
            index = tracer.begin("traces.chunks_read")
            try:
                base, columns = next(chunks)
            except StopIteration:
                return
            finally:
                tracer.finish(index)
            tracer.counts["traces.rows_read"] += len(columns)
            yield base, columns

    stack.enter_context(mock.patch.object(SegmentStore, "iter_chunks", traced_iter_chunks))


def _install_mct(tracer: Tracer, stack: contextlib.ExitStack) -> None:
    from repro.core.mct import MissCountTable

    wrapped = tracer.wrap(MissCountTable.record_miss, "core.mct_record_miss")
    stack.enter_context(mock.patch.object(MissCountTable, "record_miss", wrapped))


def install_serve(tracer: Tracer, stack: contextlib.ExitStack, cache) -> None:
    """Wrap one :class:`ServingCache` instance's gate and store.

    The gate is wrapped on the instance (never on its class), so the
    simulator's method-identity dispatch is untouched.
    """
    _install_mct(tracer, stack)
    wrap = tracer.wrap
    gate_wants = cache.gate.wants

    def traced_wants(address, is_write, time):
        index = tracer.begin("core.gate_wants")
        try:
            admitted = gate_wants(address, is_write, time)
        finally:
            tracer.finish(index)
        if admitted:
            tracer.counts["core.gate_admits"] += 1
        return admitted

    stack.enter_context(mock.patch.object(cache.gate, "wants", traced_wants))
    store = cache.store
    for method in ("get", "put", "contains"):
        wrapped = wrap(getattr(store, method), f"serve.store_{method}")
        stack.enter_context(mock.patch.object(store, method, wrapped))
