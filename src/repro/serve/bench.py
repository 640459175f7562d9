"""Multi-client serve bench: concurrent replay against one store.

The bench answers the serving-mode question end to end: N client
processes replay disjoint partitions of one trace against a **shared**
store directory, each measuring real per-operation wall latency, and
the parent merges raw samples into nearest-rank percentiles plus a
sieved-vs-unsieved allocation-write comparison.

Client partitioning is **by address hash**, not by time: every address
is always handled by the same client (``bucket_array(address, clients,
mix64(_CLIENT_SALT))``), so each client's private sieve gate sees the
complete miss history of its addresses and miss-counting stays exact
with zero cross-process coordination.  The store directory is shared —
sqlite WAL and the shard fanout carry the concurrency.

Clients run as tasks of :func:`repro.sim.parallel.run_tasks`, named
``client-0`` … ``client-N-1`` (the names ``SIEVESTORE_FAULT_INJECT``
keys on).  The trace is written once as a one-segment store; each
client reads it and keeps its own rows.  Raw results ship back whole
(latency percentiles do not compose from per-client summaries — see
:func:`repro.serve.percentiles.merge_samples`), and a client that
fails after its retry is recorded in the manifest, not raised.

Clients are **idempotent**: before it replays, every attempt deletes
the store keys its address partition owns.  A retry, the serial
fallback after a broken pool, and a re-run into an existing store
therefore all report what a clean run reports.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.admission import build_admission_gate, gate_allocation_writes
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import runtime
from repro.serve.appliance import ServeStats, ServingCache
from repro.serve.backend import EnsembleBackend
from repro.serve.percentiles import LatencySummary, merge_samples, summarize
from repro.serve.store import (
    DEFAULT_INLINE_BYTES,
    DEFAULT_SHARDS,
    ShardedByteStore,
)
from repro.sim.parallel import PolicyFailure, TaskRecord, run_tasks, worker_store
from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import segment_columnar
from repro.util.atomic import atomic_write_json
from repro.util.hashing import bucket_array, mix64

#: Salt decorrelating client partitioning from store-shard placement.
_CLIENT_SALT = 0xC11E27

#: Manifest schema version for serve-bench runs.  v2 added per-client
#: ``outcome``, ``retries`` and ``error`` (failed clients are recorded).
MANIFEST_VERSION = 2

#: Latency classes the bench reports.
OP_KINDS = ("read", "write")


@dataclass(frozen=True)
class BenchOptions:
    """Everything a client worker needs, in picklable plain data."""

    gate_kind: str = "sieve"
    miss_latency: float = 0.0005
    payload_bytes: int = 4096
    store_shards: int = DEFAULT_SHARDS
    inline_bytes: int = DEFAULT_INLINE_BYTES
    seed: int = 0
    #: sieve thresholds (None keeps the paper defaults t1=9, t2=4).
    t1: Optional[int] = None
    t2: Optional[int] = None
    imct_slots: int = 1 << 16
    #: fault plan as its JSON dict (picklable), or None.
    fault_plan: Optional[dict] = None
    collect_metrics: bool = False


@dataclass
class ClientReport:
    """One client process's raw results (shipped back whole)."""

    client: int
    requests: int
    wall_seconds: float
    worker_pid: int
    #: raw per-op latency samples in seconds, keyed by OP_KINDS.
    latencies: Dict[str, List[float]]
    stats: ServeStats
    #: the client's private gate tally (None for stateless gates).
    gate_admissions: Optional[int]
    #: picklable MetricsSnapshot from the client's scoped registry.
    metrics: Optional[object] = None
    executor: str = "pool"


def _client_row(
    client: int, record: TaskRecord, report: Optional[ClientReport]
) -> dict:
    """One client's manifest row (schema ``serve-manifest-client``)."""
    return {
        "client": client,
        "outcome": record.outcome,
        "retries": record.retries,
        "error": record.error,
        "requests": report.requests if report is not None else None,
        "wall_seconds": round(record.wall_seconds, 6),
        "worker_pid": record.worker_pid,
        "executor": record.executor,
        "allocation_writes": (
            report.stats.allocation_writes if report is not None else None
        ),
    }


@dataclass
class BenchReport:
    """The merged outcome of one serve-bench run."""

    gate_kind: str
    clients: int
    requests: int
    wall_seconds: float
    #: nearest-rank summaries per op kind; None when the op never ran.
    latency: Dict[str, Optional[LatencySummary]]
    stats: ServeStats
    #: reports of the clients that completed, in client order.
    client_reports: List[ClientReport] = field(default_factory=list)
    #: one execution record per client, in client order.
    tasks: List[TaskRecord] = field(default_factory=list)
    #: clients that failed after their retry, keyed by task name.
    failures: Dict[str, PolicyFailure] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every client completed."""
        return not self.failures

    @property
    def allocation_writes(self) -> int:
        """First-time admissions onto the device, summed over clients."""
        return self.stats.allocation_writes

    def to_dict(self) -> dict:
        return {
            "gate": self.gate_kind,
            "clients": self.clients,
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 6),
            "allocation_writes": self.allocation_writes,
            # Totals above cover only the clients that completed.
            "failed_clients": list(self.failures),
            "latency": {
                op: summary.to_dict() if summary is not None else None
                for op, summary in sorted(self.latency.items())
            },
            "stats": self.stats.to_dict(),
        }

    def manifest(self) -> dict:
        """Per-client execution records, one row per client."""
        reports = {report.client: report for report in self.client_reports}
        return {
            "version": MANIFEST_VERSION,
            "kind": "serve-bench",
            "gate": self.gate_kind,
            "clients": [
                _client_row(client, record, reports.get(client))
                for client, record in enumerate(self.tasks)
            ],
        }

    def save_manifest(
        self, path: Union[str, Path], baseline: Optional["BenchReport"] = None
    ) -> None:
        """Write the manifest atomically.

        With ``baseline`` (the unsieved pass of a comparison) the file
        wraps both passes' manifests as ``serve-bench-comparison``.
        """
        manifest = self.manifest()
        if baseline is not None:
            manifest = {
                "version": MANIFEST_VERSION,
                "kind": "serve-bench-comparison",
                "sieved": manifest,
                "baseline": baseline.manifest(),
            }
        atomic_write_json(path, manifest)


def _client_of(addresses: np.ndarray, clients: int) -> np.ndarray:
    """The owning client of every address (int64, vectorized)."""
    return bucket_array(addresses, clients, mix64(_CLIENT_SALT))


def partition_by_address(columns: ColumnarTrace, clients: int) -> List[np.ndarray]:
    """Row-index arrays per client, hashed on address (order preserved).

    Hashing the *address* (not the row) pins every block to one client
    for the run's whole duration, which is what keeps each client's
    private sieve exact.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    owner = _client_of(columns.address, clients)
    return [np.flatnonzero(owner == index) for index in range(clients)]


def client_task_names(clients: int) -> List[str]:
    """Task names of a bench's clients (``client-0`` … ``client-N-1``)."""
    return [f"client-{index}" for index in range(clients)]


def _build_cache(
    store_dir: Union[str, Path], client: int, options: BenchOptions
) -> ServingCache:
    gate = build_admission_gate(
        options.gate_kind,
        imct_slots=options.imct_slots,
        t1=options.t1,
        t2=options.t2,
    )
    injector = (
        FaultInjector(FaultPlan.from_dict(options.fault_plan))
        if options.fault_plan is not None
        else None
    )
    backend = EnsembleBackend(
        miss_latency=options.miss_latency,
        payload_bytes=options.payload_bytes,
        seed=options.seed,  # shared seed: payloads agree across clients
    )
    store = ShardedByteStore(
        store_dir,
        shards=options.store_shards,
        inline_bytes=options.inline_bytes,
    )
    return ServingCache(store, gate, backend, injector)


def _forget_partition(store: ShardedByteStore, client: int, clients: int) -> None:
    """Delete every stored key this client's address partition owns.

    Makes a client attempt idempotent: whatever an earlier attempt (or
    an earlier run into the same store) left behind, the replay starts
    from the state a fresh store gives it.  Other clients' keys are
    never touched.  On a fresh store there are no keys to scan.
    """
    keys = np.fromiter(store.keys(), dtype=np.int64)
    for key in keys[_client_of(keys, clients) == client].tolist():
        store.delete(key)


def _replay(
    cache: ServingCache, columns: ColumnarTrace
) -> Dict[str, List[float]]:
    """Replay rows in issue order, timing each operation in real time."""
    latencies: Dict[str, List[float]] = {op: [] for op in OP_KINDS}
    issue = columns.issue_time.tolist()
    addresses = columns.address.tolist()
    writes = columns.is_write.tolist()
    for issued, address, is_write in zip(issue, addresses, writes):
        started = time.perf_counter()
        if is_write:
            cache.write(address, issued)
        else:
            cache.read(address, issued)
        latencies["write" if is_write else "read"].append(
            time.perf_counter() - started
        )
    return latencies


def _run_client(
    store_dir: str, clients: int, options: BenchOptions, name: str
) -> ClientReport:
    """Client task: replay this client's rows of the installed trace."""
    client = int(name.rsplit("-", 1)[1])
    columns = worker_store().load_all()
    columns = columns.take(partition_by_address(columns, clients)[client])
    started = time.perf_counter()
    with _build_cache(store_dir, client, options) as cache:
        _forget_partition(cache.store, client, clients)
        latencies = _replay(cache, columns)
    return ClientReport(
        client=client,
        requests=len(columns),
        wall_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
        latencies=latencies,
        stats=cache.stats,
        gate_admissions=gate_allocation_writes(cache.gate),
    )


def run_serve_bench(
    columns: ColumnarTrace,
    store_dir: Union[str, Path],
    work_dir: Union[str, Path],
    clients: int = 4,
    options: Optional[BenchOptions] = None,
    parallel: bool = True,
) -> BenchReport:
    """Replay ``columns`` through ``clients`` processes sharing one store.

    ``work_dir`` receives the trace as a one-segment store (the
    hand-off every :func:`~repro.sim.parallel.run_tasks` worker uses —
    clients read columns from disk instead of unpickling arrays through
    the pool).  With ``parallel=False`` (or a single client) every
    client runs in-process, which is also the automatic fallback when
    the pool breaks.
    """
    if options is None:
        options = BenchOptions()
    if options.collect_metrics and not runtime.enabled():
        options = replace(options, collect_metrics=False)
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    trace_dir = Path(work_dir) / "trace"
    segment_columnar(columns, trace_dir, rows_per_segment=max(1, len(columns)))

    started = time.perf_counter()
    run = run_tasks(
        client_task_names(clients),
        functools.partial(_run_client, str(store_dir), clients, options),
        jobs=clients if parallel else 1,
        store_dir=trace_dir,
        collect_metrics=options.collect_metrics,
    )
    wall_seconds = time.perf_counter() - started

    reports: List[ClientReport] = []
    for outcome in run.outcomes.values():
        if outcome.ok:
            report = outcome.value
            report.executor = outcome.record.executor
            report.metrics = outcome.snapshot
            reports.append(report)
    latency: Dict[str, Optional[LatencySummary]] = {}
    for op in OP_KINDS:
        samples = merge_samples(report.latencies[op] for report in reports)
        latency[op] = summarize(samples) if samples else None
    return BenchReport(
        gate_kind=options.gate_kind,
        clients=clients,
        requests=sum(report.requests for report in reports),
        wall_seconds=wall_seconds,
        latency=latency,
        stats=ServeStats.merged(report.stats for report in reports),
        client_reports=reports,
        tasks=[outcome.record for outcome in run.outcomes.values()],
        failures=run.failures(),
    )


def run_sieve_comparison(
    columns: ColumnarTrace,
    base_dir: Union[str, Path],
    clients: int = 4,
    options: Optional[BenchOptions] = None,
    parallel: bool = True,
) -> Dict[str, object]:
    """Two-pass bench: the sieve vs. the allocate-on-demand baseline.

    Each pass gets its own store directory under ``base_dir``; the
    returned dict carries both :class:`BenchReport` objects plus the
    headline number — allocation writes the sieve kept off the device.
    The savings are ``None`` when a client of either pass failed: the
    passes then replayed unequal request streams.
    """
    if options is None:
        options = BenchOptions()
    base_dir = Path(base_dir)
    sieved = run_serve_bench(
        columns,
        base_dir / "store-sieved",
        base_dir / "shards",
        clients=clients,
        options=options,
        parallel=parallel,
    )
    unsieved = run_serve_bench(
        columns,
        base_dir / "store-unsieved",
        base_dir / "shards",
        clients=clients,
        options=replace(options, gate_kind="unsieved"),
        parallel=parallel,
    )
    saved = ratio = None
    if sieved.ok and unsieved.ok:
        saved = unsieved.allocation_writes - sieved.allocation_writes
        if unsieved.allocation_writes:
            ratio = sieved.allocation_writes / unsieved.allocation_writes
    return {
        "sieved": sieved,
        "unsieved": unsieved,
        "allocation_writes_saved": saved,
        "allocation_write_ratio": ratio,
    }
