"""One task executor for every process fan-out in the repo.

Three workloads fan independent tasks across worker processes: a
**policy suite** (:func:`run_suite_parallel`, several policies over the
same trace), a **sharded replay** (:func:`run_sharded_replay`, one
policy over disjoint server shards of a segment store), and the
**serve bench** (:func:`repro.serve.bench.run_serve_bench`, clients
replaying disjoint address partitions against one byte store).

All three are thin adapters over :func:`run_tasks`, the only place that
builds a process pool.  An adapter supplies a top-level worker function
``worker(name) -> value`` and turns the per-task outcomes into its own
result type.  ``jobs=1`` runs the very same worker in-process.

Workers receive trace data only as a segment-store path
(:mod:`repro.traces.segments`): the pool initializer opens the store
once per worker process and tasks read it through :func:`worker_store`.
A policy suite writes its in-RAM trace as a one-segment store and each
worker rebuilds its experiment context from it once.  Results are
deterministic and equal to a serial run.

Failures degrade instead of raising: a task that raises (or exceeds
``timeout``) is retried **once**, then becomes a failed
:class:`TaskOutcome` carrying a :class:`PolicyFailure`; a dead worker
(``BrokenProcessPool``) routes every not-yet-collected task through
in-process **serial fallback**, keeping completed results.  Every task
gets a :class:`TaskRecord`, the row type of the run manifests (schemas
in the README).

For CI and testing, ``SIEVESTORE_FAULT_INJECT=mode:task[:arg]`` injects
failures into the named task: ``raise`` fails it every time, ``crash``
hard-kills the worker process, ``flaky:task:marker-path`` fails only the
first execution, and ``hang:task:seconds`` sleeps in the worker.
"""

from __future__ import annotations

import functools
import os
import tempfile
import time
import warnings
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Union

from repro.sim import engine as _engine
from repro.sim.engine import DEFAULT_CHECKPOINT_EVERY, SimulationResult
from repro.util.atomic import atomic_write_json

#: Bump on manifest layout changes; consumers refuse unknown versions.
#: v2 added per-task ``fault_plan`` (plan fingerprint) and
#: ``checkpoint`` (path + cadence) metadata.
MANIFEST_SCHEMA_VERSION = 2

#: Manifest schema emitted when metrics collection is on: v3 adds a
#: per-task ``"metrics"`` snapshot and a suite-level ``"metrics"``
#: block.  Runs without observability keep emitting v2 byte-identically.
MANIFEST_SCHEMA_VERSION_METRICS = 3

#: Bump on sharded-replay manifest layout changes; consumers refuse
#: unknown versions.
SHARD_MANIFEST_VERSION = 1

#: Environment variable enabling fault injection (``mode:task[:arg]``).
FAULT_ENV_VAR = "SIEVESTORE_FAULT_INJECT"

#: Attempts per task: the initial run plus one bounded retry.
MAX_ATTEMPTS = 2

#: The segment store this process's tasks read, installed by
#: :func:`_init_worker` (pool initializer, or around in-process runs).
_WORKER_STORE = None


class InjectedWorkerFault(RuntimeError):
    """Raised by the fault-injection hook (testing/CI only)."""


def _maybe_inject_fault(name: str, in_worker: bool) -> None:
    """Apply the ``SIEVESTORE_FAULT_INJECT`` spec to task ``name``.

    ``crash`` only hard-exits inside a worker process; in-process it
    raises instead, so it can never take the caller's process down.
    """
    spec = os.environ.get(FAULT_ENV_VAR)
    if not spec:
        return
    parts = spec.split(":", 2)
    mode = parts[0].strip().lower()
    target = parts[1] if len(parts) > 1 else ""
    arg = parts[2] if len(parts) > 2 else None
    if target != name:
        return
    if mode == "crash":
        if in_worker:
            os._exit(70)
        raise InjectedWorkerFault(f"injected crash for {name!r} (serial execution)")
    if mode == "raise":
        raise InjectedWorkerFault(f"injected failure for {name!r}")
    if mode == "flaky":
        if not arg:
            raise ValueError(f"flaky fault injection needs a marker path: {FAULT_ENV_VAR}"
                             "=flaky:task:/path/to/marker")
        try:
            with open(arg, "x"):
                pass
        except FileExistsError:
            return  # already fired once; succeed from now on
        raise InjectedWorkerFault(f"injected one-shot failure for {name!r}")
    if mode == "hang":
        time.sleep(float(arg) if arg else 3600.0)
        return
    raise ValueError(f"unknown fault-injection mode {mode!r} in {FAULT_ENV_VAR}")


def _init_worker(store) -> None:
    """Install the segment store (a directory, an opened store, or
    None) this process's tasks read: once per pool worker, or around
    in-process execution, which restores the previous one after."""
    from repro.traces.segments import SegmentStore

    global _WORKER_STORE
    if store is not None and not isinstance(store, SegmentStore):
        store = SegmentStore.open(store)
    _WORKER_STORE = store  # sievelint: disable=SVL008 -- initializer-set worker global


def worker_store():
    """The segment store installed for the running task."""
    if _WORKER_STORE is None:
        raise RuntimeError("no segment store installed; pass store_dir to run_tasks")
    return _WORKER_STORE


def default_jobs() -> int:
    """Worker count when the caller asks for 'all cores'.

    Prefers the scheduling affinity mask over ``os.cpu_count()``:
    affinity-limited containers and CI runners may expose many more
    cores than this process may run on.  Falls back to ``cpu_count``
    where affinity is unsupported (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
        except OSError:
            affinity = 0
        if affinity:
            return affinity
    return max(1, os.cpu_count() or 1)


@dataclass
class TaskRecord:
    """One task's execution record (a manifest row)."""

    policy: str
    outcome: str  # "ok" | "failed" | "timeout"
    engine: Optional[str]  # "fast" | "object"; None when the task failed
    wall_seconds: float
    retries: int
    worker_pid: Optional[int]
    executor: str  # "pool" | "serial" | "serial-fallback"
    error: Optional[str] = None
    #: fingerprint of the task's fault plan (None without a plan).
    fault_plan: Optional[str] = None
    #: checkpoint metadata ({"path", "every"}; None when not checkpointing).
    checkpoint: Optional[dict] = None
    #: JSON-safe metrics snapshot (manifest v3 only; None keeps the
    #: manifest byte-identical to v2).
    metrics: Optional[dict] = None

    def to_dict(self) -> dict:
        data = {
            "policy": self.policy,
            "outcome": self.outcome,
            "engine": self.engine,
            "wall_seconds": round(self.wall_seconds, 6),
            "retries": self.retries,
            "worker_pid": self.worker_pid,
            "executor": self.executor,
            "error": self.error,
            "fault_plan": self.fault_plan,
            "checkpoint": self.checkpoint,
        }
        if self.metrics is not None:
            data["metrics"] = self.metrics
        return data


@dataclass
class PolicyFailure:
    """Structured record of a task that could not be completed."""

    policy: str
    error_type: str
    message: str
    retries: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.policy}: {self.error_type}: {self.message} "
            f"(after {self.retries} retr{'y' if self.retries == 1 else 'ies'})"
        )


@dataclass
class TaskOutcome:
    """One task's final result: the worker's value, or why it failed."""

    record: TaskRecord
    value: object = None  # the worker's return value
    failure: Optional[PolicyFailure] = None
    snapshot: object = None  # metrics snapshot (collecting runs only)

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class TaskRun:
    """Everything :func:`run_tasks` learned, keyed by task name."""

    outcomes: "OrderedDict[str, TaskOutcome]"  # in requested order
    pool_broken: bool
    metrics: object = None  # merged snapshot (collecting runs only)

    def values(self) -> "OrderedDict[str, object]":
        """Worker return values of the tasks that succeeded."""
        return OrderedDict(
            (name, o.value) for name, o in self.outcomes.items() if o.ok
        )

    def failures(self) -> Dict[str, PolicyFailure]:
        return {n: o.failure for n, o in self.outcomes.items() if o.failure}

    def task_rows(self) -> List[dict]:
        """Manifest rows, one per task."""
        return [o.record.to_dict() for o in self.outcomes.values()]


def _attempt(worker: Callable, name: str, collect_metrics: bool, in_worker: bool):
    """One execution of ``worker(name)``, in a pool worker or in-process.

    Resets the fast-path warn-once latch (whether a run warns must not
    depend on what else ran in this process), applies fault injection,
    and optionally runs the task under a fresh scoped metrics registry
    whose snapshot travels home with the result.
    """
    _engine._reset_fallback_warnings()
    _maybe_inject_fault(name, in_worker)
    started = time.perf_counter()
    snapshot = None
    if collect_metrics:
        from repro.obs.runtime import scoped_registry

        with scoped_registry() as obs_context:
            value = worker(name)
            snapshot = obs_context.registry.snapshot()
    else:
        value = worker(name)
    return os.getpid(), time.perf_counter() - started, value, snapshot


#: Bounds for parent-side wait on one task's result (seconds).
_WAIT_BUCKETS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0, 1800.0,
)


def _note_task(registry, record: TaskRecord, waited: float) -> None:
    """Count one finished task in the run's metrics registry."""
    registry.counter(
        "suite_tasks_total",
        "Suite tasks by outcome and executor",
        ("outcome", "executor"),
    ).inc(outcome=record.outcome, executor=record.executor)
    if record.retries:
        registry.counter(
            "suite_retries_total",
            "Task retries (second submissions)",
            ("policy",),
        ).inc(record.retries, policy=record.policy)
    registry.histogram(
        "suite_task_wait_seconds",
        "Parent wall time waiting on one task's result",
        ("executor",),
        buckets=_WAIT_BUCKETS,
    ).observe(waited, executor=record.executor)


def run_tasks(
    names: Sequence[str],
    worker: Callable[[str], object],
    jobs: int = 1,
    timeout: Optional[float] = None,
    on_done: Optional[Callable[[TaskRecord], None]] = None,
    store_dir: Union[None, str, Path] = None,
    collect_metrics: Optional[bool] = None,
    record_fields: Optional[Callable[[str], dict]] = None,
) -> TaskRun:
    """Run ``worker(name)`` once per task name, degrading on failure.

    ``worker`` is a module-level callable (or a ``functools.partial``
    of one over picklable data).  ``names`` are deduplicated in
    first-occurrence order; they are what :data:`FAULT_ENV_VAR` keys
    on.  ``jobs=1`` runs every task in-process (executor ``"serial"``).
    ``timeout`` bounds the parent's wait for one pool task's result
    (``None`` waits forever); every task gets :data:`MAX_ATTEMPTS`
    attempts, pool and in-process alike.  ``on_done`` receives each task's
    :class:`TaskRecord` as it finishes, in request order for pool
    tasks.  Tasks read ``store_dir`` through :func:`worker_store`.
    ``collect_metrics`` runs each task under a scoped registry, merges
    the snapshots and task counts, and folds them into the process-wide
    registry (``None`` follows the observability switch).
    ``record_fields`` adds per-task :class:`TaskRecord` fields
    (``fault_plan``, ``checkpoint``); a record's ``engine`` is the
    value's ``engine`` attribute, if any.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    from repro.obs import runtime as obs_runtime
    from repro.obs.metrics import MetricsRegistry

    names = list(dict.fromkeys(names))  # a duplicate would run twice
    if collect_metrics is None:
        collect_metrics = obs_runtime.enabled()
    registry = MetricsRegistry() if collect_metrics else None
    attempts = dict.fromkeys(names, 0)
    outcomes: Dict[str, TaskOutcome] = {}

    def finish(name, executor, waited, pid=None, wall=None, value=None,
               snapshot=None, exc=None, outcome="ok") -> None:
        failure = None
        if exc is not None:
            failure = PolicyFailure(
                name, type(exc).__name__, str(exc), attempts[name] - 1
            )
        record = TaskRecord(
            policy=name,
            outcome=outcome,
            engine=None if failure else getattr(value, "engine", None),
            wall_seconds=waited if wall is None else wall,
            retries=attempts[name] - 1,
            worker_pid=pid,
            executor=executor,
            error=f"{failure.error_type}: {failure.message}" if failure else None,
            metrics=snapshot.to_jsonable() if snapshot is not None else None,
            **(record_fields(name) if record_fields is not None else {}),
        )
        outcomes[name] = TaskOutcome(record, value, failure, snapshot)
        if registry is not None:
            if snapshot is not None:
                registry.merge_snapshot(snapshot)
            _note_task(registry, record, waited)
        if on_done is not None:
            on_done(record)

    leftover, pool_broken = list(names), False
    if jobs > 1 and names:
        leftover, pool_broken = _run_pool(
            names, worker, jobs, timeout, store_dir, collect_metrics,
            attempts, finish,
        )
        if leftover:
            warnings.warn(
                f"worker pool broke; running {len(leftover)} remaining task(s) "
                f"serially in-process: {', '.join(leftover)}",
                RuntimeWarning, stacklevel=3,
            )
    if leftover:
        executor = "serial-fallback" if pool_broken else "serial"
        previous = _WORKER_STORE
        _init_worker(store_dir)
        try:
            for name in leftover:
                started = time.perf_counter()
                while True:
                    attempts[name] += 1
                    try:
                        pid, wall, value, snapshot = _attempt(
                            worker, name, collect_metrics, in_worker=False
                        )
                    except Exception as exc:
                        if attempts[name] < MAX_ATTEMPTS:
                            continue
                        finish(name, executor, time.perf_counter() - started,
                               pid=os.getpid(), exc=exc, outcome="failed")
                    else:
                        finish(name, executor, time.perf_counter() - started,
                               pid=pid, wall=wall, value=value,
                               snapshot=snapshot)
                    break
        finally:
            _init_worker(previous)

    metrics = None
    if registry is not None:
        metrics = registry.snapshot()
        parent = obs_runtime.get_registry()
        if parent is not None:
            parent.merge_snapshot(metrics)
    ordered = OrderedDict((name, outcomes[name]) for name in names)
    return TaskRun(ordered, pool_broken, metrics)


def _run_pool(names, worker, jobs, timeout, store_dir, collect_metrics,
              attempts, finish):
    """Fan ``names`` over a process pool, collecting in request order.

    Returns ``(leftover, pool_broken)``: once the pool breaks, every
    task not yet collected is left for in-process execution.
    """
    leftover: List[str] = []
    broken = timed_out = False
    futures: Dict[str, object] = {}
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(names)),
        initializer=_init_worker,
        initargs=(None if store_dir is None else str(store_dir),),
    )
    try:
        for index, name in enumerate(names):
            waited_from = time.perf_counter()
            while True:
                try:
                    # The first pass submits the whole batch; later
                    # passes only resubmit a retried task.  A broken
                    # pool refuses submissions with BrokenProcessPool.
                    for pending in names[index:]:
                        if pending not in futures:
                            futures[pending] = pool.submit(
                                _attempt, worker, pending, collect_metrics, True
                            )
                            attempts[pending] += 1
                    future = futures.pop(name)
                    pid, wall, value, snapshot = future.result(timeout=timeout)
                except BrokenProcessPool:
                    broken = True
                    leftover.append(name)
                    break
                except Exception as exc:
                    outcome = "failed"
                    if isinstance(exc, _FuturesTimeout):
                        timed_out = True
                        future.cancel()
                        outcome = "timeout"
                        exc = TimeoutError(f"task exceeded {timeout}s timeout")
                    if attempts[name] < MAX_ATTEMPTS:
                        waited_from = time.perf_counter()
                        continue
                    finish(name, "pool", time.perf_counter() - waited_from,
                           exc=exc, outcome=outcome)
                else:
                    finish(name, "pool", time.perf_counter() - waited_from,
                           pid=pid, wall=wall, value=value, snapshot=snapshot)
                break
    finally:
        # Don't block on a timed-out task still running in its worker.
        # Otherwise wait: no worker of a broken pool may outlive it
        # while the in-process fallback reruns its tasks.
        pool.shutdown(wait=not timed_out, cancel_futures=True)
    return leftover, broken


# ---------------------------------------------------------------------------
# Policy suites: many policies over one shared trace.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SuiteRun(Mapping):
    """Results of one policy-suite run, with partial-failure visibility.

    A read-only mapping ``{policy name -> SimulationResult}`` over the
    *successful* runs, in requested order.  :attr:`failures` maps
    failed policy names to :class:`PolicyFailure` records (a failed
    task never discards the completed ones), :attr:`manifest` is the
    JSON-serializable run manifest (one :class:`TaskRecord` row per
    task), and :attr:`metrics` the merged
    :class:`~repro.obs.metrics.MetricsSnapshot` when metrics collection
    was on.
    """

    results: "OrderedDict[str, SimulationResult]"
    failures: Dict[str, PolicyFailure]
    manifest: dict
    metrics: object = None

    def __getitem__(self, name: str) -> SimulationResult:
        return self.results[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when no policy failed."""
        return not self.failures

    def save_manifest(self, path: Union[str, Path]) -> None:
        """Write the run manifest as indented JSON (atomically)."""
        atomic_write_json(path, self.manifest)


def _build_manifest(
    requested: Sequence[str],
    names: Sequence[str],
    run: TaskRun,
    jobs: int,
    track_minutes: bool,
    fast_path: bool,
    task_timeout: Optional[float],
    wall_seconds: float,
) -> dict:
    suite_metrics = run.metrics.to_jsonable() if run.metrics is not None else None
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION if suite_metrics is None
        else MANIFEST_SCHEMA_VERSION_METRICS,
        "requested": list(requested),
        "names": list(names),
        "jobs": jobs,
        "track_minutes": track_minutes,
        "fast_path": fast_path,
        "task_timeout": task_timeout,
        "pool_broken": run.pool_broken,
        "wall_seconds": round(wall_seconds, 6),
        "tasks": run.task_rows(),
    }
    if suite_metrics is not None:
        manifest["metrics"] = suite_metrics
    return manifest


def _checkpoint_meta(checkpoint_dir, name: str, checkpoint_every) -> Optional[dict]:
    """Per-task checkpoint manifest metadata (None when not checkpointing)."""
    if checkpoint_dir is None:
        return None
    if checkpoint_every is None:
        checkpoint_every = DEFAULT_CHECKPOINT_EVERY
    return {"path": str(Path(checkpoint_dir) / f"{name}.ckpt"), "every": checkpoint_every}


@functools.lru_cache(maxsize=1)
def _store_context(store, days: int, scale: float, seed: int):
    """The experiment context of a segment store (once per process)."""
    from repro.sim.experiment import context_for_trace

    return context_for_trace(store.load_all(), days=days, scale=scale, seed=seed)


def _run_policy_task(
    context_args: tuple, checkpoint_dir, run_kwargs: dict, name: str, ctx=None
) -> SimulationResult:
    """Suite worker: run policy ``name`` over ``ctx`` (in-process) or
    over the context rebuilt from the installed segment store."""
    from repro.sim.experiment import run_policy

    if ctx is None:
        ctx = _store_context(worker_store(), *context_args)
    meta = _checkpoint_meta(checkpoint_dir, name, run_kwargs["checkpoint_every"])
    return run_policy(
        name, ctx, checkpoint_path=meta["path"] if meta else None, **run_kwargs
    )


def run_suite_parallel(
    ctx,
    names: Sequence[str],
    track_minutes: bool = True,
    fast_path: bool = True,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    fault_plan=None,
    epoch_seconds=None,
    checkpoint_dir=None,
    checkpoint_every=None,
    collect_metrics: Optional[bool] = None,
    on_task_done=None,
    progress_every=None,
    progress_hook=None,
) -> SuiteRun:
    """Run the named policy configurations, fanned across processes.

    ``ctx`` is the parent's :class:`ExperimentContext`; pool workers
    get its columnar trace as a one-segment store, ``jobs=1`` runs
    in-process over ``ctx`` itself (executor ``"serial"``), and
    ``jobs=None`` uses :func:`default_jobs`.  ``names`` are policy
    configuration keys (see :func:`repro.sim.experiment.build_policy`),
    deduplicated in first-occurrence order.

    ``track_minutes``, ``fast_path``, ``fault_plan`` (its fingerprint is
    recorded per task), ``epoch_seconds`` and ``checkpoint_every`` are
    forwarded to every run; ``checkpoint_dir`` makes each task write
    crash-consistent checkpoints to ``<dir>/<policy>.ckpt``.
    ``task_timeout`` bounds the wait for one pool task's result (one retry,
    then a ``"timeout"`` failure record).  ``collect_metrics`` gathers
    per-task metrics snapshots and emits a v3 manifest (``None``
    follows the process-wide observability switch, so runs with it off
    stay byte-identical to v2).  ``on_task_done`` receives each
    finished :class:`TaskRecord` (CLI progress); ``progress_every`` /
    ``progress_hook`` reach the engine loop only when ``jobs=1``.

    Returns a :class:`SuiteRun`.  Worker death, task exceptions, and
    timeouts degrade (retry once, then serial fallback / failure
    records) instead of discarding completed results.
    """
    started = time.perf_counter()
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    requested = list(names)
    run_kwargs = dict(
        track_minutes=track_minutes, fast_path=fast_path,
        fault_plan=fault_plan, epoch_seconds=epoch_seconds,
        checkpoint_every=checkpoint_every,
    )
    plan_fp = fault_plan.fingerprint() if fault_plan is not None else None
    options = dict(
        collect_metrics=collect_metrics,
        on_done=on_task_done,
        record_fields=lambda name: {
            "fault_plan": plan_fp,
            "checkpoint": _checkpoint_meta(checkpoint_dir, name, checkpoint_every),
        },
    )
    if jobs == 1 or not requested:
        hooks = dict(progress_every=progress_every, progress_hook=progress_hook)
        worker = functools.partial(
            _run_policy_task, (), checkpoint_dir, {**run_kwargs, **hooks}, ctx=ctx
        )
        run = run_tasks(requested, worker, jobs=1, **options)
    else:
        from repro.traces.segments import segment_columnar

        columns = ctx.columnar_trace()
        with tempfile.TemporaryDirectory(prefix="sievestore-suite-") as tmpdir:
            segment_columnar(columns, tmpdir, rows_per_segment=max(1, len(columns)))
            try:
                worker = functools.partial(
                    _run_policy_task, (ctx.days, ctx.scale, ctx.seed),
                    checkpoint_dir, run_kwargs,
                )
                run = run_tasks(
                    requested, worker, jobs=jobs, timeout=task_timeout,
                    store_dir=tmpdir, **options,
                )
            finally:
                _store_context.cache_clear()
    # In-process tasks (jobs=1) run unbounded, so record no timeout.
    manifest = _build_manifest(
        requested, list(run.outcomes), run, jobs=jobs, track_minutes=track_minutes,
        fast_path=fast_path, task_timeout=task_timeout if jobs > 1 else None,
        wall_seconds=time.perf_counter() - started,
    )
    return SuiteRun(run.values(), run.failures(), manifest, metrics=run.metrics)


def run_suite_serial(ctx, names, track_minutes=True, fast_path=False, **kwargs) -> SuiteRun:
    """In-process reference execution of a policy suite:
    :func:`run_suite_parallel` with ``jobs=1`` (same worker, retry
    budget, partial-result semantics and manifest)."""
    return run_suite_parallel(
        ctx, names, track_minutes=track_minutes, fast_path=fast_path,
        jobs=1, **kwargs,
    )


# ---------------------------------------------------------------------------
# Shard-level replay: one policy, the trace partitioned across workers.
# ---------------------------------------------------------------------------


def shard_task_names(shards: int) -> List[str]:
    """Deterministic task names (``shard-0`` … ``shard-N-1``).

    These are the names :data:`FAULT_ENV_VAR` keys on for sharded
    replay (``SIEVESTORE_FAULT_INJECT=flaky:shard-2:/tmp/marker``) and
    the stems of per-shard checkpoint files.
    """
    return [f"shard-{index}" for index in range(shards)]


class _ShardResult(NamedTuple):
    """What a shard task ships home: per-shard cache/policy objects
    never cross the process boundary."""

    stats: object
    engine: str


def _replay_shard(
    name: str, *, shards: int, policy_name: str, days: int, scale: float,
    seed: int, chunk_rows, checkpoint_dir, checkpoint_every, **sim_kwargs
) -> _ShardResult:
    """Shard worker: replay one shard of the installed segment store.

    When the shard's checkpoint file already exists — a retried task,
    or a whole coordinator rerun after a crash — the run resumes from
    it; an unusable checkpoint restarts the shard with a warning.
    """
    from repro.sim.experiment import ExperimentContext, build_policy
    from repro.sim.serialize import CheckpointError

    shard = int(name.rsplit("-", 1)[1])
    meta = _checkpoint_meta(checkpoint_dir, name, checkpoint_every)
    checkpoint_path = meta["path"] if meta else None
    view = worker_store().shard(shard, shards)
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        try:
            result = _engine.resume_simulation(
                checkpoint_path, view, checkpoint_path=checkpoint_path,
                chunk_rows=chunk_rows,
            )
            return _ShardResult(result.stats, result.engine)
        except CheckpointError as exc:
            warnings.warn(
                f"{name} checkpoint {checkpoint_path} is unusable "
                f"({exc}); restarting the shard from the beginning",
                RuntimeWarning,
                stacklevel=2,
            )
    ctx = ExperimentContext(
        trace=view,
        days=days,
        scale=scale / shards,
        daily_counts=view.daily_block_counts(days, chunk_rows=chunk_rows),
        seed=seed,
    )
    policy, capacity = build_policy(policy_name, ctx)
    result = _engine.simulate(
        view,
        policy,
        capacity_blocks=capacity,
        days=days,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        label=policy_name,
        chunk_rows=chunk_rows,
        **sim_kwargs,
    )
    return _ShardResult(result.stats, result.engine)


@dataclass
class ShardedReplayRun:
    """Result of one sharded replay: merged statistics plus provenance."""

    policy_name: str
    #: the ensemble-level statistics merged from every shard; None when
    #: any shard failed (partial statistics would be silently wrong).
    stats: object
    #: per-shard statistics in shard order (successful shards only).
    shard_stats: "OrderedDict[str, object]"
    failures: Dict[str, PolicyFailure]
    #: JSON-serializable run manifest (schema SHARD_MANIFEST_VERSION).
    manifest: dict
    metrics: object = None

    @property
    def ok(self) -> bool:
        """True when every shard completed and the merge happened."""
        return not self.failures and self.stats is not None

    def save_manifest(self, path: Union[str, Path]) -> None:
        """Write the run manifest as indented JSON (atomically)."""
        atomic_write_json(path, self.manifest)


def _build_shard_manifest(
    policy_name: str,
    shards: int,
    names: Sequence[str],
    run: TaskRun,
    jobs: int,
    track_minutes: bool,
    fast_path: bool,
    chunk_rows: Optional[int],
    task_timeout: Optional[float],
    wall_seconds: float,
) -> dict:
    manifest = {
        "schema": SHARD_MANIFEST_VERSION,
        "kind": "sharded-replay",
        "policy": policy_name,
        "shards": shards,
        "names": list(names),
        "jobs": jobs,
        "track_minutes": track_minutes,
        "fast_path": fast_path,
        "chunk_rows": chunk_rows,
        "task_timeout": task_timeout,
        "pool_broken": run.pool_broken,
        "wall_seconds": round(wall_seconds, 6),
        "tasks": run.task_rows(),
    }
    if run.metrics is not None:
        manifest["metrics"] = run.metrics.to_jsonable()
    return manifest


def run_sharded_replay(
    store,
    policy_name: str,
    days: int,
    scale: float,
    shards: int,
    seed: int = 0,
    jobs: Optional[int] = None,
    track_minutes: bool = True,
    fast_path: bool = True,
    chunk_rows: Optional[int] = None,
    task_timeout: Optional[float] = None,
    epoch_seconds: Optional[float] = None,
    checkpoint_dir=None,
    checkpoint_every: Optional[int] = None,
    collect_metrics: Optional[bool] = None,
    on_task_done=None,
) -> ShardedReplayRun:
    """Replay **one** policy with the ensemble partitioned across workers.

    The dual of :func:`run_suite_parallel`: one policy over disjoint
    server shards of the segment store
    (:func:`repro.traces.segments.shard_of_servers` — every block of a
    server lands on exactly one shard, so shards are closed
    subsystems).  Workers open the segment files by path, and the
    per-shard :class:`CacheStats` merge with :meth:`CacheStats.merged`.
    Each shard is an appliance provisioned at ``scale / shards``, so
    ``shards=1`` is bit-identical to an unsharded
    :func:`~repro.sim.engine.simulate` run.  ``jobs=1`` runs the same
    shards in-process with byte-identical merged statistics.

    Failure handling is :func:`run_tasks`'; a retried shard **resumes
    from its checkpoint** when ``checkpoint_dir`` is set.
    ``SIEVESTORE_FAULT_INJECT`` keys on :func:`shard_task_names`.
    """
    from repro.cache.stats import CacheStats
    from repro.traces.segments import SegmentStore

    started = time.perf_counter()
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if not isinstance(store, SegmentStore):
        store = SegmentStore.open(store)
    if jobs is None:
        jobs = default_jobs()
    names = shard_task_names(shards)
    sim_kwargs = dict(track_minutes=track_minutes, fast_path=fast_path)
    if epoch_seconds is not None:
        sim_kwargs["epoch_seconds"] = epoch_seconds
    worker = functools.partial(
        _replay_shard, shards=shards, policy_name=policy_name, days=days,
        scale=scale, seed=seed, chunk_rows=chunk_rows,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        **sim_kwargs,
    )
    run = run_tasks(
        names,
        worker,
        jobs=jobs,
        timeout=task_timeout,
        on_done=on_task_done,
        store_dir=store.directory,
        collect_metrics=collect_metrics,
        record_fields=lambda name: {
            "checkpoint": _checkpoint_meta(checkpoint_dir, name, checkpoint_every)
        },
    )
    manifest = _build_shard_manifest(
        policy_name, shards, names, run, jobs=jobs,
        track_minutes=track_minutes, fast_path=fast_path,
        chunk_rows=chunk_rows, task_timeout=task_timeout,
        wall_seconds=time.perf_counter() - started,
    )
    shard_stats = OrderedDict(
        (name, value.stats) for name, value in run.values().items()
    )
    merged = (
        CacheStats.merged(list(shard_stats.values()))
        if len(shard_stats) == shards
        else None
    )
    return ShardedReplayRun(
        policy_name, merged, shard_stats, run.failures(), manifest,
        metrics=run.metrics,
    )
