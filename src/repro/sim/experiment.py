"""Experiment configuration and the policy registry.

Maps the paper's evaluated configurations (Figure 5's bars) onto
constructed policy + capacity pairs, with all sizes derived from one
linear ``scale`` so the scaled experiments keep the paper's ratios:

* sieved caches (Ideal, SieveStore-D/-C, RandSieve-*): 16 GB x scale;
* unsieved caches (AOD, WMNA): both 16 GB and 32 GB x scale — the paper
  grants the unsieved policies a double-size cache to account for the
  DRAM/storage the sieve metastate would occupy, and reports the 32 GB
  numbers;
* IMCT sized to the paper's ~8 GB-of-state budget x scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.core.admission import build_admission_gate
from repro.core.ideal import IdealDailySieve
from repro.core.random_sieve import RandSieveBlkD, RandSieveC
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig
from repro.core.windows import WindowSpec
from repro.sim.engine import SimulationResult, simulate
from repro.traces.columnar import ColumnarTrace
from repro.traces.model import Trace
from repro.traces.streams import daily_block_counts
from repro.util.units import BLOCK_BYTES, GIB

if TYPE_CHECKING:
    from repro.sim.parallel import SuiteRun

#: Figure 5's configuration keys, in the paper's bar order.
FIGURE5_POLICIES = (
    "ideal",
    "randsieve-blkd",
    "sievestore-d",
    "randsieve-c",
    "sievestore-c",
    "aod-16",
    "wmna-16",
    "aod-32",
    "wmna-32",
)

#: Paper's full-scale cache sizes.
SIEVED_CACHE_GIB = 16.0
UNSIEVED_LARGE_CACHE_GIB = 32.0
#: Paper's full-scale sieve-state budget (~8 GB of IMCT+MCT).
FULL_SCALE_IMCT_SLOTS = 1.3e9


@dataclass
class ExperimentContext:
    """Shared inputs for building policies against one trace.

    ``daily_counts`` (per-day per-block access counts) doubles as the
    ideal sieve's oracle knowledge and as the popularity analysis input;
    compute it once per trace with :func:`context_for_trace`.

    ``trace`` may be held in either representation; use
    :meth:`object_trace` / :meth:`columnar_trace` to get the form a
    consumer needs (conversions are cached).
    """

    trace: Union[Trace, ColumnarTrace]
    days: int
    scale: float
    daily_counts: List[Counter]
    seed: int = 0
    columnar: Optional[ColumnarTrace] = field(
        default=None, repr=False, compare=False
    )
    _object_cache: Optional[Trace] = field(
        default=None, repr=False, compare=False
    )

    def object_trace(self) -> Trace:
        """The trace in object form (converted from columns if needed)."""
        if isinstance(self.trace, Trace):
            return self.trace
        if self._object_cache is None:
            self._object_cache = self.trace.to_trace()
        return self._object_cache

    def columnar_trace(self) -> ColumnarTrace:
        """The trace in columnar form (converted from objects if needed)."""
        if isinstance(self.trace, ColumnarTrace):
            return self.trace
        if self.columnar is None:
            self.columnar = ColumnarTrace.from_trace(self.trace)
        return self.columnar

    def cache_blocks(self, full_scale_gib: float) -> int:
        """Scaled frame count for a full-scale cache size in GiB."""
        blocks = int(full_scale_gib * GIB / BLOCK_BYTES * self.scale)
        return max(blocks, 64)

    @property
    def sieved_capacity(self) -> int:
        """Scaled frame count of the paper's 16 GB sieved cache."""
        return self.cache_blocks(SIEVED_CACHE_GIB)

    @property
    def unsieved_large_capacity(self) -> int:
        """Scaled frame count of the 32 GB unsieved comparison cache."""
        return self.cache_blocks(UNSIEVED_LARGE_CACHE_GIB)

    @property
    def imct_slots(self) -> int:
        """Scaled IMCT slot count (paper: ~8 GB of sieve state)."""
        return max(1024, int(FULL_SCALE_IMCT_SLOTS * self.scale))


def context_for_trace(
    trace: Union[Trace, ColumnarTrace],
    days: int,
    scale: float,
    seed: int = 0,
    columnar: Optional[ColumnarTrace] = None,
) -> ExperimentContext:
    """Build the shared context (computes daily block counts once).

    Accepts either trace representation; pass ``columnar`` alongside an
    object ``trace`` when both forms already exist so neither gets
    re-derived.  The per-day counts are computed from whichever
    columnar form is available (vectorized), falling back to the
    reference per-block walk for object-only input — the two are
    asserted identical by the test suite.
    """
    if isinstance(trace, ColumnarTrace):
        columns: Optional[ColumnarTrace] = trace
    else:
        columns = columnar
    daily = (
        columns.daily_block_counts(days)
        if columns is not None
        else daily_block_counts(trace, days)
    )
    return ExperimentContext(
        trace=trace,
        days=days,
        scale=scale,
        daily_counts=daily,
        seed=seed,
        columnar=columns,
    )


def build_policy(name: str, ctx: ExperimentContext) -> tuple:
    """Construct (policy, capacity_blocks) for a configuration key.

    Keys: ``ideal``, ``sievestore-d``, ``sievestore-c``,
    ``randsieve-blkd``, ``randsieve-c``, ``aod-16``, ``wmna-16``,
    ``aod-32``, ``wmna-32``.
    """
    sieved = ctx.sieved_capacity
    large = ctx.unsieved_large_capacity
    factories: Dict[str, Callable[[], tuple]] = {
        "ideal": lambda: (
            IdealDailySieve(ctx.daily_counts, capacity_blocks=sieved),
            sieved,
        ),
        "sievestore-d": lambda: (
            SieveStoreD(SieveStoreDConfig(capacity_blocks=sieved)),
            sieved,
        ),
        # The sieve and the unsieved baselines come from the shared
        # admission-gate factory (repro.core.admission), which the live
        # serving layer uses for the very same construction.
        "sievestore-c": lambda: (
            build_admission_gate("sieve", imct_slots=ctx.imct_slots),
            sieved,
        ),
        "randsieve-blkd": lambda: (
            RandSieveBlkD(capacity_blocks=sieved, seed=ctx.seed),
            sieved,
        ),
        "randsieve-c": lambda: (RandSieveC(seed=ctx.seed), sieved),
        "aod-16": lambda: (build_admission_gate("unsieved"), sieved),
        "wmna-16": lambda: (build_admission_gate("read-only"), sieved),
        "aod-32": lambda: (build_admission_gate("unsieved"), large),
        "wmna-32": lambda: (build_admission_gate("read-only"), large),
    }
    if name not in factories:
        raise ValueError(
            f"unknown policy configuration {name!r}; expected one of "
            f"{sorted(factories)}"
        )
    return factories[name]()


def run_policy(
    name: str,
    ctx: ExperimentContext,
    track_minutes: bool = True,
    fast_path: bool = False,
    fault_plan=None,
    epoch_seconds: Optional[float] = None,
    checkpoint_path=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_context: Optional[dict] = None,
    progress_every: Optional[int] = None,
    progress_hook=None,
) -> SimulationResult:
    """Build and simulate one configuration; result is renamed to ``name``.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`),
    ``epoch_seconds``, the checkpoint arguments, and the progress hook
    are forwarded to :func:`~repro.sim.engine.simulate` unchanged; the
    configuration key doubles as the observability label so e.g.
    ``aod-16`` and ``aod-32`` metrics stay distinguishable.
    """
    policy, capacity = build_policy(name, ctx)
    trace = ctx.columnar_trace() if fast_path else ctx.object_trace()
    extra = {}
    if epoch_seconds is not None:
        extra["epoch_seconds"] = epoch_seconds
    result = simulate(
        trace,
        policy,
        capacity_blocks=capacity,
        days=ctx.days,
        track_minutes=track_minutes,
        fast_path=fast_path,
        fault_plan=fault_plan,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        checkpoint_context=checkpoint_context,
        label=name,
        progress_every=progress_every,
        progress_hook=progress_hook,
        **extra,
    )
    result.policy_name = name
    return result


def run_policy_suite(
    ctx: ExperimentContext,
    names: Sequence[str] = FIGURE5_POLICIES,
    track_minutes: bool = True,
    fast_path: bool = False,
    jobs: Optional[int] = 1,
    task_timeout: Optional[float] = None,
    fault_plan=None,
    epoch_seconds: Optional[float] = None,
    checkpoint_dir=None,
    checkpoint_every: Optional[int] = None,
    collect_metrics: Optional[bool] = None,
    on_task_done=None,
    progress_every: Optional[int] = None,
    progress_hook=None,
) -> "SuiteRun":
    """Simulate a set of configurations over the same trace.

    ``jobs`` fans the (independent) policy runs across worker processes
    sharing one serialized columnar trace: ``1`` (default) runs
    serially in-process, ``N > 1`` uses N workers, ``None`` uses all
    cores (affinity-aware).  Results are identical to a serial run in
    every mode.

    Both modes return a :class:`~repro.sim.parallel.SuiteRun`: a
    mapping of policy name to :class:`SimulationResult` for every run
    that completed, plus ``.failures`` (structured per-policy failure
    records) and ``.manifest`` (per-task engine/wall/retries/outcome).
    A failed policy never discards the completed ones; check
    ``suite.ok`` or ``suite.failures`` when robustness matters.
    ``task_timeout`` bounds each parallel task (seconds; one retry
    before a ``"timeout"`` failure record).

    ``fault_plan`` applies the same device-fault schedule to every run;
    ``checkpoint_dir`` makes each task write crash-consistent
    checkpoints to ``<dir>/<policy>.ckpt`` every ``checkpoint_every``
    requests (resume individual tasks with
    :func:`~repro.sim.engine.resume_simulation`).  Both are recorded
    per task in the run manifest.

    ``collect_metrics`` gathers per-task metrics snapshots into
    ``SuiteRun.metrics`` and a v3 manifest (``None`` follows the
    process-wide observability switch); ``on_task_done`` receives each
    finished task's :class:`~repro.sim.parallel.TaskRecord`.  The
    per-request ``progress_every`` / ``progress_hook`` pair only
    applies to serial (``jobs=1``) execution — hooks cannot cross the
    worker process boundary; parallel runs report per task via
    ``on_task_done``.
    """
    from repro.sim.parallel import run_suite_parallel

    return run_suite_parallel(
        ctx, names, track_minutes=track_minutes, fast_path=fast_path,
        jobs=jobs, task_timeout=task_timeout, fault_plan=fault_plan,
        epoch_seconds=epoch_seconds, checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every, collect_metrics=collect_metrics,
        on_task_done=on_task_done, progress_every=progress_every,
        progress_hook=progress_hook,
    )


def sievestore_d_with_threshold(
    ctx: ExperimentContext, threshold: int
) -> SimulationResult:
    """SieveStore-D at a non-default threshold (sensitivity sweeps)."""
    policy = SieveStoreD(
        SieveStoreDConfig(threshold=threshold, capacity_blocks=ctx.sieved_capacity)
    )
    result = simulate(
        ctx.object_trace(), policy, ctx.sieved_capacity, ctx.days, track_minutes=False
    )
    result.policy_name = f"sievestore-d(t={threshold})"
    return result


def sievestore_d_with_epoch(
    ctx: ExperimentContext, epoch_hours: float, threshold: int = 10
) -> SimulationResult:
    """SieveStore-D with a non-daily epoch (Section 5.1 epoch sweep).

    The access-count threshold is pro-rated to the epoch length so a
    shorter epoch does not just demand the daily count inside it (the
    paper's t = 10 is 'per day').
    """
    from repro.sim.engine import simulate as _simulate

    scaled_threshold = max(1, round(threshold * epoch_hours / 24.0))
    policy = SieveStoreD(
        SieveStoreDConfig(
            threshold=scaled_threshold, capacity_blocks=ctx.sieved_capacity
        )
    )
    result = _simulate(
        ctx.object_trace(),
        policy,
        ctx.sieved_capacity,
        ctx.days,
        track_minutes=False,
        epoch_seconds=epoch_hours * 3600.0,
    )
    result.policy_name = f"sievestore-d(epoch={epoch_hours}h,t={scaled_threshold})"
    return result


def sievestore_c_with_window(
    ctx: ExperimentContext,
    window_hours: float,
    subwindows: int = 4,
    t1: Optional[int] = None,
    t2: Optional[int] = None,
    single_tier: bool = False,
    imct_slots: Optional[int] = None,
) -> SimulationResult:
    """SieveStore-C with custom window/thresholds (sensitivity/ablation)."""
    config = SieveStoreCConfig(
        imct_slots=imct_slots if imct_slots is not None else ctx.imct_slots,
        t1=t1 if t1 is not None else 9,
        t2=t2 if t2 is not None else 4,
        window=WindowSpec(window_seconds=window_hours * 3600, subwindows=subwindows),
        single_tier_admission=single_tier,
    )
    policy = SieveStoreC(config)
    result = simulate(
        ctx.object_trace(), policy, ctx.sieved_capacity, ctx.days, track_minutes=False
    )
    label = f"sievestore-c(W={window_hours}h,t1={config.t1},t2={config.t2}"
    if single_tier:
        label += ",single-tier"
    result.policy_name = label + ")"
    return result
