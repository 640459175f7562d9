"""The three benchmark workloads: inputs from a seed, units of work, checks.

A workload is set up once from its seed (the program receives only the
generated inputs) and then runs *units*: one unit is a fixed amount of
work whose outputs are identical every time it runs, so a run repeats
units until its time is up and checks each unit against the first.

* ``sim-fig5``: all nine Figure 5 policies over one in-RAM columnar
  trace, each through ``run_policy(..., fast_path=True)``.
* ``sim-durable``: sievestore-c and aod-16 through ``simulate()``,
  streamed from an on-disk segment store, under a fault plan and with
  crash-consistent checkpoints (the object engine runs these today).
* ``serve-sieve``: one in-process closed-loop client replaying the trace
  through a ``ServingCache`` with the sieve gate and 4 KiB values.

Every workload replays the synthetic ensemble trace of one fixed trace
seed, with each volume's block addresses moved by an offset drawn from
the workload seed (:func:`relabel_addresses`).  Traces drawn from
different trace seeds at these scales differ too much to compare runs:
over seeds 1-5, sievestore-c's capture ranged 0.08-0.22 on sim-durable
and serve-sieve's write p50 21-51 us.  Relabelled traces keep the
ensemble's shape, so every seed is the same workload, while the seed
still changes every hash the program computes (IMCT slots, store
shards, dict layout), which random sieves draw, which faulted
operations fail, and the bytes served.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.admission import build_admission_gate, gate_allocation_writes
from repro.faults.plan import ErrorWindow, FaultPlan, LatencyWindow, OutageWindow
from repro.serve.appliance import ServingCache
from repro.serve.backend import EnsembleBackend
from repro.serve.percentiles import nearest_rank
from repro.serve.store import ShardedByteStore
from repro.sim.engine import simulate
from repro.sim.experiment import (
    FIGURE5_POLICIES,
    ExperimentContext,
    build_policy,
    context_for_trace,
    run_policy,
)
from repro.sim.serialize import stats_to_dict
from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import segment_columnar
from repro.traces.synthetic import SyntheticTraceConfig, generate_columnar_trace
from repro.util.hashing import mix64
from repro.util.intervals import SECONDS_PER_DAY

from perfbench import tracer as tracing
from perfbench.hostclock import HostClock, Laps

#: The seed whose outputs are committed in ``expected.json``.
DEFAULT_SEED = 1

#: Input sizes per workload.  Chosen so one unit takes a few seconds on
#: a 2-core machine and a run holds several units.
SIZES: Dict[str, Dict[str, object]] = {
    "sim-fig5": {"scale": 3e-5, "days": 8},
    "sim-durable": {
        "scale": 1e-5,
        "days": 8,
        "rows_per_segment": 8192,
        "chunk_rows": 4096,
        "checkpoint_every": 4000,
    },
    "serve-sieve": {"scale": 5e-5, "days": 8, "payload_bytes": 4096},
}

#: Serve ops timed between two host probes (about a quarter second).
CHUNK_OPS = 8192

#: Requests between two calls of a timed policy run's progress hook,
#: which reads the clock and probes the host once a lap is up.  The
#: engine's per-request progress check cost 1.6-4.8% of a sim-fig5 pass
#: and did not show above the noise on sim-durable; without laps, sim-fig5's
#: throughput spread 0.096 over ten runs, with them 0.016-0.062.
TICK_EVERY = 1024

DURABLE_POLICIES = ("sievestore-c", "aod-16")

#: Packed addresses keep the block offset in their low 40 bits.
VOLUME_SHIFT = 40


def relabel_addresses(columns: ColumnarTrace, seed: int) -> ColumnarTrace:
    """The trace with every volume's addresses shifted by a seeded offset.

    The offset is a multiple of 8 blocks below 2**33, so 4 KiB alignment,
    request contiguity and the packed server/volume bits are kept.
    """
    volumes = columns.address >> VOLUME_SHIFT
    keys = np.unique(volumes)
    shifts = np.array(
        [(mix64(mix64(seed) ^ int(key)) & ((1 << 30) - 1)) << 3 for key in keys.tolist()],
        dtype=np.int64,
    )
    address = columns.address + shifts[np.searchsorted(keys, volumes)]
    return dataclasses.replace(columns, address=address)


def durable_fault_plan(days: int, seed: int) -> FaultPlan:
    """Read and write error windows, a slow window and an outage.

    Placed at fixed fractions of the trace so tiny runs hit them too.
    """
    span = float(days) * SECONDS_PER_DAY
    return FaultPlan(
        errors=(
            ErrorWindow(0.15 * span, 0.19 * span, "read", 0.3),
            ErrorWindow(0.40 * span, 0.43 * span, "write", 0.5),
        ),
        latency=(LatencyWindow(0.56 * span, 0.59 * span, 3.0),),
        outages=(OutageWindow(0.76 * span, 0.79 * span),),
        seed=seed,
    )


@dataclass
class RunTiming:
    """One named piece of a unit: a policy run or a serve replay."""

    seconds: float
    blocks: int
    requests: int


@dataclass
class Unit:
    """Everything one unit of work produced.

    Every time in it is host seconds scaled by :class:`HostClock`.
    """

    wall: float = 0.0
    runs: Dict[str, RunTiming] = field(default_factory=dict)
    #: per op kind: median and tail of the per-op (serve) or
    #: per-simulated-request (sim) host seconds; see :func:`latency_summary`.
    latency: Dict[str, dict] = field(default_factory=dict)
    #: median seconds of the unit's host probes (unscaled).
    probe_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: what must repeat exactly: hashes (sim) or counts (serve).
    digest: Dict[str, object] = field(default_factory=dict)
    capture_frac: float = 0.0
    hit_frac: float = 0.0
    alloc_writes: int = 0
    #: layer counts read off the program's own state.
    layer: Dict[str, float] = field(default_factory=dict)


#: Samples a tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(sorted_samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(fraction, value, beyond)`` for the highest percentile up to the
    99th that leaves at least :data:`TAIL_MIN_BEYOND` samples beyond it.

    Nearest rank: the percentile ``f`` of ``n`` samples is the sample of
    rank ``ceil(f * n)``, and ``n - rank`` samples lie beyond it.
    """
    n = len(sorted_samples)
    for fraction in (0.99, 0.95, 0.9, 0.75, 0.5):
        rank = -(-round(fraction * 1000) * n // 1000)
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return fraction, nearest_rank(sorted_samples, fraction), beyond
    raise ValueError(f"{n} samples are too few for a tail percentile")


def latency_summary(samples: np.ndarray) -> dict:
    """Median and tail (seconds) of one run's samples of one op kind.

    Summarised per run so a measurement's memory does not grow with its
    length; a measurement reports the median of its units' figures.
    """
    samples = np.sort(samples)
    fraction, tail, beyond = tail_percentile(samples)
    return {
        "p50": nearest_rank(samples, 0.5),
        "tail": tail,
        "percentile": fraction,
        "beyond": beyond,
        "samples": len(samples),
    }


def mean_summary(summaries: List[dict]) -> dict:
    """Per-policy latency summaries averaged into one.

    The policies' per-request costs differ several-fold, so a percentile
    of their pooled samples lands wherever the mixture's tail happens to
    be steep and jumps between units; each run's own percentiles are
    steady, and their mean is the figure of the average policy run.
    """
    return {
        "p50": sum(s["p50"] for s in summaries) / len(summaries),
        "tail": sum(s["tail"] for s in summaries) / len(summaries),
        "percentile": min(s["percentile"] for s in summaries),
        "beyond": min(s["beyond"] for s in summaries),
        "samples": sum(s["samples"] for s in summaries),
    }


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sieve_telemetry(policy) -> Dict[str, int]:
    """The sieve's own tallies (empty for policies without a sieve)."""
    out: Dict[str, int] = {}
    for attr in ("admissions", "imct_rejections", "promotions", "mct_rejections"):
        value = getattr(policy, attr, None)
        if value is not None:
            out[attr] = int(value)
    imct = getattr(policy, "imct", None)
    if imct is not None:
        out["imct_recorded_misses"] = int(imct.recorded_misses)
    mct = getattr(policy, "mct", None)
    if mct is not None:
        out["mct_entries"] = len(mct)
    return out


def result_digest(result) -> str:
    """Hash of per-day and per-minute stats plus sieve telemetry."""
    return _digest(
        {"stats": stats_to_dict(result.stats), "sieve": sieve_telemetry(result.policy)}
    )


def _span(tracer: Optional[tracing.Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Common shape: ``setup`` from the seed, then repeatable ``unit``s."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.sizes = dict(SIZES[self.name])
        self.scale = float(self.sizes["scale"])
        self.days = int(self.sizes["days"])
        self.requests = 0
        self.blocks = 0
        self.setup_seconds = 0.0

    @contextlib.contextmanager
    def _program(self, tracer: Optional[tracing.Tracer], name: str):
        """Time one set-up step of the program into ``setup_seconds``."""
        started = perf_counter()
        with _span(tracer, name):
            yield
        self.setup_seconds += perf_counter() - started

    def trace(self, tracer: Optional[tracing.Tracer]) -> ColumnarTrace:
        """The fixed-seed ensemble trace, relabelled by the workload seed.

        Only the synthesis is set-up time; the relabelling is the
        benchmark's own work.
        """
        config = SyntheticTraceConfig(scale=self.scale, days=self.days)
        with self._program(tracer, "traces.generate"):
            columns = generate_columnar_trace(config)
        columns = relabel_addresses(columns, self.seed)
        self.requests = len(columns)
        self.blocks = int(columns.block_count.sum())
        return columns

    def setup(self, tracer: Optional[tracing.Tracer] = None) -> float:
        """Build the program's inputs from the seed; returns the seconds
        the program spent on it (see :meth:`_program`)."""
        self.setup_seconds = 0.0
        self._setup(tracer)
        return self.setup_seconds

    def _setup(self, tracer: Optional[tracing.Tracer]) -> None:
        raise NotImplementedError

    def unit(self, tracer: Optional[tracing.Tracer] = None) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "sizes": self.sizes,
            "requests": self.requests,
            "blocks": self.blocks,
        }


class _SimWorkload(Workload):
    """Shared policy-run loop of the two simulator workloads."""

    policies: tuple = ()

    def _simulate(self, name: str, **progress):
        raise NotImplementedError

    def unit(self, tracer: Optional[tracing.Tracer] = None) -> Unit:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                tracing.install_sim(tracer, stack)
            return self._run_policies(tracer)

    def _run_policies(self, tracer: Optional[tracing.Tracer]) -> Unit:
        """Each policy once, timed in laps through a progress hook that
        fires every :data:`TICK_EVERY` requests; untraced, once more with
        a per-request hook for the latency figures.  The traced run times
        each policy run as one lap, so its spans hold no probes."""
        unit = Unit()
        host = HostClock()
        hits = accesses = 0
        reads: List[dict] = []
        writes: List[dict] = []
        for name in self.policies:
            unit.attempted += 1
            try:
                laps = Laps(host)
                ticks = {"progress_every": TICK_EVERY, "progress_hook": laps}
                with _span(tracer, f"sim.policy.{self.run_label(name)}"):
                    result = self._simulate(name, **(ticks if tracer is None else {}))
                seconds = laps.stop()
                self._check(name, result)
                digest = result_digest(result)
                if tracer is None:
                    read, write = self._latency(name, digest, host)
                    reads.append(read)
                    writes.append(write)
            except Exception as exc:  # a failed run is counted, not fatal
                unit.failed += 1
                unit.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            unit.wall += seconds
            total = result.stats.total
            unit.runs[name] = RunTiming(seconds, total.accesses, self.requests)
            unit.digest[name] = digest
            hits += total.hits
            accesses += total.accesses
            if name == "sievestore-c":
                unit.capture_frac = total.hit_ratio
                unit.alloc_writes = total.allocation_writes
            if result.engine == "object":
                unit.layer["sim.object_engine_runs"] = (
                    unit.layer.get("sim.object_engine_runs", 0) + 1
                )
        unit.hit_frac = hits / accesses if accesses else 0.0
        unit.probe_s = host.median_probe()
        if reads:
            unit.latency = {"read": mean_summary(reads), "write": mean_summary(writes)}
        return unit

    def _latency(self, name: str, digest: str, host: HostClock) -> Tuple[dict, dict]:
        """Read and write summaries of the host time per simulated request.

        Taken from a second run of the policy whose progress hook reads
        the clock after every request, so the hook's own cost is in these
        figures and not in the timed run.  The same hook probes the host
        once a lap is up; :meth:`Laps.intervals` leaves the probes out.
        The second run must produce the first run's outputs.
        """
        laps = Laps(host, stamps=True)
        result = self._simulate(name, progress_every=1, progress_hook=laps)
        laps.stop()
        if len(laps.stamps) != self.requests:
            raise AssertionError(
                f"{name} reported progress {len(laps.stamps)} times for {self.requests} requests"
            )
        if result_digest(result) != digest:
            raise AssertionError(f"{name}: the hooked run's outputs differ from the timed run's")
        per_request = laps.intervals()
        is_write = self.is_write[1:]
        return latency_summary(per_request[~is_write]), latency_summary(per_request[is_write])

    def run_label(self, name: str) -> str:
        return name

    def _check(self, name: str, result) -> None:
        result.stats.check_consistency()
        if result.stats.total.accesses != self.blocks:
            raise AssertionError(
                f"{name} simulated {result.stats.total.accesses} block accesses, "
                f"the trace has {self.blocks}"
            )


class SimFig5(_SimWorkload):
    name = "sim-fig5"
    policies = FIGURE5_POLICIES

    def _setup(self, tracer: Optional[tracing.Tracer]) -> None:
        columns = self.trace(tracer)
        self.is_write = columns.is_write.astype(bool)
        with self._program(tracer, "traces.daily_counts"):
            self.ctx = context_for_trace(columns, self.days, self.scale, seed=self.seed)

    def _simulate(self, name: str, **progress):
        return run_policy(name, self.ctx, fast_path=True, **progress)


class SimDurable(_SimWorkload):
    name = "sim-durable"
    policies = DURABLE_POLICIES

    def _setup(self, tracer: Optional[tracing.Tracer]) -> None:
        segments = self.work_dir / "segments"
        shutil.rmtree(segments, ignore_errors=True)
        columns = self.trace(tracer)
        self.is_write = columns.is_write.astype(bool)
        with self._program(tracer, "traces.generate"):
            self.store = segment_columnar(
                columns, segments, rows_per_segment=int(self.sizes["rows_per_segment"])
            )
        with self._program(tracer, "traces.daily_counts"):
            daily = self.store.daily_block_counts(self.days)
        self.ctx = ExperimentContext(
            trace=None, days=self.days, scale=self.scale, daily_counts=daily, seed=self.seed
        )
        self.plan = durable_fault_plan(self.days, self.seed)

    def run_label(self, name: str) -> str:
        return f"durable-{name}"

    def _simulate(self, name: str, **progress):
        policy, capacity = build_policy(name, self.ctx)
        return simulate(
            self.store,
            policy,
            capacity,
            self.days,
            fault_plan=self.plan,
            checkpoint_path=self.work_dir / f"{name}.ckpt",
            checkpoint_every=int(self.sizes["checkpoint_every"]),
            chunk_rows=int(self.sizes["chunk_rows"]),
            label=name,
            **progress,
        )


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class ServeSieve(Workload):
    """One closed-loop client driving a fresh ``ServingCache`` per unit."""

    name = "serve-sieve"

    def _setup(self, tracer: Optional[tracing.Tracer]) -> None:
        self.close()
        columns = self.trace(tracer)
        self.ops = list(
            zip(
                columns.issue_time.tolist(),
                columns.address.tolist(),
                columns.is_write.tolist(),
                columns.block_count.tolist(),
            )
        )
        self._units = 0
        with self._program(tracer, "serve.store_open"):
            self.cache = self._open_cache()

    def _open_cache(self) -> ServingCache:
        directory = self.work_dir / f"store-{self._units}"
        shutil.rmtree(directory, ignore_errors=True)
        payload = int(self.sizes["payload_bytes"])
        return ServingCache(
            ShardedByteStore(directory),
            build_admission_gate("sieve"),
            EnsembleBackend(miss_latency=0.0, payload_bytes=payload, seed=self.seed),
        )

    def unit(self, tracer: Optional[tracing.Tracer] = None) -> Unit:
        cache = self.cache
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    tracing.install_serve(tracer, stack, cache)
                unit = self._replay(cache, tracer)
            if tracer is not None:
                payload_bytes = len(cache.store) * int(self.sizes["payload_bytes"])
                unit.layer["serve.store_bytes_per_user_byte"] = (
                    _dir_bytes(cache.store.directory) / payload_bytes if payload_bytes else 0.0
                )
        finally:
            cache.close()
            shutil.rmtree(cache.store.directory, ignore_errors=True)
            self._units += 1
            self.cache = self._open_cache()
        return unit

    def _replay(self, cache: ServingCache, tracer: Optional[tracing.Tracer]) -> Unit:
        """The trace in chunks of :data:`CHUNK_OPS` ops, each chunk's
        times scaled by the host probes that bracket it."""
        unit = Unit()
        payload = cache.backend.payload
        stats = cache.stats
        #: scaled op seconds, one array per chunk.
        reads: List[np.ndarray] = []
        writes: List[np.ndarray] = []
        busy = 0.0
        hit_blocks = 0
        mismatches = 0
        clock = perf_counter
        begin = tracer.begin if tracer is not None else None
        host = HostClock()
        for first in range(0, len(self.ops), CHUNK_OPS):
            read_lat = array("d")
            write_lat = array("d")
            chunk_busy = 0.0
            chunk_started = clock()
            for issued, address, is_write, blocks in self.ops[first : first + CHUNK_OPS]:
                hits_before = stats.hits
                unit.attempted += 1
                try:
                    if is_write:
                        span = begin("serve.write") if begin else -1
                        op_started = clock()
                        value = cache.write(address, issued)
                        elapsed = clock() - op_started
                        write_lat.append(elapsed)
                    else:
                        span = begin("serve.read") if begin else -1
                        op_started = clock()
                        value = cache.read(address, issued)
                        elapsed = clock() - op_started
                        read_lat.append(elapsed)
                except Exception as exc:  # a raised op is counted, not fatal
                    unit.failed += 1
                    if len(unit.errors) < 5:
                        unit.errors.append(f"op at {address}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if begin and span >= 0:
                        tracer.finish(span)
                chunk_busy += elapsed
                # Checked outside the timed span.
                if value != payload(address):
                    mismatches += 1
                if stats.hits != hits_before:
                    hit_blocks += blocks
            chunk_wall = clock() - chunk_started
            scale = host.scale()
            busy += chunk_busy * scale
            unit.wall += chunk_wall * scale
            reads.append(np.frombuffer(read_lat, dtype=np.float64) * scale)
            writes.append(np.frombuffer(write_lat, dtype=np.float64) * scale)
        unit.probe_s = host.median_probe()
        if mismatches:
            unit.errors.append(f"{mismatches} ops returned bytes other than the backend's")
        counts = stats.to_dict()
        if stats.hits + stats.misses + stats.bypassed != stats.requests:
            unit.errors.append(f"serve stats do not add up: {counts}")
        counts["backend_reads"] = cache.backend.reads
        counts["backend_writes"] = cache.backend.writes
        counts["gate_admissions"] = gate_allocation_writes(cache.gate)
        unit.digest = counts
        unit.runs[self.name] = RunTiming(busy, self.blocks, self.requests)
        unit.latency = {
            "read": latency_summary(np.concatenate(reads)),
            "write": latency_summary(np.concatenate(writes)),
        }
        unit.hit_frac = stats.hits / stats.requests if stats.requests else 0.0
        unit.capture_frac = hit_blocks / self.blocks if self.blocks else 0.0
        unit.alloc_writes = stats.allocation_writes
        unit.layer["serve.backend_reads"] = cache.backend.reads
        unit.layer["serve.backend_writes"] = cache.backend.writes
        return unit

    def close(self) -> None:
        cache = getattr(self, "cache", None)
        if cache is not None:
            cache.close()
            self.cache = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (SimFig5, SimDurable, ServeSieve)}
