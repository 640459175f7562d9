"""Run the repository benchmark: one workload, or all of them.

Usage, from the root of the repository::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload sim-fig5 --seed 3 --seconds 35
    python3 perfbench/run.py --workload serve-sieve --trace 1 # per-layer run

``--trace 0`` (the default) measures the end-to-end metrics with
tracing off.  ``--trace 1`` spends half the time on untraced units, then
runs one traced unit and reports the per-layer metrics plus the tracing
overhead.  End-to-end times are host seconds scaled by a reference
probe run between timed pieces (``perfbench/hostclock.py``), so that
the shared host's changing speed does not move them.  Either way the
outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and
the line before it is the run record (revision,
machine, sizes, sample counts).  A failed check exits 1; a missing
program or bad arguments exit 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Work files, span dumps, run records and the cross-run digest memory.
OUT_DIR = ROOT / ".perfbench"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOAD_NAMES = ("sim-fig5", "sim-durable", "serve-sieve")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


# -- run record -------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """Hash of every file under ``src/repro``: the program measured."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_fingerprint() -> dict:
    import sqlite3

    import numpy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite3": sqlite3.sqlite_version,
    }


def run_record(workload, metrics: Dict[str, dict], extra: dict) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "revision": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "machine": machine_fingerprint(),
        **workload.describe(),
        **extra,
        "samples": {
            name: {key: value for key, value in entry.items() if key not in ("value", "unit")}
            for name, entry in metrics.items()
        },
    }


# -- correctness gate -------------------------------------------------------
def load_expected() -> dict:
    if EXPECTED_PATH.is_file():
        return json.loads(EXPECTED_PATH.read_text())
    return {}


def _memory_path(workload) -> Path:
    """Where a seed's digest is remembered: keyed on the program's
    source, the benchmark's workload code and the input sizes."""
    key = hashlib.sha256(source_digest().encode())
    key.update((BENCH_DIR / "workloads.py").read_bytes())
    key.update(json.dumps(workload.sizes, sort_keys=True).encode())
    return OUT_DIR / "digests" / f"{workload.name}-seed{workload.seed}-{key.hexdigest()[:16]}.json"


def gate_digests(workload, units, expected: Optional[dict]) -> List[str]:
    """Problems with the units' outputs (an empty list passes).

    Every unit must repeat the first unit's digest.  At the default seed
    the digest must equal the one committed in ``expected`` for these
    sizes (``None`` skips that comparison, when re-committing it); for
    any seed it must equal the one an earlier run of the same source,
    workload code and sizes recorded.
    """
    from perfbench.workloads import DEFAULT_SEED

    problems: List[str] = []
    for unit in units:
        problems.extend(unit.errors)
    first = units[0].digest
    for index, unit in enumerate(units[1:], start=1):
        if unit.digest != first:
            problems.append(f"unit {index} digest differs from unit 0")
    if expected is not None and workload.seed == DEFAULT_SEED:
        committed = expected.get(workload.name)
        if committed is None or committed.get("sizes") != workload.sizes:
            problems.append(f"no committed digest for {workload.name} at these sizes")
        elif committed["digest"] != first:
            problems.append("digest differs from the committed digest for the default seed")
    memory = _memory_path(workload)
    if memory.is_file():
        if json.loads(memory.read_text()) != first:
            problems.append("digest differs from an earlier run with this seed, source and sizes")
    elif not problems:
        memory.parent.mkdir(parents=True, exist_ok=True)
        memory.write_text(json.dumps(first, sort_keys=True))
    return problems


# -- metrics ----------------------------------------------------------------
def _entry(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload, units, setup_times: List[float]) -> Dict[str, dict]:
    names = list(units[0].runs)
    median_s = {
        name: statistics.median(u.runs[name].seconds for u in units if name in u.runs)
        for name in names
    }
    busy = sum(median_s.values())
    blocks = sum(units[0].runs[name].blocks for name in names)
    requests = sum(units[0].runs[name].requests for name in names)
    metrics = {
        "setup_s": _entry(statistics.median(setup_times), "s", len(setup_times)),
        "sim_blocks_per_s": _entry(blocks / busy, "1/s", len(units)),
        "ops_per_s": _entry(requests / busy, "1/s", len(units)),
    }
    for op in ("read", "write"):
        summaries = [u.latency[op] for u in units if op in u.latency]
        samples = sum(s["samples"] for s in summaries)
        p50 = statistics.median(s["p50"] for s in summaries)
        metrics[f"{op}_p50_us"] = _entry(p50 * 1e6, "us", samples)
        tail = statistics.median(s["tail"] for s in summaries)
        metrics[f"{op}_p99_us"] = _entry(tail * 1e6, "us", samples)
        # The percentile each unit reported and its samples beyond it.
        metrics[f"{op}_p99_us"]["percentile"] = min(s["percentile"] for s in summaries)
        metrics[f"{op}_p99_us"]["beyond"] = min(s["beyond"] for s in summaries)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics.update(
        peak_rss_mb=_entry(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
        ok_frac=_entry((attempted - failed) / attempted, "frac", attempted),
        capture_frac=_entry(units[0].capture_frac, "frac", len(units)),
        hit_frac=_entry(units[0].hit_frac, "frac", len(units)),
        alloc_writes=_entry(units[0].alloc_writes, "count", len(units)),
    )
    return metrics


def per_layer(tracer, traced, untraced_walls: List[float]) -> Dict[str, dict]:
    import numpy as np

    from perfbench.workloads import (
        DURABLE_POLICIES,
        FIGURE5_POLICIES,
        TAIL_MIN_BEYOND,
        tail_percentile,
    )

    spans = tracer.summary()
    counts = tracer.counts

    def self_s(name: str) -> dict:
        found = spans.get(name)
        return _entry(found["self_s"] if found else 0.0, "s", found["calls"] if found else 0)

    def calls(name: str) -> dict:
        found = spans.get(name)
        return _entry(found["calls"] if found else 0, "count", 1)

    def p99_us(name: str) -> dict:
        samples = np.sort(tracer.durations(name))
        if len(samples) <= TAIL_MIN_BEYOND:
            return _entry(0.0, "us", len(samples))
        return _entry(tail_percentile(samples)[1] * 1e6, "us", len(samples))

    metrics: Dict[str, dict] = {
        "traces.generate_s": self_s("traces.generate"),
        "traces.daily_counts_s": self_s("traces.daily_counts"),
        "traces.chunks_read_s": self_s("traces.chunks_read"),
        "traces.rows_read": _entry(counts["traces.rows_read"], "count", 1),
    }
    labels = list(FIGURE5_POLICIES) + [f"durable-{name}" for name in DURABLE_POLICIES]
    for label in labels:
        found = spans.get(f"sim.policy.{label}")
        metrics[f"sim.policy_s.{label}"] = _entry(
            found["inclusive_s"] if found else 0.0, "s", found["calls"] if found else 0
        )
    metrics["sim.object_engine_runs"] = _entry(
        traced.layer.get("sim.object_engine_runs", 0), "count", 1
    )
    metrics["sim.checkpoint_s"] = self_s("sim.checkpoint")
    metrics["sim.checkpoint_calls"] = calls("sim.checkpoint")
    metrics["sim.checkpoint_bytes"] = _entry(counts["sim.checkpoint_bytes"], "bytes", 1)
    for span in (
        "core.kernel_precompute",
        "core.kernel_sync",
        "core.epoch_boundary",
        "core.mct_record_miss",
        "core.gate_wants",
        "cache.record_ssd_io",
        "faults.injector",
        "serve.store_get",
        "serve.store_put",
        "serve.store_contains",
    ):
        metrics[f"{span}_s"] = self_s(span)
        metrics[f"{span}_calls"] = calls(span)
    wants = metrics["core.gate_wants_calls"]["value"]
    metrics["core.gate_admit_frac"] = _entry(
        counts["core.gate_admits"] / wants if wants else 0.0, "frac", wants
    )
    metrics["serve.store_get_p99_us"] = p99_us("serve.store_get")
    metrics["serve.store_put_p99_us"] = p99_us("serve.store_put")
    metrics["serve.backend_reads"] = _entry(traced.layer.get("serve.backend_reads", 0), "count", 1)
    metrics["serve.backend_writes"] = _entry(
        traced.layer.get("serve.backend_writes", 0), "count", 1
    )
    metrics["serve.store_bytes_per_user_byte"] = _entry(
        traced.layer.get("serve.store_bytes_per_user_byte", 0.0), "ratio", 1
    )
    baseline = statistics.median(untraced_walls)
    metrics["trace.overhead_frac"] = _entry(
        (traced.wall - baseline) / baseline, "frac", len(untraced_walls)
    )
    return metrics


# -- one workload -----------------------------------------------------------
def _units_for(workload, seconds: float) -> list:
    """Units for ``seconds``, to the nearest whole unit (at least one)."""
    units = []
    started = perf_counter()
    while True:
        units.append(workload.unit())
        elapsed = perf_counter() - started
        if elapsed + 0.5 * elapsed / len(units) >= seconds:
            return units


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, committed: bool = True
) -> Tuple[dict, dict]:
    """Measure one workload; returns ``(result, record)``.

    ``result`` is the final JSON line's object; ``record`` is the run
    record with every metric's sample count.  ``committed=False`` leaves
    out the comparison with ``expected.json`` (to re-commit it).
    """
    from perfbench.hostclock import REFERENCE_S, HostClock
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    work_dir = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work_dir)
    try:
        host = HostClock()
        setup_times = [workload.setup() * host.scale() for _ in range(SETUPS)]
        extra: dict = {"traced": trace}
        if not trace:
            units = _units_for(workload, seconds)
            metrics = end_to_end(workload, units, setup_times)
        else:
            units = _units_for(workload, seconds / 2)
            tracer = Tracer()
            workload.setup(tracer)
            traced = workload.unit(tracer)
            metrics = per_layer(tracer, traced, [u.wall for u in units])
            spans_path = OUT_DIR / "spans" / f"{name}-seed{seed}.npz"
            tracer.save(spans_path)
            extra["spans"] = os.path.relpath(spans_path, ROOT)
            extra["traced_digest_matches"] = traced.digest == units[0].digest
            units.append(traced)
        problems = gate_digests(workload, units, load_expected() if committed else None)
        if trace and not extra["traced_digest_matches"]:
            problems.append("traced run's digest differs from the untraced run's")
        extra["units"] = len(units)
        extra["probe_reference_s"] = REFERENCE_S
        extra["probe_median_s"] = statistics.median(
            [host.median_probe()] + [u.probe_s for u in units]
        )
        extra["problems"] = problems
        extra["digest"] = units[0].digest
        record = run_record(workload, metrics, extra)
    finally:
        workload.close()
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in metrics.items()
        },
    }
    return result, record


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, entry in result["metrics"].items():
        print(f"  {key:<40} {entry['value']:>16.6g} {entry['unit']}")


def _write_expected(name: str, seed: int, record: dict) -> None:
    expected = load_expected()
    expected[name] = {"seed": seed, "sizes": record["sizes"], "digest": record["digest"]}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--update-expected",
        action="store_true",
        help="commit this run's digest as the default seed's expected output",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["SIEVESTORE_TRACE_CACHE"] = "off"
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import DEFAULT_SEED

    if args.update_expected and (args.workload == "all" or args.seed != DEFAULT_SEED):
        parser.error("--update-expected takes one workload at the default seed")
    if args.workload == "all":
        return _run_all(args)
    result, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        committed=not args.update_expected,
    )
    if args.update_expected and result["correct"]:
        _write_expected(args.workload, args.seed, record)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n"
    )
    _print_table(args.workload, result)
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
