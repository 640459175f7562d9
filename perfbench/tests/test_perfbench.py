"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.workloads import DEFAULT_SEED, SIZES, WORKLOADS, Unit, tail_percentile

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Every workload in well under a second.
TINY_SIZES = {name: {**sizes, "scale": 3e-6, "days": 2} for name, sizes in SIZES.items()}

#: A seed with no committed digest, so tiny runs check only that units repeat.
SEED = DEFAULT_SEED + 1


def _tiny(monkeypatch, out_dir):
    monkeypatch.setattr(workloads, "SIZES", TINY_SIZES)
    monkeypatch.setattr(run, "OUT_DIR", out_dir)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload once untraced and once traced, at tiny sizes."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _tiny(monkeypatch, tmp_path_factory.mktemp("perfbench"))
        return {
            (name, trace): run.run_workload(name, SEED, 0.01, trace)
            for name in run.WORKLOAD_NAMES
            for trace in (False, True)
        }


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, name):
    for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result, record = tiny_runs[(name, trace)]
        assert result["correct"], record["problems"]
        assert set(result["metrics"]) == {metric["name"] for metric in listed}
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert set(record["samples"]) == set(result["metrics"])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_object_engine_runs(tiny_runs):
    def runs(name):
        return tiny_runs[(name, True)][0]["metrics"]["sim.object_engine_runs"]["value"]

    assert runs("sim-durable") == 2
    assert runs("sim-fig5") == 0


def test_traced_digests_equal_untraced(tiny_runs):
    for name in run.WORKLOAD_NAMES:
        record = tiny_runs[(name, True)][1]
        assert record["traced_digest_matches"]
        assert record["digest"] == tiny_runs[(name, False)][1]["digest"]


class _Stub:
    name = "sim-fig5"
    seed = DEFAULT_SEED
    sizes = SIZES["sim-fig5"]


def test_gate_fails_on_perturbed_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    units = [Unit(digest={"ideal": "abc"}), Unit(digest={"ideal": "abc"})]
    good = {"sim-fig5": {"sizes": SIZES["sim-fig5"], "digest": {"ideal": "abc"}}}
    assert run.gate_digests(_Stub(), units, good) == []
    bad = {"sim-fig5": {"sizes": SIZES["sim-fig5"], "digest": {"ideal": "abd"}}}
    assert run.gate_digests(_Stub(), units, bad)
    # A unit that does not repeat the first fails even with no committed digest.
    units[1].digest = {"ideal": "abd"}
    assert run.gate_digests(_Stub(), units, None)


def test_gate_remembers_digest_per_sizes(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    stub = _Stub()
    stub.seed = SEED
    assert run.gate_digests(stub, [Unit(digest={"ideal": "abc"})], None) == []
    assert run.gate_digests(stub, [Unit(digest={"ideal": "abd"})], None)
    # Other sizes are another workload: no earlier digest to differ from.
    stub.sizes = TINY_SIZES["sim-fig5"]
    assert run.gate_digests(stub, [Unit(digest={"ideal": "abd"})], None) == []


def _corrupt_reads(monkeypatch):
    from repro.serve.appliance import ServingCache

    read = ServingCache.read

    def corrupted(self, address, time):
        value = read(self, address, time)
        return bytes([value[0] ^ 0xFF]) + value[1:]

    monkeypatch.setattr(ServingCache, "read", corrupted)


def test_gate_fails_on_corrupted_read_value(tmp_path, monkeypatch):
    _tiny(monkeypatch, tmp_path)
    _corrupt_reads(monkeypatch)
    result, record = run.run_workload("serve-sieve", SEED, 0.01, False)
    assert not result["correct"]
    assert any("bytes other than the backend's" in p for p in record["problems"])


def test_update_expected_refuses_a_failed_run(tmp_path, monkeypatch):
    _tiny(monkeypatch, tmp_path)
    _corrupt_reads(monkeypatch)
    monkeypatch.setattr(run, "EXPECTED_PATH", tmp_path / "expected.json")
    argv = ["--workload", "serve-sieve", "--seconds", "0.01", "--update-expected"]
    assert run.main(argv) == 1
    assert not (tmp_path / "expected.json").exists()
    monkeypatch.undo()
    _tiny(monkeypatch, tmp_path)
    monkeypatch.setattr(run, "EXPECTED_PATH", tmp_path / "expected.json")
    assert run.main(argv) == 0
    assert json.loads((tmp_path / "expected.json").read_text())["serve-sieve"]["sizes"] == (
        TINY_SIZES["serve-sieve"]
    )


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert tail_percentile(samples) == (0.99, 990.0, 10)
    fraction, value, beyond = tail_percentile(samples[:500])
    assert (fraction, value, beyond) == (0.95, 475.0, 25)
    assert tail_percentile(samples[:20]) == (0.5, 10.0, 10)
    with pytest.raises(ValueError):
        tail_percentile(samples[:19])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, *json.loads((tmp_path / "BENCHMARK.json").read_text())["command"][1:],
         "--workload", "sim-fig5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not Path(tmp_path / ".perfbench").exists()


def test_host_clock_scales_by_the_bracketing_probes(monkeypatch):
    from perfbench import hostclock

    probes = iter([0.02, 0.03, 0.05])
    monkeypatch.setattr(hostclock, "probe", lambda: next(probes))
    host = hostclock.HostClock()
    assert host.scale() == pytest.approx(hostclock.REFERENCE_S / 0.025)
    assert host.scale() == pytest.approx(hostclock.REFERENCE_S / 0.04)
    assert host.median_probe() == 0.03


def test_laps_leave_probes_out_and_scale_each_lap(monkeypatch):
    from perfbench import hostclock

    probes = iter([0.025, 0.05, 0.05])
    clock = iter([0.0, 0.1, 0.3, 0.35, 0.45, 0.5, 0.55])
    monkeypatch.setattr(hostclock, "probe", lambda: next(probes))
    monkeypatch.setattr(hostclock, "perf_counter", lambda: next(clock))
    laps = hostclock.Laps(hostclock.HostClock(), stamps=True)
    laps(1, 0)  # 0.1: inside the first lap
    laps(2, 0)  # 0.3: ends the first lap; the probe runs to 0.35
    laps(3, 0)  # 0.45
    # Lap scales: 0.025 / mean(0.025, 0.05) and 0.025 / mean(0.05, 0.05).
    assert laps.stop() == pytest.approx(0.3 * 2 / 3 + 0.15 * 0.5)
    assert laps.intervals() == pytest.approx([0.2 * 2 / 3, 0.1 * 0.5])
