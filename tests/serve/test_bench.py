"""The multi-client serve bench (repro.serve.bench)."""

import json

import numpy as np
import pytest

from repro.faults.plan import ErrorWindow, FaultPlan, OutageWindow
from repro.serve.bench import (
    BenchOptions,
    partition_by_address,
    run_serve_bench,
    run_sieve_comparison,
)
from repro.traces.columnar import ColumnarTrace


def flash_crowd_trace(n=1200, hot_addresses=24, seed=5):
    """Hot set hammered by everyone, cold tail touched once — the
    workload shape where selective admission pays."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, hot_addresses, size=n // 2)
    cold = np.arange(50_000, 50_000 + n - n // 2)
    addresses = np.concatenate([hot, cold])
    rng.shuffle(addresses)
    times = np.sort(rng.uniform(0.0, 600.0, size=n))
    return ColumnarTrace(
        issue_time=times,
        completion_time=times + 0.001,
        address=addresses,
        block_count=np.ones(n, dtype=np.int32),
        is_write=rng.random(n) < 0.3,
        aligned_4k=np.ones(n, dtype=bool),
    )


FAST = BenchOptions(miss_latency=0.0, payload_bytes=64, t1=2, t2=1)


class TestPartition:
    def test_covers_every_row_exactly_once(self):
        columns = flash_crowd_trace(n=400)
        parts = partition_by_address(columns, 4)
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(len(columns)))

    def test_same_address_always_same_client(self):
        columns = flash_crowd_trace(n=400)
        parts = partition_by_address(columns, 4)
        owner = {}
        for client, indices in enumerate(parts):
            for address in columns.address[indices].tolist():
                assert owner.setdefault(address, client) == client

    def test_single_client_gets_everything(self):
        columns = flash_crowd_trace(n=50)
        (only,) = partition_by_address(columns, 1)
        assert len(only) == len(columns)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError, match="clients"):
            partition_by_address(flash_crowd_trace(n=10), 0)


class TestSerialBench:
    def test_end_to_end_counts(self, tmp_path):
        columns = flash_crowd_trace(n=300)
        report = run_serve_bench(
            columns, tmp_path / "store", tmp_path / "shards",
            clients=2, options=FAST, parallel=False,
        )
        assert report.requests == len(columns)
        assert report.stats.requests == len(columns)
        assert report.stats.hits + report.stats.misses == len(columns)
        assert {r.executor for r in report.client_reports} == {"serial"}
        for op in ("read", "write"):
            summary = report.latency[op]
            assert summary is not None and summary.count > 0
            assert summary.median <= summary.p90 <= summary.p99 <= summary.max

    def test_manifest_records_every_client(self, tmp_path):
        columns = flash_crowd_trace(n=200)
        report = run_serve_bench(
            columns, tmp_path / "store", tmp_path / "shards",
            clients=3, options=FAST, parallel=False,
        )
        manifest = report.manifest()
        assert manifest["kind"] == "serve-bench"
        assert [c["client"] for c in manifest["clients"]] == [0, 1, 2]
        assert sum(c["requests"] for c in manifest["clients"]) == 200
        path = tmp_path / "manifest.json"
        report.save_manifest(path)
        assert json.loads(path.read_text()) == manifest

    def test_gate_admissions_match_store_allocations(self, tmp_path):
        columns = flash_crowd_trace(n=300)
        report = run_serve_bench(
            columns, tmp_path / "store", tmp_path / "shards",
            clients=2, options=FAST, parallel=False,
        )
        assert report.allocation_writes == sum(
            r.gate_admissions for r in report.client_reports
        )


class TestParallelBench:
    def test_four_clients_with_degraded_to_bypass_transition(self, tmp_path):
        """The acceptance scenario: 4 concurrent client processes, a
        fault plan that degrades then kills the device mid-replay, and
        stats/percentiles that survive the transition."""
        columns = flash_crowd_trace(n=800)
        plan = FaultPlan(
            errors=(ErrorWindow(200.0, 400.0, "read", probability=1.0),),
            outages=(OutageWindow(400.0,),),  # BYPASS until the end
        )
        options = BenchOptions(
            miss_latency=0.0, payload_bytes=64, t1=2, t2=1,
            fault_plan=plan.to_dict(),
        )
        report = run_serve_bench(
            columns, tmp_path / "store", tmp_path / "shards",
            clients=4, options=options, parallel=True,
        )
        assert report.clients == 4
        assert report.requests == len(columns)
        # Every client saw the same deterministic transitions.
        transitions = report.stats.health_transitions
        assert transitions.get("healthy->degraded") == 4
        assert transitions.get("degraded->bypass") == 4
        assert report.stats.bypassed > 0
        # Latency summaries cover the whole run, including bypass ops.
        total_ops = sum(
            summary.count
            for summary in report.latency.values()
            if summary is not None
        )
        assert total_ops == len(columns)
        assert report.latency["read"].p99 >= report.latency["read"].median

    def test_comparison_shows_strict_savings(self, tmp_path):
        out = run_sieve_comparison(
            flash_crowd_trace(n=600), tmp_path,
            clients=4, options=FAST, parallel=True,
        )
        sieved, unsieved = out["sieved"], out["unsieved"]
        assert sieved.allocation_writes < unsieved.allocation_writes
        assert out["allocation_writes_saved"] > 0
        assert 0 < out["allocation_write_ratio"] < 1
        # Both passes replayed the identical request stream.
        assert sieved.requests == unsieved.requests


class TestObservability:
    def test_metrics_merge_across_clients(self, tmp_path):
        from repro.obs import runtime

        columns = flash_crowd_trace(n=200)
        options = BenchOptions(
            miss_latency=0.0, payload_bytes=64, t1=2, t2=1,
            collect_metrics=True,
        )
        runtime.enable()
        try:
            report = run_serve_bench(
                columns, tmp_path / "store", tmp_path / "shards",
                clients=2, options=options, parallel=False,
            )
            registry = runtime.get_registry()
            ops = registry.counter(
                "serve_ops_total",
                "Serving-cache operations by outcome",
                ("op", "outcome"),
            )
            total = sum(value for _key, value in ops.samples())
            assert total == report.requests
        finally:
            runtime.disable()

    def test_collect_metrics_downgrades_when_obs_off(self, tmp_path):
        columns = flash_crowd_trace(n=100)
        options = BenchOptions(
            miss_latency=0.0, payload_bytes=64, collect_metrics=True
        )
        report = run_serve_bench(
            columns, tmp_path / "store", tmp_path / "shards",
            clients=1, options=options, parallel=False,
        )
        assert all(r.metrics is None for r in report.client_reports)


def per_client_counts(report):
    return {
        r.client: (r.stats.hits, r.stats.misses, r.stats.allocation_writes)
        for r in report.client_reports
    }


class TestIdempotentClients:
    def test_pool_crash_survivors_match_a_clean_serial_run(
        self, tmp_path, monkeypatch
    ):
        from repro.sim.parallel import FAULT_ENV_VAR

        columns = flash_crowd_trace(n=600)
        clean = run_serve_bench(
            columns, tmp_path / "clean-store", tmp_path / "clean-work",
            clients=3, options=FAST, parallel=False,
        )
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:client-1")
        with pytest.warns(RuntimeWarning, match="worker pool broke"):
            crashed = run_serve_bench(
                columns, tmp_path / "store", tmp_path / "work",
                clients=3, options=FAST, parallel=True,
            )
        assert not crashed.ok
        assert set(crashed.failures) == {"client-1"}
        expected = per_client_counts(clean)
        survivors = per_client_counts(crashed)
        assert set(survivors) == {0, 2}
        for client in (0, 2):
            assert survivors[client] == expected[client]
        rows = {row["client"]: row for row in crashed.manifest()["clients"]}
        assert rows[1]["executor"] == "serial-fallback"
        assert rows[1]["outcome"] == "failed"
        assert rows[1]["retries"] == 1
        assert "InjectedWorkerFault" in rows[1]["error"]
        assert rows[1]["allocation_writes"] is None
        assert rows[0]["outcome"] == rows[2]["outcome"] == "ok"

    def test_rerun_into_the_same_store_matches_the_first_run(self, tmp_path):
        columns = flash_crowd_trace(n=600)
        runs = [
            run_serve_bench(
                columns, tmp_path / "store", tmp_path / "work",
                clients=2, options=FAST, parallel=True,
            )
            for _ in range(2)
        ]
        first, second = runs
        assert first.allocation_writes > 0
        assert (second.stats.hits, second.stats.misses) == (
            first.stats.hits, first.stats.misses,
        )
        assert second.allocation_writes == first.allocation_writes
        assert per_client_counts(second) == per_client_counts(first)
        assert first.ok and second.ok
