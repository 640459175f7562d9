"""Command-line interface."""

import pytest

from repro.cli import main


TINY = ["--scale", "4e-6", "--days", "3"]


@pytest.fixture(autouse=True)
def isolated_trace_cache(tmp_path_factory, monkeypatch):
    """Keep the CLI's trace cache out of the working tree during tests."""
    cache = tmp_path_factory.getbasetemp() / "cli-trace-cache"
    monkeypatch.setenv("SIEVESTORE_TRACE_CACHE", str(cache))


def stable_lines(out: str) -> str:
    """Drop wall-clock timing lines, which legitimately vary run to run."""
    return "\n".join(
        line for line in out.splitlines() if not line.startswith("simulated in")
    )


class TestTable2Command:
    def test_prints_paper_numbers(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "aod" in out and "wmna" in out and "isa" in out
        assert "0.738" in out  # 73.75% SSD writes for AOD (3 d.p.)
        assert "0.575" in out

    def test_custom_parameters(self, capsys):
        assert main(["table2", "--hit-rate", "0.5", "--read-fraction", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "hit rate 50%" in out


class TestSimulateCommand:
    def test_runs_sievestore_c(self, capsys):
        assert main(["simulate", "--policy", "sievestore-c", *TINY]) == 0
        out = capsys.readouterr().out
        assert "sievestore-c" in out
        assert "allocation-writes" in out
        assert "all" in out

    def test_runs_unsieved(self, capsys):
        assert main(["simulate", "--policy", "aod-16", *TINY]) == 0
        assert "aod-16" in capsys.readouterr().out

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "belady"])

    def test_deterministic_across_runs(self, capsys):
        main(["simulate", *TINY, "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", *TINY, "--seed", "5"])
        second = capsys.readouterr().out
        assert stable_lines(first) == stable_lines(second)

    def test_seed_changes_output(self, capsys):
        main(["simulate", *TINY, "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", *TINY, "--seed", "6"])
        second = capsys.readouterr().out
        assert stable_lines(first) != stable_lines(second)

    def test_multiple_policies_one_trace(self, capsys):
        assert main([
            "simulate", *TINY, "--policy", "aod-16",
            "--policy", "sievestore-d",
        ]) == 0
        out = capsys.readouterr().out
        assert "aod-16 over" in out
        assert "sievestore-d over" in out

    def test_fast_path_matches_reference(self, capsys):
        main(["simulate", *TINY, "--policy", "aod-16"])
        slow = capsys.readouterr().out
        main(["simulate", *TINY, "--policy", "aod-16", "--fast"])
        fast = capsys.readouterr().out
        assert stable_lines(fast) == stable_lines(slow)

    def test_jobs_match_serial(self, capsys):
        args = ["simulate", *TINY, "--policy", "aod-16", "--policy", "ideal"]
        main(args)
        serial = capsys.readouterr().out
        main([*args, "--jobs", "2", "--fast"])
        parallel = capsys.readouterr().out
        # Parallel runs append a per-policy outcome table after the
        # reports; the reports themselves must match the serial run.
        reports, _, table = parallel.partition("Suite outcomes")
        assert stable_lines(reports).rstrip() == stable_lines(serial).rstrip()
        assert "executor" in table
        assert table.count(" ok ") == 2

    def test_no_trace_cache_flag(self, capsys):
        assert main([
            "simulate", *TINY, "--policy", "aod-16", "--no-trace-cache"
        ]) == 0
        assert "aod-16" in capsys.readouterr().out


class TestInputValidation:
    """Bad arguments exit 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize("value", ["0", "-3", "nan-ish"])
    def test_rejects_bad_task_timeout(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--task-timeout", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--task-timeout" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rejects_nonpositive_epoch_seconds(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--epoch-seconds", value])
        assert exc.value.code == 2
        assert "--epoch-seconds" in capsys.readouterr().err

    def test_rejects_nonpositive_checkpoint_cadence(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--checkpoint-every", "0"])
        assert exc.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_rejects_missing_resume_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.ckpt"
        assert main(["simulate", "--resume", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err

    def test_rejects_missing_fault_plan(self, tmp_path, capsys):
        assert main([
            "simulate", *TINY, "--fault-plan", str(tmp_path / "absent.json")
        ]) == 2
        assert "fault plan" in capsys.readouterr().err

    def test_checkpoint_requires_single_policy(self, tmp_path, capsys):
        assert main([
            "simulate", *TINY, "--checkpoint", str(tmp_path / "c.ckpt"),
            "--policy", "aod-16", "--policy", "ideal",
        ]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_every_requires_checkpoint(self, capsys):
        assert main([
            "simulate", *TINY, "--checkpoint-every", "500",
        ]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint-every requires --checkpoint" in err

    @pytest.mark.parametrize("flag", ["--metrics-out", "--events-out"])
    def test_artifact_path_into_missing_directory(self, flag, tmp_path,
                                                  capsys):
        bad = tmp_path / "no-such-dir" / "out.prom"
        assert main(["simulate", *TINY, flag, str(bad)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "does not exist" in err

    def test_artifact_path_that_is_a_directory(self, tmp_path, capsys):
        assert main([
            "simulate", *TINY, "--metrics-out", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "--metrics-out" in err and "directory, not a file" in err

    def test_artifact_path_into_unwritable_directory(self, tmp_path, capsys):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores directory write permissions")
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o555)
        assert main([
            "simulate", *TINY, "--metrics-out", str(locked / "m.prom"),
        ]) == 2
        assert "not writable" in capsys.readouterr().err


class TestFaultAndCheckpointFlows:
    def test_fault_plan_reports_device_health(self, tmp_path, capsys):
        from repro.faults import FaultPlan, OutageWindow

        plan_path = tmp_path / "plan.json"
        FaultPlan(outages=(OutageWindow(86400.0, 2 * 86400.0),)).save_json(
            plan_path
        )
        assert main([
            "simulate", *TINY, "--policy", "aod-16",
            "--fault-plan", str(plan_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "device health:" in out
        assert "bypass 86,400s" in out

    def test_checkpoint_then_resume_matches_uninterrupted(self, tmp_path,
                                                          capsys):
        base_args = ["simulate", *TINY, "--policy", "sievestore-d"]
        assert main(base_args) == 0
        baseline = capsys.readouterr().out
        ckpt = tmp_path / "run.ckpt"
        assert main([
            *base_args, "--checkpoint", str(ckpt), "--checkpoint-every", "500",
        ]) == 0
        capsys.readouterr()
        assert ckpt.exists()
        # Resume from the (mid-trace) last periodic checkpoint: the
        # full-run report must match the uninterrupted one exactly.
        assert main(["simulate", "--resume", str(ckpt)]) == 0
        resumed = capsys.readouterr().out
        assert stable_lines(resumed) == stable_lines(baseline)


class TestObservabilityOutputs:
    def test_metrics_out_writes_parseable_prometheus(self, tmp_path, capsys):
        from repro.obs import runtime
        from repro.obs.export import parse_prometheus

        out = tmp_path / "metrics.prom"
        assert main([
            "simulate", *TINY, "--policy", "sievestore-c",
            "--metrics-out", str(out),
        ]) == 0
        assert "metrics written to" in capsys.readouterr().out
        parsed = parse_prometheus(out.read_text())
        assert parsed["sim_blocks_total"]["type"] == "counter"
        assert any(
            name == "sieve_admissions_total"
            for name in parsed
        )
        # The CLI turns the switch off again after the run.
        assert not runtime.enabled()

    def test_metrics_out_json_flavour(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main([
            "simulate", *TINY, "--metrics-out", str(out),
        ]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["sim_requests_total"]["kind"] == "counter"

    def test_events_out_brackets_each_run(self, tmp_path, capsys):
        from repro.obs.events import read_events

        out = tmp_path / "events.jsonl"
        assert main([
            "simulate", *TINY, "--policy", "aod-16", "--policy", "ideal",
            "--events-out", str(out),
        ]) == 0
        capsys.readouterr()
        names = [e["event"] for e in read_events(out)]
        assert names.count("run_start") == 2
        assert names.count("run_end") == 2

    def test_progress_heartbeat_goes_to_stderr(self, capsys):
        assert main([
            "simulate", *TINY, "--policy", "aod-16", "--progress", "0.0001",
        ]) == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        assert "blocks/sec" in captured.err
        assert "aod-16: ok" in captured.err
        # The report itself stays on stdout, unpolluted.
        assert "[progress]" not in captured.out

    def test_progress_without_metrics_leaves_observability_off(self, capsys):
        from repro.obs import runtime

        assert main([
            "simulate", *TINY, "--policy", "aod-16", "--progress", "60",
        ]) == 0
        capsys.readouterr()
        assert not runtime.enabled()

    def test_output_identical_with_and_without_metrics(self, tmp_path,
                                                       capsys):
        base = ["simulate", *TINY, "--policy", "sievestore-c", "--seed", "5"]
        assert main(base) == 0
        baseline = capsys.readouterr().out
        out = tmp_path / "metrics.prom"
        assert main([*base, "--metrics-out", str(out)]) == 0
        observed = capsys.readouterr().out
        observed = observed.replace(f"metrics written to {out}\n", "")
        assert stable_lines(observed) == stable_lines(baseline)

    def test_trace_cache_env_pointing_at_file_warns_not_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.traces.store import _reset_non_directory_warnings

        stray = tmp_path / "stray-file"
        stray.write_text("oops")
        monkeypatch.setenv("SIEVESTORE_TRACE_CACHE", str(stray))
        _reset_non_directory_warnings()
        with pytest.warns(RuntimeWarning, match="non-directory"):
            assert main(["simulate", *TINY, "--policy", "aod-16"]) == 0
        assert "aod-16" in capsys.readouterr().out


class TestSkewCommand:
    def test_prints_o1_statistics(self, capsys):
        assert main(["skew", *TINY]) == 0
        out = capsys.readouterr().out
        assert "top-1% share" in out
        assert "single-access" in out


class TestDrivesCommand:
    def test_prints_coverage(self, capsys):
        assert main(["drives", *TINY, "--window-minutes", "60"]) == 0
        out = capsys.readouterr().out
        assert "drives @99.9% coverage" in out
        assert "Intel X25-E" in out


SERVE_TINY = [
    "serve-bench", "--scale", "4e-6", "--days", "2",
    "--clients", "2", "--serial", "--miss-latency", "0",
    "--t1", "2", "--t2", "1",
]


class TestServeBenchCommand:
    def test_reports_percentiles_and_savings(self, capsys):
        assert main(SERVE_TINY) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "median" in out and "max" in out
        assert "allocation writes: sieved=" in out
        assert "baseline=" in out

    def test_json_report_has_percentiles(self, tmp_path, capsys):
        import json

        path = tmp_path / "serve.json"
        assert main([*SERVE_TINY, "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["allocation_writes_saved"] > 0
        read = payload["sieved"]["latency"]["read"]
        assert set(read) >= {"median", "p90", "p99", "max", "count"}
        assert (
            payload["sieved"]["allocation_writes"]
            < payload["baseline"]["allocation_writes"]
        )

    def test_manifest_lists_clients(self, tmp_path, capsys):
        import json

        path = tmp_path / "manifest.json"
        assert main([*SERVE_TINY, "--manifest", str(path)]) == 0
        manifest = json.loads(path.read_text())
        assert manifest["kind"] == "serve-bench-comparison"
        assert [c["client"] for c in manifest["sieved"]["clients"]] == [0, 1]

    def test_failed_client_reports_no_savings(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.sim.parallel import FAULT_ENV_VAR

        monkeypatch.setenv(FAULT_ENV_VAR, "crash:client-1")
        path = tmp_path / "serve.json"
        assert main([*SERVE_TINY, "--json", str(path)]) == 1
        captured = capsys.readouterr()
        assert "allocation writes:" not in captured.out
        assert "FAILED [sieve]" in captured.err
        payload = json.loads(path.read_text())
        assert payload["allocation_writes_saved"] is None
        assert payload["allocation_write_ratio"] is None
        assert payload["sieved"]["failed_clients"] == ["client-1"]
        assert payload["baseline"]["failed_clients"] == ["client-1"]

    def test_no_baseline_skips_the_comparison(self, capsys):
        assert main([*SERVE_TINY, "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "baseline=" not in out
        assert "allocation writes:" in out

    def test_unsieved_gate_requires_no_baseline(self, capsys):
        assert main([*SERVE_TINY, "--gate", "unsieved"]) == 2
        assert "--no-baseline" in capsys.readouterr().err
        assert main([*SERVE_TINY, "--gate", "unsieved", "--no-baseline"]) == 0

    def test_bad_artifact_directory_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "out.json"
        assert main([*SERVE_TINY, "--json", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_negative_miss_latency_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--miss-latency", "-1"])

    def test_fault_plan_transition_survives(self, tmp_path, capsys):
        import json

        from repro.faults.plan import ErrorWindow, FaultPlan, OutageWindow

        # The tiny synthetic trace's activity spans roughly
        # [61000, 173000); the windows must overlap it to fire.
        plan_path = tmp_path / "plan.json"
        FaultPlan(
            errors=(ErrorWindow(65_000.0, 80_000.0, "read", probability=1.0),),
            outages=(OutageWindow(80_000.0, 120_000.0),),
        ).save_json(plan_path)
        out_path = tmp_path / "serve.json"
        assert main(
            [*SERVE_TINY, "--fault-plan", str(plan_path),
             "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        transitions = payload["sieved"]["stats"]["health_transitions"]
        assert transitions.get("degraded->bypass") == 2  # one per client
        assert payload["sieved"]["stats"]["bypassed"] > 0
        assert payload["sieved"]["latency"]["read"]["p99"] is not None

    def test_unreadable_fault_plan_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent-plan.json"
        assert main([*SERVE_TINY, "--fault-plan", str(missing)]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_metrics_out_exports_serve_counters(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main([*SERVE_TINY, "--metrics-out", str(path)]) == 0
        metrics = json.loads(path.read_text())
        assert "serve_ops_total" in metrics
        assert "serve_allocation_writes_total" in metrics

    def test_store_dir_is_kept(self, tmp_path, capsys):
        store_dir = tmp_path / "serve-run"
        assert main([*SERVE_TINY, "--store-dir", str(store_dir)]) == 0
        assert (store_dir / "store-sieved" / "store.json").exists()
        assert (store_dir / "store-unsieved" / "store.json").exists()


class TestSummarizeCommand:
    def test_prints_inventory(self, capsys):
        assert main(["summarize", *TINY]) == 0
        out = capsys.readouterr().out
        assert "read fraction" in out
        assert "request sizes" in out


class TestValidateCommand:
    def test_synthetic_trace_validates(self, capsys):
        assert main(["validate", *TINY]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_reports_band_columns(self, capsys):
        main(["validate", *TINY])
        out = capsys.readouterr().out
        assert "accepted band" in out
        assert "O1" in out and "O2" in out


class TestJsonOutput:
    def test_simulate_writes_json(self, tmp_path, capsys):
        from repro.sim.serialize import load_result

        target = tmp_path / "run.json"
        assert main([
            "simulate", *TINY, "--policy", "wmna-16", "--json", str(target)
        ]) == 0
        restored = load_result(target)
        assert restored.policy_name == "wmna-16"
        assert restored.stats.total.accesses > 0

    def test_multi_policy_json_gets_suffixes(self, tmp_path, capsys):
        from repro.sim.serialize import load_result

        target = tmp_path / "run.json"
        assert main([
            "simulate", *TINY, "--policy", "aod-16",
            "--policy", "wmna-16", "--json", str(target),
        ]) == 0
        for name in ("aod-16", "wmna-16"):
            restored = load_result(tmp_path / f"run-{name}.json")
            assert restored.policy_name == name


class TestMsrReplay:
    def test_simulate_from_csv(self, tmp_path, capsys):
        from repro.traces import (
            EnsembleTraceGenerator,
            write_msr_csv,
        )
        from repro.traces.synthetic import SyntheticTraceConfig

        trace = EnsembleTraceGenerator(
            SyntheticTraceConfig(scale=4e-6, days=2)
        ).generate()
        csv = tmp_path / "t.csv"
        write_msr_csv(trace, csv)
        assert main([
            "simulate", "--msr-csv", str(csv), "--days", "2",
            "--policy", "aod-16",
        ]) == 0
        assert "aod-16" in capsys.readouterr().out
