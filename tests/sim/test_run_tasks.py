"""The one task executor (repro.sim.parallel.run_tasks).

Workers here are module-level functions over plain data so they pickle
into pool workers.  Faults ride ``SIEVESTORE_FAULT_INJECT`` exactly as
they do for the policy suite, shard replay and serve bench adapters.
"""

import os

import numpy as np
import pytest

from repro.sim.parallel import (
    FAULT_ENV_VAR,
    run_tasks,
    worker_store,
)
from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import segment_columnar

NAMES = ["a", "b", "c"]


def square_of_length(name):
    """Deterministic value per task name."""
    return len(name) ** 2 + ord(name[0])


def rows_in_store(name):
    """Reads the installed segment store, like every adapter's worker."""
    return len(worker_store())


def expected(names):
    return {name: square_of_length(name) for name in names}


class TestRetry:
    def test_one_shot_failure_retries_to_success(self, tmp_path, monkeypatch):
        marker = tmp_path / "flaky-marker"
        monkeypatch.setenv(FAULT_ENV_VAR, f"flaky:b:{marker}")
        run = run_tasks(NAMES, square_of_length, jobs=2)
        assert marker.exists()
        assert dict(run.values()) == expected(NAMES)
        records = {name: o.record for name, o in run.outcomes.items()}
        assert records["b"].outcome == "ok"
        assert records["b"].retries == 1
        assert records["b"].executor == "pool"
        assert records["a"].retries == 0
        assert not run.pool_broken

    def test_persistent_failure_is_an_outcome_not_an_exception(
        self, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV_VAR, "raise:c")
        run = run_tasks(NAMES, square_of_length, jobs=1)
        outcome = run.outcomes["c"]
        assert not outcome.ok
        assert outcome.record.outcome == "failed"
        assert outcome.record.retries == 1  # same budget in-process
        assert outcome.failure.error_type == "InjectedWorkerFault"
        assert run.failures() == {"c": outcome.failure}
        assert outcome.failure.retries == 1
        assert dict(run.values()) == expected(["a", "b"])


class TestTimeout:
    def test_hung_task_records_timeout_after_retry(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "hang:slow:3.0")
        run = run_tasks(["slow"], square_of_length, jobs=2, timeout=0.5)
        outcome = run.outcomes["slow"]
        assert outcome.record.outcome == "timeout"
        assert outcome.record.retries == 1
        assert outcome.record.executor == "pool"
        assert outcome.failure.error_type == "TimeoutError"
        assert outcome.record.engine is None


class TestBrokenPool:
    def test_serial_fallback_keeps_survivors(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:b")
        with pytest.warns(RuntimeWarning, match="worker pool broke"):
            run = run_tasks(NAMES, square_of_length, jobs=2)
        assert run.pool_broken
        assert dict(run.values()) == expected(["a", "c"])
        crashed = run.outcomes["b"].record
        assert crashed.outcome == "failed"
        assert crashed.executor == "serial-fallback"
        assert crashed.retries == 1  # the pool attempt plus one in-process
        for name in ("a", "c"):
            assert run.outcomes[name].record.executor in (
                "pool", "serial-fallback",
            )


class TestOnDone:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_arrive_in_request_order(self, jobs):
        seen = []
        names = ["d", "bb", "a", "ccc"]
        run = run_tasks(names, square_of_length, jobs=jobs, on_done=seen.append)
        assert [record.policy for record in seen] == names
        assert list(run.outcomes) == names
        assert [o.record for o in run.outcomes.values()] == seen

    def test_record_fields_and_dedupe(self):
        run = run_tasks(
            ["a", "a", "b"], square_of_length, jobs=1,
            record_fields=lambda name: {"fault_plan": f"plan-{name}"},
        )
        assert list(run.outcomes) == ["a", "b"]
        assert [row["fault_plan"] for row in run.task_rows()] == [
            "plan-a", "plan-b",
        ]


class TestInProcess:
    def test_jobs_one_runs_in_this_process(self):
        run = run_tasks(NAMES, square_of_length, jobs=1)
        for outcome in run.outcomes.values():
            assert outcome.record.executor == "serial"
            assert outcome.record.worker_pid == os.getpid()
        assert dict(run.values()) == expected(NAMES)
        assert not run.pool_broken

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_workers_read_the_store_by_path(self, tmp_path, jobs):
        n = 50
        times = np.arange(n, dtype=np.float64)
        columns = ColumnarTrace(
            issue_time=times,
            completion_time=times + 0.001,
            address=np.arange(n, dtype=np.int64),
            block_count=np.ones(n, dtype=np.int32),
            is_write=np.zeros(n, dtype=bool),
            aligned_4k=np.ones(n, dtype=bool),
        )
        segment_columnar(columns, tmp_path / "store")
        run = run_tasks(
            NAMES, rows_in_store, jobs=jobs, store_dir=tmp_path / "store"
        )
        assert set(run.values().values()) == {n}
        # The in-process install is scoped to the run.
        with pytest.raises(RuntimeError, match="no segment store"):
            worker_store()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_tasks(NAMES, square_of_length, jobs=0)


class TestSuiteManifestTimeout:
    def test_in_process_suite_records_no_timeout(self, tiny_context):
        from repro.sim.parallel import run_suite_parallel

        run = run_suite_parallel(tiny_context, ["ideal"], jobs=1, task_timeout=5)
        assert run.ok
        assert run.manifest["task_timeout"] is None

    def test_pool_suite_records_its_timeout(self, tiny_context):
        from repro.sim.parallel import run_suite_parallel

        run = run_suite_parallel(tiny_context, ["ideal"], jobs=2, task_timeout=60)
        assert run.ok
        assert run.manifest["task_timeout"] == 60
