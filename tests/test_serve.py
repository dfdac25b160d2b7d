"""Core job-server tests: jobs, scheduling, dedupe, deadlines, recovery.

The robustness contracts pinned here (breaker/degradation in
``test_serve_breaker.py``, fault storms in ``test_serve_chaos.py``):

* every admitted job reaches a terminal state with a classified
  ``Serve*`` error on non-DONE paths;
* identical points dedupe — across the store (warm), across tenants
  in flight (single-flight), and across server restarts — with cold
  execution counts audited through side-effect marker files;
* deadlines expire jobs instead of hanging them;
* the journal replays uncommitted jobs exactly once after a crash.

Servers run with ``executor_mode="thread"`` (or ``"inline"``) so the
suite works in sandboxes that cannot fork process pools; the executor
backends themselves are covered by ``TestPointExecutor``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.perf.sweep import PointExecutor
from repro.serve import (
    AdmissionController,
    AgingQueue,
    JobRecord,
    JobRequest,
    JobState,
    ServeConfig,
    ServeServer,
    register_workload,
    resolve_workload,
    workload_names,
)
from repro.store import ResultStore
from repro.util.errors import (
    ConfigError,
    ServeDeadlineError,
    ServeError,
    ServeQuotaError,
    ServeRetryExhaustedError,
    SweepPoolError,
    TransientFaultError,
    is_retryable,
)


def run(server: ServeServer) -> None:
    asyncio.run(server.run_until_idle())


def make_server(tmp_path, **overrides) -> ServeServer:
    defaults = dict(
        executor_mode="thread",
        workers=2,
        default_deadline_s=10.0,
        attempt_timeout_s=2.0,
    )
    defaults.update(overrides)
    return ServeServer(tmp_path / "root", ServeConfig(**defaults))


def marker_lines(path) -> int:
    if not path.exists():
        return 0
    return sum(1 for _ in path.read_text().splitlines())


# ---------------------------------------------------------------------------
# requests / records / registry
# ---------------------------------------------------------------------------


class TestJobRequest:
    def test_round_trips_through_json_including_floats(self):
        req = JobRequest(
            tenant="t", workload="noop",
            point={"x": 1.5, "name": "a", "flag": True},
            priority=3, deadline_s=2.5,
        )
        back = JobRequest.from_json(req.to_json())
        assert back == req
        assert back.point["x"] == 1.5  # plain JSON, no canonical float tags

    def test_job_id_assigned_when_empty(self):
        req = JobRequest(tenant="t", workload="noop", point={})
        assert len(req.job_id) == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            JobRequest(tenant="", workload="noop", point={})
        with pytest.raises(ConfigError):
            JobRequest(tenant="t", workload="", point={})
        with pytest.raises(ConfigError):
            JobRequest(tenant="t", workload="noop", point={}, deadline_s=0)
        with pytest.raises(ConfigError):  # non-canonical point is loud
            JobRequest(tenant="t", workload="noop", point={"f": open})


class TestJobRecord:
    def test_finish_is_once_and_terminal_only(self):
        record = JobRecord(request=JobRequest(tenant="t", workload="noop",
                                              point={}))
        with pytest.raises(ServeError):
            record.finish(JobState.RUNNING)
        record.finish(JobState.DONE, cache="warm", result=1)
        assert record.latency_s >= 0.0
        with pytest.raises(ServeError):
            record.finish(JobState.FAILED)

    def test_status_is_json_safe(self):
        record = JobRecord(request=JobRequest(tenant="t", workload="noop",
                                              point={}))
        record.finish(JobState.FAILED, error=ServeDeadlineError("late"))
        payload = json.loads(json.dumps(record.status()))
        assert payload["state"] == "failed"
        assert payload["error"] == "ServeDeadlineError"


class TestWorkloadRegistry:
    def test_builtins_registered(self):
        assert {"noop", "sleep", "count", "flaky", "crc_epochs"} <= set(
            workload_names()
        )

    def test_unknown_workload_is_serve_error(self):
        with pytest.raises(ServeError, match="unknown workload"):
            resolve_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_workload("noop", lambda: None)
        # Re-registering the *same* function is an idempotent no-op.
        register_workload("noop", resolve_workload("noop"))


class TestErrorTaxonomy:
    def test_retryable_classification(self):
        assert is_retryable(ServeQuotaError("full"))
        assert is_retryable(SweepPoolError("pool died"))
        assert is_retryable(TransientFaultError("blip"))
        assert not is_retryable(ServeDeadlineError("late"))
        assert not is_retryable(ServeRetryExhaustedError("gave up"))
        assert not is_retryable(ValueError("unrelated"))


# ---------------------------------------------------------------------------
# scheduling primitives
# ---------------------------------------------------------------------------


class TestAgingQueue:
    def test_priority_order_with_fifo_ties(self):
        clock = lambda: 0.0  # noqa: E731 - frozen clock: pure priority
        q = AgingQueue(aging_rate=1.0, clock=clock)
        for name, prio in (("lo", 0), ("hi", 5), ("lo2", 0)):
            q.push(JobRecord(request=JobRequest(
                tenant=name, workload="noop", point={}, priority=prio)))
        popped = [q.pop().request.tenant for _ in range(3)]
        assert popped == ["hi", "lo", "lo2"]

    def test_aging_eventually_outbids_priority(self):
        now = [0.0]
        q = AgingQueue(aging_rate=1.0, clock=lambda: now[0])
        q.push(JobRecord(request=JobRequest(
            tenant="old-lo", workload="noop", point={}, priority=0)))
        now[0] = 10.0  # the low-priority job has aged 10s
        q.push(JobRecord(request=JobRequest(
            tenant="new-hi", workload="noop", point={}, priority=5)))
        assert q.pop().request.tenant == "old-lo"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            AgingQueue().pop()


class TestAdmissionController:
    def test_tenant_quota_enforced(self):
        adm = AdmissionController(tenant_quota=2, max_queue=100)
        adm.admit("a")
        adm.admit("a")
        with pytest.raises(ServeQuotaError):
            adm.admit("a")
        adm.admit("b")  # other tenants unaffected
        adm.release("a")
        adm.admit("a")  # slot freed

    def test_global_cap_and_draining(self):
        adm = AdmissionController(tenant_quota=10, max_queue=2)
        adm.admit("a")
        adm.admit("b")
        with pytest.raises(ServeQuotaError):
            adm.admit("c")
        adm.start_draining()
        adm.release("a")
        with pytest.raises(ServeError, match="draining"):
            adm.admit("a")

    def test_release_without_admit_is_loud(self):
        with pytest.raises(ConfigError):
            AdmissionController(tenant_quota=1, max_queue=1).release("ghost")


# ---------------------------------------------------------------------------
# the point executor (serve's dispatch backend)
# ---------------------------------------------------------------------------


class TestPointExecutor:
    def test_inline_mode_resolves_at_submit(self):
        ex = PointExecutor(mode="inline")
        future = ex.submit(resolve_workload("noop"), {"x": 1})
        assert future.result(0)["point"] == {"x": 1}
        assert ex.health().mode == "inline"

    def test_thread_mode_runs_and_reports_health(self):
        ex = PointExecutor(max_workers=2, mode="thread")
        try:
            out = ex.run(resolve_workload("noop"), {"x": 2}, timeout=5)
            assert out["ok"]
            health = ex.health()
            assert health.mode == "thread"
            assert health.submitted == 1 and health.alive
        finally:
            ex.shutdown()

    def test_timeout_reclaims_and_raises(self):
        ex = PointExecutor(max_workers=1, mode="thread")
        try:
            with pytest.raises(TimeoutError):
                ex.run(resolve_workload("sleep"), {"duration_s": 5.0},
                       timeout=0.05)
            health = ex.health()
            # A running thread can't be preempted: abandoned + restart.
            assert health.abandoned == 1 and health.restarts == 1
        finally:
            ex.shutdown()

    def test_shutdown_closes(self):
        ex = PointExecutor(mode="thread")
        ex.shutdown()
        with pytest.raises(SweepPoolError):
            ex.run(resolve_workload("noop"), {})
        assert not ex.health().alive

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            PointExecutor(mode="quantum")


# ---------------------------------------------------------------------------
# end-to-end serving
# ---------------------------------------------------------------------------


class TestServeBasics:
    def test_cold_then_warm_executes_once(self, tmp_path):
        marker = tmp_path / "marks"
        server = make_server(tmp_path)
        point = {"marker": str(marker), "tag": "p"}
        first = server.submit(JobRequest(tenant="a", workload="count",
                                         point=point))
        run(server)
        second = server.submit(JobRequest(tenant="b", workload="count",
                                          point=point))
        run(server)
        server.close()
        assert first.state is JobState.DONE and first.cache == "cold"
        assert second.state is JobState.DONE and second.cache == "warm"
        assert marker_lines(marker) == 1  # one execution, two answers

    def test_inflight_coalescing_single_execution(self, tmp_path):
        marker = tmp_path / "marks"
        server = make_server(tmp_path, max_concurrency=4)
        point = {"marker": str(marker), "tag": "q", "pad": 1}
        records = [
            server.submit(JobRequest(tenant=f"t{i}", workload="count",
                                     point=point))
            for i in range(4)
        ]
        run(server)
        server.close()
        assert all(r.state is JobState.DONE for r in records)
        caches = sorted(r.cache for r in records)
        assert caches.count("cold") == 1
        assert marker_lines(marker) == 1
        assert sum(server.cold_executions.values()) == 1

    def test_deadline_expires_with_classified_error(self, tmp_path):
        server = make_server(tmp_path, attempt_timeout_s=5.0)
        record = server.submit(JobRequest(
            tenant="a", workload="sleep",
            point={"duration_s": 2.0}, deadline_s=0.1,
        ))
        run(server)
        server.close()
        assert record.state is JobState.EXPIRED
        assert record.error == "ServeDeadlineError"

    def test_flaky_workload_retries_to_success(self, tmp_path):
        marker = tmp_path / "flaky"
        server = make_server(tmp_path, max_attempts=3)
        record = server.submit(JobRequest(
            tenant="a", workload="flaky",
            point={"marker": str(marker), "fail_times": 2},
        ))
        run(server)
        server.close()
        assert record.state is JobState.DONE
        assert record.attempts == 3
        assert record.result["calls"] == 3

    def test_retry_exhaustion_is_classified(self, tmp_path):
        marker = tmp_path / "flaky"
        server = make_server(tmp_path, max_attempts=2)
        record = server.submit(JobRequest(
            tenant="a", workload="flaky",
            point={"marker": str(marker), "fail_times": 99},
        ))
        run(server)
        server.close()
        assert record.state is JobState.FAILED
        assert record.error == "ServeRetryExhaustedError"
        assert record.attempts == 2

    def test_rejection_records_terminal_job_and_raises(self, tmp_path):
        server = make_server(tmp_path, tenant_quota=1)
        server.submit(JobRequest(tenant="a", workload="noop", point={"i": 0}))
        with pytest.raises(ServeQuotaError):
            server.submit(JobRequest(tenant="a", workload="noop",
                                     point={"i": 1}))
        rejected = [r for r in server.jobs.values()
                    if r.state is JobState.REJECTED]
        assert len(rejected) == 1
        assert rejected[0].error == "ServeQuotaError"
        run(server)  # the admitted job still completes
        server.close()
        assert sum(1 for r in server.jobs.values()
                   if r.state is JobState.DONE) == 1

    def test_unknown_workload_fails_at_submit(self, tmp_path):
        server = make_server(tmp_path)
        request = JobRequest(tenant="a", workload="nope", point={})
        with pytest.raises(ServeError, match="unknown workload"):
            server.submit(request)
        # A refused job is still an *answered* job: the record must exist
        # as terminal REJECTED so a spooled client can resolve its id.
        record = server.jobs[request.job_id]
        assert record.state is JobState.REJECTED
        assert record.error == "ServeError"
        assert "unknown workload" in record.detail
        server.close()

    def test_every_terminal_job_journal_committed(self, tmp_path):
        server = make_server(tmp_path)
        for i in range(3):
            server.submit(JobRequest(tenant="a", workload="noop",
                                     point={"i": i}))
        run(server)
        server.close()
        replay = server.journal.replay()
        assert not replay.pending
        assert len(replay.completed) == 3
        assert all(e.state == "done" for e in replay.completed.values())


def wl_mesh_transpose_header2(*, processors: int, row_samples: int):
    """Two header flits at t_p = 1: outside the compiled engine's domain."""
    from repro.analysis.transpose_model import measure_mesh_transpose

    return measure_mesh_transpose(
        processors, row_samples,
        reorder_cycles=1, header_flits=2, engine="compiled",
    )


class TestDeterministicPointErrors:
    """A bad *point* is not a bad *pool*: fail fast, spare the breaker."""

    _BAD_WORKLOAD = "mesh_transpose_header2"
    _BAD = {"processors": 16, "row_samples": 4}
    _GOOD = {"processors": 16, "row_samples": 4,
             "reorder_cycles": 4, "engine": "compiled"}

    @pytest.fixture(autouse=True)
    def _bad_workload(self):
        # Thread-mode servers resolve workloads from this process's registry.
        register_workload(self._BAD_WORKLOAD, wl_mesh_transpose_header2)

    def test_config_error_fails_in_one_attempt(self, tmp_path):
        server = make_server(tmp_path, max_attempts=5)
        record = server.submit(JobRequest(
            tenant="a", workload=self._BAD_WORKLOAD, point=dict(self._BAD),
        ))
        run(server)
        server.close()
        assert record.state is JobState.FAILED
        assert record.attempts == 1  # retrying a ConfigError is futile
        assert "EngineUnsupportedError" in (record.detail or "")
        assert "memory_reorder_cycles" in (record.detail or "")

    def test_config_error_does_not_trip_breaker_or_poison_tenants(
        self, tmp_path
    ):
        from repro.serve.breaker import BreakerState

        # breaker_failures=1: a single breaker-counted failure would
        # open it — the regression this guards against is a malformed
        # submission degrading cold execution for every healthy tenant.
        server = make_server(tmp_path, max_attempts=5, breaker_failures=1)
        bad = server.submit(JobRequest(
            tenant="a", workload=self._BAD_WORKLOAD, point=dict(self._BAD),
        ))
        good = server.submit(JobRequest(
            tenant="b", workload="mesh_transpose", point=dict(self._GOOD),
        ))
        run(server)
        server.close()
        assert bad.state is JobState.FAILED
        assert good.state is JobState.DONE
        assert good.result["mesh_cycles"] > 0
        assert server.breaker.state is BreakerState.CLOSED

    def test_engine_unsupported_error_survives_pickling(self):
        # Process-pool workers ship exceptions back by pickle; before
        # __reduce__ was added, unpickling this error raised TypeError
        # inside the pool machinery and broke every in-flight future.
        import pickle

        from repro.util.errors import EngineUnsupportedError

        err = EngineUnsupportedError("compiled", "reorder_cycles",
                                     "needs reorder_cycles >= 2")
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is EngineUnsupportedError
        assert (clone.engine, clone.feature) == ("compiled", "reorder_cycles")
        assert str(clone) == str(err)


class TestCrashRecovery:
    def test_uncommitted_jobs_replay_and_execute_exactly_once(self, tmp_path):
        marker = tmp_path / "marks"
        crashed = make_server(tmp_path)
        for i in range(3):
            crashed.submit(JobRequest(
                tenant="a", workload="count",
                point={"marker": str(marker), "tag": f"j{i}"},
                deadline_s=60.0,
            ))
        # Crash before the scheduler ever ran: journal has submits only.
        crashed.close()
        restarted = make_server(tmp_path)
        replay = restarted.recover()
        assert len(replay.pending) == 3
        run(restarted)
        restarted.close()
        done = [r for r in restarted.jobs.values()
                if r.state is JobState.DONE]
        assert len(done) == 3
        assert marker_lines(marker) == 3  # each point once, never twice
        assert not restarted.journal.replay().pending

    def test_completed_work_not_reexecuted_after_crash(self, tmp_path):
        marker = tmp_path / "marks"
        first = make_server(tmp_path)
        point = {"marker": str(marker), "tag": "done-before-crash"}
        first.submit(JobRequest(tenant="a", workload="count", point=point,
                                deadline_s=60.0))
        run(first)
        first.close()
        assert marker_lines(marker) == 1
        restarted = make_server(tmp_path)
        assert not restarted.recover().pending
        again = restarted.submit(JobRequest(tenant="b", workload="count",
                                            point=point))
        run(restarted)
        restarted.close()
        assert again.cache == "warm"
        assert marker_lines(marker) == 1

    def test_recovered_job_keeps_original_deadline(self, tmp_path):
        crashed = make_server(tmp_path)
        record = crashed.submit(JobRequest(
            tenant="a", workload="noop", point={}, deadline_s=0.05,
        ))
        crashed.close()
        import time

        time.sleep(0.1)  # the budget elapses across the "crash"
        restarted = make_server(tmp_path)
        replay = restarted.recover()
        assert replay.pending[0].deadline_wall == record.deadline_at
        run(restarted)
        restarted.close()
        resumed = restarted.jobs[record.request.job_id]
        assert resumed.state is JobState.EXPIRED  # crashes extend nobody

    def test_torn_store_object_reexecuted_exactly_once(self, tmp_path):
        marker = tmp_path / "marks"
        server = make_server(tmp_path)
        point = {"marker": str(marker), "tag": "torn"}
        server.submit(JobRequest(tenant="a", workload="count", point=point))
        run(server)
        key, = server.cold_executions
        # Tear the committed object at its final path (simulated torn
        # write); the warm path must classify it missing, delete it, and
        # re-execute exactly once.
        obj = ResultStore(tmp_path / "root")._object_path(key)
        obj.write_bytes(obj.read_bytes()[:10])
        again = server.submit(JobRequest(tenant="b", workload="count",
                                         point=point))
        run(server)
        server.close()
        assert again.state is JobState.DONE and again.cache == "cold"
        assert server.torn_detected == 1
        assert marker_lines(marker) == 2
        assert server.cold_executions[key] == 2


class TestWarmLoadClassification:
    def test_memory_error_does_not_destroy_stored_object(self, tmp_path,
                                                         monkeypatch):
        """Resource pressure is not a torn object.

        A transient MemoryError while unpickling a perfectly valid
        committed result must NOT delete the stored object (the torn
        path's remedy); it fails the one job, classified, with the
        original exception chained for triage — and the data survives
        for the next request.
        """
        server = make_server(tmp_path)
        point = {"x": 1}
        server.submit(JobRequest(tenant="a", workload="noop", point=point))
        run(server)
        key, = server.cold_executions

        def oom(_key):
            raise MemoryError("transient OOM while unpickling")

        monkeypatch.setattr(server.store, "load", oom)
        captured = {}
        orig_finish = server._finish

        def spy(record, state, **kw):
            captured["error"] = kw.get("error")
            return orig_finish(record, state, **kw)

        monkeypatch.setattr(server, "_finish", spy)
        record = server.submit(JobRequest(tenant="b", workload="noop",
                                          point=point))
        run(server)
        server.close()
        assert record.state is JobState.FAILED
        assert record.error == "ServeWorkerError"
        assert record.detail.startswith("MemoryError")
        # The worker's original exception is chained as __cause__
        # (the ServeWorkerError contract).
        assert isinstance(captured["error"].__cause__, MemoryError)
        assert server.torn_detected == 0  # never classified as torn...
        assert ResultStore(tmp_path / "root").has(key)  # ...never deleted


class TestServerMemoryBounds:
    """A long-running server must not retain every job forever."""

    def test_latency_window_bounds_samples(self, tmp_path):
        server = make_server(tmp_path, latency_window=4)
        for i in range(7):
            server.submit(JobRequest(tenant="a", workload="noop",
                                     point={"i": i}))
        run(server)
        server.close()
        assert len(server.latencies["done"]) == 4  # window, not history
        stats = server.stats()
        assert stats["jobs"] == 7
        assert stats["states"] == {"done": 7}
        assert stats["latency"]["count"] == 4
        assert stats["latency"]["p99"] is not None

    def test_evict_terminal_preserves_stats_and_dedup(self, tmp_path):
        marker = tmp_path / "marks"
        server = make_server(tmp_path)
        point = {"marker": str(marker), "tag": "evicted"}
        first = server.submit(JobRequest(tenant="a", workload="count",
                                         point=point))
        run(server)
        job_id = first.request.job_id
        assert server.evict_terminal(job_id)
        assert job_id not in server.jobs
        assert not server.evict_terminal(job_id)  # already gone
        assert server.knows(job_id)  # evicted, not forgotten
        stats = server.stats()  # aggregates survive the eviction
        assert stats["jobs"] == 1
        assert stats["states"] == {"done": 1}
        assert stats["caches"] == {"cold": 1}
        # The answer itself lives in the store, not the record:
        second = server.submit(JobRequest(tenant="b", workload="count",
                                          point=point))
        run(server)
        server.close()
        assert second.cache == "warm"
        assert marker_lines(marker) == 1

    def test_evict_refuses_non_terminal_jobs(self, tmp_path):
        server = make_server(tmp_path)
        record = server.submit(JobRequest(tenant="a", workload="noop",
                                          point={}))
        assert not server.evict_terminal(record.request.job_id)  # queued
        assert record.request.job_id in server.jobs
        run(server)
        server.close()

    def test_finish_prunes_bookkeeping_sets(self, tmp_path):
        server = make_server(tmp_path)
        for i in range(3):
            server.submit(JobRequest(tenant="a", workload="noop",
                                     point={"i": i}))
        run(server)
        server.close()
        assert not server._journaled
        assert not server._no_stale
        assert not server._admitted

    def test_cold_audit_map_pruned_totals_survive(self, tmp_path,
                                                  monkeypatch):
        from repro.serve import server as server_mod

        monkeypatch.setattr(server_mod, "_COLD_AUDIT_MAX", 2)
        server = make_server(tmp_path)
        for i in range(5):
            server.submit(JobRequest(tenant="a", workload="noop",
                                     point={"i": i}))
        run(server)
        server.close()
        # Exactly-once entries beyond the cap are pruned; the monotone
        # totals that feed stats() are not.
        assert len(server.cold_executions) <= 2
        assert all(n == 1 for n in server.cold_executions.values())
        stats = server.stats()
        assert stats["cold_executions"] == 5
        assert stats["cold_keys"] == 5


class TestServeConfigValidation:
    def test_rejects_bad_knobs(self):
        for bad in (
            dict(workers=0),
            dict(executor_mode="gpu"),
            dict(max_concurrency=0),
            dict(default_deadline_s=0),
            dict(attempt_timeout_s=-1),
            dict(max_attempts=0),
            dict(breaker_failures=0),
            dict(tenant_quota=0),
            dict(max_queue=0),
            dict(aging_rate=-1),
            dict(stale_ttl_s=0),
            dict(latency_window=0),
        ):
            with pytest.raises(ConfigError):
                ServeConfig(**bad)
