"""Circuit breaker + graceful degradation tests (repro.serve).

Two layers:

* :class:`~repro.serve.CircuitBreaker` as a state machine, driven by an
  injectable clock — trips, cooldown, half-open probe discipline;
* the server's degraded warm-cache-only mode — with the breaker open,
  previously answered point *identities* are served stale from the
  :class:`~repro.store.leases.StaleIndex` (even across a workload code
  revision that changed the store key), a revalidation is queued, and
  cold execution resumes once the breaker closes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import (
    BreakerState,
    CircuitBreaker,
    JobRecord,
    JobRequest,
    JobState,
    ServeConfig,
    ServeServer,
)
from repro.serve import jobs as jobs_mod
from repro.serve.server import REVALIDATE_TENANT
from repro.util.errors import ConfigError


def run(server: ServeServer) -> None:
    asyncio.run(server.run_until_idle())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# the state machine
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        transitions: list[str] = []
        breaker = CircuitBreaker(
            failure_threshold=kw.pop("failure_threshold", 3),
            cooldown_s=kw.pop("cooldown_s", 10.0),
            probe_successes=kw.pop("probe_successes", 1),
            clock=clock,
            on_transition=transitions.append,
            **kw,
        )
        return breaker, clock, transitions

    def test_trips_after_consecutive_failures_only(self):
        breaker, _clock, transitions = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert transitions == ["open"]

    def test_open_refuses_until_cooldown_then_half_opens(self):
        breaker, clock, transitions = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.now = 9.9
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert transitions == ["open", "half_open"]

    def test_half_open_admits_one_probe_at_a_time(self):
        breaker, clock, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        assert not breaker.allow()  # probe slot taken
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock, transitions = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        clock.now = 19.9  # cooldown restarted at t=10
        assert not breaker.allow()
        clock.now = 20.0
        assert breaker.allow()
        assert transitions == ["open", "half_open", "open", "half_open"]

    def test_multiple_probe_successes_required(self):
        breaker, clock, _ = self.make(probe_successes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_cancel_probe_releases_the_slot(self):
        """A claimed probe that produces no outcome must be returnable.

        Regression: a prober that exited without record_success /
        record_failure (deadline expiry before its attempt) used to
        leave _probe_inflight set forever — allow() then refused every
        future caller and the breaker was wedged in HALF_OPEN.
        """
        breaker, clock, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()  # claim the probe slot...
        assert not breaker.allow()
        breaker.cancel_probe()  # ...and hand it back, outcome-free
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # next prober gets the slot
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_cancel_probe_is_no_op_outside_half_open(self):
        breaker, clock, _ = self.make()
        breaker.cancel_probe()  # CLOSED: nothing to release
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        breaker.cancel_probe()  # OPEN: nothing to release
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_cancel_probe_does_not_count_toward_closing(self):
        breaker, clock, _ = self.make(probe_successes=2)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_success()  # 1/2
        assert breaker.allow()
        breaker.cancel_probe()  # not an outcome: still 1/2
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()  # 2/2
        assert breaker.state is BreakerState.CLOSED

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_s=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(probe_successes=0)


# ---------------------------------------------------------------------------
# degraded warm-cache-only mode
# ---------------------------------------------------------------------------


def _wl_unstable(**point):
    """Registered per-test with swappable behaviour via the registry."""
    return {"ok": True, "rev": 1, "point": dict(point)}


def _wl_unstable_v2(**point):
    return {"ok": True, "rev": 2, "point": dict(point)}


def _wl_always_fails(**point):
    raise RuntimeError("permanently broken workload")


@pytest.fixture()
def unstable_registry(monkeypatch):
    monkeypatch.setitem(jobs_mod._REGISTRY, "unstable", _wl_unstable)
    monkeypatch.setitem(jobs_mod._REGISTRY, "alwaysfail", _wl_always_fails)
    yield


def degraded_server(tmp_path, **overrides) -> ServeServer:
    defaults = dict(
        executor_mode="thread",
        workers=1,
        default_deadline_s=10.0,
        attempt_timeout_s=1.0,
        max_attempts=1,
        breaker_failures=2,
        breaker_cooldown_s=0.05,
    )
    defaults.update(overrides)
    return ServeServer(tmp_path / "root", ServeConfig(**defaults))


def trip_breaker(server: ServeServer) -> None:
    """Feed the breaker its threshold of failures through real jobs."""
    for i in range(server.config.breaker_failures):
        server.submit(JobRequest(tenant="chaosee", workload="alwaysfail",
                                 point={"i": i}))
    run(server)
    assert server.breaker.state is BreakerState.OPEN


class TestDegradedMode(object):
    def test_stale_served_across_code_revision(self, tmp_path,
                                               unstable_registry,
                                               monkeypatch):
        server = degraded_server(tmp_path)
        # 1. Answer the point with revision 1 (populates store + stale
        #    index under the fingerprint-agnostic identity).
        first = server.submit(JobRequest(tenant="a", workload="unstable",
                                         point={"x": 1}))
        run(server)
        assert first.result["rev"] == 1
        # 2. The workload code changes: new fingerprint, new store key —
        #    the old answer is no longer *warm*, only *stale*.
        monkeypatch.setitem(jobs_mod._REGISTRY, "unstable", _wl_unstable_v2)
        # 3. Trip the breaker; cold execution is now refused.
        trip_breaker(server)
        degraded = server.submit(JobRequest(tenant="b", workload="unstable",
                                            point={"x": 1}))
        run(server)
        server.close()
        assert degraded.state is JobState.DONE
        assert degraded.cache == "stale"
        assert degraded.result["rev"] == 1  # last known good answer

    def test_open_breaker_with_no_stale_fails_classified(self, tmp_path,
                                                         unstable_registry):
        server = degraded_server(tmp_path)
        trip_breaker(server)
        record = server.submit(JobRequest(tenant="b", workload="unstable",
                                          point={"never": "seen"}))
        run(server)
        server.close()
        assert record.state is JobState.FAILED
        assert record.error == "ServeCircuitOpenError"

    def test_breaker_recovers_and_revalidates_stale_answers(
            self, tmp_path, unstable_registry, monkeypatch):
        server = degraded_server(tmp_path)
        first = server.submit(JobRequest(tenant="a", workload="unstable",
                                         point={"x": 1}))
        run(server)
        assert first.result["rev"] == 1
        monkeypatch.setitem(jobs_mod._REGISTRY, "unstable", _wl_unstable_v2)
        trip_breaker(server)
        degraded = server.submit(JobRequest(tenant="b", workload="unstable",
                                            point={"x": 1}))
        run(server)
        assert degraded.cache == "stale"
        # Cooldown elapses; a successful probe closes the breaker and
        # releases the queued revalidation, which re-executes the point
        # with the *new* code.
        import time

        time.sleep(server.config.breaker_cooldown_s + 0.02)
        probe = server.submit(JobRequest(tenant="a", workload="unstable",
                                         point={"probe": True}))
        run(server)
        run(server)  # revalidation job enqueued at close-transition
        server.close()
        assert probe.state is JobState.DONE and probe.cache == "cold"
        assert server.breaker.state is BreakerState.CLOSED
        reval = [r for r in server.jobs.values()
                 if r.request.tenant == REVALIDATE_TENANT]
        assert len(reval) == 1
        assert reval[0].state is JobState.DONE
        assert reval[0].cache == "cold"
        assert reval[0].result["rev"] == 2
        # The refreshed answer is now warm for everyone.
        fresh = ServeServer(tmp_path / "root", ServeConfig(
            executor_mode="thread"))
        warm = fresh.submit(JobRequest(tenant="c", workload="unstable",
                                       point={"x": 1}))
        run(fresh)
        fresh.close()
        assert warm.cache == "warm" and warm.result["rev"] == 2

    def test_expired_probe_releases_slot_for_next_job(self, tmp_path,
                                                      unstable_registry):
        """Reviewer repro: deadline expiry while holding the probe slot.

        A cold leader whose allow() half-opened the breaker owns its one
        probe slot.  If its deadline expires before the first attempt,
        no outcome is ever recorded; the slot must be cancelled, not
        leaked — a leak wedges the breaker in HALF_OPEN and refuses all
        cold execution for the rest of the server's life.
        """
        import time

        from repro.util.errors import ServeDeadlineError

        server = degraded_server(tmp_path)
        trip_breaker(server)
        time.sleep(server.config.breaker_cooldown_s + 0.02)
        # Claim the HALF_OPEN probe slot exactly as _resolve's allow()
        # does for a cold-execution leader.
        assert server.breaker.allow()
        assert server.breaker.state is BreakerState.HALF_OPEN
        record = JobRecord(
            request=JobRequest(tenant="a", workload="unstable",
                               point={"x": 9}),
            deadline_at=time.time() - 1.0,  # already expired
        )
        with pytest.raises(ServeDeadlineError):
            asyncio.run(
                server._execute_cold(record, "ab" * 32, probe_held=True)
            )
        # The slot is free again: a healthy job probes and closes the
        # breaker instead of dying with ServeCircuitOpenError.
        healthy = server.submit(JobRequest(tenant="b", workload="unstable",
                                           point={"x": 10}))
        run(server)
        server.close()
        assert healthy.state is JobState.DONE
        assert healthy.cache == "cold"
        assert server.breaker.state is BreakerState.CLOSED

    def test_breaker_transitions_exported_to_obs(self, tmp_path,
                                                 unstable_registry):
        events: list[str] = []

        class Obs:
            def serve_submitted(self, *a): pass
            def serve_done(self, *a): pass
            def serve_attempt(self, *a): pass
            def serve_queue(self, *a): pass
            def serve_breaker(self, state): events.append(state)

        server = ServeServer(
            tmp_path / "root",
            ServeConfig(executor_mode="thread", max_attempts=1,
                        breaker_failures=2, breaker_cooldown_s=0.05,
                        attempt_timeout_s=1.0),
            obs=Obs(),
        )
        trip_breaker(server)
        server.close()
        assert events == ["open"]
