"""The asyncio job server: dedupe, deadlines, retries, degradation.

One :class:`ServeServer` owns a store directory and answers jobs
(:mod:`repro.serve.jobs`) through a fixed resolution ladder, cheapest
first:

1. **warm** — the content-addressed store already has the key (same
   workload code + same point, possibly computed by a different tenant
   or a previous server life).  Torn objects are detected, deleted and
   treated as missing.
2. **inflight** — another job is currently cold-executing the same key;
   this job awaits that execution instead of duplicating it
   (single-flight coalescing).
3. **stale** — the cold path is circuit-broken; if any *previous* code
   revision ever answered this point (:class:`~repro.store.leases.StaleIndex`),
   serve that answer marked stale and queue a revalidation for when the
   breaker closes — degrade, don't fail closed.
4. **cold** — dispatch to the worker pool under a per-attempt timeout,
   with capped exponential backoff + deterministic per-job jitter
   between attempts, every attempt feeding the breaker.

Robustness invariants (pinned by ``tests/test_serve*.py``):

* every admitted job terminates in a terminal :class:`~repro.serve.jobs.JobState`
  with a classified ``Serve*`` error on the non-DONE paths — nothing
  hangs, nothing dies unlabelled;
* deadlines are absolute wall-clock and enforced at every await point
  (queue wait, coalesced wait, attempt, backoff);
* a SIGKILLed server replays ``serve.journal`` on restart and resumes
  exactly the uncommitted jobs — completed work is never re-executed
  (the store dedupes it), lost attempts re-execute exactly once;
* the scheduler loop never executes workload code on the event loop
  (except in explicit ``inline`` test mode).
"""

from __future__ import annotations

import asyncio
import json
import math
import pickle
import time
from collections import deque
from pathlib import Path
from typing import Any

from ..perf.sweep import PointExecutor
from ..store.keys import point_key
from ..store.leases import ServeJournal, ServeReplay, StaleIndex, point_identity
from ..store.result_store import ResultStore
from ..util.errors import (
    ConfigError,
    ServeAttemptTimeout,
    ServeCircuitOpenError,
    ServeDeadlineError,
    ServeError,
    ServeRetryExhaustedError,
    ServeWorkerError,
    SweepPoolError,
)
from .admission import AdmissionController, AgingQueue
from .breaker import BreakerState, CircuitBreaker
from .config import ServeConfig
from .jobs import JobRecord, JobRequest, JobState, resolve_workload

__all__ = ["ServeServer"]

#: Exception families that mean "the stored object is torn/foreign",
#: mirroring the sweep checkpoint loader's treat-as-missing semantics.
#: Deliberately excludes resource-pressure errors such as MemoryError:
#: failing to *fit* a perfectly valid object is not evidence the object
#: is damaged, and the torn path deletes what it classifies.
_TORN_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    TypeError,
    AttributeError,
    ImportError,
    IndexError,
)

#: Retained entries in the per-key cold-execution audit map.  Keys that
#: executed exactly once (the invariant holding) are pruned beyond this
#: cap; anomalies (count > 1) are kept forever — they are the finding.
_COLD_AUDIT_MAX = 4096

#: Tenant name carried by server-internal revalidation jobs.
REVALIDATE_TENANT = "_revalidate"


class ServeServer:
    """Fault-tolerant simulation-as-a-service scheduler (see module doc)."""

    def __init__(
        self,
        root: str | Path,
        config: ServeConfig | None = None,
        *,
        obs: Any = None,
        chaos: Any = None,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServeConfig()
        self._obs = obs
        self._chaos = chaos
        self.store = ResultStore(self.root)
        self.journal = ServeJournal(self.root / "serve.journal")
        self.stale_index = StaleIndex(self.root)
        self.executor = PointExecutor(
            self.config.workers, mode=self.config.executor_mode
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            cooldown_s=self.config.breaker_cooldown_s,
            probe_successes=self.config.breaker_probes,
            on_transition=self._on_breaker,
        )
        self.admission = AdmissionController(
            tenant_quota=self.config.tenant_quota,
            max_queue=self.config.max_queue,
        )
        self.queue = AgingQueue(aging_rate=self.config.aging_rate)
        #: Live job records by job_id.  Terminal records linger here for
        #: library/test inspection until :meth:`evict_terminal` forgets
        #: them (the spool CLI evicts after snapshotting, so a
        #: long-running server does not retain every result payload).
        self.jobs: dict[str, JobRecord] = {}
        #: Cold executions committed per store key (exactly-once audit;
        #: singleton entries are pruned beyond ``_COLD_AUDIT_MAX``).
        self.cold_executions: dict[str, int] = {}
        #: Total cold executions / distinct cold keys (monotone; survive
        #: audit-map pruning and feed :meth:`stats`).
        self.cold_total = 0
        self.cold_keys_total = 0
        #: Torn store objects detected (and deleted) by warm reads.
        self.torn_detected = 0
        #: Recent end-to-end latencies per terminal state value, capped
        #: at ``config.latency_window`` samples (sliding window).
        self.latencies: dict[str, deque[float]] = {}
        self._inflight: dict[str, asyncio.Future[tuple[str, Any]]] = {}
        self._admitted: set[str] = set()
        self._journaled: set[str] = set()
        self._no_stale: set[str] = set()
        self._revalidate: dict[str, JobRequest] = {}
        self._sequence = 0
        #: Every job id this server life has registered or replayed
        #: (including journal-completed ones) — the idempotence check
        #: for spool re-ingest after a crash.
        self._seen: set[str] = set()
        self._jobs_total = 0
        #: Terminal-outcome aggregates; stay correct across eviction.
        self._state_counts: dict[str, int] = {}
        self._cache_counts: dict[str, int] = {}

    # -- wiring --------------------------------------------------------------

    def _on_breaker(self, state: str) -> None:
        if self._obs is not None:
            self._obs.serve_breaker(state)
        if state == BreakerState.CLOSED.value and self._revalidate:
            pending, self._revalidate = self._revalidate, {}
            for request in pending.values():
                self._enqueue(self._record_for(request), journal=True)

    def _key_for(self, request: JobRequest) -> str:
        return point_key(resolve_workload(request.workload), dict(request.point))

    def _next_job_id(self, tenant: str) -> str:
        self._sequence += 1
        return f"{tenant}-{self._sequence:06d}"

    # -- submission / recovery ----------------------------------------------

    def knows(self, job_id: str) -> bool:
        """Has this job id ever been registered here or in the journal?

        True for live records, evicted-but-served records, and jobs the
        startup replay saw as already committed.  The spool CLI uses
        this to make re-ingest idempotent: a crash between journaling a
        submit and unlinking its spool file must not mint a second
        record for the same id on restart.
        """
        return job_id in self.jobs or job_id in self._seen

    def _register(self, record: JobRecord) -> None:
        job_id = record.request.job_id
        if job_id not in self._seen:
            self._seen.add(job_id)
            self._jobs_total += 1
        self.jobs[job_id] = record

    def submit(self, request: JobRequest) -> JobRecord:
        """Admit one request; returns its record or raises ``Serve*``.

        Rejections (quota, draining) still leave a terminal REJECTED
        record behind — a refused job is an *answered* job — and then
        re-raise the typed, retryable error for the client.
        """
        try:
            record = self._record_for(request)
        except ServeError as exc:
            # Unknown workload: refuse, but still answer — a spooled
            # client holds a job id and must be able to resolve it.
            record = JobRecord(request=request, deadline_at=time.time())
            self._register(record)
            if self._obs is not None:
                self._obs.serve_submitted(
                    request.tenant, request.workload, request.job_id
                )
            self._finish(record, JobState.REJECTED, error=exc)
            raise
        try:
            self.admission.admit(request.tenant)
        except ServeError as exc:
            self._register(record)
            if self._obs is not None:
                self._obs.serve_submitted(
                    request.tenant, request.workload, request.job_id
                )
            self._finish(record, JobState.REJECTED, error=exc)
            raise
        self._admitted.add(request.job_id)
        self._enqueue(record, journal=True)
        return record

    def _record_for(self, request: JobRequest) -> JobRecord:
        resolve_workload(request.workload)  # unknown workload fails fast
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        deadline_wall = time.time() + deadline_s
        if self._chaos is not None:
            deadline_wall = self._chaos.skew_deadline(deadline_wall)
        return JobRecord(request=request, deadline_at=deadline_wall)

    def _enqueue(self, record: JobRecord, *, journal: bool) -> None:
        request = record.request
        if journal:
            self.journal.submit(
                request.job_id,
                tenant=request.tenant,
                workload=request.workload,
                point_json=json.dumps(dict(request.point), sort_keys=True),
                key=self._key_for(request),
                priority=request.priority,
                deadline_wall=record.deadline_at,
            )
            self._journaled.add(request.job_id)
        self._register(record)
        self.queue.push(record)
        if self._obs is not None:
            self._obs.serve_submitted(
                request.tenant, request.workload, request.job_id
            )

    def recover(self) -> ServeReplay:
        """Replay the journal; re-enqueue every uncommitted job.

        Recovered jobs keep their original absolute deadlines (a crash
        does not extend anyone's budget) and their original job ids, and
        are *not* re-journaled — their submit lines are already durable.
        The job-id sequence continues past the replayed maximum so fresh
        submissions cannot collide with resumed ones.
        """
        replay = self.journal.replay()
        self._sequence = max(self._sequence, replay.max_sequence)
        # Committed jobs are answered history: remember their ids so a
        # spool file that survived the crash window (journaled but not
        # yet unlinked) is skipped instead of re-ingested.
        self._seen.update(replay.completed)
        for entry in replay.pending:
            request = JobRequest(
                tenant=entry.tenant,
                workload=entry.workload,
                point=entry.point(),
                priority=entry.priority,
                job_id=entry.job_id,
            )
            record = JobRecord(
                request=request,
                submitted_at=entry.ts,
                deadline_at=entry.deadline_wall,
            )
            self._journaled.add(entry.job_id)
            self._enqueue(record, journal=False)
        return replay

    # -- scheduler loop ------------------------------------------------------

    async def run_until_idle(self) -> None:
        """Process queued jobs until queue and in-flight set are empty."""
        active: set[asyncio.Task[None]] = set()
        while self.queue or active:
            while len(active) < self.config.max_concurrency and len(self.queue):
                record = self.queue.pop()
                active.add(asyncio.create_task(self._process(record)))
            if self._obs is not None:
                self._obs.serve_queue(len(self.queue), len(active))
            done, active = await asyncio.wait(
                active,
                timeout=self.config.tick_s,
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in done:
                exc = task.exception()
                if exc is not None:  # programming error, never a job outcome
                    for other in active:
                        other.cancel()
                    raise exc
        if self._obs is not None:
            self._obs.serve_queue(0, 0)

    def drain(self) -> None:
        """Refuse new admissions; queued/in-flight jobs still finish."""
        self.admission.start_draining()

    def close(self) -> None:
        """Release the worker pool."""
        self.executor.shutdown()

    # -- resolution ladder ---------------------------------------------------

    async def _process(self, record: JobRecord) -> None:
        request = record.request
        try:
            if self._chaos is not None:
                delay = self._chaos.submit_delay(request.tenant)
                if delay > 0:
                    await asyncio.sleep(delay)
            record.state = JobState.RUNNING
            await self._resolve(record)
        except ServeDeadlineError as exc:
            self._finish(record, JobState.EXPIRED, error=exc)
        except ServeError as exc:
            self._finish(record, JobState.FAILED, error=exc)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Anything unclassified still terminates the job, loudly
            # labelled — the chaos gate's "no unlabelled deaths" clause.
            # The original exception rides along as __cause__ (the
            # ServeWorkerError contract) so triage keeps its traceback.
            error = ServeWorkerError(f"{type(exc).__name__}: {exc}")
            error.__cause__ = exc
            self._finish(record, JobState.FAILED, error=error)

    def _remaining(self, record: JobRecord) -> float:
        return record.deadline_at - time.time()

    async def _resolve(self, record: JobRecord) -> None:
        request = record.request
        key = self._key_for(request)
        while True:
            if self._remaining(record) <= 0:
                raise ServeDeadlineError(
                    f"deadline exceeded before resolution "
                    f"(job {request.job_id})"
                )
            found, value = self._load_warm(key)
            if found:
                self._finish(
                    record, JobState.DONE, cache="warm", result=value
                )
                return
            waiter = self._inflight.get(key)
            if waiter is not None:
                try:
                    outcome, payload = await asyncio.wait_for(
                        asyncio.shield(waiter),
                        timeout=max(0.0, self._remaining(record)),
                    )
                except asyncio.TimeoutError:
                    raise ServeDeadlineError(
                        f"deadline exceeded while coalesced on another "
                        f"execution (job {request.job_id})"
                    ) from None
                if outcome == "ok":
                    self._finish(
                        record,
                        JobState.DONE,
                        cache="inflight",
                        result=payload,
                    )
                    return
                continue  # leader failed; take our own turn at the ladder
            if not self.breaker.allow():
                stale = (
                    None
                    if request.job_id in self._no_stale
                    else self._load_stale(request)
                )
                if stale is not None:
                    self._queue_revalidation(request)
                    self._finish(
                        record, JobState.DONE, cache="stale", result=stale[1]
                    )
                    return
                raise ServeCircuitOpenError(
                    f"cold path circuit-broken and no stale result for "
                    f"{request.workload} (job {request.job_id})"
                )
            # We are the cold-execution leader for this key.  If that
            # allow() half-opened the breaker, we now own its one probe
            # slot and must resolve it (outcome or cancellation) no
            # matter how the cold path exits — _execute_cold tracks it.
            probe_held = self.breaker.state is BreakerState.HALF_OPEN
            future: asyncio.Future[tuple[str, Any]] = (
                asyncio.get_running_loop().create_future()
            )
            self._inflight[key] = future
            try:
                try:
                    value = await self._execute_cold(
                        record, key, probe_held=probe_held
                    )
                except ServeCircuitOpenError:
                    # Breaker opened mid-retries: release followers and
                    # fall back through the ladder (stale path next).
                    if not future.done():
                        future.set_result(
                            ("err", ServeCircuitOpenError("breaker opened"))
                        )
                    continue
                except BaseException as exc:
                    if not future.done():
                        future.set_result(("err", exc))
                    raise
                if not future.done():
                    future.set_result(("ok", value))
                self._finish(record, JobState.DONE, cache="cold", result=value)
                return
            finally:
                if self._inflight.get(key) is future:
                    del self._inflight[key]

    # -- warm / stale sources ------------------------------------------------

    def _load_warm(self, key: str) -> tuple[bool, Any]:
        """Load a committed result, classifying torn objects as missing."""
        if not self.store.has(key):
            return False, None
        try:
            return True, self.store.load(key)
        except KeyError:
            return False, None
        except _TORN_ERRORS:
            self.store.delete(key)
            self.torn_detected += 1
            return False, None

    def _load_stale(self, request: JobRequest) -> tuple[str, Any] | None:
        identity = point_identity(request.workload, dict(request.point))
        key = self.stale_index.lookup(
            identity, max_age_s=self.config.stale_ttl_s
        )
        if key is None:
            return None
        found, value = self._load_warm(key)
        if not found:
            return None
        return key, value

    def _queue_revalidation(self, request: JobRequest) -> None:
        identity = point_identity(request.workload, dict(request.point))
        if identity in self._revalidate:
            return
        reval = JobRequest(
            tenant=REVALIDATE_TENANT,
            workload=request.workload,
            point=request.point,
            priority=min(0, request.priority) - 1,
            job_id=self._next_job_id(REVALIDATE_TENANT),
        )
        self._no_stale.add(reval.job_id)
        self._revalidate[identity] = reval

    # -- cold execution ------------------------------------------------------

    async def _execute_cold(
        self, record: JobRecord, key: str, *, probe_held: bool = False
    ) -> Any:
        cfg = self.config
        request = record.request
        fn = resolve_workload(request.workload)
        last_exc: BaseException | None = None
        # ``probe_held`` tracks ownership of the breaker's HALF_OPEN
        # probe slot.  Every recorded outcome resolves it; every exit
        # that records none (deadline expiry, cancellation) must cancel
        # it in the finally below, or the slot leaks and the breaker
        # refuses cold execution for the rest of the server's life.

        def record_outcome(ok: bool) -> None:
            nonlocal probe_held
            probe_held = False
            if ok:
                self.breaker.record_success()
            else:
                self.breaker.record_failure()

        try:
            for attempt in range(1, cfg.max_attempts + 1):
                if attempt > 1:
                    backoff = (
                        cfg.retry.backoff_for(attempt - 1, seed=request.job_id)
                        * cfg.backoff_unit_s
                    )
                    await asyncio.sleep(
                        min(backoff, max(0.0, self._remaining(record)))
                    )
                    if not self.breaker.allow():
                        raise ServeCircuitOpenError(
                            f"breaker opened between attempts "
                            f"(job {request.job_id})"
                        )
                    probe_held = (
                        self.breaker.state is BreakerState.HALF_OPEN
                    )
                remaining = self._remaining(record)
                if remaining <= 0:
                    raise ServeDeadlineError(
                        f"deadline exceeded after {record.attempts} "
                        f"attempt(s) (job {request.job_id})"
                    )
                record.attempts += 1
                self.journal.lease(
                    request.job_id, key=key, attempt=record.attempts
                )
                started = time.monotonic()
                outcome = "ok"
                try:
                    value = await self._attempt(
                        record, fn, key, min(cfg.attempt_timeout_s, remaining)
                    )
                except ServeAttemptTimeout as exc:
                    outcome, last_exc = "timeout", exc
                    record_outcome(False)
                except ConfigError:
                    # A deterministic point error (bad parameter, point
                    # outside an engine's contract): the pool is healthy,
                    # the *point* is not.  Retrying cannot change the
                    # outcome, and counting it against the breaker would
                    # let one malformed submission trip cold execution
                    # into degraded mode for every healthy tenant.  Fail
                    # the job on the spot; the probe slot, if held, is
                    # cancelled by the finally below (outcome-free exit).
                    raise
                except SweepPoolError as exc:
                    outcome, last_exc = "pool", exc
                    record_outcome(False)
                except (asyncio.CancelledError, KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if PointExecutor._is_broken_pool(exc):
                        outcome = "pool"
                        self.executor.restart()
                    else:
                        outcome = "error"
                    last_exc = exc
                    record_outcome(False)
                else:
                    record_outcome(True)
                    if self._obs is not None:
                        self._obs.serve_attempt(
                            request.job_id,
                            record.attempts,
                            outcome,
                            time.monotonic() - started,
                        )
                    self._commit_result(request, key, value)
                    return value
                if self._obs is not None:
                    self._obs.serve_attempt(
                        request.job_id,
                        record.attempts,
                        outcome,
                        time.monotonic() - started,
                    )
            raise ServeRetryExhaustedError(
                f"{record.attempts} attempt(s) failed for job "
                f"{request.job_id}; "
                f"last: {type(last_exc).__name__}: {last_exc}"
            ) from last_exc
        finally:
            if probe_held:
                self.breaker.cancel_probe()

    async def _attempt(
        self, record: JobRecord, fn: Any, key: str, timeout: float
    ) -> Any:
        request = record.request
        if self._chaos is not None:
            # May SIGKILL a pool worker or raise a synthetic pool error.
            self._chaos.before_attempt(
                self.executor, request.job_id, record.attempts
            )
        cf = self.executor.submit(fn, dict(request.point))
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(cf), timeout=timeout
            )
        except asyncio.TimeoutError:
            self.executor.reclaim(cf)
            raise ServeAttemptTimeout(
                f"attempt {record.attempts} exceeded {timeout:.3f}s "
                f"(job {request.job_id})"
            ) from None

    def _commit_result(self, request: JobRequest, key: str, value: Any) -> None:
        self.store.store(key, value)
        self.cold_total += 1
        if key not in self.cold_executions:
            self.cold_keys_total += 1
        self.cold_executions[key] = self.cold_executions.get(key, 0) + 1
        if len(self.cold_executions) > _COLD_AUDIT_MAX:
            # Bound the audit map: drop oldest exactly-once entries
            # (the invariant holding); keep every anomaly (count > 1).
            excess = len(self.cold_executions) - _COLD_AUDIT_MAX
            for old_key in [
                k for k, n in self.cold_executions.items() if n == 1
            ][:excess]:
                del self.cold_executions[old_key]
        if self._chaos is not None:
            self._chaos.after_store(self.store, key)
        self.stale_index.record(
            point_identity(request.workload, dict(request.point)), key
        )

    # -- terminal bookkeeping ------------------------------------------------

    def _finish(
        self,
        record: JobRecord,
        state: JobState,
        *,
        cache: str | None = None,
        result: Any = None,
        error: BaseException | None = None,
    ) -> None:
        request = record.request
        record.finish(state, cache=cache, result=result, error=error)
        if request.job_id in self._journaled:
            self.journal.commit(
                request.job_id, state=state.value, detail=record.error or ""
            )
            self._journaled.discard(request.job_id)
        if request.job_id in self._admitted:
            self._admitted.discard(request.job_id)
            self.admission.release(request.tenant)
        # Terminal bookkeeping is aggregated here (not derived from
        # self.jobs) so evicting a snapshotted record never skews stats.
        self._no_stale.discard(request.job_id)
        self._state_counts[state.value] = (
            self._state_counts.get(state.value, 0) + 1
        )
        if record.cache:
            self._cache_counts[record.cache] = (
                self._cache_counts.get(record.cache, 0) + 1
            )
        self.latencies.setdefault(
            state.value, deque(maxlen=self.config.latency_window)
        ).append(record.latency_s)
        if self._obs is not None:
            self._obs.serve_done(
                request.tenant,
                request.job_id,
                state.value,
                record.cache or "",
                record.latency_s,
            )

    def evict_terminal(self, job_id: str) -> bool:
        """Forget a terminal job's in-memory record; True if evicted.

        The journal commit line (and, under the spool CLI, the status
        snapshot file) remain the durable answer; :meth:`stats` is
        unaffected because terminal outcomes were aggregated at
        :meth:`_finish` time.  This is how a long-running server avoids
        retaining every served result payload.  In-flight records are
        never evicted (returns False).
        """
        record = self.jobs.get(job_id)
        if record is None or not record.state.terminal:
            return False
        del self.jobs[job_id]
        return True

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-safe operational snapshot (states, caches, percentiles).

        Counts cover the whole server life: terminal outcomes come from
        the :meth:`_finish` aggregates (eviction-proof), non-terminal
        states from the live records.  Latency percentiles are over the
        most recent ``config.latency_window`` DONE samples.
        """
        states = dict(self._state_counts)
        for record in self.jobs.values():
            if not record.state.terminal:
                states[record.state.value] = (
                    states.get(record.state.value, 0) + 1
                )
        done = sorted(self.latencies.get(JobState.DONE.value, ()))
        health = self.executor.health()
        return {
            "jobs": self._jobs_total,
            "states": states,
            "caches": dict(self._cache_counts),
            "queue_depth": len(self.queue),
            "breaker": self.breaker.state.value,
            "breaker_trips": self.breaker.trips,
            "cold_executions": self.cold_total,
            "cold_keys": self.cold_keys_total,
            "torn_detected": self.torn_detected,
            "executor": {
                "mode": health.mode,
                "restarts": health.restarts,
                "abandoned": health.abandoned,
            },
            "latency": {
                "count": len(done),
                "p50": _percentile(done, 0.50),
                "p95": _percentile(done, 0.95),
                "p99": _percentile(done, 0.99),
            },
        }


def _percentile(ordered: list[float], q: float) -> float | None:
    """Exact nearest-rank percentile of pre-sorted samples (None: empty)."""
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
