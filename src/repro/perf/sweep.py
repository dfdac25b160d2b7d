"""Resumable, checkpointed parameter-sweep runtime.

The ablation benches, figure sweeps and fault campaigns are
embarrassingly parallel: every grid point is an independent, seeded
simulation.  This module fans such grids out across a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
*results* byte-identical to a serial run:

* every point carries its own seed (derived before dispatch, in grid
  order, from the caller's master seed), so no point's randomness
  depends on scheduling;
* results are merged back **in grid order**, not completion order, so
  downstream aggregation sees exactly the sequence a serial loop would
  produce.

On top of the PR-2 fan-out this adds the ``repro.store``-backed
checkpoint mode (``checkpoint=dir, resume=True``): each point's result
is persisted **as its future completes** under a content-addressed key
(worker qualname + code fingerprint + canonical point payload — see
:mod:`repro.store.keys`), already-completed points are loaded instead of
re-executed, and an interrupted sweep resumes by running only the
missing points.  Repeated figure regenerations against a warm store are
pure cache reads.

Failure semantics (the PR-5 bugfix — see ``docs/sweeps.md``):

* only **pool creation/probe** failures (``OSError`` / ``PermissionError``
  / ``ImportError`` from spawning worker processes) degrade to the
  serial path — restricted sandboxes keep working;
* a **worker exception** — including ``OSError`` raised by ``fn``
  itself — propagates as
  :class:`~repro.util.errors.SweepPointError` with the failing grid
  point attached, never as a silent serial re-run of the whole grid
  (the pre-PR-5 behaviour double-executed every point and masked the
  error);
* a **broken pool** (worker process killed, not raising) is handled
  explicitly: the missing points are resubmitted to a fresh pool up to
  ``max_pool_restarts`` times, then
  :class:`~repro.util.errors.SweepPoolError` is raised.  Completed
  points persist either way when a checkpoint is active.

Worker functions must be module-level (picklable) and their parameters
picklable; with a checkpoint the parameters must additionally be
*canonical* (plain values / dataclasses / enums — see
:func:`repro.store.keys.canonicalize`), which the repo's campaign and
bench configs already are.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

from ..util.errors import (
    ConfigError,
    SweepInterrupted,
    SweepPointError,
    SweepPoolError,
)

__all__ = [
    "grid_points",
    "run_sweep",
    "default_workers",
    "PointExecutor",
    "PoolHealth",
]

T = TypeVar("T")
R = TypeVar("R")


def default_workers(n_points: int) -> int:
    """Worker count for ``n_points`` grid points on this machine.

    Never more workers than points, and never more than the CPUs this
    process may actually *run on*: ``os.sched_getaffinity(0)`` (where
    the platform provides it — Linux, some BSDs) reflects cgroup cpusets
    and taskset masks, so CI containers pinned to 2 cores get 2 workers
    rather than the host's 64.  On platforms without an affinity API
    (macOS, Windows) this falls back to ``os.cpu_count()``, which is the
    best available answer there.  At least one either way.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_points, cpus))


def grid_points(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """The cartesian product of named axes, in deterministic order.

    Axes iterate in keyword order; the *last* axis varies fastest
    (odometer order), matching nested ``for`` loops written in the same
    order.

    >>> grid_points(a=[1, 2], b=["x", "y"])
    [{'a': 1, 'b': 'x'}, {'a': 1, 'b': 'y'}, {'a': 2, 'b': 'x'}, {'a': 2, 'b': 'y'}]
    """
    names = list(axes)
    values = [list(v) for v in axes.values()]
    for name, vals in zip(names, values):
        if not vals:
            raise ConfigError(f"sweep axis {name!r} is empty")
    return [
        dict(zip(names, combo)) for combo in itertools.product(*values)
    ]


def _call_kwargs(fn: Callable[..., R], params: Mapping[str, Any]) -> R:
    return fn(**params)


def _pool_probe() -> int:
    """Trivial module-level task used to verify the pool can run work."""
    return 0


# ---------------------------------------------------------------------------
# observability hooks (duck-typed against repro.obs.ObsSession)
# ---------------------------------------------------------------------------


def _obs_call(obs: Any, hook: str, **kwargs: Any) -> None:
    if obs is None:
        return
    method = getattr(obs, hook, None)
    if method is not None:
        method(**kwargs)


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------


class _Checkpoint:
    """Binds one sweep invocation to a :class:`repro.store.ResultStore`."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        fn: Callable[..., Any],
        points: Sequence[Any],
        label: str,
    ) -> None:
        from ..store import (
            ResultStore,
            SweepManifest,
            code_fingerprint,
            point_key,
            worker_name,
        )

        self.store = ResultStore(Path(directory))
        self.store.ensure_dirs()
        fingerprint = code_fingerprint(fn)
        self.keys = [
            point_key(fn, p, fingerprint=fingerprint) for p in points
        ]
        self.manifest = SweepManifest(
            worker=worker_name(fn),
            fingerprint=fingerprint,
            keys=self.keys,
            label=label,
        )
        self.manifest.save(self.store.runs_dir)
        self._journal = self.manifest.journal_path(self.store.runs_dir)

    def load_completed(self) -> dict[int, Any]:
        """Results already in the store, by grid index.

        ``load`` runs only for keys ``has`` found, so every ``load`` call
        is a cache hit.
        """
        loaded: dict[int, Any] = {}
        for index, key in enumerate(self.keys):
            if not self.store.has(key):
                continue
            try:
                loaded[index] = self.store.load(key)
            except Exception:  # torn or foreign: missing
                continue
        return loaded

    def journal_hits(self, indices: Sequence[int]) -> None:
        """One journal line per cache hit, all in a single append."""
        from ..store import JournalEntry, append_journal

        ts = time.time()
        append_journal(self._journal, *(
            JournalEntry(index=i, key=self.keys[i], cached=True, wall_s=0.0, ts=ts)
            for i in indices
        ))

    def commit(self, index: int, value: Any, wall_s: float) -> None:
        """Persist one executed point + journal line (atomic, crash-safe)."""
        from ..store import JournalEntry, append_journal

        self.store.store(self.keys[index], value)
        append_journal(
            self._journal,
            JournalEntry(
                index=index,
                key=self.keys[index],
                cached=False,
                wall_s=wall_s,
                ts=time.time(),
            ),
        )

    def key_for(self, index: int) -> str:
        return self.keys[index]


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------


def _wrap_point_error(
    exc: BaseException, index: int, point: Any, key: str | None
) -> SweepPointError:
    return SweepPointError(
        f"sweep worker failed at grid point {index}: "
        f"{type(exc).__name__}: {exc} (point={point!r})",
        index=index,
        point=point,
        key=key,
    )


def run_sweep(
    fn: Callable[..., R],
    params: Sequence[Any],
    *,
    parallel: bool = True,
    max_workers: int | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
    resume: bool = True,
    obs: Any = None,
    label: str = "",
    stop_after: int | None = None,
    max_pool_restarts: int = 2,
) -> list[R]:
    """Evaluate ``fn`` over ``params``; results come back in grid order.

    Parameters
    ----------
    fn:
        Module-level callable.  Called as ``fn(**p)`` when a point is a
        mapping (the :func:`grid_points` convention), else ``fn(p)``.
    params:
        The grid points, already carrying their seeds.
    parallel:
        ``False`` forces the serial path (useful under profilers and in
        differential tests).
    max_workers:
        Process count; defaults to :func:`default_workers` over the
        *pending* (non-cached) point count.
    checkpoint:
        Directory of a :class:`repro.store.ResultStore`.  When given,
        every completed point is persisted under its content-addressed
        key as soon as it finishes (in completion order; the *return*
        stays in grid order), and a manifest + journal are written so
        ``python -m repro sweep status`` can narrate the run.
    resume:
        With a checkpoint, load already-completed points from the store
        instead of re-executing them (the default).  ``resume=False``
        re-executes and overwrites every point (a forced cold run).
    obs:
        Optional :class:`repro.obs.ObsSession` (duck-typed):
        ``sweep_begin`` / ``sweep_point`` / ``sweep_end`` hooks receive
        per-point spans and cache-hit metrics.
    label:
        Human-readable tag recorded in the manifest and obs spans.
    stop_after:
        Execute at most this many *pending* points, then raise
        :class:`~repro.util.errors.SweepInterrupted` if any remain —
        the time-boxed batch-job mode (and what the CI ``sweep-smoke``
        job uses to simulate a mid-flight kill).  Cached points never
        count against the budget.
    max_pool_restarts:
        How many fresh pools to build after ``BrokenProcessPool`` before
        giving up with :class:`~repro.util.errors.SweepPoolError`.

    Failure semantics are documented in the module docstring: worker
    exceptions propagate (wrapped in
    :class:`~repro.util.errors.SweepPointError` with the failing point
    attached); only pool *creation* failures degrade to serial.

    The serial, parallel, crashed-then-resumed and warm-cache paths are
    differentially tested to return identical results
    (``tests/test_perf_sweep.py``, ``tests/test_sweep_resume.py``).
    """
    points = list(params)
    if not points:
        return []
    if stop_after is not None and stop_after < 1:
        raise ConfigError(f"stop_after must be >= 1 or None, got {stop_after}")
    if max_pool_restarts < 0:
        raise ConfigError(
            f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
        )

    ckpt = (
        _Checkpoint(checkpoint, fn, points, label)
        if checkpoint is not None
        else None
    )

    results: dict[int, Any] = {}
    cached_hits = 0
    if ckpt is not None and resume:
        loaded = ckpt.load_completed()
        cached_hits = len(loaded)
        results.update(loaded)

    n = len(points)
    pending = [i for i in range(n) if i not in results]
    to_run = pending if stop_after is None else pending[: stop_after]
    deferred = len(pending) - len(to_run)

    started = time.perf_counter()
    _obs_call(
        obs, "sweep_begin",
        label=label, total=n, cached=cached_hits, pending=len(to_run),
    )
    if ckpt is not None:
        hits = sorted(results)
        ckpt.journal_hits(hits)
        if obs is not None:
            for index in hits:
                _obs_call(
                    obs, "sweep_point",
                    index=index, key=ckpt.key_for(index), cached=True,
                    wall_s=0.0,
                )

    def call(p: Any) -> R:
        if isinstance(p, Mapping):
            return fn(**p)
        return fn(p)

    def commit(index: int, value: Any, wall_s: float) -> None:
        results[index] = value
        if ckpt is not None:
            ckpt.commit(index, value, wall_s)
        _obs_call(
            obs, "sweep_point",
            index=index,
            key=ckpt.key_for(index) if ckpt is not None else None,
            cached=False,
            wall_s=wall_s,
        )

    def run_serial(indices: Sequence[int]) -> None:
        for index in indices:
            t0 = time.perf_counter()
            try:
                value = call(points[index])
            except Exception as exc:
                raise _wrap_point_error(
                    exc, index, points[index],
                    ckpt.key_for(index) if ckpt is not None else None,
                ) from exc
            commit(index, value, time.perf_counter() - t0)

    workers = (
        max_workers if max_workers is not None
        else default_workers(max(1, len(to_run)))
    )
    if workers < 1:
        raise ConfigError(f"max_workers must be >= 1, got {workers}")

    if to_run:
        if not parallel or workers == 1 or len(to_run) == 1:
            run_serial(to_run)
        else:
            pool = _try_make_pool(workers)
            if pool is None:
                # No subprocess support on this platform (pool creation /
                # probe failed): degrade to serial.  Worker errors beyond
                # this point always propagate.
                run_serial(to_run)
            else:
                _run_pool(
                    pool, workers, fn, points, to_run, results, commit,
                    ckpt, max_pool_restarts,
                )

    executed = len(to_run)
    wall_s = time.perf_counter() - started
    _obs_call(
        obs, "sweep_end",
        label=label, executed=executed, cached=cached_hits, wall_s=wall_s,
    )

    if deferred:
        raise SweepInterrupted(
            f"sweep stopped after {executed} executed point(s); "
            f"{deferred} remaining (resume with the same checkpoint)",
            remaining=deferred,
        )
    return [results[i] for i in range(n)]


def _try_make_pool(workers: int) -> Any:
    """A probed ``ProcessPoolExecutor``, or ``None`` when the platform
    cannot spawn/run worker processes (the *only* serial-fallback path)."""
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:
        return None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError, ImportError):
        return None
    try:
        # The executor spawns its processes lazily; push one trivial task
        # through so "this sandbox cannot fork/exec/sem_open" surfaces
        # here — and never gets conflated with a real worker exception.
        if pool.submit(_pool_probe).result() != 0:
            raise OSError("pool probe returned garbage")
    except (OSError, PermissionError, ImportError, BrokenProcessPool):
        pool.shutdown(wait=False, cancel_futures=True)
        return None
    except Exception:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    return pool


def _run_pool(
    pool: Any,
    workers: int,
    fn: Callable[..., Any],
    points: Sequence[Any],
    to_run: Sequence[int],
    results: dict[int, Any],
    commit: Callable[[int, Any, float], None],
    ckpt: _Checkpoint | None,
    max_pool_restarts: int,
) -> None:
    """Dispatch ``to_run`` over ``pool``; persist as futures complete.

    ``BrokenProcessPool`` (a worker *process* died — OOM kill, hard
    crash) resubmits only the still-missing points to a fresh pool, up
    to ``max_pool_restarts`` times.  A worker *exception* cancels the
    rest and propagates as :class:`SweepPointError`.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    restarts = 0
    try:
        while True:
            missing = [i for i in to_run if i not in results]
            if not missing:
                return
            submit_t0 = time.perf_counter()
            future_to_index = {}
            for index in missing:
                p = points[index]
                if isinstance(p, Mapping):
                    future = pool.submit(_call_kwargs, fn, dict(p))
                else:
                    future = pool.submit(fn, p)
                future_to_index[future] = index
            broken = False
            try:
                for future in as_completed(future_to_index):
                    index = future_to_index[future]
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    except Exception as exc:
                        error = _wrap_point_error(
                            exc, index, points[index],
                            ckpt.key_for(index) if ckpt is not None else None,
                        )
                        # Cancel what hasn't started, then *drain* the
                        # in-flight futures so no worker is still running
                        # (with side effects) after we raise; their
                        # successes are committed to the checkpoint.
                        for other in future_to_index:
                            other.cancel()
                        for other, oidx in future_to_index.items():
                            if other is future or other.cancelled():
                                continue
                            try:
                                ovalue = other.result()
                            except Exception:
                                continue  # secondary failure: first wins
                            commit(
                                oidx, ovalue,
                                time.perf_counter() - submit_t0,
                            )
                        raise error from exc
                    # Persist in completion order; the *return* is
                    # reassembled in grid order by the caller.
                    commit(index, value, time.perf_counter() - submit_t0)
            except BrokenProcessPool:
                broken = True
            if not broken:
                continue  # loop re-checks `missing`; exits when empty
            pool.shutdown(wait=False, cancel_futures=True)
            restarts += 1
            still_missing = sum(1 for i in to_run if i not in results)
            if restarts > max_pool_restarts:
                raise SweepPoolError(
                    f"process pool broke {restarts} time(s); giving up with "
                    f"{still_missing} point(s) missing (completed points "
                    f"{'are checkpointed' if ckpt is not None else 'were kept in memory'})"
                )
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(workers, max(1, still_missing))
                )
            except (OSError, PermissionError, ImportError) as exc:
                raise SweepPoolError(
                    f"could not rebuild the process pool after a crash: {exc}"
                ) from exc
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# single-point execution service (the repro.serve cold path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PoolHealth:
    """One snapshot of a :class:`PointExecutor`'s pool state.

    ``mode`` is the *resolved* execution mode (``process`` / ``thread``
    / ``inline``), ``restarts`` how many times the pool was torn down
    and rebuilt (timeout reclaims, broken pools, chaos worker kills),
    ``submitted``/``cancelled`` the lifetime dispatch counters, and
    ``abandoned`` how many running attempts could not be cancelled and
    were reclaimed by a pool restart instead.
    """

    mode: str
    workers: int
    restarts: int
    submitted: int
    cancelled: int
    abandoned: int
    alive: bool


class PointExecutor:
    """Cancellable single-point execution with health reporting.

    Where :func:`run_sweep` fans a whole grid out and reassembles it,
    the job server (:mod:`repro.serve`) dispatches *individual* points
    with per-attempt timeouts and needs three things the grid runner
    doesn't: futures it can await/cancel one at a time, a way to reclaim
    a worker stuck past its timeout (tear the pool down and rebuild it),
    and a health snapshot the breaker/obs layers can export.

    ``mode`` selects the backend: ``"process"`` requires a working
    :class:`~concurrent.futures.ProcessPoolExecutor` (probed, as in
    :func:`run_sweep`) and raises :class:`SweepPoolError` when the
    platform can't; ``"thread"`` uses a thread pool (no true preemption
    — an abandoned attempt runs to completion in the background);
    ``"inline"`` executes synchronously at submit time (test-only, no
    timeouts); ``"auto"`` (default) tries process and degrades to
    thread, mirroring the sweep runtime's sandbox behaviour.
    """

    _MODES = ("auto", "process", "thread", "inline")

    def __init__(self, max_workers: int = 1, mode: str = "auto") -> None:
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if mode not in self._MODES:
            raise ConfigError(
                f"executor mode must be one of {self._MODES}, got {mode!r}"
            )
        self.max_workers = max_workers
        self.requested_mode = mode
        self.mode = "inline" if mode == "inline" else ""
        self._pool: Any = None
        self._restarts = 0
        self._submitted = 0
        self._cancelled = 0
        self._abandoned = 0
        self._closed = False

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> Any:
        if self._closed:
            raise SweepPoolError("PointExecutor is shut down")
        if self.mode == "inline":
            return None
        if self._pool is not None:
            return self._pool
        if self.requested_mode in ("auto", "process"):
            pool = _try_make_pool(self.max_workers)
            if pool is not None:
                self._pool, self.mode = pool, "process"
                return pool
            if self.requested_mode == "process":
                raise SweepPoolError(
                    "this platform cannot run a probed process pool "
                    "(mode='process' was required)"
                )
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        self.mode = "thread"
        return self._pool

    def restart(self) -> None:
        """Tear the pool down (cancelling queued work) and rebuild lazily."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._restarts += 1

    def shutdown(self) -> None:
        """Release the pool; further submits raise :class:`SweepPoolError`."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._closed = True

    # -- dispatch ------------------------------------------------------------

    def submit(self, fn: Callable[..., Any], point: Any) -> Any:
        """Dispatch ``fn`` at ``point``; returns a ``concurrent.futures``
        future (already resolved in inline mode).

        Mapping points follow the :func:`grid_points` convention
        (``fn(**point)``); anything else is passed positionally.
        """
        self._submitted += 1
        if self.mode == "inline" or (
            self.requested_mode == "inline" and self._pool is None
        ):
            from concurrent.futures import Future

            future: Any = Future()
            try:
                value = (
                    fn(**point) if isinstance(point, Mapping) else fn(point)
                )
            except BaseException as exc:  # resolved future carries it
                future.set_exception(exc)
            else:
                future.set_result(value)
            return future
        pool = self._ensure_pool()
        if isinstance(point, Mapping):
            return pool.submit(_call_kwargs, fn, dict(point))
        return pool.submit(fn, point)

    def reclaim(self, future: Any) -> bool:
        """Free ``future``'s slot after a timeout/abandon.

        Returns True when plain cancellation sufficed (the attempt never
        started); otherwise the attempt is already running on a worker
        that cannot be preempted, so the pool is restarted to reclaim
        the slot (counted in :class:`PoolHealth`) and this returns
        False.
        """
        if future.cancel():
            self._cancelled += 1
            return True
        if future.done():
            return True
        self._abandoned += 1
        self.restart()
        return False

    def run(
        self, fn: Callable[..., Any], point: Any, timeout: float | None = None
    ) -> Any:
        """Synchronous convenience: submit, wait up to ``timeout``.

        Raises :class:`TimeoutError` after reclaiming the slot, and
        :class:`SweepPoolError` (after an internal restart) when the
        worker process died rather than raised.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout

        future = self.submit(fn, point)
        try:
            return future.result(timeout)
        except FuturesTimeout:
            self.reclaim(future)
            raise TimeoutError(
                f"point execution exceeded {timeout}s (slot reclaimed)"
            ) from None
        except SweepPoolError:
            raise
        except BaseException as exc:
            if self._is_broken_pool(exc):
                self.restart()
                raise SweepPoolError(
                    f"worker process died mid-point: {exc}"
                ) from exc
            raise

    @staticmethod
    def _is_broken_pool(exc: BaseException) -> bool:
        """True for executor-infrastructure deaths (vs worker exceptions)."""
        try:
            from concurrent.futures import BrokenExecutor
        except ImportError:  # pragma: no cover - py<3.8 only
            return False
        return isinstance(exc, BrokenExecutor)

    # -- chaos + health ------------------------------------------------------

    def kill_worker(self) -> int | None:
        """SIGKILL one live pool worker (chaos hook).

        Only meaningful in process mode — returns the killed pid, or
        ``None`` when there is no killable worker (thread/inline modes,
        or no pool yet); callers emulating worker death on those
        backends should inject a :class:`SweepPoolError` instead (see
        :mod:`repro.faults.chaos`).
        """
        if self.mode != "process" or self._pool is None:
            return None
        import signal

        processes = getattr(self._pool, "_processes", None) or {}
        for pid in list(processes):
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # already gone
                continue
            return pid
        return None

    def health(self) -> PoolHealth:
        """Current :class:`PoolHealth` snapshot."""
        return PoolHealth(
            mode=self.mode or self.requested_mode,
            workers=self.max_workers,
            restarts=self._restarts,
            submitted=self._submitted,
            cancelled=self._cancelled,
            abandoned=self._abandoned,
            alive=not self._closed
            and (self.mode == "inline" or self._pool is not None),
        )
