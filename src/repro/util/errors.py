"""Exception hierarchy for the P-sync reproduction.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch a single base class.  Specific subclasses mark
the subsystem that failed; the simulation kernel, the photonic physical
layer and the PSCAN scheduler each have dedicated types because their
failure modes are part of the system's contract (e.g. a
:class:`CollisionError` on the waveguide means a communication-program bug,
not a library bug).

Recoverable vs. terminal faults
-------------------------------
The :class:`FaultError` branch models *injected hardware faults* (see
:mod:`repro.faults`) and has an explicit recoverability contract:

* :class:`TransientFaultError` — a fault that a retry can clear: a
  photodetector bit error, a thermal ring-drift episode, a dropped FIFO
  word.  Recovery machinery (CRC + retransmission epochs, fault-aware
  rerouting) is *expected* to catch these; library code raises them only
  when no recovery layer is installed to absorb the fault.
* :class:`PermanentFaultError` — a fault that retrying the same resource
  cannot clear: a dead waveguide segment, a failed router, a stuck mesh
  link.  Recovery means routing *around* the resource; when no alternate
  path exists the error is terminal.
* :class:`RetryExhaustedError` — the recovery machinery itself gave up:
  the configured retry cap was reached with the fault still active.
  Always terminal; carries the residual failure set so callers can report
  partial delivery.

Everything *outside* the ``FaultError`` branch keeps its original
meaning: a modelling-contract violation (bad schedule, blown link
budget, kernel misuse) that indicates a bug in the caller's setup, not a
simulated hardware fault, and is therefore always terminal.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """A configuration object failed validation (bad parameter value)."""


class EngineUnsupportedError(ConfigError):
    """A fast/analytic engine was asked to simulate outside its contract.

    The compiled mesh engine (``MeshConfig(engine="compiled")``) trades
    generality for speed: it evaluates deterministic, fault-free
    transposes in closed form and refuses everything else **loudly** —
    silently falling back to a flit simulation would make "compiled"
    mean "sometimes compiled", and silently producing approximate
    numbers would poison differential baselines.  Callers that want
    graceful degradation catch this error and re-run with
    ``engine="reference"`` explicitly.

    ``engine`` names the engine that refused, ``feature`` the unsupported
    capability (machine-readable token, e.g. ``"fault_injection"`` or
    ``"multiple_sinks"``), and ``reason`` the human explanation.
    """

    def __init__(self, engine: str, feature: str, reason: str) -> None:
        super().__init__(
            f"engine {engine!r} does not support {feature}: {reason}"
        )
        self.engine = engine
        self.feature = feature
        self.reason = reason

    def __reduce__(self):
        # Exception's default reduce replays ``args`` (the formatted
        # message) into ``__init__``, which takes three positionals —
        # so the default makes this error unpicklable and a process-pool
        # worker raising it would break the whole pool on unpickle.
        return (type(self), (self.engine, self.feature, self.reason))


class SimulationError(ReproError, RuntimeError):
    """The discrete-event kernel detected an inconsistent state."""


class ProcessError(SimulationError):
    """A simulation process misused the kernel API (bad yield, dead event)."""


class PhotonicsError(ReproError):
    """The photonic physical layer rejected an operation."""


class LinkBudgetError(PhotonicsError, ValueError):
    """Signal power fell below the photodiode detection threshold (Eq. 1)."""


class CollisionError(PhotonicsError, RuntimeError):
    """Two modulators drove the same wavelength at the same waveguide cycle.

    In PSCAN, communication programs must be disjoint; a collision means
    the global schedule was malformed.
    """


class ScheduleError(ReproError, ValueError):
    """A communication-program schedule is invalid (overlap, gap, bounds)."""


class NetworkError(ReproError, RuntimeError):
    """The electronic mesh simulator detected a protocol violation."""


class RoutingError(NetworkError):
    """A packet could not be routed (off-mesh destination, no progress)."""


class MemoryModelError(ReproError, ValueError):
    """The DRAM model was driven outside its geometry (bad row/burst)."""


class ValidationError(ReproError, ValueError):
    """An exported artifact failed a schema/contract check.

    Raised by the observability layer when a Chrome ``trace_event``
    object is malformed (missing required keys, unknown phase, or a
    timestamp that goes backwards on a track).
    """


class FaultError(ReproError, RuntimeError):
    """Base class for injected-hardware-fault errors (see module docstring).

    Raised by the :mod:`repro.faults` machinery and by fault-aware code
    paths in the simulators.  Subclasses encode recoverability.
    """


class TransientFaultError(FaultError):
    """A retryable fault: bit error, drift episode, dropped word.

    A retry of the *same* operation on the *same* resource may succeed.
    """


class PermanentFaultError(FaultError):
    """A non-retryable fault: dead link, failed router, stuck device.

    Retrying the same resource cannot succeed; recovery requires an
    alternate resource (e.g. rerouting around a dead mesh link).
    """


class RetryExhaustedError(FaultError):
    """Recovery gave up: the retry cap was hit with the fault still active.

    ``residual`` (when provided) lists the still-failing units — e.g.
    ``(node, word_index)`` pairs of a gather that never arrived intact.
    """

    def __init__(self, message: str, residual: list | None = None) -> None:
        super().__init__(message)
        self.residual = list(residual) if residual is not None else []


class SweepError(ReproError, RuntimeError):
    """Base class for parameter-sweep runtime failures (:mod:`repro.perf.sweep`).

    The sweep runtime never silently degrades a *worker* failure into a
    serial re-run of the grid (that was a real bug: a single ``OSError``
    from a worker re-executed — and double-executed — every point).
    Worker failures surface as :class:`SweepPointError`; infrastructure
    failures as :class:`SweepPoolError`; a deliberately bounded run stops
    with :class:`SweepInterrupted` (completed points stay checkpointed).
    """


class SweepPointError(SweepError):
    """One grid point's worker raised; carries the point for triage.

    ``index`` is the point's position in grid order, ``point`` the
    parameter payload that was dispatched, ``key`` the content-addressed
    store key (``None`` when the sweep ran without a checkpoint).  The
    worker's original exception is chained as ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        point: object = None,
        key: str | None = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.point = point
        self.key = key

    def __reduce__(self):
        # The ctor is keyword-only, so Exception's default reduce (which
        # replays ``args`` positionally) cannot rebuild this error.  The
        # batched campaign workers raise it *inside* pool processes to
        # name the failing (seed, point) lane, so it must survive the
        # executor's pickle round-trip (same precedent as
        # :class:`EngineUnsupportedError`).
        return (
            _rebuild_sweep_point_error,
            (
                type(self),
                self.args[0] if self.args else "",
                self.index,
                self.point,
                self.key,
            ),
        )


def _rebuild_sweep_point_error(cls, message, index, point, key):
    """Unpickle helper for :class:`SweepPointError` (kw-only ctor)."""
    return cls(message, index=index, point=point, key=key)


class SweepPoolError(SweepError):
    """The process pool broke repeatedly (workers dying, not raising).

    Raised only after the sweep runtime has already rebuilt the pool and
    resubmitted the missing points ``max_pool_restarts`` times; the
    checkpoint (when enabled) retains every point that did complete.
    """


class SweepInterrupted(SweepError):
    """A bounded sweep (``stop_after=N``) stopped with points remaining.

    Not a failure: the ``remaining`` points are simply still pending, and
    a resumed run (``resume=True`` with the same checkpoint) picks up
    exactly where this one stopped.
    """

    def __init__(self, message: str, *, remaining: int) -> None:
        super().__init__(message)
        self.remaining = remaining


class ServeError(ReproError, RuntimeError):
    """Base class for job-service failures (:mod:`repro.serve`).

    Every ``Serve*`` error carries an explicit **retryable** flag, the
    serving layer's recoverability contract (mirroring the
    :class:`FaultError` branch): ``retryable=True`` means the *same*
    request resubmitted later may succeed (quota pressure, an open
    breaker, a timed-out attempt); ``retryable=False`` means resubmitting
    the identical request is pointless (its deadline passed, its worker
    fails deterministically).  :func:`is_retryable` is the one
    classification point both the server's retry loop and clients use.
    """

    #: Whether resubmitting the same request later can succeed.
    retryable: bool = False


class ServeQuotaError(ServeError):
    """Admission control rejected the request (tenant quota / queue full).

    Retryable: quotas free up as the tenant's in-flight jobs finish.
    """

    retryable = True


class ServeDrainingError(ServeError):
    """The server is draining and no longer admits new requests.

    Retryable: a restarted or different server instance can take it.
    """

    retryable = True


class ServeDeadlineError(ServeError):
    """The request's deadline expired before a result was produced.

    Terminal for this request — the answer would arrive too late by the
    client's own definition.  A *new* request with a fresh deadline is of
    course fine, which is exactly why this is not ``retryable``: the
    request as submitted can never succeed.
    """

    retryable = False


class ServeAttemptTimeout(ServeError):
    """One cold execution attempt exceeded its per-attempt timeout.

    Retryable: the server's own retry loop catches this, backs off (with
    deterministic seeded jitter) and redispatches while the request
    deadline allows.
    """

    retryable = True


class ServeCircuitOpenError(ServeError):
    """Cold execution refused: the worker-pool circuit breaker is open
    and no stale result exists to degrade onto.

    Retryable: the breaker half-opens after its cooldown and closes
    again once probes succeed.
    """

    retryable = True


class ServeWorkerError(ServeError):
    """The job's worker raised a (deterministic) exception.

    Terminal: the sweep workers are pure functions of their payload, so
    re-running the identical point reproduces the same failure.  The
    worker's original exception is chained as ``__cause__``.
    """

    retryable = False


class ServeRetryExhaustedError(ServeError):
    """The per-request attempt cap was reached with no attempt succeeding.

    Terminal for this request; the *last* attempt's failure is chained
    as ``__cause__`` so triage sees what kept happening.
    """

    retryable = False


def is_retryable(exc: BaseException) -> bool:
    """The serving layer's recoverability classification of ``exc``.

    ``Serve*`` errors answer for themselves via their ``retryable``
    flag.  Outside that branch: transient injected faults and sweep
    *infrastructure* failures (a broken pool — the worker process died,
    the code didn't raise) are retryable; everything else — including
    :class:`SweepPointError`, a deterministic worker exception — is not.
    """
    if isinstance(exc, ServeError):
        return bool(exc.retryable)
    if isinstance(exc, (TransientFaultError, SweepPoolError)):
        return True
    return False
