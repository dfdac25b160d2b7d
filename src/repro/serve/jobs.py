"""Job records and the workload registry for the job server.

A *workload* is a named, registered function ``fn(**point) -> result``
— the same calling convention as :func:`repro.perf.sweep.run_sweep`
workers, so anything sweepable is servable.  Workloads must be
module-level (picklable) to survive the process-pool path.

A *job* is one tenant request to evaluate one workload at one point,
with a priority and a wall-clock deadline.  :class:`JobRequest` is the
immutable submission; :class:`JobRecord` is the server-side mutable
state machine (QUEUED → RUNNING → terminal).  Both round-trip through
JSON so the file-spool CLI and the crash-recovery journal can carry
them.

The built-in ``wl_*`` workloads exist for tests, the chaos harness and
the load-generator bench: they are cheap, deterministic, and the
side-effecting ones (``wl_count``, ``wl_flaky``) leave auditable marker
files so exactly-once execution is *observable*, not just asserted.
"""

from __future__ import annotations

import enum
import json
import time
import uuid
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from ..store.keys import canonical_json
from ..util.errors import ConfigError, ServeError
from ..workloads.runner import evaluate_workload_point

__all__ = [
    "JobState",
    "JobRequest",
    "JobRecord",
    "register_workload",
    "resolve_workload",
    "workload_names",
    "wl_noop",
    "wl_sleep",
    "wl_count",
    "wl_flaky",
    "wl_crc_epochs",
]


class JobState(enum.Enum):
    """Lifecycle of a served job; terminal states carry an outcome."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    EXPIRED = "expired"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        """True once the job can never change state again."""
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.EXPIRED,
            JobState.REJECTED,
        )


@dataclass(frozen=True, slots=True)
class JobRequest:
    """One tenant's request: evaluate ``workload`` at ``point``.

    ``deadline_s`` is a *relative* budget in seconds from submission
    (``None``: server default); the server converts it to an absolute
    wall-clock deadline at admission.  ``job_id`` is assigned if empty.
    """

    tenant: str
    workload: str
    point: Mapping[str, Any]
    priority: int = 0
    deadline_s: float | None = None
    job_id: str = ""

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigError("tenant must be non-empty")
        if not self.workload:
            raise ConfigError("workload must be non-empty")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be > 0 or None, got {self.deadline_s}"
            )
        if not self.job_id:
            object.__setattr__(self, "job_id", uuid.uuid4().hex[:16])
        # Fail at submission, not at execution, on unserializable points.
        canonical_json(dict(self.point))

    def to_json(self) -> str:
        """Single-line JSON for spool files and journals.

        Plain JSON, not :func:`~repro.store.keys.canonical_json` — the
        canonical form tags floats for injective hashing, which must
        not leak into the round-tripped point payload.  Spooled points
        are therefore restricted to the JSON vocabulary (which is what
        the CLI accepts anyway).
        """
        return json.dumps(
            {
                "tenant": self.tenant,
                "workload": self.workload,
                "point": dict(self.point),
                "priority": self.priority,
                "deadline_s": self.deadline_s,
                "job_id": self.job_id,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "JobRequest":
        """Inverse of :meth:`to_json`."""
        raw = json.loads(line)
        return cls(
            tenant=raw["tenant"],
            workload=raw["workload"],
            point=raw["point"],
            priority=int(raw.get("priority", 0)),
            deadline_s=raw.get("deadline_s"),
            job_id=raw.get("job_id", ""),
        )


@dataclass(slots=True)
class JobRecord:
    """Server-side view of one job: request + mutable progress."""

    request: JobRequest
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    deadline_at: float = 0.0
    attempts: int = 0
    cache: str | None = None  #: "warm" | "cold" | "stale" once resolved
    result: Any = None
    error: str | None = None  #: Serve* class name for non-DONE terminals
    detail: str | None = None
    finished_at: float | None = None

    @property
    def latency_s(self) -> float:
        """Submission-to-terminal wall time (0.0 while in flight)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    def finish(
        self,
        state: JobState,
        *,
        cache: str | None = None,
        result: Any = None,
        error: BaseException | None = None,
        now: float | None = None,
    ) -> None:
        """Move to a terminal state exactly once."""
        if self.state.terminal:
            raise ServeError(
                f"job {self.request.job_id} already terminal ({self.state.value})"
            )
        if not state.terminal:
            raise ServeError(f"finish() needs a terminal state, got {state}")
        self.state = state
        self.cache = cache
        self.result = result
        if error is not None:
            self.error = type(error).__name__
            self.detail = str(error)
        self.finished_at = time.time() if now is None else now

    def status(self) -> dict[str, Any]:
        """JSON-safe status snapshot for the CLI / API."""
        return {
            "job_id": self.request.job_id,
            "tenant": self.request.tenant,
            "workload": self.request.workload,
            "state": self.state.value,
            "attempts": self.attempts,
            "cache": self.cache,
            "error": self.error,
            "detail": self.detail,
            "latency_s": round(self.latency_s, 6) if self.finished_at else None,
        }


# --------------------------------------------------------------------------
# Workload registry
# --------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., Any]] = {}


def register_workload(name: str, fn: Callable[..., Any]) -> None:
    """Register ``fn`` under ``name``; re-registering a name is an error."""
    if not name:
        raise ConfigError("workload name must be non-empty")
    if name in _REGISTRY and _REGISTRY[name] is not fn:
        raise ConfigError(f"workload {name!r} already registered")
    _REGISTRY[name] = fn


def resolve_workload(name: str) -> Callable[..., Any]:
    """Look up a registered workload; raise ``ServeError`` on miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ServeError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> list[str]:
    """Sorted names of all registered workloads."""
    return sorted(_REGISTRY)


def wl_noop(**point: Any) -> dict[str, Any]:
    """Echo the point back — the cheapest possible workload."""
    return {"ok": True, "point": dict(point)}


def wl_sleep(*, duration_s: float = 0.05, **point: Any) -> dict[str, Any]:
    """Sleep ``duration_s`` then echo — for deadline/timeout tests."""
    time.sleep(duration_s)
    return {"ok": True, "slept_s": duration_s, "point": dict(point)}


def wl_count(*, marker: str, tag: str = "x", **point: Any) -> dict[str, Any]:
    """Append one line to ``marker`` per *execution* (not per request).

    The line count is the ground truth for exactly-once assertions: if a
    point deduped against the store, the file gained nothing.
    """
    with open(marker, "a", encoding="utf-8") as fh:
        fh.write(f"{tag}\n")
    return {"ok": True, "tag": tag, "point": dict(point)}


def wl_flaky(
    *, marker: str, fail_times: int = 1, tag: str = "x", **point: Any
) -> dict[str, Any]:
    """Fail the first ``fail_times`` executions, then succeed.

    Execution count persists in ``marker`` (one line per call), so the
    flakiness survives process-pool worker churn and server restarts —
    which is exactly what retry/breaker tests need.
    """
    with open(marker, "a", encoding="utf-8") as fh:
        fh.write(f"{tag}\n")
    with open(marker, encoding="utf-8") as fh:
        calls = sum(1 for _ in fh)
    if calls <= fail_times:
        raise RuntimeError(f"wl_flaky: induced failure {calls}/{fail_times}")
    return {"ok": True, "calls": calls, "point": dict(point)}


def wl_crc_epochs(
    *, words: int = 32, flip_every: int = 4, seed: int = 0
) -> dict[str, Any]:
    """A real (tiny) P-sync workload: CRC reject rate for one transfer.

    Frames ``words`` integers through the recovery layer's CRC-16 frame
    codec, flips one bit in every ``flip_every``-th frame (seeded
    position), and reports how many frames the head node would NACK —
    the per-point quantity behind the paper's effective-bandwidth model.
    """
    import random

    from ..faults.crc import check_frame, flip_bits, frame_bits, pack_word

    rng = random.Random(seed)
    rejected = 0
    for i in range(words):
        frame = pack_word(i * 131 + seed)
        if flip_every and i % flip_every == 0:
            frame = flip_bits(frame, [rng.randrange(frame_bits(frame))])
        if not check_frame(frame):
            rejected += 1
    return {"ok": True, "words": words, "rejected": rejected}


def wl_mesh_transpose(
    *,
    processors: int = 16,
    row_samples: int = 4,
    reorder_cycles: int = 4,
    engine: str = "reference",
) -> dict[str, Any]:
    """The mesh transpose gather at one grid point, on a chosen engine.

    ``engine`` is part of the point payload — and therefore of the
    content-addressed store key — so a ``compiled`` result can never
    alias a ``reference`` one.  ``engine="compiled"`` makes paper-scale
    points (1024 processors) servable in milliseconds; out-of-domain
    points fail the job with the structured
    ``EngineUnsupportedError`` message rather than degrading silently.
    """
    from ..analysis.transpose_model import measure_mesh_transpose

    measured = measure_mesh_transpose(
        processors, row_samples,
        reorder_cycles=reorder_cycles, engine=engine,
    )
    return {
        "ok": True,
        "engine": engine,
        "processors": processors,
        "row_samples": row_samples,
        "reorder_cycles": reorder_cycles,
        "mesh_cycles": measured.mesh_cycles,
        "pscan_cycles": measured.pscan_cycles,
        "multiplier": measured.multiplier,
    }


for _name, _fn in (
    ("noop", wl_noop),
    ("sleep", wl_sleep),
    ("count", wl_count),
    ("flaky", wl_flaky),
    ("crc_epochs", wl_crc_epochs),
    ("mesh_transpose", wl_mesh_transpose),
    # The sweep worker itself, not a wrapper: a store key names its
    # worker, so this is what lets `repro sweep run --workload zoo`
    # results answer serve requests (and the other way round).
    ("workload", evaluate_workload_point),
):
    register_workload(_name, _fn)
