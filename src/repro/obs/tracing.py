"""Structured span/event tracing for the observability layer.

:class:`SpanTracer` records *categorized, named events on tracks* — the
shape the Chrome ``trace_event`` format (and Perfetto) consumes
directly:

* ``instant``  — a point occurrence (a flit delivered, a word modulated);
* ``begin`` / ``end`` — an open span (a retransmission epoch, a run);
* ``complete`` — a span with a known duration (an llmore phase);
* ``counter``  — a sampled numeric series (queue depth, flits in flight).

Design constraints inherited from the simulators this instruments:

* **Near-zero-overhead disabled path.**  Every recording method returns
  immediately when ``enabled`` is False, before touching its arguments.
  Callers on hot paths should additionally guard with ``if tracer.enabled:``
  so no payload object is ever constructed; lazily-evaluated payloads
  (``args`` as a zero-argument callable) are only invoked when enabled.
* **Ring-buffer capped mode.**  ``max_events=N`` keeps only the newest
  ``N`` events (oldest silently dropped, counted in ``dropped``), so
  week-long benchmark runs can leave tracing on without exhausting
  memory.  Uncapped mode appends to a plain list.
* **Explicit clock.**  The tracer does not own a clock; it is bound to a
  zero-argument callable (``lambda: sim.now`` for event simulations,
  ``lambda: float(net.cycle)`` for the cycle-based meshes, or a wall
  clock for sweeps and the benchmark ledger).  Every method also accepts an explicit
  ``ts`` so mixed-domain sessions can stamp events themselves.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from ..util.errors import ConfigError

__all__ = ["TraceEvent", "SpanTracer", "wall_clock_us"]

#: Valid event phases, mirroring the Chrome trace_event vocabulary.
PHASES = ("B", "E", "i", "C", "X")


def wall_clock_us() -> float:
    """Monotonic wall-clock in microseconds (the wall-clock span domain)."""
    return time.perf_counter() * 1e6


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One trace event.

    ``ts`` (and ``dur`` for complete events) are in the producing
    session's time unit — nanoseconds for event simulations, cycles for
    the meshes; the Chrome exporter maps them onto the trace timebase.
    """

    ts: float
    ph: str
    cat: str
    name: str
    track: str = "main"
    dur: float = 0.0
    args: Any = None


class SpanTracer:
    """Categorized event/span recorder; see module docstring."""

    __slots__ = ("enabled", "max_events", "dropped", "_events", "_clock")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        enabled: bool = True,
        max_events: int | None = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ConfigError(f"max_events must be >= 1 or None, got {max_events}")
        self.enabled = enabled
        self.max_events = max_events
        #: Events discarded by the ring buffer (capped mode only).
        self.dropped = 0
        self._events: Any = (
            deque(maxlen=max_events) if max_events is not None else []
        )
        self._clock = clock if clock is not None else (lambda: 0.0)

    # -- recording ----------------------------------------------------------

    def _push(self, event: TraceEvent) -> None:
        events = self._events
        if self.max_events is not None and len(events) == self.max_events:
            self.dropped += 1
        events.append(event)

    def _resolve(self, ts: float | None, args: Any) -> tuple[float, Any]:
        if ts is None:
            ts = self._clock()
        if callable(args):
            args = args()
        return ts, args

    def instant(
        self,
        cat: str,
        name: str,
        track: str = "main",
        ts: float | None = None,
        args: Any = None,
    ) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        ts, args = self._resolve(ts, args)
        self._push(TraceEvent(ts, "i", cat, name, track, 0.0, args))

    def begin(
        self,
        cat: str,
        name: str,
        track: str = "main",
        ts: float | None = None,
        args: Any = None,
    ) -> None:
        """Open a span on ``track`` (close with :meth:`end`, LIFO per track)."""
        if not self.enabled:
            return
        ts, args = self._resolve(ts, args)
        self._push(TraceEvent(ts, "B", cat, name, track, 0.0, args))

    def end(
        self,
        cat: str,
        name: str,
        track: str = "main",
        ts: float | None = None,
        args: Any = None,
    ) -> None:
        """Close the most recent open span with this name on ``track``."""
        if not self.enabled:
            return
        ts, args = self._resolve(ts, args)
        self._push(TraceEvent(ts, "E", cat, name, track, 0.0, args))

    def complete(
        self,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        track: str = "main",
        args: Any = None,
    ) -> None:
        """Record a span with a known start and duration."""
        if not self.enabled:
            return
        if callable(args):
            args = args()
        self._push(TraceEvent(ts, "X", cat, name, track, dur, args))

    def counter(
        self,
        cat: str,
        name: str,
        value: float,
        track: str = "main",
        ts: float | None = None,
    ) -> None:
        """Record one sample of a numeric series."""
        if not self.enabled:
            return
        if ts is None:
            ts = self._clock()
        self._push(TraceEvent(ts, "C", cat, name, track, 0.0, {"value": value}))

    @contextmanager
    def span(self, cat: str, name: str, track: str = "main") -> Iterator[None]:
        """Context manager emitting begin/end around a block (clock-stamped)."""
        self.begin(cat, name, track)
        try:
            yield
        finally:
            self.end(cat, name, track)

    # -- inspection ---------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        """Recorded events, oldest first (a fresh list; safe to mutate)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def by_category(self, *categories: str) -> list[TraceEvent]:
        """Events whose category is in ``categories`` (order preserved)."""
        wanted = set(categories)
        return [e for e in self._events if e.cat in wanted]

    def clear(self) -> None:
        """Drop all recorded events (the drop counter is kept)."""
        self._events.clear()
