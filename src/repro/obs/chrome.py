"""Chrome ``trace_event``-format export for :class:`~repro.obs.tracing.SpanTracer`.

The emitted JSON object loads directly into ``chrome://tracing`` or
https://ui.perfetto.dev: one process per event *category prefix* (the
part before the first dot — ``mesh``, ``sca``, ``sim``, ``faults``,
``llmore``, ``sweep``), one named thread per track, and every event
carrying the required ``ph``/``ts``/``pid``/``tid``/``name`` keys.

Timebase: the Chrome format's ``ts`` is microseconds.  Simulation events
are stamped in nanoseconds (or mesh cycles, which we treat as
nanoseconds at a notional 1 GHz for display); ``time_scale`` converts —
the default ``1e-3`` maps ns → µs.

:func:`validate_chrome_trace` is the schema check the CLI runs before
writing ``trace.json`` and the test suite runs on golden files: required
keys present, known phases, and ``ts`` monotone per ``(pid, tid)`` track.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..util.errors import ConfigError, ValidationError
from .tracing import PHASES, TraceEvent

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "normalize_events",
]

#: Required keys on every non-metadata trace_event record.
REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


def _process_of(category: str) -> str:
    return category.split(".", 1)[0] if category else "main"


def to_chrome_trace(
    events: list[TraceEvent],
    *,
    time_scale: float = 1e-3,
    sort: bool = True,
) -> dict[str, Any]:
    """Convert tracer events to a Chrome trace_event JSON object.

    Events are stably sorted by timestamp (preserving record order at
    ties) so ``ts`` is monotone per track even when multiple producers
    interleaved; pass ``sort=False`` to keep raw record order.
    """
    if time_scale <= 0:
        raise ConfigError(f"time_scale must be > 0, got {time_scale}")
    if sort:
        events = sorted(events, key=lambda e: e.ts)

    pids: dict[str, int] = {}
    tids: dict[tuple[int, str], int] = {}
    out: list[dict[str, Any]] = []
    meta: list[dict[str, Any]] = []

    for ev in events:
        proc = _process_of(ev.cat)
        pid = pids.get(proc)
        if pid is None:
            pid = len(pids) + 1
            pids[proc] = pid
            meta.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "cat": "__metadata",
                    "args": {"name": proc},
                }
            )
        tkey = (pid, ev.track)
        tid = tids.get(tkey)
        if tid is None:
            tid = sum(1 for p, _t in tids if p == pid) + 1
            tids[tkey] = tid
            meta.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "cat": "__metadata",
                    "args": {"name": ev.track},
                }
            )
        rec: dict[str, Any] = {
            "ph": ev.ph,
            "ts": ev.ts * time_scale,
            "pid": pid,
            "tid": tid,
            "name": ev.name,
            "cat": ev.cat,
        }
        if ev.ph == "X":
            rec["dur"] = ev.dur * time_scale
        if ev.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
        if ev.args is not None:
            rec["args"] = ev.args if isinstance(ev.args, dict) else {"payload": ev.args}
        out.append(rec)

    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ns",
    }


def validate_chrome_trace(obj: dict[str, Any]) -> dict[str, int]:
    """Check a trace object against the trace_event schema contract.

    Raises :class:`~repro.util.errors.ValidationError` on the first
    violation; returns ``{"events": n, "tracks": m}`` on success.
    Checked: ``traceEvents`` list present; every event has the required
    ``ph``/``ts``/``pid``/``tid``/``name`` keys; phases are known; and
    ``ts`` is monotone non-decreasing per ``(pid, tid)`` track
    (metadata events excluded).
    """
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValidationError("trace object has no 'traceEvents' list")
    last_ts: dict[tuple[Any, Any], float] = {}
    count = 0
    for i, ev in enumerate(events):
        for key in REQUIRED_KEYS:
            if key not in ev:
                raise ValidationError(f"traceEvents[{i}] missing required key {key!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        if ph not in PHASES:
            raise ValidationError(f"traceEvents[{i}] has unknown phase {ph!r}")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            raise ValidationError(f"traceEvents[{i}] ts is not numeric: {ts!r}")
        track = (ev["pid"], ev["tid"])
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            raise ValidationError(
                f"traceEvents[{i}]: ts {ts} went backwards on track "
                f"pid={track[0]} tid={track[1]} (previous {prev})"
            )
        last_ts[track] = ts
        count += 1
    return {"events": count, "tracks": len(last_ts)}


def write_chrome_trace(
    path: str | Path,
    events: list[TraceEvent],
    *,
    time_scale: float = 1e-3,
) -> dict[str, int]:
    """Export, validate and write ``events`` as trace_event JSON.

    Returns the validator's summary.  The file is only written when the
    trace validates, so a committed ``trace.json`` is schema-clean by
    construction.
    """
    obj = to_chrome_trace(events, time_scale=time_scale)
    summary = validate_chrome_trace(obj)
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return summary


def normalize_events(
    events: list[TraceEvent],
    *,
    time_decimals: int = 6,
    rebase: bool = True,
    categories: tuple[str, ...] | None = None,
) -> list[dict[str, Any]]:
    """Engine- and run-independent projection of a trace, for oracles.

    Drops everything run-specific (absolute wall offsets, float dust):
    timestamps are rebased to the first kept event and rounded, events
    are optionally filtered to semantic ``categories``, and each event
    becomes a plain dict — the form the golden Fig.-4 file commits and
    the differential tests compare with ``==``.
    """
    kept = events if categories is None else [e for e in events if e.cat in categories]
    if not kept:
        return []
    t0 = min(e.ts for e in kept) if rebase else 0.0
    out = []
    for e in kept:
        rec: dict[str, Any] = {
            "ts": round(e.ts - t0, time_decimals),
            "ph": e.ph,
            "cat": e.cat,
            "name": e.name,
            "track": e.track,
        }
        if e.ph == "X":
            rec["dur"] = round(e.dur, time_decimals)
        if e.args is not None:
            rec["args"] = e.args
        return_args = rec.get("args")
        if isinstance(return_args, dict):
            rec["args"] = {k: return_args[k] for k in sorted(return_args)}
        out.append(rec)
    return out
