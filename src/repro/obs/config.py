"""Opt-in switches for the observability layer.

Everything is off-by-default *at the attachment level*: a simulator with
no observer attached pays exactly one ``is not None`` check per hook
site.  Once an :class:`~repro.obs.session.ObsSession` is attached, every
instrumented layer (mesh, SCA, fault recovery, LLMORE phases, sweeps,
the job server) records while either recorder is on.  This config picks
the recorders and what they keep:

``trace`` / ``metrics``
    Master switches for the two recorders.
``sim_dispatch``
    Per-event dispatch records from :class:`repro.sim.engine.Simulator`
    (event type, time, queue depth).  The hottest hook by far — a record
    per processed event — so it is **off** by default; turn it on to see
    every kernel dispatch behind an SCA run, one ``sim`` record per
    :attr:`~repro.sim.engine.Simulator.events_processed`.
``mesh_sample_cycles``
    When > 0, sample mesh occupancy counters every N cycles into the
    ``mesh.sample`` category.  Sampled events are *engine-dependent*
    (cycle-skipping engines never visit skipped cycles), which is why
    they live in their own category that the trace oracles exclude.
``max_trace_events``
    Ring-buffer cap forwarded to :class:`~repro.obs.tracing.SpanTracer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import ConfigError

__all__ = ["ObsConfig"]


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """What the attached observer records; see module docstring."""

    trace: bool = True
    metrics: bool = True
    max_trace_events: int | None = None
    sim_dispatch: bool = False
    mesh_sample_cycles: int = 0

    def __post_init__(self) -> None:
        if self.max_trace_events is not None and self.max_trace_events < 1:
            raise ConfigError(
                f"max_trace_events must be >= 1 or None, got {self.max_trace_events}"
            )
        if self.mesh_sample_cycles < 0:
            raise ConfigError(
                f"mesh_sample_cycles must be >= 0, got {self.mesh_sample_cycles}"
            )

    @classmethod
    def disabled(cls) -> "ObsConfig":
        """Recorders constructed but off — the <5%-overhead bench shape."""
        return cls(trace=False, metrics=False)
