"""Multi-waveguide PSCAN: striping one collective across parallel buses.

The P-sync architecture of Fig. 6 already uses two waveguides (SCA and
SCA⁻¹); nothing prevents W parallel *data* waveguides sharing the same
photonic clock to multiply bandwidth — Section VIII's scalability
question.  This module stripes a compiled schedule across W buses
(cycle ``c`` rides bus ``c mod W`` at bus-cycle ``c // W``), executes
each bus with its own :class:`~repro.core.pscan.Pscan`, and merges the
results.

Invariants preserved per bus: one driver per cycle, gapless sub-bursts.
The merged stream recovers the original order exactly, and the wall
clock shrinks by ~W (flight time does not shrink — it is distance).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..photonics.waveguide import Waveguide
from ..photonics.wdm import WdmPlan
from ..sim.engine import Simulator
from ..util.errors import ConfigError, ScheduleError
from .pscan import Pscan, ScaExecution
from .schedule import GlobalSchedule, gather_schedule

__all__ = ["StripedExecution", "MultiBusPscan"]


@dataclass
class StripedExecution:
    """Merged result of one collective striped over W buses."""

    waveguides: int
    per_bus: list[ScaExecution] = field(default_factory=list)
    #: Original-order stream, interleaved back from the sub-bursts.
    stream: list[Any] = field(default_factory=list)

    @property
    def duration_ns(self) -> float:
        """Wall clock: all buses run concurrently."""
        return max(ex.duration_ns for ex in self.per_bus)

    @property
    def all_gapless(self) -> bool:
        """Every bus's sub-burst is gapless."""
        return all(ex.is_gapless for ex in self.per_bus)

    @property
    def total_cycles(self) -> int:
        """Words moved across all buses."""
        return sum(len(ex.arrivals) for ex in self.per_bus)


class MultiBusPscan:
    """W parallel PSCAN data buses with identical geometry.

    Each bus gets its own simulator (they are physically independent;
    concurrency is expressed by taking the max duration).  Bus i's
    sub-schedule takes every W-th cycle of the parent schedule starting
    at i, with cycle indices compacted.
    """

    def __init__(
        self,
        waveguides: int,
        waveguide_length_mm: float,
        positions_mm: dict[int, float],
        wdm: WdmPlan | None = None,
        response_ns: float = 0.01,
    ) -> None:
        if waveguides < 1:
            raise ConfigError(f"need >= 1 waveguide, got {waveguides}")
        if not positions_mm:
            raise ConfigError("need >= 1 node position on the striped bus")
        if waveguide_length_mm <= 0:
            raise ConfigError(
                f"waveguide_length_mm must be > 0, got {waveguide_length_mm}"
            )
        beyond = [
            node
            for node, pos in positions_mm.items()
            if pos < 0 or pos > waveguide_length_mm
        ]
        if beyond:
            raise ConfigError(
                f"node positions {sorted(beyond)} fall outside the "
                f"{waveguide_length_mm} mm waveguide"
            )
        self.waveguides = waveguides
        self.positions_mm = dict(positions_mm)
        self.buses: list[Pscan] = []
        for _ in range(waveguides):
            sim = Simulator()
            self.buses.append(
                Pscan(
                    sim,
                    Waveguide(length_mm=waveguide_length_mm),
                    self.positions_mm,
                    wdm=wdm,
                    response_ns=response_ns,
                )
            )

    def _stripe(self, schedule: GlobalSchedule) -> list[GlobalSchedule]:
        """Split the parent order into W compacted sub-schedules."""
        if schedule.kind != "gather":
            raise ScheduleError("striping currently supports gather schedules")
        sub_orders: list[list[tuple[int, int]]] = [
            [] for _ in range(self.waveguides)
        ]
        for cycle, entry in enumerate(schedule.order):
            sub_orders[cycle % self.waveguides].append(entry)
        return [gather_schedule(order) for order in sub_orders if order] + [
            gather_schedule([]) for order in sub_orders if not order
        ]

    def execute_gather(
        self,
        schedule: GlobalSchedule,
        data: dict[int, list[Any]],
        receiver_mm: float,
    ) -> StripedExecution:
        """Run the striped collective; merge arrival streams in order.

        Every node the schedule names must sit on the bus: an unknown
        node would otherwise surface as a ``KeyError`` deep inside one
        bus's event loop, so the shape mismatch is rejected here as a
        structured :class:`ConfigError` before any bus runs.
        """
        unknown = sorted(
            {node for node, _ in schedule.order} - set(self.positions_mm)
        )
        if unknown:
            raise ConfigError(
                f"schedule names nodes {unknown} that are not on the "
                f"striped bus (known: {sorted(self.positions_mm)})"
            )
        subs = self._stripe(schedule)
        result = StripedExecution(waveguides=self.waveguides)
        for bus, sub in zip(self.buses, subs):
            if sub.total_cycles == 0:
                continue
            result.per_bus.append(
                bus.execute_gather(sub, data, receiver_mm=receiver_mm)
            )
        # Interleave back: sub-burst i supplies cycles i, i+W, i+2W, ...
        # (deques make the head-pops O(1); a list.pop(0) here is
        # quadratic in the burst length)
        streams = [deque(ex.stream) for ex in result.per_bus]
        merged: list[Any] = []
        idx = 0
        while any(streams):
            bus_i = idx % len(streams)
            if streams[bus_i]:
                merged.append(streams[bus_i].popleft())
            idx += 1
        result.stream = merged
        if len(result.stream) != schedule.total_cycles:
            raise ScheduleError(
                f"merged {len(result.stream)} words, expected "
                f"{schedule.total_cycles}"
            )
        return result
