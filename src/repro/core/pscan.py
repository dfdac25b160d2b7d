"""Event-driven PSCAN executor (paper Section III).

This is the executable model of the Photonic Synchronous Coalesced Access
Network: nodes sit at positions along a directional waveguide, observe the
flying photonic clock, and run their communication programs.  Light is
simulated as per-word arrival events with exact flight-time arithmetic, so
the simulator *demonstrates* (rather than assumes) the SCA properties:

* the receiver sees a gapless burst at full bus rate,
* no two nodes' light ever occupies the same bus cycle (collisions are
  detected physically, from arrival times, not from schedule metadata),
* upstream and downstream nodes modulate simultaneously in absolute time.

Granularity: one event per *bus word* (``wdm.bits_per_cycle`` bits moved
per cycle across all data wavelengths), not per bit — the timing is
identical because all wavelengths are modulated in lock-step.

Performance: scheduler *dead time* — the gap between a node's drive (or
listen) slots, which can span thousands of bus cycles in sparse
schedules — costs a single :class:`~repro.sim.engine.Timeout` rather
than per-cycle ticks: each driver sleeps directly until its next slot's
modulation instant (the event-driven analogue of the mesh simulators'
cycle-skipping; see ``docs/performance.md``).  Within a slot the
per-cycle Timeouts are fixed-granularity, so many events share exact
timestamps; the kernel's ``(time, priority, insertion)`` order keeps
their processing deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..photonics.clocking import PhotonicClock
from ..photonics.devices import PhotonicLink
from ..photonics.waveguide import Waveguide
from ..photonics.wdm import WdmPlan, paper_pscan_plan
from ..sim.engine import Simulator
from ..util.errors import CollisionError, LinkBudgetError, ScheduleError
from .cp import Role
from .schedule import GlobalSchedule, gather_schedule

__all__ = ["Pscan", "ScaExecution", "Arrival", "RetryStats", "fig4_gather", "fig4_order"]

#: Tolerance for matching an arrival time to a bus-cycle index, as a
#: fraction of the clock period.
_CYCLE_TOLERANCE = 0.25


@dataclass(frozen=True, slots=True)
class Arrival:
    """One word detected at the observation photodiode."""

    time_ns: float
    cycle: int
    source_node: int
    word_index: int
    value: Any


@dataclass
class RetryStats:
    """Recovery bookkeeping for a CRC-protected gather (see ``repro.faults``).

    Attached to :attr:`ScaExecution.retry` by the reliable-transfer layer;
    ``None`` on a plain (unprotected) execution.
    """

    #: Total epochs run: 1 initial + one per retransmission round.
    epochs: int = 1
    #: Words the head node NACKed over all epochs (CRC failures).
    crc_nacks: int = 0
    #: Words re-driven in retransmission epochs.
    retransmitted_words: int = 0
    #: Corrupted words whose CRC *passed* (undetected errors, delivered bad).
    undetected_errors: int = 0
    #: Idle bus cycles spent in epoch-level exponential backoff.
    backoff_cycles: int = 0
    #: Bus cycles of the fault-free baseline (first epoch's payload).
    baseline_cycles: int = 0
    #: Bus cycles actually consumed: payload + CRC sideband + retries + backoff.
    total_cycles: int = 0
    #: Extra bus cycles the CRC sideband costs (16 bits per word).
    crc_overhead_cycles: int = 0

    @property
    def overhead_cycles(self) -> int:
        """Cycles beyond the fault-free baseline."""
        return self.total_cycles - self.baseline_cycles

    @property
    def overhead_fraction(self) -> float:
        """Relative cycle overhead of protection + recovery."""
        if self.baseline_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.baseline_cycles


@dataclass
class ScaExecution:
    """Result of executing one SCA or SCA⁻¹ on the event simulator."""

    kind: str
    arrivals: list[Arrival] = field(default_factory=list)
    #: node id -> list of (cycle, absolute modulation time) pairs.
    modulation_times: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    start_ns: float = 0.0
    end_ns: float = 0.0
    period_ns: float = 0.0
    #: For scatter: node id -> received words in arrival order.
    delivered: dict[int, list[Any]] = field(default_factory=dict)
    #: Recovery statistics when executed through the reliable-transfer
    #: layer (:mod:`repro.faults.recovery`); ``None`` otherwise.
    retry: RetryStats | None = None

    @property
    def stream(self) -> list[Any]:
        """Word values in arrival order (the coalesced burst)."""
        return [a.value for a in self.arrivals]

    @property
    def is_gapless(self) -> bool:
        """True when consecutive arrivals are exactly one period apart."""
        times = [a.time_ns for a in self.arrivals]
        return all(
            abs((b - a) - self.period_ns) < 1e-9 * max(1.0, abs(b))
            for a, b in zip(times, times[1:])
        )

    @property
    def duration_ns(self) -> float:
        """Transaction duration from first modulation to last arrival."""
        return self.end_ns - self.start_ns

    @property
    def bus_utilization(self) -> float:
        """Data cycles over burst window at the observer (1.0 = gapless)."""
        if not self.arrivals:
            return 0.0
        window = (
            self.arrivals[-1].time_ns - self.arrivals[0].time_ns + self.period_ns
        )
        return len(self.arrivals) * self.period_ns / window

    def simultaneous_modulation_pairs(self) -> list[tuple[int, int]]:
        """Distinct node pairs that were modulating at the same absolute time."""
        intervals: list[tuple[float, float, int]] = []
        for node, events in self.modulation_times.items():
            if not events:
                continue
            # Merge contiguous cycles into intervals.
            events = sorted(events)
            start_cycle, start_t = events[0]
            prev_cycle, _prev_t = events[0]
            for cycle, t in events[1:]:
                if cycle == prev_cycle + 1:
                    prev_cycle = cycle
                    continue
                intervals.append(
                    (start_t, start_t + (prev_cycle - start_cycle + 1) * self.period_ns, node)
                )
                start_cycle, start_t, prev_cycle = cycle, t, cycle
            intervals.append(
                (start_t, start_t + (prev_cycle - start_cycle + 1) * self.period_ns, node)
            )
        pairs: set[tuple[int, int]] = set()
        for i, (s1, e1, n1) in enumerate(intervals):
            for s2, e2, n2 in intervals[i + 1:]:
                if n1 != n2 and s1 < e2 and s2 < e1:
                    pairs.add((min(n1, n2), max(n1, n2)))
        return sorted(pairs)


class Pscan:
    """A PSCAN segment: waveguide + clock + WDM plan + node positions.

    Parameters
    ----------
    sim:
        Event kernel (time in ns).
    waveguide:
        The shared photonic bus.  Node positions must lie on it.
    positions_mm:
        node id -> waveguide position.  The observer (receiver for SCA,
        head node for SCA⁻¹) is passed per-transaction.
    wdm:
        Wavelength plan; sets the bus cycle period and bits per cycle.
    response_ns:
        Common skew between clock detection and modulation (Section III-A).
    link:
        Optional link-budget model; when given, every transmission path is
        checked against Eq. 1 and a :class:`LinkBudgetError` is raised if
        any receiver would be below sensitivity.
    """

    def __init__(
        self,
        sim: Simulator,
        waveguide: Waveguide,
        positions_mm: dict[int, float],
        wdm: WdmPlan | None = None,
        response_ns: float = 0.01,
        link: PhotonicLink | None = None,
    ) -> None:
        self.sim = sim
        self.waveguide = waveguide
        self.positions_mm = dict(positions_mm)
        self.wdm = wdm or paper_pscan_plan()
        self.response_ns = response_ns
        self.link = link
        self.clock = PhotonicClock(
            period_ns=self.wdm.bus_cycle_ns,
            origin_mm=0.0,
            velocity_mm_per_ns=waveguide.group_velocity_mm_per_ns,
            t0_ns=0.0,
        )
        for node, pos in self.positions_mm.items():
            if not (0.0 <= pos <= waveguide.length_mm):
                raise ScheduleError(
                    f"node {node} position {pos} mm outside waveguide "
                    f"[0, {waveguide.length_mm}] mm"
                )
        self.total_bits_moved = 0
        #: Optional fault-injection hook (see :mod:`repro.faults`): called
        #: as ``hook(time_ns, node, word_index, value)`` for every word at
        #: the detection point and returns the (possibly corrupted) value.
        #: ``None`` — the default — leaves the fault-free path untouched.
        self.fault_hook: Any = None
        # Optional observability hook (duck-typed ObsSession); None keeps
        # the hot paths at one pointer comparison per hook site.
        self._obs: Any = None

    def attach_observer(self, obs: Any) -> None:
        """Attach an observability session (see :mod:`repro.obs`).

        ``obs`` duck-types :class:`repro.obs.session.ObsSession`: the
        executor calls ``sca_modulate`` / ``sca_arrival`` /
        ``sca_deliver`` per word (timestamps are absolute simulator ns)
        and ``sca_execution`` with the finished
        :class:`ScaExecution`.  Pass ``None`` to detach.
        """
        self._obs = obs

    # -- helpers --------------------------------------------------------------

    def _check_budget(self, from_mm: float, to_mm: float) -> None:
        if self.link is None:
            return
        distance = to_mm - from_mm
        # Every node between source and destination contributes one
        # detuned ring pass.
        rings = sum(
            1 for p in self.positions_mm.values() if from_mm < p < to_mm
        )
        if not self.link.closes(distance, rings):
            raise LinkBudgetError(
                f"link budget fails over {distance:.1f} mm with {rings} "
                f"ring passes (margin {self.link.margin_db(distance, rings):.2f} dB)"
            )

    def _next_epoch_cycle(self) -> int:
        """First clock edge index usable for a transaction starting now.

        Consecutive transactions on one machine reuse the free-running
        photonic clock; schedule cycle 0 is aliased onto this edge.  Two
        guard edges give every node time to react even at position 0.
        """
        period = self.clock.period_ns
        elapsed = self.sim.now - self.clock.t0_ns
        if elapsed <= 0:
            return 0
        return int(elapsed / period) + 2

    def _cycle_of_arrival(self, time_ns: float, position_mm: float, epoch: int) -> int:
        """Map an arrival time at a position back to its schedule cycle."""
        local = (
            time_ns
            - self.response_ns
            - self.clock.t0_ns
            - self.clock.flight_delay_ns(position_mm)
        )
        period = self.clock.period_ns
        cycle = round(local / period)
        if abs(local - cycle * period) > _CYCLE_TOLERANCE * period:
            raise CollisionError(
                f"arrival at t={time_ns} ns at {position_mm} mm does not align "
                f"with any bus cycle (offset {local - cycle * period:.4f} ns)"
            )
        return cycle - epoch

    # -- SCA (gather) -----------------------------------------------------

    def execute_gather(
        self,
        schedule: GlobalSchedule,
        data: dict[int, list[Any]],
        receiver_mm: float,
    ) -> ScaExecution:
        """Run an SCA: contributors drive their slots, one receiver detects.

        ``data[node][word_index]`` is the word driven when the node's CP
        says so.  Runs the event simulation to completion and returns the
        execution record; raises :class:`CollisionError` if two words ever
        land on the same bus cycle at the receiver.
        """
        if schedule.kind != "gather":
            raise ScheduleError(f"expected a gather schedule, got {schedule.kind!r}")
        result = ScaExecution(kind="gather", period_ns=self.clock.period_ns)
        claimed: dict[int, int] = {}
        first_mod: list[float] = []
        epoch = self._next_epoch_cycle()

        def receive(time_ns: float, node: int, word_index: int, value: Any) -> None:
            cycle = self._cycle_of_arrival(time_ns, receiver_mm, epoch)
            if cycle in claimed:
                raise CollisionError(
                    f"bus cycle {cycle}: node {node} collides with node "
                    f"{claimed[cycle]} at the receiver"
                )
            claimed[cycle] = node
            if self.fault_hook is not None:
                value = self.fault_hook(time_ns, node, word_index, value)
            result.arrivals.append(Arrival(time_ns, cycle, node, word_index, value))
            if self._obs is not None:
                self._obs.sca_arrival(time_ns, node, cycle, word_index)

        def driver(node: int) -> Any:
            x = self.positions_mm[node]
            self._check_budget(x, receiver_mm)
            cp = schedule.programs[node]
            buffer = data.get(node, [])
            mods = result.modulation_times.setdefault(node, [])
            # Loop-invariant per driver: the word flight time to the
            # receiver does not depend on the cycle being driven.
            flight = self.waveguide.propagation_delay_ns(x, receiver_mm)
            for slot in cp:
                if slot.role is not Role.DRIVE:
                    continue
                for i, cycle in enumerate(slot.cycles()):
                    t_mod = (
                        self.clock.edge_time(epoch + cycle, x) + self.response_ns
                    )
                    if t_mod < self.sim.now - 1e-9:
                        raise ScheduleError(
                            f"node {node} missed cycle {cycle} "
                            f"(needed t={t_mod}, now={self.sim.now})"
                        )
                    # One Timeout jumps straight to the modulation
                    # instant, whether that is the next bus cycle or the
                    # far side of a long inter-slot gap (dead time).
                    yield self.sim.timeout(max(0.0, t_mod - self.sim.now))
                    word = slot.word_offset + i
                    if word >= len(buffer):
                        raise ScheduleError(
                            f"node {node} has no word {word} "
                            f"(buffer holds {len(buffer)})"
                        )
                    mods.append((cycle, self.sim.now))
                    if not first_mod or self.sim.now < first_mod[0]:
                        first_mod[:] = [self.sim.now]
                    if self._obs is not None:
                        self._obs.sca_modulate(self.sim.now, node, cycle)
                    arr = self.sim.timeout(
                        flight, (self.sim.now + flight, node, word, buffer[word])
                    )
                    arr.callbacks.append(lambda ev: receive(*ev.value))
                    self.total_bits_moved += self.wdm.bits_per_cycle

        procs = [
            self.sim.process(driver(node)) for node in sorted(schedule.programs)
        ]
        done = self.sim.all_of(procs)
        self.sim.run(done)
        self.sim.run()  # drain in-flight arrivals

        result.arrivals.sort(key=lambda a: a.time_ns)
        if len(result.arrivals) != schedule.total_cycles:
            raise ScheduleError(
                f"expected {schedule.total_cycles} arrivals, got "
                f"{len(result.arrivals)}"
            )
        result.start_ns = first_mod[0] if first_mod else 0.0
        result.end_ns = result.arrivals[-1].time_ns if result.arrivals else 0.0
        if self._obs is not None:
            self._obs.sca_execution(result)
        return result

    # -- SCA⁻¹ (scatter) -----------------------------------------------------

    def execute_scatter(
        self,
        schedule: GlobalSchedule,
        burst: list[Any],
        source_mm: float = 0.0,
    ) -> ScaExecution:
        """Run an SCA⁻¹: one source drives a burst; nodes peel off their slots.

        ``burst[c]`` is the word on bus cycle ``c``; the schedule's LISTEN
        slots determine which node captures it.  All listeners must be
        downstream of the source.
        """
        if schedule.kind != "scatter":
            raise ScheduleError(f"expected a scatter schedule, got {schedule.kind!r}")
        if len(burst) != schedule.total_cycles:
            raise ScheduleError(
                f"burst has {len(burst)} words, schedule covers "
                f"{schedule.total_cycles} cycles"
            )
        for node in schedule.programs:
            if self.positions_mm[node] < source_mm:
                raise ScheduleError(
                    f"listener {node} is upstream of the scatter source"
                )

        result = ScaExecution(kind="scatter", period_ns=self.clock.period_ns)
        # cycle -> (listener node, local word index), from the schedule order.
        listener_of: dict[int, tuple[int, int]] = {
            cycle: node_word for cycle, node_word in enumerate(schedule.order)
        }
        first_mod: list[float] = []
        epoch = self._next_epoch_cycle()

        def deliver(time_ns: float, cycle: int, value: Any) -> None:
            node, word_index = listener_of[cycle]
            x = self.positions_mm[node]
            expected = self.clock.edge_time(epoch + cycle, x) + self.response_ns
            if abs(time_ns - expected) > _CYCLE_TOLERANCE * self.clock.period_ns:
                raise CollisionError(
                    f"cycle {cycle} reached node {node} at t={time_ns} ns, "
                    f"CP expected t={expected} ns — clock desynchronized"
                )
            if self.fault_hook is not None:
                value = self.fault_hook(time_ns, node, word_index, value)
            result.delivered.setdefault(node, []).append(value)
            result.arrivals.append(Arrival(time_ns, cycle, node, word_index, value))
            if self._obs is not None:
                self._obs.sca_deliver(time_ns, node, cycle, word_index)

        def source() -> Any:
            mods = result.modulation_times.setdefault(-1, [])
            # Per-listener flight times are loop-invariant; budget checks
            # likewise only depend on the listener's position.
            flight_to: dict[int, float] = {}
            for cycle, value in enumerate(burst):
                t_mod = (
                    self.clock.edge_time(epoch + cycle, source_mm)
                    + self.response_ns
                )
                if t_mod > self.sim.now:
                    yield self.sim.timeout(t_mod - self.sim.now)
                mods.append((cycle, self.sim.now))
                if not first_mod:
                    first_mod.append(self.sim.now)
                node, _w = listener_of[cycle]
                flight = flight_to.get(node)
                if flight is None:
                    x = self.positions_mm[node]
                    self._check_budget(source_mm, x)
                    flight = self.waveguide.propagation_delay_ns(source_mm, x)
                    flight_to[node] = flight
                arr = self.sim.timeout(flight, (self.sim.now + flight, cycle, value))
                arr.callbacks.append(lambda ev: deliver(*ev.value))
                self.total_bits_moved += self.wdm.bits_per_cycle

        proc = self.sim.process(source())
        self.sim.run(proc)
        self.sim.run()

        result.arrivals.sort(key=lambda a: a.time_ns)
        result.start_ns = first_mod[0] if first_mod else 0.0
        result.end_ns = result.arrivals[-1].time_ns if result.arrivals else 0.0
        if self._obs is not None:
            self._obs.sca_execution(result)
        return result


def fig4_order() -> list[tuple[int, int]]:
    """Fig. 4's slot order: nodes 0 and 1 drive two words each, three rounds.

    ``(node, word)`` pairs, each node's words numbered from 0.  Both
    :func:`fig4_gather` and the ``fig4`` lint target build on it.
    """
    return [
        (node, 2 * rnd + word)
        for rnd in range(3) for node in (0, 1) for word in range(2)
    ]


def fig4_gather(obs: Any = None) -> ScaExecution:
    """The paper's Fig. 4 gather: 2 nodes × 6 words on a 140 mm bus.

    Nodes 0 and 1 sit at 0 and 14 mm and take turns driving two words
    each, three rounds, to the receiver at the far end.  ``repro fig4``
    renders this execution, and the golden trace
    (``tests/golden/fig4_trace.json``) records it with ``obs`` (an
    :class:`~repro.obs.session.ObsSession`) attached to the kernel and
    the bus.
    """
    sim = Simulator()
    pscan = Pscan(sim, Waveguide(length_mm=140.0), {0: 0.0, 1: 14.0})
    if obs is not None:
        sim.attach_observer(obs)
        pscan.attach_observer(obs)
    data = {0: [f"a{i}" for i in range(6)], 1: [f"b{i}" for i in range(6)]}
    return pscan.execute_gather(
        gather_schedule(fig4_order()), data, receiver_mm=140.0
    )
