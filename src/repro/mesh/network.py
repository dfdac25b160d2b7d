"""Cycle-accurate wormhole mesh simulator (paper Section V-C2).

This is the Python substitution for the paper's SystemC/TLM mesh model,
with the same parameters:

* minimal adaptive wormhole routing,
* 1-cycle header routing delay per router (``t_r``),
* 2-flit input buffers on inter-processor channels,
* 64-bit flits, one hop per cycle,
* a memory interface with ``t_p`` cycles of reorder work per data flit.

Simulation is cycle-based and flit-granular.  Each router has one input
buffer per port; each output channel is *owned* by at most one packet from
head to tail (wormhole).  Moves are computed from start-of-cycle state and
committed together, so intra-cycle ripple cannot teleport flits.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from ..util.errors import ConfigError, NetworkError, RoutingError
from .flit import Flit, IdRuns, Packet
from .routing import (
    MinimalAdaptiveRouting,
    RoutingPolicy,
    fault_aware_route,
    productive_ports,
)
from .topology import MeshTopology, Port

__all__ = [
    "MESH_ENGINES",
    "MeshConfig",
    "MeshFaultConfig",
    "MeshFaultReport",
    "SinkRecord",
    "MeshStats",
    "MeshNetwork",
    "mesh_signature",
    "packet_id_base",
]

_MESH_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)

#: One router's links: (out_port, neighbor, downstream-buffer key) per
#: connected mesh port, in ``_MESH_PORTS`` order.
_Adjacency = tuple[tuple[Port, tuple[int, int], tuple[tuple[int, int], Port]], ...]

#: One router's row of the reference planner's tables: ``(node,
#: ((in_port, buffer), ...), {out_port: (neighbor, key, buffer)})``.
#: Input ports come LOCAL first, then in ``_MESH_PORTS`` order; the
#: buffers are the network's own ``_buffers`` deques, so the rows always
#: see live state.
_PlanTable = tuple[
    tuple[int, int],
    tuple[tuple[Port, deque[Flit]], ...],
    dict[Port, tuple[tuple[int, int], tuple[tuple[int, int], Port], deque[Flit]]],
]


@lru_cache(maxsize=64)
def _adjacency(
    topology: MeshTopology,
) -> tuple[tuple[tuple[int, int], _Adjacency], ...]:
    """Every router's links, row-major, built once per (frozen) topology.

    Immutable tuples only, so networks on equal topologies can share
    the result without sharing any mutable state.
    """
    return tuple(
        (
            node,
            tuple(
                (port, nbr, (nbr, port.opposite))
                for port in _MESH_PORTS
                if (nbr := topology.neighbor(node, port)) is not None
            ),
        )
        for node in topology.nodes()
    )


#: Every value :attr:`MeshConfig.engine` accepts.  The config, the
#: static linter and the ``--engine`` options of ``repro obs`` and
#: ``repro sweep run`` all read this tuple.
MESH_ENGINES = ("reference", "compiled")


@dataclass(frozen=True, slots=True)
class MeshConfig:
    """Microarchitecture parameters of the mesh."""

    buffer_flits: int = 2
    header_route_cycles: int = 1
    #: Cycles of reorder work per *data* flit at a memory-interface sink
    #: (the paper's t_p).  Plain processor sinks consume 1 flit/cycle.
    memory_reorder_cycles: int = 1
    #: Give up and report deadlock after this many consecutive idle
    #: cycles with undelivered traffic.
    deadlock_cycles: int = 10_000
    #: Simulation engine: ``"reference"`` is the flit-by-flit
    #: simulator, the oracle, and steps every cycle; ``"compiled"``
    #: selects the closed-form
    #: :class:`~repro.mesh.compiled_network.CompiledMeshNetwork`, which
    #: skips flit-level simulation entirely for single-sink coalesced
    #: gathers (identical :class:`MeshStats`, differentially tested in
    #: ``tests/test_compiled_engine.py``) and raises
    #: :class:`~repro.util.errors.EngineUnsupportedError` outside its
    #: documented applicability predicate.
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.buffer_flits < 1:
            raise ConfigError("buffer_flits must be >= 1")
        if self.header_route_cycles < 0:
            raise ConfigError("header_route_cycles must be >= 0")
        if self.memory_reorder_cycles < 1:
            raise ConfigError("memory_reorder_cycles must be >= 1")
        if self.deadlock_cycles < 10:
            raise ConfigError("deadlock_cycles must be >= 10")
        if self.engine not in MESH_ENGINES:
            raise ConfigError(
                f"engine must be one of {MESH_ENGINES}, got {self.engine!r}"
            )


@dataclass(frozen=True, slots=True)
class MeshFaultConfig:
    """Tuning of the mesh's fault-detection and recovery machinery.

    Only consulted once :meth:`MeshNetwork.fail_link` or
    :meth:`MeshNetwork.fail_router` has armed the fault layer; a
    fault-free network never reads these knobs.
    """

    #: Consecutive cycles a routed packet may point at a dead output
    #: link before the router quarantines the port and re-routes.  This
    #: models a credit/heartbeat timeout: a healthy downstream router
    #: returns credits within a bounded window, so silence for this long
    #: is evidence the link is gone.
    link_timeout_cycles: int = 32
    #: Livelock bound for fault-aware (possibly non-minimal) routing: a
    #: packet is declared lost once it has traversed more than
    #: ``max_hop_factor * (minimal_distance + 2)`` links.  Needed
    #: because the west-first turn restriction — the deadlock/livelock
    #: guarantee of minimal adaptive routing — is deliberately dropped
    #: when routing around dead regions (see
    #: :func:`repro.mesh.routing.fault_aware_route`).
    max_hop_factor: int = 6

    def __post_init__(self) -> None:
        if self.link_timeout_cycles < 1:
            raise ConfigError("link_timeout_cycles must be >= 1")
        if self.max_hop_factor < 2:
            raise ConfigError("max_hop_factor must be >= 2")


@dataclass
class MeshFaultReport:
    """Structured outcome of a degraded :meth:`MeshNetwork.run_resilient`.

    ``kind`` is ``"degraded"`` (all remaining traffic delivered, but
    packets were lost to faults), ``"stall"`` (the watchdog fired: no
    flit moved for ``deadlock_cycles``) or ``"max-cycles"``.
    """

    kind: str
    cycle: int
    #: Packets still somewhere in the network when the run ended.
    undelivered_packets: list[int]
    #: Packets the recovery layer explicitly declared lost (cut off,
    #: hop budget exhausted, or stranded mid-wormhole by a dead link).
    lost_packets: list[int]
    flits_dropped: int
    #: (node, port) pairs quarantined by the credit-timeout detector.
    quarantined_links: list[tuple[tuple[int, int], Port]]
    message: str

    @property
    def delivered_all(self) -> bool:
        """True when nothing was lost or left in flight."""
        return not self.undelivered_packets and not self.lost_packets


@dataclass(frozen=True, slots=True)
class SinkRecord:
    """One flit delivered at a sink."""

    cycle: int
    node: tuple[int, int]
    packet_id: int
    payload: Any
    source: tuple[int, int]


@dataclass
class MeshStats:
    """Aggregate results of one simulation run."""

    cycles: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    flit_hops: int = 0
    #: Per-packet network latency (injection of head -> ejection of tail).
    packet_latencies: list[int] = field(default_factory=list)
    #: Cycles each memory interface spent busy reordering.
    memory_busy_cycles: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Flits forwarded through each router (congestion heat map data).
    flits_through_node: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Fault-layer accounting (all zero on a fault-free run).
    flits_dropped: int = 0
    packets_lost: list[int] = field(default_factory=list)
    reroutes: int = 0
    quarantine_events: int = 0

    @property
    def mean_packet_latency(self) -> float:
        """Mean packet latency in cycles (0.0 with no packets)."""
        if not self.packet_latencies:
            return 0.0
        return sum(self.packet_latencies) / len(self.packet_latencies)


class MeshNetwork:
    """The simulator.  Build, add traffic, then :meth:`run`.

    Typical use::

        net = MeshNetwork(MeshTopology.square(16))
        net.add_memory_interface((0, 0))
        net.inject_all(make_transpose_gather(net.topology, cols=8).packets)
        stats = net.run()
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "MeshNetwork":
        # Engine dispatch: ``MeshConfig(engine="compiled")`` transparently
        # instantiates the closed-form subclass, so call sites never
        # import it explicitly.  Subclasses are left alone.
        if cls is MeshNetwork:
            config = kwargs.get("config")
            if config is None and len(args) >= 2:
                config = args[1]
            if config is not None and config.engine == "compiled":
                from .compiled_network import CompiledMeshNetwork

                return object.__new__(CompiledMeshNetwork)
        return object.__new__(cls)

    def __init__(
        self,
        topology: MeshTopology,
        config: MeshConfig | None = None,
        routing: RoutingPolicy | None = None,
        fault_config: MeshFaultConfig | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or MeshConfig()
        self.routing = routing or MinimalAdaptiveRouting()
        self.fault_config = fault_config or MeshFaultConfig()
        # Fault layer: inert (and branch-cheap) until fail_link/fail_router
        # arms it.  The fault-free scheduling path is untouched, so default
        # runs stay byte- and cycle-identical to the seed simulator.
        self._faults_enabled = False
        #: Dead *output* links as (node, out_port) — flits cannot traverse.
        self._dead: set[tuple[tuple[int, int], Port]] = set()
        #: Ports each router has quarantined after a credit timeout.
        self._quarantined: dict[tuple[int, int], set[Port]] = {}
        #: Credit-timeout counters per dead (node, out_port).
        self._blocked: dict[tuple[tuple[int, int], Port], int] = {}
        #: Packets whose route at a router points at a dead output link,
        #: per link.  No flit crosses a dead link, so such a route stays
        #: set until ``_quarantine`` or ``_drop_packet`` clears it; the
        #: fault tick reads its pinned links here instead of scanning
        #: ``_route``.
        self._pinned: dict[tuple[tuple[int, int], Port], set[int]] = {}
        #: Input buffers a flit over its hop budget entered; the fault
        #: tick checks only their heads.
        self._over_budget: set[tuple[tuple[int, int], Port]] = set()
        #: Packets found optically/electrically cut off (no healthy port).
        self._cut_off: set[int] = set()
        #: Packets in "detour mode": misrouted around a quarantined port
        #: and not yet back on a productive path.  While flagged, every
        #: router — not just quarantined ones — routes them fault-aware
        #: with the backward port avoided, so they circle the dead
        #: region instead of ping-ponging into it.
        self._detour: set[int] = set()
        self.cycle = 0
        self._nodes = topology.nodes()
        self._init_flit_state()
        # Wormhole output-channel ownership: (node, out_port) -> packet_id.
        self._owner: dict[tuple[tuple[int, int], Port], int] = {}
        # Chosen route of a packet at a router: (node, packet_id) -> port.
        self._route: dict[tuple[tuple[int, int], int], Port] = {}
        # Round-robin arbitration pointer per output channel.
        self._rr: dict[tuple[tuple[int, int], Port], int] = {}
        # Memory interfaces: node -> cycle the reorder pipeline frees up.
        self._memory_nodes: dict[tuple[int, int], int] = {}
        # Packet bookkeeping for latency: id -> (inject cycle, source).
        self._packet_meta: dict[int, tuple[int, tuple[int, int]]] = {}
        self._pending_flits = 0
        # Buffered-flit count per router, to skip idle routers in the
        # planning loop (the hot path at benchmark scale).
        self._occupancy: dict[tuple[int, int], int] = dict.fromkeys(
            self._nodes, 0
        )
        # The reference planner's per-router tables, built on the first
        # planned cycle (or stall break): the compiled engine shares
        # this constructor and never plans a cycle.
        self._plan_tables: list[_PlanTable] | None = None
        # Livelock bound per packet id, filled as the hop-budget checks
        # meet each packet (source and dest never change).
        self._hop_limits: dict[int, int] = {}
        self.stats = MeshStats()
        self.sunk: list[SinkRecord] = []
        # Optional observability hook (duck-typed ObsSession); None keeps
        # the hot loops at one pointer comparison per hook site.
        self._obs: Any = None

    # -- construction -------------------------------------------------------

    def _init_flit_state(self) -> None:
        """Build the input buffers, injection queues and planner adjacency.

        The compiled engine moves no flits and overrides this to leave
        all three empty.
        """
        adjacency = _adjacency(self.topology)
        # Input buffers: (node, port) -> deque of flits, LOCAL first and
        # then every connected mesh port.
        self._buffers: dict[tuple[tuple[int, int], Port], deque[Flit]] = {}
        for node, entries in adjacency:
            self._buffers[(node, Port.LOCAL)] = deque()
            for port, _nbr, _key in entries:
                self._buffers[(node, port)] = deque()
        # Injection queues: node -> deque of flits awaiting buffer space.
        self._inject: dict[tuple[int, int], deque[Flit]] = {
            node: deque() for node in self._nodes
        }
        # Precomputed adjacency for the planning hot path: per node, the
        # (out_port, neighbor, downstream-buffer key) entries.  The
        # entries are the topology's shared immutable tuples; the dict
        # is this network's own.
        self._adjacent: dict[tuple[int, int], _Adjacency] = dict(adjacency)

    def attach_observer(self, obs: Any) -> None:
        """Attach an observability session (see :mod:`repro.obs`).

        ``obs`` duck-types :class:`repro.obs.session.ObsSession`: the
        mesh calls its ``mesh_inject`` / ``mesh_deliver`` /
        ``mesh_fault`` / ``mesh_cycle`` / ``mesh_run_begin`` /
        ``mesh_run_end`` hooks.  The semantic categories (``mesh``,
        ``mesh.fault``) record what the network did; the sampled
        ``mesh.sample`` category records every ``mesh_sample_cycles``-th
        stepped cycle.  Pass ``None`` to detach.
        """
        self._obs = obs

    def add_memory_interface(self, node: tuple[int, int]) -> None:
        """Attach a memory interface (with reorder cost) at ``node``."""
        self.topology.require_node(node)
        self._memory_nodes[node] = 0
        self.stats.memory_busy_cycles.setdefault(node, 0)

    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection at its source node."""
        self.topology.require_node(packet.source)
        self.topology.require_node(packet.dest)
        flits = packet.flits()
        for f in flits:
            f.injected_cycle = max(self.cycle, packet.created_cycle)
        self._packet_meta[packet.packet_id] = (
            max(self.cycle, packet.created_cycle),
            packet.source,
        )
        self._inject[packet.source].extend(flits)
        self._pending_flits += len(flits)
        if self._obs is not None:
            self._obs.mesh_inject(
                self.cycle, packet.packet_id, packet.source, packet.dest,
                len(flits),
            )

    def inject_all(self, packets: Iterable[Packet]) -> None:
        """Queue every packet of ``packets``, in order (see :meth:`inject`).

        The compiled engine overrides this to fold a transpose-gather
        shape without building its packets; every engine leaves the same
        state as injecting the packets one by one.
        """
        for packet in packets:
            self.inject(packet)

    # -- fault injection ----------------------------------------------------

    def _arm_faults(self) -> None:
        if self._faults_enabled:
            return
        self._faults_enabled = True
        self._quarantined = {node: set() for node in self._nodes}
        # Flits that moved before the fault layer was armed went
        # unchecked against their hop budget: check them once here.
        for key, buf in self._buffers.items():
            if any(flit.hops > self._hop_limit(flit) for flit in buf):
                self._over_budget.add(key)

    def _pin_routes(self) -> None:
        """Rebuild ``_pinned`` from every cached route (links just died)."""
        self._pinned = {}
        dead = self._dead
        for (node, pid), route in self._route.items():
            if (node, route) in dead:
                self._pinned.setdefault((node, route), set()).add(pid)

    def _clear_route(self, node: tuple[int, int], packet_id: int) -> None:
        """Forget ``packet_id``'s route at ``node`` and unpin its link."""
        link = (node, self._route.pop((node, packet_id)))
        pins = self._pinned.get(link)
        if pins is not None:
            pins.discard(packet_id)
            if not pins:
                del self._pinned[link]

    def fail_link(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        """Kill the (bidirectional) mesh link between adjacent ``a``, ``b``.

        Flits can no longer traverse the link in either direction.
        Routers on each side discover the failure through the credit
        timeout (``fault_config.link_timeout_cycles``) and re-route via
        :func:`~repro.mesh.routing.fault_aware_route`.  May be called
        before or during a run.
        """
        self.topology.require_node(a)
        self.topology.require_node(b)
        port = next(
            (p for p in _MESH_PORTS if self.topology.neighbor(a, p) == b),
            None,
        )
        if port is None:
            raise ConfigError(f"nodes {a} and {b} are not mesh neighbours")
        self._arm_faults()
        self._dead.add((a, port))
        self._dead.add((b, port.opposite))
        self._pin_routes()

    def fail_router(self, node: tuple[int, int]) -> None:
        """Kill router ``node``: every link into and out of it dies.

        Traffic already inside the router, and packets addressed to it,
        are eventually declared lost (cut off / hop budget); traffic that
        merely routed *through* it detours around the dead region.
        """
        self.topology.require_node(node)
        self._arm_faults()
        for port in _MESH_PORTS:
            nbr = self.topology.neighbor(node, port)
            if nbr is None:
                continue
            self._dead.add((node, port))
            self._dead.add((nbr, port.opposite))
        self._pin_routes()

    # -- helpers --------------------------------------------------------------

    def _buffer_space(self, node: tuple[int, int], port: Port) -> int:
        buf = self._buffers.get((node, port))
        if buf is None:
            return 0
        return self.config.buffer_flits - len(buf)

    def _downstream_space(self, node: tuple[int, int]) -> dict[Port, int]:
        """Free slots in each neighbour buffer this router's outputs feed."""
        cap = self.config.buffer_flits
        buffers = self._buffers
        return {
            port: cap - len(buffers[key])
            for port, _nbr, key in self._adjacent[node]
        }

    def _router_tables(self) -> list[_PlanTable]:
        """The planner's per-router tables, built on first use.

        Valid for the network's lifetime: ``_drop_packet`` clears and
        refills the buffer deques in place and never rebinds them.
        """
        tables = self._plan_tables
        if tables is None:
            buffers = self._buffers
            tables = self._plan_tables = [
                (
                    node,
                    (
                        (Port.LOCAL, buffers[(node, Port.LOCAL)]),
                        *((port, buffers[(node, port)]) for port, _n, _k in entries),
                    ),
                    {port: (nbr, key, buffers[key]) for port, nbr, key in entries},
                )
                for node, entries in self._adjacent.items()
            ]
        return tables

    def _sink_ready(self, node: tuple[int, int]) -> bool:
        """Can the sink at ``node`` eject one flit this cycle?"""
        busy_until = self._memory_nodes.get(node)
        if busy_until is None:
            return True  # plain processor: 1 flit/cycle
        return busy_until <= self.cycle

    def _eject(self, node: tuple[int, int], flit: Flit) -> None:
        busy_until = self._memory_nodes.get(node)
        if busy_until is not None:
            cost = 1 if flit.is_head and flit.payload is None else (
                self.config.memory_reorder_cycles
            )
            self._memory_nodes[node] = self.cycle + cost
            self.stats.memory_busy_cycles[node] += cost
        if flit.payload is not None or not flit.is_head:
            self.stats.flits_delivered += 1
        self.sunk.append(
            SinkRecord(
                cycle=self.cycle,
                node=node,
                packet_id=flit.packet_id,
                payload=flit.payload,
                source=self._packet_meta[flit.packet_id][1],
            )
        )
        latency: int | None = None
        if flit.is_tail:
            inject_cycle, _src = self._packet_meta[flit.packet_id]
            latency = self.cycle - inject_cycle
            self.stats.packet_latencies.append(latency)
            self.stats.packets_delivered += 1
        if self._obs is not None:
            self._obs.mesh_deliver(
                self.cycle, node, flit.packet_id,
                self._packet_meta[flit.packet_id][1], flit.is_tail, latency,
            )

    # -- fault detection & recovery -----------------------------------------

    def _hop_limit(self, flit: Flit) -> int:
        """Livelock bound for ``flit`` (generous multiple of minimal path)."""
        limit = self._hop_limits.get(flit.packet_id)
        if limit is None:
            _cycle, src = self._packet_meta[flit.packet_id]
            dist = abs(flit.dest[0] - src[0]) + abs(flit.dest[1] - src[1])
            limit = self.fault_config.max_hop_factor * (dist + 2)
            self._hop_limits[flit.packet_id] = limit
        return limit

    def _dest_unreachable(self, dest: tuple[int, int]) -> bool:
        """True when every link *into* ``dest`` is dead (router failed).

        ``fail_router`` kills both directions of every link touching the
        router, so a destination is unreachable exactly when all its
        inbound half-links are in the dead set.  Cheap: degree <= 4.
        """
        if not self._dead:
            return False
        found = False
        for port in _MESH_PORTS:
            nbr = self.topology.neighbor(dest, port)
            if nbr is None:
                continue
            found = True
            if (nbr, port.opposite) not in self._dead:
                return False
        return found

    def _quarantine(self, node: tuple[int, int], port: Port) -> None:
        """Declare (node, port) dead locally and re-route or drop its users."""
        self._quarantined[node].add(port)
        self.stats.quarantine_events += 1
        if self._obs is not None:
            self._obs.mesh_fault(
                self.cycle, "quarantine", node=node, port=port.name
            )
        self._blocked.pop((node, port), None)
        for (n, pid), r in list(self._route.items()):
            if n != node or r != port:
                continue
            if self._owner.get((node, port)) == pid:
                # The head already crossed before the link died: the body
                # flits here are stranded mid-wormhole.  Re-routing them
                # would break flit ordering, so the packet is lost.
                self._drop_packet(pid)
            else:
                # The head is still waiting at this router: clear the
                # cached route so the next cycle recomputes it with
                # fault_aware_route (which sees the quarantine set).
                self._clear_route(n, pid)
                self.stats.reroutes += 1
                if self._obs is not None:
                    self._obs.mesh_fault(
                        self.cycle, "reroute", packet=pid, node=node
                    )

    def _drop_packet(self, packet_id: int) -> None:
        """Remove every flit of ``packet_id`` from the network (lost)."""
        dropped = 0
        for (node, _port), buf in self._buffers.items():
            if not buf:
                continue
            kept = [f for f in buf if f.packet_id != packet_id]
            removed = len(buf) - len(kept)
            if removed:
                self._occupancy[node] -= removed
                dropped += removed
                buf.clear()
                buf.extend(kept)
        for queue in self._inject.values():
            if not queue:
                continue
            kept = [f for f in queue if f.packet_id != packet_id]
            removed = len(queue) - len(kept)
            if removed:
                dropped += removed
                queue.clear()
                queue.extend(kept)
        self._pending_flits -= dropped
        self.stats.flits_dropped += dropped
        self._detour.discard(packet_id)
        if packet_id not in self.stats.packets_lost:
            self.stats.packets_lost.append(packet_id)
        for chan in [k for k, owner in self._owner.items() if owner == packet_id]:
            del self._owner[chan]
        for node, pid in [k for k in self._route if k[1] == packet_id]:
            self._clear_route(node, pid)
        if self._obs is not None:
            self._obs.mesh_fault(
                self.cycle, "drop", packet=packet_id, flits=dropped
            )

    def _fault_tick(self) -> None:
        """Per-cycle fault bookkeeping (only runs once faults are armed).

        Reads the pinned links and the over-budget buffers kept where
        routes, links and hop counts change, so a tick costs nothing
        while no packet waits at a dead link or runs over its budget.
        """
        timeout = self.fault_config.link_timeout_cycles
        # 1. Credit-timeout detection: a packet pinned at a dead output
        #    link for `timeout` cycles quarantines the port.  No pinned
        #    link is quarantined: quarantine clears every route through
        #    the port, and fault_aware_route never picks it again.
        for link in sorted(self._pinned, key=lambda lk: (lk[0], int(lk[1]))):
            count = self._blocked.get(link, 0) + 1
            self._blocked[link] = count
            if count >= timeout:
                self._quarantine(*link)
        # 2. Packets declared cut off by fault-aware routing.
        for pid in sorted(self._cut_off):
            self._drop_packet(pid)
        self._cut_off.clear()
        # 3. Hop budget: bound livelock of non-minimal detours.  Only a
        #    buffer an over-budget flit entered can have one at its head.
        if not self._over_budget:
            return
        over: set[int] = set()
        buffers = self._buffers
        for key in list(self._over_budget):
            buf = buffers[key]
            if buf and buf[0].hops > self._hop_limit(buf[0]):
                over.add(buf[0].packet_id)
            if not any(flit.hops > self._hop_limit(flit) for flit in buf):
                self._over_budget.discard(key)
        for pid in sorted(over):
            self._drop_packet(pid)

    def _break_stall(self) -> bool:
        """Shed one blocking packet to break a fault-induced deadlock.

        Misrouting around quarantined ports abandons the west-first turn
        model, so cyclic channel waits become possible near a cut.  When
        :meth:`run_resilient` observes a bounded window with no movement,
        this backstop drops the lowest-id packet buffered at a router
        with quarantined ports (falling back to any buffered packet) —
        the NoC analogue of end-to-end recovery: shed locally, report,
        let the upper layer retransmit.  Returns False when there was
        nothing to drop (the stall is not fault-induced).
        """
        candidates: list[tuple[int, int]] = []
        for node, ins, _outs in self._router_tables():
            if self._occupancy[node] == 0:
                continue
            near_quarantine = 0 if self._quarantined.get(node) else 1
            for _in_port, buf in ins:
                if buf:
                    candidates.append((near_quarantine, buf[0].packet_id))
        if not candidates:
            return False
        _prio, packet_id = min(candidates)
        if self._obs is not None:
            self._obs.mesh_fault(self.cycle, "stall_break", packet=packet_id)
        self._drop_packet(packet_id)
        return True

    # -- one simulation cycle ----------------------------------------------

    def _plan_moves(
        self,
    ) -> list[tuple[tuple[int, int], Port, tuple[int, int] | None, Port | None]]:
        """Decide this cycle's flit moves from start-of-cycle state.

        Returns (from_node, from_port, to_node, to_port) tuples; a ``None``
        destination means ejection at the local sink.
        """
        moves: list[
            tuple[tuple[int, int], Port, tuple[int, int] | None, Port | None]
        ] = []
        # Space is judged on start-of-cycle occupancy; reserve as we plan
        # so two flits cannot claim the same last slot.
        space_left: dict[tuple[tuple[int, int], Port], int] = {}

        occupancy = self._occupancy
        route_cache = self._route
        owner_map = self._owner
        rr = self._rr
        cap = self.config.buffer_flits
        cycle = self.cycle
        faults_on = self._faults_enabled
        dead = self._dead
        local = Port.LOCAL
        for node, ins, outs in self._router_tables():
            if occupancy[node] == 0:
                continue
            # Classify each movable input head by the output it wants.
            # Heads that cannot move this cycle drop out here, before any
            # arbitration: at benchmark scale most routers sit blocked
            # behind full downstream buffers.
            wants: dict[Port, list[Port]] = {}
            downstream: dict[Port, int] | None = None
            for in_port, buf in ins:
                if not buf:
                    continue
                flit = buf[0]
                if flit.ready_cycle > cycle:
                    continue
                pid = flit.packet_id
                route = route_cache.get((node, pid))
                if route is None:
                    # A new head: route it on start-of-cycle space, which
                    # planning never changes, so one snapshot per router
                    # serves every head routed here this cycle.
                    if downstream is None:
                        downstream = self._downstream_space(node)
                    route = self._flit_route(node, flit, downstream, in_port)
                    if route is None:  # head still in route computation
                        continue
                if route is not local:
                    out = outs.get(route)
                    if out is None:
                        # Route points off-mesh (hostile policy): the flit
                        # can never move; the deadlock detector handles it.
                        continue
                    if len(out[2]) >= cap:
                        # Downstream full (reservations only lower it).
                        continue
                    if faults_on and (node, route) in dead:
                        # Dead link: the flit cannot traverse.  It sits
                        # here until the credit timeout quarantines it.
                        continue
                owner = owner_map.get((node, route))
                if owner is None:
                    if not flit.is_head:
                        # Body flit cannot start a channel it doesn't own.
                        continue
                elif owner != pid:
                    continue
                wants.setdefault(route, []).append(in_port)

            for out_port, candidates in wants.items():
                # Downstream capacity / sink availability.
                if out_port is local:
                    if not self._sink_ready(node):
                        continue
                else:
                    nbr, key, down = outs[out_port]
                    left = space_left.get(key)
                    if left is None:
                        left = cap - len(down)
                    if left <= 0:
                        continue
                # Round-robin arbitration among candidate inputs.
                rr_key = (node, out_port)
                if len(candidates) == 1:
                    winner = candidates[0]
                else:
                    start = rr.get(rr_key, 0)
                    winner = min(
                        candidates, key=lambda p: ((int(p) - start) % 5, int(p))
                    )
                rr[rr_key] = (int(winner) + 1) % 5
                if out_port is local:
                    moves.append((node, winner, None, None))
                else:
                    space_left[key] = left - 1
                    moves.append((node, winner, nbr, key[1]))
        return moves

    def _flit_route(
        self,
        node: tuple[int, int],
        flit: Flit,
        downstream: dict[Port, int],
        in_port: Port = Port.LOCAL,
    ) -> Port | None:
        """Route of ``flit`` at ``node``; computes (and charges t_r) for heads."""
        key = (node, flit.packet_id)
        route = self._route.get(key)
        if route is not None:
            return route
        if not flit.is_head:
            exc = NetworkError(
                f"body flit of packet {flit.packet_id} reached {node} with no "
                "route — wormhole ordering violated"
            )
            # Structured context so run_resilient can shed the packet and
            # degrade instead of dying (found by repro.check fuzzing).
            exc.packet_id = flit.packet_id
            raise exc
        quarantined = (
            self._quarantined.get(node) if self._faults_enabled else None
        )
        if quarantined or (
            self._faults_enabled and flit.packet_id in self._detour
        ):
            # Recovery path: route around locally quarantined links,
            # preferring not to bounce straight back where we came from.
            # Packets in detour mode stay on this path at *every* router
            # until they regain productive progress, because routers away
            # from the cut would otherwise send them right back into it.
            if self._dest_unreachable(flit.dest):
                # Every link into the destination is dead (a failed
                # router): no detour can ever deliver this packet, and
                # letting the head wander re-splices the wormhole across
                # routers, scrambling flit order.  Cut it off now; the
                # next fault tick converts that into a clean loss.
                # (Found by repro.check differential fuzzing.)
                self._cut_off.add(flit.packet_id)
                return None
            avoid = in_port if in_port is not Port.LOCAL else None
            try:
                route = fault_aware_route(
                    self.topology,
                    node,
                    flit.dest,
                    downstream,
                    quarantined or set(),
                    avoid,
                )
            except RoutingError:
                # Every output is quarantined: the packet is cut off.
                # Flag it; the next fault tick converts it into a loss.
                self._cut_off.add(flit.packet_id)
                return None
            if route in productive_ports(node, flit.dest) or route is Port.LOCAL:
                self._detour.discard(flit.packet_id)
            else:
                self._detour.add(flit.packet_id)
        else:
            route = self.routing.route(self.topology, node, flit.dest, downstream)
        self._route[key] = route
        if self._faults_enabled and (node, route) in self._dead:
            self._pinned.setdefault((node, route), set()).add(flit.packet_id)
        if self.config.header_route_cycles > 0:
            flit.ready_cycle = self.cycle + self.config.header_route_cycles
            return None  # not movable until the pipeline delay elapses
        return route

    def _commit_moves(
        self,
        moves: list[tuple[tuple[int, int], Port, tuple[int, int] | None, Port | None]],
    ) -> int:
        moved = 0
        faults_on = self._faults_enabled
        for node, in_port, to_node, to_port in moves:
            buf = self._buffers[(node, in_port)]
            flit = buf.popleft()
            route = self._route[(node, flit.packet_id)]
            # Maintain wormhole channel ownership (LOCAL included, so a
            # packet's flits eject contiguously).
            chan = (node, route)
            if flit.is_head:
                self._owner[chan] = flit.packet_id
            if flit.is_tail:
                self._owner.pop(chan, None)
            if flit.is_tail:
                # Never a pinned route: no flit crosses a dead link.
                del self._route[(node, flit.packet_id)]
            self._occupancy[node] -= 1
            self.stats.flits_through_node[node] = (
                self.stats.flits_through_node.get(node, 0) + 1
            )
            if to_node is None:
                self._eject(node, flit)
                self._pending_flits -= 1
            else:
                flit.hops += 1
                self._buffers[(to_node, to_port)].append(flit)
                self._occupancy[to_node] += 1
                self.stats.flit_hops += 1
                if faults_on and flit.hops > self._hop_limit(flit):
                    self._over_budget.add((to_node, to_port))
            moved += 1
        return moved

    def _do_injection(self) -> int:
        injected = 0
        buffers = self._buffers
        occupancy = self._occupancy
        cap = self.config.buffer_flits
        cycle = self.cycle
        local = Port.LOCAL
        for node, queue in self._inject.items():
            if not queue:
                continue
            buf = buffers[(node, local)]
            while queue and len(buf) < cap:
                if queue[0].injected_cycle > cycle:
                    break
                buf.append(queue.popleft())
                occupancy[node] += 1
                injected += 1
        return injected

    def step(self) -> int:
        """Advance one cycle; returns flits moved (incl. injections)."""
        if self._faults_enabled:
            self._fault_tick()
        moves = self._plan_moves()
        moved = self._commit_moves(moves)
        moved += self._do_injection()
        if self._obs is not None:
            self._obs.mesh_cycle(self.cycle, moved, self._pending_flits)
        self.cycle += 1
        return moved

    @property
    def traffic_remaining(self) -> bool:
        """True while flits are queued, buffered or awaiting ejection."""
        if self._pending_flits > 0:
            return True
        return any(self._buffers.values()) or any(self._inject.values())

    def run(self, max_cycles: int | None = None) -> MeshStats:
        """Simulate until all traffic is delivered.

        Raises :class:`NetworkError` on deadlock (no movement for
        ``config.deadlock_cycles`` consecutive cycles) or when
        ``max_cycles`` elapses with traffic still in the network.
        """
        idle = 0
        if self._obs is not None:
            self._obs.mesh_run_begin(self.cycle, "run")
        while self.traffic_remaining:
            if max_cycles is not None and self.cycle >= max_cycles:
                raise NetworkError(
                    f"traffic undelivered after max_cycles={max_cycles}"
                )
            moved = self.step()
            if moved == 0:
                idle += 1
                if idle >= self.config.deadlock_cycles:
                    raise NetworkError(
                        f"deadlock: no flit moved for {idle} cycles at "
                        f"cycle {self.cycle}"
                    )
            else:
                idle = 0
        self.stats.cycles = self.cycle
        if self._obs is not None:
            self._obs.mesh_run_end(self.cycle, "run", self.stats)
        return self.stats

    def run_resilient(
        self, max_cycles: int | None = None
    ) -> tuple[MeshStats, MeshFaultReport | None]:
        """Simulate to completion, degrading gracefully instead of raising.

        The recovery counterpart of :meth:`run`: stalls and cycle
        overruns become a structured :class:`MeshFaultReport` rather
        than a :class:`~repro.util.errors.NetworkError`, so fault
        campaigns can measure *how much* was delivered instead of dying
        on the first hang.  Returns ``(stats, report)`` where ``report``
        is ``None`` for a perfectly clean run.
        """
        idle = 0
        aborted: str | None = None
        stall_window = max(4 * self.fault_config.link_timeout_cycles, 64)
        if self._obs is not None:
            self._obs.mesh_run_begin(self.cycle, "run_resilient")
        while self.traffic_remaining:
            if max_cycles is not None and self.cycle >= max_cycles:
                aborted = "max-cycles"
                break
            try:
                moved = self.step()
            except NetworkError as exc:
                # Wormhole-order violations under extreme fault patterns
                # are sheddable, not fatal, in the resilient runner: drop
                # the offending packet and keep delivering the rest.
                pid = getattr(exc, "packet_id", None)
                if pid is None:
                    raise
                if self._obs is not None:
                    self._obs.mesh_fault(
                        self.cycle, "order_violation", packet=pid
                    )
                self._drop_packet(pid)
                idle = 0
                continue
            if moved == 0:
                idle += 1
                if self._faults_enabled and idle >= stall_window:
                    # Fault-induced deadlock: shed one packet and go on.
                    if self._break_stall():
                        idle = 0
                        continue
                if idle >= self.config.deadlock_cycles:
                    aborted = "stall"
                    break
            else:
                idle = 0
        self.stats.cycles = self.cycle
        if self._obs is not None:
            self._obs.mesh_run_end(self.cycle, "run_resilient", self.stats)
        lost = list(self.stats.packets_lost)
        if aborted is None and not lost and not self.stats.flits_dropped:
            return self.stats, None
        undelivered = sorted(
            {f.packet_id for buf in self._buffers.values() for f in buf}
            | {f.packet_id for q in self._inject.values() for f in q}
        )
        quarantined = sorted(
            (
                (node, port)
                for node, ports in self._quarantined.items()
                for port in ports
            ),
            key=lambda lk: (lk[0], int(lk[1])),
        )
        kind = aborted or "degraded"
        report = MeshFaultReport(
            kind=kind,
            cycle=self.cycle,
            undelivered_packets=undelivered,
            lost_packets=lost,
            flits_dropped=self.stats.flits_dropped,
            quarantined_links=quarantined,
            message=(
                f"{kind}: {len(lost)} packet(s) lost, "
                f"{len(undelivered)} in flight at cycle {self.cycle}"
            ),
        )
        return self.stats, report


#: Not an engine: ``bench/ledger.py`` still lists ``FastMeshNetwork.inject``
#: among its entry points and resolves each name on ``repro.mesh``.  The
#: alias goes away with that name list (ROADMAP.md, "Repair the
#: per-layer ledger"); ``MeshConfig(engine="fast")`` raises ``ConfigError``.
FastMeshNetwork = MeshNetwork


def packet_id_base(net: MeshNetwork) -> int:
    """Smallest packet id ``net`` has seen, or 0 when nothing was injected.

    Packet ids come from a process-global counter, so differential
    comparisons subtract this base to make runs built at different
    points of a process comparable.
    """
    meta = net._packet_meta
    if isinstance(meta, IdRuns):
        return meta.first_id
    return min(meta) if meta else 0


def mesh_signature(net: MeshNetwork, stats: MeshStats) -> tuple:
    """Every observable a differential mesh comparison covers, normalized.

    The last element is the ``sunk`` delivery log with packet ids taken
    relative to :func:`packet_id_base`; the compiled engine leaves that
    log empty, so its comparisons drop it (``[:-1]``).
    """
    base = packet_id_base(net)
    return (
        stats.cycles,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.flit_hops,
        tuple(stats.packet_latencies),
        stats.memory_busy_cycles,
        tuple(sorted(stats.flits_through_node.items())),
        tuple(
            (r.cycle, r.node, r.packet_id - base, r.payload, r.source)
            for r in net.sunk
        ),
    )
