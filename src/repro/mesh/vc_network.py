"""Wormhole mesh with virtual channels.

The paper's mesh has single-VC channels ("2-flit deep buffers").  A
standard objection: would virtual channels — which remove head-of-line
blocking by letting packets interleave on a physical link — close the
gap to the PSCAN?  This simulator answers it.  It is deliberately a
*separate* implementation from :class:`~repro.mesh.network.MeshNetwork`
so the two can cross-check each other at ``virtual_channels=1``.

VC semantics (classic Dally):

* each input port has ``V`` independent flit buffers (VCs);
* a packet occupies exactly one VC per hop, allocated when its head
  flit is ready to move and the downstream buffer has a free VC;
* the physical link moves one flit per cycle, arbitrating round-robin
  over (input port, VC) candidates — flits of *different* packets may
  interleave cycle by cycle on the wire;
* a VC is released when the packet's tail flit departs its buffer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..util.errors import ConfigError, NetworkError
from .flit import Flit, Packet
from .network import MeshFaultReport
from .routing import MinimalAdaptiveRouting, RoutingPolicy
from .topology import MeshTopology, Port

__all__ = ["VcMeshConfig", "VcMeshNetwork"]

_MESH_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


@dataclass(frozen=True, slots=True)
class VcMeshConfig:
    """Microarchitecture of the VC mesh."""

    virtual_channels: int = 2
    buffer_flits: int = 2          # per VC
    header_route_cycles: int = 1
    memory_reorder_cycles: int = 1
    deadlock_cycles: int = 10_000

    def __post_init__(self) -> None:
        if self.virtual_channels < 1:
            raise ConfigError("virtual_channels must be >= 1")
        if self.buffer_flits < 1:
            raise ConfigError("buffer_flits must be >= 1")
        if self.header_route_cycles < 0:
            raise ConfigError("header_route_cycles must be >= 0")
        if self.memory_reorder_cycles < 1:
            raise ConfigError("memory_reorder_cycles must be >= 1")
        if self.deadlock_cycles < 10:
            raise ConfigError("deadlock_cycles must be >= 10")


@dataclass
class VcMeshStats:
    """Aggregate results."""

    cycles: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    flit_hops: int = 0
    packet_latencies: list[int] = field(default_factory=list)

    @property
    def mean_packet_latency(self) -> float:
        """Mean packet latency (0.0 with no packets)."""
        if not self.packet_latencies:
            return 0.0
        return sum(self.packet_latencies) / len(self.packet_latencies)


class VcMeshNetwork:
    """The VC wormhole simulator; same driving API as MeshNetwork."""

    def __init__(
        self,
        topology: MeshTopology,
        config: VcMeshConfig | None = None,
        routing: RoutingPolicy | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or VcMeshConfig()
        self.routing = routing or MinimalAdaptiveRouting()
        self.cycle = 0
        V = self.config.virtual_channels
        # (node, port, vc) -> deque of flits.
        self._buffers: dict[tuple, deque[Flit]] = {}
        for node in topology.nodes():
            for vc in range(V):
                self._buffers[(node, Port.LOCAL, vc)] = deque()
                for port in topology.mesh_ports(node):
                    self._buffers[(node, port, vc)] = deque()
        # VC ownership of an input buffer: (node, port, vc) -> packet_id.
        self._vc_owner: dict[tuple, int] = {}
        # Per-hop choice of a packet: (node, packet_id) -> (out_port, out_vc).
        self._assign: dict[tuple, tuple[Port, int]] = {}
        # Round-robin pointers per physical output link.
        self._rr: dict[tuple, int] = {}
        self._inject: dict[tuple[int, int], deque[Flit]] = {
            node: deque() for node in topology.nodes()
        }
        self._inject_vc: dict[int, int] = {}  # packet -> local vc
        self._memory_nodes: dict[tuple[int, int], int] = {}
        self._packet_meta: dict[int, tuple[int, tuple[int, int]]] = {}
        self._pending_flits = 0
        self._occupancy: dict[tuple[int, int], int] = {
            node: 0 for node in topology.nodes()
        }
        self._nodes = topology.nodes()
        # Precomputed adjacency: node -> {port: neighbor}.
        self._adjacent: dict[tuple[int, int], dict[Port, tuple[int, int]]] = {
            node: {
                p: topology.neighbor(node, p)
                for p in _MESH_PORTS
                if topology.neighbor(node, p) is not None
            }
            for node in topology.nodes()
        }
        self.stats = VcMeshStats()
        self.sunk: list = []
        # Fault layer (lite): dead links block traffic; run_resilient
        # converts the resulting stall into a structured report.  Full
        # quarantine-and-reroute recovery lives in MeshNetwork.
        self._faults_enabled = False
        self._dead: set[tuple[tuple[int, int], Port]] = set()
        # Optional observability hook (duck-typed ObsSession); None keeps
        # the hot loops at one pointer comparison per hook site.
        self._obs: Any = None

    # -- construction ------------------------------------------------------

    def attach_observer(self, obs: Any) -> None:
        """Attach an observability session (see :mod:`repro.obs`).

        Same duck-typed hook contract as
        :meth:`repro.mesh.network.MeshNetwork.attach_observer`:
        ``mesh_inject`` / ``mesh_deliver`` / ``mesh_cycle`` /
        ``mesh_run_begin`` / ``mesh_run_end``.  The VC mesh has no
        quarantine/reroute recovery, so it never emits ``mesh_fault``
        events.  Pass ``None`` to detach.
        """
        self._obs = obs

    def add_memory_interface(self, node: tuple[int, int]) -> None:
        """Attach a reorder-cost memory interface at ``node``."""
        self.topology.require_node(node)
        self._memory_nodes[node] = 0

    def inject(self, packet: Packet) -> None:
        """Queue a packet at its source."""
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

    def fail_link(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        """Kill the (bidirectional) link between adjacent ``a`` and ``b``.

        The VC mesh only *detects* the resulting loss of progress (see
        :meth:`run_resilient`); re-routing recovery is a
        :class:`~repro.mesh.network.MeshNetwork` feature.
        """
        self.topology.require_node(a)
        self.topology.require_node(b)
        port = next(
            (p for p in _MESH_PORTS if self.topology.neighbor(a, p) == b),
            None,
        )
        if port is None:
            raise ConfigError(f"nodes {a} and {b} are not mesh neighbours")
        self._faults_enabled = True
        self._dead.add((a, port))
        self._dead.add((b, port.opposite))

    # -- helpers -----------------------------------------------------------

    def _free_vc(self, node: tuple[int, int], port: Port) -> int | None:
        """A VC on (node, port) not owned by any packet, else None."""
        for vc in range(self.config.virtual_channels):
            if (node, port, vc) not in self._vc_owner:
                return vc
        return None

    def _sink_ready(self, node: tuple[int, int]) -> bool:
        busy = self._memory_nodes.get(node)
        return True if busy is None else busy <= self.cycle

    def _eject(self, node: tuple[int, int], flit: Flit) -> None:
        busy = self._memory_nodes.get(node)
        if busy is not None:
            cost = 1 if flit.is_head and flit.payload is None else (
                self.config.memory_reorder_cycles
            )
            self._memory_nodes[node] = self.cycle + cost
        if flit.payload is not None or not flit.is_head:
            self.stats.flits_delivered += 1
        self.sunk.append((self.cycle, node, flit.packet_id, flit.payload))
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

    # -- one cycle ----------------------------------------------------------

    def _plan(self) -> list[tuple]:
        """Moves: (node, in_port, in_vc, to_node|None, to_port, to_vc)."""
        moves: list[tuple] = []
        V = self.config.virtual_channels
        space_taken: dict[tuple, int] = {}
        vc_claimed: set[tuple] = set()
        sink_used: set[tuple[int, int]] = set()

        buffers = self._buffers
        for node in self._nodes:
            if self._occupancy[node] == 0:
                continue
            downstream = self._adjacent[node]
            # Downstream *free-slot* summary for the adaptive policy:
            # best free space over that port's VCs.
            space_view = {}
            for p, nbr in downstream.items():
                best = 0
                opp = p.opposite
                for vc in range(V):
                    free = self.config.buffer_flits - len(buffers[(nbr, opp, vc)])
                    if free > best:
                        best = free
                space_view[p] = best

            # Classify each (in_port, vc) head flit by its wanted output.
            wants: dict[Port, list[tuple[Port, int]]] = {}
            for in_port in (Port.LOCAL, *_MESH_PORTS):
                for vc in range(V):
                    buf = buffers.get((node, in_port, vc))
                    if not buf:
                        continue
                    flit = buf[0]
                    if flit.ready_cycle > self.cycle:
                        continue
                    assign = self._route_flit(node, flit, space_view)
                    if assign is None:
                        continue
                    if (
                        self._faults_enabled
                        and assign[0] is not Port.LOCAL
                        and (node, assign[0]) in self._dead
                    ):
                        continue  # dead link: flit cannot traverse
                    wants.setdefault(assign[0], []).append((in_port, vc))

            for out_port, candidates in wants.items():
                if out_port is not Port.LOCAL and out_port not in downstream:
                    continue
                if out_port is Port.LOCAL:
                    if node in sink_used or not self._sink_ready(node):
                        continue
                else:
                    nbr = downstream[out_port]
                # Round-robin over (port, vc) pairs.
                rr_key = (node, out_port)
                start = self._rr.get(rr_key, 0)
                order = sorted(
                    candidates,
                    key=lambda c: ((int(c[0]) * V + c[1] - start) % (5 * V)),
                )
                # Find the first candidate whose downstream slot is free.
                chosen = None
                for in_port, vc in order:
                    flit = self._buffers[(node, in_port, vc)][0]
                    out_p, out_vc = self._assign[(node, flit.packet_id)]
                    if out_p is Port.LOCAL:
                        chosen = (in_port, vc, None, Port.LOCAL, 0)
                        break
                    nbr = downstream[out_p]
                    key = (nbr, out_p.opposite, out_vc)
                    used = space_taken.get(key, 0)
                    free = self.config.buffer_flits - len(self._buffers[key]) - used
                    if free <= 0:
                        continue
                    # A head flit also claims VC ownership downstream;
                    # guard against two heads claiming the same VC this
                    # cycle (allocation already reserved it, but double
                    # check freshly allocated ones).
                    chosen = (in_port, vc, nbr, out_p.opposite, out_vc)
                    space_taken[key] = used + 1
                    break
                if chosen is None:
                    continue
                in_port, vc, to_node, to_port, to_vc = chosen
                self._rr[rr_key] = (int(in_port) * V + vc + 1) % (5 * V)
                if to_node is None:
                    sink_used.add(node)
                moves.append((node, in_port, vc, to_node, to_port, to_vc))
        return moves

    def _route_flit(
        self, node, flit: Flit, space_view
    ) -> tuple[Port, int] | None:
        """Route + VC assignment of ``flit`` at ``node`` (heads allocate)."""
        key = (node, flit.packet_id)
        assign = self._assign.get(key)
        if assign is not None:
            return assign
        if not flit.is_head:
            raise NetworkError(
                f"body flit of packet {flit.packet_id} has no VC assignment "
                f"at {node}"
            )
        out_port = self.routing.route(self.topology, node, flit.dest, space_view)
        if out_port is Port.LOCAL:
            assign = (Port.LOCAL, 0)
        else:
            nbr = self.topology.neighbor(node, out_port)
            vc = self._free_vc(nbr, out_port.opposite)
            if vc is None:
                return None  # all downstream VCs busy; retry next cycle
            # Reserve immediately so no other head grabs it this cycle.
            self._vc_owner[(nbr, out_port.opposite, vc)] = flit.packet_id
            assign = (out_port, vc)
        self._assign[key] = assign
        if self.config.header_route_cycles > 0:
            flit.ready_cycle = self.cycle + self.config.header_route_cycles
            return None
        return assign

    def _commit(self, moves: list[tuple]) -> int:
        moved = 0
        for node, in_port, vc, to_node, to_port, to_vc in moves:
            buf = self._buffers[(node, in_port, vc)]
            flit = buf.popleft()
            self._occupancy[node] -= 1
            if flit.is_tail:
                # Release this hop's VC and the per-hop assignment.
                self._vc_owner.pop((node, in_port, vc), None)
                self._assign.pop((node, flit.packet_id), None)
            if to_node is None:
                self._eject(node, flit)
                self._pending_flits -= 1
            else:
                self._buffers[(to_node, to_port, to_vc)].append(flit)
                self._occupancy[to_node] += 1
                self.stats.flit_hops += 1
            moved += 1
        return moved

    def _do_injection(self) -> int:
        injected = 0
        for node, queue in self._inject.items():
            if not queue:
                continue
            flit = queue[0]
            if flit.injected_cycle > self.cycle:
                continue
            pkt = flit.packet_id
            vc = self._inject_vc.get(pkt)
            if vc is None:
                vc = self._free_vc(node, Port.LOCAL)
                if vc is None:
                    continue  # all local VCs busy
                self._vc_owner[(node, Port.LOCAL, vc)] = pkt
                self._inject_vc[pkt] = vc
            buf = self._buffers[(node, Port.LOCAL, vc)]
            if len(buf) >= self.config.buffer_flits:
                continue
            buf.append(queue.popleft())
            self._occupancy[node] += 1
            injected += 1
            if flit.is_tail:
                del self._inject_vc[pkt]
        return injected

    def step(self) -> int:
        """Advance one cycle; returns flits moved."""
        moved = self._commit(self._plan())
        moved += self._do_injection()
        if self._obs is not None:
            self._obs.mesh_cycle(self.cycle, moved, self._pending_flits)
        self.cycle += 1
        return moved

    @property
    def traffic_remaining(self) -> bool:
        """True while anything is still queued or buffered."""
        if self._pending_flits > 0:
            return True
        return any(self._buffers.values()) or any(self._inject.values())

    def run(self, max_cycles: int | None = None) -> VcMeshStats:
        """Simulate to completion; detects deadlock and cycle overrun."""
        idle = 0
        if self._obs is not None:
            self._obs.mesh_run_begin(self.cycle, "run")
        while self.traffic_remaining:
            if max_cycles is not None and self.cycle >= max_cycles:
                raise NetworkError(f"undelivered after max_cycles={max_cycles}")
            moved = self.step()
            if moved == 0:
                idle += 1
                if idle >= self.config.deadlock_cycles:
                    raise NetworkError(
                        f"deadlock: idle for {idle} cycles at {self.cycle}"
                    )
            else:
                idle = 0
        self.stats.cycles = self.cycle
        if self._obs is not None:
            self._obs.mesh_run_end(self.cycle, "run", self.stats)
        return self.stats

    def run_resilient(
        self, max_cycles: int | None = None
    ) -> tuple[VcMeshStats, MeshFaultReport | None]:
        """Simulate; convert stalls/overruns into a structured report.

        Detection-only counterpart of
        :meth:`~repro.mesh.network.MeshNetwork.run_resilient`: traffic
        blocked by dead links ends the run with a ``"stall"`` report
        listing the undelivered packets instead of raising
        :class:`~repro.util.errors.NetworkError`.
        """
        idle = 0
        aborted: str | None = None
        if self._obs is not None:
            self._obs.mesh_run_begin(self.cycle, "run_resilient")
        while self.traffic_remaining:
            if max_cycles is not None and self.cycle >= max_cycles:
                aborted = "max-cycles"
                break
            moved = self.step()
            if moved == 0:
                idle += 1
                if idle >= self.config.deadlock_cycles:
                    aborted = "stall"
                    break
            else:
                idle = 0
        self.stats.cycles = self.cycle
        if self._obs is not None:
            self._obs.mesh_run_end(self.cycle, "run_resilient", self.stats)
        if aborted is None:
            return self.stats, None
        undelivered = sorted(
            {f.packet_id for buf in self._buffers.values() for f in buf}
            | {f.packet_id for q in self._inject.values() for f in q}
        )
        report = MeshFaultReport(
            kind=aborted,
            cycle=self.cycle,
            undelivered_packets=undelivered,
            lost_packets=[],
            flits_dropped=0,
            quarantined_links=[],
            message=(
                f"{aborted}: {len(undelivered)} packet(s) in flight "
                f"at cycle {self.cycle}"
            ),
        )
        return self.stats, report
