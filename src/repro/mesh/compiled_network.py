"""Schedule-compiled analytic mesh engine (``MeshConfig(engine="compiled")``).

The electronic-mesh side of the paper's Table III experiment is a
*single-sink coalesced gather*: every processor sends its rows to one
memory interface in column 0.  Under that traffic pattern the reference
simulator's cycle-accurate run collapses to closed form, because the
memory interface's reorder pipeline is the system bottleneck from the
very first ejection: the sink serializes at ``s = 1 + (nf - 1) * r``
cycles per packet (``nf`` = flits per packet, ``r`` =
``memory_reorder_cycles``), the network keeps the sink's input buffer
backlogged throughout, and west-first minimal-adaptive routing makes
every packet's path — and therefore every per-router flit count —
deterministic.

This engine evaluates those closed forms directly instead of simulating
flit movement, producing the *same* :class:`~repro.mesh.network.MeshStats`
the reference engine computes (cycles, packet latencies in delivery
order, per-node flit heat map, memory busy cycles, hop counts) at any
scale — including the paper's 1024-processor configuration that the
flit-level reference engine cannot finish in a bench budget.

Applicability predicate (checked, never assumed)
------------------------------------------------
Everything outside the empirically pinned domain raises
:class:`~repro.util.errors.EngineUnsupportedError` — the compiled engine
refuses loudly rather than silently degrading (callers that want a
fallback catch the error and re-run with ``engine="reference"``).  The
domain, validated flit-for-flit against the reference engine across
mesh sizes 2x2..16x16, 1-8 packets/node, ``r`` in {2, 4},
2-5 flits/packet and several column-0 sinks (``r == 1`` on the narrower
grid given below):

* exactly one destination for all packets, registered as a memory
  interface, in mesh column 0 (``sink.x == 0``) — west-first routing
  then fixes every path (west along the row, one vertical candidate);
* ``memory_reorder_cycles >= 2``, or ``r == 1`` with 2-flit packets
  (one header, one data flit), the sink at ``(0, 0)`` and a mesh at
  least 2x2.  At ``r == 1`` the run is network-bound, not
  sink-bound: with ``N`` packets per source on a ``w x h`` mesh the
  tails start at cycle 3 and step by 2 for the first ``N * (2w - 1)``
  gaps, then by 3, so a run takes ``N * (3wh - 2w + 1) + 1`` cycles.
  That law is pinned against the reference engine on every ``k x k``
  mesh for k = 2..16 with N = 1..16 and every ``w x h`` rectangle with
  w, h in 2..8 and N in {1, 2, 4} (``tests/oracle_at_scale.py``).
  Other ``r == 1`` shapes (more flits per packet, another sink, a 1-wide
  or 1-tall mesh) space their deliveries differently and are refused
  as ``reorder_cycles``;
* default microarchitecture: ``buffer_flits == 2``,
  ``header_route_cycles == 1``,
  :class:`~repro.mesh.routing.MinimalAdaptiveRouting`;
* uniform traffic: every node sources the same number of packets
  (>= 1, so the sink's own first packet pins the first ejection to
  cycle 2), all packets the same ``flit_count >= 2``, all created and
  injected at cycle 0;
* fault-free: ``fail_link`` / ``fail_router`` / ``run_resilient`` /
  ``step`` are refused outright.

One documented divergence: the per-flit ``sunk`` delivery log is left
empty and no per-packet ``mesh_deliver`` obs events are synthesized.
Which flit — and therefore which packet — ejects at each sink cycle
depends on round-robin arbitration noise at the sink's input buffers
that the closed form does not model; the tail-ejection *instants*
(``packet_latencies``, in delivery order) and every other ``MeshStats``
field are exact, and the differential suites compare exactly those.

Shape intake
------------
The closed forms only need per-source packet counts and the topology, so
a run costs O(nodes) in Python whatever its packet count.  The engine
never materializes flits: no :class:`~repro.mesh.flit.Flit` objects are
built, and the inherited input buffers, injection queues and planner
adjacency are never built either (:meth:`_init_flit_state`).  It keeps
the bookkeeping other layers read — the same endpoint
:class:`~repro.util.errors.ConfigError`, ``_packet_meta`` (injection
cycle and source per packet id), ``_pending_flits`` (so
``traffic_remaining`` is correct before and after :meth:`run`) and the
``mesh_inject`` obs event — and folds the traffic into a running summary
(packets per source, destinations, flit counts, a staggered-injection
flag).  The domain check reads that summary; the heat map and
``flit_hops`` are the per-source flit count times a path table cached
per ``(topology, sink)`` (:func:`_gather_paths`).

``_packet_meta`` is an :class:`~repro.mesh.flit.IdRuns`: runs of
consecutive ids, each mapped to one ``(cycle, source)``, that read
exactly like the dict the other engines fill.  Traffic arrives one of
two ways.  :meth:`inject` folds one whole packet, extending the last run
when its id and value continue it.  :meth:`inject_all` given a
transpose gather whose packets were never read
(:class:`~repro.mesh.workloads.TransposePackets`) folds the shape
itself: one run and one summary update per source, with no
:class:`~repro.mesh.flit.Packet` built.  It does so only with no
observer attached (the observer wants one ``mesh_inject`` event per
packet) and when every endpoint is on this network (otherwise the
per-packet path raises the same ``ConfigError`` at the same packet);
anything else takes the per-packet path.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from typing import Any

from ..util.errors import EngineUnsupportedError, NetworkError
from .flit import IdRuns, Packet
from .network import MeshNetwork, MeshStats
from .routing import MinimalAdaptiveRouting
from .topology import MeshTopology
from .workloads import TransposePackets

__all__ = ["CompiledMeshNetwork"]


@lru_cache(maxsize=64)
def _gather_paths(
    topology: MeshTopology, sink: tuple[int, int]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]:
    """West-first paths from every router of ``topology`` to ``sink``.

    Returns the routers the paths cross, in heat-map key order; how
    many sources' paths cross each of them (the ejecting sink counts,
    injection does not); and the summed hop distance.  With ``c``
    packets of ``nf`` flits per source, the heat map is ``c * nf``
    times the crossings and ``flit_hops`` is ``c * nf`` times the
    distance.  Immutable tuples, so runs on equal topologies share them.
    """
    width, height = topology.width, topology.height
    sx, sy = sink
    crossings: dict[tuple[int, int], int] = {}
    for y in range(height):
        # Horizontal legs: router (i, y) forwards every packet sourced
        # at x >= i in its row.
        for i in range(1, width):
            crossings[(i, y)] = width - i
        # Column-0 router of the row: every row packet turns here.
        crossings[(0, y)] = crossings.get((0, y), 0) + width
        # Vertical leg down/up column 0 toward the sink row.
        if y != sy:
            step = 1 if sy > y else -1
            for j in range(y + step, sy + step, step):
                crossings[(0, j)] = crossings.get((0, j), 0) + width
    distance = sum(abs(x - sx) + abs(y - sy) for x, y in topology.nodes())
    return tuple(crossings), tuple(crossings.values()), distance


class CompiledMeshNetwork(MeshNetwork):
    """Closed-form mesh engine for single-sink coalesced gathers.

    Construction (minus the flit state) and :meth:`add_memory_interface`
    are inherited.  :meth:`inject` takes whole packets: it raises the
    same endpoint ``ConfigError``, records ``_packet_meta`` and
    ``_pending_flits`` and emits the same ``mesh_inject`` obs event as
    the other engines, but builds no flits.  :meth:`inject_all`
    folds an unread transpose shape without building packets.
    :meth:`run` replaces the cycle loop with the analytic evaluation.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._packet_meta = IdRuns()
        # Running summary of the injected traffic: everything the domain
        # check and the closed forms read.
        self._per_source: dict[tuple[int, int], int] = {}
        self._dests: set[tuple[int, int]] = set()
        self._flit_counts: set[int] = set()
        self._staggered = False

    def _init_flit_state(self) -> None:
        """No flit ever moves here: no buffers, queues or adjacency."""
        self._buffers = {}
        self._inject = {}
        self._adjacent = {}

    # -- traffic ---------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Record a whole packet for the closed-form run (no flits)."""
        source = packet.source
        dest = packet.dest
        if source not in self._occupancy or dest not in self._occupancy:
            self.topology.require_node(source)
            self.topology.require_node(dest)
        flits = packet.flit_count
        pid = packet.packet_id
        self._packet_meta.add(
            pid, pid + 1, (max(self.cycle, packet.created_cycle), source)
        )
        self._pending_flits += flits
        self._per_source[source] = self._per_source.get(source, 0) + 1
        self._dests.add(dest)
        self._flit_counts.add(flits)
        if packet.created_cycle != 0:
            self._staggered = True
        if self._obs is not None:
            self._obs.mesh_inject(
                self.cycle, packet.packet_id, source, dest, flits
            )

    def inject_all(self, packets: Iterable[Packet]) -> None:
        """Fold an unread transpose shape in O(nodes), else inject each packet.

        The fold leaves exactly the state per-packet :meth:`inject`
        would; see "Shape intake" in the module docstring for when it
        applies.
        """
        if (
            type(packets) is not TransposePackets
            or packets.read
            or self._obs is not None
        ):
            super().inject_all(packets)
            return
        sources = packets.sources()
        on_net = self._occupancy
        if packets.dest not in on_net or not all(s in on_net for s in sources):
            super().inject_all(packets)
            return
        per = packets.per_source
        flits = packets.flit_count
        cycle = self.cycle
        self._packet_meta.add_blocks(
            packets.ids.start, per, [(cycle, source) for source in sources]
        )
        counts = self._per_source
        for source in sources:
            counts[source] = counts.get(source, 0) + per
        self._pending_flits += len(packets) * flits
        self._dests.add(packets.dest)
        self._flit_counts.add(flits)

    # -- refused capabilities -------------------------------------------

    def fail_link(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        raise EngineUnsupportedError(
            "compiled",
            "fault_injection",
            "closed-form evaluation assumes a fault-free mesh; use "
            "engine='reference' for fail_link/fail_router runs",
        )

    def fail_router(self, node: tuple[int, int]) -> None:
        raise EngineUnsupportedError(
            "compiled",
            "fault_injection",
            "closed-form evaluation assumes a fault-free mesh; use "
            "engine='reference' for fail_link/fail_router runs",
        )

    def run_resilient(self, max_cycles: int | None = None):
        raise EngineUnsupportedError(
            "compiled",
            "run_resilient",
            "graceful degradation is defined in terms of flit-level "
            "recovery; use engine='reference'",
        )

    def step(self) -> int:
        raise EngineUnsupportedError(
            "compiled",
            "step",
            "the compiled engine evaluates whole runs in closed form; "
            "single-cycle stepping needs engine='reference'",
        )

    # -- applicability predicate ----------------------------------------

    def _require_supported(self) -> tuple[tuple[int, int], int, int]:
        """Validate the closed-form domain.

        Returns ``(sink, flit_count, packets_per_source)``.
        """

        def refuse(feature: str, reason: str) -> EngineUnsupportedError:
            return EngineUnsupportedError("compiled", feature, reason)

        cfg = self.config
        if type(self.topology) is not MeshTopology:
            raise refuse(
                "topology",
                f"{type(self.topology).__name__}: the closed forms model "
                "west-first paths on a plain rectangular mesh; torus and "
                "other fabrics need engine='reference'",
            )
        if cfg.memory_reorder_cycles == 1:
            missing = self._outside_reorder_one_law()
            if missing:
                raise refuse(
                    "reorder_cycles",
                    "memory_reorder_cycles=1: the network-bound r=1 law "
                    "is pinned only for 2-flit packets gathered at sink "
                    "(0, 0) on a mesh at least 2x2; here "
                    + "; ".join(missing),
                )
        if cfg.buffer_flits != 2 or cfg.header_route_cycles != 1:
            raise refuse(
                "microarchitecture",
                f"buffer_flits={cfg.buffer_flits}, "
                f"header_route_cycles={cfg.header_route_cycles}: the "
                "closed form is pinned against the default 2-flit "
                "buffers and 1-cycle header route",
            )
        if type(self.routing) is not MinimalAdaptiveRouting:
            raise refuse(
                "routing_policy",
                f"{type(self.routing).__name__}: paths are only "
                "deterministic under the default west-first "
                "MinimalAdaptiveRouting",
            )
        if self._faults_enabled or self._dead:
            raise refuse(
                "fault_injection",
                "faults were armed before run()",
            )
        if self.cycle != 0:
            raise refuse(
                "resumed_run",
                "the closed form covers one whole run from cycle 0",
            )
        sinks = self._dests
        if len(sinks) != 1:
            raise refuse(
                "multiple_sinks",
                f"{len(sinks)} distinct destinations: the closed form "
                "models one serializing memory-interface sink",
            )
        (sink,) = sinks
        if sink not in self._memory_nodes:
            raise refuse(
                "processor_sink",
                f"destination {sink} is not a registered memory "
                "interface (add_memory_interface)",
            )
        if sink[0] != 0:
            raise refuse(
                "sink_column",
                f"sink {sink} is not in mesh column 0; west-first paths "
                "are only source-independent when every source is east "
                "of (or on) the sink column",
            )
        counts = self._flit_counts
        if len(counts) != 1 or min(counts) < 2:
            raise refuse(
                "flit_shape",
                f"flit counts {sorted(counts)}: need a uniform "
                "flit_count >= 2 (header + at least one data flit)",
            )
        if self._staggered:
            raise refuse(
                "staggered_injection",
                "all packets must be created and injected at cycle 0",
            )
        per_node = self._per_source
        per_source = set(per_node.values())
        if set(per_node) != set(self._nodes) or len(per_source) != 1:
            raise refuse(
                "traffic_shape",
                "every mesh node must source the same number of packets "
                "(the coalesced-gather pattern the closed form is "
                "pinned against)",
            )
        (nf,) = counts
        (per,) = per_source
        return sink, nf, per

    def _outside_reorder_one_law(self) -> list[str]:
        """Why the injected traffic is outside the r=1 law's domain.

        Empty when the law applies; otherwise one phrase per missing
        condition, for the refusal's reason.
        """
        missing = []
        if self._flit_counts != {2}:
            missing.append(f"flit counts {sorted(self._flit_counts)}, not [2]")
        if self._dests != {(0, 0)}:
            missing.append(f"destinations {sorted(self._dests)}, not [(0, 0)]")
        width, height = self.topology.width, self.topology.height
        if width < 2 or height < 2:
            missing.append(f"a {width}x{height} mesh")
        return missing

    # -- closed-form evaluation -----------------------------------------

    def run(self, max_cycles: int | None = None) -> MeshStats:
        """Evaluate the run analytically; identical ``MeshStats``.

        Raises :class:`~repro.util.errors.NetworkError` exactly when the
        reference engine would: ``max_cycles`` smaller than the finish
        cycle means traffic would still be in flight.
        """
        if not self._per_source:
            # No traffic: the reference loop exits immediately.
            if self._obs is not None:
                self._obs.mesh_run_begin(self.cycle, "run")
            self.stats.cycles = self.cycle
            if self._obs is not None:
                self._obs.mesh_run_end(self.cycle, "run", self.stats)
            return self.stats
        # Refuse before opening the run span, so a caller that falls back
        # to another engine on the same session sees balanced spans.
        sink, nf, per = self._require_supported()
        if self._obs is not None:
            self._obs.mesh_run_begin(self.cycle, "run")
        r = self.config.memory_reorder_cycles
        n = per * len(self._per_source)

        # Sink-serialized service: the head flit (payload None) ejects in
        # 1 cycle, every other flit in r; the j-th packet's tail ejects at
        #   tail_j = 2 + j*s + 1 + (nf - 2)*r
        # with the first head pinned to cycle 2 by the sink's own
        # injection pipeline (inject -> local buffer -> 1-cycle route).
        s = 1 + (nf - 1) * r
        first_tail = 2 + 1 + (nf - 2) * r
        if r == 1:
            # Network-bound at r=1 (nf == 2, sink (0, 0), pinned against
            # the reference engine): the first per*(2w - 1) gaps are 2
            # cycles, the sink's own one-flit-a-cycle rate, and every
            # later gap is 3, the rate one input link sustains once the
            # sink row has drained and only column 0 still feeds it.
            two = per * (2 * self.topology.width - 1)
            tails = list(range(first_tail, first_tail + 2 * two + 1, 2))
            last = tails[-1]
            tails.extend(range(last + 3, last + 3 * (n - two), 3))
        else:
            tails = list(range(first_tail, first_tail + n * s, s))
        finish = tails[-1] + 1
        if max_cycles is not None and max_cycles < finish:
            raise NetworkError(
                f"traffic undelivered after max_cycles={max_cycles}"
            )

        stats = self.stats
        stats.cycles = finish
        stats.packets_delivered = n
        stats.flits_delivered = n * (nf - 1)
        stats.packet_latencies = tails  # injected at cycle 0, so latency == tail
        stats.memory_busy_cycles[sink] = n * s

        # Deterministic west-first paths: west along the source row to
        # column 0, then vertically along column 0 to the sink.  Each
        # traversed router forwards all nf flits of every packet whose
        # path crosses it; the per-topology table (_gather_paths) makes
        # this O(width * height) whatever the packet count.
        routers, crossings, distance = _gather_paths(self.topology, sink)
        flits_per_source = per * nf
        stats.flit_hops = flits_per_source * distance
        stats.flits_through_node = dict(
            zip(routers, [flits_per_source * c for c in crossings])
        )

        # Leave the network drained, exactly as a completed run would.
        self._pending_flits = 0
        self.cycle = finish

        if self._obs is not None:
            # No per-packet mesh_deliver events: which packet ejects at
            # each tail instant depends on the sink's round-robin input
            # arbitration, the same noise that leaves `sunk` empty (see
            # the module docstring).  The run-level summary — cycles,
            # latencies, per-node flit heat map — is exact and flows
            # through mesh_run_end's stats export.
            self._obs.mesh_run_end(self.cycle, "run", stats)
        return stats
