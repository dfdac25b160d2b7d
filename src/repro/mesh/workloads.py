"""Workload generators for the mesh simulator (paper Sections V-B2, V-C2).

Each generator returns a sequence of :class:`~repro.mesh.flit.Packet`
ready to inject, plus enough metadata to check delivery.  The headline
workload is the **transpose gather**: every processor writes its FFT row
back to a single memory interface, where elements must interleave
column-major — maximally non-local traffic with a single hot sink.

:func:`make_transpose_gather` reserves its packet ids when it is called
but keeps the traffic as a shape (:class:`TransposePackets`): the
``Packet`` tuple is built on first read, with the ids, order and payloads
an eager loop would have produced.  The flit engines read it; the
compiled engine folds a never-read shape in O(nodes) instead
(:meth:`~repro.mesh.network.MeshNetwork.inject_all`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from ..util.errors import ConfigError
from .flit import Packet, require_header_flits, reserve_packet_ids
from .topology import MeshTopology

__all__ = [
    "TransposePackets",
    "TransposeWorkload",
    "make_transpose_gather",
    "make_scatter_delivery",
    "make_uniform_random",
]


@dataclass(frozen=True, slots=True)
class TransposeWorkload:
    """A transpose-gather traffic set.

    ``packets[i]`` carries one element; ``payload`` is the linear target
    address in column-major memory order, so a correctness check is simply
    that the set of delivered addresses equals ``range(rows * cols)``.

    ``memory_nodes`` lists *every* memory interface the traffic sinks at
    (one entry for the single-MC makers, the full stripe set for
    :func:`make_transpose_gather_multi_mc`); ``memory_node`` remains the
    first of them for single-sink consumers.
    """

    packets: Sequence[Packet]
    rows: int
    cols: int
    memory_node: tuple[int, int]
    memory_nodes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.memory_nodes:
            object.__setattr__(self, "memory_nodes", (self.memory_node,))

    @property
    def total_elements(self) -> int:
        """Elements (words) in the whole transpose."""
        return self.rows * self.cols


def _processor_for_row(topology: MeshTopology, row: int) -> tuple[int, int]:
    """Row ``r`` of the matrix lives on processor ``r`` (row-major grid)."""
    x = row % topology.width
    y = row // topology.width
    return (x, y)


class TransposePackets(Sequence):
    """The transpose gather's packets, kept as a shape until first read.

    Behaves as the ``tuple`` of :class:`~repro.mesh.flit.Packet` the
    eager loop used to return — ``len``, iteration, indexing, slicing,
    ``+``, ``==``, ``hash`` and ``repr`` all act on that tuple — but
    the tuple is only built (and then cached) on the first read that
    needs packets; ``len`` needs none.  The ids in :attr:`ids` were
    reserved when the workload was made, so a late read yields exactly
    the packets an eager build would have.

    Row ``r``'s processor sends ``cols // elements_per_packet`` packets
    to :attr:`dest`, in column order; :attr:`read` tells an engine
    whether that shape still describes the traffic (once the packets
    are out, a caller may have mutated them).
    """

    __slots__ = (
        "topology", "rows", "cols", "elements_per_packet", "header_flits",
        "dest", "ids", "_packets",
    )

    def __init__(
        self,
        topology: MeshTopology,
        cols: int,
        dest: tuple[int, int],
        elements_per_packet: int,
        header_flits: int,
    ) -> None:
        self.topology = topology
        self.rows = topology.node_count
        self.cols = cols
        self.elements_per_packet = elements_per_packet
        self.header_flits = header_flits
        self.dest = dest
        self.ids = reserve_packet_ids(self.rows * self.per_source)
        self._packets: tuple[Packet, ...] | None = None

    @property
    def per_source(self) -> int:
        """Packets each row's processor sends."""
        return self.cols // self.elements_per_packet

    @property
    def flit_count(self) -> int:
        """Flits per packet: headers plus one per element."""
        return self.header_flits + self.elements_per_packet

    @property
    def read(self) -> bool:
        """True once the packet tuple has been built."""
        return self._packets is not None

    def sources(self) -> list[tuple[int, int]]:
        """Each row's processor, in row (= packet id) order.

        Row ``r`` lives on processor ``r`` of the row-major grid
        (:func:`_processor_for_row`), so this is the topology's node list.
        """
        return self.topology.nodes()

    def _tuple(self) -> tuple[Packet, ...]:
        packets = self._packets
        if packets is None:
            rows, epp = self.rows, self.elements_per_packet
            dest, header_flits = self.dest, self.header_flits
            ids = iter(self.ids)
            built: list[Packet] = []
            for r, src in enumerate(self.sources()):
                for c0 in range(0, self.cols, epp):
                    built.append(
                        Packet(
                            source=src,
                            dest=dest,
                            payloads=[(c0 + j) * rows + r for j in range(epp)],
                            header_flits=header_flits,
                            packet_id=next(ids),
                        )
                    )
            packets = self._packets = tuple(built)
        return packets

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._tuple())

    def __getitem__(self, index: Any) -> Any:
        return self._tuple()[index]

    def __add__(self, other: Any) -> tuple[Packet, ...]:
        return self._tuple() + other

    def __radd__(self, other: Any) -> tuple[Packet, ...]:
        return other + self._tuple()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TransposePackets):
            other = other._tuple()
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


def make_transpose_gather(
    topology: MeshTopology,
    cols: int,
    memory_node: tuple[int, int] = (0, 0),
    elements_per_packet: int = 1,
    header_flits: int = 1,
) -> TransposeWorkload:
    """Build the transpose writeback: every processor sends its row to memory.

    Processor ``r`` holds matrix row ``r`` (length ``cols``).  Memory
    wants column-major order: element (r, c) goes to linear address
    ``c * rows + r``.  With ``elements_per_packet == 1`` this is the
    paper's per-element traffic ("each element is output independently");
    larger values model software coalescing (an ablation).

    The ``rows * cols / elements_per_packet`` packet ids are taken now;
    the packets themselves are built on first read
    (:class:`TransposePackets`).
    """
    topology.require_node(memory_node)
    if cols < 1:
        raise ConfigError(f"cols must be >= 1, got {cols}")
    if elements_per_packet < 1:
        raise ConfigError("elements_per_packet must be >= 1")
    if cols % elements_per_packet != 0:
        raise ConfigError(
            f"elements_per_packet {elements_per_packet} must divide cols {cols}"
        )
    # Packet.__post_init__'s check, made here because no packet is built.
    require_header_flits(header_flits)
    packets = TransposePackets(
        topology, cols, memory_node, elements_per_packet, header_flits
    )
    return TransposeWorkload(
        packets=packets, rows=packets.rows, cols=cols, memory_node=memory_node
    )


def make_scatter_delivery(
    topology: MeshTopology,
    words_per_processor: int,
    k: int = 1,
    memory_node: tuple[int, int] = (0, 0),
    header_flits: int = 1,
) -> list[Packet]:
    """Model I/II data delivery from one memory node to all processors.

    ``k`` blocks per processor, delivered round-robin (Model II); ``k=1``
    is Model I.  Each block is one packet of ``words_per_processor / k``
    payload flits.  Packets are returned in injection (serial) order.
    """
    topology.require_node(memory_node)
    if words_per_processor < 1 or k < 1:
        raise ConfigError("words_per_processor and k must be >= 1")
    if words_per_processor % k != 0:
        raise ConfigError(f"k={k} must divide words_per_processor")
    block = words_per_processor // k
    packets: list[Packet] = []
    for round_idx in range(k):
        for node in topology.nodes():
            base = round_idx * block
            payloads = [
                (topology.node_index(node), base + j) for j in range(block)
            ]
            packets.append(
                Packet(
                    source=memory_node,
                    dest=node,
                    payloads=payloads,
                    header_flits=header_flits,
                )
            )
    return packets


def make_transpose_gather_multi_mc(
    topology: MeshTopology,
    cols: int,
    memory_nodes: list[tuple[int, int]] | None = None,
    header_flits: int = 1,
) -> TransposeWorkload:
    """Transpose gather with several memory interfaces (Fig. 12's mesh).

    The linear address space is striped across the memory interfaces in
    DRAM-row-sized chunks of 32 words; each element's packet goes to the
    interface owning its target address, but each source still sends to
    *whichever* interface its data lands on — preserving the non-local,
    many-to-few character while exploiting the mesh's path diversity.
    Defaults to the four corners, per the paper's energy study.
    """
    nodes = memory_nodes if memory_nodes is not None else topology.corners()
    if not nodes:
        raise ConfigError("need at least one memory node")
    for node in nodes:
        topology.require_node(node)
    if cols < 1:
        raise ConfigError(f"cols must be >= 1, got {cols}")
    rows = topology.node_count
    stripe_words = 32  # one 2048-bit DRAM row of 64-bit words
    packets: list[Packet] = []
    for r in range(rows):
        src = _processor_for_row(topology, r)
        for c in range(cols):
            address = c * rows + r
            owner = nodes[(address // stripe_words) % len(nodes)]
            packets.append(
                Packet(
                    source=src,
                    dest=owner,
                    payloads=[address],
                    header_flits=header_flits,
                )
            )
    return TransposeWorkload(
        packets=tuple(packets),
        rows=rows,
        cols=cols,
        memory_node=nodes[0],
        memory_nodes=tuple(nodes),
    )


def make_uniform_random(
    topology: MeshTopology,
    packets_per_node: int,
    payload_flits: int = 1,
    seed: int = 0,
    header_flits: int = 1,
    allow_self: bool = False,
) -> list[Packet]:
    """Uniform random traffic (ablation baseline for routing policies).

    Destinations are drawn uniformly over the *other* nodes: a routing
    ablation wants network traffic, and a self-addressed packet never
    leaves its router's local port (zero hops, zero contention), which
    silently dilutes every congestion statistic.  Pass
    ``allow_self=True`` for the historical draw over all nodes
    (including ``src`` itself).  Packet count is unchanged either way:
    exactly ``packets_per_node`` per source.
    """
    if packets_per_node < 1 or payload_flits < 1:
        raise ConfigError("packets_per_node and payload_flits must be >= 1")
    if not allow_self and topology.node_count < 2:
        raise ConfigError(
            "uniform random traffic without self-addressed packets needs "
            "at least 2 nodes"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    nodes = topology.nodes()
    packets: list[Packet] = []
    for src in nodes:
        others = nodes if allow_self else [n for n in nodes if n != src]
        for i in range(packets_per_node):
            dest = others[int(rng.integers(len(others)))]
            packets.append(
                Packet(
                    source=src,
                    dest=dest,
                    payloads=[(topology.node_index(src), i, j) for j in range(payload_flits)],
                    header_flits=header_flits,
                )
            )
    return packets
