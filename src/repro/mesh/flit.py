"""Flits and packets for the wormhole mesh (paper Section V-C2).

The paper's transpose model sends each FFT element as its own wormhole
packet: one 64-bit header flit (the memory address) plus one 64-bit data
flit.  Packets are generic here — any flit count — because the Model II
delivery study also needs multi-flit block packets.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..util.errors import ConfigError

__all__ = ["Flit", "Packet", "require_header_flits", "reserve_packet_ids"]

_packet_ids = itertools.count()


def reserve_packet_ids(count: int) -> range:
    """Take the next ``count`` packet ids from the global counter.

    The ids are drawn in one C-level pass (``islice`` into a one-slot
    deque), so they are consecutive and exactly ``count`` are consumed —
    the same ids ``count`` default-constructed :class:`Packet` objects
    would have taken, without building any of them.
    """
    if count < 1:
        return range(0)
    last = deque(itertools.islice(_packet_ids, count), maxlen=1).pop()
    return range(last - count + 1, last + 1)


def require_header_flits(header_flits: int) -> None:
    """Raise :class:`ConfigError` unless packets get >= 1 header flit."""
    if header_flits < 1:
        raise ConfigError(f"packets need >= 1 header flit, got {header_flits}")


@dataclass(slots=True)
class Flit:
    """One flow-control unit.

    ``is_head`` flits carry the route; body flits follow the wormhole.
    ``ready_cycle`` is bookkeeping for the router pipeline: the flit may
    not advance before this cycle (route-computation delay for heads).
    """

    packet_id: int
    index: int
    is_head: bool
    is_tail: bool
    dest: tuple[int, int]
    payload: Any = None
    ready_cycle: int = 0
    injected_cycle: int = -1
    #: Links traversed so far.  Fault-aware (possibly non-minimal)
    #: rerouting uses this as a livelock bound; always maintained, so
    #: the fault-free hot path stays branch-free.
    hops: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"<Flit p{self.packet_id}.{self.index}{kind}->{self.dest}>"


@dataclass(slots=True)
class Packet:
    """A wormhole packet: a head flit, optional body flits, a tail marker.

    ``payloads`` ride on the body flits (the head carries the address).
    A single-word packet is head + one body/tail flit, matching the
    paper's per-element transpose traffic.
    """

    source: tuple[int, int]
    dest: tuple[int, int]
    payloads: list[Any] = field(default_factory=list)
    header_flits: int = 1
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_cycle: int = 0

    def __post_init__(self) -> None:
        require_header_flits(self.header_flits)

    @property
    def flit_count(self) -> int:
        """Total flits: headers plus one body flit per payload word."""
        return self.header_flits + len(self.payloads)

    def flits(self) -> list[Flit]:
        """Materialize the flit train."""
        total = self.flit_count
        out: list[Flit] = []
        for i in range(self.header_flits):
            out.append(
                Flit(
                    packet_id=self.packet_id,
                    index=i,
                    is_head=(i == 0),
                    is_tail=(i == total - 1),
                    dest=self.dest,
                )
            )
        for j, payload in enumerate(self.payloads):
            i = self.header_flits + j
            out.append(
                Flit(
                    packet_id=self.packet_id,
                    index=i,
                    is_head=False,
                    is_tail=(i == total - 1),
                    dest=self.dest,
                    payload=payload,
                )
            )
        return out
