"""Flits and packets for the wormhole mesh (paper Section V-C2).

The paper's transpose model sends each FFT element as its own wormhole
packet: one 64-bit header flit (the memory address) plus one 64-bit data
flit.  Packets are generic here — any flit count — because the Model II
delivery study also needs multi-flit block packets.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_right, insort
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from ..util.errors import ConfigError

__all__ = [
    "Flit", "IdRuns", "Packet", "require_header_flits", "reserve_packet_ids",
]

_packet_ids = itertools.count()
#: Guards ``_packet_ids``: :func:`reserve_packet_ids` swaps in a counter
#: advanced past its block, so a ``Packet()`` id drawn from the old
#: counter after the swap would land inside the block.
_packet_id_lock = threading.Lock()


def _next_packet_id() -> int:
    with _packet_id_lock:
        return next(_packet_ids)


def reserve_packet_ids(count: int) -> range:
    """Take the next ``count`` packet ids from the global counter.

    The counter jumps past the block in one step, so the ids are
    consecutive and exactly ``count`` are consumed — the same ids
    ``count`` default-constructed :class:`Packet` objects would have
    taken, without building any of them.  Reservations and ``Packet()``
    ids share one lock, so threads never get overlapping ids.
    """
    global _packet_ids
    if count < 1:
        return range(0)
    with _packet_id_lock:
        start = next(_packet_ids)
        _packet_ids = itertools.count(start + count)
    return range(start, start + count)


class IdRuns(Mapping):
    """A ``{packet_id: value}`` map kept as runs of consecutive ids.

    Read-only as a mapping: :meth:`add` and :meth:`add_blocks` fill it.
    Each run maps ids ``start .. stop - 1`` to one value.  Lookups,
    ``len``, iteration order and equality are those of the dict that
    :meth:`add` describes: ``d[i] = value`` for each id in order, so an
    id already present keeps its place and takes the new value, and a
    new id goes last.

    Ids come from one ascending counter, so a block usually lies above
    every id seen so far.  Such a block costs O(1): it extends the last
    run when it continues it with an equal value, and otherwise starts a
    new run.  Anything else is exact too, at the price of a bisect and a
    list insert into the run index, or of re-sorting that index when an
    id already present takes a new value.
    """

    __slots__ = ("_starts", "_stops", "_values", "_order", "_len", "_first", "_end")

    def __init__(self) -> None:
        # Runs in insertion order, as parallel lists.
        self._starts: list[int] = []
        self._stops: list[int] = []
        self._values: list[Any] = []
        # Run numbers sorted by start, for lookups.
        self._order: list[int] = []
        self._len = 0
        # Smallest id and one past the largest; meaningful once _len > 0.
        self._first = 0
        self._end = 0

    @property
    def first_id(self) -> int:
        """The smallest id, or 0 when empty."""
        return self._first if self._len else 0

    def add(self, start: int, stop: int, value: Any) -> None:
        """Map ids ``start .. stop - 1`` to ``value``."""
        if start >= stop:
            return
        if self._len and start < self._end:
            self._add_below(start, stop, value)
        else:
            self._add_new(start, stop, value)

    def add_blocks(self, start: int, size: int, values: list[Any]) -> None:
        """Map the i-th block of ``size`` ids from ``start`` to ``values[i]``.

        The same as one :meth:`add` per block; above every id seen so
        far it appends one run per block in one step.
        """
        if size < 1 or not values:
            return
        if self._len and start < self._end:
            for value in values:
                self.add(start, start + size, value)
                start += size
            return
        n = len(self._starts)
        stop = start + size * len(values)
        self._starts.extend(range(start, stop, size))
        self._stops.extend(range(start + size, stop + size, size))
        self._values.extend(values)
        self._order.extend(range(n, n + len(values)))
        if not self._len:
            self._first = start
        self._end = stop
        self._len += stop - start

    def _add_new(self, start: int, stop: int, value: Any) -> None:
        """Record ids ``start .. stop - 1``, none of them present yet."""
        starts, stops, values = self._starts, self._stops, self._values
        if stops and stops[-1] == start and values[-1] == value:
            stops[-1] = stop
        else:
            starts.append(start)
            stops.append(stop)
            values.append(value)
            if self._len and start < self._end:
                insort(self._order, len(starts) - 1, key=starts.__getitem__)
            else:
                self._order.append(len(starts) - 1)
        if not self._len or start < self._first:
            self._first = start
        if not self._len or stop > self._end:
            self._end = stop
        self._len += stop - start

    def _add_below(self, start: int, stop: int, value: Any) -> None:
        """:meth:`add` for a block that may overlap existing runs."""
        starts, stops, values, order = (
            self._starts, self._stops, self._values, self._order
        )
        i = bisect_right(order, start, key=starts.__getitem__)
        if i and stops[order[i - 1]] > start:
            i -= 1
        gaps: list[tuple[int, int]] = []
        changed: list[tuple[int, int, int]] = []
        pos = start
        while i < len(order) and starts[order[i]] < stop:
            run = order[i]
            lo, hi = max(starts[run], start), min(stops[run], stop)
            if pos < lo:
                gaps.append((pos, lo))
            if values[run] != value:
                changed.append((run, lo, hi))
            pos = hi
            i += 1
        if pos < stop:
            gaps.append((pos, stop))
        if changed:
            # Split each run around its overwritten ids, in place (the
            # highest run number first, so the lower ones stay valid).
            for run, lo, hi in sorted(changed, reverse=True):
                s, e, old = starts[run], stops[run], values[run]
                parts = [
                    part
                    for part in ((s, lo, old), (lo, hi, value), (hi, e, old))
                    if part[0] < part[1]
                ]
                starts[run:run + 1] = [a for a, _, _ in parts]
                stops[run:run + 1] = [b for _, b, _ in parts]
                values[run:run + 1] = [v for _, _, v in parts]
            self._order = sorted(range(len(starts)), key=starts.__getitem__)
        for lo, hi in gaps:
            self._add_new(lo, hi, value)

    def _run_of(self, pid: Any) -> int:
        """The run holding ``pid``, or -1."""
        if not isinstance(pid, int):
            return -1
        order = self._order
        i = bisect_right(order, pid, key=self._starts.__getitem__)
        if i and pid < self._stops[order[i - 1]]:
            return order[i - 1]
        return -1

    def __getitem__(self, pid: Any) -> Any:
        run = self._run_of(pid)
        if run < 0:
            raise KeyError(pid)
        return self._values[run]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(map(range, self._starts, self._stops))

    def items(self) -> ItemsView:
        return _RunItems(self)

    def __repr__(self) -> str:
        runs = list(zip(map(range, self._starts, self._stops), self._values))
        return f"{type(self).__name__}({runs!r})"


class _RunItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        runs = self._mapping
        for start, stop, value in zip(runs._starts, runs._stops, runs._values):
            for pid in range(start, stop):
                yield pid, value


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
    packet_id: int = field(default_factory=_next_packet_id)
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
