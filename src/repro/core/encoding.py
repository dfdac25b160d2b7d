"""Binary encoding of communication programs (paper Section IV).

The paper argues CPs are tiny — "approximately 96-bits" for the FFT —
because regular access patterns compress to a few loop descriptors.
This module makes that concrete: a bit-exact codec that serializes a
:class:`~repro.core.cp.CommunicationProgram` into the descriptor format
and back.

Wire format (little-endian bit packing, MSB-first within fields)::

    header:      4 bits  format version
                 8 bits  run count
    per run:    20 bits  start cycle of the first slot
                10 bits  slot length
                 1 bit   role (0 = DRIVE, 1 = LISTEN)
                17 bits  word offset of the first slot
                16 bits  stride between consecutive slot starts
                16 bits  slot count in the run

A *run* is an arithmetic progression of equally shaped slots — the loop
descriptor.  A one-slot CP (the common FFT case) encodes in
4 + 8 + 80 = 92 bits, matching the paper's figure.

The codec also implements **CP chains** (Section IV: "CPs form chains in
which one CP loads data, and the CP for the SCA waveguide driver,
followed by a CP for the next SCA⁻¹ operation"): a chain is a sequence
of CPs delivered together, each tagged with its transaction role.
"""

from __future__ import annotations

import binascii
import enum
from dataclasses import dataclass, field

from ..util.errors import ScheduleError, TransientFaultError
from .cp import CommunicationProgram, Role, Slot

__all__ = [
    "FORMAT_VERSION",
    "encode_cp",
    "decode_cp",
    "encoded_size_bits",
    "crc16_ccitt",
    "CRC_BITS",
    "encode_cp_protected",
    "decode_cp_protected",
    "ChainEntryKind",
    "ChainEntry",
    "CpChain",
]

FORMAT_VERSION = 1

_VERSION_BITS = 4
_COUNT_BITS = 8
_START_BITS = 20
_LENGTH_BITS = 10
_ROLE_BITS = 1
_OFFSET_BITS = 17
_STRIDE_BITS = 16
_RUN_COUNT_BITS = 16

_RUN_BITS = (
    _START_BITS + _LENGTH_BITS + _ROLE_BITS + _OFFSET_BITS
    + _STRIDE_BITS + _RUN_COUNT_BITS
)


class _BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise ScheduleError(
                f"value {value} does not fit in {width} bits"
            )
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    @property
    def bit_length(self) -> int:
        return len(self._bits)

    def to_bytes(self) -> bytes:
        out = bytearray()
        acc = 0
        n = 0
        for bit in self._bits:
            acc = (acc << 1) | bit
            n += 1
            if n == 8:
                out.append(acc)
                acc, n = 0, 0
        if n:
            out.append(acc << (8 - n))
        return bytes(out)


class _BitReader:
    """MSB-first bit cursor over bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        value = 0
        for _ in range(width):
            byte = self._data[self._pos // 8]
            bit = (byte >> (7 - self._pos % 8)) & 1
            value = (value << 1) | bit
            self._pos += 1
        return value


@dataclass(frozen=True, slots=True)
class _Run:
    """One arithmetic-progression descriptor."""

    start_cycle: int
    length: int
    role: Role
    word_offset: int
    stride: int
    count: int


def _runs_of(cp: CommunicationProgram) -> list[_Run]:
    """Greedy run-length encoding of the slot list into descriptors.

    Consecutive slots join a run when they share length and role, their
    starts advance by a constant stride, and their word offsets advance
    by exactly ``length`` (the sequential-buffer pattern the hardware
    generates).
    """
    runs: list[_Run] = []
    slots = list(cp.slots)
    i = 0
    while i < len(slots):
        first = slots[i]
        stride = 0
        count = 1
        j = i + 1
        while j < len(slots):
            prev, cur = slots[j - 1], slots[j]
            same_shape = (
                cur.length == first.length
                and cur.role is first.role
                and cur.word_offset == prev.word_offset + first.length
            )
            step = cur.start_cycle - prev.start_cycle
            if not same_shape:
                break
            if count == 1:
                stride = step
            elif step != stride:
                break
            count += 1
            j += 1
        runs.append(
            _Run(
                start_cycle=first.start_cycle,
                length=first.length,
                role=first.role,
                word_offset=first.word_offset,
                stride=stride,
                count=count,
            )
        )
        i += count
    return runs


def encode_cp(cp: CommunicationProgram) -> bytes:
    """Serialize a CP to its descriptor wire format."""
    runs = _runs_of(cp)
    if len(runs) >= (1 << _COUNT_BITS):
        raise ScheduleError(
            f"CP has {len(runs)} runs; format supports {(1 << _COUNT_BITS) - 1}"
        )
    w = _BitWriter()
    w.write(FORMAT_VERSION, _VERSION_BITS)
    w.write(len(runs), _COUNT_BITS)
    for run in runs:
        w.write(run.start_cycle, _START_BITS)
        w.write(run.length, _LENGTH_BITS)
        w.write(0 if run.role is Role.DRIVE else 1, _ROLE_BITS)
        w.write(run.word_offset, _OFFSET_BITS)
        w.write(run.stride, _STRIDE_BITS)
        w.write(run.count, _RUN_COUNT_BITS)
    return w.to_bytes()


def encoded_size_bits(cp: CommunicationProgram) -> int:
    """Exact encoded size in bits (without byte padding)."""
    return _VERSION_BITS + _COUNT_BITS + len(_runs_of(cp)) * _RUN_BITS


def decode_cp(data: bytes, node_id: int) -> CommunicationProgram:
    """Reconstruct a CP from its wire format."""
    r = _BitReader(data)
    version = r.read(_VERSION_BITS)
    if version != FORMAT_VERSION:
        raise ScheduleError(f"unsupported CP format version {version}")
    run_count = r.read(_COUNT_BITS)
    slots: list[Slot] = []
    for _ in range(run_count):
        start = r.read(_START_BITS)
        length = r.read(_LENGTH_BITS)
        role = Role.DRIVE if r.read(_ROLE_BITS) == 0 else Role.LISTEN
        offset = r.read(_OFFSET_BITS)
        stride = r.read(_STRIDE_BITS)
        count = r.read(_RUN_COUNT_BITS)
        for k in range(count):
            slots.append(
                Slot(
                    start_cycle=start + k * stride,
                    length=length,
                    role=role,
                    word_offset=offset + k * length,
                )
            )
    return CommunicationProgram(node_id=node_id, slots=slots)


# -- CRC protection -----------------------------------------------------------

#: CRC width of the protected CP / SCA-frame format (CRC-16/CCITT-FALSE).
CRC_BITS = 16

_CRC16_INIT = 0xFFFF


def crc16_ccitt(data: bytes, crc: int = _CRC16_INIT) -> int:
    """CRC-16/CCITT-FALSE of ``data`` (poly 0x1021, init 0xFFFF).

    This is the checksum the fault-tolerant SCA frame format
    (:mod:`repro.faults.crc`) appends to every word, and the one the
    protected CP codec below uses.  Any single-bit error — and any burst
    up to 16 bits — is guaranteed detected.  ``binascii.crc_hqx`` is
    exactly this CRC (MSB-first, no reflection, no final XOR), computed
    in C.

    >>> hex(crc16_ccitt(b"123456789"))
    '0x29b1'
    """
    return binascii.crc_hqx(data, crc)


def encode_cp_protected(cp: CommunicationProgram) -> bytes:
    """Serialize a CP with a trailing CRC-16 over the descriptor bytes.

    CPs are delivered to nodes over the same physical channel as data
    (Section IV: interleaved with data delivery), so they are exposed to
    the same transient bit errors; a corrupted CP silently reprograms a
    node's slots, which is far worse than a corrupted data word.  The
    protected format costs 16 bits (~17% on the paper's 96-bit CP).
    """
    payload = encode_cp(cp)
    crc = crc16_ccitt(payload)
    return payload + bytes([crc >> 8, crc & 0xFF])


def decode_cp_protected(data: bytes, node_id: int) -> CommunicationProgram:
    """Verify the trailing CRC-16 and reconstruct the CP.

    Raises
    ------
    TransientFaultError
        When the CRC does not match — the CP was corrupted in flight and
        must be re-requested (it is recoverable by retransmission).
    """
    if len(data) < 2:
        raise ScheduleError(f"protected CP too short: {len(data)} bytes")
    payload, trailer = data[:-2], data[-2:]
    expect = (trailer[0] << 8) | trailer[1]
    actual = crc16_ccitt(payload)
    if actual != expect:
        raise TransientFaultError(
            f"CP for node {node_id} failed CRC "
            f"(got {actual:#06x}, frame says {expect:#06x}); retransmit"
        )
    return decode_cp(payload, node_id)


# -- CP chains ----------------------------------------------------------------


class ChainEntryKind(enum.Enum):
    """What a chained CP does (Section IV's chain structure)."""

    LOAD = "load"            #: SCA⁻¹ LISTEN: receive data / code
    DRIVE = "drive"          #: SCA DRIVE: contribute to a gather
    NEXT_LOAD = "next-load"  #: CP for the following SCA⁻¹ operation


@dataclass(frozen=True, slots=True)
class ChainEntry:
    """One link of a CP chain."""

    kind: ChainEntryKind
    program: CommunicationProgram

    @property
    def encoded_bits(self) -> int:
        """Payload bits of this entry (kind tag + CP descriptors)."""
        return 2 + encoded_size_bits(self.program)


@dataclass
class CpChain:
    """An ordered chain of CPs delivered to one node.

    The chain alternates data-load, gather-drive and next-load programs;
    :meth:`validate` enforces that consecutive programs do not claim
    overlapping bus cycles (a node cannot listen and drive at once) and
    that the chain starts with a LOAD (code/data must arrive before the
    node can participate).
    """

    node_id: int
    entries: list[ChainEntry] = field(default_factory=list)

    def append(self, kind: ChainEntryKind, program: CommunicationProgram) -> None:
        """Add a link to the chain."""
        if program.node_id != self.node_id:
            raise ScheduleError(
                f"chain for node {self.node_id} got a CP for node "
                f"{program.node_id}"
            )
        self.entries.append(ChainEntry(kind=kind, program=program))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_encoded_bits(self) -> int:
        """Total payload bits to deliver the whole chain."""
        return sum(e.encoded_bits for e in self.entries)

    def validate(self) -> None:
        """Check chain-level invariants; raises :class:`ScheduleError`."""
        if not self.entries:
            raise ScheduleError("empty CP chain")
        if self.entries[0].kind is not ChainEntryKind.LOAD:
            raise ScheduleError("a CP chain must start with a LOAD entry")
        for a, b in zip(self.entries, self.entries[1:]):
            for sa in a.program:
                for sb in b.program:
                    if sa.overlaps(sb):
                        raise ScheduleError(
                            f"chain entries {a.kind.value} and {b.kind.value} "
                            f"overlap on bus cycles ({sa} vs {sb})"
                        )

    def roundtrip(self) -> "CpChain":
        """Encode and decode every program (integrity self-check)."""
        out = CpChain(node_id=self.node_id)
        for entry in self.entries:
            data = encode_cp(entry.program)
            out.append(entry.kind, decode_cp(data, self.node_id))
        return out
