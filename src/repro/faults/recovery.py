"""Reliable SCA transfers: CRC frames, NACKs, retransmission epochs.

The recovery protocol (head-node driven, scheduler-synthesized):

1. Every contributor wraps its words in CRC-16 frames
   (:func:`repro.faults.crc.pack_word`) and the gather runs normally —
   the frame is the bus payload, so protection costs a 16-bit sideband
   per word and *no* protocol round trips in the fault-free case.
2. The head node CRC-checks each arrival.  Failures become NACKs: the
   ``(node, word)`` provenance pairs the schedule already carries.
3. After a capped exponential backoff (idle bus cycles — the photonic
   clock keeps flying, so a later epoch just aliases onto a later edge),
   the scheduler synthesizes a *retransmission epoch*: an ordinary small
   SCA over exactly the NACKed words
   (:func:`repro.core.schedule.retransmission_order` →
   :func:`~repro.core.schedule.gather_schedule`).
4. Repeat until clean or ``RetryPolicy.max_retries`` is exhausted, at
   which point :class:`~repro.util.errors.RetryExhaustedError` carries
   the residual pairs (or, for campaigns, the partial result is returned
   with the residue listed).

Everything observable lands in :class:`repro.core.pscan.RetryStats`,
attached to the first epoch's :class:`~repro.core.pscan.ScaExecution`.

Steps 2-4 live in :class:`GatherRecovery`, which never looks at the
bus: :class:`ReliableGather` feeds it every frame of an event-simulated
epoch, and the batched campaign engine (:mod:`repro.faults.batched`)
feeds it timeline-free bursts in which only the corrupted words carry a
frame, so recovery semantics exist once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..core.pscan import Pscan, RetryStats, ScaExecution
from ..core.schedule import gather_schedule, retransmission_order
from ..util.errors import ConfigError, RetryExhaustedError, TransientFaultError
from .crc import CRC_BITS, pack_word, unpack_word

__all__ = [
    "RetryPolicy",
    "GatherRecovery",
    "ReliableGather",
    "ReliableGatherResult",
]


def _jitter_unit(seed: object, retry_index: int) -> float:
    """Deterministic uniform draw in [0, 1) from ``(seed, retry_index)``.

    Hash-derived (SHA-256 over the repr), not :func:`hash`-derived:
    ``PYTHONHASHSEED`` randomizes ``hash(str)`` per interpreter, and the
    whole point is that the *same* seed reproduces the *same* backoff
    schedule across processes and reruns.
    """
    digest = hashlib.sha256(
        repr((seed, retry_index)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff for retransmission epochs.

    ``jitter_fraction`` (default 0 — byte-identical to the historical
    schedule) subtracts up to that fraction of the capped backoff, drawn
    deterministically from ``(seed, retry_index)``, so concurrent
    retransmission epochs seeded differently do not re-collide on the
    same bus cycles every epoch.  Jitter only ever *shortens* a wait:
    the capped value stays a hard ceiling and the cap stays monotone in
    ``retry_index`` (property-tested in ``tests/test_retry_jitter.py``).
    """

    max_retries: int = 4
    backoff_cycles: int = 8
    backoff_factor: float = 2.0
    max_backoff_cycles: int = 256
    jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_cycles < 0 or self.max_backoff_cycles < 0:
            raise ConfigError("backoff cycle counts must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigError(
                f"jitter_fraction must be in [0, 1), got {self.jitter_fraction}"
            )

    def backoff_for(self, retry_index: int, *, seed: object = None) -> int:
        """Idle bus cycles before retransmission ``retry_index`` (1-based).

        With ``jitter_fraction == 0`` (the default) the schedule is the
        classic deterministic capped exponential.  Otherwise the capped
        value is scaled by a deterministic factor in
        ``(1 - jitter_fraction, 1]`` derived from ``(seed, retry_index)``
        — pass a per-gather/per-job ``seed`` to desynchronize concurrent
        retry epochs without losing reproducibility.
        """
        if retry_index < 1:
            raise ConfigError("retry_index is 1-based")
        raw = self.backoff_cycles * self.backoff_factor ** (retry_index - 1)
        capped = min(int(raw), self.max_backoff_cycles)
        if not self.jitter_fraction or capped == 0:
            return capped
        scale = 1.0 - self.jitter_fraction * _jitter_unit(seed, retry_index)
        return min(max(0, int(capped * scale)), self.max_backoff_cycles)


@dataclass
class ReliableGatherResult:
    """Outcome of a CRC-protected gather (possibly multi-epoch)."""

    #: First epoch's execution record; ``execution.retry`` is the stats.
    execution: ScaExecution
    stats: RetryStats
    #: Recovered word values by provenance ``(node, word_index)``.
    values: dict[tuple[int, int], Any] = field(default_factory=dict)
    #: The original burst order (cycle -> provenance).
    order: list[tuple[int, int]] = field(default_factory=list)
    #: Provenance pairs still failing when retries ran out (empty on
    #: success; only populated with ``raise_on_exhaust=False``).
    residual: list[tuple[int, int]] = field(default_factory=list)

    @property
    def stream(self) -> list[Any]:
        """Recovered words in burst order (``None`` for residual losses)."""
        return [self.values.get(pair) for pair in self.order]

    @property
    def complete(self) -> bool:
        """True when every scheduled word was recovered (CRC-clean)."""
        return not self.residual

    def correct_fraction(self, data: dict[int, list[Any]]) -> float:
        """Fraction of scheduled words delivered *and equal to* the source."""
        return _correct_fraction(self.order, self.values, data)


class GatherRecovery:
    """The head node's side of one CRC-protected gather, epoch by epoch.

    Owns every decision recovery makes and nothing about how words cross
    the bus: which arrivals are NACKed (:func:`~repro.faults.crc.unpack_word`
    fails), the payload and CRC-sideband cycles of each epoch, the
    backoff before the next one (:meth:`RetryPolicy.backoff_for`), the
    retransmission order, when to stop, and the undetected errors,
    residual and correct fraction at the end.  A caller loops::

        while True:
            recovery.receive(<arrivals of an epoch driving recovery.pending>)
            backoff = recovery.next_epoch()
            if backoff is None:
                break
            <idle the bus for backoff cycles>
        recovery.finish(data)
    """

    def __init__(
        self,
        order: list[tuple[int, int]],
        policy: RetryPolicy,
        bits_per_cycle: int,
        *,
        jitter_seed: object = None,
    ) -> None:
        self.order = list(order)
        self.policy = policy
        self.bits_per_cycle = bits_per_cycle
        self.jitter_seed = jitter_seed
        self.stats = RetryStats(baseline_cycles=len(self.order))
        #: Decoded words by provenance ``(node, word_index)``.
        self.values: dict[tuple[int, int], Any] = {}
        #: Pairs NACKed in the latest epoch.
        self.failed: list[tuple[int, int]] = []
        #: Index of the epoch in flight (0 = the original burst).
        self.epoch = 0
        #: The order the epoch in flight drives.
        self.pending: list[tuple[int, int]] = list(self.order)

    def receive(
        self,
        arrivals: Iterable[tuple[tuple[int, int], bytes | None]],
        data: dict[int, list[Any]] | None = None,
    ) -> list[int]:
        """Check one epoch's ``(pair, frame)`` arrivals, in arrival order.

        A frame of ``None`` stands for a word known to have arrived
        exactly as sent: it takes the sender's own value,
        ``data[node][word]``, which is what decoding its intact frame
        yields.  Every other frame is CRC-checked and decoded.  Returns
        the positions (within ``arrivals``) the head node NACKs.
        """
        words = len(self.pending)
        crc = -(-words * CRC_BITS // self.bits_per_cycle)  # ceil
        self.stats.total_cycles += words + crc
        self.stats.crc_overhead_cycles += crc
        self.failed = []
        nacked: list[int] = []
        for position, (pair, frame) in enumerate(arrivals):
            if frame is None:
                self.values[pair] = data[pair[0]][pair[1]]
                continue
            try:
                self.values[pair] = unpack_word(frame)
            except TransientFaultError:
                self.failed.append(pair)
                nacked.append(position)
        self.stats.crc_nacks += len(self.failed)
        return nacked

    def next_epoch(self) -> int | None:
        """Schedule the retransmission epoch after a NACKed one.

        Returns the idle backoff cycles to wait before driving
        :attr:`pending`, or ``None`` when the gather is over: the last
        epoch was clean, or retries are exhausted (then
        :attr:`residual` is non-empty).
        """
        if not self.failed or self.epoch == self.policy.max_retries:
            return None
        self.epoch += 1
        # Epoch-level capped exponential backoff: idle bus cycles
        # before the retransmission SCA re-drives the NACKed words.
        backoff = self.policy.backoff_for(self.epoch, seed=self.jitter_seed)
        self.stats.backoff_cycles += backoff
        self.pending = retransmission_order(self.order, set(self.failed))
        self.stats.retransmitted_words += len(self.pending)
        self.stats.epochs += 1
        return backoff

    @property
    def residual(self) -> list[tuple[int, int]]:
        """Pairs still failing when the gather ended (empty on success)."""
        return sorted(self.failed)

    def finish(self, data: dict[int, list[Any]]) -> RetryStats:
        """Count delivered-but-wrong words (CRC collisions); returns the stats.

        The receiver cannot know these; the *simulator* can, because it
        holds the ground truth.  Campaigns report them as the honest
        residual risk of a 16-bit checksum.
        """
        self.stats.undetected_errors = sum(
            1
            for (node, word), v in self.values.items()
            if not _values_equal(v, data[node][word])
        )
        return self.stats

    def correct_fraction(self, data: dict[int, list[Any]]) -> float:
        """Fraction of scheduled words delivered *and equal to* the source."""
        return _correct_fraction(self.order, self.values, data)


def frame_words(data: dict[int, list[Any]]) -> dict[int, list[bytes]]:
    """Every contributor's words wrapped in CRC-16 frames (step 1)."""
    return {node: [pack_word(v) for v in words] for node, words in data.items()}


def _correct_fraction(
    order: list[tuple[int, int]],
    values: dict[tuple[int, int], Any],
    data: dict[int, list[Any]],
) -> float:
    if not order:
        return 1.0
    good = sum(
        1
        for node, word in order
        if (node, word) in values and values[(node, word)] == data[node][word]
    )
    return good / len(order)


class ReliableGather:
    """CRC-protected, retransmitting SCA gather on top of a :class:`Pscan`."""

    def __init__(
        self,
        pscan: Pscan,
        policy: RetryPolicy | None = None,
        *,
        jitter_seed: object = None,
    ) -> None:
        self.pscan = pscan
        self.policy = policy or RetryPolicy()
        # Per-gather salt for the policy's deterministic backoff jitter:
        # distinct seeds keep concurrent gathers' retry epochs from
        # re-synchronizing (no effect while jitter_fraction == 0).
        self.jitter_seed = jitter_seed
        # Optional observability hook (duck-typed ObsSession).
        self._obs: Any = None

    def attach_observer(self, obs: Any) -> None:
        """Attach an observability session (see :mod:`repro.obs`).

        ``obs`` duck-types :class:`repro.obs.session.ObsSession`: the
        recovery loop calls ``fault_epoch_begin`` / ``fault_epoch_end``
        around each (re)transmission epoch, ``fault_nack`` per CRC
        failure and ``fault_backoff`` for each idle backoff window.
        Timestamps are absolute simulator ns.  Pass ``None`` to detach.
        """
        self._obs = obs

    def gather(
        self,
        order: list[tuple[int, int]],
        data: dict[int, list[Any]],
        receiver_mm: float,
        raise_on_exhaust: bool = True,
    ) -> ReliableGatherResult:
        """Run the protected gather until clean or retries are exhausted.

        ``order`` / ``data`` are exactly what an unprotected
        :func:`~repro.core.schedule.gather_schedule` +
        :meth:`~repro.core.pscan.Pscan.execute_gather` would take; word
        framing is internal.  Raises
        :class:`~repro.util.errors.RetryExhaustedError` (with the
        residual pairs attached) when ``raise_on_exhaust`` and the cap is
        hit; otherwise returns the partial result.
        """
        frames = frame_words(data)
        recovery = GatherRecovery(
            order,
            self.policy,
            self.pscan.wdm.bits_per_cycle,
            jitter_seed=self.jitter_seed,
        )
        sim = self.pscan.sim
        first_execution: ScaExecution | None = None
        while True:
            if self._obs is not None:
                self._obs.fault_epoch_begin(
                    sim.now, recovery.epoch, len(recovery.pending)
                )
            execution = self.pscan.execute_gather(
                gather_schedule(recovery.pending), frames, receiver_mm
            )
            if first_execution is None:
                first_execution = execution
            arrivals = execution.arrivals
            nacked = recovery.receive(
                ((a.source_node, a.word_index), a.value) for a in arrivals
            )
            if self._obs is not None:
                for position in nacked:  # the head node NACKs these words
                    a = arrivals[position]
                    self._obs.fault_nack(a.time_ns, a.source_node, a.word_index)
                self._obs.fault_epoch_end(sim.now, recovery.epoch, len(nacked))
            backoff = recovery.next_epoch()
            if backoff is None:
                break
            if backoff:
                delay_ns = backoff * self.pscan.clock.period_ns
                if self._obs is not None:
                    self._obs.fault_backoff(sim.now, backoff, delay_ns)
                sim.run(sim.timeout(delay_ns))

        stats = recovery.finish(data)
        first_execution.retry = stats
        if recovery.failed and raise_on_exhaust:
            raise RetryExhaustedError(
                f"{len(recovery.failed)} word(s) still failing CRC after "
                f"{self.policy.max_retries} retransmission epoch(s)",
                residual=recovery.residual,
            )
        return ReliableGatherResult(
            execution=first_execution,
            stats=stats,
            values=recovery.values,
            order=list(order),
            residual=recovery.residual,
        )


def _values_equal(a: Any, b: Any) -> bool:
    """Equality that tolerates NaN-free numerics and arbitrary payloads.

    Only the two comparison failures the payload vocabulary can actually
    produce are treated as "not equal": ``TypeError`` (no ``==`` between
    the types) and ``ValueError`` (ambiguous truth value, e.g. an array
    compare).  Anything else — ``KeyboardInterrupt``, ``RecursionError``,
    a broken ``__eq__`` — is a programming error and propagates with the
    original traceback instead of being silently counted as a mismatch.
    """
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return False
