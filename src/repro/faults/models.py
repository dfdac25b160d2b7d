"""Deterministic, seeded fault injectors for every layer of the machine.

Each injector is a small object that *installs* itself onto an existing
simulator component through that component's fault hook — the hook is
``None`` by default, so a component without an installed injector runs
the exact fault-free code path (no timing or result perturbation):

* :class:`PscanFaultModel` → :attr:`repro.core.pscan.Pscan.fault_hook`
  — transient photodetector bit errors at a BER derived from the optical
  margin (:func:`repro.photonics.devices.ber_from_margin_db`), optionally
  elevated during :class:`DriftEpisode` windows where a ring has slid off
  its channel (:meth:`repro.photonics.thermal.ThermalModel.detuning_penalty_db`).
* :class:`MeshFaultPlan` → :meth:`repro.mesh.MeshNetwork.fail_link` /
  :meth:`~repro.mesh.MeshNetwork.fail_router` — stuck/failed links and
  routers (works on :class:`~repro.mesh.vc_network.VcMeshNetwork` too,
  link failures only).
* :class:`FifoDropFault` → :attr:`repro.sim.fifo.DualClockFifo.fault_hook`
  — silent write-path word loss.

All randomness comes from a ``random.Random(seed)`` owned by the
injector, so a campaign trial replays bit-exactly from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..photonics.devices import Q_AT_SENSITIVITY, ber_from_margin_db
from ..photonics.thermal import ThermalModel
from ..util.errors import ConfigError
from .crc import CRC_BITS, flip_bits, frame_bits
from .lanes import DrawStream

__all__ = [
    "DriftEpisode",
    "PscanFaultModel",
    "MeshFaultPlan",
    "FifoDropFault",
]


@dataclass(frozen=True, slots=True)
class DriftEpisode:
    """A transient thermal excursion: one ring off-channel for a window.

    Between ``start_ns`` and ``end_ns`` the affected node's ring has
    drifted ``drift_nm`` off its wavelength (heater control loop not yet
    caught up); the Lorentzian coupling penalty is subtracted from the
    link margin, collapsing the BER for words detected in the window.
    ``node`` restricts the episode to one contributor (``None`` = all).
    """

    start_ns: float
    end_ns: float
    drift_nm: float
    node: int | None = None
    linewidth_nm: float = 0.05
    peak_penalty_db: float = 15.0

    def __post_init__(self) -> None:
        if self.end_ns <= self.start_ns:
            raise ConfigError(
                f"drift episode must have end > start, got "
                f"[{self.start_ns}, {self.end_ns}]"
            )

    @property
    def penalty_db(self) -> float:
        """Optical-margin penalty while the episode is active."""
        return ThermalModel().detuning_penalty_db(
            self.drift_nm, self.linewidth_nm, self.peak_penalty_db
        )

    def active(self, time_ns: float, node: int) -> bool:
        """Does this episode afflict ``node`` at ``time_ns``?"""
        if self.node is not None and node != self.node:
            return False
        return self.start_ns <= time_ns < self.end_ns


class PscanFaultModel:
    """Transient bit-error injector for the photonic bus.

    Parameters
    ----------
    ber:
        Explicit baseline bit-error rate.  Mutually exclusive with
        ``margin_db``.
    margin_db:
        Derive the baseline BER from the receiver's optical margin over
        sensitivity (Q scaling of a shot/thermal-limited photodiode,
        sensitivity specified at BER 1e-12).
    drift_episodes:
        Thermal windows during which the margin is reduced by the
        episode's Lorentzian penalty (only meaningful with ``margin_db``;
        with an explicit ``ber`` the episode multiplies it by
        ``10**(penalty_db/3)``, a steep but bounded proxy).
    bits_per_word:
        Payload bits exposed per bus word; together with the 16 CRC bits
        this sets the per-word corruption probability.  Bit flips are
        applied to the *frame bytes* (see :mod:`repro.faults.crc`), so a
        flipped word can genuinely defeat the checksum.
    seed:
        Seed of the injector-owned RNG; same seed → same corruption.
    """

    def __init__(
        self,
        ber: float | None = None,
        margin_db: float | None = None,
        drift_episodes: tuple[DriftEpisode, ...] | list[DriftEpisode] = (),
        bits_per_word: int = 64,
        seed: int = 0,
        q_at_sensitivity: float = Q_AT_SENSITIVITY,
    ) -> None:
        if (ber is None) == (margin_db is None):
            raise ConfigError("give exactly one of ber= or margin_db=")
        if ber is not None and not (0.0 <= ber < 1.0):
            raise ConfigError(f"ber must be in [0, 1), got {ber}")
        if bits_per_word < 1:
            raise ConfigError("bits_per_word must be >= 1")
        self.margin_db = margin_db
        self.q_at_sensitivity = q_at_sensitivity
        self.base_ber = (
            ber if ber is not None
            else ber_from_margin_db(margin_db, q_at_sensitivity)
        )
        self.drift_episodes = tuple(drift_episodes)
        self.bits_per_word = bits_per_word
        self.seed = seed
        self.rng = random.Random(seed)
        # Observability counters (campaign bookkeeping).
        self.words_seen = 0
        self.words_corrupted = 0
        self.bits_flipped = 0

    def ber_at(self, time_ns: float, node: int) -> float:
        """Effective BER for a word from ``node`` detected at ``time_ns``."""
        penalty = max(
            (
                ep.penalty_db
                for ep in self.drift_episodes
                if ep.active(time_ns, node)
            ),
            default=0.0,
        )
        if penalty == 0.0:
            return self.base_ber
        if self.margin_db is not None:
            return ber_from_margin_db(
                self.margin_db - penalty, self.q_at_sensitivity
            )
        return min(0.5, self.base_ber * 10.0 ** (penalty / 3.0))

    def install(self, pscan) -> "PscanFaultModel":
        """Attach to a :class:`~repro.core.pscan.Pscan`; returns self."""
        pscan.fault_hook = self.__call__
        return self

    def __call__(self, time_ns: float, node: int, word_index: int, value):
        """The hook: possibly corrupt one detected word."""
        self.words_seen += 1
        ber = self.ber_at(time_ns, node)
        if ber <= 0.0:
            return value
        # Exposure = payload + CRC sideband bits, regardless of the
        # frame's serialized size: the corruption *probability* follows
        # the physical word, the corrupted *bytes* follow the frame.
        exposed = self.bits_per_word + CRC_BITS
        flips = sum(1 for _ in range(exposed) if self.rng.random() < ber)
        if flips == 0:
            return value
        return self._corrupt(value, flips, self.rng)

    def corrupt_burst(
        self,
        count: int,
        frame_of: Callable[[int], Any],
        drawn: np.ndarray | None = None,
    ) -> dict[int, Any]:
        """Apply the hook to a burst of ``count`` words, in arrival order.

        Returns ``{position: corrupted word}`` for the words that flip;
        every other word arrived as sent.  ``frame_of(i)`` is word
        ``i`` as sent, and is only called for a word that flips.  The
        draws, final ``rng`` state, counters and corrupted words equal
        those of calling the hook once per word, but the no-flip
        uniforms are scanned in bulk: a
        :class:`~repro.faults.lanes.DrawStream` finds the next word
        with a draw below the BER at any output offset, so after a
        flipped word's ``rng.sample`` draws the scan goes on from where
        they end, and no output is drawn twice.  ``drawn`` holds
        outputs of ``rng``'s stream a caller has already drawn (``rng``
        stands just past them); the burst reads them first instead of
        drawing them again.

        Only for a time-independent BER: with drift episodes the BER of
        a word depends on its detection time, which a burst does not
        carry, so this raises :class:`~repro.util.errors.ConfigError`.
        """
        if self.drift_episodes:
            raise ConfigError(
                "corrupt_burst needs a time-independent BER; drift "
                "episodes make each word's BER depend on its detection time"
            )
        self.words_seen += count
        corrupted: dict[int, Any] = {}
        ber = self.base_ber
        if ber <= 0.0:
            return corrupted
        # Each exposed bit draws one uniform of two 32-bit outputs.
        step = 2 * (self.bits_per_word + CRC_BITS)
        stream = DrawStream(self.rng, ber, drawn)
        word = 0
        while True:
            start = stream.pos
            hit = stream.next_below(start, start + (count - word) * step)
            if hit is None:
                return corrupted
            skipped = (hit - start) // step
            start += skipped * step
            stream.pos = start + step
            word += skipped
            flips = stream.count_below(start, stream.pos)
            corrupted[word] = self._corrupt(frame_of(word), flips, stream)
            word += 1

    def _corrupt(self, value, flips: int, rng: random.Random):
        """Apply ``flips`` bit errors, placed by ``rng``, to one word."""
        self.words_corrupted += 1
        self.bits_flipped += flips
        if isinstance(value, (bytes, bytearray)):
            frame = bytes(value)
            positions = rng.sample(range(frame_bits(frame)), k=min(flips, frame_bits(frame)))
            return flip_bits(frame, positions)
        if isinstance(value, int):
            mask = 0
            for pos in rng.sample(range(self.bits_per_word), k=min(flips, self.bits_per_word)):
                mask |= 1 << pos
            return value ^ mask
        # Opaque payload (no binary representation): mark it visibly
        # corrupted so unprotected runs still observe the damage.
        return ("<corrupt>", value)


@dataclass
class MeshFaultPlan:
    """Permanent stuck-at faults for the wormhole mesh."""

    dead_links: list[tuple[tuple[int, int], tuple[int, int]]] = field(
        default_factory=list
    )
    dead_routers: list[tuple[int, int]] = field(default_factory=list)

    def install(self, network) -> "MeshFaultPlan":
        """Arm a (Vc)MeshNetwork with this plan; returns self."""
        for a, b in self.dead_links:
            network.fail_link(a, b)
        for node in self.dead_routers:
            network.fail_router(node)
        return self

    @classmethod
    def random_links(cls, topology, count: int, seed: int = 0) -> "MeshFaultPlan":
        """``count`` distinct random link failures, deterministic in ``seed``."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        links: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for node in topology.nodes():
            for port in topology.mesh_ports(node):
                nbr = topology.neighbor(node, port)
                if nbr is not None and node < nbr:
                    links.append((node, nbr))
        if count > len(links):
            raise ConfigError(
                f"asked for {count} dead links, mesh only has {len(links)}"
            )
        rng = random.Random(seed)
        return cls(dead_links=rng.sample(links, k=count))


class FifoDropFault:
    """Silent write-path loss in a dual-clock FIFO.

    Each accepted write is discarded with probability ``probability``
    (counted in ``fifo.stats.dropped_items``) — the word never lands in
    the RAM, modelling a synchronizer metastability upset.
    """

    def __init__(self, probability: float, seed: int = 0) -> None:
        if not (0.0 <= probability <= 1.0):
            raise ConfigError(
                f"probability must be in [0, 1], got {probability}"
            )
        self.probability = probability
        self.rng = random.Random(seed)
        self.writes_seen = 0
        self.dropped = 0

    def install(self, fifo) -> "FifoDropFault":
        """Attach to a :class:`~repro.sim.fifo.DualClockFifo`; returns self."""
        fifo.fault_hook = self.__call__
        return self

    def __call__(self, _item) -> bool:
        """The hook: True ⇒ drop this write."""
        self.writes_seen += 1
        if self.probability > 0.0 and self.rng.random() < self.probability:
            self.dropped += 1
            return True
        return False
