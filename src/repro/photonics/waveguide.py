"""Silicon waveguide model: propagation delay and loss budget.

Implements the scalability analysis of paper Section III-B:

* Eq. 1 — detectability: ``P_i - L_w >= P_min_pd`` (all in dB/dBm).
* Eq. 2 — per-segment loss: ``L_ws = L_r_off + D_m * L_w``.
* Eq. 3 — maximum segment count: ``N <= (P_i - P_min_pd) / L_ws``.

Propagation is distance-independent in *speed*: signals travel at the
group velocity (~7 cm/ns at 1550 nm in silicon) regardless of length; only
attenuation limits reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from ..util import constants
from ..util.errors import LinkBudgetError
from ..util.validation import require_non_negative, require_positive

__all__ = ["Waveguide", "SegmentLossModel", "max_segments", "segment_loss_db"]


@lru_cache(maxsize=1024)
def segment_loss_db(
    ring_through_loss_db: float,
    modulator_pitch_mm: float,
    waveguide_loss_db_per_mm: float,
) -> float:
    """Per-segment loss, paper Eq. 2: ``L_ws = L_r_off + D_m * L_w``.

    A *segment* is one detuned ring resonator plus a waveguide section one
    modulator-pitch long.

    Memoized (:func:`functools.lru_cache`): the scaling sweeps evaluate
    the same handful of device parameter sets millions of times.
    Arguments are plain floats, so keys are cheap and exact; invalid
    arguments raise and are never cached.
    """
    require_non_negative("ring_through_loss_db", ring_through_loss_db)
    require_positive("modulator_pitch_mm", modulator_pitch_mm)
    require_non_negative("waveguide_loss_db_per_mm", waveguide_loss_db_per_mm)
    return ring_through_loss_db + modulator_pitch_mm * waveguide_loss_db_per_mm


@lru_cache(maxsize=1024)
def max_segments(
    laser_power_dbm: float,
    pd_sensitivity_dbm: float,
    loss_per_segment_db: float,
) -> int:
    """Maximum PSCAN segment count, paper Eq. 3.

    ``N <= (P_i - P_min_pd) / L_ws``, floored to an integer, then
    stepped back while Eq. 1 (``P_i - N * L_ws >= P_min_pd``, evaluated as
    :meth:`SegmentLossModel.power_at_segment` does) fails: the quotient
    can round up past the last detectable segment.

    Memoized like :func:`segment_loss_db` — the scaling sweeps call this
    in a tight loop with a handful of distinct parameter sets.
    """
    budget = laser_power_dbm - pd_sensitivity_dbm
    if budget <= 0:
        raise LinkBudgetError(
            f"no optical budget: laser {laser_power_dbm} dBm <= sensitivity "
            f"{pd_sensitivity_dbm} dBm"
        )
    require_positive("loss_per_segment_db", loss_per_segment_db)
    n = int(budget / loss_per_segment_db)
    while n > 0 and laser_power_dbm - n * loss_per_segment_db < pd_sensitivity_dbm:
        n -= 1
    return n


@dataclass(frozen=True, slots=True)
class SegmentLossModel:
    """Bundle of the loss parameters entering Eqs. 1-3."""

    laser_power_dbm: float = constants.DEFAULT_LASER_POWER_DBM
    pd_sensitivity_dbm: float = constants.DEFAULT_PD_SENSITIVITY_DBM
    ring_through_loss_db: float = constants.RING_THROUGH_LOSS_DB
    waveguide_loss_db_per_mm: float = constants.WAVEGUIDE_LOSS_DB_PER_MM
    modulator_pitch_mm: float = 0.5

    @property
    def loss_per_segment_db(self) -> float:
        """Eq. 2 for this parameter set."""
        return segment_loss_db(
            self.ring_through_loss_db,
            self.modulator_pitch_mm,
            self.waveguide_loss_db_per_mm,
        )

    @property
    def max_segments(self) -> int:
        """Eq. 3 for this parameter set."""
        return max_segments(
            self.laser_power_dbm,
            self.pd_sensitivity_dbm,
            self.loss_per_segment_db,
        )

    def power_at_segment(self, n: int) -> float:
        """Optical power in dBm after traversing ``n`` segments."""
        require_non_negative("n", n)
        return self.laser_power_dbm - n * self.loss_per_segment_db

    def detectable_at_segment(self, n: int) -> bool:
        """Eq. 1: is the signal still above the photodiode threshold?"""
        return self.power_at_segment(n) >= self.pd_sensitivity_dbm


@dataclass
class Waveguide:
    """A waveguide with attachment points at fixed positions.

    Positions are millimetres from the upstream (laser) end.  The
    waveguide knows nothing about devices; it answers timing and loss
    queries for positions along its length.
    """

    length_mm: float
    group_velocity_mm_per_ns: float = constants.LIGHT_SPEED_SI_MM_PER_NS
    loss_db_per_mm: float = constants.WAVEGUIDE_LOSS_DB_PER_MM
    taps_mm: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        require_positive("length_mm", self.length_mm)
        require_positive("group_velocity_mm_per_ns", self.group_velocity_mm_per_ns)
        require_non_negative("loss_db_per_mm", self.loss_db_per_mm)
        for pos in self.taps_mm:
            self._check_position(pos)
        self.taps_mm = sorted(self.taps_mm)

    def _check_position(self, pos_mm: float) -> None:
        if not (0.0 <= pos_mm <= self.length_mm):
            raise LinkBudgetError(
                f"position {pos_mm} mm outside waveguide [0, {self.length_mm}] mm"
            )

    def add_tap(self, pos_mm: float) -> int:
        """Register an attachment point; returns its index in sorted order."""
        self._check_position(pos_mm)
        self.taps_mm.append(pos_mm)
        self.taps_mm.sort()
        return self.taps_mm.index(pos_mm)

    def propagation_delay_ns(self, from_mm: float, to_mm: float) -> float:
        """Flight time from one position to another (downstream only).

        Photonic buses are directional: ``to_mm`` must be at or after
        ``from_mm``.
        """
        self._check_position(from_mm)
        self._check_position(to_mm)
        if to_mm < from_mm:
            raise LinkBudgetError(
                f"waveguide is directional: cannot propagate from {from_mm} mm "
                f"back to {to_mm} mm"
            )
        return (to_mm - from_mm) / self.group_velocity_mm_per_ns

    def end_to_end_delay_ns(self) -> float:
        """Flight time over the full waveguide length."""
        return self.length_mm / self.group_velocity_mm_per_ns

    def propagation_loss_db(self, from_mm: float, to_mm: float) -> float:
        """Attenuation between two positions (waveguide loss only)."""
        self._check_position(from_mm)
        self._check_position(to_mm)
        if to_mm < from_mm:
            raise LinkBudgetError("directional waveguide: to_mm < from_mm")
        return (to_mm - from_mm) * self.loss_db_per_mm

    def uniform_taps(self, count: int) -> list[float]:
        """Evenly spaced tap positions covering the waveguide.

        ``count`` taps at pitch ``length/(count-1)`` starting at 0 (one tap
        at each end).  With ``count == 1`` the single tap is at 0.
        """
        if count < 1:
            raise LinkBudgetError(f"need >= 1 tap, got {count}")
        if count == 1:
            return [0.0]
        pitch = self.length_mm / (count - 1)
        return [i * pitch for i in range(count)]

    def total_bits_in_flight(self, bitrate_gbps: float) -> float:
        """Bits simultaneously in flight end-to-end at ``bitrate_gbps``.

        This is the pipelining depth the SCA exploits: upstream nodes can
        modulate while downstream bits are still travelling.
        """
        require_positive("bitrate_gbps", bitrate_gbps)
        return self.end_to_end_delay_ns() * bitrate_gbps

    def detectable(
        self,
        model: SegmentLossModel,
        from_mm: float,
        to_mm: float,
        rings_passed: int,
    ) -> bool:
        """Eq. 1 for a concrete path with ``rings_passed`` detuned rings."""
        loss = (
            self.propagation_loss_db(from_mm, to_mm)
            + rings_passed * model.ring_through_loss_db
        )
        return model.laser_power_dbm - loss >= model.pd_sensitivity_dbm

    def required_length_for_nodes(self, count: int, pitch_mm: float) -> float:
        """Length needed to host ``count`` nodes at ``pitch_mm`` spacing."""
        require_positive("pitch_mm", pitch_mm)
        if count < 1:
            raise LinkBudgetError(f"need >= 1 node, got {count}")
        return (count - 1) * pitch_mm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Waveguide(length={self.length_mm} mm, "
            f"v={self.group_velocity_mm_per_ns} mm/ns, "
            f"taps={len(self.taps_mm)})"
        )


def bits_per_waveguide_window(
    length_mm: float,
    bitrate_gbps: float,
    velocity_mm_per_ns: float = constants.LIGHT_SPEED_SI_MM_PER_NS,
) -> int:
    """Whole bits resident on a waveguide of the given length.

    Convenience used by schedule planners to size communication-program
    slots relative to flight time.
    """
    require_positive("length_mm", length_mm)
    require_positive("bitrate_gbps", bitrate_gbps)
    require_positive("velocity_mm_per_ns", velocity_mm_per_ns)
    return math.floor(length_mm / velocity_mm_per_ns * bitrate_gbps)
