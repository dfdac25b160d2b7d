"""Analytic electronic-mesh delivery model (paper Section V-B2).

Eq. 21: scattering ``F`` flits to each of ``P`` processors from a
periphery memory node costs

    P*F + P*sqrt(P)*t_r      cycles

— the serial injection plus the per-hop header-routing overhead, which
"becomes large" when Model II shrinks packets.  This module provides the
closed form, a bridge from cycles to the latency ``lambda`` that enters
Eq. 22, and a harness that *measures* the same quantities on the
flit-level simulator for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from ..mesh.network import MeshConfig, MeshNetwork
from ..mesh.topology import MeshTopology
from ..mesh.workloads import make_scatter_delivery
from ..util import constants
from ..util.errors import ConfigError

__all__ = [
    "scatter_cycles_eq21",
    "scatter_cycles_ideal",
    "mesh_delivery_efficiency",
    "MeasuredScatter",
    "measure_scatter",
]


def scatter_cycles_ideal(processors: int, flits_per_processor: int) -> int:
    """Zero-overhead scatter: ``P * F`` cycles (Eq. 21 with t_r = 0)."""
    _check(processors, flits_per_processor)
    return processors * flits_per_processor


def scatter_cycles_eq21(
    processors: int,
    flits_per_processor: int,
    t_r: int = constants.MESH_HEADER_ROUTE_CYCLES,
) -> float:
    """Eq. 21: ``P*F + P*sqrt(P)*t_r`` cycles."""
    _check(processors, flits_per_processor)
    if t_r < 0:
        raise ConfigError("t_r must be >= 0")
    return processors * flits_per_processor + processors * sqrt(processors) * t_r


def mesh_delivery_efficiency(
    processors: int,
    flits_per_processor: int,
    t_r: int = constants.MESH_HEADER_ROUTE_CYCLES,
) -> float:
    """Eq. 21 recast as a delivery efficiency (ideal / actual cycles)."""
    return scatter_cycles_ideal(processors, flits_per_processor) / scatter_cycles_eq21(
        processors, flits_per_processor, t_r
    )


@dataclass(frozen=True, slots=True)
class MeasuredScatter:
    """Simulator-measured scatter delivery, for checking Eq. 21's shape."""

    processors: int
    flits_per_processor: int
    k: int
    cycles: int
    ideal_cycles: int
    mean_packet_latency: float

    @property
    def delivery_efficiency(self) -> float:
        """Measured ideal/actual cycle ratio."""
        return self.ideal_cycles / self.cycles

    @property
    def overhead_cycles(self) -> int:
        """Measured cycles beyond the serial-injection ideal."""
        return self.cycles - self.ideal_cycles


def measure_scatter(
    processors: int,
    words_per_processor: int,
    k: int = 1,
    t_r: int = constants.MESH_HEADER_ROUTE_CYCLES,
    buffer_flits: int = constants.MESH_CHANNEL_BUFFER_FLITS,
) -> MeasuredScatter:
    """Run the Model I/II scatter on the flit simulator and time it.

    The memory node injects serially (one packet at a time); the run ends
    when the last flit ejects.  ``k`` splits each processor's data into
    ``k`` round-robin block packets (Model II), shrinking packets and
    growing header overhead exactly as Section V-B2 describes.
    """
    _check(processors, words_per_processor)
    topo = MeshTopology.square(processors)
    net = MeshNetwork(
        topo,
        MeshConfig(buffer_flits=buffer_flits, header_route_cycles=t_r),
    )
    packets = make_scatter_delivery(topo, words_per_processor, k=k)
    net.inject_all(packets)
    stats = net.run()
    # Ideal excludes headers: P * F data flits through one injection port.
    ideal = scatter_cycles_ideal(processors, words_per_processor)
    return MeasuredScatter(
        processors=processors,
        flits_per_processor=words_per_processor,
        k=k,
        cycles=stats.cycles,
        ideal_cycles=ideal,
        mean_packet_latency=stats.mean_packet_latency,
    )


def _check(processors: int, flits: int) -> None:
    if processors < 1:
        raise ConfigError(f"processors must be >= 1, got {processors}")
    if flits < 1:
        raise ConfigError(f"flits_per_processor must be >= 1, got {flits}")


@dataclass(frozen=True, slots=True)
class FittedLambda:
    """Per-block latency extracted from flit-level measurements."""

    k: int
    lambda_cycles: float
    measured: MeasuredScatter


def fit_lambda(
    processors: int,
    words_per_processor: int,
    k_values: tuple[int, ...] = (1, 2, 4, 8),
    t_r: int = constants.MESH_HEADER_ROUTE_CYCLES,
) -> list[FittedLambda]:
    """Extract the effective Eq.-22 lambda from measured scatter runs.

    Table II's eta_d treats each block delivery as
    ``t_dk / (lambda + t_dk)``; the measured total over ``P*k`` blocks is
    ``P*k*(lambda + t_dk)`` cycles in the fully serialized view, so::

        lambda(k) = measured_cycles / (P*k) - t_dk

    with ``t_dk = block_words`` cycles at one flit/cycle.  The paper's
    implied model (lambda falling with k) can then be compared against
    what the wormhole simulator actually produces.
    """
    out: list[FittedLambda] = []
    for k in k_values:
        if words_per_processor % k != 0:
            raise ConfigError(f"k={k} must divide {words_per_processor}")
        measured = measure_scatter(
            processors, words_per_processor, k=k, t_r=t_r
        )
        block_words = words_per_processor // k
        blocks = processors * k
        lam = measured.cycles / blocks - block_words
        out.append(FittedLambda(k=k, lambda_cycles=lam, measured=measured))
    return out
