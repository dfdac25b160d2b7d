"""Bandwidth feasibility: which Table I operating points can a PSCAN serve?

Table I shows required delivery bandwidth W_p growing from 409.6 Gb/s
(k=1) to 1024 Gb/s (k=64): "efficiency can be improved by increasing
bandwidth".  A PSCAN's aggregate bandwidth is fixed by its WDM plan, so
only a prefix of the k column is *feasible* on a given bus.  This module
computes that prefix and the efficiency actually achievable at a given
bandwidth — connecting Table I to the physical link the paper builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..photonics.spectrum import SpectralPlan
from ..photonics.wdm import WdmPlan
from ..util import constants
from ..util.errors import ConfigError
from .fft_efficiency import DEFAULT_K_VALUES, Table1Row, table1
from .perf_model import efficiency_model2

__all__ = ["FeasibleOperatingPoint", "feasible_k", "achievable_efficiency"]


@dataclass(frozen=True, slots=True)
class FeasibleOperatingPoint:
    """One Table I row annotated with feasibility on a concrete bus."""

    row: Table1Row
    feasible: bool
    bus_bandwidth_gbps: float

    @property
    def headroom(self) -> float:
        """Bus bandwidth over required bandwidth (>= 1 means feasible)."""
        return self.bus_bandwidth_gbps / self.row.bandwidth_gbps


def feasible_k(
    wdm: WdmPlan,
    n: int = constants.FFT_N,
    processors: int = constants.FFT_P,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
) -> list[FeasibleOperatingPoint]:
    """Annotate each Table I row with feasibility on ``wdm``'s bandwidth."""
    bus = wdm.aggregate_bandwidth_gbps
    return [
        FeasibleOperatingPoint(
            row=row,
            feasible=row.bandwidth_gbps <= bus,
            bus_bandwidth_gbps=bus,
        )
        for row in table1(n, processors, sample_bits, k_values=k_values)
    ]


def achievable_efficiency(
    bandwidth_gbps: float,
    n: int = constants.FFT_N,
    processors: int = constants.FFT_P,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    multiply_ns: float = constants.FLOAT_MULTIPLY_NS,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
) -> tuple[int, float]:
    """Best (k, efficiency) reachable at a *fixed* delivery bandwidth.

    Unlike Table I (which raises bandwidth to stay balanced), this holds
    ``bandwidth_gbps`` constant: for each k the per-block delivery time
    follows from the bandwidth, and the resulting Eq.-11 efficiency may
    be communication-bound.  Returns the best point.
    """
    if bandwidth_gbps <= 0:
        raise ConfigError("bandwidth must be > 0")
    from ..fft.cost import block_compute_time_ns, final_compute_time_ns

    best_k, best_eff = 0, -1.0
    for k in k_values:
        s_b = n // k
        t_ck = block_compute_time_ns(n, k, multiply_ns)
        t_cf = final_compute_time_ns(n, k, multiply_ns)
        t_dk = s_b * sample_bits * processors / (bandwidth_gbps * processors)
        eff = efficiency_model2(processors, k, t_dk, t_ck, t_cf)
        if eff > best_eff:
            best_k, best_eff = k, eff
    return best_k, best_eff


def max_k_on_spectral_plan(
    plan: SpectralPlan,
    n: int = constants.FFT_N,
    processors: int = constants.FFT_P,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
) -> int:
    """Largest Table-I k whose W_p fits in the spectral plan's bandwidth.

    Ties the spectral physics (FSR, crosstalk) to the application
    requirement: more aggressive blocking needs more wavelengths.
    Returns 0 when even k=1 does not fit.
    """
    bus = plan.max_bandwidth_gbps
    best = 0
    for row in table1(n, processors, sample_bits, k_values=k_values):
        if row.bandwidth_gbps <= bus:
            best = row.k
    return best
