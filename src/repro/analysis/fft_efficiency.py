"""Tables I & II and Fig. 11 — FFT compute efficiency vs block count k.

Table I (zero latency): for each ``k``, the block size ``S_b = N/k``, the
per-block compute time ``t_ck`` (Eq. 17 x 2 ns), the final phase ``t_cf``
(Eq. 18 x 2 ns), the bandwidth ``W_p = S_b*S_s*P / t_ck`` that balances
delivery with compute (Eq. 19 + Eq. 20), and the resulting efficiency.

Table II (mesh latency): delivery efficiency ``eta_d`` from Eq. 22 with a
per-block network latency ``lambda(k)``; overall mesh efficiency is the
product of the Table I efficiency and ``eta_d``.

The paper does not print its ``lambda(k)``; every Table II row is
reproduced exactly by ``lambda(k) = 2.5 - 0.25*log2(k)`` ns (see
DESIGN.md, "Derived constants"), which we adopt as the paper's implied
mesh latency model.  :mod:`repro.analysis.mesh_model` separately predicts
latency from mesh microarchitecture for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..fft.cost import block_compute_time_ns, final_compute_time_ns
from ..util import constants
from ..util.errors import ConfigError
from ..util.validation import is_power_of_two
from .perf_model import balanced_block_delivery_time, efficiency_model2

__all__ = [
    "Table1Row",
    "Table2Row",
    "table1",
    "table2",
    "paper_lambda_ns",
    "delivery_efficiency",
    "figure11_curves",
    "DEFAULT_K_VALUES",
]

#: The k column of Tables I and II.
DEFAULT_K_VALUES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One row of Table I."""

    k: int
    block_size: int          # S_b, samples
    t_ck_ns: float
    t_cf_ns: float
    bandwidth_gbps: float    # W_p
    efficiency: float        # eta, fraction in [0, 1]


@dataclass(frozen=True, slots=True)
class Table2Row:
    """One row of Table II."""

    k: int
    lambda_ns: float
    delivery_efficiency: float   # eta_d
    compute_efficiency: float    # eta


def paper_lambda_ns(k: int) -> float:
    """The mesh per-block latency implied by Table II (see module doc)."""
    if not is_power_of_two(k):
        raise ConfigError(f"k must be a power of two, got {k}")
    return 2.5 - 0.25 * math.log2(k)


def delivery_efficiency(
    lambda_ns: float, block_bits: float, bandwidth_gbps: float
) -> float:
    """Eq. 22: ``eta_d = (S_b*S_c/W_p) / (lambda + S_b*S_c/W_p)``."""
    if bandwidth_gbps <= 0:
        raise ConfigError("bandwidth must be > 0")
    if lambda_ns < 0 or block_bits <= 0:
        raise ConfigError("latency must be >= 0 and block_bits > 0")
    xfer = block_bits / bandwidth_gbps
    return xfer / (lambda_ns + xfer)


def table1(
    n: int = constants.FFT_N,
    processors: int = constants.FFT_P,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    multiply_ns: float = constants.FLOAT_MULTIPLY_NS,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
) -> list[Table1Row]:
    """Regenerate Table I for the given study parameters."""
    rows: list[Table1Row] = []
    for k in k_values:
        s_b = n // k
        t_ck = block_compute_time_ns(n, k, multiply_ns)
        t_cf = final_compute_time_ns(n, k, multiply_ns)
        # Balanced operating point (Eq. 19): deliver one block to one
        # processor in t_ck / P.
        t_dk = balanced_block_delivery_time(processors, t_ck)
        w_p = s_b * sample_bits / t_dk  # Gb/s (bits per ns)
        eta = efficiency_model2(processors, k, t_dk, t_ck, t_cf)
        rows.append(
            Table1Row(
                k=k,
                block_size=s_b,
                t_ck_ns=t_ck,
                t_cf_ns=t_cf,
                bandwidth_gbps=w_p,
                efficiency=eta,
            )
        )
    return rows


def table2(
    n: int = constants.FFT_N,
    processors: int = constants.FFT_P,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    multiply_ns: float = constants.FLOAT_MULTIPLY_NS,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
    lambda_fn=paper_lambda_ns,
) -> list[Table2Row]:
    """Regenerate Table II: mesh efficiency = Table I eta x eta_d (Eq. 22)."""
    rows: list[Table2Row] = []
    for ideal in table1(n, processors, sample_bits, multiply_ns, k_values):
        lam = lambda_fn(ideal.k)
        block_bits = ideal.block_size * sample_bits
        eta_d = delivery_efficiency(lam, block_bits, ideal.bandwidth_gbps)
        rows.append(
            Table2Row(
                k=ideal.k,
                lambda_ns=lam,
                delivery_efficiency=eta_d,
                compute_efficiency=ideal.efficiency * eta_d,
            )
        )
    return rows


@dataclass
class Figure11Curves:
    """The two efficiency-vs-k curves of Fig. 11."""

    k_values: list[int] = field(default_factory=list)
    psync: list[float] = field(default_factory=list)
    mesh: list[float] = field(default_factory=list)

    @property
    def mesh_peak_k(self) -> int:
        """k at which the mesh curve peaks (paper: k = 8)."""
        i = max(range(len(self.mesh)), key=lambda j: self.mesh[j])
        return self.k_values[i]

    @property
    def psync_monotonic(self) -> bool:
        """True when the P-sync curve never decreases with k."""
        return all(a <= b + 1e-12 for a, b in zip(self.psync, self.psync[1:]))


def figure11_curves(
    n: int = constants.FFT_N,
    processors: int = constants.FFT_P,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    multiply_ns: float = constants.FLOAT_MULTIPLY_NS,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
) -> Figure11Curves:
    """Fig. 11: P-sync tracks the zero-latency ideal; the mesh pays eta_d.

    "Global synchrony and pre-scheduled communication allow P-sync to
    achieve near ideal FFT compute efficiency as k increases.  Such
    efficiency gains in the mesh are limited by the increased overhead of
    routing smaller packets."
    """
    curves = Figure11Curves()
    t1 = table1(n, processors, sample_bits, multiply_ns, k_values)
    t2 = table2(n, processors, sample_bits, multiply_ns, k_values)
    for ideal, mesh in zip(t1, t2):
        curves.k_values.append(ideal.k)
        curves.psync.append(ideal.efficiency)
        curves.mesh.append(mesh.compute_efficiency)
    return curves
