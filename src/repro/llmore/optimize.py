"""Map/parameter optimization — LLMORE's "optimizer" role (Section VI-A).

LLMORE "optimiz[es] the mapping of parallel data objects" and emits "a
set of optimized architectures for the user code".  This module provides
the two optimizers the 2D-FFT study needs:

* :func:`best_block_count` — choose the Model II ``k`` that minimizes
  total phase time on a machine (Eq. 11 + the Eqs. 17/18 FFT split),
  trading start-up against the serial final phase.
* :func:`best_core_count` — choose the core count that maximizes GFLOPS
  for a machine family over a sweep (finds the paper's mesh knee
  automatically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..fft.cost import block_compute_time_ns, final_compute_time_ns
from ..util.errors import ConfigError
from ..util.validation import is_power_of_two
from .app import Fft2dApp
from .machine import MachineModel
from .mapping import BlockRowMap
from .simulate import simulate_fft2d

__all__ = ["BlockCountChoice", "best_block_count", "best_core_count"]


@dataclass(frozen=True, slots=True)
class BlockCountChoice:
    """Result of the Model II block-count search."""

    k: int
    total_ns: float
    t_ck_ns: float
    t_cf_ns: float
    compute_bound: bool
    #: total time for every candidate k, for inspection.
    candidates: tuple[tuple[int, float], ...]


def best_block_count(
    n: int,
    processors: int,
    bandwidth_gbps: float,
    sample_bits: int = 64,
    multiply_ns: float = 2.0,
    max_k: int | None = None,
) -> BlockCountChoice:
    """Pick the Model II ``k`` minimizing one FFT phase's total time.

    For each power-of-two ``k`` up to ``max_k`` (default ``n``), total
    time is Eq. 11 with the Eq.-17 per-block compute time, the Eq.-18
    final phase, and per-block delivery ``t_dk = S_b*S_s/W_p``.
    """
    if not is_power_of_two(n):
        raise ConfigError(f"n must be a power of two, got {n}")
    if processors < 1 or bandwidth_gbps <= 0:
        raise ConfigError("processors >= 1 and bandwidth > 0 required")
    limit = max_k if max_k is not None else n
    if not is_power_of_two(limit):
        raise ConfigError(f"max_k must be a power of two, got {limit}")

    from ..analysis.perf_model import total_time_model2

    candidates: list[tuple[int, float]] = []
    best: tuple[int, float] | None = None
    k = 1
    while k <= min(limit, n):
        s_b = n // k
        t_ck = block_compute_time_ns(n, k, multiply_ns)
        t_cf = final_compute_time_ns(n, k, multiply_ns)
        t_dk = s_b * sample_bits / bandwidth_gbps
        total = total_time_model2(processors, k, t_dk, t_ck, t_cf)
        candidates.append((k, total))
        if best is None or total < best[1]:
            best = (k, total)
        k *= 2

    assert best is not None
    k_best, total_best = best
    t_ck = block_compute_time_ns(n, k_best, multiply_ns)
    t_cf = final_compute_time_ns(n, k_best, multiply_ns)
    t_dk = (n // k_best) * sample_bits / bandwidth_gbps
    return BlockCountChoice(
        k=k_best,
        total_ns=total_best,
        t_ck_ns=t_ck,
        t_cf_ns=t_cf,
        compute_bound=processors * t_dk <= t_ck,
        candidates=tuple(candidates),
    )


def best_core_count(
    machine_factory,
    app: Fft2dApp | None = None,
    core_counts: tuple[int, ...] = (4, 16, 64, 256, 1024, 4096),
) -> tuple[int, float]:
    """Core count maximizing simulated GFLOPS for a machine family.

    ``machine_factory(cores) -> MachineModel``.  Returns
    ``(cores, gflops)`` of the best point.
    """
    app = app or Fft2dApp()
    best_cores, best_gflops = 0, -math.inf
    for cores in core_counts:
        machine = machine_factory(cores)
        if not isinstance(machine, MachineModel):
            raise ConfigError("machine_factory must return a MachineModel")
        result = simulate_fft2d(app, machine, BlockRowMap(app.rows, app.cols, cores))
        if result.gflops > best_gflops:
            best_cores, best_gflops = cores, result.gflops
    return best_cores, best_gflops
