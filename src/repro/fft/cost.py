"""Work accounting of blocked FFT execution, paper Eqs. 17-18.

* per delivery cycle: ``(2N/k) * log2(N/k)`` multiplies,
* final phase: ``2N * log2(k)`` multiplies,

and the compute times Table I derives from them.  Pure integer and float
arithmetic: the closed-form tables import this module without loading
numpy, which :mod:`repro.fft.blocks` (the executed schedule) needs.
"""

from __future__ import annotations

import math

from ..util.errors import ConfigError
from ..util.validation import is_power_of_two

__all__ = [
    "block_multiplies",
    "final_phase_multiplies",
    "block_compute_time_ns",
    "final_compute_time_ns",
]


def _check_n_k(n: int, k: int) -> None:
    if not is_power_of_two(n):
        raise ConfigError(f"N must be a power of two, got {n}")
    if not is_power_of_two(k):
        raise ConfigError(f"k must be a power of two, got {k}")
    if k > n:
        raise ConfigError(f"k={k} cannot exceed N={n}")


def block_multiplies(n: int, k: int) -> int:
    """Eq. 17: multiplies per delivery cycle, ``(2N/k) log2(N/k)``."""
    _check_n_k(n, k)
    if k == n:
        return 0
    return (2 * n // k) * int(math.log2(n // k))


def final_phase_multiplies(n: int, k: int) -> int:
    """Eq. 18: multiplies of the compute-only phase, ``2N log2 k``."""
    _check_n_k(n, k)
    return 2 * n * int(math.log2(k))


def block_compute_time_ns(n: int, k: int, multiply_ns: float = 2.0) -> float:
    """Table I's ``t_ck``: time to compute on one delivered block."""
    if multiply_ns <= 0:
        raise ConfigError("multiply_ns must be > 0")
    return block_multiplies(n, k) * multiply_ns


def final_compute_time_ns(n: int, k: int, multiply_ns: float = 2.0) -> float:
    """Table I's ``t_cf``: time of the final compute-only phase."""
    if multiply_ns <= 0:
        raise ConfigError("multiply_ns must be > 0")
    return final_phase_multiplies(n, k) * multiply_ns
