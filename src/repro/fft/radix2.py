"""From-scratch radix-2 decimation-in-time FFT.

Implemented directly (no ``numpy.fft``) because the *structure* of the
computation matters to the paper: the DIT butterfly schedule is what makes
Model II block delivery possible — "the non-locality as defined by the
span in linear memory between two operands increases as 2^n" (Section
V-B1), so early stages are local to a delivered block and only the final
``log2(k)`` stages span blocks.

NumPy is used for storage and vectorized butterflies within a stage;
the stage loop itself is explicit so the block-scheduling code in
:mod:`repro.fft.blocks` can execute *partial* FFTs (stages [lo, hi)).

Each size's plan is computed once: the bit-reversal permutation and
every stage's twiddles sit in small bounded ``functools.lru_cache``
caches as read-only arrays, so a campaign that transforms thousands
of rows rebuilds neither.  The twiddle expression is the one the stage
loop always used, so cached and fresh values are bit-identical.

``numpy.fft`` remains the test oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..util.errors import ConfigError
from ..util.validation import is_power_of_two

__all__ = [
    "bit_reverse_indices",
    "bit_reverse_permute",
    "fft_stage",
    "fft",
    "ifft",
    "fft_stages",
    "butterfly_count",
    "multiply_count",
]


def _require_size(n: int) -> None:
    if not is_power_of_two(n):
        raise ConfigError(f"FFT size must be a power of two, got {n}")


@lru_cache(maxsize=64)
def _bit_reverse_plan(n: int) -> np.ndarray:
    """Read-only bit-reversal permutation for a validated size ``n``."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


@lru_cache(maxsize=64)
def _stage_twiddles(stage: int) -> np.ndarray:
    """Read-only twiddles of one group of DIT stage ``stage``."""
    half = 1 << stage
    span = half * 2
    tw = np.exp(-2j * np.pi * np.arange(half) / span)
    tw.setflags(write=False)
    return tw


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation indices for a power-of-two ``n``.

    Returns a fresh, writable array; the cached plan stays untouched.
    """
    _require_size(n)
    return _bit_reverse_plan(n).copy()


def bit_reverse_permute(x: np.ndarray) -> np.ndarray:
    """Reorder ``x`` (last axis) into bit-reversed order."""
    n = x.shape[-1]
    _require_size(n)
    return x[..., _bit_reverse_plan(n)]


def fft_stage(x: np.ndarray, stage: int) -> None:
    """Apply DIT butterfly stage ``stage`` (0-based) in place.

    Stage ``s`` combines pairs of runs of length ``2**s`` into runs of
    ``2**(s+1)``; operand span is ``2**s`` elements.  ``x`` must already
    be in bit-reversed order and is modified along its last axis.
    """
    n = x.shape[-1]
    _require_size(n)
    stages = n.bit_length() - 1
    if not (0 <= stage < stages):
        raise ConfigError(f"stage {stage} out of range for n={n} ({stages} stages)")
    half = 1 << stage
    span = half * 2
    # Twiddles for one group; identical across groups.
    tw = _stage_twiddles(stage)
    view = x.reshape(*x.shape[:-1], n // span, span)
    even = view[..., :half]
    odd = view[..., half:]
    t = odd * tw
    odd[...] = even - t
    even[...] = even + t


def fft_stages(x: np.ndarray, lo: int, hi: int) -> None:
    """Apply stages ``[lo, hi)`` in place (bit-reversed-order input)."""
    for s in range(lo, hi):
        fft_stage(x, s)


def fft(x: np.ndarray) -> np.ndarray:
    """Full radix-2 DIT FFT along the last axis (returns a new array)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    _require_size(n)
    out = bit_reverse_permute(x).copy()
    fft_stages(out, 0, n.bit_length() - 1)
    return out


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse FFT along the last axis (conjugate method)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    return np.conj(fft(np.conj(x))) / n


def butterfly_count(n: int) -> int:
    """Butterflies in an ``n``-point radix-2 FFT: (n/2) * log2(n)."""
    _require_size(n)
    return (n // 2) * (n.bit_length() - 1)


def multiply_count(n: int, multiplies_per_butterfly: int = 4) -> int:
    """Real multiplies in an ``n``-point FFT (paper's Table I convention).

    The paper counts "4 32-bit multiplies per FFT butterfly" and quotes
    ``2 N log2 N`` multiplies for an N-point FFT — i.e. 4 multiplies x
    (N/2 log2 N) butterflies.
    """
    if multiplies_per_butterfly < 1:
        raise ConfigError("multiplies_per_butterfly must be >= 1")
    return butterfly_count(n) * multiplies_per_butterfly


def compute_time_ns(
    n: int,
    multiply_ns: float = 2.0,
    multiplies_per_butterfly: int = 4,
) -> float:
    """Serial multiply time of an ``n``-point FFT (Table I's clock model).

    Only multiplies are counted, each taking ``multiply_ns`` (the paper's
    2 ns floating-point multiply): ``2 N log2 N`` multiplies x 2 ns gives
    the 40960 ns of Table I's k=1 row for N=1024.
    """
    if multiply_ns <= 0:
        raise ConfigError("multiply_ns must be > 0")
    return multiply_count(n, multiplies_per_butterfly) * multiply_ns
