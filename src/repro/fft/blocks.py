"""Blocked FFT execution for Model II delivery (paper Section V-B1).

The decimation-in-time structure lets a processor start computing before
all its data arrives: with its ``N`` samples delivered in ``k`` blocks of
``N/k``, each block (in bit-reversed sample order) can run the first
``log2(N/k)`` butterfly stages locally; once every block has landed, the
final ``log2(k)`` stages — whose operand span exceeds a block — run as a
pure-computation phase (Fig. 10).

Work accounting matches the paper's Eqs. 17-18 (:mod:`repro.fft.cost`,
re-exported here); this module *executes* that schedule with real data,
verifying it produces the exact FFT.
"""

from __future__ import annotations

import math

import numpy as np

from ..util.errors import ConfigError
from .cost import (
    _check_n_k,
    block_compute_time_ns,
    block_multiplies,
    final_compute_time_ns,
    final_phase_multiplies,
)
from .radix2 import bit_reverse_permute, fft_stages

__all__ = [
    "block_multiplies",
    "final_phase_multiplies",
    "block_compute_time_ns",
    "final_compute_time_ns",
    "BlockedFft",
]


class BlockedFft:
    """Execute an ``n``-point FFT from ``k`` incrementally delivered blocks.

    The delivery order is *bit-reversed sample order*: block ``b`` carries
    samples whose bit-reversed index falls in
    ``[b*n/k, (b+1)*n/k)``, which is exactly the contiguous run the local
    stages need.  Use :meth:`block_samples` to know which original sample
    indices to send in block ``b``.

    >>> bf = BlockedFft(n=8, k=2)
    >>> x = np.arange(8, dtype=complex)
    >>> for b in range(2):
    ...     bf.deliver(b, x[bf.block_samples(b)])
    >>> np.allclose(bf.finish(), np.fft.fft(x))
    True
    """

    def __init__(self, n: int, k: int) -> None:
        _check_n_k(n, k)
        self.n = n
        self.k = k
        self.block_len = n // k
        self.local_stages = int(math.log2(self.block_len))
        self.total_stages = int(math.log2(n))
        self._buffer = np.zeros(n, dtype=np.complex128)
        self._delivered = [False] * k
        self._finished = False

    def block_samples(self, block: int) -> np.ndarray:
        """Original sample indices belonging to delivery block ``block``."""
        if not (0 <= block < self.k):
            raise ConfigError(f"block {block} out of range [0, {self.k})")
        # Sample j lands at bit-reversed position rev(j); block b needs the
        # samples whose rev(j) lies in its contiguous run, i.e. j = rev of
        # the run positions.
        from .radix2 import bit_reverse_indices

        rev = bit_reverse_indices(self.n)
        lo = block * self.block_len
        return rev[lo: lo + self.block_len]

    def deliver(self, block: int, samples: np.ndarray) -> None:
        """Receive block ``block`` and run its local butterfly stages."""
        if self._finished:
            raise ConfigError("FFT already finished")
        if not (0 <= block < self.k):
            raise ConfigError(f"block {block} out of range [0, {self.k})")
        if self._delivered[block]:
            raise ConfigError(f"block {block} delivered twice")
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.shape != (self.block_len,):
            raise ConfigError(
                f"block must have {self.block_len} samples, got {samples.shape}"
            )
        lo = block * self.block_len
        chunk = samples.copy()
        # Local stages on this block alone (operand span < block length).
        fft_stages(chunk, 0, self.local_stages)
        self._buffer[lo: lo + self.block_len] = chunk
        self._delivered[block] = True

    @property
    def blocks_remaining(self) -> int:
        """Blocks not yet delivered."""
        return self._delivered.count(False)

    def finish(self) -> np.ndarray:
        """Run the final cross-block stages and return the spectrum."""
        if self.blocks_remaining:
            raise ConfigError(
                f"{self.blocks_remaining} blocks still undelivered"
            )
        if not self._finished:
            fft_stages(self._buffer, self.local_stages, self.total_stages)
            self._finished = True
        return self._buffer.copy()

    @staticmethod
    def reference(x: np.ndarray) -> np.ndarray:
        """Oracle: the ordinary full FFT of ``x``."""
        x = np.asarray(x, dtype=np.complex128)
        out = bit_reverse_permute(x).copy()
        fft_stages(out, 0, int(math.log2(x.shape[-1])))
        return out
