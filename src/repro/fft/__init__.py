"""The FFT application kernel: serial, blocked, distributed, transports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "blocks": ("BlockedFft",),
    "cost": (
        "block_compute_time_ns", "block_multiplies", "final_compute_time_ns",
        "final_phase_multiplies",
    ),
    "parallel2d": ("Distributed2dFft", "RowBlocks", "fft2d_reference", "four_step_fft1d"),
    "radix2": (
        "bit_reverse_indices", "bit_reverse_permute", "butterfly_count", "compute_time_ns", "fft",
        "fft_stage", "fft_stages", "ifft", "multiply_count",
    ),
    "real": ("irfft", "rfft"),
    "transpose": ("MeshBlockTranspose", "PsyncTranspose", "TransposeCost"),
})
