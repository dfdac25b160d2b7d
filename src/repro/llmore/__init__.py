"""LLMORE-like mapping and phase simulation framework (Section VI)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "app": ("PHASE_SEQUENCE", "Fft2dApp"),
    "codegen": ("GeneratedProgram", "execute_generated_flow", "generate_fft_programs"),
    "machine": ("MachineModel", "ReorgMechanism", "mesh_machine", "psync_machine"),
    "mapping": ("BlockRowMap",),
    "optimize": ("BlockCountChoice", "best_block_count", "best_core_count"),
    "simulate": ("PhaseBreakdown", "reorg_time_ns", "simulate_fft2d"),
    "sweep": (
        "DEFAULT_CORE_SWEEP", "SweepPoint", "SweepResult", "figure13_sweep", "figure14_sweep",
    ),
})
