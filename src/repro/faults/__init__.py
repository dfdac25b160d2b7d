"""Fault injection, recovery, and resilience campaigns.

The paper presents a fault-free machine; this package asks what the
P-sync architecture does when the physics misbehaves, in three layers:

``repro.faults.models``
    Deterministic seeded injectors: transient photodetector bit errors
    (BER from optical margin), thermal ring-drift episodes, stuck mesh
    links/routers, FIFO write drops.  Installable on ``Pscan``,
    ``MeshNetwork``/``VcMeshNetwork`` and ``DualClockFifo`` without
    perturbing fault-free timing (the hooks default to ``None``).
``repro.faults.crc`` / ``repro.faults.recovery``
    The recovery protocol: CRC-16 protected SCA frames, head-node
    NACKs, scheduler-synthesized retransmission epochs with capped
    exponential backoff; stats surfaced in ``ScaExecution.retry``.
``repro.faults.report`` / ``repro.faults.campaign``
    Structured failure reports (hangs become data, not exceptions
    without context) and seeded Monte-Carlo campaigns over the 2D-FFT
    workload: delivered-correct %, retransmission overhead in cycles
    and energy, degradation curves vs fault rate.  CLI:
    ``python -m repro faults``.
``repro.faults.lanes`` / ``repro.faults.batched``
    The SIMD-lockstep campaign engine every ``run_campaign`` runs on:
    every lane's injector draw stream is read in bulk at once, lanes
    where no fault fires share one fault-free timeline, divergent
    gather lanes run the recovery protocol without a timeline, and the
    rest fall back to scalar replay — results are byte-identical to
    running each seed on its own, at any batch size
    (``python -m repro faults --batch N``).
``repro.faults.chaos``
    Seeded infrastructure chaos for the :mod:`repro.serve` job server:
    worker kills, torn store writes, slow tenants, clock-skewed
    deadlines — every injection recorded for replayable scenarios.

Dependency direction: this package builds on ``repro.core``,
``repro.mesh``, ``repro.sim`` and ``repro.photonics`` — never the
reverse.  Core components expose only neutral hooks.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "batched": (
        "LaneBatchResult", "run_gather_campaign_batch", "run_mesh_campaign_batch",
    ),
    "campaign": (
        "CampaignConfig", "CampaignReport", "GatherCampaignRow", "MeshCampaignRow", "run_campaign",
    ),
    "chaos": ("ChaosConfig", "ChaosDriver"),
    "crc": ("check_frame", "flip_bits", "frame_bits", "pack_word", "unpack_word"),
    "lanes": ("LaneRng", "compact_indices", "draw_below", "merge_masks", "scatter_lanes"),
    "models": ("DriftEpisode", "FifoDropFault", "MeshFaultPlan", "PscanFaultModel"),
    "recovery": ("GatherRecovery", "ReliableGather", "ReliableGatherResult", "RetryPolicy"),
    "report": ("FaultReport", "run_with_watchdog"),
})
