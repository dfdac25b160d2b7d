"""The paper's primary contribution: CPs, schedules, SCA, PSCAN, P-sync."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "arbiter": ("ArbitrationResult", "Message", "TdmArbiter"),
    "cp": ("CommunicationProgram", "Role", "Slot"),
    "encoding": (
        "ChainEntry", "ChainEntryKind", "CpChain", "crc16_ccitt", "decode_cp",
        "decode_cp_protected", "encode_cp", "encode_cp_protected", "encoded_size_bits",
    ),
    "flowtiming": ("FlowTiming", "run_fft2d_flow"),
    "headnode": ("HeadNode", "StreamPlan"),
    "multibus": ("MultiBusPscan", "StripedExecution"),
    "overlap": ("OverlapResult", "run_model2_overlap"),
    "processor": (
        "ExecutionReport", "Instruction", "Op", "Processor", "ProcessorConfig",
        "compile_fft_program",
    ),
    "pscan": ("Arrival", "Pscan", "RetryStats", "ScaExecution", "fig4_gather"),
    "psync": ("PsyncConfig", "PsyncMachine"),
    "sca": (
        "ModulationInterval", "ReliabilityOverhead", "ScaTiming",
        "expected_retransmission_overhead", "sca_timing",
    ),
    "schedule": (
        "GlobalSchedule", "block_interleave_order", "control_then_data_order", "gather_schedule",
        "round_robin_order", "scatter_schedule", "transpose_order",
    ),
    "segments": ("PscanSegment", "RepeaterModel", "SegmentedBusPlan", "plan_segments"),
})
