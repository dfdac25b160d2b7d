"""DRAM and memory-controller models (paper Section V-C)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "banked": ("BankedDram", "StreamReport", "banks_needed_for_rate"),
    "controller": ("MeshMemoryController", "PscanMemoryController", "TransactionAccounting"),
    "dram": ("AccessResult", "DramBank", "DramConfig"),
    "layout": (
        "AccessPattern", "butterfly_span", "column_major_order", "first_nonlocal_stage",
        "row_major_order", "tiled_order",
    ),
})
