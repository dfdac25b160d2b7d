"""Energy models: ORION-style electronic mesh vs PSCAN (Fig. 5)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "compare": ("DEFAULT_NODE_SWEEP", "EnergyComparison", "EnergyComparisonRow", "figure5_sweep"),
    "electronic": ("ElectronicEnergyModel", "GatherEnergyBreakdown"),
    "measured": ("MeasuredMeshEnergy", "measure_mesh_energy"),
    "photonic": ("PhotonicEnergyModel", "PscanEnergyBreakdown"),
})
