"""Photonic physical layer: waveguides, devices, WDM, clocking, layout.

This package is the substitution for PhoenixSim's physical-layer models:
closed-form loss/latency/energy physics that the PSCAN simulator and the
Fig.-5 energy study build on (see DESIGN.md).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "clocking": ("PhotonicClock",),
    "devices": (
        "Laser", "Photodiode", "PhotonicLink", "RingModulator", "RingResonator",
        "ber_from_margin_db",
    ),
    "layout": ("SerpentineLayout",),
    "spectrum": ("SpectralPlan", "paper_spectral_plan"),
    "thermal": ("ThermalModel",),
    "waveguide": (
        "SegmentLossModel", "Waveguide", "bits_per_waveguide_window", "max_segments",
        "segment_loss_db",
    ),
    "wdm": ("WdmPlan", "pam4_pscan_plan", "paper_pscan_plan"),
})
