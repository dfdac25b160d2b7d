"""Discrete-event simulation kernel and building blocks.

The kernel (:mod:`repro.sim.engine`) is unit-agnostic; by library
convention all simulations run in nanoseconds.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "channel": ("Channel", "Resource"),
    "engine": (
        "LOW", "NORMAL", "URGENT", "AllOf", "AnyOf", "Event", "Interrupt", "Process", "Simulator",
        "Timeout",
    ),
    "fifo": ("DualClockFifo", "FifoStats"),
    "stats": ("Counter", "Histogram", "RunningStats", "TimeWeightedStat"),
})
