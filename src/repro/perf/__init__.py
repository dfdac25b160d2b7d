"""Performance layer: the resumable parallel sweep runtime.

:mod:`repro.perf.sweep` fans seeded parameter grids out over a
:class:`~concurrent.futures.ProcessPoolExecutor` with grid-order
(serial-identical) result merging, loud per-point failure semantics
(:class:`~repro.util.errors.SweepPointError`, explicit
``BrokenProcessPool`` recovery), and ``checkpoint=``/``resume=``
persistence through the :mod:`repro.store` content-addressed result
cache (see ``docs/sweeps.md`` and ``docs/performance.md``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "sweep": ("PointExecutor", "PoolHealth", "default_workers", "grid_points", "run_sweep"),
})
