"""The workload zoo: named traffic families behind one registry.

The paper evaluates P-sync on a single kernel (the 2D-FFT transpose
gather); production systems live on traffic diversity.  This package
turns "a workload" into a first-class, engine-agnostic object:

``repro.workloads.registry``
    :func:`register_workload` / :func:`get_workload` /
    :func:`list_workloads` / :func:`build_workload` — name + JSON-scalar
    params resolve to a :class:`TrafficDescription`: mesh packets,
    memory-interface placement, and (for collectives) the CP-program
    phases that run the same pattern on the SCA engines.
``repro.workloads.families``
    The built-in families: the absorbed :mod:`repro.mesh.workloads`
    makers (``transpose``, ``transpose_multi_mc``, ``scatter``,
    ``uniform_random``) plus the zoo — ``all_to_all`` (FM16-style
    per-pair statistics), ``allreduce`` / ``allgather`` (lowered to CP
    programs), ``halo2d`` (stencil exchange), and ``dnn_layer``
    (activation/gradient traffic).
``repro.workloads.runner``
    :func:`run_on_mesh` drives a description through any
    :class:`~repro.mesh.network.MeshConfig` engine and reports the
    shared :mod:`repro.obs.slo` latency block + per-pair delivered
    bandwidth; :func:`run_cp_phases` runs a description's CP phases on
    the event/compiled SCA engines; :func:`evaluate_workload_point` is
    the picklable sweep/serve worker.

Every family is fuzzed by the ``workload`` kind in
:mod:`repro.check.fuzz` (reference mesh invariants and an id-shift
relation; event vs compiled SCA engines) and linted by
``repro check lint``.
"""

from .._lazy import lazy_exports
from . import families  # noqa: F401  (eager: its imports fill the workload registry)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "families": ("builtin_workload_names",),
    "registry": (
        "CpPhase", "TrafficDescription", "WorkloadFamily", "build_workload", "get_workload",
        "list_workloads", "register_workload",
    ),
    "runner": ("WorkloadRunResult", "evaluate_workload_point", "run_cp_phases", "run_on_mesh"),
})
