"""Workloads for the ``python -m repro obs`` CLI and the trace tests.

``fig4`` (:func:`repro.core.pscan.fig4_gather`, the gather
``python -m repro fig4`` renders), ``faults`` and ``fft2d`` drive the
photonic, recovery and LLMORE layers through their own runners; every
other name is a :mod:`repro.workloads` registry family, run at its
default params through the shared mesh driver
:func:`~repro.workloads.runner.run_on_mesh`.  Each runner works under
an attached :class:`~repro.obs.session.ObsSession` and returns the
subsystem's own result object.
"""

from __future__ import annotations

from typing import Any

from ..core.pscan import fig4_gather
from ..util.errors import ConfigError
from ..workloads import build_workload, get_workload, list_workloads, run_on_mesh
from .session import ObsSession

__all__ = [
    "WORKLOADS",
    "run_faults_workload",
    "run_fft2d_workload",
    "run_workload",
]


def run_faults_workload(
    session: ObsSession,
    *,
    seed: int = 7,
    ber: float = 2e-3,
    words_per_node: int = 8,
    processors: int = 16,
) -> Any:
    """A CRC-protected gather under bit errors + a degraded mesh run.

    Exercises both recovery layers: the :class:`ReliableGather`
    NACK/retransmit protocol (epoch spans, backoff windows) and the
    mesh's quarantine-and-reroute path via ``run_resilient`` on a mesh
    with one failed link.
    """
    from ..core import Pscan
    from ..faults import PscanFaultModel, ReliableGather, RetryPolicy
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology
    from ..mesh.workloads import make_transpose_gather
    from ..photonics import Waveguide
    from ..sim import Simulator

    # 1. Protected gather with seeded bit errors.
    sim = Simulator()
    positions = {i: 10.0 * i for i in range(4)}
    pscan = Pscan(sim, Waveguide(length_mm=140.0), positions)
    pscan.attach_observer(session)
    PscanFaultModel(ber=ber, seed=seed).install(pscan)
    order = [
        (node, w) for w in range(words_per_node) for node in sorted(positions)
    ]
    data = {
        node: [f"n{node}w{w}" for w in range(words_per_node)]
        for node in positions
    }
    gather = ReliableGather(pscan, RetryPolicy(max_retries=6))
    gather.attach_observer(session)
    result = gather.gather(order, data, receiver_mm=140.0, raise_on_exhaust=False)

    # 2. Mesh with a failed link, recovered via run_resilient.
    topo = MeshTopology.square(processors)
    net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=1))
    net.attach_observer(session)
    net.add_memory_interface((0, 0))
    net.fail_link((1, 0), (1, 1))
    net.inject_all(make_transpose_gather(topo, cols=4).packets)
    stats, report = net.run_resilient(max_cycles=50_000)
    return {"gather": result, "mesh_stats": stats, "mesh_report": report}


def run_fft2d_workload(session: ObsSession, *, n: int = 1024) -> Any:
    """LLMORE five-phase 2D FFT on the mesh and P-sync machine models."""
    from ..llmore.app import Fft2dApp
    from ..llmore.machine import mesh_machine, psync_machine
    from ..llmore.simulate import simulate_fft2d

    app = Fft2dApp(rows=n, cols=n)
    results = {}
    for machine in (mesh_machine(256), psync_machine(256)):
        results[machine.name] = simulate_fft2d(app, machine, obs=session)
    return results


_CANNED = {
    "fig4": ("Fig. 4 SCA waveform gather", fig4_gather),
    "faults": (
        "CRC-protected gather under bit errors + degraded mesh run",
        run_faults_workload,
    ),
    "fft2d": ("LLMORE five-phase 2D FFT phase timeline", run_fft2d_workload),
}

#: name -> description, for the CLI: the canned runners above, then
#: every registry family.
WORKLOADS: dict[str, str] = {
    **{name: desc for name, (desc, _run) in _CANNED.items()},
    **{
        name: f"registry family: {get_workload(name).description}"
        for name in list_workloads()
    },
}


def run_workload(
    name: str, session: ObsSession, *, engine: str = "reference"
) -> Any:
    """Run one named workload under ``session``.

    ``engine`` picks the mesh engine of a registry family, which runs
    with a 4-cycle memory reorder cost and returns a
    :class:`~repro.workloads.runner.WorkloadRunResult`; the ``fig4``,
    ``faults`` and ``fft2d`` runners take no engine.
    """
    if name in _CANNED:
        return _CANNED[name][1](session)
    if name not in WORKLOADS:
        raise ConfigError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    return run_on_mesh(
        build_workload(name), engine=engine, reorder=4, session=session
    )
