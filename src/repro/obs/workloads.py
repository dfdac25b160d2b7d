"""Canned workloads for the ``python -m repro obs`` CLI and the trace tests.

Each ``run_*_workload`` function drives one instrumented subsystem under
an attached :class:`~repro.obs.session.ObsSession` and returns the
subsystem's own result object.  The Fig.-4 builder is shared between the
CLI and the golden-trace regression test
(``tests/test_golden_fig4.py``), so the committed golden file and the
CLI's ``trace.json`` come from the *same* construction.
"""

from __future__ import annotations

from typing import Any

from ..util.errors import ConfigError
from .session import ObsSession

__all__ = [
    "WORKLOADS",
    "build_fig4_pscan",
    "run_fig4_workload",
    "run_transpose_workload",
    "run_faults_workload",
    "run_fft2d_workload",
    "run_zoo_workload",
    "run_workload",
]


def run_transpose_workload(
    session: ObsSession,
    *,
    processors: int = 64,
    cols: int = 8,
    engine: str = "reference",
    reorder: int = 4,
) -> Any:
    """The 8×8 2D-FFT transpose gather (Table III) on the mesh."""
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology
    from ..mesh.workloads import make_transpose_gather

    topo = MeshTopology.square(processors)
    net = MeshNetwork(
        topo, MeshConfig(engine=engine, memory_reorder_cycles=reorder)
    )
    net.attach_observer(session)
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topo, cols=cols).packets)
    return net.run()


def build_fig4_pscan(sim: Any = None, session: ObsSession | None = None):
    """The Fig.-4 SCA construction: 2 nodes × 6 words on a 140 mm bus.

    Returns ``(pscan, order, data)`` — exactly the waveform
    ``python -m repro fig4`` renders, so traces produced from it are the
    canonical Fig.-4 timeline.
    """
    from ..core import Pscan
    from ..photonics import Waveguide
    from ..sim import Simulator

    sim = sim or Simulator()
    if session is not None:
        sim.attach_observer(session)
    pscan = Pscan(sim, Waveguide(length_mm=140.0), {0: 0.0, 1: 14.0})
    if session is not None:
        pscan.attach_observer(session)
    order: list[tuple[int, int]] = []
    counters = {0: 0, 1: 0}
    for _ in range(3):
        for node in (0, 1):
            for _ in range(2):
                order.append((node, counters[node]))
                counters[node] += 1
    data = {0: [f"a{i}" for i in range(6)], 1: [f"b{i}" for i in range(6)]}
    return pscan, order, data


def run_fig4_workload(session: ObsSession) -> Any:
    """Execute the Fig.-4 gather under observation; returns the execution."""
    from ..core import gather_schedule

    pscan, order, data = build_fig4_pscan(session=session)
    return pscan.execute_gather(gather_schedule(order), data, receiver_mm=140.0)


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


def run_zoo_workload(
    session: ObsSession,
    *,
    name: str,
    engine: str = "reference",
    reorder: int = 4,
) -> Any:
    """One :mod:`repro.workloads` registry family at its default params.

    Returns the :class:`~repro.workloads.runner.WorkloadRunResult`, so the
    CLI can print the shared SLO latency block alongside the artifacts.
    """
    from ..workloads import build_workload, run_on_mesh

    return run_on_mesh(
        build_workload(name), engine=engine, reorder=reorder, session=session
    )


#: name -> (description, runner) for the CLI.
WORKLOADS = {
    "transpose": (
        "8x8 mesh transpose gather (Table III workload)",
        run_transpose_workload,
    ),
    "fig4": ("Fig. 4 SCA waveform gather", run_fig4_workload),
    "faults": (
        "CRC-protected gather under bit errors + degraded mesh run",
        run_faults_workload,
    ),
    "fft2d": ("LLMORE five-phase 2D FFT phase timeline", run_fft2d_workload),
}


def _zoo_entry(name: str, description: str):
    def _run(
        session: ObsSession,
        *,
        engine: str = "reference",
        reorder: int = 4,
    ) -> Any:
        return run_zoo_workload(
            session, name=name, engine=engine, reorder=reorder
        )

    _run.__name__ = f"run_{name}_workload"
    return (f"registry family: {description}", _run)


def _register_zoo() -> None:
    """Expose every registry family on the CLI under its own name.

    The canned ``transpose`` entry keeps its golden-trace runner (the
    committed golden file depends on its exact construction), so the
    registry's ``transpose`` family does not shadow it here.
    """
    from ..workloads import get_workload, list_workloads

    for name in list_workloads():
        if name in WORKLOADS:
            continue
        WORKLOADS[name] = _zoo_entry(name, get_workload(name).description)


_register_zoo()


def run_workload(name: str, session: ObsSession, **kwargs: Any) -> Any:
    """Dispatch one named workload under ``session``."""
    try:
        _desc, runner = WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return runner(session, **kwargs)
