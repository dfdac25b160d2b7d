"""Run a :class:`TrafficDescription` on any engine and report SLO stats.

:func:`run_on_mesh` is the one mesh driver every consumer shares — the
``repro obs`` CLI, the ``workload`` fuzz kind, the delivered-bandwidth
bench, and the sweep/serve worker all call it, so they all report the
same numbers: the aggregate :mod:`repro.obs.slo` latency block
(exact nearest-rank P50/P95/P99 over ``MeshStats.packet_latencies``,
on every engine) plus the FM16-style per-pair table (offered flits,
delivered bandwidth in flits/cycle, per-pair latency moments).

:func:`run_cp_phases` is the photonic counterpart: it replays a
description's CP epochs on the event-driven PSCAN, nodes spread evenly
along the waveguide, the receiver at the far end.

:func:`evaluate_workload_point` is the module-level (picklable)
``fn(**point) -> dict`` worker the sweep runtime and the job server
require; the point carries the registry name, the engine, and the
family params — all of which land in the content-addressed
``point_key``, so a ``compiled`` result can never alias a ``reference`` one
and two spellings of the same traffic cannot miss the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..util.errors import ConfigError
from .registry import TrafficDescription, build_workload

__all__ = [
    "WorkloadRunResult",
    "run_on_mesh",
    "run_cp_phases",
    "evaluate_workload_point",
]


@dataclass(frozen=True, slots=True)
class WorkloadRunResult:
    """One mesh run of one description on one engine.

    ``mesh_signature`` is the full observable signature (cycle count,
    per-packet latencies, heat map, id-normalized sink records) — the
    object the ``workload`` fuzz kind checks.
    ``slo`` is the shared latency block over ``stats.packet_latencies``
    (``None`` only when no packet was delivered); ``pairs`` maps
    ``"(sx, sy)->(dx, dy)"`` to offered flits, delivered bandwidth, and
    the latency moments the observer measured (none on ``compiled``,
    which emits no per-flit events).
    """

    name: str
    params: dict[str, Any]
    engine: str
    stats: Any
    mesh_signature: tuple
    slo: dict[str, float | int] | None
    pairs: dict[str, dict[str, float | int]]

    @property
    def delivered_bandwidth(self) -> float:
        """Aggregate delivered flits per cycle."""
        return self.stats.flits_delivered / max(1, self.stats.cycles)

    def to_payload(self) -> dict[str, Any]:
        """Strict-JSON summary for sweep/serve results and the CLI."""
        return {
            "ok": True,
            "workload": self.name,
            "engine": self.engine,
            "params": dict(self.params),
            "cycles": self.stats.cycles,
            "packets_delivered": self.stats.packets_delivered,
            "flits_delivered": self.stats.flits_delivered,
            "flit_hops": self.stats.flit_hops,
            "mean_packet_latency": self.stats.mean_packet_latency,
            "delivered_bandwidth": self.delivered_bandwidth,
            "slo": dict(self.slo) if self.slo is not None else None,
            "pairs": {k: dict(v) for k, v in self.pairs.items()},
        }


def run_on_mesh(
    description: TrafficDescription,
    engine: str = "reference",
    *,
    reorder: int = 4,
    session: Any = None,
    max_cycles: int | None = None,
) -> WorkloadRunResult:
    """Inject the description into a fresh mesh and run to completion.

    Memory interfaces are attached at ``description.memory_nodes``;
    a metrics-only :class:`~repro.obs.session.ObsSession` is created
    when ``session`` is None so the per-pair latency moments are
    always measured.  The SLO block needs no session: it is computed
    from ``stats.packet_latencies``.
    Descriptions are single-shot (their packets join one network) —
    call :func:`~repro.workloads.registry.build_workload` again for a
    second run.
    """
    from ..mesh import MeshConfig, MeshNetwork, mesh_signature
    from ..obs import ObsConfig, ObsSession, latency_slo, pair_latency_stats

    net = MeshNetwork(
        description.topology,
        MeshConfig(engine=engine, memory_reorder_cycles=reorder),
    )
    if session is None:
        session = ObsSession(ObsConfig(trace=False))
    net.attach_observer(session)
    for node in description.memory_nodes:
        net.add_memory_interface(node)
    net.inject_all(description.packets)
    stats = net.run(max_cycles)

    measured = pair_latency_stats(session.metrics, description.pairs())
    cycles = max(1, stats.cycles)
    pairs: dict[str, dict[str, float | int]] = {}
    for (src, dst), flits in sorted(description.pair_flits().items()):
        key = f"{src}->{dst}"
        # Clean runs deliver everything they offer, so offered flits
        # over total cycles *is* the delivered bandwidth per pair.
        entry: dict[str, float | int] = {
            "offered_flits": flits,
            "delivered_bandwidth": flits / cycles,
        }
        entry.update(measured.get(key, {}))
        pairs[key] = entry
    return WorkloadRunResult(
        name=description.name,
        params=dict(description.params),
        engine=engine,
        stats=stats,
        mesh_signature=mesh_signature(net, stats),
        slo=latency_slo(stats.packet_latencies),
        pairs=pairs,
    )


def _word_value(name: str, node: int, word: int) -> str:
    """Deterministic, provenance-carrying word payload for CP replays."""
    return f"{name}:n{node}:w{word}"


def run_cp_phases(
    description: TrafficDescription,
    *,
    node_spacing_mm: float = 10.0,
    session: Any = None,
) -> list[Any]:
    """Replay the description's CP epochs on a PSCAN; returns executions.

    Nodes sit at ``node_spacing_mm`` intervals from the head of the
    waveguide; gathers detect at the far end, scatters drive from the
    head; ``session``, when given, observes the kernel and the bus.
    Raises :class:`ConfigError` for families with no photonic lowering.
    """
    from ..core import Pscan
    from ..photonics import Waveguide
    from ..sim import Simulator

    if not description.cp_phases:
        raise ConfigError(
            f"workload {description.name!r} has no CP lowering "
            "(cp_phases is empty); it is mesh-only"
        )
    n = description.topology.node_count
    length_mm = node_spacing_mm * (n + 1)
    sim = Simulator()
    pscan = Pscan(
        sim,
        Waveguide(length_mm=length_mm),
        {i: node_spacing_mm * i for i in range(n)},
    )
    if session is not None:
        sim.attach_observer(session)
        pscan.attach_observer(session)
    executions: list[Any] = []
    for phase in description.cp_phases:
        schedule = phase.schedule()
        if phase.kind == "gather":
            width: dict[int, int] = {}
            for node, word in phase.order:
                width[node] = max(width.get(node, -1), word)
            data = {
                node: [
                    _word_value(description.name, node, w)
                    for w in range(hi + 1)
                ]
                for node, hi in width.items()
            }
            executions.append(
                pscan.execute_gather(schedule, data, receiver_mm=length_mm)
            )
        else:
            burst = [
                _word_value(description.name, node, word)
                for node, word in phase.order
            ]
            executions.append(
                pscan.execute_scatter(schedule, burst, source_mm=0.0)
            )
    return executions


def evaluate_workload_point(
    *,
    name: str,
    engine: str = "reference",
    reorder: int = 4,
    **params: Any,
) -> dict[str, Any]:
    """Sweep/serve worker: build + run one registry point, JSON result.

    Everything that affects the answer — registry name, engine, reorder
    cost, family params — is in the point, hence in ``point_key``: no
    aliasing between engines or between spellings of the same traffic.
    """
    description = build_workload(name, **params)
    result = run_on_mesh(description, engine=engine, reorder=reorder)
    return result.to_payload()
