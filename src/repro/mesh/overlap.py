"""Mesh-side Model II delivery + compute co-simulation (Section V-B2).

The mesh counterpart of :mod:`repro.core.overlap`: Model II block
delivery through the flit-level wormhole mesh, with each processor
computing on a block as soon as its last word lands.  The realized
efficiency measured here is the quantity Table II *models* with Eq. 22 —
so the simulator provides the measured curve that sits under the paper's
analytic one, including effects Eq. 22 folds into a single λ (per-hop
routing delay, serialization at the injection port, buffer backpressure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..util.errors import ConfigError
from .network import MeshConfig, MeshNetwork
from .topology import MeshTopology
from .workloads import make_scatter_delivery

__all__ = ["MeshOverlapResult", "run_mesh_model2_overlap"]


@dataclass
class MeshOverlapResult:
    """Measured blocked-delivery + compute phase on the mesh."""

    processors: int
    k: int
    block_words: int
    compute_cycles_per_block: float
    #: node index -> cycle at which each block's last flit ejected.
    block_ready: dict[int, list[int]] = field(default_factory=dict)
    finish: dict[int, float] = field(default_factory=dict)
    network_cycles: int = 0

    @property
    def makespan_cycles(self) -> float:
        """Injection start (cycle 0) to last compute completion."""
        return max(self.finish.values())

    @property
    def efficiency(self) -> float:
        """Realized efficiency (Eq. 12 form, in cycles)."""
        useful = self.processors * self.k * self.compute_cycles_per_block
        return useful / (self.processors * self.makespan_cycles)

    @property
    def delivery_efficiency(self) -> float:
        """Ideal serial-delivery cycles over measured delivery cycles.

        The measured analogue of Table II's eta_d: ideal is P*F data
        cycles through the single injection port.
        """
        ideal = self.processors * self.k * self.block_words
        last_delivery = max(ready[-1] for ready in self.block_ready.values())
        return ideal / last_delivery if last_delivery else 0.0


def run_mesh_model2_overlap(
    processors: int,
    k: int,
    block_words: int,
    compute_cycles_per_block: float,
    memory_node: tuple[int, int] = (0, 0),
    config: MeshConfig | None = None,
) -> MeshOverlapResult:
    """Run Model II delivery on the wormhole mesh and measure efficiency.

    The memory node injects ``k`` rounds of ``block_words``-word packets
    round-robin to every processor; compute on a block starts when its
    last payload flit ejects at the destination (and the previous block
    is done).
    """
    if processors < 4 or k < 1 or block_words < 1:
        raise ConfigError("need processors >= 4, k >= 1, block_words >= 1")
    if compute_cycles_per_block <= 0:
        raise ConfigError("compute_cycles_per_block must be > 0")

    topology = MeshTopology.square(processors)
    net = MeshNetwork(topology, config or MeshConfig())
    packets = make_scatter_delivery(
        topology,
        words_per_processor=k * block_words,
        k=k,
        memory_node=memory_node,
    )
    net.inject_all(packets)
    stats = net.run()

    # Reconstruct per-node block completion from the sink records.
    per_node_words: dict[int, list[int]] = {
        topology.node_index(n): [] for n in topology.nodes()
    }
    for rec in net.sunk:
        if rec.payload is None:
            continue
        node_idx, _word = rec.payload
        per_node_words[node_idx].append(rec.cycle)

    result = MeshOverlapResult(
        processors=processors,
        k=k,
        block_words=block_words,
        compute_cycles_per_block=compute_cycles_per_block,
        network_cycles=stats.cycles,
    )
    for node_idx, cycles in per_node_words.items():
        if len(cycles) != k * block_words:
            raise ConfigError(
                f"node {node_idx} received {len(cycles)} words, expected "
                f"{k * block_words}"
            )
        cycles.sort()
        ready = [cycles[(j + 1) * block_words - 1] for j in range(k)]
        result.block_ready[node_idx] = ready
        finish = 0.0
        for j in range(k):
            finish = max(float(ready[j]), finish) + compute_cycles_per_block
        result.finish[node_idx] = finish
    return result
