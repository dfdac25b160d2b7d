"""End-to-end measured 2D-FFT flow on the wormhole mesh.

The mesh counterpart of :mod:`repro.core.flowtiming`: scatter from the
memory corner, row FFTs, block-wise transpose through the memory
interface, re-scatter, column FFTs — with every data movement executed
flit by flit.  Together with the P-sync version this produces a fully
*measured* micro-scale Fig. 13 point for both architectures.

Cycle-to-nanosecond conversion uses the paper's 2.5 GHz mesh clock so
the two machines' results are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fft.radix2 import compute_time_ns, fft
from ..util import constants
from ..util.errors import ConfigError
from .network import MeshConfig, MeshNetwork
from .topology import MeshTopology
from .workloads import make_scatter_delivery, make_transpose_gather

__all__ = ["MeshFlowTiming", "run_mesh_fft2d_flow"]


@dataclass
class MeshFlowTiming:
    """Measured phase times of one 2D-FFT execution on the mesh."""

    processors: int
    rows: int
    cols: int
    phases_ns: dict[str, float] = field(default_factory=dict)
    result: np.ndarray | None = None

    @property
    def total_ns(self) -> float:
        """End-to-end wall clock."""
        return sum(self.phases_ns.values())

    @property
    def compute_ns(self) -> float:
        """Modeled compute time across both FFT phases."""
        return self.phases_ns.get("row_fft", 0.0) + self.phases_ns.get(
            "col_fft", 0.0
        )

    @property
    def efficiency(self) -> float:
        """Compute share of the runtime."""
        total = self.total_ns
        return self.compute_ns / total if total else 0.0

    @property
    def reorg_fraction(self) -> float:
        """Fig. 14's quantity for the mesh."""
        total = self.total_ns
        return self.phases_ns.get("transpose", 0.0) / total if total else 0.0


def _scatter_cycles(topology: MeshTopology, matrix: np.ndarray) -> tuple[int, dict]:
    """Scatter row blocks from the corner; returns (cycles, pid->row)."""
    rows, cols = matrix.shape
    net = MeshNetwork(topology, MeshConfig())
    packets = make_scatter_delivery(topology, words_per_processor=cols, k=1)
    net.inject_all(packets)
    stats = net.run()
    # Deliveries carry (node_index, word) markers; attach real data.
    delivered: dict[int, np.ndarray] = {
        r: matrix[r].copy() for r in range(rows)
    }
    return stats.cycles, delivered


def run_mesh_fft2d_flow(
    rows: int,
    cols: int,
    matrix: np.ndarray | None = None,
    reorder_cycles: int = 1,
    multiply_ns: float = constants.FLOAT_MULTIPLY_NS,
    clock_ghz: float = constants.MESH_CLOCK_GHZ,
) -> MeshFlowTiming:
    """Execute the five-phase flow with flit-level data movement.

    One processor per matrix row (``rows`` must be a perfect square for
    the mesh).  Numerics are exact; communication cycles come from the
    simulator and convert to ns at ``clock_ghz``.
    """
    side = int(round(rows ** 0.5))
    if side * side != rows:
        raise ConfigError(f"rows={rows} must be a perfect square for the mesh")
    if matrix is None:
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (rows, cols):
        raise ConfigError(f"matrix shape {matrix.shape} != ({rows}, {cols})")
    cycle_ns = 1.0 / clock_ghz

    timing = MeshFlowTiming(processors=rows, rows=rows, cols=cols)
    topo = MeshTopology.square(rows)

    # Phase 1: scatter.
    cycles, local = _scatter_cycles(topo, matrix)
    timing.phases_ns["scatter"] = cycles * cycle_ns

    # Phase 2: row FFTs.
    for r in range(rows):
        local[r] = fft(local[r])
    timing.phases_ns["row_fft"] = compute_time_ns(cols, multiply_ns)

    # Phase 3: block-wise transpose through the corner memory interface.
    # The reference engine, because the matrix is rebuilt from net.sunk,
    # which the compiled engine leaves empty.
    net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=reorder_cycles))
    net.add_memory_interface((0, 0))
    workload = make_transpose_gather(topo, cols)
    net.inject_all(workload.packets)
    t_stats = net.run()
    timing.phases_ns["transpose"] = t_stats.cycles * cycle_ns
    memory = np.zeros(rows * cols, dtype=np.complex128)
    for rec in net.sunk:
        if rec.payload is None:
            continue
        address = rec.payload
        c, r = divmod(address, rows)
        memory[address] = local[r][c]
    transposed = memory.reshape(cols, rows)

    # Phase 4: load the transposed matrix back (cols rows; reuse the
    # same fabric with one block per *column-owner* processor — at this
    # micro scale we keep one node per original processor and stripe).
    net2 = MeshNetwork(topo, MeshConfig())
    packets = make_scatter_delivery(
        topo, words_per_processor=max(1, (rows * cols) // rows), k=1
    )
    net2.inject_all(packets)
    l_stats = net2.run()
    timing.phases_ns["load"] = l_stats.cycles * cycle_ns

    # Phase 5: column FFTs (rows of the transposed matrix).
    spectra = fft(transposed)
    timing.phases_ns["col_fft"] = compute_time_ns(rows, multiply_ns)

    timing.result = spectra.T.copy()
    return timing
