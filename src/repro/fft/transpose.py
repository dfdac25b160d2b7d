"""Transpose transports: SCA on P-sync vs block-wise on the mesh.

Binds the abstract scatter/gather hooks of
:class:`~repro.fft.parallel2d.Distributed2dFft` to the two simulated
architectures, producing both the numerical result and the communication
cost of each phase.  This is the integration point behind the Section VI
experiments: the same FFT, two machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.psync import PsyncConfig, PsyncMachine
from ..core.schedule import gather_schedule, transpose_order
from ..mesh.network import MeshConfig, MeshNetwork
from ..mesh.topology import MeshTopology
from ..mesh.workloads import make_transpose_gather
from ..util.errors import ConfigError

__all__ = ["TransposeCost", "PsyncTranspose", "MeshBlockTranspose"]


@dataclass
class TransposeCost:
    """Communication accounting for one transpose."""

    elements: int = 0
    #: P-sync: bus cycles of the SCA burst; mesh: network cycles.
    cycles: int = 0
    #: Wall-clock of the transaction in ns (P-sync only; 0 for mesh).
    duration_ns: float = 0.0
    mechanism: str = ""
    details: dict = field(default_factory=dict)


class PsyncTranspose:
    """SCA transpose: rows gathered column-major in flight (Section V-C1).

    Each call builds a fresh P-sync machine sized to the row count (one
    row per processor) and executes the gather on the event simulator.
    """

    def __init__(self, word_cycles: int = 1) -> None:
        if word_cycles < 1:
            raise ConfigError("word_cycles must be >= 1")
        self.word_cycles = word_cycles
        self.last_cost: TransposeCost | None = None

    def __call__(self, row_blocks: list[np.ndarray]) -> np.ndarray:
        if not row_blocks:
            raise ConfigError("need at least one row block")
        # Flatten multi-row blocks: machine has one node per matrix row.
        flat_rows: list[np.ndarray] = []
        for blk in row_blocks:
            blk2 = np.atleast_2d(blk)
            flat_rows.extend(blk2[i] for i in range(blk2.shape[0]))
        total_rows = len(flat_rows)
        cols = flat_rows[0].shape[0]

        machine = PsyncMachine(PsyncConfig(processors=total_rows))
        for pid, row in enumerate(flat_rows):
            machine.local_memory[pid] = list(row)
        sched = gather_schedule(transpose_order(total_rows, cols))
        execution = machine.gather(sched)
        matrix_t = np.array(execution.stream, dtype=np.complex128).reshape(
            cols, total_rows
        )
        self.last_cost = TransposeCost(
            elements=total_rows * cols,
            cycles=sched.total_cycles * self.word_cycles,
            duration_ns=execution.duration_ns,
            mechanism="sca",
            details={
                "gapless": execution.is_gapless,
                "bus_utilization": execution.bus_utilization,
            },
        )
        return matrix_t


class MeshBlockTranspose:
    """Block-wise transpose through the mesh's memory interface (Section VI-A).

    Every processor sends its row to the single memory interface as
    per-element packets; the memory controller reorders (cost ``t_p`` per
    element) and the transposed matrix is read back.  The numerical result
    is exact; the cost comes from the flit-level simulation.
    """

    def __init__(
        self,
        reorder_cycles: int = 1,
        memory_node: tuple[int, int] = (0, 0),
    ) -> None:
        if reorder_cycles < 1:
            raise ConfigError("reorder_cycles must be >= 1")
        self.reorder_cycles = reorder_cycles
        self.memory_node = memory_node
        self.last_cost: TransposeCost | None = None

    def __call__(self, row_blocks: list[np.ndarray]) -> np.ndarray:
        flat_rows: list[np.ndarray] = []
        for blk in row_blocks:
            blk2 = np.atleast_2d(blk)
            flat_rows.extend(blk2[i] for i in range(blk2.shape[0]))
        rows = len(flat_rows)
        cols = flat_rows[0].shape[0]
        # Most-square factorization of the node count (32 -> 8 x 4).
        h = int(rows ** 0.5)
        while h > 1 and rows % h != 0:
            h -= 1
        topo = MeshTopology(width=rows // h, height=h)
        # The reference engine: the result is rebuilt from net.sunk, which
        # the compiled engine leaves empty.
        net = MeshNetwork(
            topo, MeshConfig(memory_reorder_cycles=self.reorder_cycles)
        )
        net.add_memory_interface(self.memory_node)
        workload = make_transpose_gather(topo, cols, self.memory_node)
        net.inject_all(workload.packets)
        stats = net.run()
        # Reassemble from the delivered (address, via packet source) flits.
        out = np.zeros(rows * cols, dtype=np.complex128)
        for rec in net.sunk:
            if rec.payload is None:
                continue
            address = rec.payload
            c, r = divmod(address, rows)
            out[address] = flat_rows[r][c]
        matrix_t = out.reshape(cols, rows)
        self.last_cost = TransposeCost(
            elements=rows * cols,
            cycles=stats.cycles,
            duration_ns=0.0,
            mechanism="mesh-blockwise",
            details={
                "mean_packet_latency": stats.mean_packet_latency,
                "flit_hops": stats.flit_hops,
            },
        )
        return matrix_t
