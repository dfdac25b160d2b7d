"""Table III — transpose completion time, PSCAN vs wormhole mesh.

PSCAN side (Section V-C1, Eqs. 23-24): closed form.  With the paper's
parameters (N = 1024 samples/row, S_s = 64 bits, P = 1024 processors,
S_r = 2048-bit DRAM rows, S_b = S_h = 64 bits) the 2^20-sample writeback
takes exactly 1,081,344 bus cycles.

Mesh side: the paper simulated a 1024-processor SystemC model and reports
3,526,620 cycles (t_p = 1) and 6,553,448 cycles (t_p = 4).  We reproduce
the mesh number two ways:

* *measured* — run our flit-level simulator at a configurable scale and
  report the multiplier directly (exact at that scale);
* *extrapolated* — a calibrated decomposition (sink service + congestion)
  evaluated at paper scale; see :func:`mesh_transpose_cycles_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..memory.controller import PscanMemoryController
from ..mesh.network import MeshConfig, MeshNetwork
from ..mesh.topology import MeshTopology
from ..mesh.workloads import make_transpose_gather
from ..util import constants
from ..util.errors import ConfigError

__all__ = [
    "pscan_transpose_cycles",
    "pscan_transactions",
    "transaction_cycles",
    "MeasuredTranspose",
    "measure_mesh_transpose",
    "mesh_transpose_cycles_model",
    "Table3Row",
    "table3",
]


def pscan_transactions(
    row_samples: int = constants.TRANSPOSE_N,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    processors: int = constants.TRANSPOSE_P,
    dram_row_bits: int = constants.DRAM_ROW_BITS,
) -> int:
    """Eq. 23: ``P_t = N*S_s*P / S_r``."""
    total_bits = row_samples * sample_bits * processors
    if total_bits % dram_row_bits != 0:
        raise ConfigError("total bits must be a whole number of DRAM rows")
    return total_bits // dram_row_bits


def transaction_cycles(
    dram_row_bits: int = constants.DRAM_ROW_BITS,
    header_bits: int = constants.TRANSPOSE_HEADER_BITS,
    bus_bits: int = constants.TRANSPOSE_BUS_BITS,
) -> int:
    """Eq. 24: ``t_t = (S_r + S_h) / S_b``."""
    if (dram_row_bits + header_bits) % bus_bits != 0:
        raise ConfigError("bus width must divide row + header bits")
    return (dram_row_bits + header_bits) // bus_bits


def pscan_transpose_cycles(
    row_samples: int = constants.TRANSPOSE_N,
    sample_bits: int = constants.FFT_SAMPLE_BITS,
    processors: int = constants.TRANSPOSE_P,
    dram_row_bits: int = constants.DRAM_ROW_BITS,
    header_bits: int = constants.TRANSPOSE_HEADER_BITS,
    bus_bits: int = constants.TRANSPOSE_BUS_BITS,
) -> int:
    """Optimal PSCAN writeback: ``P_t * t_t`` bus cycles.

    With the paper's defaults this is exactly 1,081,344 — the Section
    V-C1 number.  Delegates to :class:`PscanMemoryController` so the
    closed form and the controller model cannot drift apart.
    """
    controller = PscanMemoryController(
        row_bits=dram_row_bits, bus_bits=bus_bits, header_bits=header_bits
    )
    return controller.writeback_cycles(row_samples * sample_bits * processors)


@dataclass(frozen=True, slots=True)
class MeasuredTranspose:
    """Flit-simulator measurement of the mesh transpose gather."""

    processors: int
    row_samples: int
    reorder_cycles: int
    mesh_cycles: int
    pscan_cycles: int

    @property
    def multiplier(self) -> float:
        """Mesh / PSCAN completion-time ratio (Table III's last column)."""
        return self.mesh_cycles / self.pscan_cycles

    @property
    def elements(self) -> int:
        """Total matrix elements moved."""
        return self.processors * self.row_samples


#: :class:`MeasuredTranspose`'s field names in declaration order, the
#: order of its pickled state.
_MEASURED_FIELDS = tuple(f.name for f in fields(MeasuredTranspose))


def _measured_setstate(self: MeasuredTranspose, state: list[int]) -> None:
    # Unpickling a cache hit: the pickled state is the field values in
    # field order (``dataclasses``' own ``__getstate__``, so the bytes
    # stay the same), set without its per-call ``fields()``.
    for name, value in zip(_MEASURED_FIELDS, state):
        object.__setattr__(self, name, value)


# Assigned after decoration: on some Pythons ``dataclass(slots=True,
# frozen=True)`` replaces a ``__setstate__`` the class body defines.
MeasuredTranspose.__setstate__ = _measured_setstate


def measure_mesh_transpose(
    processors: int,
    row_samples: int,
    reorder_cycles: int = 1,
    header_flits: int = 1,
    engine: str = "reference",
) -> MeasuredTranspose:
    """Run the transpose gather on the flit simulator at the given scale.

    The PSCAN reference at the same scale is one bus cycle per element
    plus the per-DRAM-row header overhead — i.e. Eqs. 23-24 applied to the
    scaled matrix.

    ``engine`` selects the mesh backend: ``"reference"`` (default, the
    oracle the ``analytic`` fuzz kind compares against) or
    ``"compiled"`` — the schedule-compiled closed forms, which make
    paper-scale (1024-processor) measurement take milliseconds at every
    ``reorder_cycles`` but refuse configurations outside their domain
    (:class:`~repro.util.errors.EngineUnsupportedError`; at
    ``reorder_cycles=1``, ``header_flits`` other than 1).
    """
    if processors < 4:
        raise ConfigError("need >= 4 processors for a meaningful mesh")
    topo = MeshTopology.square(processors)
    net = MeshNetwork(
        topo,
        MeshConfig(engine=engine, memory_reorder_cycles=reorder_cycles),
    )
    net.add_memory_interface((0, 0))
    workload = make_transpose_gather(
        topo, row_samples, (0, 0), header_flits=header_flits
    )
    net.inject_all(workload.packets)
    stats = net.run()
    pscan = pscan_transpose_cycles(
        row_samples=row_samples, processors=processors
    )
    return MeasuredTranspose(
        processors=processors,
        row_samples=row_samples,
        reorder_cycles=reorder_cycles,
        mesh_cycles=stats.cycles,
        pscan_cycles=pscan,
    )


def mesh_transpose_cycles_model(
    processors: int = constants.TRANSPOSE_P,
    row_samples: int = constants.TRANSPOSE_N,
    reorder_cycles: int = 1,
    congestion_factor: float | None = None,
) -> float:
    """Calibrated paper-scale estimate of the mesh transpose time.

    Decomposition: the single memory interface serializes everything, so

        cycles ~ elements * (header_decode + t_p) * congestion

    where ``header_decode = 1`` (one header flit per element packet) and
    ``congestion`` covers network-side dilation near the hot sink.  The
    paper's own numbers imply congestion factors of 3,526,620 / (2^20 * 2)
    = 1.68 for t_p = 1 and 6,553,448 / (2^20 * 5) = 1.25 for t_p = 4 —
    the sink is busier at t_p = 4, so the network contributes relatively
    less.  Calibration against our simulator at reachable scales gives the
    same trend (see EXPERIMENTS.md); the default factors interpolate the
    paper's own values:

        congestion(t_p) = 1 + 0.68 / t_p ** 0.78

    which hits 1.68 at t_p = 1 and 1.23 at t_p = 4.
    """
    if congestion_factor is None:
        congestion_factor = 1.0 + 0.68 / (reorder_cycles ** 0.78)
    elements = processors * row_samples
    per_element = 1 + reorder_cycles
    return elements * per_element * congestion_factor


@dataclass(frozen=True, slots=True)
class Table3Row:
    """One row of Table III."""

    t_p: int
    mesh_cycles: float
    pscan_cycles: int
    paper_mesh_cycles: int

    @property
    def multiplier(self) -> float:
        """Mesh / PSCAN ratio (paper: 3.26x and 6.06x)."""
        return self.mesh_cycles / self.pscan_cycles

    @property
    def paper_multiplier(self) -> float:
        """The paper's reported ratio."""
        return self.paper_mesh_cycles / constants.PAPER_PSCAN_TRANSPOSE_CYCLES


def table3() -> list[Table3Row]:
    """Regenerate Table III at paper scale via the calibrated model."""
    pscan = pscan_transpose_cycles()
    paper = {
        1: constants.PAPER_MESH_TRANSPOSE_CYCLES_TP1,
        4: constants.PAPER_MESH_TRANSPOSE_CYCLES_TP4,
    }
    return [
        Table3Row(
            t_p=tp,
            mesh_cycles=mesh_transpose_cycles_model(reorder_cycles=tp),
            pscan_cycles=pscan,
            paper_mesh_cycles=paper[tp],
        )
        for tp in (1, 4)
    ]
