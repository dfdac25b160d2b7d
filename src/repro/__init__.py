"""repro — reproduction of the P-sync photonic architecture paper.

Whelihan et al., "P-sync: A Photonically Enabled Architecture for
Efficient Non-local Data Access" (IPDPS Workshops, 2013).

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel.
``repro.photonics``
    Photonic physical layer: waveguides, devices, WDM, open-loop clocking.
``repro.core``
    The paper's contribution: communication programs, SCA / SCA⁻¹,
    the PSCAN executor, and the P-sync machine.
``repro.mesh``
    The comparison substrate: a flit-level wormhole-routed mesh NoC.
``repro.memory``
    DRAM and memory-controller models.
``repro.energy``
    Electronic vs photonic energy models (Fig. 5).
``repro.fft``
    From-scratch radix-2 FFT, blocked (Model II) execution, distributed
    2D FFT over either simulated architecture.
``repro.faults``
    Fault injection (bit errors, drift, dead links, FIFO drops), CRC +
    retransmission recovery, and seeded resilience campaigns.
``repro.analysis``
    Closed-form performance models (Eqs. 4-24, Tables I-III, Fig. 11).
``repro.llmore``
    High-level mapping/phase simulator (Figs. 13-14).

Quick start
-----------
>>> from repro.core import PsyncMachine, PsyncConfig
>>> m = PsyncMachine(PsyncConfig(processors=4))
>>> for pid in range(4):
...     m.local_memory[pid] = [10 * pid + c for c in range(4)]
>>> ex = m.gather(m.transpose_gather_schedule(row_length=4))
>>> ex.is_gapless
True
>>> ex.stream[:4]   # column 0, coalesced in flight
[0, 10, 20, 30]
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analysis": ("analysis",),
    "core": ("core",),
    "energy": ("energy",),
    "faults": ("faults",),
    "fft": ("fft",),
    "llmore": ("llmore",),
    "memory": ("memory",),
    "mesh": ("mesh",),
    "photonics": ("photonics",),
    "sim": ("sim",),
    "util": ("util",),
})
__all__ += ["__version__"]
