"""Simulator performance benchmarks (pytest-benchmark, multi-round).

Unlike the ablation benches (one-shot runs), these measure the
simulators' own throughput with proper statistical rounds — the numbers
a user sizing an experiment needs: kernel events/s, PSCAN words/s, mesh
flit-hops/s.
"""

from repro.core import PsyncConfig, PsyncMachine
from repro.mesh import MeshConfig, MeshNetwork, MeshTopology, make_transpose_gather
from repro.sim import Simulator


def test_kernel_event_throughput(benchmark):
    """Raw event scheduling + dispatch."""

    def run():
        sim = Simulator()
        for i in range(5_000):
            sim.timeout(float(i % 101))
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 5_000


def test_kernel_process_switching(benchmark):
    """Coroutine-process ping-pong through the kernel."""

    def run():
        sim = Simulator()
        hops = 0

        def proc():
            nonlocal hops
            for _ in range(500):
                yield sim.timeout(0.1)
                hops += 1

        for _ in range(4):
            sim.process(proc())
        sim.run()
        return hops

    assert benchmark(run) == 2_000


def test_pscan_gather_throughput(benchmark):
    """Words coalesced per second on the PSCAN executor."""

    def run():
        machine = PsyncMachine(PsyncConfig(processors=16))
        for pid in range(16):
            machine.local_memory[pid] = list(range(32))
        ex = machine.gather(machine.transpose_gather_schedule(row_length=32))
        return len(ex.arrivals)

    assert benchmark(run) == 512


def test_mesh_transpose_throughput(benchmark):
    """Flit-level mesh cycles simulated per second."""

    def run():
        topo = MeshTopology.square(16)
        net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=1))
        net.add_memory_interface((0, 0))
        for p in make_transpose_gather(topo, cols=16).packets:
            net.inject(p)
        return net.run().cycles

    cycles = benchmark(run)
    assert cycles > 256
