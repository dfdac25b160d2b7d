"""Simulator performance benchmarks and the mesh engine's perf gates.

Unlike the ablation benches (one-shot runs), the throughput benches
measure the simulators' own speed with proper statistical rounds — the
numbers a user sizing an experiment needs: kernel events/s, PSCAN
words/s, mesh flit-hops/s.

The three gates time ``MeshNetwork.run()`` on the t_p = 4 transpose
gather (set-up untimed) and assert a bound on the median:

* the compiled engine over the reference, as alternating pairs;
* the compiled engine's 1024-processor run, which no stepping engine
  finishes in budget, as alternating pairs against the reference
  engine's 16-processor run;
* a fully disabled observer on the reference engine, as alternating
  pairs against the same run with no observer.
"""

import statistics
import time

from repro.core import PsyncConfig, PsyncMachine
from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    make_transpose_gather,
    mesh_signature,
)
from repro.obs import ObsConfig, ObsSession
from repro.sim import Simulator

from conftest import alternating_pairs


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


def _timed_transpose(engine, processors, cols, observer=None):
    """Wall time of ``run()`` on the t_p = 4 transpose, and its signature."""
    topo = MeshTopology.square(processors)
    net = MeshNetwork(topo, MeshConfig(engine=engine, memory_reorder_cycles=4))
    if observer is not None:
        net.attach_observer(observer)
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topo, cols=cols).packets)
    t0 = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - t0
    # ``sunk``, the last field, is documented as empty on compiled runs.
    return wall, mesh_signature(net, stats)[:-1]


def test_compiled_over_reference_speedup():
    ratios = alternating_pairs(
        "Gate: compiled over reference, 64-processor transpose (cols 8)",
        lambda: _timed_transpose("reference", 64, 8),
        lambda: _timed_transpose("compiled", 64, 8),
        pairs=7,
    )
    # 0.7 x the 1,647x recorded when the compiled engine landed.
    assert statistics.median(ratios) >= 1150


def _compiled_1024_with_check():
    """The compiled 1024-processor run's wall time, and the compiled
    signature of the 16-processor transpose its pair's reference side
    runs."""
    wall, sig = _timed_transpose("compiled", 1024, 32)
    assert sig[0] == 163839
    return wall, _timed_transpose("compiled", 16, 8)[1]


def test_compiled_1024_run_time():
    # The reference engine needs minutes for the 1024-processor run, so
    # each pair's reference side is the 16-processor transpose: it
    # calibrates the host, and the compiled side evaluates that shape
    # too, untimed, so every pair still checks compiled == reference.
    ratios = alternating_pairs(
        "Gate: reference 16-processor over compiled 1024-processor run()",
        lambda: _timed_transpose("reference", 16, 8),
        _compiled_1024_with_check,
        pairs=25,
    )
    # 0.7 x 25.3, the median over six runs when the gate became a ratio
    # (run medians 21.4-26.4; the compiled run took 0.6-0.7 ms).
    assert statistics.median(ratios) >= 17.7


def test_disabled_obs_overhead():
    # A 16-processor run has the fewest flit moves per cycle hook, so the
    # hooks are the largest share of it.  Runs of this size differ by
    # +-10% from pair to pair on a shared host; 128 pairs of 25 ms keep
    # the median within about 1%, where 16 pairs of the 64-processor run
    # spread it over 0.95-1.12.
    ratios = alternating_pairs(
        "Gate: disabled observer on the reference 16-processor transpose",
        lambda: _timed_transpose(
            "reference", 16, 8, ObsSession(ObsConfig.disabled())
        ),
        lambda: _timed_transpose("reference", 16, 8),
        pairs=128,
    )
    # The observability contract: carrying disabled hooks costs < 5%.
    assert statistics.median(ratios) - 1 <= 0.05
