"""Differential tests: ``engine="compiled"`` vs the event/reference paths.

The compiled engine lowers a deterministic schedule straight to closed
form — vectorized timeline evaluation for SCA (:mod:`repro.core.compiled`)
and per-packet arithmetic for the mesh transpose gather
(:class:`repro.mesh.compiled_network.CompiledMeshNetwork`).  Its contract
is *bit-identical observables inside a documented domain, loud refusal
outside it*:

* SCA: identical :class:`~repro.core.pscan.ScaExecution` records — float
  timestamps, arrival order, delivered payloads, epoch continuity across
  back-to-back transactions — on the same schedule grids the fast-engine
  suite uses.
* Mesh: identical :class:`~repro.mesh.network.MeshStats` (the per-flit
  ``sunk`` log is the one documented divergence, so signatures drop it).
* Outside the domain: a structured
  :class:`~repro.util.errors.EngineUnsupportedError` naming the refused
  ``feature`` — never a silent fallback, never a silently wrong number.

Trace comparisons use a canonical (timestamp-major) sort: the waveguide
geometry makes flight times exact multiples of the bus period, so
coincident instants' relative order is event-queue insertion noise, not
part of the compiled contract.  The sorted comparison still pins the
exact multiset of instants at every timestamp.
"""

import random

import pytest

from repro.core import MultiBusPscan, Pscan, PsyncConfig, PsyncMachine
from repro.core.schedule import (
    GlobalSchedule,
    block_interleave_order,
    control_then_data_order,
    gather_schedule,
    round_robin_order,
    scatter_schedule,
    transpose_order,
)
from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    mesh_signature,
    packet_id_base,
)
from repro.mesh.compiled_network import CompiledMeshNetwork
from repro.mesh.flit import Packet
from repro.mesh.workloads import make_transpose_gather, make_uniform_random
from repro.obs import ObsConfig, ObsSession, normalize_events
from repro.photonics import Waveguide
from repro.sim import Simulator
from repro.util.errors import (
    ConfigError,
    EngineUnsupportedError,
    NetworkError,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_PITCH_MM = 10.0


def _pscan(nodes, engine, *, session=None):
    """A Pscan with nodes at (i+1)*pitch on a pitch-padded waveguide."""
    length = (nodes + 1) * _PITCH_MM + 10.0
    ps = Pscan(
        Simulator(),
        Waveguide(length_mm=length),
        {i: (i + 1) * _PITCH_MM for i in range(nodes)},
        engine=engine,
    )
    if session is not None:
        ps.attach_observer(session)
    return ps, length


def _orders(nodes, words):
    """The schedule families both engines must agree on."""
    shuffled = transpose_order(nodes, words)
    random.Random(nodes * 31 + words).shuffle(shuffled)
    return {
        "transpose": transpose_order(nodes, words),
        "round_robin": round_robin_order(nodes, words),
        "model1": round_robin_order(nodes, words, block=words),
        "block_interleave": block_interleave_order(nodes, words),
        "control_then_data": control_then_data_order(nodes, 1, words),
        "permuted": shuffled,
    }


def _sca_signature(ps, ex):
    """Everything the event path observably produces, bit-for-bit."""
    return (
        ex.kind,
        tuple(
            (a.time_ns, a.cycle, a.source_node, a.word_index, a.value)
            for a in ex.arrivals
        ),
        tuple(sorted((n, tuple(ts)) for n, ts in ex.modulation_times.items())),
        ex.start_ns,
        ex.end_ns,
        ex.period_ns,
        tuple(sorted((n, tuple(ws)) for n, ws in ex.delivered.items())),
        ps.total_bits_moved,
        ps.sim.now,
    )


def _run_sca(engine, op, order, nodes, words, *, transactions=1, session=None):
    """One or more back-to-back transactions; returns per-txn signatures."""
    ps, length = _pscan(nodes, engine, session=session)
    sigs = []
    for rep in range(transactions):
        if op == "gather":
            data = {
                n: [complex(n, w + 7 * rep) for w in range(words + 1)]
                for n in range(nodes)
            }
            ex = ps.execute_gather(
                gather_schedule(order), data, receiver_mm=length
            )
        else:
            burst = [complex(rep, i) for i in range(len(order))]
            ex = ps.execute_scatter(
                scatter_schedule(order), burst, source_mm=0.0
            )
        sigs.append(_sca_signature(ps, ex))
    return tuple(sigs)


def _canon_sca_trace(events):
    """Timestamp-major canonical order (see module docstring)."""
    return sorted(
        events,
        key=lambda ev: (
            ev.get("ts", 0.0),
            ev.get("name", ""),
            ev.get("track", ""),
            sorted((ev.get("args") or {}).items()),
        ),
    )


def _mesh_signature(net, stats):
    """The shared mesh signature minus ``sunk`` (documented as
    unpopulated by the compiled engine)."""
    return mesh_signature(net, stats)[:-1]


def _mesh_net(engine, processors, *, reorder=4):
    topology = MeshTopology.square(processors)
    net = MeshNetwork(
        topology, MeshConfig(engine=engine, memory_reorder_cycles=reorder)
    )
    net.add_memory_interface((0, 0))
    return topology, net


def _run_mesh_transpose(
    engine, processors, cols, *, reorder=4, epp=1, hf=1, max_cycles=None
):
    topology, net = _mesh_net(engine, processors, reorder=reorder)
    workload = make_transpose_gather(
        topology, cols=cols, elements_per_packet=epp, header_flits=hf
    )
    for p in workload.packets:
        net.inject(p)
    return net, _mesh_signature(net, net.run(max_cycles))


# ---------------------------------------------------------------------------
# SCA: compiled vs event, bit-for-bit
# ---------------------------------------------------------------------------


class TestCompiledScaEquivalence:
    @pytest.mark.parametrize("nodes,words", [(2, 1), (4, 3), (8, 5)])
    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_all_families_identical(self, op, nodes, words):
        for family, order in _orders(nodes, words).items():
            event = _run_sca("event", op, order, nodes, words)
            compiled = _run_sca("compiled", op, order, nodes, words)
            assert compiled == event, f"{op}/{family} diverged"

    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_back_to_back_transactions_keep_epoch_continuity(self, op):
        # A second transaction's epoch derives from sim.now after the
        # first; the compiled clock advance must leave it identical.
        order = transpose_order(4, 3)
        event = _run_sca("event", op, order, 4, 3, transactions=3)
        compiled = _run_sca("compiled", op, order, 4, 3, transactions=3)
        assert compiled == event

    def test_single_node_single_word(self):
        order = [(0, 0)]
        for op in ("gather", "scatter"):
            assert _run_sca("compiled", op, order, 1, 1) == _run_sca(
                "event", op, order, 1, 1
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            _pscan(4, "warp")


# ---------------------------------------------------------------------------
# SCA: PsyncMachine models and multi-bus striping
# ---------------------------------------------------------------------------


def _machine(engine, *, processors=4):
    return PsyncMachine(PsyncConfig(processors=processors, engine=engine))


class TestCompiledMachineEquivalence:
    @pytest.mark.parametrize(
        "build",
        [
            lambda m: m.model1_scatter_schedule(4),
            lambda m: m.model2_scatter_schedule(4, 2),
            lambda m: m.model2_scatter_schedule(4, 4),
        ],
        ids=["model1", "model2-k2", "model2-k4"],
    )
    def test_scatter_models_fill_identical_memories(self, build):
        results = {}
        for engine in ("event", "compiled"):
            m = _machine(engine)
            schedule = build(m)
            burst = [complex(0, i) for i in range(schedule.total_cycles)]
            ex = m.scatter(schedule, burst)
            results[engine] = (
                _sca_signature(m.pscan, ex),
                m.local_memory,
            )
        assert results["compiled"] == results["event"]

    def test_transpose_gather_identical(self):
        results = {}
        for engine in ("event", "compiled"):
            m = _machine(engine)
            for pid in m.local_memory:
                m.local_memory[pid] = [complex(pid, w) for w in range(3)]
            ex = m.gather(m.transpose_gather_schedule(3))
            results[engine] = _sca_signature(m.pscan, ex)
        assert results["compiled"] == results["event"]

    def test_scatter_then_gather_round_trip(self):
        # The full Fig.-6 cycle on one machine: epoch continuity across
        # *different* operation kinds.
        results = {}
        for engine in ("event", "compiled"):
            m = _machine(engine)
            sched = m.model2_scatter_schedule(4, 2)
            sx = m.scatter(sched, [complex(0, i) for i in range(sched.total_cycles)])
            gx = m.gather(m.transpose_gather_schedule(4))
            results[engine] = (
                _sca_signature(m.pscan, sx)[:-2],  # bits/now covered below
                _sca_signature(m.pscan, gx),
                m.local_memory,
            )
        assert results["compiled"] == results["event"]

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            PsyncConfig(engine="warp")

    @pytest.mark.parametrize("waveguides", [1, 2, 3])
    def test_multibus_striped_gather_identical(self, waveguides):
        nodes, words = 4, 3
        length = (nodes + 1) * _PITCH_MM + 10.0
        positions = {i: (i + 1) * _PITCH_MM for i in range(nodes)}
        data = {n: [complex(n, w) for w in range(words)] for n in range(nodes)}
        schedule = gather_schedule(transpose_order(nodes, words))
        results = {}
        for engine in ("event", "compiled"):
            bus = MultiBusPscan(waveguides, length, positions, engine=engine)
            ex = bus.execute_gather(schedule, data, receiver_mm=length)
            results[engine] = (
                ex.stream,
                ex.duration_ns,
                ex.all_gapless,
                ex.total_cycles,
                [
                    tuple(
                        (a.time_ns, a.cycle, a.source_node, a.word_index, a.value)
                        for a in sub.arrivals
                    )
                    for sub in ex.per_bus
                ],
            )
        assert results["compiled"] == results["event"]


# ---------------------------------------------------------------------------
# SCA: refusal contract
# ---------------------------------------------------------------------------


class TestScaRefusals:
    def test_fault_hook_refused(self):
        ps, length = _pscan(4, "compiled")
        ps.fault_hook = lambda t, node, word, value: value
        with pytest.raises(EngineUnsupportedError) as exc:
            ps.execute_gather(
                gather_schedule(transpose_order(4, 2)),
                {n: [0, 0] for n in range(4)},
                receiver_mm=length,
            )
        assert exc.value.engine == "compiled"
        assert exc.value.feature == "fault_hook"

    def test_event_engine_still_accepts_fault_hook(self):
        # The refusal is a compiled-engine property, not a general one.
        ps, length = _pscan(2, "event")
        ps.fault_hook = lambda t, node, word, value: value
        ex = ps.execute_gather(
            gather_schedule(transpose_order(2, 1)),
            {n: [complex(n)] for n in range(2)},
            receiver_mm=length,
        )
        assert len(ex.arrivals) == 2


# ---------------------------------------------------------------------------
# Mesh: compiled vs reference, full MeshStats
# ---------------------------------------------------------------------------


class TestCompiledMeshEquivalence:
    @pytest.mark.parametrize("processors", [4, 16])
    @pytest.mark.parametrize("cols", [1, 2, 4])
    @pytest.mark.parametrize("reorder", [2, 4])
    def test_transpose_grids_identical(self, processors, cols, reorder):
        _, ref = _run_mesh_transpose(
            "reference", processors, cols, reorder=reorder
        )
        _, comp = _run_mesh_transpose(
            "compiled", processors, cols, reorder=reorder
        )
        assert comp == ref

    @pytest.mark.parametrize("epp,hf", [(2, 1), (1, 2), (2, 2)])
    def test_flit_shapes_identical(self, epp, hf):
        _, ref = _run_mesh_transpose("reference", 16, 4, epp=epp, hf=hf)
        _, comp = _run_mesh_transpose("compiled", 16, 4, epp=epp, hf=hf)
        assert comp == ref

    def test_larger_mesh_identical(self):
        _, ref = _run_mesh_transpose("reference", 64, 4)
        _, comp = _run_mesh_transpose("compiled", 64, 4)
        assert comp == ref

    @pytest.mark.parametrize("engine,processors,cols,cycles", [
        ("reference", 64, 8, 2559),
        ("compiled", 64, 8, 2559),
        ("compiled", 1024, 32, 163839),
    ])
    def test_bench_transpose_cycles(self, engine, processors, cols, cycles):
        # The transposes benchmarks/bench_kernel.py times at t_p = 4: one
        # cycle under the sink floor of 5 cycles per element.
        _, sig = _run_mesh_transpose(engine, processors, cols)
        assert sig[0] == cycles == 5 * processors * cols - 1

    def test_compiled_sunk_documented_empty(self):
        net, _ = _run_mesh_transpose("compiled", 16, 2)
        assert net.sunk == []

    def test_dispatch_returns_compiled_class(self):
        net = MeshNetwork(
            MeshTopology.square(16), MeshConfig(engine="compiled")
        )
        assert isinstance(net, CompiledMeshNetwork)
        assert isinstance(net, MeshNetwork)

    def test_reference_dispatch_is_plain(self):
        net = MeshNetwork(MeshTopology.square(16), MeshConfig())
        assert type(net) is MeshNetwork

    def test_empty_run_matches_reference(self):
        sigs = []
        for engine in ("reference", "compiled"):
            _, net = _mesh_net(engine, 16)
            assert packet_id_base(net) == 0
            sigs.append(_mesh_signature(net, net.run()))
        assert sigs[0] == sigs[1]

    def test_max_cycles_boundary_parity(self):
        # Both engines must raise on max_cycles one short of the finish
        # cycle and succeed at exactly the finish cycle.
        _, ref = _run_mesh_transpose("reference", 16, 2)
        finish = ref[0]
        for engine in ("reference", "compiled"):
            with pytest.raises(NetworkError):
                _run_mesh_transpose(engine, 16, 2, max_cycles=finish - 1)
            _, sig = _run_mesh_transpose(engine, 16, 2, max_cycles=finish)
            assert sig == ref

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            MeshConfig(engine="warp")


def _run_rect_transpose(engine, width, height, cols):
    """The r = 1, 2-flit transpose gather to (0, 0) on a ``width x height``
    mesh."""
    topology = MeshTopology(width=width, height=height)
    net = MeshNetwork(
        topology, MeshConfig(engine=engine, memory_reorder_cycles=1)
    )
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topology, cols=cols).packets)
    return _mesh_signature(net, net.run())


class TestReorderOneEquivalence:
    """The network-bound r = 1 law against the reference engine, flit
    for flit: 2-flit packets, sink (0, 0), meshes at least 2x2."""

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("cols", [1, 2, 5, 8])
    def test_squares_identical(self, k, cols):
        ref = _run_rect_transpose("reference", k, k, cols)
        assert _run_rect_transpose("compiled", k, k, cols) == ref
        # The cycle law for a k x k mesh, N packets per source.
        assert ref[0] == cols * (3 * k * k - 2 * k + 1) + 1

    @pytest.mark.parametrize(
        "width,height,cols", [(2, 5, 3), (5, 2, 3), (3, 7, 2), (7, 3, 2),
                              (4, 6, 4), (8, 2, 1)]
    )
    def test_rectangles_identical(self, width, height, cols):
        ref = _run_rect_transpose("reference", width, height, cols)
        assert _run_rect_transpose("compiled", width, height, cols) == ref
        assert ref[0] == cols * (3 * width * height - 2 * width + 1) + 1

    def test_law_written_out(self):
        # 4x4, N = 2: gaps of 2 for the first 2 * (2*4 - 1) = 14, then 3;
        # the sink is busy one cycle per flit.
        sig = _run_rect_transpose("compiled", 4, 4, 2)
        tails = sig[4]
        gaps = [b - a for a, b in zip(tails, tails[1:])]
        assert tails[0] == 3
        assert gaps == [2] * 14 + [3] * (32 - 1 - 14)
        assert sig[5] == {(0, 0): 2 * 32}


@pytest.mark.slow
def test_paper_scale_1024_processor_transpose():
    """The Table III configuration the flit engines cannot reach.

    P = 1024 (32x32), 32-sample rows in 2-element packets: 16384 packets
    through one column-0 memory interface at t_p = 4.  The compiled
    engine finishes in milliseconds; correctness rides on the
    differential pins above (the closed form has no scale-dependent
    terms).
    """
    net, sig = _run_mesh_transpose("compiled", 1024, 32, epp=2, hf=1)
    cycles, packets, flits_delivered, *_ = sig
    assert packets == 1024 * 16
    # nf = 3, s = 1 + 2*4 = 9: finish = 2 + (n-1)*9 + 1 + 4 + 1
    assert cycles == 2 + (16384 - 1) * 9 + 1 + 4 + 1
    assert flits_delivered == 16384 * 2
    assert net.stats.memory_busy_cycles[(0, 0)] == 16384 * 9


def test_oracle_at_scale_points_and_comparison():
    """The nightly oracle script's grid, and its comparison at small scale."""
    from tests.oracle_at_scale import points, same_as_reference

    grid = points()
    assert len(grid) == len(set(grid)) == 12 + 4 + 15 * 16 + 42 * 3
    assert {(w, h) for w, h, _, r in grid if r > 1} == {(16, 16), (32, 32)}
    assert (32, 32, 2, 1) in grid
    assert {(w, n) for w, h, n, r in grid
            if r == 1 and w == h < 32} == {
        (k, n) for k in range(2, 17) for n in range(1, 17)
    }
    assert {(w, h, n) for w, h, n, _ in grid if w != h} == {
        (w, h, n) for w in range(2, 9) for h in range(2, 9) if w != h
        for n in (1, 2, 4)
    }
    assert same_as_reference(4, 4, 4, 2)
    assert same_as_reference(4, 4, 4, 1)
    assert same_as_reference(3, 5, 2, 1)


# ---------------------------------------------------------------------------
# Mesh: refusal contract
# ---------------------------------------------------------------------------


def _refusal(feature):
    """Assert the compiled mesh refuses with exactly ``feature``."""

    def check(run):
        with pytest.raises(EngineUnsupportedError) as exc:
            run()
        assert exc.value.engine == "compiled"
        assert exc.value.feature == feature

    return check


def _reorder_one_refusal(width, height, sink=(0, 0), *, epp=1, hf=1):
    """Assert an r = 1 gather outside the law's domain is refused as
    ``reorder_cycles``, with a reason naming what is missing."""
    topology = MeshTopology(width=width, height=height)
    net = MeshNetwork(
        topology, MeshConfig(engine="compiled", memory_reorder_cycles=1)
    )
    net.add_memory_interface(sink)
    net.inject_all(
        make_transpose_gather(
            topology, 2, sink, elements_per_packet=epp, header_flits=hf
        ).packets
    )
    with pytest.raises(EngineUnsupportedError) as exc:
        net.run()
    assert (exc.value.engine, exc.value.feature) == (
        "compiled", "reorder_cycles"
    )
    return exc.value.reason


class TestMeshRefusals:
    def test_reorder_one_refused(self):
        # In domain at r = 1 only with 2-flit packets: a second header
        # flit makes 3, which refuse.
        assert "flit counts [3]" in _reorder_one_refusal(4, 4, hf=2)

    def test_reorder_one_one_wide_refused(self):
        assert "1x4 mesh" in _reorder_one_refusal(1, 4)

    def test_reorder_one_one_tall_refused(self):
        assert "4x1 mesh" in _reorder_one_refusal(4, 1)

    def test_reorder_one_two_elements_per_packet_refused(self):
        assert "flit counts [3]" in _reorder_one_refusal(4, 4, epp=2)

    def test_reorder_one_sink_off_origin_refused(self):
        # Column 0 is in the r >= 2 domain, but not in the r = 1 law's.
        assert "(0, 1)" in _reorder_one_refusal(4, 4, sink=(0, 1))

    def test_fail_link_refused(self):
        _, net = _mesh_net("compiled", 16)
        _refusal("fault_injection")(lambda: net.fail_link((1, 0), (0, 0)))

    def test_fail_router_refused(self):
        _, net = _mesh_net("compiled", 16)
        _refusal("fault_injection")(lambda: net.fail_router((1, 1)))

    def test_run_resilient_refused(self):
        _, net = _mesh_net("compiled", 16)
        _refusal("run_resilient")(net.run_resilient)

    def test_step_refused(self):
        _, net = _mesh_net("compiled", 16)
        _refusal("step")(net.step)

    def test_non_default_microarchitecture_refused(self):
        topology = MeshTopology.square(16)
        net = MeshNetwork(
            topology,
            MeshConfig(
                engine="compiled", memory_reorder_cycles=4, buffer_flits=4
            ),
        )
        net.add_memory_interface((0, 0))
        for p in make_transpose_gather(topology, cols=2).packets:
            net.inject(p)
        _refusal("microarchitecture")(net.run)

    def test_random_traffic_refused(self):
        # Uniform-random destinations break the single-sink predicate.
        topology, net = _mesh_net("compiled", 16)
        for p in make_uniform_random(topology, packets_per_node=2, seed=7):
            net.inject(p)
        _refusal("multiple_sinks")(net.run)

    def test_unregistered_sink_refused(self):
        topology = MeshTopology.square(16)
        net = MeshNetwork(
            topology, MeshConfig(engine="compiled", memory_reorder_cycles=4)
        )
        for p in make_transpose_gather(topology, cols=2).packets:
            net.inject(p)
        _refusal("processor_sink")(net.run)

    def test_off_column_sink_refused(self):
        topology = MeshTopology.square(16)
        net = MeshNetwork(
            topology, MeshConfig(engine="compiled", memory_reorder_cycles=4)
        )
        net.add_memory_interface((1, 0))
        for node in topology.nodes():
            net.inject(Packet(source=node, dest=(1, 0), payloads=[0, 1]))
        _refusal("sink_column")(net.run)

    def test_mixed_flit_counts_refused(self):
        topology, net = _mesh_net("compiled", 16)
        for i, node in enumerate(topology.nodes()):
            net.inject(
                Packet(source=node, dest=(0, 0), payloads=[0] * (1 + i % 2))
            )
        _refusal("flit_shape")(net.run)

    def test_staggered_injection_refused(self):
        topology, net = _mesh_net("compiled", 16)
        for node in topology.nodes():
            net.inject(
                Packet(source=node, dest=(0, 0), payloads=[0], created_cycle=3)
            )
        _refusal("staggered_injection")(net.run)

    def test_nonuniform_traffic_refused(self):
        topology, net = _mesh_net("compiled", 16)
        for i, node in enumerate(topology.nodes()):
            for _ in range(1 + (i == 0)):
                net.inject(Packet(source=node, dest=(0, 0), payloads=[0]))
        _refusal("traffic_shape")(net.run)


# ---------------------------------------------------------------------------
# Mesh: intake parity (whole packets and transpose shapes)
# ---------------------------------------------------------------------------


def _observed_transpose(engine):
    """The cols=2 transpose, observed and injected but not yet run."""
    session = ObsSession(ObsConfig())
    topology, net = _mesh_net(engine, 16)
    net.attach_observer(session)
    for p in make_transpose_gather(topology, cols=2).packets:
        net.inject(p)
    return session, net


def _inject_events(session, net):
    """``mesh_inject`` trace events with packet ids taken from the base."""
    base = packet_id_base(net)
    events = normalize_events(session.tracer.events, categories=("mesh",))
    out = []
    for ev in events:
        if ev["name"] == "inject":
            args = dict(ev["args"], packet=ev["args"]["packet"] - base)
            out.append(dict(ev, args=args))
    return out


def _intake(net, workload, how):
    """Inject ``workload`` whole (``inject_all``) or packet by packet."""
    if how == "all":
        net.inject_all(workload.packets)
    else:
        for p in workload.packets:
            net.inject(p)


def _intake_state(net):
    """Every piece of intake bookkeeping, ids taken from the base."""
    base = packet_id_base(net)
    return (
        [(pid - base, meta) for pid, meta in net._packet_meta.items()],
        net._pending_flits,
        list(net._per_source.items()),
        net._dests,
        net._flit_counts,
        net._staggered,
        [list(q) for q in net._inject.values()],
    )


class TestMeshIntakeParity:
    """Compiled ``inject`` and ``inject_all`` keep every piece of
    bookkeeping others read."""

    def test_inject_events_and_counter_identical(self):
        runs = {}
        for engine in ("reference", "compiled"):
            session, net = _observed_transpose(engine)
            counter = session.metrics.get("mesh_packets_injected")
            flits = session.metrics.get("mesh_flits_injected")
            runs[engine] = (
                _inject_events(session, net),
                counter.value,
                flits.value,
            )
        assert runs["reference"][0]  # the transpose does inject
        assert runs["compiled"] == runs["reference"]

    def test_packet_meta_identical(self):
        metas = {}
        for engine in ("reference", "compiled"):
            _, net = _observed_transpose(engine)
            base = packet_id_base(net)
            metas[engine] = {
                pid - base: meta for pid, meta in net._packet_meta.items()
            }
        assert metas["reference"]
        assert metas["compiled"] == metas["reference"]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_traffic_remaining_tracks_the_run(self, engine):
        _, net = _observed_transpose(engine)
        assert net.traffic_remaining
        net.run()
        assert not net.traffic_remaining

    @pytest.mark.parametrize(
        "source,dest", [((4, 0), (0, 0)), ((0, 0), (0, -1))],
        ids=["off_mesh_source", "off_mesh_dest"],
    )
    def test_off_mesh_endpoint_same_config_error(self, source, dest):
        messages = {}
        for engine in ("reference", "compiled"):
            _, net = _mesh_net(engine, 16)
            with pytest.raises(ConfigError) as exc:
                net.inject(Packet(source=source, dest=dest, payloads=[0]))
            messages[engine] = str(exc.value)
            assert net._packet_meta == {}
            assert not net.traffic_remaining
        assert messages["compiled"] == messages["reference"]

    def test_compiled_never_builds_flits(self, monkeypatch):
        _, ref = _run_mesh_transpose("reference", 16, 2)

        def no_flits(self):
            raise AssertionError("compiled engine materialized flits")

        monkeypatch.setattr(Packet, "flits", no_flits)
        net, comp = _run_mesh_transpose("compiled", 16, 2)
        assert comp == ref
        assert not any(net._inject.values())

    # -- inject_all: an unread transpose shape folds to the same state --

    @pytest.mark.parametrize(
        "processors,cols,epp,hf,reorder",
        [(4, 1, 1, 1, 2), (4, 4, 2, 1, 4), (16, 2, 1, 2, 4), (16, 8, 4, 1, 2),
         (64, 4, 1, 1, 8), (64, 8, 8, 2, 4)],
    )
    def test_fold_matches_per_packet(self, processors, cols, epp, hf, reorder):
        runs = {}
        for how in ("all", "each"):
            topology, net = _mesh_net("compiled", processors, reorder=reorder)
            wl = make_transpose_gather(
                topology, cols=cols, elements_per_packet=epp, header_flits=hf
            )
            _intake(net, wl, how)
            assert wl.packets.read is (how == "each")
            state = _intake_state(net)
            assert list(net._packet_meta) == [p.packet_id for p in wl.packets]
            assert net.traffic_remaining
            runs[how] = (state, _mesh_signature(net, net.run()))
            assert not net.traffic_remaining
        assert runs["all"] == runs["each"]
        _, ref = _run_mesh_transpose(
            "reference", processors, cols, reorder=reorder, epp=epp, hf=hf
        )
        assert runs["all"][1] == ref

    def test_two_shapes_accumulate(self):
        states = {}
        for how in ("all", "each"):
            topology, net = _mesh_net("compiled", 16)
            for cols in (2, 4):
                _intake(net, make_transpose_gather(topology, cols=cols), how)
            states[how] = _intake_state(net)
        assert states["all"] == states["each"]

    def test_fold_builds_no_packet(self, monkeypatch):
        _, ref = _run_mesh_transpose("reference", 16, 4)

        def no_packets(self, *args, **kwargs):
            raise AssertionError("the fold built a Packet")

        monkeypatch.setattr(Packet, "__init__", no_packets)
        topology, net = _mesh_net("compiled", 16)
        net.inject_all(make_transpose_gather(topology, cols=4).packets)
        assert _mesh_signature(net, net.run()) == ref

    @pytest.mark.parametrize("how", ["all", "each"])
    def test_sink_column_refused(self, how):
        topology = MeshTopology.square(16)
        net = MeshNetwork(
            topology, MeshConfig(engine="compiled", memory_reorder_cycles=4)
        )
        net.add_memory_interface((1, 0))
        _intake(net, make_transpose_gather(topology, 2, (1, 0)), how)
        _refusal("sink_column")(net.run)

    @pytest.mark.parametrize("how", ["all", "each"])
    def test_reorder_one_refused(self, how):
        topology, net = _mesh_net("compiled", 16, reorder=1)
        workload = make_transpose_gather(topology, cols=2, header_flits=2)
        _intake(net, workload, how)
        _refusal("reorder_cycles")(net.run)

    @pytest.mark.parametrize("how", ["all", "each"])
    def test_reorder_one_matches_reference(self, how):
        ref = _run_mesh_transpose("reference", 16, 2, reorder=1)[1]
        topology, net = _mesh_net("compiled", 16, reorder=1)
        _intake(net, make_transpose_gather(topology, cols=2), how)
        assert _mesh_signature(net, net.run()) == ref

    def test_foreign_topology_same_config_error(self):
        # A 64-node workload's sources run off a 16-node network: both
        # intakes raise at the same packet and keep the same prefix.
        outcomes = {}
        for how in ("all", "each"):
            _, net = _mesh_net("compiled", 16)
            wl = make_transpose_gather(MeshTopology.square(64), cols=2)
            with pytest.raises(ConfigError) as exc:
                _intake(net, wl, how)
            outcomes[how] = (str(exc.value), _intake_state(net))
        assert outcomes["all"] == outcomes["each"]
        assert outcomes["all"][1][0]  # the on-mesh prefix was injected

    def test_observer_sees_the_same_events(self):
        runs = {}
        for how in ("all", "each"):
            session = ObsSession(ObsConfig())
            topology, net = _mesh_net("compiled", 16)
            net.attach_observer(session)
            _intake(net, make_transpose_gather(topology, cols=2), how)
            runs[how] = (
                _inject_events(session, net),
                session.metrics.get("mesh_packets_injected").value,
                session.metrics.get("mesh_flits_injected").value,
                _intake_state(net),
            )
        assert runs["all"][0]
        assert runs["all"] == runs["each"]

    @pytest.mark.parametrize("made", ["in_intake_order", "reversed"])
    def test_mixed_intake_matches_reference(self, made):
        # Per-packet, then a fold, then per-packet again; "reversed"
        # makes the workloads in the opposite order, so each intake
        # lands below every id seen so far.
        runs = {}
        for engine in ("reference", "compiled"):
            topology, net = _mesh_net(engine, 16)
            cols = [2, 4, 1]
            order = range(3) if made == "in_intake_order" else range(2, -1, -1)
            wls = {i: make_transpose_gather(topology, cols=cols[i]) for i in order}
            first = min(wl.packets.ids.start for wl in wls.values())
            _intake(net, wls[0], "each")
            _intake(net, wls[1], "all")
            _intake(net, wls[2], "each")
            assert wls[1].packets.read is (engine == "reference")
            base = packet_id_base(net)
            runs[engine] = (
                [(pid - base, meta) for pid, meta in net._packet_meta.items()],
                base - first,
                _mesh_signature(net, net.run()),
            )
        assert runs["compiled"] == runs["reference"]

    def test_heat_map_not_shared_between_runs(self):
        # The heat map comes from a per-topology table; each run must
        # still get its own dict.
        _, ref = _run_mesh_transpose("reference", 16, 2)
        for _ in range(2):
            topology, net = _mesh_net("compiled", 16)
            net.inject_all(make_transpose_gather(topology, cols=2).packets)
            stats = net.run()
            assert _mesh_signature(net, stats) == ref
            stats.flits_through_node[(0, 0)] += 1
            stats.flits_through_node[(9, 9)] = 1

    def test_read_then_mutated_packets_are_not_folded(self):
        topology, net = _mesh_net("compiled", 16)
        wl = make_transpose_gather(topology, cols=2)
        for p in wl.packets:
            p.created_cycle = 3
        net.inject_all(wl.packets)
        _refusal("staggered_injection")(net.run)


# ---------------------------------------------------------------------------
# Observability parity
# ---------------------------------------------------------------------------


def _sca_obs_run(engine, op):
    session = ObsSession(ObsConfig())
    order = transpose_order(4, 3)
    _run_sca(engine, op, order, 4, 3, transactions=2, session=session)
    trace = _canon_sca_trace(
        normalize_events(session.tracer.events, categories=("sca",))
    )
    metrics = {
        name: sorted(
            (labels, m.value)
            for (n, labels), m in session.metrics._metrics.items()
            if n == name
        )
        for name in session.metrics.names()
    }
    return trace, metrics


class TestObservabilityParity:
    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_sca_trace_and_metrics_identical(self, op):
        assert _sca_obs_run("compiled", op) == _sca_obs_run("event", op)

    def test_mesh_run_summary_metrics_identical(self):
        # Per-packet deliver events are a documented compiled-engine
        # omission (sink-arbitration noise decides packet attribution);
        # the run-level summary metrics exported at mesh_run_end must be
        # identical, and the compiled trace must contain *no* synthetic
        # deliver events rather than wrongly-attributed ones.
        runs = {}
        for engine in ("reference", "compiled"):
            session = ObsSession(ObsConfig())
            topology, net = _mesh_net(engine, 16)
            net.attach_observer(session)
            for p in make_transpose_gather(topology, cols=2).packets:
                net.inject(p)
            net.run()
            mesh_events = normalize_events(
                session.tracer.events, categories=("mesh",)
            )
            summary = {
                name: sorted(
                    (labels, m.value)
                    for (n, labels), m in session.metrics._metrics.items()
                    if n == name
                )
                for name in (
                    "mesh_cycles",
                    "mesh_mean_packet_latency",
                    "mesh_flit_hops",
                    "mesh_flits_through_node",
                )
            }
            delivers = [ev for ev in mesh_events if ev["name"] == "deliver"]
            runs[engine] = (summary, delivers)
        ref_summary, ref_delivers = runs["reference"]
        comp_summary, comp_delivers = runs["compiled"]
        assert comp_summary == ref_summary
        assert ref_delivers  # the reference does trace flit deliveries
        assert comp_delivers == []

    def test_mesh_refusal_opens_no_run_span(self):
        # A refused run must leave the session clean, so the documented
        # fallback (re-run on engine="reference") traces one balanced
        # run span rather than nesting it in an unclosed one.
        session = ObsSession(ObsConfig())
        for engine, reorder in (("compiled", 1), ("reference", 1)):
            topology, net = _mesh_net(engine, 16, reorder=reorder)
            net.attach_observer(session)
            workload = make_transpose_gather(topology, cols=2, header_flits=2)
            for p in workload.packets:
                net.inject(p)
            if engine == "compiled":
                with pytest.raises(EngineUnsupportedError):
                    net.run()
                assert not [
                    ev
                    for ev in session.tracer.events
                    if ev.cat == "mesh" and ev.name == "run"
                ]
            else:
                net.run()
        phases = [
            ev.ph
            for ev in session.tracer.events
            if ev.cat == "mesh" and ev.name == "run"
        ]
        assert phases == ["B", "E"]


# ---------------------------------------------------------------------------
# GlobalSchedule memoization (satellite: derived views built once)
# ---------------------------------------------------------------------------


class TestScheduleMemoization:
    def _schedule(self) -> GlobalSchedule:
        return gather_schedule(transpose_order(4, 3))

    def test_views_constructed_once(self):
        sched = self._schedule()
        assert sched.timeline() is sched.timeline()
        assert sched.word_map() is sched.word_map()
        assert sched.utilization == sched.utilization
        # utilization is a float (not identity-comparable): pin the memo
        # entry itself instead.
        assert "utilization" in sched._memo

    def test_structural_mutation_invalidates(self):
        sched = self._schedule()
        before = sched.timeline()
        sched.total_cycles += 1
        after = sched.timeline()
        assert after is not before

    def test_explicit_invalidate_drops_memo(self):
        sched = self._schedule()
        first = sched.timeline()
        sched.invalidate()
        assert sched._memo == {}
        again = sched.timeline()
        assert again is not first
        assert again == first

    def test_memo_excluded_from_equality(self):
        a = self._schedule()
        b = self._schedule()
        a.timeline()  # warm one side only
        assert a == b
