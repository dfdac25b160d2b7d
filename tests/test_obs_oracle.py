"""Trace-oracle tests.

The observability layer records *semantic* events from the methods that
change the network, so a trace must agree with the run it describes —
a much sharper oracle than end-state stats alone:

* the reference mesh's trace against its own delivery log and fault
  counters, clean and faulty (``run_resilient``);
* per-dispatch kernel records under ``ObsConfig(sim_dispatch=True)``;
* the same seeded workload twice (determinism).
"""

from __future__ import annotations

import math

from repro.core import Pscan, gather_schedule
from repro.mesh import MeshConfig, MeshNetwork, MeshTopology
from repro.mesh.workloads import make_transpose_gather
from repro.obs import ObsConfig, ObsSession, normalize_events
from repro.photonics import Waveguide
from repro.sim import Simulator

#: Categories of what the network did (``mesh.sample`` is a sampler).
SEMANTIC = ("mesh", "mesh.fault")
#: Kill the link feeding the sink's column so recovery engages.
FAIL = ((0, 0), (0, 1))


def canon(events: list[dict]) -> list[dict]:
    """Remap packet ids by first appearance.

    Packet ids come from a process-global counter
    (``repro.mesh.flit._packet_ids``), so two otherwise-identical runs
    disagree on the raw numbers.  The oracle compares the id *structure*
    — which events mention the same packet — not the absolute values.
    """
    remap: dict[int, int] = {}
    out = []
    for ev in events:
        args = ev.get("args")
        if isinstance(args, dict) and "packet" in args:
            pid = args["packet"]
            if pid not in remap:
                remap[pid] = len(remap)
            ev = {**ev, "args": {**args, "packet": remap[pid]}}
        out.append(ev)
    return out


def _mesh_session(
    *,
    fail: tuple[tuple[int, int], tuple[int, int]] | None = None,
    sample_cycles: int = 0,
) -> tuple[ObsSession, MeshNetwork]:
    """Run the 16-processor transpose gather under observation."""
    session = ObsSession(ObsConfig(mesh_sample_cycles=sample_cycles))
    topo = MeshTopology.square(16)
    net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=1))
    net.attach_observer(session)
    net.add_memory_interface((0, 0))
    if fail is not None:
        net.fail_link(*fail)
    net.inject_all(make_transpose_gather(topo, cols=4).packets)
    if fail is not None:
        net.run_resilient(max_cycles=100_000)
    else:
        net.run()
    return session, net


def _events(session: ObsSession, cat: str, name: str | None = None) -> list:
    return [
        e for e in session.tracer.events
        if e.cat == cat and (name is None or e.name == name)
    ]


def _deliveries_match_sink_log(session: ObsSession, net: MeshNetwork) -> None:
    delivered = [
        (e.ts, e.track, e.args["packet"], tuple(e.args["source"]))
        for e in _events(session, "mesh", "deliver")
    ]
    assert delivered == [
        (float(r.cycle), f"node{r.node}", r.packet_id, r.source)
        for r in net.sunk
    ]


class TestMeshEngineOracle:
    def test_trace_matches_stats_clean(self):
        session, net = _mesh_session()
        assert net.sunk  # the oracle is vacuous on an empty run
        _deliveries_match_sink_log(session, net)
        injected = _events(session, "mesh", "inject")
        assert len(injected) == len(net._packet_meta)
        assert sum(e.args["flits"] for e in injected) == len(net.sunk)
        assert not _events(session, "mesh.fault")

    def test_trace_matches_stats_faulty(self):
        session, net = _mesh_session(fail=FAIL)
        stats = net.stats
        _deliveries_match_sink_log(session, net)
        faults = _events(session, "mesh.fault")
        drops = [e.args for e in faults if e.name == "drop"]
        assert stats.reroutes and stats.quarantine_events
        assert sum(e.name == "reroute" for e in faults) == stats.reroutes
        assert sum(e.name == "quarantine" for e in faults) == (
            stats.quarantine_events
        )
        assert sum(d["flits"] for d in drops) == stats.flits_dropped
        assert {d["packet"] for d in drops} == set(stats.packets_lost)

    def test_fault_metrics_agree(self):
        session, net = _mesh_session(fail=FAIL)
        metrics = session.metrics

        def count(kind):
            metric = metrics.get("mesh_fault_events", kind=kind)
            return 0 if metric is None else metric.value

        assert count("reroute") == net.stats.reroutes
        assert count("quarantine") == net.stats.quarantine_events
        assert metrics.get("mesh_cycles").value == net.stats.cycles

    def test_sampler_leaves_semantic_events_alone(self):
        # The reference engine steps every cycle, so the sampler records
        # every 8th one; sampling adds no semantic event.
        plain, _net = _mesh_session()
        sampled, net = _mesh_session(sample_cycles=8)
        assert canon(normalize_events(sampled.tracer.events, categories=SEMANTIC)) \
            == canon(normalize_events(plain.tracer.events, categories=SEMANTIC))
        samples = _events(sampled, "mesh.sample")
        assert [e.ts for e in samples] == [
            float(8 * i) for i in range(math.ceil(net.cycle / 8))
        ]

    def test_same_run_twice_is_deterministic(self):
        a, _net = _mesh_session(fail=FAIL)
        b, _net = _mesh_session(fail=FAIL)
        assert canon(normalize_events(a.tracer.events)) == canon(
            normalize_events(b.tracer.events)
        )
        assert a.metrics.to_json() == b.metrics.to_json()


def _fig4_session() -> tuple[ObsSession, Simulator]:
    """The Fig.-4 gather with per-dispatch recording."""
    session = ObsSession(ObsConfig(sim_dispatch=True))
    sim = Simulator()
    sim.attach_observer(session)
    pscan = Pscan(sim, Waveguide(length_mm=140.0), {0: 0.0, 1: 14.0})
    pscan.attach_observer(session)
    order = [(node, 3 * r + w) for r in range(2) for node in (0, 1)
             for w in range(3)]
    data = {0: [f"a{i}" for i in range(6)], 1: [f"b{i}" for i in range(6)]}
    pscan.execute_gather(gather_schedule(order), data, receiver_mm=140.0)
    return session, sim


class TestEventQueueOracle:
    def test_dispatch_records_every_event(self):
        """One ``sim`` record per dispatched event, identical across runs."""
        a, sim = _fig4_session()
        b, _ = _fig4_session()
        events = normalize_events(a.tracer.events)
        dispatched = [e for e in events if e["cat"] == "sim"]
        assert len(dispatched) == sim.events_processed > 0
        assert events == normalize_events(b.tracer.events)

    def test_dispatch_metrics_are_deterministic(self):
        """Two dispatch-recorded runs report identical metrics."""
        a, _ = _fig4_session()
        b, _ = _fig4_session()
        assert a.metrics.to_dict()
        assert a.metrics.to_dict() == b.metrics.to_dict()


class TestRecoveryOracle:
    def _faulty_gather(self, seed: int) -> ObsSession:
        from repro.faults import PscanFaultModel, ReliableGather, RetryPolicy

        session = ObsSession()
        sim = Simulator()
        positions = {i: 10.0 * i for i in range(4)}
        pscan = Pscan(sim, Waveguide(length_mm=140.0), positions)
        pscan.attach_observer(session)
        PscanFaultModel(ber=2e-3, seed=seed).install(pscan)
        order = [(n, w) for w in range(8) for n in sorted(positions)]
        data = {n: [f"n{n}w{w}" for w in range(8)] for n in positions}
        gather = ReliableGather(pscan, RetryPolicy(max_retries=6))
        gather.attach_observer(session)
        gather.gather(order, data, receiver_mm=140.0, raise_on_exhaust=False)
        return session

    def test_same_seed_twice(self):
        a = self._faulty_gather(7)
        b = self._faulty_gather(7)
        assert normalize_events(a.tracer.events) == normalize_events(
            b.tracer.events
        )

    def test_epochs_and_nacks_recorded(self):
        session = self._faulty_gather(7)
        cats = {e.cat for e in session.tracer.events}
        assert "faults" in cats and "sca" in cats
        names = [e.name for e in session.tracer.events if e.cat == "faults"]
        assert any(n.startswith("epoch") for n in names)
