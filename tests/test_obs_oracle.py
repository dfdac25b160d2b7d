"""Trace-oracle differential tests.

The observability layer records *semantic* events from methods shared by
every engine implementation, so two engines that claim equivalence must
produce identical normalized traces — a much sharper oracle than
comparing end-state stats:

* reference vs fast mesh engine, clean and faulty (``run_resilient``);
* per-dispatch kernel records under ``ObsConfig(sim_dispatch=True)``;
* the same seeded workload twice (determinism).

Engine-*dependent* events (the sampled ``mesh.sample`` category — a
cycle-skipping engine never visits skipped cycles) are excluded by
construction, and one test demonstrates why.
"""

from __future__ import annotations

from repro.core import Pscan, gather_schedule
from repro.mesh import MeshConfig, MeshNetwork, MeshTopology
from repro.mesh.workloads import make_transpose_gather
from repro.obs import ObsConfig, ObsSession, normalize_events
from repro.photonics import Waveguide
from repro.sim import Simulator

#: Categories the mesh oracles compare: engine-independent semantics.
SEMANTIC = ("mesh", "mesh.fault")


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
    engine: str,
    *,
    fail: tuple[tuple[int, int], tuple[int, int]] | None = None,
    resilient: bool = False,
    sample_cycles: int = 0,
    processors: int = 16,
    cols: int = 4,
) -> ObsSession:
    """Run the transpose gather on ``engine`` under observation."""
    session = ObsSession(ObsConfig(mesh_sample_cycles=sample_cycles))
    topo = MeshTopology.square(processors)
    net = MeshNetwork(topo, MeshConfig(engine=engine, memory_reorder_cycles=1))
    net.attach_observer(session)
    net.add_memory_interface((0, 0))
    if fail is not None:
        net.fail_link(*fail)
    for packet in make_transpose_gather(topo, cols=cols).packets:
        net.inject(packet)
    if resilient:
        net.run_resilient(max_cycles=100_000)
    else:
        net.run()
    return session


class TestMeshEngineOracle:
    def test_reference_vs_fast_clean(self):
        ref = _mesh_session("reference")
        fast = _mesh_session("fast")
        ref_events = canon(normalize_events(ref.tracer.events, categories=SEMANTIC))
        fast_events = canon(normalize_events(fast.tracer.events, categories=SEMANTIC))
        assert ref_events  # the oracle is vacuous on an empty trace
        assert ref_events == fast_events

    def test_reference_vs_fast_faulty(self):
        # Kill the link feeding the sink's column so recovery engages:
        # quarantine + reroute (and possibly drops) must appear, and must
        # appear identically on both engines.
        fail = ((0, 0), (0, 1))
        ref = _mesh_session("reference", fail=fail, resilient=True)
        fast = _mesh_session("fast", fail=fail, resilient=True)
        ref_events = canon(normalize_events(ref.tracer.events, categories=SEMANTIC))
        fast_events = canon(normalize_events(fast.tracer.events, categories=SEMANTIC))
        assert any(e["cat"] == "mesh.fault" for e in ref_events)
        assert ref_events == fast_events

    def test_fault_metrics_agree(self):
        fail = ((0, 0), (0, 1))
        ref = _mesh_session("reference", fail=fail, resilient=True)
        fast = _mesh_session("fast", fail=fail, resilient=True)
        assert ref.metrics.to_dict() == fast.metrics.to_dict()

    def test_sampled_category_is_engine_dependent(self):
        # The *reason* mesh.sample is excluded from the oracle: the fast
        # engine cycle-skips, so it visits a different set of cycles.
        # Semantic categories still agree even with sampling on.
        ref = _mesh_session("reference", sample_cycles=8)
        fast = _mesh_session("fast", sample_cycles=8)
        ref_sem = canon(normalize_events(ref.tracer.events, categories=SEMANTIC))
        fast_sem = canon(normalize_events(fast.tracer.events, categories=SEMANTIC))
        assert ref_sem == fast_sem
        ref_sample = [e for e in ref.tracer.events if e.cat == "mesh.sample"]
        fast_sample = [e for e in fast.tracer.events if e.cat == "mesh.sample"]
        # Reference visits every cycle; the skipping engine visits fewer.
        assert len(fast_sample) <= len(ref_sample)

    def test_same_run_twice_is_deterministic(self):
        a = _mesh_session("reference", fail=((0, 0), (0, 1)), resilient=True)
        b = _mesh_session("reference", fail=((0, 0), (0, 1)), resilient=True)
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
