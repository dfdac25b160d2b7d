"""Seeded differential fuzzer: equivalent-engine pairs and oracle checks.

The repo ships several *pairs* (or families) of implementations that claim
observational equivalence — the compiled SCA and mesh engines next to
their event-driven and flit-level references, an analytic Table III
model next to the measured flit simulator, a canonical CRC frame codec,
and the CRC-protected retransmitting gather.  The reference mesh engine
is the oracle for the rest, so it is checked on its own: invariants any
correct run satisfies, and metamorphic relations between runs.  Each
pair is covered by targeted unit tests on a handful of hand-picked
workloads; this module generates *randomized* workloads from a seed and
fails on any divergence.

The kind table
--------------

Every kind is one :class:`Kind` row of :data:`KINDS`: its generator,
its differential :class:`Pair` s (oracle name, executor A, executor B,
optional ``when`` condition on the params), its extra property checks,
its shrink floors (every parameter not listed is frozen) and an
optional constructibility predicate.  :func:`run_case` runs a row's
pairs through one compare helper and then its checks;
:mod:`repro.check.shrink` reads the floors and the predicate.  Adding
or retiring a kind or an engine pair touches one row.

Case kinds
----------

``mesh``
    The reference engine on its own, on randomized topology size /
    workload / reorder latency / fault plan:

    * ``mesh.conservation`` — flits injected = ejected + dropped (+ in
      flight after an aborted run); router traversals = flit hops +
      ejections; the latency list matches the delivery log; fault-free,
      every packet arrives and ``flit_hops`` = Σ Manhattan distance ×
      flits;
    * ``mesh.order`` — each packet's flits eject at its destination,
      contiguously, in flit order;
    * ``mesh.bounds`` — no packet beats its path floor
      ``(hops + 1)·(1 + t_r) + flits − 1``; a sink ejects at most one
      flit a cycle, and a memory interface none while it reorders a
      data flit (t_p cycles); a run ends after its last
      ejection (fault-free: one cycle after); a fault-free transpose
      takes exactly ``E·(1 + t_p) + 3 − t_p`` cycles at t_p ≥ 2 and
      ``cols·(3wh − 2w + 1) + 1`` at t_p = 1.  Fault-free cases are
      checked again at t_r = 2, where the header pipeline shows;
    * ``mesh.trace`` (when ``trace`` is set) — one ``deliver`` event per
      sink record, in order, and ``mesh.fault`` events that agree with
      the reroute, quarantine, drop and lost-packet counters;
    * ``mesh.shift`` — shifting every packet id changes nothing;
    * ``mesh.step`` (fault-free) — :meth:`run` equals stepping to done;
    * ``mesh.mirror`` (transpose) — a north–south mirror of the sink,
      traffic and fault mirrors the whole observation.  Random and
      scatter traffic is not mirror-symmetric: round-robin order ranks
      north before south.

``crc``
    The canonical frame codec: round-trip, frame determinism across
    equal values, guaranteed detection of 1–3 bit flips (CRC-16/CCITT
    has Hamming distance 4 at these frame lengths), involutive
    ``flip_bits`` and exhaustive accounting of heavier corruption into
    detected / collision / decode-error bins.

``analytic``
    Measured mesh transpose vs :func:`mesh_transpose_cycles_model`
    within the documented calibration band (see
    ``docs/correctness.md``): the measured/model ratio must lie in
    ``ANALYTIC_BAND`` and the measurement must respect the sink
    serialization floor ``elements * (1 + t_p)``.

``gather``
    The CRC-protected :class:`~repro.faults.ReliableGather` under a
    seeded BER: bit-identical determinism across two runs, word
    conservation, and exact zero-overhead behaviour at BER 0.

``schedule``
    The static analyzer itself: every compiled schedule from the
    :mod:`repro.core.schedule` front-ends must lint clean, and every
    random single mutation of its raw spec (dropped / extended /
    shifted slot, corrupted word offset) must produce at least one
    ERROR diagnostic.

``compiled``
    The schedule-compiled analytic backends against their event-driven
    references.  ``Pscan(engine="compiled")`` gather/scatter executions
    must be bit-identical to the event engine — arrivals, modulation
    times, delivered words, clock window, moved bits, final simulator
    time, and (when ``trace`` is set) the semantic ``sca`` obs trace —
    including back-to-back transactions sharing one clock epoch chain.
    ``MeshConfig(engine="compiled")`` transpose runs must reproduce the
    reference engine's full stats signature (``sunk`` records excluded:
    the compiled mesh documents them as unpopulated).  At ``reorder=1``
    that holds for one element and one header flit per packet; the
    other ``reorder=1`` shapes are out of domain and must refuse with a
    structured :class:`~repro.util.errors.EngineUnsupportedError`
    naming ``reorder_cycles`` — never silently fall back or mis-answer.

``batched``
    The SIMD-lockstep campaign engine (:mod:`repro.faults.batched`) vs
    the per-seed scalar path, across both batched injector families —
    CRC-protected gathers under BER / thermal drift and mesh transposes
    under permanent dead links.  Batched rows must be byte-identical to
    a scalar loop over the same lanes, the clean/replayed lane
    accounting must balance, and a disabled injector (BER 0, or no dead
    link in any lane) must never trigger a scalar replay.

``workload``
    The :mod:`repro.workloads` registry, per family, on the reference
    mesh engine: the ``mesh`` kind's conservation, order and bounds
    invariants (``workload.*``), and ``workload.shift`` — the same
    traffic with every packet id shifted must give the same mesh
    signature, :mod:`repro.obs.slo` latency block and per-pair table.
    Families with a photonic lowering additionally replay their CP
    phases on the event vs compiled SCA engines (bit-exact executions),
    and every description must lint clean under
    :func:`repro.check.analyzer.analyze_traffic`.

Every case is reconstructible from ``(kind, seed, params)`` — the JSON
form committed under ``tests/corpus/`` by :mod:`repro.check.shrink`.
"""

from __future__ import annotations

import copy
import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "ANALYTIC_BAND",
    "CASE_KINDS",
    "KINDS",
    "Kind",
    "Pair",
    "FuzzCase",
    "Divergence",
    "FuzzResult",
    "generate_case",
    "run_case",
    "run_fuzz",
]

#: Documented calibration band for measured/model transpose cycles at
#: sub-paper scales (empirical range 0.716..0.882 over 16..100
#: processors; see docs/correctness.md for the derivation sweep).
ANALYTIC_BAND = (0.65, 1.00)

Params = dict[str, Any]


# ---------------------------------------------------------------------------
# case / result plumbing
# ---------------------------------------------------------------------------


@dataclass
class FuzzCase:
    """One reproducible differential-execution case."""

    kind: str
    seed: int
    params: dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict[str, Any]:
        """JSON-safe dict (the corpus seed format)."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FuzzCase":
        return cls(
            kind=str(data["kind"]),
            seed=int(data["seed"]),
            params=dict(data.get("params", {})),
            note=str(data.get("note", "")),
        )

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.kind}(seed={self.seed}, {inner})"


@dataclass
class Divergence:
    """One observed disagreement between supposedly equivalent paths."""

    case: FuzzCase
    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.case.describe()}: {self.detail}"


@dataclass
class FuzzResult:
    """Outcome of a fuzzing run."""

    cases_run: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    by_kind: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        kinds = ", ".join(f"{k}:{n}" for k, n in sorted(self.by_kind.items()))
        verdict = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        return (
            f"fuzz: {self.cases_run} case(s) [{kinds}] "
            f"in {self.elapsed_s:.1f}s — {verdict}"
        )


# ---------------------------------------------------------------------------
# the kind table's row types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    """Two executors that must observe the same thing on a case's params.

    A mismatch is a divergence named ``oracle`` (``<oracle>.<aspect>``
    per compared result attribute when ``aspects`` is set).  An empty
    observation from executor A is one too: equal nothings prove
    nothing.  ``when`` limits the pair to the params it applies to.
    """

    oracle: str
    a: Callable[[Params], Any]
    b: Callable[[Params], Any]
    when: Callable[[Params], Any] | None = None
    aspects: tuple[str, ...] = ()


#: A property check: yields ``(oracle, detail)`` per violation.
Check = Callable[[FuzzCase], Iterable[tuple[str, str]]]


@dataclass(frozen=True)
class Kind:
    """One fuzz kind: how to draw a case, what must hold, how to shrink it.

    ``floors`` names the only parameters the shrinker may lower: an int
    is the floor of a halving ladder, a tuple lists the smaller values
    allowed (perfect squares, the canonical RNG seed 0).  Every other
    parameter is a structural selector and stays frozen.
    ``constructible`` rejects shrink candidates the engines cannot
    build, before any of them runs.
    """

    generate: Callable[[random.Random], Params]
    pairs: tuple[Pair, ...] = ()
    checks: tuple[Check, ...] = ()
    floors: Mapping[str, int | tuple[int, ...]] = field(default_factory=dict)
    constructible: Callable[[Params], bool] | None = None


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------


def generate_case(seed: int, kinds: Iterable[str] | None = None) -> FuzzCase:
    """Deterministically derive one case from ``seed``.

    ``kinds`` restricts the pool (default: every row of :data:`KINDS`).
    The seed fully determines the case; the same seed always fuzzes the
    same workload, which is what makes corpus seeds replayable.
    """
    pool = tuple(kinds) if kinds is not None else CASE_KINDS
    for kind in pool:
        if kind not in KINDS:
            raise ValueError(f"unknown fuzz kind {kind!r}; know {CASE_KINDS}")
    rng = random.Random(seed)
    kind = pool[rng.randrange(len(pool))]
    return FuzzCase(kind=kind, seed=seed, params=KINDS[kind].generate(rng))


def _gen_mesh(rng: random.Random) -> dict[str, Any]:
    processors = rng.choice([4, 9, 16, 25])
    workload = rng.choice(["transpose", "random", "scatter"])
    params: dict[str, Any] = {
        "processors": processors,
        "workload": workload,
        "reorder": rng.choice([1, 2, 4]),
        "fault": rng.choice(["none", "none", "link", "router"]),
        "trace": rng.random() < 0.5,
    }
    if workload == "transpose":
        params["cols"] = rng.choice([2, 4])
    elif workload == "random":
        params["packets_per_node"] = rng.choice([2, 4])
        params["wseed"] = rng.randrange(1000)
    else:
        k = rng.choice([1, 2])
        params["k"] = k
        params["words_per_processor"] = k * rng.choice([2, 3])
    return params


def _gen_crc(rng: random.Random) -> dict[str, Any]:
    return {
        "values": rng.randrange(4, 13),
        "depth": rng.choice([1, 2, 3]),
        "flip_trials": rng.randrange(8, 25),
        "max_flips": rng.choice([4, 6, 8]),
    }


def _gen_analytic(rng: random.Random) -> dict[str, Any]:
    processors = rng.choice([16, 36, 64])
    # pscan reference needs processors*cols*64 bits to fill whole
    # 2048-bit DRAM rows: processors * cols % 32 == 0.
    cols_pool = {16: [2, 4, 8], 36: [8, 16], 64: [2, 4]}[processors]
    return {
        "processors": processors,
        "cols": rng.choice(cols_pool),
        "reorder": rng.choice([1, 2, 4, 8]),
    }


def _gen_gather(rng: random.Random) -> dict[str, Any]:
    return {
        "nodes": rng.choice([4, 8]),
        "words": rng.choice([4, 8]),
        # BER exponent: 0 disables the injector entirely.
        "ber_exp": rng.choice([0, 0, 4, 3]),
        "drift": rng.random() < 0.3,
        "fseed": rng.randrange(1000),
    }


def _gen_schedule(rng: random.Random) -> dict[str, Any]:
    family = rng.choice(
        ["transpose", "round_robin", "block", "control", "permuted"]
    )
    params: dict[str, Any] = {"family": family, "mutation": rng.choice(
        ["none", "drop_slot", "extend_slot", "shift_slot", "word_offset"]
    )}
    if family == "transpose":
        params["rows"] = rng.choice([4, 8, 16])
        params["cols"] = rng.choice([2, 4, 8])
    elif family == "round_robin":
        params["nodes"] = rng.choice([2, 4, 8])
        block = rng.choice([1, 2, 4])
        params["block"] = block
        params["words"] = block * rng.choice([1, 2, 4])
    elif family == "block":
        params["nodes"] = rng.choice([2, 4, 8, 16])
        params["words"] = rng.choice([2, 4, 8])
    elif family == "control":
        params["nodes"] = rng.choice([2, 4, 8])
        params["control_words"] = rng.choice([0, 1, 2])
        k = rng.choice([1, 2])
        params["k"] = k
        params["data_words"] = k * rng.choice([2, 3])
    else:  # permuted: a random bijection order
        params["nodes"] = rng.choice([2, 3, 4, 6])
        params["words"] = rng.choice([2, 3, 5])
        params["pseed"] = rng.randrange(1000)
    return params


def _gen_compiled(rng: random.Random) -> dict[str, Any]:
    target = rng.choice(["sca", "sca", "mesh"])
    if target == "mesh":
        cols = rng.choice([1, 2, 4])
        return {
            "target": "mesh",
            "processors": rng.choice([4, 16, 25]),
            "cols": cols,
            # reorder=1 is in the compiled domain only for 2-flit
            # packets; the other shapes must refuse.
            "reorder": rng.choice([1, 2, 4]),
            # elements_per_packet must divide cols.
            "elements_per_packet": rng.choice(
                [e for e in (1, 2) if cols % e == 0]
            ),
            "header_flits": rng.choice([1, 2]),
        }
    family = rng.choice(["transpose", "round_robin", "block", "permuted"])
    words = rng.choice([1, 2, 3, 5])
    params: dict[str, Any] = {
        "target": "sca",
        "family": family,
        "op": rng.choice(["gather", "scatter"]),
        "nodes": rng.choice([2, 4, 8]),
        "words": words,
        "repeat": rng.random() < 0.4,
        "trace": rng.random() < 0.5,
    }
    if family == "round_robin":
        params["block"] = rng.choice([1, words])
    elif family == "permuted":
        params["pseed"] = rng.randrange(1000)
    return params


def _gen_batched(rng: random.Random) -> dict[str, Any]:
    target = rng.choice(["gather", "gather", "mesh"])
    params: dict[str, Any] = {
        "target": target,
        "lanes": rng.randrange(2, 13),
        "sseed": rng.randrange(1000),
    }
    if target == "gather":
        params.update({
            "processors": rng.choice([4, 16]),
            "row_samples": rng.choice([2, 4]),
            # BER exponent: 0 disables the injector (all lanes clean).
            "ber_exp": rng.choice([0, 6, 4, 3, 2]),
            "drift": rng.random() < 0.3,
        })
    else:  # mesh
        params["lanes"] = rng.randrange(2, 7)
        params.update({
            "processors": rng.choice([4, 16]),
            "max_dead": rng.choice([1, 2]),
        })
    return params


def _gen_workload(rng: random.Random) -> dict[str, Any]:
    name = rng.choice([
        "all_to_all", "allreduce", "allgather", "halo2d", "dnn_layer",
        "uniform_random", "transpose_multi_mc",
    ])
    params: dict[str, Any] = {
        "name": name,
        "processors": rng.choice([4, 9, 16]),
        "reorder": rng.choice([1, 2, 4]),
    }
    if name == "all_to_all":
        params["words_per_pair"] = rng.choice([1, 2, 3])
    elif name in ("allreduce", "allgather"):
        params["words"] = rng.choice([1, 2, 4])
    elif name == "halo2d":
        params["halo"] = rng.choice([1, 2, 4])
    elif name == "dnn_layer":
        params["batch"] = rng.choice([2, 4, 8])
        params["features_in"] = rng.choice([4, 8])
        params["features_out"] = rng.choice([4, 8])
    elif name == "uniform_random":
        params["packets_per_node"] = rng.choice([2, 4])
        params["seed"] = rng.randrange(1000)
    else:  # transpose_multi_mc
        params["cols"] = rng.choice([2, 4])
    return params


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _diff_repr(a: Any, b: Any, limit: int = 300) -> str:
    ra, rb = repr(a), repr(b)
    if ra == rb:
        return "objects differ but share a repr (identity-level divergence)"
    # Find the first point of disagreement for a readable excerpt.
    i = next(
        (k for k, (x, y) in enumerate(zip(ra, rb)) if x != y),
        min(len(ra), len(rb)),
    )
    lo = max(0, i - 40)
    return (
        f"first differs at char {i}: "
        f"...{ra[lo:i + 80]}... vs ...{rb[lo:i + 80]}..."
    )[:limit]


def _schedule_order(p: Params) -> list[tuple[int, int]]:
    """The ``(node, word)`` order of a ``schedule`` or ``compiled`` case."""
    from ..core.schedule import (
        block_interleave_order,
        control_then_data_order,
        round_robin_order,
        transpose_order,
    )

    family = p["family"]
    if family == "transpose":
        # schedule cases name the grid rows x cols, compiled ones nodes x words
        if "rows" in p:
            return transpose_order(p["rows"], p["cols"])
        return transpose_order(p["nodes"], p["words"])
    if family == "round_robin":
        return round_robin_order(p["nodes"], p["words"], p["block"])
    if family == "block":
        return block_interleave_order(p["nodes"], p["words"])
    if family == "control":
        return control_then_data_order(
            p["nodes"], p["control_words"], p["data_words"], p["k"]
        )
    if family == "permuted":
        order = [
            (n, w) for n in range(p["nodes"]) for w in range(p["words"])
        ]
        random.Random(p["pseed"]).shuffle(order)
        return order
    raise ValueError(f"unknown schedule family {family!r}")


def _sca_signature(ex) -> tuple:
    """Bit-exact observable signature of one SCA execution."""
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
        tuple(sorted((n, tuple(vs)) for n, vs in ex.delivered.items())),
    )


# ---------------------------------------------------------------------------
# mesh executors and checks
# ---------------------------------------------------------------------------

#: Offset the ``mesh.shift`` and ``workload.shift`` relations add to
#: every packet id.  Ids only order packets, so nothing may change.
_ID_SHIFT = 1_000_003


def _mesh_packets(topology, params: Params):
    from ..mesh.workloads import (
        make_scatter_delivery,
        make_transpose_gather,
        make_uniform_random,
    )

    # compiled-kind mesh cases are transpose gathers with no workload key
    workload = params.get("workload", "transpose")
    if workload == "transpose":
        return make_transpose_gather(
            topology,
            cols=params["cols"],
            elements_per_packet=params.get("elements_per_packet", 1),
            header_flits=params.get("header_flits", 1),
        ).packets
    if workload == "random":
        return make_uniform_random(
            topology,
            packets_per_node=params["packets_per_node"],
            seed=params["wseed"],
        )
    if workload == "scatter":
        return make_scatter_delivery(
            topology,
            words_per_processor=params["words_per_processor"],
            k=params["k"],
        )
    raise ValueError(f"unknown mesh workload {workload!r}")


def _mirror(topology) -> Callable[[tuple[int, int]], tuple[int, int]]:
    """The north–south mirror of ``topology``'s nodes (its own inverse)."""
    top = topology.height - 1
    return lambda node: (node[0], top - node[1])


@dataclass
class _MeshRun:
    """One finished mesh run and the traffic it carried."""

    net: Any
    packets: Any
    stats: Any
    report: Any


def _mesh_run(
    params: Params,
    engine: str = "reference",
    *,
    session=None,
    shift: int = 0,
    mirror: bool = False,
    stepped: bool = False,
    route_cycles: int = 1,
) -> _MeshRun:
    """Build and run one mesh case.

    ``shift`` adds a constant to every packet id; ``mirror`` reflects
    the sink, the traffic and the fault north–south; ``stepped`` drives
    a fault-free run with :meth:`step` instead of :meth:`run`;
    ``route_cycles`` is the routers' header pipeline depth (t_r).
    """
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology

    topology = MeshTopology.square(params["processors"])
    at = _mirror(topology) if mirror else (lambda node: node)
    net = MeshNetwork(
        topology,
        MeshConfig(engine=engine, memory_reorder_cycles=params["reorder"],
                   header_route_cycles=route_cycles),
    )
    if session is not None:
        net.attach_observer(session)
    net.add_memory_interface(at((0, 0)))
    packets = _mesh_packets(topology, params)
    if shift or mirror:
        packets = [
            replace(p, packet_id=p.packet_id + shift, source=at(p.source),
                    dest=at(p.dest))
            for p in packets
        ]
    net.inject_all(packets)
    fault = params.get("fault", "none")
    if fault == "link":
        net.fail_link(at((1, 0)), at((0, 0)))
    elif fault == "router":
        net.fail_router(at((1, 1)))
    if fault != "none":
        return _MeshRun(net, packets, *net.run_resilient())
    if stepped:
        while net.traffic_remaining:
            net.step()
        net.stats.cycles = net.cycle
        return _MeshRun(net, packets, net.stats, None)
    return _MeshRun(net, packets, net.run(), None)


def _observe(run: _MeshRun, at=None) -> tuple:
    """A run's normalized observation; ``at`` maps its nodes back first.

    That is :func:`~repro.mesh.mesh_signature`, the reroute and
    quarantine counters and the fault report, with packet ids taken
    relative to the run's smallest id.
    """
    from ..mesh import Port, mesh_signature, packet_id_base

    sig, stats, report = mesh_signature(run.net, run.stats), run.stats, run.report
    quarantined = () if report is None else tuple(report.quarantined_links)
    if at is not None:
        cycles, packets, flits, hops, latencies, busy, heat, sunk = sig
        sig = (
            cycles, packets, flits, hops, latencies,
            {at(node): n for node, n in busy.items()},
            tuple(sorted((at(node), n) for node, n in heat)),
            tuple((c, at(node), pid, payload, at(src))
                  for c, node, pid, payload, src in sunk),
        )
        quarantined = tuple(sorted(
            ((at(node), port.opposite if port in (Port.NORTH, Port.SOUTH)
              else port) for node, port in quarantined),
            key=lambda link: (link[0], int(link[1])),
        ))
    rep = None
    if report is not None:
        base = packet_id_base(run.net)
        rep = (
            report.kind,
            report.cycle,
            tuple(p - base for p in report.undelivered_packets),
            tuple(p - base for p in report.lost_packets),
            report.flits_dropped,
            quarantined,
        )
    return sig, stats.reroutes, stats.quarantine_events, rep


def _run_mesh_case(params: Params, engine: str = "reference", **kwargs) -> tuple:
    """One run's observation (see :func:`_mesh_run` for ``kwargs``).

    A mirrored run is mapped back through the mirror, so it compares
    equal to the plain run when the planner treats north and south alike.
    """
    run = _mesh_run(params, engine, **kwargs)
    return _observe(run, _mirror(run.net.topology) if kwargs.get("mirror") else None)


def _mesh_invariants(
    kind: str, packets, stats, sunk, *, memory, reorder: int,
    route_cycles: int, clean: bool, in_flight: int = 0,
) -> Iterable[tuple[str, str]]:
    """Conservation, wormhole order and bounds of one finished run.

    ``sunk`` is the delivery log of :func:`~repro.mesh.mesh_signature`
    (packet ids relative to the smallest injected id); ``memory`` lists
    the memory interfaces, which reorder each data flit for ``reorder``
    cycles; ``in_flight`` counts the flits an aborted run left in the
    network.
    """
    base = min((q.packet_id for q in packets), default=0)
    by_id = {q.packet_id - base: q for q in packets}
    trains: dict[int, list] = {}
    tails: list[tuple[int, int]] = []
    last: dict[tuple[int, int], int] = {}
    ready: dict[tuple[int, int], int] = {}
    ended: set[int] = set()
    for cycle, node, pid, payload, _src in sunk:
        packet = by_id[pid]
        train = trains.setdefault(pid, [])
        train.append(payload)
        if node != packet.dest:
            yield f"{kind}.order", f"packet {pid} ejected at {node}, not {packet.dest}"
        if last.get(node, pid) != pid:
            if pid in ended:
                yield f"{kind}.order", f"packet {pid} resumed at {node} after another"
            ended.add(last[node])
        last[node] = pid
        # A sink ejects one flit a cycle; a memory interface then stays
        # busy for the head's one cycle or a data flit's reorder.
        if cycle < ready.get(node, 0):
            yield f"{kind}.bounds", f"{node} ejected in cycle {cycle}, busy until {ready[node]}"
        ready[node] = cycle + (reorder if node in memory and len(train) > 1 else 1)
        if len(train) == packet.flit_count:
            tails.append((pid, cycle - packet.created_cycle))
    for pid, train in trains.items():
        packet = by_id[pid]
        expected = [None] * packet.header_flits + list(packet.payloads)
        if train != expected[:len(train)]:
            yield f"{kind}.order", f"packet {pid} ejected {train}, sent {expected}"

    injected = sum(q.flit_count for q in packets)
    if injected != len(sunk) + stats.flits_dropped + in_flight:
        yield f"{kind}.conservation", (
            f"{injected} flits injected, {len(sunk)} ejected + "
            f"{stats.flits_dropped} dropped + {in_flight} in flight"
        )
    if stats.flits_delivered != len(sunk) - len(trains):
        yield f"{kind}.conservation", (
            f"flits_delivered={stats.flits_delivered}, but {len(sunk)} "
            f"ejections less {len(trains)} heads"
        )
    if sum(stats.flits_through_node.values()) != stats.flit_hops + len(sunk):
        yield f"{kind}.conservation", "router traversals != flit hops + ejections"
    if stats.packet_latencies != [lat for _pid, lat in tails]:
        yield f"{kind}.conservation", "packet latencies disagree with the delivery log"
    if clean:
        minimal = sum(
            (abs(q.dest[0] - q.source[0]) + abs(q.dest[1] - q.source[1]))
            * q.flit_count
            for q in packets
        )
        if len(tails) != len(packets) or stats.flit_hops != minimal:
            yield f"{kind}.conservation", (
                f"{len(tails)}/{len(packets)} packets delivered in "
                f"{stats.flit_hops} flit hops, minimal routes take {minimal}"
            )

    for pid, latency in tails:
        q = by_id[pid]
        hops = abs(q.dest[0] - q.source[0]) + abs(q.dest[1] - q.source[1])
        # Every router on the path routes the head (t_r) and moves it
        # (one cycle); the rest of the train follows a flit per cycle.
        floor = (hops + 1) * (1 + route_cycles) + q.flit_count - 1
        if latency < floor:
            yield f"{kind}.bounds", (
                f"packet {pid}: latency {latency} below its path floor {floor}"
            )
    if sunk and (stats.cycles != sunk[-1][0] + 1 if clean
                 else stats.cycles <= sunk[-1][0]):
        yield f"{kind}.bounds", (
            f"run ended at cycle {stats.cycles}, last ejection at {sunk[-1][0]}"
        )


def _transpose_cycles(p: Params) -> int | None:
    """The exact cycle count of a fault-free mesh-kind transpose, or None.

    Each packet is one header and one data flit, all to the memory
    interface at (0, 0).  At t_p >= 2 the sink sets the pace: E elements
    take ``E·(1 + t_p) + 3 − t_p`` cycles (``E·(1 + t_p)`` is no lower
    bound).  At t_p = 1 the network does, and a ``w × h`` mesh with
    ``cols`` elements per row takes ``cols·(3wh − 2w + 1) + 1`` (the
    compiled engine's closed form).
    """
    if p["workload"] != "transpose" or p["fault"] != "none":
        return None
    tp, elements = p["reorder"], p["processors"] * p["cols"]
    if tp >= 2:
        return elements * (1 + tp) + 3 - tp
    side = math.isqrt(p["processors"])
    return p["cols"] * (3 * side * side - 2 * side + 1) + 1


def _trace_invariants(session, run: _MeshRun) -> Iterable[tuple[str, str]]:
    """The semantic trace agrees with the delivery log and the counters."""
    delivered = [
        (int(e.ts), e.track, e.args["packet"])
        for e in session.tracer.events if e.cat == "mesh" and e.name == "deliver"
    ]
    expected = [(r.cycle, f"node{r.node}", r.packet_id) for r in run.net.sunk]
    if delivered != expected:
        yield "mesh.trace", _diff_repr(expected, delivered)
    faults = [e for e in session.tracer.events if e.cat == "mesh.fault"]
    drops = [e.args for e in faults if e.name == "drop"]
    stats = run.stats
    seen = (
        sum(e.name == "reroute" for e in faults),
        sum(e.name == "quarantine" for e in faults),
        sum(d["flits"] for d in drops),
        {d["packet"] for d in drops},
    )
    counted = (stats.reroutes, stats.quarantine_events, stats.flits_dropped,
               set(stats.packets_lost))
    if seen != counted:
        yield "mesh.trace", (
            f"fault events (reroutes, quarantines, flits dropped, lost) "
            f"{seen} != counters {counted}"
        )


def _check_mesh(case: FuzzCase) -> Iterable[tuple[str, str]]:
    """The reference engine's invariants and metamorphic relations."""
    from ..mesh import mesh_signature
    from ..obs import ObsConfig, ObsSession

    p = case.params
    clean = p["fault"] == "none"
    session = ObsSession(ObsConfig()) if p.get("trace") else None
    run = _mesh_run(p, session=session)
    in_flight = sum(map(len, run.net._buffers.values())) + sum(
        map(len, run.net._inject.values())
    )
    sunk = mesh_signature(run.net, run.stats)[-1]
    sinks = {"memory": run.net._memory_nodes, "reorder": p["reorder"]}
    yield from _mesh_invariants("mesh", run.packets, run.stats, sunk, **sinks,
                                route_cycles=1, clean=clean, in_flight=in_flight)
    law = _transpose_cycles(p)
    if law is not None and run.stats.cycles != law:
        yield "mesh.bounds", f"transpose took {run.stats.cycles} cycles, not {law}"
    if session is not None:
        yield from _trace_invariants(session, run)

    seen = _observe(run)
    relations = [("mesh.shift", {"shift": _ID_SHIFT})]
    if clean:
        relations.append(("mesh.step", {"stepped": True}))
    if p["workload"] == "transpose":
        # Random and scatter traffic meets north and south inputs at one
        # router, where round-robin order is not mirror-symmetric.
        relations.append(("mesh.mirror", {"mirror": True}))
    for oracle, kwargs in relations:
        other = _run_mesh_case(p, **kwargs)
        if other != seen:
            yield oracle, _diff_repr(seen, other)
    if clean:
        # At t_r = 1 a head routed in one cycle is ready in the next,
        # the first one it is planned again, so a deeper pipeline is the
        # only place the header-delay charge shows.
        deep = _mesh_run(p, route_cycles=2)
        for oracle, detail in _mesh_invariants(
            "mesh", deep.packets, deep.stats,
            mesh_signature(deep.net, deep.stats)[-1], **sinks, route_cycles=2,
            clean=True,
        ):
            yield oracle, f"t_r=2: {detail}"


# ---------------------------------------------------------------------------
# crc check
# ---------------------------------------------------------------------------


def _random_value(rng: random.Random, depth: int) -> Any:
    kinds = ["int", "bigint", "float", "complex", "str", "bytes", "none",
             "bool"]
    if depth > 0:
        kinds += ["tuple", "list"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(-(2 ** 16), 2 ** 16)
    if kind == "bigint":
        return rng.randrange(-(2 ** 80), 2 ** 80)
    if kind == "float":
        # Exact binary fractions round-trip bit-for-bit through the
        # big-endian double encoding.
        return rng.randrange(-(2 ** 20), 2 ** 20) / 1024.0
    if kind == "complex":
        return complex(rng.randrange(-100, 100) / 8.0,
                       rng.randrange(-100, 100) / 8.0)
    if kind == "str":
        alphabet = "abcXYZ012 éπ"
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 12))
        )
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 10)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    return tuple(items) if kind == "tuple" else list(items)


def _check_crc(case: FuzzCase) -> Iterable[tuple[str, str]]:
    from ..faults.crc import (
        check_frame,
        flip_bits,
        frame_bits,
        pack_word,
        unpack_word,
    )
    from ..util.errors import TransientFaultError

    rng = random.Random(case.seed ^ 0xC2C)
    p = case.params
    values = [_random_value(rng, p["depth"]) for _ in range(p["values"])]
    for value in values:
        frame = pack_word(value)
        # Round-trip.
        try:
            back = unpack_word(frame)
        except TransientFaultError as exc:
            yield "crc.roundtrip", f"clean frame for {value!r} rejected: {exc}"
            continue
        if back != value or type(back) is not type(value):
            yield "crc.roundtrip", f"{value!r} decoded as {back!r}"
        # Frame determinism across object identity (the pack_word bug
        # this subsystem regression-guards: see tests/corpus/).
        twin = pack_word(copy.deepcopy(value))
        if twin != frame:
            yield "crc.determinism", (
                f"{value!r}: frame differs for an equal copy "
                f"({frame.hex()} vs {twin.hex()})"
            )
        nbits = frame_bits(frame)
        # 1-3 bit flips are always detected: CRC-16/CCITT keeps Hamming
        # distance 4 far beyond these frame lengths.
        for k in (1, 2, 3):
            if k > nbits:
                continue
            positions = rng.sample(range(nbits), k)
            corrupted = flip_bits(frame, positions)
            if check_frame(corrupted):
                yield "crc.detection", (
                    f"{k}-bit flip at {positions} passed CRC for {value!r}"
                )
            if flip_bits(corrupted, positions) != frame:
                yield "crc.involution", f"flip_bits not involutive at {positions}"
    # Heavy-corruption accounting on one representative frame.
    frame = pack_word(tuple(values) if values else 0)
    nbits = frame_bits(frame)
    detected = collisions = decode_errors = 0
    for _ in range(p["flip_trials"]):
        k = rng.randrange(1, min(p["max_flips"], nbits) + 1)
        corrupted = flip_bits(frame, rng.sample(range(nbits), k))
        if not check_frame(corrupted):
            detected += 1
            continue
        collisions += 1
        try:
            unpack_word(corrupted)
        except TransientFaultError:
            decode_errors += 1
    if detected + collisions != p["flip_trials"]:
        yield "crc.accounting", (
            f"{detected} detected + {collisions} collisions != "
            f"{p['flip_trials']} trials"
        )


# ---------------------------------------------------------------------------
# analytic check
# ---------------------------------------------------------------------------


def _check_analytic(case: FuzzCase) -> Iterable[tuple[str, str]]:
    from ..analysis.transpose_model import (
        measure_mesh_transpose,
        mesh_transpose_cycles_model,
    )

    p = case.params
    measured = measure_mesh_transpose(
        p["processors"], p["cols"], reorder_cycles=p["reorder"]
    )
    model = mesh_transpose_cycles_model(
        p["processors"], p["cols"], reorder_cycles=p["reorder"]
    )
    # The hot sink serializes every element at (header decode + t_p)
    # cycles apiece; the final element's service overlaps run teardown,
    # hence the (elements - 1) floor.
    floor = (measured.elements - 1) * (1 + p["reorder"])
    if measured.mesh_cycles < floor:
        yield "analytic.floor", (
            f"measured {measured.mesh_cycles} below the sink serialization "
            f"floor {floor}"
        )
    ratio = measured.mesh_cycles / model
    lo, hi = ANALYTIC_BAND
    if not (lo <= ratio <= hi):
        yield "analytic.band", (
            f"measured/model ratio {ratio:.3f} outside [{lo}, {hi}] "
            f"(measured={measured.mesh_cycles}, model={model:.1f})"
        )


def _whole_dram_rows(p: Params) -> bool:
    """pscan reference: whole DRAM rows (64-bit words, 2048-bit rows)."""
    return p["processors"] * p["cols"] % 32 == 0


# ---------------------------------------------------------------------------
# gather executor and check
# ---------------------------------------------------------------------------


def _gather_run(p: Params):
    """One protected gather; fresh simulator/fault model per run."""
    from ..core.pscan import Pscan
    from ..core.schedule import transpose_order
    from ..faults import DriftEpisode, PscanFaultModel, ReliableGather, RetryPolicy
    from ..photonics import Waveguide
    from ..sim import Simulator

    nodes, words = p["nodes"], p["words"]
    sim = Simulator()
    pitch = 2.0
    length = pitch * (nodes + 1)
    pscan = Pscan(
        sim,
        Waveguide(length_mm=length),
        {i: pitch * (i + 1) for i in range(nodes)},
    )
    if p["ber_exp"]:
        episodes = ()
        if p["drift"]:
            episodes = (
                DriftEpisode(start_ns=0.0, end_ns=50.0, drift_nm=0.02,
                             node=0, peak_penalty_db=2.0),
            )
        PscanFaultModel(
            ber=10.0 ** -p["ber_exp"],
            drift_episodes=episodes,
            seed=p["fseed"],
        ).install(pscan)
    order = transpose_order(nodes, words)
    data = {
        n: [complex(n + 0.25 * w, -w) for w in range(words)]
        for n in range(nodes)
    }
    gather = ReliableGather(pscan, RetryPolicy(max_retries=16))
    result = gather.gather(order, data, receiver_mm=length,
                           raise_on_exhaust=False)
    return result, order, data


def _gather_signature(p: Params) -> tuple:
    result = _gather_run(p)[0]
    return result.stats, sorted(result.values.items()), result.residual


def _check_gather(case: FuzzCase) -> Iterable[tuple[str, str]]:
    p = case.params
    result, order, data = _gather_run(p)
    stats = result.stats
    values = dict(result.values)
    pairs = set(order)
    extra = set(values) - pairs
    if extra:
        yield "gather.conservation", (
            f"delivered words never scheduled: {sorted(extra)[:5]}"
        )
    if result.complete and stats.undetected_errors == 0:
        wrong = [
            (node, w) for (node, w), v in values.items() if v != data[node][w]
        ]
        if wrong:
            yield "gather.payload", (
                f"complete gather delivered wrong words: {wrong[:5]}"
            )
    if p["ber_exp"] == 0:
        clean = (
            stats.epochs == 1
            and stats.crc_nacks == 0
            and stats.retransmitted_words == 0
            and stats.backoff_cycles == 0
            and stats.total_cycles
            == stats.baseline_cycles + stats.crc_overhead_cycles
            and not result.residual
        )
        if not clean:
            yield "gather.zero_overhead", (
                f"fault-free gather shows recovery activity: {stats}"
            )
        if values != {(n, w): data[n][w] for n, w in pairs}:
            yield "gather.payload", "fault-free gather payload mismatch"


# ---------------------------------------------------------------------------
# schedule / analyzer check
# ---------------------------------------------------------------------------


def _mutate_spec(spec, mutation: str, rng: random.Random) -> None:
    """Apply one raw-level mutation in place.  Every mutation is a bug."""
    nodes = sorted(spec.programs)
    node = nodes[rng.randrange(len(nodes))]
    slots = spec.programs[node]
    idx = rng.randrange(len(slots))
    start, length, role, offset = slots[idx]
    if mutation == "drop_slot":
        # Vacates >= 1 cycle: guaranteed SCH002 gap (or SCH005/6).
        del slots[idx]
        if not slots:
            del spec.programs[node]
    elif mutation == "extend_slot":
        # Claims one extra cycle: collision or beyond-total.
        slots[idx] = (start, length + 1, role, offset)
    elif mutation == "shift_slot":
        # Vacates its first cycle and claims one past its end.
        slots[idx] = (start + 1, length, role, offset)
    elif mutation == "word_offset":
        # Moves the wrong words: conservation / order mismatch.
        slots[idx] = (start, length, role, offset + 1 + rng.randrange(3))
    else:
        raise ValueError(f"unknown mutation {mutation!r}")


def _check_schedule(case: FuzzCase) -> Iterable[tuple[str, str]]:
    from ..core.schedule import gather_schedule
    from .analyzer import ScheduleSpec, analyze_schedule

    p = case.params
    order = _schedule_order(p)
    schedule = gather_schedule(order)
    expected_words: dict[int, list[int]] = {}
    for node, word in order:
        expected_words.setdefault(node, []).append(word)
    spec = ScheduleSpec.from_schedule(schedule, expected_words=expected_words)
    report = analyze_schedule(spec)
    if not report.ok:
        yield "schedule.clean", (
            f"valid compiled schedule flagged: {report.codes()}"
        )
    mutation = p["mutation"]
    if mutation != "none":
        rng = random.Random(case.seed ^ 0x5CED)
        mutant = copy.deepcopy(spec)
        _mutate_spec(mutant, mutation, rng)
        if not analyze_schedule(mutant).errors:
            yield "schedule.mutant", (
                f"mutation {mutation!r} produced no ERROR diagnostic"
            )


def _divisible(*couplings: tuple[str, str]) -> Callable[[Params], bool]:
    """Constructibility: each present ``(dividend, divisor)`` divides evenly."""
    def constructible(p: Params) -> bool:
        return all(
            p[divisor] >= 1 and p[dividend] % p[divisor] == 0
            for dividend, divisor in couplings
            if dividend in p and divisor in p
        )
    return constructible


# ---------------------------------------------------------------------------
# compiled-engine executors and refusal check
# ---------------------------------------------------------------------------


def _run_compiled_sca(params: Params, engine: str, session=None):
    """Run one (or two back-to-back) SCA transactions; return signatures."""
    from ..core import Pscan, gather_schedule, scatter_schedule
    from ..photonics import Waveguide
    from ..sim import Simulator

    nodes, words = params["nodes"], params["words"]
    pitch = 10.0
    length = (nodes + 1) * pitch + 10.0
    sim = Simulator()
    wg = Waveguide(length_mm=length)
    positions = {i: (i + 1) * pitch for i in range(nodes)}
    ps = Pscan(sim, wg, positions, engine=engine)
    if session is not None:
        ps.attach_observer(session)
    order = _schedule_order(params)
    sigs = []
    for rep in range(2 if params.get("repeat") else 1):
        if params["op"] == "gather":
            sched = gather_schedule(order)
            data = {
                n: [complex(n, w + 7 * rep) for w in range(words)]
                for n in range(nodes)
            }
            ex = ps.execute_gather(sched, data, receiver_mm=length)
        else:
            sched = scatter_schedule(order)
            burst = [complex(rep, i) for i in range(len(order))]
            ex = ps.execute_scatter(sched, burst, source_mm=0.0)
        sigs.append((_sca_signature(ex), ps.total_bits_moved, ps.sim.now))
    return tuple(sigs)


def _canon_sca_trace(events: list[dict]) -> list[dict]:
    """Order exactly-coincident instants canonically.

    The waveguide geometry makes word flight times exact multiples of
    the bus period, so a later modulation and an earlier word's arrival
    can share one float timestamp; the event queue breaks that tie by
    timeout insertion sequence, which is not part of the compiled
    engine's contract.  Comparing canonically-sorted traces still pins
    the exact multiset of instants at every timestamp.
    """
    return sorted(events, key=lambda ev: (
        ev.get("ts", 0.0),
        ev.get("name", ""),
        ev.get("track", ""),
        sorted((ev.get("args") or {}).items()),
    ))


def _sca_trace(params: Params, engine: str) -> list[dict]:
    """Run with an obs session; return the ``sca`` events, canonical."""
    from ..obs import ObsConfig, ObsSession, normalize_events

    session = ObsSession(ObsConfig())
    _run_compiled_sca(params, engine, session=session)
    return _canon_sca_trace(
        normalize_events(session.tracer.events, categories=("sca",))
    )


def _run_compiled_mesh(params: Params, engine: str) -> tuple:
    # Drop the trailing ``sunk`` records: the compiled engine documents
    # them as unpopulated (flit interleaving is not modelled).
    return _run_mesh_case(params, engine)[0][:-1]


def _compiled_mesh(p: Params) -> bool:
    return p.get("target") == "mesh"


def _compiled_mesh_in_domain(p: Params) -> bool:
    """A compiled-kind mesh case the compiled engine must answer.

    Every ``reorder >= 2`` case; at ``reorder == 1`` only 2-flit packets
    (the generated meshes are all at least 2x2 with the sink at (0, 0)).
    """
    return _compiled_mesh(p) and (
        p["reorder"] >= 2
        or (p["elements_per_packet"] == 1 and p["header_flits"] == 1)
    )


def _check_compiled_refusal(case: FuzzCase) -> Iterable[tuple[str, str]]:
    """Outside the compiled mesh domain it must refuse, loudly.

    The only out-of-domain compiled-kind mesh cases are ``reorder=1``
    with more than one element or header flit per packet; they must
    raise :class:`~repro.util.errors.EngineUnsupportedError` naming
    ``reorder_cycles``.
    """
    from ..util.errors import EngineUnsupportedError

    p = case.params
    if not _compiled_mesh(p) or _compiled_mesh_in_domain(p):
        return
    try:
        _run_compiled_mesh(p, "compiled")
    except EngineUnsupportedError as exc:
        if exc.feature != "reorder_cycles":
            yield "compiled.mesh.refusal", (
                f"expected feature 'reorder_cycles', got {exc.feature!r}"
            )
    else:
        yield "compiled.mesh.refusal", (
            "reorder=1 with packets of more than 2 flits must raise "
            "EngineUnsupportedError, ran instead"
        )


# ---------------------------------------------------------------------------
# batched-campaign check
# ---------------------------------------------------------------------------


def _check_batched(case: FuzzCase) -> Iterable[tuple[str, str]]:
    """Cross-execute the SIMD-lockstep engine against the scalar loop.

    One batched call per case; the scalar reference replays exactly the
    same lanes one seed at a time.  Any row-level difference — result
    payload, stats, timing — is a divergence, as is unbalanced
    clean/recovered/replayed accounting, a divergent lane with the
    injector off, or a drift-free gather lane that replayed scalar
    instead of recovering in lockstep.
    """
    from ..faults.batched import (
        run_gather_campaign_batch,
        run_mesh_campaign_batch,
    )
    from ..faults.campaign import (
        CampaignConfig,
        _run_gather_trial,
        _run_mesh_trial,
    )
    from ..faults.models import DriftEpisode

    p = case.params
    rng = random.Random(p["sseed"])
    seeds = [rng.randrange(2 ** 32) for _ in range(p["lanes"])]
    target = p["target"]

    if target == "gather":
        episodes = ()
        if p.get("drift"):
            # Two part-coverage windows: some words see a raised BER,
            # others the base rate — the draw-lockstep accounting must
            # stay exact either way.
            episodes = (
                DriftEpisode(start_ns=0.0, end_ns=60.0, drift_nm=0.03),
                DriftEpisode(
                    start_ns=80.0, end_ns=200.0, drift_nm=0.05, node=1
                ),
            )
        config = CampaignConfig(
            processors=p["processors"],
            row_samples=p["row_samples"],
            trials=1,
            seed=0,
            drift_episodes=episodes,
        )
        ber = 10.0 ** -p["ber_exp"] if p["ber_exp"] else 0.0
        injector_off = ber == 0.0
        batch = run_gather_campaign_batch(config, ber, seeds)
        scalar = [_run_gather_trial(config, ber, s) for s in seeds]
    elif target == "mesh":
        config = CampaignConfig(
            processors=p["processors"], row_samples=2, trials=1, seed=0
        )
        lanes = [(rng.randrange(p["max_dead"] + 1), s) for s in seeds]
        injector_off = all(dead == 0 for dead, _ in lanes)
        batch = run_mesh_campaign_batch(config, lanes)
        scalar = [_run_mesh_trial(config, dead, s) for dead, s in lanes]
    else:
        raise ValueError(f"unknown batched target {target!r}")

    if batch.rows != scalar:
        lane = next(
            (i for i, (b, s) in enumerate(zip(batch.rows, scalar)) if b != s),
            None,
        )
        yield f"batched.{target}", (
            f"lane {lane} (seed {seeds[lane] if lane is not None else '?'}): "
            + _diff_repr(batch.rows, scalar)
        )
    accounted = batch.lanes_clean + batch.lanes_recovered + batch.lanes_replayed
    if accounted != len(seeds):
        yield "batched.accounting", (
            f"{batch.lanes_clean} clean + {batch.lanes_recovered} recovered "
            f"+ {batch.lanes_replayed} replayed != {len(seeds)} lanes"
        )
    if injector_off and (batch.lanes_recovered or batch.lanes_replayed):
        yield "batched.zero_replay", (
            f"injector disabled yet {batch.lanes_recovered} lane(s) "
            f"recovered and {batch.lanes_replayed} fell back to scalar "
            f"replay"
        )
    if target == "gather" and not p.get("drift") and batch.lanes_replayed:
        yield "batched.lockstep", (
            f"{batch.lanes_replayed} drift-free gather lane(s) fell back "
            f"to scalar replay instead of lockstep recovery"
        )


# ---------------------------------------------------------------------------
# workload-registry executors and lint check
# ---------------------------------------------------------------------------


def _workload(p: Params):
    """A fresh description: descriptions are single-shot, one per run."""
    from ..workloads import build_workload

    params = {k: v for k, v in p.items() if k not in ("name", "reorder")}
    return build_workload(p["name"], **params)


def _run_workload_mesh(p: Params, shift: int = 0):
    """A reference run; ``shift`` is added to every packet id first."""
    from ..workloads import run_on_mesh

    desc = _workload(p)
    if shift:
        desc = replace(desc, packets=tuple(
            replace(q, packet_id=q.packet_id + shift) for q in desc.packets
        ))
    return desc, run_on_mesh(desc, "reference", reorder=p["reorder"])


def _check_workload_mesh(case: FuzzCase) -> Iterable[tuple[str, str]]:
    """A family's reference run: invariants, then the id-shift relation."""
    desc, result = _run_workload_mesh(case.params)
    yield from _mesh_invariants(
        "workload", desc.packets, result.stats, result.mesh_signature[-1],
        memory=desc.memory_nodes, reorder=case.params["reorder"],
        route_cycles=1, clean=True,
    )
    _desc, shifted = _run_workload_mesh(case.params, shift=_ID_SHIFT)
    for aspect in ("mesh_signature", "slo", "pairs"):
        x, y = getattr(result, aspect), getattr(shifted, aspect)
        if x != y:
            yield f"workload.shift.{aspect}", _diff_repr(x, y)


def _run_workload_cp(p: Params, engine: str) -> tuple:
    from ..workloads import run_cp_phases

    return tuple(
        _sca_signature(ex) for ex in run_cp_phases(_workload(p), engine)
    )


def _check_workload_lint(case: FuzzCase) -> Iterable[tuple[str, str]]:
    from .analyzer import analyze_traffic

    report = analyze_traffic(_workload(case.params))
    if not report.ok:
        yield "workload.lint", "; ".join(str(d) for d in report.errors[:4])


# ---------------------------------------------------------------------------
# the kind table
# ---------------------------------------------------------------------------

#: Shrink candidates for mesh sizes: ``MeshTopology.square`` grids.
_SQUARES = tuple(n * n for n in range(2, 8))
#: RNG seeds shrink only to the canonical 0 — not "smaller", but a
#: canonical value makes a committed seed easier to reason about.
_SEED = (0,)

KINDS: dict[str, Kind] = {
    "mesh": Kind(
        _gen_mesh,
        checks=(_check_mesh,),
        floors={"processors": _SQUARES, "reorder": 1, "cols": 1,
                "packets_per_node": 1, "wseed": _SEED,
                "words_per_processor": 1, "k": 1},
        constructible=_divisible(("words_per_processor", "k")),
    ),
    "crc": Kind(
        _gen_crc,
        checks=(_check_crc,),
        floors={"values": 1, "depth": 1, "flip_trials": 1, "max_flips": 1},
    ),
    "analytic": Kind(
        _gen_analytic,
        checks=(_check_analytic,),
        floors={"processors": _SQUARES, "cols": 1, "reorder": 1},
        constructible=_whole_dram_rows,
    ),
    "gather": Kind(
        _gen_gather,
        pairs=(Pair("gather.determinism", _gather_signature, _gather_signature),),
        checks=(_check_gather,),
        floors={"nodes": 2, "words": 1, "ber_exp": 0, "fseed": _SEED},
    ),
    "schedule": Kind(
        _gen_schedule,
        checks=(_check_schedule,),
        floors={"rows": 2, "cols": 1, "nodes": 2, "words": 1, "block": 1,
                "control_words": 0, "data_words": 1, "k": 1, "pseed": _SEED},
        constructible=_divisible(("data_words", "k"), ("words", "block")),
    ),
    "compiled": Kind(
        _gen_compiled,
        pairs=(
            Pair("compiled.sca", partial(_run_compiled_sca, engine="event"),
                 partial(_run_compiled_sca, engine="compiled"),
                 when=lambda p: not _compiled_mesh(p)),
            Pair("compiled.sca.trace", partial(_sca_trace, engine="event"),
                 partial(_sca_trace, engine="compiled"),
                 when=lambda p: not _compiled_mesh(p) and p.get("trace")),
            Pair("compiled.mesh", partial(_run_compiled_mesh, engine="reference"),
                 partial(_run_compiled_mesh, engine="compiled"),
                 when=_compiled_mesh_in_domain),
        ),
        checks=(_check_compiled_refusal,),
        floors={"nodes": 2, "words": 1, "block": 1, "pseed": _SEED,
                "processors": _SQUARES, "cols": 1, "reorder": 1,
                "elements_per_packet": 1, "header_flits": 1},
        constructible=_divisible(("words", "block"),
                                 ("cols", "elements_per_packet")),
    ),
    "batched": Kind(
        _gen_batched,
        checks=(_check_batched,),
        floors={"lanes": 1, "sseed": _SEED, "processors": _SQUARES,
                "row_samples": 1, "ber_exp": 0, "max_dead": 0},
    ),
    "workload": Kind(
        _gen_workload,
        pairs=(
            Pair("workload.cp", partial(_run_workload_cp, engine="event"),
                 partial(_run_workload_cp, engine="compiled"),
                 when=lambda p: _workload(p).cp_phases),
        ),
        checks=(_check_workload_mesh, _check_workload_lint),
        floors={"processors": _SQUARES, "reorder": 1, "words_per_pair": 1,
                "words": 1, "halo": 1, "batch": 1, "features_in": 1,
                "features_out": 1, "packets_per_node": 1, "seed": _SEED,
                "cols": 1},
    ),
}

#: Kind names in table order (the order :func:`generate_case` draws from).
CASE_KINDS = tuple(KINDS)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _compare(pair: Pair, params: Params) -> Iterable[tuple[str, str]]:
    """Run both executors of ``pair``; yield ``(oracle, detail)`` per mismatch."""
    if pair.when is not None and not pair.when(params):
        return
    a, b = pair.a(params), pair.b(params)
    for aspect in pair.aspects or (None,):
        oracle = f"{pair.oracle}.{aspect}" if aspect else pair.oracle
        x, y = (getattr(a, aspect), getattr(b, aspect)) if aspect else (a, b)
        if not x:
            yield oracle, "executor A observed nothing"
        elif x != y:
            yield oracle, _diff_repr(x, y)


def run_case(case: FuzzCase) -> list[Divergence]:
    """Execute one case's row; unexpected exceptions are divergences."""
    row = KINDS.get(case.kind)
    if row is None:
        raise ValueError(f"unknown fuzz kind {case.kind!r}")
    try:
        found = [d for pair in row.pairs for d in _compare(pair, case.params)]
        found += [d for check in row.checks for d in check(case)]
    except Exception as exc:  # noqa: BLE001 — a crash *is* a finding
        return [
            Divergence(case, f"{case.kind}.exception",
                       f"{type(exc).__name__}: {exc}")
        ]
    return [Divergence(case, oracle, detail) for oracle, detail in found]


def run_fuzz(
    cases: int = 50,
    seed: int = 0,
    kinds: Iterable[str] | None = None,
    on_divergence: Callable[[Divergence], None] | None = None,
) -> FuzzResult:
    """Generate and run ``cases`` cases derived from ``seed``.

    Case ``i`` uses derived seed ``seed * 1_000_003 + i``, so a corpus
    seed file can name the exact case without replaying the run.
    """
    result = FuzzResult()
    start = time.perf_counter()
    for i in range(cases):
        case = generate_case(seed * 1_000_003 + i, kinds=kinds)
        result.by_kind[case.kind] = result.by_kind.get(case.kind, 0) + 1
        found = run_case(case)
        result.divergences.extend(found)
        if on_divergence is not None:
            for div in found:
                on_divergence(div)
        result.cases_run += 1
    result.elapsed_s = time.perf_counter() - start
    return result
