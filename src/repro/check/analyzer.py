"""Static invariant analyzer for CPs, global schedules and mesh configs.

The SCA's correctness argument is purely about collision-free timing on
the waveguide (paper §III, Fig. 4): every bus cycle of a gather is
driven by exactly one node, with no gaps and no word driven twice.  The
constructors in :mod:`repro.core` *enforce* those invariants by raising
on the first violation; this module instead **lints** them — it accepts
possibly-invalid raw descriptions, finds *every* violation, and reports
each as a structured :class:`Diagnostic` with a source span, the way a
compiler front-end reports type errors.

Three analysis entry points:

* :func:`analyze_schedule` — the Fig. 4 invariant on a
  :class:`ScheduleSpec` (slot geometry, intra-CP overlap, cross-node
  collision, gaps, duplicate/missing words, order agreement);
* :func:`analyze_mesh_config` — credit-balance and buffer-bound checks
  for mesh configurations (raw dicts or live config objects);
* :func:`analyze_workload` — flit/word conservation for transpose
  gathers (payload addresses must tile the matrix exactly once) and
  endpoint validity;
* :func:`analyze_traffic` — the generic form for any
  :class:`repro.workloads.TrafficDescription`: endpoint validity,
  memory-interface placement, unintended self-traffic, and a full
  schedule lint of every CP phase of the photonic lowering.

:func:`lint_all` runs the whole canned registry of shipped workloads —
every schedule/config family the ``examples/`` and ``benchmarks/``
trees construct — which is what ``python -m repro check lint`` executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..util.errors import ConfigError

__all__ = [
    "Severity",
    "SourceSpan",
    "Diagnostic",
    "LintReport",
    "ScheduleSpec",
    "analyze_program",
    "analyze_schedule",
    "analyze_mesh_config",
    "analyze_workload",
    "analyze_traffic",
    "lint_target",
    "lint_targets",
    "lint_all",
]

#: Diagnostic severities (errors fail the lint; warnings do not).
ERROR = "error"
WARNING = "warning"
Severity = str


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Where in the linted object a diagnostic points.

    ``target`` names the object ("schedule", "node 3", "config.buffer_flits",
    "packet 17"); the optional cycle range pins the waveguide-timeline
    extent, so a slot collision reads like a compiler error with a span.
    """

    target: str
    cycle_start: int | None = None
    cycle_end: int | None = None

    def __str__(self) -> str:
        if self.cycle_start is None:
            return self.target
        if self.cycle_end is None or self.cycle_end == self.cycle_start + 1:
            return f"{self.target} @ cycle {self.cycle_start}"
        return f"{self.target} @ cycles [{self.cycle_start}, {self.cycle_end})"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structured lint finding."""

    code: str
    severity: Severity
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.severity} {self.code} [{self.span}]: {self.message}"


@dataclass
class LintReport:
    """All diagnostics for one linted target."""

    target: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        """Error-severity findings (these fail the lint)."""
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was raised."""
        return not self.errors

    def codes(self) -> set[str]:
        """The set of diagnostic codes present (mutation-test helper)."""
        return {d.code for d in self.diagnostics}

    def as_text(self) -> str:
        """Human-readable, one line per diagnostic."""
        status = "ok" if self.ok else f"{len(self.errors)} error(s)"
        lines = [f"{self.target}: {status}"]
        lines += [f"  {d}" for d in self.diagnostics]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# schedule analysis
# ---------------------------------------------------------------------------

#: Raw slot row: (start_cycle, length, role, word_offset).
RawSlot = tuple[int, int, str, int]


@dataclass
class ScheduleSpec:
    """Neutral, possibly-invalid description of a global schedule.

    Unlike :class:`repro.core.schedule.GlobalSchedule`, a spec can hold
    violations (overlapping slots, gaps, duplicated words) — the whole
    point of linting before simulation.  Built by hand (mutation tests,
    fuzzers) or from a live schedule via :meth:`from_schedule`.
    """

    kind: str  # "gather" | "scatter"
    total_cycles: int
    #: node id -> raw slot rows.
    programs: dict[int, list[RawSlot]] = field(default_factory=dict)
    #: Optional declared cycle -> (node, word) provenance to cross-check.
    order: list[tuple[int, int]] | None = None
    #: Optional conservation spec: node -> exact word indices it must move.
    expected_words: dict[int, tuple[int, ...]] | None = None

    @classmethod
    def from_schedule(
        cls,
        schedule: Any,
        expected_words: dict[int, Iterable[int]] | None = None,
    ) -> "ScheduleSpec":
        """Snapshot a live ``GlobalSchedule`` through its introspection hooks."""
        return cls(
            kind=schedule.kind,
            total_cycles=schedule.total_cycles,
            programs={
                node: cp.as_raw() for node, cp in schedule.programs.items()
            },
            order=list(schedule.order) if schedule.order else None,
            expected_words=(
                {n: tuple(sorted(ws)) for n, ws in expected_words.items()}
                if expected_words is not None
                else None
            ),
        )

    @property
    def active_role(self) -> str:
        """Role whose slots claim bus cycles for this kind."""
        return "drive" if self.kind == "gather" else "listen"


def analyze_program(node_id: int, slots: list[RawSlot]) -> list[Diagnostic]:
    """Lint one node's CP: slot geometry and intra-program overlap."""
    out: list[Diagnostic] = []
    target = f"node {node_id}"
    for idx, (start, length, _role, offset) in enumerate(slots):
        if start < 0 or length <= 0 or offset < 0:
            out.append(Diagnostic(
                code="SLOT001",
                severity=ERROR,
                message=(
                    f"slot {idx} has invalid geometry "
                    f"(start={start}, length={length}, word_offset={offset})"
                ),
                span=SourceSpan(target, start, start + max(length, 1)),
            ))
    ordered = sorted(
        (s for s in slots if s[1] > 0), key=lambda s: s[0]
    )
    for a, b in zip(ordered, ordered[1:]):
        if b[0] < a[0] + a[1]:
            out.append(Diagnostic(
                code="SLOT002",
                severity=ERROR,
                message=(
                    f"slots starting at cycles {a[0]} and {b[0]} overlap "
                    "within one CP — a node cannot drive and re-drive the "
                    "same bus cycle"
                ),
                span=SourceSpan(target, b[0], min(a[0] + a[1], b[0] + b[1])),
            ))
    return out


def analyze_schedule(spec: ScheduleSpec | Any) -> LintReport:
    """Lint a global schedule against the Fig. 4 waveguide invariant.

    Accepts a :class:`ScheduleSpec` or a live ``GlobalSchedule`` (which
    is snapshotted first).  Checks, in order: per-CP slot geometry and
    overlap (``SLOT00x``), cross-node slot collisions on the waveguide
    timeline (``SCH001``), unclaimed cycles / gaps (``SCH002``), claims
    beyond the burst (``SCH003``), duplicated words (``SCH004``), word
    conservation against the expected per-node word sets (``SCH005``),
    and declared-order agreement (``SCH006``).
    """
    if not isinstance(spec, ScheduleSpec):
        spec = ScheduleSpec.from_schedule(spec)
    report = LintReport(target=f"{spec.kind} schedule")

    for node_id in sorted(spec.programs):
        report.diagnostics.extend(
            analyze_program(node_id, spec.programs[node_id])
        )

    # Build the waveguide timeline from active-role slots with sane
    # geometry (degenerate slots already carry SLOT001).
    active = spec.active_role
    claims: dict[int, list[int]] = {}
    words: dict[tuple[int, int], list[int]] = {}
    for node_id in sorted(spec.programs):
        for start, length, role, offset in spec.programs[node_id]:
            if role != active or length <= 0 or start < 0:
                continue
            for i in range(length):
                cycle = start + i
                claims.setdefault(cycle, []).append(node_id)
                words.setdefault((node_id, offset + i), []).append(cycle)

    # SCH001: two nodes modulating the same bus cycle — the photonic
    # collision the SCA exists to prevent (Fig. 4).
    for cycle in sorted(claims):
        nodes = claims[cycle]
        if len(nodes) > 1:
            report.diagnostics.append(Diagnostic(
                code="SCH001",
                severity=ERROR,
                message=(
                    f"waveguide collision: nodes {sorted(set(nodes))} all "
                    f"{active} on cycle {cycle} — in-flight words would "
                    "overlap optically"
                ),
                span=SourceSpan("schedule", cycle),
            ))

    # SCH002: gaps (runs of unclaimed cycles inside the burst).
    missing = [c for c in range(spec.total_cycles) if c not in claims]
    for lo, hi in _runs(missing):
        report.diagnostics.append(Diagnostic(
            code="SCH002",
            severity=ERROR,
            message=(
                f"{hi - lo} unclaimed cycle(s) — the SCA burst would have "
                "gaps (bus utilization < 1)"
            ),
            span=SourceSpan("schedule", lo, hi),
        ))

    # SCH003: claims outside [0, total).
    beyond = sorted(c for c in claims if c >= spec.total_cycles)
    for lo, hi in _runs(beyond):
        report.diagnostics.append(Diagnostic(
            code="SCH003",
            severity=ERROR,
            message=(
                f"claims beyond the declared burst length "
                f"{spec.total_cycles}"
            ),
            span=SourceSpan("schedule", lo, hi),
        ))

    # SCH004: one word moved on several cycles.
    for (node_id, word), cycles in sorted(words.items()):
        if len(cycles) > 1:
            report.diagnostics.append(Diagnostic(
                code="SCH004",
                severity=ERROR,
                message=(
                    f"word {word} of node {node_id} moves on "
                    f"{len(cycles)} cycles {sorted(cycles)} — each word "
                    "must ride exactly one bus cycle"
                ),
                span=SourceSpan(f"node {node_id}", min(cycles)),
            ))

    # SCH005: conservation against the declared per-node word sets.
    if spec.expected_words is not None:
        moved: dict[int, set[int]] = {}
        for node_id, word in words:
            moved.setdefault(node_id, set()).add(word)
        for node_id in sorted(set(spec.expected_words) | set(moved)):
            expect = set(spec.expected_words.get(node_id, ()))
            got = moved.get(node_id, set())
            lost = sorted(expect - got)
            extra = sorted(got - expect)
            if lost:
                report.diagnostics.append(Diagnostic(
                    code="SCH005",
                    severity=ERROR,
                    message=(
                        f"node {node_id} never drives word(s) "
                        f"{lost[:8]} — the gather loses data"
                    ),
                    span=SourceSpan(f"node {node_id}"),
                ))
            if extra:
                report.diagnostics.append(Diagnostic(
                    code="SCH005",
                    severity=ERROR,
                    message=(
                        f"node {node_id} drives unexpected word(s) "
                        f"{extra[:8]} — outside its declared buffer"
                    ),
                    span=SourceSpan(f"node {node_id}"),
                ))

    # SCH006: declared order (cycle -> provenance) must match the slots.
    if spec.order is not None:
        if len(spec.order) != spec.total_cycles:
            report.diagnostics.append(Diagnostic(
                code="SCH006",
                severity=ERROR,
                message=(
                    f"declared order has {len(spec.order)} cycles but the "
                    f"schedule claims total_cycles={spec.total_cycles}"
                ),
                span=SourceSpan("order"),
            ))
        implied: dict[int, tuple[int, int]] = {}
        for (node_id, word), cycles in words.items():
            for cycle in cycles:
                implied.setdefault(cycle, (node_id, word))
        for cycle, declared in enumerate(spec.order):
            actual = implied.get(cycle)
            if actual is not None and tuple(declared) != actual:
                report.diagnostics.append(Diagnostic(
                    code="SCH006",
                    severity=ERROR,
                    message=(
                        f"order says cycle {cycle} carries "
                        f"(node {declared[0]}, word {declared[1]}) but the "
                        f"CPs drive (node {actual[0]}, word {actual[1]}) — "
                        "the receiver would observe the wrong order"
                    ),
                    span=SourceSpan("order", cycle),
                ))

    return report


def _runs(values: list[int]) -> list[tuple[int, int]]:
    """Collapse a sorted int list into [lo, hi) runs for compact spans."""
    runs: list[tuple[int, int]] = []
    for v in values:
        if runs and v == runs[-1][1]:
            runs[-1] = (runs[-1][0], v + 1)
        else:
            runs.append((v, v + 1))
    return runs


# ---------------------------------------------------------------------------
# mesh configuration analysis
# ---------------------------------------------------------------------------


def _cfg_get(config: Any, key: str, default: Any) -> Any:
    if isinstance(config, dict):
        return config.get(key, default)
    return getattr(config, key, default)


def analyze_mesh_config(
    config: Any,
    fault_config: Any = None,
    name: str = "mesh config",
) -> LintReport:
    """Lint a mesh configuration (live dataclass or raw dict).

    Field-bound checks (``MSH001``) mirror the constructors' rules so a
    raw dict can be vetted before instantiating anything; the cross-field
    checks are the analyzer's real value:

    * ``MSH002`` (credit balance): the fault layer's stall-break window
      (``max(4 * link_timeout_cycles, 64)``) must open *before* the
      deadlock watchdog (``deadlock_cycles``) fires, or a quarantine can
      never rescue a degraded run — the watchdog declares a stall first.
    * ``MSH003`` (buffer bound): wormhole flow control needs at least 2
      input-buffer flits per channel to overlap header routing with body
      flits; 1 serializes every hop (legal, but a known footgun).
    """
    from ..mesh.network import MESH_ENGINES

    report = LintReport(target=name)
    buffer_flits = _cfg_get(config, "buffer_flits", 2)
    header = _cfg_get(config, "header_route_cycles", 1)
    reorder = _cfg_get(config, "memory_reorder_cycles", 1)
    deadlock = _cfg_get(config, "deadlock_cycles", 10_000)
    engine = _cfg_get(config, "engine", "reference")
    vcs = _cfg_get(config, "virtual_channels", None)

    def bound(cond: bool, key: str, msg: str) -> None:
        if cond:
            report.diagnostics.append(Diagnostic(
                code="MSH001", severity=ERROR, message=msg,
                span=SourceSpan(f"config.{key}"),
            ))

    bound(buffer_flits < 1, "buffer_flits",
          f"buffer_flits must be >= 1, got {buffer_flits}")
    bound(header < 0, "header_route_cycles",
          f"header_route_cycles must be >= 0, got {header}")
    bound(reorder < 1, "memory_reorder_cycles",
          f"memory_reorder_cycles (t_p) must be >= 1, got {reorder}")
    bound(deadlock < 10, "deadlock_cycles",
          f"deadlock_cycles must be >= 10, got {deadlock}")
    bound(engine not in MESH_ENGINES, "engine",
          f"engine must be one of {MESH_ENGINES}, got {engine!r}")
    if vcs is not None:
        bound(vcs < 1, "virtual_channels",
              f"virtual_channels must be >= 1, got {vcs}")

    if buffer_flits == 1:
        report.diagnostics.append(Diagnostic(
            code="MSH003",
            severity=WARNING,
            message=(
                "buffer_flits=1 serializes header routing against body "
                "flits on every hop (the paper's mesh uses 2-flit buffers)"
            ),
            span=SourceSpan("config.buffer_flits"),
        ))

    if fault_config is not None:
        timeout = _cfg_get(fault_config, "link_timeout_cycles", 32)
        hop_factor = _cfg_get(fault_config, "max_hop_factor", 6)
        bound(timeout < 1, "fault.link_timeout_cycles",
              f"link_timeout_cycles must be >= 1, got {timeout}")
        bound(hop_factor < 2, "fault.max_hop_factor",
              f"max_hop_factor must be >= 2, got {hop_factor}")
        if timeout >= 1 and deadlock >= 10:
            stall_window = max(4 * timeout, 64)
            if stall_window >= deadlock:
                report.diagnostics.append(Diagnostic(
                    code="MSH002",
                    severity=ERROR,
                    message=(
                        f"credit imbalance: stall-break window "
                        f"{stall_window} (= max(4*link_timeout_cycles, 64)) "
                        f"is not below deadlock_cycles={deadlock}; the "
                        "watchdog would declare a stall before quarantine "
                        "recovery could ever shed a packet"
                    ),
                    span=SourceSpan("config.deadlock_cycles"),
                ))

    return report


# ---------------------------------------------------------------------------
# workload analysis
# ---------------------------------------------------------------------------


def analyze_workload(
    workload: Any,
    topology: Any,
    memory_nodes: Iterable[tuple[int, int]] = ((0, 0),),
    name: str = "workload",
) -> LintReport:
    """Lint a transpose-gather workload for flit/word conservation.

    ``WKL001``: the payload addresses across all packets must tile
    ``range(rows * cols)`` exactly once — a duplicated or missing linear
    address means the writeback would corrupt or lose matrix elements.
    ``WKL002``: every packet endpoint must exist in the topology.
    ``WKL003`` (warning): a gather destination that is not in
    ``memory_nodes`` will sink flits at processor rate with no reorder
    accounting.
    """
    report = LintReport(target=name)
    memory = set(memory_nodes)
    nodes = set(topology.nodes())
    seen: dict[int, int] = {}
    for idx, packet in enumerate(workload.packets):
        for endpoint, label in ((packet.source, "source"),
                                (packet.dest, "dest")):
            if tuple(endpoint) not in nodes:
                report.diagnostics.append(Diagnostic(
                    code="WKL002",
                    severity=ERROR,
                    message=(
                        f"packet {idx} {label} {endpoint} is outside the "
                        f"{topology.width}x{topology.height} mesh"
                    ),
                    span=SourceSpan(f"packet {idx}"),
                ))
        if tuple(packet.dest) in nodes and tuple(packet.dest) not in memory:
            report.diagnostics.append(Diagnostic(
                code="WKL003",
                severity=WARNING,
                message=(
                    f"packet {idx} gathers to {packet.dest}, which has no "
                    "memory interface — reorder cost t_p will not apply"
                ),
                span=SourceSpan(f"packet {idx}"),
            ))
        for payload in packet.payloads:
            if isinstance(payload, int):
                seen[payload] = seen.get(payload, 0) + 1

    total = workload.rows * workload.cols
    duplicated = sorted(a for a, n in seen.items() if n > 1)
    missing = sorted(set(range(total)) - set(seen))
    out_of_range = sorted(a for a in seen if not (0 <= a < total))
    if duplicated:
        report.diagnostics.append(Diagnostic(
            code="WKL001",
            severity=ERROR,
            message=(
                f"linear address(es) {duplicated[:8]} written more than "
                "once — the transpose would overwrite delivered elements"
            ),
            span=SourceSpan("workload"),
        ))
    if missing:
        report.diagnostics.append(Diagnostic(
            code="WKL001",
            severity=ERROR,
            message=(
                f"linear address(es) {missing[:8]} never written — the "
                f"transpose loses {len(missing)} of {total} elements"
            ),
            span=SourceSpan("workload"),
        ))
    if out_of_range:
        report.diagnostics.append(Diagnostic(
            code="WKL001",
            severity=ERROR,
            message=(
                f"address(es) {out_of_range[:8]} outside the "
                f"{workload.rows}x{workload.cols} matrix"
            ),
            span=SourceSpan("workload"),
        ))
    return report


def analyze_traffic(description: Any, name: str | None = None) -> LintReport:
    """Lint any :class:`repro.workloads.TrafficDescription`.

    The generic sibling of :func:`analyze_workload` — payloads need not
    be linear addresses, so conservation is checked structurally:

    ``TRF001`` (error): a packet endpoint outside the topology.
    ``TRF002`` (error): a self-addressed packet whose destination has no
    memory interface — it never enters the network (zero hops, zero
    contention) and silently dilutes every congestion statistic, unless
    the description opted in via an ``allow_self`` param.
    ``TRF003`` (error/warning): an empty packet set (error), or a
    packet carrying no payload words (warning — headers only).
    ``TRF004`` (error): a declared memory node outside the topology or
    listed twice.
    Every CP phase of the photonic lowering is additionally compiled
    and run through :func:`analyze_schedule` with per-node conservation
    derived from the phase order, so ``SCH00x``/``SLOT00x`` findings
    surface here too.
    """
    from ..util.errors import ReproError

    report = LintReport(target=name or f"workload {description.name}")
    topology = description.topology
    nodes = set(topology.nodes())
    memory = set(description.memory_nodes)
    allow_self = bool(description.params.get("allow_self", False))

    seen_memory: set[tuple[int, int]] = set()
    for node in description.memory_nodes:
        if tuple(node) not in nodes:
            report.diagnostics.append(Diagnostic(
                code="TRF004",
                severity=ERROR,
                message=(
                    f"memory node {node} is outside the "
                    f"{topology.width}x{topology.height} mesh"
                ),
                span=SourceSpan("memory_nodes"),
            ))
        if tuple(node) in seen_memory:
            report.diagnostics.append(Diagnostic(
                code="TRF004",
                severity=ERROR,
                message=f"memory node {node} listed more than once",
                span=SourceSpan("memory_nodes"),
            ))
        seen_memory.add(tuple(node))

    if not description.packets:
        report.diagnostics.append(Diagnostic(
            code="TRF003",
            severity=ERROR,
            message="description carries no packets — nothing to inject",
            span=SourceSpan("packets"),
        ))
    for idx, packet in enumerate(description.packets):
        for endpoint, label in ((packet.source, "source"),
                                (packet.dest, "dest")):
            if tuple(endpoint) not in nodes:
                report.diagnostics.append(Diagnostic(
                    code="TRF001",
                    severity=ERROR,
                    message=(
                        f"packet {idx} {label} {endpoint} is outside the "
                        f"{topology.width}x{topology.height} mesh"
                    ),
                    span=SourceSpan(f"packet {idx}"),
                ))
        if (
            packet.source == packet.dest
            and tuple(packet.dest) not in memory
            and not allow_self
        ):
            report.diagnostics.append(Diagnostic(
                code="TRF002",
                severity=ERROR,
                message=(
                    f"packet {idx} is self-addressed ({packet.source} -> "
                    f"{packet.dest}) with no memory interface there — it "
                    "never enters the network and dilutes congestion stats"
                ),
                span=SourceSpan(f"packet {idx}"),
            ))
        if not packet.payloads:
            report.diagnostics.append(Diagnostic(
                code="TRF003",
                severity=WARNING,
                message=f"packet {idx} carries no payload words",
                span=SourceSpan(f"packet {idx}"),
            ))

    for pi, phase in enumerate(description.cp_phases):
        try:
            schedule = phase.schedule()
        except ReproError as exc:
            report.diagnostics.append(Diagnostic(
                code="TRF005",
                severity=ERROR,
                message=f"CP phase {pi} ({phase.kind}) fails to compile: {exc}",
                span=SourceSpan(f"cp_phase {pi}"),
            ))
            continue
        expected: dict[int, set[int]] = {}
        for node, word in phase.order:
            expected.setdefault(node, set()).add(word)
        spec = ScheduleSpec.from_schedule(
            schedule,
            expected_words={n: tuple(sorted(ws)) for n, ws in expected.items()},
        )
        spec.order = list(phase.order)
        sub = analyze_schedule(spec)
        report.diagnostics.extend(sub.diagnostics)
    return report


# ---------------------------------------------------------------------------
# canned lint registry: every schedule/config family shipped in
# examples/ and benchmarks/
# ---------------------------------------------------------------------------


def _lint_fig4() -> LintReport:
    from ..core.pscan import fig4_order
    from ..core.schedule import gather_schedule

    order = fig4_order()
    sched = gather_schedule(order)
    spec = ScheduleSpec.from_schedule(
        sched, expected_words={0: range(6), 1: range(6)}
    )
    spec.order = list(order)
    report = analyze_schedule(spec)
    report.target = "fig4 SCA gather (2 nodes x 6 words)"
    return report


def _lint_transpose(rows: int, cols: int) -> LintReport:
    from ..core.schedule import gather_schedule, transpose_order

    order = transpose_order(rows, cols)
    spec = ScheduleSpec.from_schedule(
        gather_schedule(order),
        expected_words={r: range(cols) for r in range(rows)},
    )
    spec.order = list(order)
    report = analyze_schedule(spec)
    report.target = f"transpose gather ({rows}x{cols})"
    return report


def _lint_round_robin() -> LintReport:
    from ..core.schedule import gather_schedule, round_robin_order

    order = round_robin_order(nodes=8, words_per_node=16, block=4)
    spec = ScheduleSpec.from_schedule(
        gather_schedule(order),
        expected_words={n: range(16) for n in range(8)},
    )
    report = analyze_schedule(spec)
    report.target = "Model II round-robin gather (8 nodes, k=4)"
    return report


def _lint_scatter() -> LintReport:
    from ..core.schedule import block_interleave_order, scatter_schedule

    order = block_interleave_order(nodes=16, words_per_node=8)
    spec = ScheduleSpec.from_schedule(
        scatter_schedule(order),
        expected_words={n: range(8) for n in range(16)},
    )
    report = analyze_schedule(spec)
    report.target = "SCA^-1 block-interleave scatter (16 nodes)"
    return report


def _lint_control_then_data() -> LintReport:
    from ..core.schedule import control_then_data_order, scatter_schedule

    order = control_then_data_order(nodes=4, control_words=2, data_words=8, k=2)
    spec = ScheduleSpec.from_schedule(
        scatter_schedule(order),
        expected_words={n: range(10) for n in range(4)},
    )
    report = analyze_schedule(spec)
    report.target = "control+data interleaved delivery (Section IV)"
    return report


def _lint_retransmission() -> LintReport:
    from ..core.schedule import (
        gather_schedule,
        retransmission_order,
        transpose_order,
    )

    original = transpose_order(rows=8, cols=4)
    failed = {(1, 0), (3, 2), (5, 1)}
    order = retransmission_order(original, failed)
    expected: dict[int, list[int]] = {}
    for node, word in failed:
        expected.setdefault(node, []).append(word)
    spec = ScheduleSpec.from_schedule(
        gather_schedule(order),
        expected_words={n: tuple(ws) for n, ws in expected.items()},
    )
    report = analyze_schedule(spec)
    report.target = "retransmission epoch (3 NACKed words)"
    return report


def _lint_mesh_configs() -> LintReport:
    from ..mesh.network import MeshConfig, MeshFaultConfig
    from ..mesh.vc_network import VcMeshConfig

    merged = LintReport(target="shipped mesh configurations")
    for label, cfg in (
        ("MeshConfig()", MeshConfig()),
        ("MeshConfig(engine='compiled')", MeshConfig(engine="compiled")),
        ("MeshConfig(memory_reorder_cycles=4)",
         MeshConfig(memory_reorder_cycles=4)),
        ("VcMeshConfig()", VcMeshConfig()),
    ):
        sub = analyze_mesh_config(cfg, MeshFaultConfig(), name=label)
        merged.diagnostics.extend(sub.diagnostics)
    return merged


def _lint_mesh_workloads() -> LintReport:
    from ..mesh.topology import MeshTopology
    from ..mesh.workloads import (
        make_transpose_gather,
        make_transpose_gather_multi_mc,
    )

    merged = LintReport(target="shipped mesh workloads")
    topo = MeshTopology.square(16)
    wl = make_transpose_gather(topo, cols=8)
    merged.diagnostics.extend(
        analyze_workload(wl, topo, name="transpose 16x8").diagnostics
    )
    topo64 = MeshTopology.square(64)
    wl64 = make_transpose_gather_multi_mc(topo64, cols=4)
    # The workload itself reports its interface set now; trusting it
    # (rather than re-deriving corners here) means a maker that drops an
    # interface from ``memory_nodes`` fails this lint via WKL003.
    merged.diagnostics.extend(
        analyze_workload(
            wl64, topo64, memory_nodes=wl64.memory_nodes,
            name="multi-MC transpose 64x4",
        ).diagnostics
    )
    return merged


def _lint_workload_zoo() -> LintReport:
    from ..workloads import build_workload, list_workloads

    merged = LintReport(target="workload zoo (every registered family)")
    for name in list_workloads():
        description = build_workload(name)
        sub = analyze_traffic(description, name=f"workload {name}")
        merged.diagnostics.extend(sub.diagnostics)
    return merged


#: name -> zero-arg builder returning a LintReport.
LINT_TARGETS: dict[str, Callable[[], LintReport]] = {
    "fig4": _lint_fig4,
    "transpose-16x4": lambda: _lint_transpose(16, 4),
    "transpose-64x8": lambda: _lint_transpose(64, 8),
    "round-robin": _lint_round_robin,
    "scatter": _lint_scatter,
    "control-then-data": _lint_control_then_data,
    "retransmission": _lint_retransmission,
    "mesh-configs": _lint_mesh_configs,
    "mesh-workloads": _lint_mesh_workloads,
    "workload-zoo": _lint_workload_zoo,
}


def lint_targets() -> list[str]:
    """Names accepted by :func:`lint_target` / ``repro check lint``."""
    return sorted(LINT_TARGETS)


def lint_target(name: str) -> LintReport:
    """Run one canned lint target by name."""
    try:
        builder = LINT_TARGETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown lint target {name!r}; choose from {lint_targets()}"
        ) from None
    return builder()


def lint_all(names: Iterable[str] | None = None) -> list[LintReport]:
    """Run every (or the named) canned lint targets."""
    selected = list(names) if names is not None else lint_targets()
    return [lint_target(name) for name in selected]
