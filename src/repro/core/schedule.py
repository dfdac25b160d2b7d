"""Global schedule construction — the CP "compiler" (paper Section IV).

The paper states CPs "are derived from the high-level operational code in
much the same way that ... computations ... are compiled".  This module is
that compiler: given a *data layout specification* — which node holds
which words, and the order the receiver (or memory) must see them — it
emits one :class:`CommunicationProgram` per node such that

* every bus cycle in ``[0, total)`` is driven by exactly one node
  (full utilization, no collisions), and
* the receiver observes the words in exactly the requested order.

Three front-ends cover the paper's uses:

* :func:`gather_schedule` — SCA: arbitrary word order from many nodes to
  one receiver (the transpose writeback).
* :func:`scatter_schedule` — SCA⁻¹: one source (head node / memory) to
  many receivers (data delivery).
* :func:`block_interleave_order` / :func:`transpose_order` — canonical
  orders used by the FFT study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..util.errors import ScheduleError
from .cp import CommunicationProgram, Role, Slot

__all__ = [
    "GlobalSchedule",
    "gather_schedule",
    "scatter_schedule",
    "block_interleave_order",
    "transpose_order",
    "round_robin_order",
    "control_then_data_order",
    "retransmission_order",
]


@dataclass
class GlobalSchedule:
    """The linked set of CPs for one SCA or SCA⁻¹ transaction.

    ``order`` records, for each bus cycle, ``(node_id, word_index)`` — the
    provenance (gather) or destination (scatter) of the word on that
    cycle.  ``programs`` maps node id to its CP.
    """

    total_cycles: int
    programs: dict[int, CommunicationProgram] = field(default_factory=dict)
    order: list[tuple[int, int]] = field(default_factory=list)
    kind: str = "gather"

    def validate(self) -> None:
        """Check the invariant: every cycle claimed exactly once.

        Raises :class:`ScheduleError` on gaps or collisions.  LISTEN slots
        of the single receiver (gather) / driver (scatter) are exempt from
        the one-driver rule.
        """
        active_role = Role.DRIVE if self.kind == "gather" else Role.LISTEN
        claimed: dict[int, int] = {}
        for node_id, cp in self.programs.items():
            for slot in cp:
                if slot.role is not active_role:
                    continue
                for cycle in slot.cycles():
                    if cycle in claimed:
                        raise ScheduleError(
                            f"cycle {cycle} claimed by node {claimed[cycle]} "
                            f"and node {node_id}"
                        )
                    claimed[cycle] = node_id
        missing = [c for c in range(self.total_cycles) if c not in claimed]
        if missing:
            raise ScheduleError(
                f"schedule has {len(missing)} unclaimed cycles "
                f"(first: {missing[:5]}); the SCA burst would have gaps"
            )
        extra = [c for c in claimed if c >= self.total_cycles]
        if extra:
            raise ScheduleError(
                f"cycles beyond total={self.total_cycles} claimed: {extra[:5]}"
            )

    @property
    def active_role(self) -> Role:
        """The role that claims bus cycles for this schedule's kind."""
        return Role.DRIVE if self.kind == "gather" else Role.LISTEN

    def iter_claims(self):
        """Yield ``(cycle, node_id, slot)`` for every active-role claim.

        The non-raising sibling of :meth:`validate`: collisions appear
        as repeated cycles and gaps as absent ones, so an analyzer (see
        :mod:`repro.check.analyzer`) can report *every* violation with a
        source span instead of stopping at the first.  Nodes are visited
        in sorted order for deterministic diagnostics.
        """
        active = self.active_role
        for node_id in sorted(self.programs):
            for slot in self.programs[node_id]:
                if slot.role is not active:
                    continue
                for cycle in slot.cycles():
                    yield cycle, node_id, slot

    @property
    def utilization(self) -> float:
        """Fraction of bus cycles carrying data (1.0 for a valid SCA)."""
        if self.total_cycles == 0:
            return 0.0
        active_role = self.active_role
        used = sum(
            slot.length
            for cp in self.programs.values()
            for slot in cp
            if slot.role is active_role
        )
        return used / self.total_cycles

    def program_for(self, node_id: int) -> CommunicationProgram:
        """The CP for ``node_id`` (empty program if the node is idle)."""
        return self.programs.get(node_id, CommunicationProgram(node_id=node_id))


def _compile(
    order: list[tuple[int, int]],
    role: Role,
    kind: str,
) -> GlobalSchedule:
    """Shared back-end: turn a cycle->(node, word) order into per-node CPs.

    Consecutive cycles with the same node and consecutive word indices
    merge into a single slot, so regular patterns produce compact CPs.
    """
    sched = GlobalSchedule(total_cycles=len(order), kind=kind)
    sched.order = list(order)
    if not order:
        return sched

    seen_words: dict[int, set[int]] = {}
    for cycle, (node, word) in enumerate(order):
        if node < 0:
            raise ScheduleError(f"cycle {cycle}: negative node id {node}")
        if word < 0:
            raise ScheduleError(f"cycle {cycle}: negative word index {word}")
        dup = seen_words.setdefault(node, set())
        if word in dup:
            raise ScheduleError(
                f"node {node} word {word} appears twice in the order"
            )
        dup.add(word)

    # Run-length encode into slots.
    run_start = 0
    run_node, run_word0 = order[0]
    prev_word = run_word0
    slots_by_node: dict[int, list[Slot]] = {}

    def flush(end_cycle: int) -> None:
        slots_by_node.setdefault(run_node, []).append(
            Slot(
                start_cycle=run_start,
                length=end_cycle - run_start,
                role=role,
                word_offset=run_word0,
            )
        )

    for cycle in range(1, len(order)):
        node, word = order[cycle]
        if node == run_node and word == prev_word + 1:
            prev_word = word
            continue
        flush(cycle)
        run_start, run_node, run_word0, prev_word = cycle, node, word, word
    flush(len(order))

    for node, slots in slots_by_node.items():
        sched.programs[node] = CommunicationProgram(node_id=node, slots=slots)
    return sched


def gather_schedule(order: list[tuple[int, int]]) -> GlobalSchedule:
    """Compile an SCA (gather): cycle ``c`` carries ``order[c] = (node, word)``.

    Every contributing node gets DRIVE slots; the receiver implicitly
    listens to the whole burst.
    """
    sched = _compile(order, Role.DRIVE, kind="gather")
    sched.validate()
    return sched


def scatter_schedule(order: list[tuple[int, int]]) -> GlobalSchedule:
    """Compile an SCA⁻¹ (scatter): cycle ``c`` delivers word to ``order[c]``.

    Every receiving node gets LISTEN slots; the head node implicitly
    drives the whole burst.
    """
    sched = _compile(order, Role.LISTEN, kind="scatter")
    sched.validate()
    return sched


def round_robin_order(
    nodes: int, words_per_node: int, block: int = 1
) -> list[tuple[int, int]]:
    """Round-robin interleave: node 0 block, node 1 block, ... repeating.

    With ``block == words_per_node`` this degenerates to node-major order
    (Model I delivery); with smaller blocks it is Model II's ``k``-block
    round robin.
    """
    if nodes < 1 or words_per_node < 1 or block < 1:
        raise ScheduleError("nodes, words_per_node, block must all be >= 1")
    if words_per_node % block != 0:
        raise ScheduleError(
            f"block {block} does not divide words_per_node {words_per_node}"
        )
    order: list[tuple[int, int]] = []
    rounds = words_per_node // block
    for r in range(rounds):
        for node in range(nodes):
            base = r * block
            order.extend((node, base + i) for i in range(block))
    return order


def block_interleave_order(nodes: int, words_per_node: int) -> list[tuple[int, int]]:
    """Fine interleave: cycle c carries word c//nodes of node c%nodes.

    This is the order a row-major memory write-back needs when node ``i``
    holds every ``nodes``-th element of a row.
    """
    if nodes < 1 or words_per_node < 1:
        raise ScheduleError("nodes and words_per_node must be >= 1")
    order: list[tuple[int, int]] = []
    for word in range(words_per_node):
        order.extend((node, word) for node in range(nodes))
    return order


def control_then_data_order(
    nodes: int,
    control_words: int,
    data_words: int,
    k: int = 1,
) -> list[tuple[int, int]]:
    """Section IV's interleaved control + data delivery order.

    "CPs are delivered, along with operational code to the processor on
    SCA⁻¹ operations, interleaved with data delivery."  Each node's
    first delivery round carries its ``control_words`` control words
    (CP descriptors + operational code) immediately followed by its
    first data block; subsequent rounds are pure data.  Word indices are
    node-local and contiguous: 0..control_words-1 are control, the rest
    data — the node's network interface splits them by position.
    """
    if nodes < 1 or control_words < 0 or data_words < 1 or k < 1:
        raise ScheduleError(
            "need nodes >= 1, control_words >= 0, data_words >= 1, k >= 1"
        )
    if data_words % k != 0:
        raise ScheduleError(f"k={k} must divide data_words={data_words}")
    block = data_words // k
    order: list[tuple[int, int]] = []
    for r in range(k):
        for node in range(nodes):
            if r == 0:
                order.extend((node, w) for w in range(control_words))
            base = control_words + r * block
            order.extend((node, base + i) for i in range(block))
    return order


def retransmission_order(
    original: list[tuple[int, int]],
    failed: set[tuple[int, int]] | list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Synthesize a retransmission epoch's order from NACKed words.

    Given the ``order`` of a completed (but partially corrupted) gather
    and the set of ``(node, word)`` pairs the head node NACKed, emit a
    compact order covering *only* the failed words, preserving their
    relative position in the original burst (so the head node can merge
    the retried words back by provenance).  The resulting order compiles
    with :func:`gather_schedule` into a valid, gapless epoch — the
    scheduler's answer to a NACK is an ordinary (small) SCA.

    Raises :class:`ScheduleError` when a failed pair never appeared in
    the original order (a protocol bug: the head node NACKed a word no
    node drove).
    """
    failed_set = set(failed)
    if not failed_set:
        return []
    order = [pair for pair in original if pair in failed_set]
    missing = failed_set - set(order)
    if missing:
        raise ScheduleError(
            f"NACKed words never scheduled: {sorted(missing)[:5]}"
        )
    return order


def transpose_order(rows: int, cols: int) -> list[tuple[int, int]]:
    """The matrix-transpose gather order (paper Section V-C).

    Node ``r`` holds row ``r`` of an ``rows x cols`` matrix (its FFT
    output).  Memory must receive the matrix in *column-major* order —
    element (r, c) at cycle ``c * rows + r`` — so that columns land
    contiguously in the linear address space.  Returns the cycle order as
    ``(node=r, word=c)`` pairs.
    """
    if rows < 1 or cols < 1:
        raise ScheduleError("rows and cols must be >= 1")
    order: list[tuple[int, int]] = []
    for c in range(cols):
        order.extend((r, c) for r in range(rows))
    return order
