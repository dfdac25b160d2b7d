"""Change-driven fast path for the wormhole mesh simulator.

:class:`FastMeshNetwork` is a drop-in :class:`~repro.mesh.network.MeshNetwork`
selected via ``MeshConfig(engine="fast")``.  It produces **identical**
:class:`~repro.mesh.network.MeshStats`, sink records and per-packet
delivery orderings to the reference engine — differential-tested in
``tests/test_fast_engine.py`` — while doing per-cycle work proportional
to the number of flits that actually move, instead of rescanning every
router port every cycle.

Flat channel-indexed state
--------------------------
All per-port state lives in flat structure-of-arrays mirrors indexed by
``channel = node_index * 5 + port`` (ports in LOCAL, N, S, E, W order,
matching the reference planner's row-major node × port scan):

``_hol_ready`` / ``_hol_pid`` / ``_hol_head`` / ``_hol_out``
    Head-of-line flit state per input channel (``_hol_out`` is the
    output channel its cached route points at, ``-1`` if unrouted).
``_buf_len`` / ``_owner_arr`` / ``_rr_arr`` / ``_sink_free``
    Buffer occupancy (credits), wormhole channel ownership, round-robin
    arbitration pointers and memory-interface busy-until.
``_wants[oc]``
    The *reverse routing index*: which input channels' heads currently
    want output channel ``oc``.

Change-driven planning
----------------------
The reference planner re-derives, every cycle, which flits can move.
The fast planner instead maintains the set of output channels whose
eligibility *could have changed* (``_dirty``) plus schedules keyed by
cycle for the purely time-driven changes (``_wake_sched`` for router
pipeline delays and memory-interface drains, ``_inj_sched`` for
future-dated injections).  Every eligibility factor maps to a re-dirty
event:

== ==================================== ===================================
#  factor                               re-dirty trigger
== ==================================== ===================================
1  new head-of-line flit at a channel   commit/injection refresh
2  route newly computed for a head      routing phase (``_to_route``)
3  head's t_r pipeline charge elapsing  ``_wake_sched[ready_cycle]``
4  wormhole owner claimed / released    commit (owner bookkeeping)
5  downstream credit freed              commit (``_up_out`` reverse link)
6  memory interface finishing reorder   ``_wake_sched[busy_until]``
7  injection slot freed / head due      commit LOCAL pop / ``_inj_sched``
== ==================================== ===================================

A dirty group is evaluated with the reference's exact semantics
(ownership, credit, sink availability, round-robin arbitration) and
dropped from the dirty set when blocked — its re-dirty event will bring
it back.  Collected moves are sorted by their group's *first wanting
candidate channel*, which equals the reference planner's
first-occurrence group ordering (row-major node, then in-port scan
order), so the committed move list — hence sink-record and
packet-latency orderings — is byte-identical.

Route computation itself (the cold path — once per packet per router)
reuses the reference :meth:`MeshNetwork._flit_route` verbatim, including
the ``header_route_cycles`` pipeline charge.  Downstream buffer space is
computed lazily only when a new head needs a route; this is equivalent
to the reference's eager computation because buffers are immutable
during planning (moves are planned from start-of-cycle state and
committed together).

Cycle skipping
--------------
The same schedules tell the run loop when the network is quiescent:
after a move-less cycle, :meth:`FastMeshNetwork._skip_idle_cycles`
jumps the clock to the earliest scheduled wake-up, capped so the
deadlock watchdog and ``max_cycles`` fire at the cycle the reference
engine reaches by stepping.  Skipping is always on for this engine
and never for the reference one; it is off while the fault layer is
armed.

Fault handling
--------------
Arming the fault layer (``fail_link`` / ``fail_router``) permanently
falls back to the reference planning/commit/injection path.  The
reference dicts (``_buffers``, ``_route``, ``_owner``, ``_occupancy``…)
are maintained write-through at all times — the mirrors above are pure
caches — so the switch needs only the round-robin pointers copied back.
Fault recovery is inherently cold-path work (credit timeouts,
quarantines and packet drops mutate buffers arbitrarily), so the
fallback keeps recovery semantics exactly those of the reference
engine.
"""

from __future__ import annotations

from typing import Any

from .network import MeshNetwork
from .topology import Port

__all__ = ["FastMeshNetwork"]

_INF = float("inf")
_PORT_OBJS = (Port.LOCAL, Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


class FastMeshNetwork(MeshNetwork):
    """Change-driven mesh engine; see module docstring.

    Construct indirectly::

        net = MeshNetwork(topo, MeshConfig(engine="fast"))
        assert isinstance(net, FastMeshNetwork)
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        nodes = self._nodes
        n = len(nodes)
        n_chan = n * 5
        self._nidx = {node: i for i, node in enumerate(nodes)}
        #: Channel id -> the *same* deque object as ``_buffers`` (aliased,
        #: so mutations through either view are coherent); None where the
        #: port does not exist (mesh edges).
        self._chan_buf: list[Any] = [None] * n_chan
        self._chan_node: list[tuple[int, int]] = [
            nodes[c // 5] for c in range(n_chan)
        ]
        for (node, port), buf in self._buffers.items():
            self._chan_buf[self._nidx[node] * 5 + int(port)] = buf
        # Head-of-line mirrors (INF ready == empty channel).
        self._hol_ready: list[float] = [_INF] * n_chan
        self._hol_pid: list[int] = [-1] * n_chan
        self._hol_head: list[bool] = [False] * n_chan
        self._hol_out: list[int] = [-1] * n_chan
        self._buf_len: list[int] = [0] * n_chan
        # Output-channel state: wormhole owner (-1 free) and round-robin
        # arbitration pointer, both indexed by out-channel id.
        self._owner_arr: list[int] = [-1] * n_chan
        self._rr_arr: list[int] = [0] * n_chan
        # Reverse routing index: input channels whose head wants oc.
        self._wants: list[set[int]] = [set() for _ in range(n_chan)]
        # Static topology maps: downstream input channel fed by each mesh
        # out-channel (-1 for LOCAL / off-mesh), its (node, port) tuple,
        # and the reverse (which out-channel feeds each input channel).
        self._down_chan: list[int] = [-1] * n_chan
        self._up_out: list[int] = [-1] * n_chan
        self._out_dest: list[tuple[tuple[int, int], Port] | None] = [None] * n_chan
        for i, node in enumerate(nodes):
            for port, nbr, key in self._adjacent[node]:
                c = i * 5 + int(port)
                down = self._nidx[nbr] * 5 + int(key[1])
                self._down_chan[c] = down
                self._up_out[down] = c
                self._out_dest[c] = (nbr, key[1])
        # Change-driven planning state.
        self._dirty: set[int] = set()
        self._to_route: set[int] = set()
        self._wake_sched: dict[int, set[int]] = {}
        self._inj_dirty: set[int] = set()
        self._inj_sched: dict[int, set[int]] = {}
        # Memory-interface busy-until per node (0 == always free).
        self._sink_free: list[int] = [0] * n
        # Per-plan move records: (src_chan, dst_chan, out_chan, pid,
        # is_head, is_tail) for incremental mirror maintenance at commit.
        self._plan_records: list[tuple[int, int, int, int, bool, bool]] = []

    # -- mirror maintenance --------------------------------------------------

    def _refresh_chan(self, c: int) -> None:
        """Re-derive head-of-line mirrors for channel ``c`` from its deque.

        Keeps the ``_wants`` reverse index coherent and marks the head's
        output channel dirty (factor 1 of the module-docstring table).
        """
        buf = self._chan_buf[c]
        old = self._hol_out[c]
        if buf:
            self._buf_len[c] = len(buf)
            flit = buf[0]
            self._hol_ready[c] = flit.ready_cycle
            self._hol_pid[c] = flit.packet_id
            self._hol_head[c] = flit.is_head
            route = self._route.get((self._chan_node[c], flit.packet_id))
            if route is None:
                if old >= 0:
                    self._wants[old].discard(c)
                    self._hol_out[c] = -1
                self._to_route.add(c)
            else:
                oc = c - c % 5 + int(route)
                if oc != old:
                    if old >= 0:
                        self._wants[old].discard(c)
                    self._wants[oc].add(c)
                    self._hol_out[c] = oc
                self._dirty.add(oc)
        else:
            self._buf_len[c] = 0
            self._hol_ready[c] = _INF
            if old >= 0:
                self._wants[old].discard(c)
                self._hol_out[c] = -1
            self._to_route.discard(c)

    def inject(self, packet: Any) -> None:
        super().inject(packet)
        self._inj_dirty.add(self._nidx[packet.source])

    def _arm_faults(self) -> None:
        if self._faults_enabled:
            return
        # Write the array-held round-robin pointers back into the dict
        # the reference planner reads; every other piece of reference
        # state was maintained write-through all along.  From here on,
        # planning/commit/injection run the reference path.
        for c, val in enumerate(self._rr_arr):
            if val:
                self._rr[(self._chan_node[c], _PORT_OBJS[c % 5])] = val
        super()._arm_faults()

    # -- planning ------------------------------------------------------------

    def _plan_moves(
        self,
    ) -> list[tuple[tuple[int, int], Port, tuple[int, int] | None, Port | None]]:
        if self._faults_enabled:
            return super()._plan_moves()
        cycle = self.cycle
        dirty = self._dirty
        self._dirty = set()
        woken = self._wake_sched.pop(cycle, None)
        if woken:
            dirty |= woken
        # Cold path: route heads that have none yet (once per packet per
        # router; new heads are always ready — a flit only moves once
        # its pipeline charge has elapsed, and injected flits start
        # ready).  The reference does this inline during its scan;
        # doing them all first is equivalent because route computation
        # reads only start-of-cycle buffer state.
        to_route = self._to_route
        if to_route:
            route_cache = self._route
            for c in sorted(to_route):
                node = self._chan_node[c]
                flit = self._chan_buf[c][0]
                route = self._flit_route(
                    node, flit, self._downstream_space(node), _PORT_OBJS[c % 5]
                )
                if route is None:
                    # Router pipeline charged (t_r); the route is cached
                    # already — wake the group when the head is ready.
                    route = route_cache[(node, flit.packet_id)]
                    oc = c - c % 5 + int(route)
                    self._hol_out[c] = oc
                    self._wants[oc].add(c)
                    self._hol_ready[c] = flit.ready_cycle
                    self._wake_sched.setdefault(flit.ready_cycle, set()).add(oc)
                else:
                    oc = c - c % 5 + int(route)
                    self._hol_out[c] = oc
                    self._wants[oc].add(c)
                    dirty.add(oc)
            to_route.clear()
        if not dirty:
            return []
        # Evaluate each possibly-changed output channel with the
        # reference semantics; collect (order_key, move, record).
        hol_ready = self._hol_ready
        hol_pid = self._hol_pid
        hol_head = self._hol_head
        owner_arr = self._owner_arr
        rr = self._rr_arr
        chan_buf = self._chan_buf
        chan_node = self._chan_node
        wants = self._wants
        cap = self.config.buffer_flits
        planned: list[
            tuple[
                int,
                tuple[tuple[int, int], Port, tuple[int, int] | None, Port | None],
                tuple[int, int, int, int, bool, bool],
            ]
        ] = []
        for oc in sorted(dirty):
            members = wants[oc]
            if not members:
                continue
            own = owner_arr[oc]
            cands = [
                c
                for c in members
                if hol_ready[c] <= cycle
                and (hol_head[c] if own < 0 else own == hol_pid[c])
            ]
            if not cands:
                continue  # re-dirtied by ownership / readiness events
            if oc % 5 == 0:
                sink_free = self._sink_free[oc // 5]
                if sink_free > cycle:
                    # Memory interface still reordering; wake on drain.
                    self._wake_sched.setdefault(sink_free, set()).add(oc)
                    continue
                dst_chan = -1
                dest: tuple[tuple[int, int], Port] | None = None
            else:
                dst_chan = self._down_chan[oc]
                if dst_chan < 0:
                    continue  # route points off-mesh (hostile policy)
                if self._buf_len[dst_chan] >= cap:
                    continue  # no credit; re-dirtied when downstream pops
                dest = self._out_dest[oc]
            cands.sort()
            # Round-robin arbitration, identical to the reference
            # formula ((port - start) % 5 is injective over ports, so
            # the reference's secondary port tie-break can never fire).
            if len(cands) == 1:
                win = cands[0]
            else:
                start = rr[oc]
                win = min(cands, key=lambda m: (m % 5 - start) % 5)
            rr[oc] = (win % 5 + 1) % 5
            flit = chan_buf[win][0]
            node = chan_node[win]
            if dest is None:
                move = (node, _PORT_OBJS[win % 5], None, None)
            else:
                move = (node, _PORT_OBJS[win % 5], dest[0], dest[1])
            planned.append(
                (
                    cands[0],
                    move,
                    (win, dst_chan, oc, flit.packet_id, flit.is_head, flit.is_tail),
                )
            )
        if not planned:
            return []
        # Reference move order: groups appear in the order their first
        # wanting candidate is encountered by the row-major node × port
        # scan — i.e. ascending minimum candidate channel id.
        planned.sort(key=lambda entry: entry[0])
        records = self._plan_records
        records.clear()
        moves = []
        for _key, move, record in planned:
            moves.append(move)
            records.append(record)
        return moves

    # -- commit / injection --------------------------------------------------

    def _commit_moves(
        self,
        moves: list[tuple[tuple[int, int], Port, tuple[int, int] | None, Port | None]],
    ) -> int:
        if self._faults_enabled:
            return super()._commit_moves(moves)
        moved = super()._commit_moves(moves)
        owner_arr = self._owner_arr
        refresh = self._refresh_chan
        dirty = self._dirty
        up_out = self._up_out
        memory_nodes = self._memory_nodes
        for src, dst, oc, pid, is_head, is_tail in self._plan_records:
            if is_head:
                owner_arr[oc] = pid
            if is_tail:
                owner_arr[oc] = -1
            dirty.add(oc)
            refresh(src)
            up = up_out[src]
            if up >= 0:
                dirty.add(up)  # upstream regained a credit
            elif src % 5 == 0:
                self._inj_dirty.add(src // 5)  # LOCAL slot freed
            if dst >= 0:
                refresh(dst)
            else:
                busy_until = memory_nodes.get(self._chan_node[src])
                if busy_until is not None:
                    self._sink_free[src // 5] = busy_until
                    self._wake_sched.setdefault(busy_until, set()).add(oc)
        self._plan_records.clear()
        return moved

    def _do_injection(self) -> int:
        if self._faults_enabled:
            return super()._do_injection()
        cycle = self.cycle
        woken = self._inj_sched.pop(cycle, None)
        dirty = self._inj_dirty
        if woken:
            dirty |= woken
        if not dirty:
            return 0
        self._inj_dirty = set()
        injected = 0
        cap = self.config.buffer_flits
        nodes = self._nodes
        occupancy = self._occupancy
        for ni in sorted(dirty):
            node = nodes[ni]
            queue = self._inject[node]
            if not queue:
                continue
            c = ni * 5  # LOCAL input channel
            buf = self._chan_buf[c]
            took = 0
            while queue and len(buf) < cap:
                flit = queue[0]
                if flit.injected_cycle > cycle:
                    # Future-dated traffic: wake this node exactly then.
                    self._inj_sched.setdefault(flit.injected_cycle, set()).add(ni)
                    break
                buf.append(queue.popleft())
                took += 1
            if took:
                occupancy[node] += took
                injected += took
                self._refresh_chan(c)
            # A node blocked on buffer space is re-dirtied when its
            # LOCAL channel pops a flit (see _commit_moves).
        return injected

    # -- cycle skipping ------------------------------------------------------

    _skips_idle = True

    def _skip_idle_cycles(self, idle: int, max_cycles: int | None) -> int:
        """Jump the clock over a quiescent interval; returns the new idle count.

        Called by the inherited run loops right after a move-less
        :meth:`step` on a fault-free network.  Advances ``self.cycle``
        to the earliest wake-up (capped so the deadlock watchdog and
        ``max_cycles`` fire at exactly the cycle the reference engine's
        cycle-by-cycle loop reaches) and credits the skipped cycles to
        the idle counter.  Skipped cycles are ones where the reference
        would plan, move nothing and re-plan, so stats and delivery
        orders are untouched.
        """
        # The schedules *are* the exhaustive set of time-driven wake-ups
        # (router pipelines, memory drains, future injections); every
        # other unblocking requires a flit to move first.
        wake = _INF
        if self._wake_sched:
            wake = float(min(self._wake_sched))
        if self._inj_sched:
            wake = min(wake, float(min(self._inj_sched)))
        limit = self.cycle + (self.config.deadlock_cycles - idle)
        if max_cycles is not None and max_cycles < limit:
            limit = max_cycles
        target = min(wake, limit)
        if target > self.cycle:
            jumped = int(target) - self.cycle
            idle += jumped
            self.cycle += jumped
        return idle
