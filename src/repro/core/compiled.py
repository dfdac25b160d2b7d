"""Schedule-compiled analytic SCA executor (``engine="compiled"``).

The event-driven :class:`~repro.core.pscan.Pscan` *discovers* an SCA's
timeline one :class:`~repro.sim.engine.Timeout` at a time.  But for a
deterministic, fault-free run the timeline is already fixed the moment
the CP compiler emits the :class:`~repro.core.schedule.GlobalSchedule`:
every modulation instant is ``t0 + (epoch + cycle) * T + x/v + t_resp``
and every arrival is one flight time later.  This module lowers the
compiled schedule directly to vectorized numpy array expressions and
materializes the identical :class:`~repro.core.pscan.ScaExecution` —
including bit-identical float timestamps — without running the event
kernel at all.

Bit-identical floats, not just "close"
--------------------------------------
The event path does not record ``t_mod`` itself; it records the
simulator clock after a ``Timeout`` chain::

    m_k = fl(m_{k-1} + max(0.0, fl(t_k - m_{k-1})))        (gather)
    m_k = fl(m_{k-1} + fl(t_k - m_{k-1})) if t_k > m_{k-1}  (scatter)
          else m_{k-1}

where ``fl`` is one IEEE-754 double rounding.  In practice the chain is
a fixpoint — ``m_k == t_k`` exactly — because ``fl(a + fl(b - a)) == b``
round-trips for the magnitudes involved, but that is a property to be
*verified*, not assumed.  The lowering therefore computes the candidate
``m = t`` vectorized, checks the recurrence elementwise (numpy float64
ops are the same IEEE doubles as Python floats), and on any miss replays
the exact scalar recurrence for that driver.  The fast path is O(n)
array arithmetic; the repair path is the event semantics verbatim.

Applicability is policed by the dispatch layer in
:class:`~repro.core.pscan.Pscan`: a fault hook raises
:class:`~repro.util.errors.EngineUnsupportedError` *before* this module
is reached, so everything here may assume the deterministic contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..util.errors import CollisionError, ScheduleError
from .cp import Role

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pscan imports us)
    from .pscan import Pscan, ScaExecution

__all__ = ["compiled_gather", "compiled_scatter"]


def _modulation_chain_gather(
    t: np.ndarray, now0: float, node: int, cycles: np.ndarray
) -> np.ndarray:
    """Simulator-clock values after the gather driver's Timeout chain.

    The gather driver always yields (``timeout(max(0.0, t_mod - now))``),
    so the recurrence applies to every element.  Returns ``t`` itself on
    the (overwhelmingly common) verified fixpoint; otherwise replays the
    exact scalar recurrence, including the driver's missed-cycle check.
    """
    if t.size == 0:
        return t
    first = float(t[0])
    if first < now0 - 1e-9:
        raise ScheduleError(
            f"node {node} missed cycle {int(cycles[0])} "
            f"(needed t={first}, now={now0})"
        )
    m0 = now0 + max(0.0, first - now0)
    ok = m0 == first
    if ok and t.size > 1:
        stepped = t[:-1] + np.maximum(0.0, t[1:] - t[:-1])
        ok = bool(np.array_equal(stepped, t[1:]))
    if ok:
        return t
    # Scalar repair: the event semantics verbatim (rare float regime).
    out = np.empty_like(t)
    cur = now0
    for i, ti in enumerate(t.tolist()):
        if ti < cur - 1e-9:
            raise ScheduleError(
                f"node {node} missed cycle {int(cycles[i])} "
                f"(needed t={ti}, now={cur})"
            )
        cur = cur + max(0.0, ti - cur)
        out[i] = cur
    return out


def _modulation_chain_scatter(t: np.ndarray, now0: float) -> np.ndarray:
    """Simulator-clock values after the scatter source's Timeout chain.

    The scatter source yields *conditionally* (``if t_mod > now``), so a
    cycle whose nominal instant has already passed modulates immediately
    at the current clock — a different recurrence from the gather chain.
    """
    if t.size == 0:
        return t
    first = float(t[0])
    m0 = now0 + (first - now0) if first > now0 else now0
    ok = m0 == first
    if ok and t.size > 1:
        diffs = t[1:] - t[:-1]
        ok = bool(np.all(diffs > 0.0)) and bool(
            np.array_equal(t[:-1] + diffs, t[1:])
        )
    if ok:
        return t
    out = np.empty_like(t)
    cur = now0
    for i, ti in enumerate(t.tolist()):
        if ti > cur:
            cur = cur + (ti - cur)
        out[i] = cur
    return out


def _nominal_times(
    ps: "Pscan", epoch: int, cycles: np.ndarray, position_mm: float
) -> np.ndarray:
    """Vectorized ``clock.edge_time(epoch + cycle, x) + response_ns``.

    Operation order matches the scalar expression left to right —
    ``((t0 + edge * T) + flight) + response`` — so every intermediate
    rounding is identical to the event path's.
    """
    clock = ps.clock
    flight = clock.flight_delay_ns(position_mm)
    edges = (epoch + cycles).astype(np.float64)
    return ((clock.t0_ns + edges * clock.period_ns) + flight) + ps.response_ns


def _advance_clock(ps: "Pscan", end_ns: float) -> None:
    """Leave the simulator clock where the event run would have left it.

    Epoch continuity across consecutive transactions on one machine
    depends on ``sim.now`` (see :meth:`Pscan._next_epoch_cycle`), so the
    compiled path must advance the clock to the last arrival instant.
    """
    if end_ns > ps.sim.now:
        ps.sim.run(end_ns)


def _emit_obs(
    obs: Any,
    mod_events: list[tuple[float, int, int]],
    arr_events: list[tuple[float, int, int, int]],
    kind: str,
) -> None:
    """Emit per-word hooks from the analytic path.

    Event-path emission order is global event-queue order; the analytic
    path emits the same *set* of events merged by ``(timestamp, phase,
    node, cycle)``, which is deterministic and time-sorted.  Metrics are
    order-independent; trace oracles for the compiled engine compare
    normalized sequences (see ``tests/test_compiled_engine.py``).
    """
    merged: list[tuple[float, int, int, int, tuple]] = []
    for ts, node, cycle in mod_events:
        merged.append((ts, 0, node, cycle, (ts, node, cycle)))
    for ts, node, cycle, word in arr_events:
        merged.append((ts, 1, node, cycle, (ts, node, cycle, word)))
    merged.sort(key=lambda e: e[:4])
    deliver = obs.sca_deliver if kind == "scatter" else obs.sca_arrival
    for _ts, phase, _node, _cycle, args in merged:
        if phase == 0:
            obs.sca_modulate(*args)
        else:
            deliver(*args)


# -- SCA (gather) -----------------------------------------------------------


def compiled_gather(
    ps: "Pscan",
    schedule: Any,
    data: dict[int, list[Any]],
    receiver_mm: float,
) -> "ScaExecution":
    """Closed-form lowering of :meth:`Pscan.execute_gather`."""
    from .pscan import Arrival, ScaExecution

    if schedule.kind != "gather":
        raise ScheduleError(f"expected a gather schedule, got {schedule.kind!r}")
    result = ScaExecution(kind="gather", period_ns=ps.clock.period_ns)
    epoch = ps._next_epoch_cycle()
    now0 = ps.sim.now

    node_ids: list[int] = []
    times_parts: list[np.ndarray] = []
    cycles_parts: list[np.ndarray] = []
    values_parts: list[list[Any]] = []
    words_parts: list[np.ndarray] = []
    nodes_parts: list[np.ndarray] = []
    first_mod: float | None = None

    for node in sorted(schedule.programs):
        x = ps.positions_mm[node]
        ps._check_budget(x, receiver_mm)
        cp = schedule.programs[node]
        buffer = data.get(node, [])
        mods = result.modulation_times.setdefault(node, [])
        flight = ps.waveguide.propagation_delay_ns(x, receiver_mm)

        spans = [
            (slot.start_cycle, slot.length, slot.word_offset)
            for slot in cp
            if slot.role is Role.DRIVE
        ]
        if not spans:
            continue
        cycles = np.concatenate(
            [np.arange(start, start + length) for start, length, _w in spans]
        )
        words = np.concatenate(
            [np.arange(w0, w0 + length) for _start, length, w0 in spans]
        )
        over = words >= len(buffer)
        if bool(over.any()):
            bad = int(words[over][0])
            raise ScheduleError(
                f"node {node} has no word {bad} (buffer holds {len(buffer)})"
            )
        t = _nominal_times(ps, epoch, cycles, x)
        m = _modulation_chain_gather(t, now0, node, cycles)
        mods.extend(zip(cycles.tolist(), m.tolist()))
        if m.size and (first_mod is None or m[0] < first_mod):
            first_mod = float(m[0])

        node_ids.append(node)
        times_parts.append(m + flight)
        cycles_parts.append(cycles)
        words_parts.append(words)
        values_parts.append([buffer[w] for w in words.tolist()])
        nodes_parts.append(np.full(cycles.shape, node, dtype=np.int64))

    if times_parts:
        arr_times = np.concatenate(times_parts)
        mod_cycles = np.concatenate(cycles_parts)
        arr_words = np.concatenate(words_parts)
        arr_nodes = np.concatenate(nodes_parts)
        arr_values: list[Any] = [v for part in values_parts for v in part]

        # Receiver-side cycle recovery, exactly _cycle_of_arrival's math.
        clock = ps.clock
        period = clock.period_ns
        local = (
            (arr_times - ps.response_ns) - clock.t0_ns
        ) - clock.flight_delay_ns(receiver_mm)
        cyc = np.rint(local / period)
        off = np.abs(local - cyc * period)
        misaligned = off > 0.25 * period
        if bool(misaligned.any()):
            i = int(np.argmax(misaligned))
            raise CollisionError(
                f"arrival at t={float(arr_times[i])} ns at {receiver_mm} mm "
                f"does not align with any bus cycle "
                f"(offset {float(local[i] - cyc[i] * period):.4f} ns)"
            )
        rx_cycles = cyc.astype(np.int64) - epoch

        order = np.argsort(arr_times, kind="stable")
        sorted_cycles = rx_cycles[order]
        uniq, counts = np.unique(sorted_cycles, return_counts=True)
        if bool((counts > 1).any()):
            # Replay the claim walk in event order for the exact message.
            claimed: dict[int, int] = {}
            for idx in order.tolist():
                c = int(rx_cycles[idx])
                n = int(arr_nodes[idx])
                if c in claimed:
                    raise CollisionError(
                        f"bus cycle {c}: node {n} collides with node "
                        f"{claimed[c]} at the receiver"
                    )
                claimed[c] = n
        sorted_times = arr_times[order].tolist()
        sorted_nodes = arr_nodes[order].tolist()
        sorted_words = arr_words[order].tolist()
        sorted_cycle_list = sorted_cycles.tolist()
        result.arrivals = [
            Arrival(ts, cy, nd, wd, arr_values[idx])
            for ts, cy, nd, wd, idx in zip(
                sorted_times,
                sorted_cycle_list,
                sorted_nodes,
                sorted_words,
                order.tolist(),
            )
        ]
        ps.total_bits_moved += ps.wdm.bits_per_cycle * len(result.arrivals)

    if len(result.arrivals) != schedule.total_cycles:
        raise ScheduleError(
            f"expected {schedule.total_cycles} arrivals, got "
            f"{len(result.arrivals)}"
        )
    result.start_ns = first_mod if first_mod is not None else 0.0
    result.end_ns = result.arrivals[-1].time_ns if result.arrivals else 0.0
    _advance_clock(ps, result.end_ns)
    if ps._obs is not None:
        mod_events = [
            (ts, node, cycle)
            for node, pairs in result.modulation_times.items()
            for cycle, ts in pairs
        ]
        arr_events = [
            (a.time_ns, a.source_node, a.cycle, a.word_index)
            for a in result.arrivals
        ]
        _emit_obs(ps._obs, mod_events, arr_events, "gather")
        ps._obs.sca_execution(result)
    return result


# -- SCA⁻¹ (scatter) --------------------------------------------------------


def compiled_scatter(
    ps: "Pscan",
    schedule: Any,
    burst: list[Any],
    source_mm: float = 0.0,
) -> "ScaExecution":
    """Closed-form lowering of :meth:`Pscan.execute_scatter`."""
    from .pscan import Arrival, ScaExecution

    if schedule.kind != "scatter":
        raise ScheduleError(f"expected a scatter schedule, got {schedule.kind!r}")
    if len(burst) != schedule.total_cycles:
        raise ScheduleError(
            f"burst has {len(burst)} words, schedule covers "
            f"{schedule.total_cycles} cycles"
        )
    for node in schedule.programs:
        if ps.positions_mm[node] < source_mm:
            raise ScheduleError(
                f"listener {node} is upstream of the scatter source"
            )

    result = ScaExecution(kind="scatter", period_ns=ps.clock.period_ns)
    epoch = ps._next_epoch_cycle()
    now0 = ps.sim.now
    total = schedule.total_cycles
    mods = result.modulation_times.setdefault(-1, [])
    if total == 0:
        result.start_ns = 0.0
        result.end_ns = 0.0
        if ps._obs is not None:
            ps._obs.sca_execution(result)
        return result

    cycles = np.arange(total, dtype=np.int64)
    t = _nominal_times(ps, epoch, cycles, source_mm)
    m = _modulation_chain_scatter(t, now0)
    mods.extend(zip(cycles.tolist(), m.tolist()))

    listener = [node for node, _w in schedule.order]
    word_idx = [w for _n, w in schedule.order]
    # Budget checks and flight times in first-use (burst cycle) order,
    # exactly the event source's lazy flight_to cache behaviour.
    flight_to: dict[int, float] = {}
    for node in listener:
        if node not in flight_to:
            x = ps.positions_mm[node]
            ps._check_budget(source_mm, x)
            flight_to[node] = ps.waveguide.propagation_delay_ns(source_mm, x)
    nodes_arr = np.asarray(listener, dtype=np.int64)
    flights = np.asarray([flight_to[n] for n in listener])
    arr_times = m + flights

    # Desynchronization check, exactly deliver()'s expectation math.
    positions = np.asarray([ps.positions_mm[n] for n in listener])
    clock = ps.clock
    period = clock.period_ns
    flight_clock = (positions - clock.origin_mm) / clock.velocity_mm_per_ns
    expected = (
        (clock.t0_ns + (epoch + cycles).astype(np.float64) * period)
        + flight_clock
    ) + ps.response_ns
    desync = np.abs(arr_times - expected) > 0.25 * period
    if bool(desync.any()):
        i = int(np.argmax(desync))
        raise CollisionError(
            f"cycle {int(cycles[i])} reached node {int(nodes_arr[i])} at "
            f"t={float(arr_times[i])} ns, CP expected "
            f"t={float(expected[i])} ns — clock desynchronized"
        )

    ps.total_bits_moved += ps.wdm.bits_per_cycle * total

    # Event delivery order is (arrival time, timeout insertion seq) and
    # insertion seq is burst-cycle order, so a stable lexsort reproduces
    # it: primary time, secondary cycle.
    order = np.lexsort((cycles, arr_times))
    order_list = order.tolist()
    times_list = arr_times.tolist()
    result.arrivals = [
        Arrival(times_list[i], int(cycles[i]), listener[i], word_idx[i], burst[i])
        for i in order_list
    ]
    for i in order_list:
        result.delivered.setdefault(listener[i], []).append(burst[i])

    result.start_ns = float(m[0])
    result.end_ns = result.arrivals[-1].time_ns
    _advance_clock(ps, result.end_ns)
    if ps._obs is not None:
        # The event path records source modulations on the result only
        # and never fires ``sca_modulate`` for a scatter, so neither
        # does the analytic path: delivers only, in delivery order.
        arr_events = [
            (a.time_ns, a.source_node, a.cycle, a.word_index)
            for a in result.arrivals
        ]
        _emit_obs(ps._obs, [], arr_events, "scatter")
        ps._obs.sca_execution(result)
    return result
