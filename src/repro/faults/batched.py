"""Struct-of-arrays Monte-Carlo campaign engine (SIMD-lockstep lanes).

The per-seed trial (:func:`~repro.faults.campaign._run_gather_trial`)
pays one full seeded event simulation per seed, BER and drift setting.
This engine, which every :func:`~repro.faults.campaign.run_campaign`
runs on, advances *hundreds* of such lanes at once by exploiting the
injector contract of :mod:`repro.faults.models`:

* a component whose fault hook never fires runs the **exact fault-free
  code path** — no timing or result perturbation — so every lane whose
  injector draws produce zero faults is observationally identical to
  one shared fault-free probe run;
* each injector owns a ``random.Random(seed)`` and consumes a *fixed,
  data-independent* number of draws per hook call on the no-fault path
  (``bits_per_word + CRC_BITS`` uniforms per gather word), so "would
  lane *i* fire a fault?" is answerable by drawing the streams of all
  lanes in lockstep with :class:`repro.faults.lanes.LaneRng` (one
  ``random.Random(seed)`` per lane, read in bulk) against the probe's
  hook-call timeline.

The control flow per batch is therefore:

1. **probe** — one fault-free run records the hook-call timeline
   (``(time_ns, node, word_index)`` per call) and the shared clean
   result.  Both depend only on the config, so the batches of one
   ``run_campaign`` call share one probe per config
   (:func:`shared_probes`); a later call probes again;
2. **classify** — :meth:`LaneRng.outputs` draws each lane's Mersenne
   Twister outputs for its lockstep draws into one ``(lanes, outputs)``
   matrix, compared against the per-call effective BER; the divergence
   mask marks every lane where a fault fires;
3. **recover** — divergent gather lanes run the CRC/NACK/retransmission
   protocol without a timeline (:func:`_recover_gather_lane`): the
   lane's own injector corrupts each epoch's burst in cycle order
   (:meth:`PscanFaultModel.corrupt_burst`), which frames only the words
   that flip, and the shared
   :class:`~repro.faults.recovery.GatherRecovery` CRC-checks and decodes
   those frames, gives every other word the lane's own data value, and
   decides NACKs, backoff and retransmission orders exactly as
   :meth:`~repro.faults.recovery.ReliableGather.gather` does.  Epoch 0
   reads the lane's row of the classification matrix and goes on from
   the lane's own generator (``LaneRng.rngs[lane]``), so each output is
   drawn once; the schedule order is computed once per batch;
4. **replay** — lanes lockstep recovery cannot decide fall back to the
   *scalar* per-seed trial on the reference engines, the oracle both
   other paths are pinned to;
5. **scatter** — clean lanes share one fault-free row (the gather
   probe's, or for the mesh one run of the compiled engine,
   :func:`_clean_mesh_row`), the rest get their own rows, all back in
   seed order (:func:`repro.faults.lanes.scatter_lanes`).

Scalar-replay fallback predicate (documented in docs/resilience.md):
a lane replays iff (a) any of its classification draws fires a fault
and (b) lockstep recovery does not apply.  For the gather,
:func:`_check_lockstep_recovery` refuses configs with drift episodes
(the BER then depends on detection time) and probes whose hook calls
are out of the schedule's cycle order; a fault rate of exactly 0 never
installs an injector and is trivially clean.  For the mesh that is
*any* dead link (permanent faults perturb routing from cycle 0): those
lanes replay on the reference engine, while the fault-free lanes share
a row from the compiled engine.  Hook
calls whose effective BER is ``<= 0`` consume no draws (the injector
early-returns) and are excluded from the draw matrix, keeping
consumption lockstep even under partial drift coverage.

Byte-identity of every batched result against the per-seed scalar path
is the module's contract, pinned by ``tests/test_batched_campaign.py``
and the ``batched`` oracle kind in ``repro check fuzz``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from ..mesh import MeshConfig, MeshNetwork, MeshTopology, make_transpose_gather
from ..photonics.wdm import paper_pscan_plan
from ..util.errors import (
    ConfigError,
    EngineUnsupportedError,
    NetworkError,
    SweepPointError,
)
from .campaign import (
    _MESH_MAX_CYCLES,
    CampaignConfig,
    MeshCampaignRow,
    _execute_gather,
    _fft_row_data,
    _gather_order,
    _gather_row,
    _retry_policy,
    _run_gather_trial,
    _run_mesh_trial,
)
from .crc import CRC_BITS, pack_word
from .lanes import (
    LaneRng,
    compact_indices,
    merge_masks,
    outputs_below,
    scatter_lanes,
)
from .models import PscanFaultModel
from .recovery import GatherRecovery

__all__ = [
    "LaneBatchResult",
    "run_gather_campaign_batch",
    "run_mesh_campaign_batch",
]


@dataclass
class LaneBatchResult:
    """One batch point's outcome: per-lane rows in seed order.

    ``rows[i]`` is byte-identical to the scalar trial of lane ``i``'s
    seed.  ``lanes_clean`` lanes shared one fault-free row;
    ``lanes_recovered`` diverged and ran the recovery protocol in
    lockstep, without a timeline; ``lanes_replayed`` fell back to scalar
    replay.  ``clean + recovered + replayed == len(rows)``.  All fields
    are deterministic (no wall-clock), so batch results stored by a
    checkpointed sweep are content-stable.
    """

    rows: list
    lanes_clean: int
    lanes_recovered: int
    lanes_replayed: int


# ---------------------------------------------------------------------------
# gather batches (BER + thermal-drift injector)
# ---------------------------------------------------------------------------


def _probe_gather(config: CampaignConfig, data_seed: int):
    """Fault-free gather with a recording hook.

    Returns ``(calls, clean_row)`` where ``calls`` is the exact
    ``(time_ns, node, word_index)`` sequence of fault-hook invocations
    an installed injector would see in the first epoch (the hook
    transforms values only, so recording does not perturb the
    timeline), and ``clean_row`` is the result tuple every clean lane
    shares.
    """
    calls: list[tuple[float, int, int]] = []

    def recording_hook(time_ns, node, word_index, value):
        calls.append((time_ns, node, word_index))
        return value

    clean_row = _execute_gather(config, recording_hook, data_seed)
    return calls, clean_row


#: Probes shared by the gather batches run inside a :func:`shared_probes`
#: block, keyed by config; ``None`` outside any block.
_PROBES: ContextVar[dict | None] = ContextVar("shared_probes", default=None)


@contextmanager
def shared_probes() -> Iterator[None]:
    """Share one fault-free probe per config among the gather batches
    run inside the block.

    :func:`_probe_gather`'s hook-call timeline and clean row depend only
    on the config, not on the BER or the data seed, so
    :func:`~repro.faults.campaign.run_campaign` probes each config once
    per call rather than once per batch point.  The sharing ends with
    the block, so a later call probes afresh.  Batches run in worker
    processes probe on their own.
    """
    token = _PROBES.set({})
    try:
        yield
    finally:
        _PROBES.reset(token)


def _shared_probe(config: CampaignConfig, data_seed: int):
    """:func:`_probe_gather`, reused within a :func:`shared_probes` block."""
    probes = _PROBES.get()
    if probes is None:
        return _probe_gather(config, data_seed)
    probe = probes.get(config)
    if probe is None:
        probe = probes[config] = _probe_gather(config, data_seed)
    return probe


def _check_lockstep_recovery(
    config: CampaignConfig, calls: list[tuple[float, int, int]]
) -> list[tuple[int, int]]:
    """Refuse lockstep recovery where it could differ from scalar replay.

    Lockstep recovery drives epoch 0 in the schedule's cycle order and
    each retransmission epoch in its
    :func:`~repro.core.schedule.retransmission_order`, with a BER that
    does not depend on time.  Raises
    :class:`~repro.util.errors.EngineUnsupportedError` when the config
    has drift episodes, or when the probe saw the fault hook called in
    any other order than the schedule's; otherwise returns that order
    (:func:`~repro.faults.campaign._gather_order`).
    """
    if config.drift_episodes:
        raise EngineUnsupportedError(
            "lockstep", "drift_episodes",
            "a drifting BER depends on each word's detection time, which "
            "only the event timeline knows",
        )
    order = _gather_order(config)
    if [(node, word) for _, node, word in calls] != order:
        raise EngineUnsupportedError(
            "lockstep", "hook_order",
            "the probe saw fault-hook calls out of the schedule's cycle order",
        )
    return order


def _recover_gather_lane(
    config: CampaignConfig,
    ber: float,
    trial_seed: int,
    order: list[tuple[int, int]] | None = None,
    rng: random.Random | None = None,
    drawn: np.ndarray | None = None,
) -> tuple[float, int, int, int, int, bool, int, float]:
    """One divergent gather lane, recovered without a timeline.

    Equal to :func:`~repro.faults.campaign._run_gather_trial` for every
    config :func:`_check_lockstep_recovery` accepts: the lane's own
    injector corrupts each epoch's burst in cycle order
    (:meth:`PscanFaultModel.corrupt_burst`) and the shared
    :class:`~repro.faults.recovery.GatherRecovery` protocol checks it.
    Only a word that flips is framed (:func:`~repro.faults.crc.pack_word`)
    and decoded; every other word arrives as the lane's own data value.
    The lane keeps its own data, so undetected CRC collisions stay exact.

    ``order`` is the config's :func:`_gather_order`, computed once per
    batch.  ``rng`` and ``drawn`` continue the lane's classification:
    ``drawn`` is the lane's row of the batch's output matrix and ``rng``
    the lane's generator, standing just past it, so epoch 0 reads those
    outputs instead of drawing them again from ``trial_seed``.
    """
    model = PscanFaultModel(ber=ber, seed=trial_seed)
    if rng is not None:
        model.rng = rng
    data = _fft_row_data(config, trial_seed)
    # _execute_gather's Pscan runs on the default (paper) WDM plan.
    recovery = GatherRecovery(
        _gather_order(config) if order is None else order,
        _retry_policy(config),
        paper_pscan_plan().bits_per_cycle,
    )
    while True:
        pending = recovery.pending

        def frame_of(position: int) -> bytes:
            node, word = pending[position]
            return pack_word(data[node][word])

        corrupted = model.corrupt_burst(len(pending), frame_of, drawn)
        drawn = None  # later epochs draw on from the lane's rng
        recovery.receive(
            (
                (pair, corrupted.get(position))
                for position, pair in enumerate(pending)
            ),
            data,
        )
        if recovery.next_epoch() is None:
            break
    stats = recovery.finish(data)
    return _gather_row(
        stats, recovery.residual, recovery.correct_fraction(data)
    )


def run_gather_campaign_batch(
    config: CampaignConfig, ber: float, seeds: Sequence[int]
) -> LaneBatchResult:
    """Advance ``len(seeds)`` gather trials at one BER in lockstep.

    Byte-identical to ``[_run_gather_trial(config, ber, s) for s in
    seeds]``: clean lanes share the fault-free probe, lanes where any
    word flips recover in lockstep (:func:`_recover_gather_lane`), or
    replay scalar when :func:`_check_lockstep_recovery` refuses.  Drift
    episodes (``config.drift_episodes``) are folded into the per-word
    effective BER exactly as the scalar injector computes it (same
    :meth:`PscanFaultModel.ber_at` code).
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("gather batch needs at least one seed")
    calls, clean_row = _shared_probe(config, seeds[0])
    if ber <= 0.0:
        # The scalar path installs no injector at rate 0: every lane is
        # the fault-free run (the row is seed-independent).
        return LaneBatchResult(
            rows=[clean_row for _ in seeds],
            lanes_clean=len(seeds),
            lanes_recovered=0,
            lanes_replayed=0,
        )

    # Per-call effective BER, computed by the injector's own code path
    # (seed-independent, so one prototype covers every lane).
    proto = PscanFaultModel(
        ber=ber, seed=0, drift_episodes=config.drift_episodes
    )
    ber_per_call = np.asarray(
        [proto.ber_at(t, node) for t, node, _ in calls], dtype=np.float64
    )
    # Calls at BER <= 0 early-return without consuming draws; exclude
    # them so the lockstep streams match the scalar consumption exactly.
    drawing = ber_per_call > 0.0
    exposed = proto.bits_per_word + CRC_BITS
    thresholds = np.repeat(ber_per_call[drawing], exposed)
    lane_rng = LaneRng(seeds)
    drawn = lane_rng.outputs(thresholds.size)
    divergent = merge_masks(outputs_below(drawn, thresholds).any(axis=1))

    diverged = compact_indices(divergent)
    try:
        order = _check_lockstep_recovery(config, calls)
        lockstep = True
    except EngineUnsupportedError:
        lockstep = False
    stage = "lockstep recovery" if lockstep else "scalar fault replay"
    diverged_rows = []
    for lane in diverged:
        lane = int(lane)
        try:
            if lockstep:
                # Lockstep means no drift, so every hook call drew: the
                # lane's row starts its epoch-0 stream, and its
                # generator stands just past the row.
                row = _recover_gather_lane(
                    config, ber, seeds[lane], order,
                    lane_rng.rngs[lane], drawn[lane],
                )
            else:
                row = _run_gather_trial(config, ber, seeds[lane])
            diverged_rows.append(row)
        except Exception as exc:
            raise SweepPointError(
                f"batched gather lane {lane} (seed {seeds[lane]}) failed "
                f"during {stage}: {type(exc).__name__}: {exc}",
                index=lane,
                point=(config, ber, seeds[lane]),
            ) from exc
    recovered = len(diverged) if lockstep else 0
    return LaneBatchResult(
        rows=scatter_lanes(len(seeds), diverged, diverged_rows, clean_row),
        lanes_clean=len(seeds) - len(diverged),
        lanes_recovered=recovered,
        lanes_replayed=len(diverged) - recovered,
    )


# ---------------------------------------------------------------------------
# mesh batches (permanent dead-link injector)
# ---------------------------------------------------------------------------


def _clean_mesh_row(config: CampaignConfig) -> MeshCampaignRow:
    """The fault-free mesh trial, evaluated on the compiled engine.

    Equal to ``_run_mesh_trial(config, 0, seed)`` for any seed: every
    campaign's transpose (2-flit packets, t_p = 1, one memory interface
    at ``(0, 0)``) is inside the compiled engine's closed-form domain,
    and a fault-free run has no report and no quarantine events.  An
    :class:`~repro.util.errors.EngineUnsupportedError` propagates.  A
    run longer than the cycle budget raises
    :class:`~repro.util.errors.NetworkError` on the compiled engine, where
    the reference engine reports the partial delivery, so that lane
    replays on the reference engine.
    """
    topology = MeshTopology.square(config.processors)
    network = MeshNetwork(topology, MeshConfig(engine="compiled"))
    network.add_memory_interface((0, 0))
    workload = make_transpose_gather(topology, cols=config.row_samples)
    network.inject_all(workload.packets)
    try:
        stats = network.run(max_cycles=_MESH_MAX_CYCLES)
    except NetworkError:
        return _run_mesh_trial(config, 0, 0)
    return MeshCampaignRow(
        dead_links=0,
        packets=len(workload.packets),
        packets_delivered=stats.packets_delivered,
        packets_lost=0,
        cycles=stats.cycles,
        mean_latency=stats.mean_packet_latency,
        quarantine_events=0,
        report_kind=None,
    )


def run_mesh_campaign_batch(
    config: CampaignConfig, lanes: Sequence[tuple[int, int]]
) -> LaneBatchResult:
    """Advance ``len(lanes)`` mesh trials, lanes = ``(dead_links, seed)``.

    Permanent faults perturb routing from the first cycle (quarantine
    detours), so the scalar-replay predicate is simply ``dead_links >
    0``, and those lanes replay on the reference engine.  The fault-free
    lanes share one row (it is seed-independent — no injector is ever
    installed at 0 dead links), evaluated on the compiled engine
    (:func:`_clean_mesh_row`).
    """
    lanes = [(int(dead), int(seed)) for dead, seed in lanes]
    if not lanes:
        raise ConfigError("mesh batch needs at least one lane")
    divergent = merge_masks(
        np.asarray([dead > 0 for dead, _ in lanes], dtype=bool)
    )
    clean_row = None if divergent.all() else _clean_mesh_row(config)
    replay = compact_indices(divergent)
    replayed_rows = []
    for lane in replay:
        lane = int(lane)
        dead, seed = lanes[lane]
        try:
            replayed_rows.append(_run_mesh_trial(config, dead, seed))
        except Exception as exc:
            raise SweepPointError(
                f"batched mesh lane {lane} (seed {seed}, {dead} dead links) "
                f"failed during scalar fault replay: "
                f"{type(exc).__name__}: {exc}",
                index=lane,
                point=(config, dead, seed),
            ) from exc
    rows = scatter_lanes(len(lanes), replay, replayed_rows, clean_row)
    # Each clean lane gets its own row instance: callers mutate rows
    # (report assembly), and aliased dataclasses would couple lanes.
    rows = [
        replace(row) if (row is clean_row and clean_row is not None) else row
        for row in rows
    ]
    return LaneBatchResult(
        rows=rows,
        lanes_clean=len(lanes) - len(replay),
        lanes_recovered=0,
        lanes_replayed=len(replay),
    )


# ---------------------------------------------------------------------------
# sweep workers (canonical batch points; the key names the batch shape)
# ---------------------------------------------------------------------------


def _gather_batch_point(point: tuple) -> LaneBatchResult:
    """Picklable sweep worker: one lockstep gather batch.

    The payload ``(CampaignConfig, ber, (seed, …))`` carries the batch
    shape — the seed *tuple* — so its content-addressed store key
    (:func:`repro.store.keys.point_key`) can never alias a scalar
    ``(config, ber, seed)`` point (different worker qualname *and*
    different canonical payload).  The stored :class:`LaneBatchResult`
    counts clean, recovered and replayed lanes.
    """
    config, ber, seeds = point
    return run_gather_campaign_batch(config, ber, seeds)


def _mesh_batch_point(point: tuple) -> LaneBatchResult:
    """Picklable sweep worker: one lockstep mesh batch.

    Canonical payload ``(CampaignConfig, ((dead_links, seed), …))``;
    the stored :class:`LaneBatchResult` counts clean, recovered (always
    0 on the mesh) and replayed lanes.
    """
    config, lanes = point
    return run_mesh_campaign_batch(config, lanes)
