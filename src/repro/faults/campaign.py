"""Seeded Monte-Carlo resilience campaigns over the 2D-FFT workload.

For each fault rate in a sweep, execute ``trials`` independent
CRC-protected transpose gathers of a distributed 2D FFT's row-FFT
outputs (the paper's Section V workload) under a seeded
:class:`~repro.faults.models.PscanFaultModel`, and measure

* **delivered-correct fraction** — words equal to the source data after
  recovery (undetected CRC collisions and exhausted retries count
  against it);
* **retransmission overhead** — extra bus cycles (CRC sideband +
  re-driven words + backoff) and extra photonic energy
  (:meth:`repro.energy.photonic.PhotonicEnergyModel.retransmission_energy_pj`);
* the **degradation curve** of both vs the fault rate.

A mesh section does the same for permanent link failures: the transpose
workload on the wormhole mesh with ``k`` random dead links, measuring
delivered packets and latency inflation via
:meth:`~repro.mesh.MeshNetwork.run_resilient`.

Determinism: every trial's injector seed derives from ``config.seed``
via a private ``random.Random``, so the same config replays the same
report, bit for bit.  :func:`run_campaign` runs the trials as lockstep
lane batches (:mod:`repro.faults.batched`); :func:`_run_gather_trial`
and :func:`_run_mesh_trial` run one seed at a time, and are the
reference every batch is pinned to.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.pscan import Pscan, RetryStats
from ..core.schedule import transpose_order
from ..energy.photonic import PhotonicEnergyModel
from ..fft import fft
from ..mesh import MeshNetwork, MeshTopology, make_transpose_gather
from ..photonics.waveguide import Waveguide
from ..sim.engine import Simulator
from ..util.errors import ConfigError, SweepPointError
from ..util.validation import require_power_of_two
from .models import DriftEpisode, MeshFaultPlan, PscanFaultModel
from .recovery import ReliableGather, RetryPolicy

__all__ = [
    "CampaignConfig",
    "GatherCampaignRow",
    "MeshCampaignRow",
    "CampaignReport",
    "run_campaign",
]


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Shape of one resilience campaign."""

    #: Contributing nodes (= rows of the FFT matrix).
    processors: int = 16
    #: Words gathered per node (= row samples / matrix columns).
    row_samples: int = 8
    #: Independent trials per fault rate.
    trials: int = 3
    #: Master seed; everything derives from it.
    seed: int = 1234
    #: BER sweep (the degradation curve's x axis).
    fault_rates: tuple[float, ...] = (0.0, 1e-5, 1e-4, 1e-3)
    #: Retry policy of the reliable gather.
    max_retries: int = 6
    backoff_cycles: int = 8
    #: Mesh section: sweep 0..this many random dead links.
    mesh_link_failures: int = 2
    #: Node pitch along the PSCAN waveguide, mm.
    node_pitch_mm: float = 2.0
    #: Thermal drift windows applied to every gather trial's injector —
    #: the campaign's drift axis (``()`` = no drift).  Only meaningful
    #: at fault rates > 0 (a rate of exactly 0 installs no injector,
    #: mirroring the fault-free baseline).
    drift_episodes: tuple[DriftEpisode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift_episodes", tuple(self.drift_episodes))
        if self.processors < 2:
            raise ConfigError("processors must be >= 2")
        require_power_of_two("row_samples", self.row_samples)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.mesh_link_failures < 0:
            raise ConfigError("mesh_link_failures must be >= 0")
        # Each rate is one printed row aggregating ``trials`` trials, so a
        # repeated rate would double-count; a BER is a probability < 1.
        for rate in self.fault_rates:
            if not 0.0 <= rate < 1.0:
                raise ConfigError(
                    f"fault_rates must each be in [0, 1), got {rate!r}"
                )
        if len(set(self.fault_rates)) != len(self.fault_rates):
            raise ConfigError(
                f"fault_rates must be unique, got {tuple(self.fault_rates)!r}"
            )
        side = int(self.processors ** 0.5)
        if side * side != self.processors:
            raise ConfigError(
                f"processors must be a perfect square for the mesh section, "
                f"got {self.processors}"
            )


@dataclass
class GatherCampaignRow:
    """Aggregate outcome of all trials at one BER."""

    ber: float
    trials: int
    words_per_trial: int
    delivered_correct_fraction: float
    mean_epochs: float
    crc_nacks: int
    retransmitted_words: int
    undetected_errors: int
    exhausted_trials: int
    mean_overhead_cycles: float
    mean_overhead_fraction: float
    retransmit_energy_pj: float


@dataclass
class MeshCampaignRow:
    """Mesh transpose under ``dead_links`` random link failures."""

    dead_links: int
    packets: int
    packets_delivered: int
    packets_lost: int
    cycles: int
    mean_latency: float
    quarantine_events: int
    report_kind: str | None

    @property
    def delivered_fraction(self) -> float:
        """Packets delivered over packets injected."""
        if self.packets == 0:
            return 1.0
        return self.packets_delivered / self.packets


@dataclass
class CampaignReport:
    """Everything a resilience campaign measured."""

    config: CampaignConfig
    gather_rows: list[GatherCampaignRow] = field(default_factory=list)
    mesh_rows: list[MeshCampaignRow] = field(default_factory=list)

    def as_table(self) -> str:
        """Human-readable summary (what the CLI prints)."""
        lines = [
            f"PSCAN gather under transient BER "
            f"({self.config.processors} nodes x {self.config.row_samples} "
            f"words, {self.config.trials} trial(s)/rate, "
            f"seed {self.config.seed}):",
            f"{'BER':>8} {'correct %':>9} {'epochs':>7} {'NACKs':>6} "
            f"{'retx':>5} {'undet':>6} {'exh':>4} {'ovh cyc':>8} "
            f"{'ovh %':>7} {'retx pJ':>9}",
        ]
        for r in self.gather_rows:
            lines.append(
                f"{r.ber:>8.0e} {100 * r.delivered_correct_fraction:>9.3f} "
                f"{r.mean_epochs:>7.2f} {r.crc_nacks:>6} "
                f"{r.retransmitted_words:>5} {r.undetected_errors:>6} "
                f"{r.exhausted_trials:>4} {r.mean_overhead_cycles:>8.1f} "
                f"{100 * r.mean_overhead_fraction:>7.2f} "
                f"{r.retransmit_energy_pj:>9.2f}"
            )
        lines.append("")
        lines.append(
            "mesh transpose under permanent link failures "
            "(fault-aware adaptive rerouting):"
        )
        lines.append(
            f"{'dead':>5} {'delivered %':>11} {'lost':>5} {'cycles':>7} "
            f"{'latency':>8} {'quar':>5} {'outcome':>9}"
        )
        for m in self.mesh_rows:
            lines.append(
                f"{m.dead_links:>5} {100 * m.delivered_fraction:>11.2f} "
                f"{m.packets_lost:>5} {m.cycles:>7} {m.mean_latency:>8.1f} "
                f"{m.quarantine_events:>5} {(m.report_kind or 'clean'):>9}"
            )
        return "\n".join(lines)


def _fft_row_data(config: CampaignConfig, seed: int) -> dict[int, list[complex]]:
    """Each node's row-FFT output: the words the transpose gathers.

    One draw fills every node's real then imaginary samples in stream
    order (node-major), and one FFT transforms all rows at once.
    """
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((config.processors, 2, config.row_samples))
    spectra = fft(draws[:, 0] + 1j * draws[:, 1])
    return {node: spectra[node].tolist() for node in range(config.processors)}


def _execute_gather(
    config: CampaignConfig, fault_hook, data_seed: int
) -> tuple[float, int, int, int, int, bool, int, float]:
    """One protected gather against ``fault_hook`` (``None`` = fault-free).

    Shared by the scalar trial below and the batched engine's fault-free
    probe (:mod:`repro.faults.batched`), so both observe the exact same
    timeline construction.
    """
    sim = Simulator()
    length = config.node_pitch_mm * (config.processors + 1)
    positions = {
        i: config.node_pitch_mm * (i + 1) for i in range(config.processors)
    }
    pscan = Pscan(sim, Waveguide(length_mm=length), positions)
    if fault_hook is not None:
        pscan.fault_hook = fault_hook
    reliable = ReliableGather(pscan, _retry_policy(config))
    data = _fft_row_data(config, data_seed)
    result = reliable.gather(
        _gather_order(config), data, receiver_mm=length, raise_on_exhaust=False
    )
    return _gather_row(
        result.stats, result.residual, result.correct_fraction(data)
    )


def _gather_order(config: CampaignConfig) -> list[tuple[int, int]]:
    """The transpose burst every campaign gather drives (cycle order)."""
    return transpose_order(rows=config.processors, cols=config.row_samples)


def _retry_policy(config: CampaignConfig) -> RetryPolicy:
    """The reliable gather's retry policy for a campaign."""
    return RetryPolicy(
        max_retries=config.max_retries, backoff_cycles=config.backoff_cycles
    )


def _gather_row(
    stats: RetryStats, residual: list, correct_fraction: float
) -> tuple[float, int, int, int, int, bool, int, float]:
    """A trial's raw row ingredients, in :func:`_campaign_report`'s order."""
    return (
        correct_fraction,
        stats.epochs,
        stats.crc_nacks,
        stats.retransmitted_words,
        stats.undetected_errors,
        bool(residual),
        stats.overhead_cycles,
        stats.overhead_fraction,
    )


def _run_gather_trial(
    config: CampaignConfig, ber: float, trial_seed: int
) -> tuple[float, int, int, int, int, bool, int, float]:
    """One seeded protected gather; returns the row's raw ingredients."""
    hook = None
    if ber > 0.0:
        hook = PscanFaultModel(
            ber=ber, seed=trial_seed, drift_episodes=config.drift_episodes
        ).__call__
    return _execute_gather(config, hook, trial_seed)


#: Cycle budget of every mesh trial; a run still carrying traffic when
#: it runs out ends as a ``max-cycles`` report.
_MESH_MAX_CYCLES = 500_000


def _run_mesh_trial(config: CampaignConfig, dead_links: int, seed: int) -> MeshCampaignRow:
    """Transpose workload on the mesh with ``dead_links`` random failures."""
    topology = MeshTopology.square(config.processors)
    network = MeshNetwork(topology)
    network.add_memory_interface((0, 0))
    if dead_links:
        MeshFaultPlan.random_links(topology, dead_links, seed=seed).install(network)
    workload = make_transpose_gather(topology, cols=config.row_samples)
    network.inject_all(workload.packets)
    total = len(workload.packets)
    stats, report = network.run_resilient(max_cycles=_MESH_MAX_CYCLES)
    return MeshCampaignRow(
        dead_links=dead_links,
        packets=total,
        packets_delivered=stats.packets_delivered,
        packets_lost=len(stats.packets_lost),
        cycles=stats.cycles,
        mean_latency=stats.mean_packet_latency,
        quarantine_events=stats.quarantine_events,
        report_kind=report.kind if report is not None else None,
    )


def _chunked(items: Sequence, size: int) -> list:
    """Split ``items`` into consecutive runs of ``size`` (last may be short)."""
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def _draw_seeds(
    config: CampaignConfig,
) -> tuple[dict[float, list[int]], list[tuple[int, int]]]:
    """Every trial seed of a campaign, drawn from ``config.seed``.

    Returns ``(seeds_by_ber, mesh_lanes)``: ``config.trials`` gather
    seeds per fault rate, drawn first in rate order, then one
    ``(dead_links, seed)`` mesh lane per dead-link count.
    """
    seeder = random.Random(config.seed)
    seeds_by_ber = {
        ber: [seeder.randrange(2**32) for _ in range(config.trials)]
        for ber in config.fault_rates
    }
    mesh_lanes = [
        (dead, seeder.randrange(2**32))
        for dead in range(config.mesh_link_failures + 1)
    ]
    return seeds_by_ber, mesh_lanes


def _campaign_report(
    config: CampaignConfig,
    gather_rows: Sequence[tuple],
    mesh_rows: Sequence[MeshCampaignRow],
) -> CampaignReport:
    """Aggregate per-trial rows into a :class:`CampaignReport`.

    ``gather_rows`` holds one :func:`_run_gather_trial` row per seed of
    :func:`_draw_seeds`, in its order (``config.trials`` per fault
    rate); ``mesh_rows`` one :func:`_run_mesh_trial` row per mesh lane.
    """
    report = CampaignReport(config=config, mesh_rows=list(mesh_rows))
    energy_model = PhotonicEnergyModel()
    per_ber = _chunked(gather_rows, config.trials)
    for ber, rows in zip(config.fault_rates, per_ber, strict=True):
        frac, epochs, nacks, retx, undet, exh, ovh, ovf = zip(*rows)
        retransmitted = sum(retx)
        report.gather_rows.append(
            GatherCampaignRow(
                ber=ber,
                trials=config.trials,
                words_per_trial=config.processors * config.row_samples,
                delivered_correct_fraction=sum(frac) / len(frac),
                mean_epochs=sum(epochs) / config.trials,
                crc_nacks=sum(nacks),
                retransmitted_words=retransmitted,
                undetected_errors=sum(undet),
                exhausted_trials=sum(exh),
                mean_overhead_cycles=sum(ovh) / len(ovh),
                mean_overhead_fraction=sum(ovf) / len(ovf),
                retransmit_energy_pj=energy_model.retransmission_energy_pj(
                    config.processors, retransmitted
                )
                / config.trials,
            )
        )
    return report


def _raise_lane_error(err: SweepPointError, lane_counts: list[int]):
    """Re-raise a batch-level sweep failure as its failing *lane*.

    A batched worker that fails during per-lane fault replay raises a
    lane-scoped :class:`SweepPointError` — ``index`` = lane position in
    the batch, ``point`` = the lane's ``(config, …, seed)`` payload.
    ``run_sweep`` then wraps it again with the *batch* grid index, which
    is useless for triage; this translates back to the campaign's flat
    seed-order index and the (seed, point) pair.
    """
    cause = err.__cause__
    if not isinstance(cause, SweepPointError) or cause.point is None:
        raise err
    index = sum(lane_counts[: err.index]) + cause.index
    raise SweepPointError(
        f"campaign trial failed at seed-order index {index}: "
        f"{cause.args[0] if cause.args else cause!r}",
        index=index,
        point=cause.point,
        key=err.key,
    ) from (cause.__cause__ or cause)


def _emit_batch_obs(obs, label: str, results, wall_s: float) -> None:
    """Forward a batched section's lane counters to the obs session."""
    if obs is None:
        return
    lanes = sum(len(r.rows) for r in results)
    obs.campaign_batch(
        label,
        lanes=lanes,
        clean=sum(r.lanes_clean for r in results),
        recovered=sum(r.lanes_recovered for r in results),
        replayed=sum(r.lanes_replayed for r in results),
        wall_s=wall_s,
    )


def run_campaign(
    config: CampaignConfig | None = None,
    *,
    parallel: bool = False,
    max_workers: int | None = None,
    checkpoint: str | None = None,
    resume: bool = True,
    obs: object = None,
    stop_after: int | None = None,
    batch: int | None = None,
) -> CampaignReport:
    """Run the full campaign; same config (incl. seed) ⇒ same report.

    Every trial's seed is drawn up front (:func:`_draw_seeds`), and the
    trials run in lanes-of-``batch`` grid points on the SIMD-lockstep
    engine (:mod:`repro.faults.batched`); ``batch`` defaults to
    ``config.trials``, one gather batch per fault rate.  Lanes whose
    injector draws fire no fault share one fault-free timeline,
    divergent gather lanes recover in lockstep and the rest replay
    scalar, so the report is bit-for-bit identical to running
    :func:`_run_gather_trial` and :func:`_run_mesh_trial` one seed at a
    time, whatever the batch size (differentially tested in
    ``tests/test_batched_campaign.py``).  With ``parallel=True`` the
    batches fan out over :func:`repro.perf.sweep.run_sweep`'s process
    pool and merge back in grid order.

    ``checkpoint``/``resume`` enable the content-addressed result store
    (see ``docs/sweeps.md``): every batch is persisted as it completes,
    an interrupted campaign resumes by re-executing only the missing
    grid points, and a warm store regenerates the report without
    running a single simulation.  Batch points are canonical by
    construction — ``(CampaignConfig, ber, (seed, …))`` and
    ``(CampaignConfig, ((dead_links, seed), …))`` tuples of a frozen
    dataclass and plain numbers — so their store keys are stable across
    processes and pickle protocols, and name the batch shape.  ``obs``
    (an :class:`repro.obs.ObsSession`) receives per-point spans/metrics
    plus per-section lane counters and a lanes/sec gauge;
    ``stop_after`` bounds how many *pending* points each of the two
    sweeps may execute before raising
    :class:`~repro.util.errors.SweepInterrupted` (completed points stay
    checkpointed).
    """
    from ..perf.sweep import run_sweep
    from .batched import _gather_batch_point, _mesh_batch_point, shared_probes

    config = config or CampaignConfig()
    if batch is None:
        batch = config.trials
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch!r}")
    seeds_by_ber, mesh_lanes = _draw_seeds(config)
    sweep = dict(
        parallel=parallel,
        max_workers=max_workers,
        checkpoint=checkpoint,
        resume=resume,
        obs=obs,
        stop_after=stop_after,
    )

    gather_grid = [
        (config, ber, tuple(chunk))
        for ber in config.fault_rates
        for chunk in _chunked(seeds_by_ber[ber], batch)
    ]
    t0 = time.perf_counter()
    try:
        # Every batch point of this call shares one fault-free probe.
        with shared_probes():
            gather_results = run_sweep(
                _gather_batch_point,
                gather_grid,
                label="faults-gather-batched",
                **sweep,
            )
    except SweepPointError as err:
        _raise_lane_error(err, [len(p[2]) for p in gather_grid])
    _emit_batch_obs(
        obs, "faults-gather", gather_results, time.perf_counter() - t0
    )

    mesh_grid = [(config, tuple(chunk)) for chunk in _chunked(mesh_lanes, batch)]
    t0 = time.perf_counter()
    try:
        mesh_results = run_sweep(
            _mesh_batch_point, mesh_grid, label="faults-mesh-batched", **sweep
        )
    except SweepPointError as err:
        _raise_lane_error(err, [len(p[1]) for p in mesh_grid])
    _emit_batch_obs(obs, "faults-mesh", mesh_results, time.perf_counter() - t0)

    return _campaign_report(
        config,
        [row for res in gather_results for row in res.rows],
        [row for res in mesh_results for row in res.rows],
    )
