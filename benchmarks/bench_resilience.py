"""Resilience campaign — degradation under seeded faults (repro.faults).

The paper presents a fault-free machine; this bench measures what its
architecture does when the physics misbehaves.  One seeded Monte-Carlo
campaign runs the Section V transpose workload twice over:

* the CRC-protected PSCAN gather under a transient-BER sweep, reporting
  delivered-correct fraction and retransmission overhead (cycles and
  photonic energy);
* the wormhole mesh under permanent link failures with fault-aware
  adaptive rerouting, reporting delivered packets and latency inflation.

Asserts the recovery-story claims: bit-exact delivery through BER
<= 1e-3, 100 % packet delivery with one dead link, monotone (non-
negative) retransmission overhead, and bit-for-bit campaign
reproducibility under the same seed.

A second bench pits the SIMD-lockstep batched campaign engine
(``run_campaign``) against the same trials run one seed at a time on a
process pool, on a dense low-BER grid, and enforces the acceptance
floor: byte-identical reports in every pair and a median of >= 5x
campaign throughput over alternating pairs.
"""

import statistics
import time

from repro.faults import CampaignConfig, run_campaign
from repro.faults.campaign import (
    _campaign_report,
    _draw_seeds,
    _run_gather_trial,
    _run_mesh_trial,
)
from repro.perf.sweep import run_sweep

from conftest import alternating_pairs, emit, once

CONFIG = CampaignConfig(
    processors=16,
    row_samples=8,
    trials=2,
    seed=20130901,  # the paper's publication month
    fault_rates=(0.0, 1e-5, 1e-4, 1e-3),
    mesh_link_failures=2,
)


def test_resilience_campaign(benchmark):
    report = once(benchmark, lambda: run_campaign(CONFIG))
    emit("Resilience: seeded fault campaign", report.as_table().splitlines())

    # Recovery is bit-exact through the whole swept BER range.
    for row in report.gather_rows:
        assert row.delivered_correct_fraction == 1.0, (
            f"BER {row.ber:.0e}: delivered-correct "
            f"{row.delivered_correct_fraction:.4f} < 1"
        )
        assert row.exhausted_trials == 0
    # The fault-free row pays only the CRC sideband, never retransmits.
    clean = report.gather_rows[0]
    assert clean.ber == 0.0
    assert clean.crc_nacks == 0
    assert clean.retransmit_energy_pj == 0.0
    # Overhead grows with the injected error rate at the sweep's ends.
    worst = report.gather_rows[-1]
    assert worst.mean_overhead_cycles >= clean.mean_overhead_cycles

    # Dead links degrade latency at worst -- never delivery.
    baseline = report.mesh_rows[0]
    assert baseline.dead_links == 0
    for row in report.mesh_rows:
        assert row.delivered_fraction == 1.0, (
            f"{row.dead_links} dead link(s): lost {row.packets_lost} packets"
        )

    # Same seed => same report, bit for bit.
    assert run_campaign(CONFIG).as_table() == report.as_table()


#: A dense low-BER grid is the batched engine's home turf: almost every
#: lane stays fault-free, so a whole chunk shares one probe timeline and
#: the injector draws advance as numpy blocks.  ``mesh_link_failures=0``
#: keeps the mesh section fault-free: dead links force scalar replay by
#: design, which would time the fallback rather than the lockstep path.
#: The one fault-free mesh lane runs on the compiled engine in the
#: batched campaign and on the reference engine in the per-seed trials.
BATCHED_CONFIG = CampaignConfig(
    processors=16,
    row_samples=8,
    trials=192,
    seed=20130901,
    fault_rates=(1e-6, 2e-6),
    mesh_link_failures=0,
)


def _per_seed_trial(point):
    """Picklable pool worker: one campaign trial, run on its own."""
    section, config, arg, seed = point
    if section == "gather":
        return _run_gather_trial(config, arg, seed)
    return _run_mesh_trial(config, arg, seed)


def _timed_per_seed_pool():
    """The campaign's trials, one seed at a time on a 4-worker pool."""
    t0 = time.perf_counter()
    seeds_by_ber, mesh_lanes = _draw_seeds(BATCHED_CONFIG)
    gather = [
        ("gather", BATCHED_CONFIG, ber, seed)
        for ber in BATCHED_CONFIG.fault_rates
        for seed in seeds_by_ber[ber]
    ]
    mesh = [("mesh", BATCHED_CONFIG, dead, seed) for dead, seed in mesh_lanes]
    rows = run_sweep(
        _per_seed_trial, gather + mesh, parallel=True, max_workers=4
    )
    report = _campaign_report(
        BATCHED_CONFIG, rows[: len(gather)], rows[len(gather) :]
    )
    return time.perf_counter() - t0, report.as_table()


def _timed_batched():
    t0 = time.perf_counter()
    # One lockstep chunk per fault rate.
    report = run_campaign(BATCHED_CONFIG, batch=BATCHED_CONFIG.trials)
    return time.perf_counter() - t0, report.as_table()


def test_batched_campaign_speedup():
    ratios = alternating_pairs(
        "Resilience: per-seed process pool over SIMD-lockstep batched "
        "campaign",
        _timed_per_seed_pool,
        _timed_batched,
        pairs=10,
    )
    # Acceptance floor: the lockstep engine must beat the per-seed
    # trials on a process pool by at least 5x on its home-turf dense
    # low-BER grid.
    speedup = statistics.median(ratios)
    assert speedup >= 5.0, (
        f"batched campaign speedup {speedup:.2f}x fell below the 5x "
        f"acceptance floor"
    )
