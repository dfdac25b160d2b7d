"""Tests for the parallel sweep runner.

The contract of :mod:`repro.perf.sweep` is *determinism*: a parallel run
must return bit-identical results to the serial run, in the same order,
because the fault campaigns and figure sweeps that ride on it are seeded
experiments.
"""

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.perf.sweep import default_workers, grid_points, run_sweep
from repro.util.errors import ConfigError

from .test_batched_campaign import per_seed_campaign

# ---------------------------------------------------------------------------
# module-level workers (must be picklable for ProcessPoolExecutor)
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _combine(a, b):
    return (a, b, a * 10 + b)


# ---------------------------------------------------------------------------
# grid + sweep
# ---------------------------------------------------------------------------


class TestGridPoints:
    def test_odometer_order(self):
        pts = grid_points(a=[1, 2], b=["x", "y", "z"])
        assert pts == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 1, "b": "z"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
            {"a": 2, "b": "z"},
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            grid_points(a=[1, 2], b=[])

    def test_default_workers_bounds(self):
        assert default_workers(0) >= 1
        assert default_workers(1) == 1
        assert default_workers(10**6) >= 1


class TestRunSweep:
    def test_serial_order_preserved(self):
        xs = list(range(20))
        assert run_sweep(_square, xs, parallel=False) == [x * x for x in xs]

    def test_parallel_matches_serial(self):
        xs = list(range(24))
        serial = run_sweep(_square, xs, parallel=False)
        parallel = run_sweep(_square, xs, parallel=True, max_workers=2)
        assert parallel == serial

    def test_mapping_points_become_kwargs(self):
        pts = grid_points(a=[1, 2], b=[3, 4])
        out = run_sweep(_combine, pts, parallel=False)
        assert out == [(1, 3, 13), (1, 4, 14), (2, 3, 23), (2, 4, 24)]
        assert run_sweep(_combine, pts, parallel=True, max_workers=2) == out

    def test_single_point_runs_serial(self):
        assert run_sweep(_square, [7]) == [49]


class TestCampaignParallelDeterminism:
    def test_parallel_campaign_identical_to_serial(self):
        config = CampaignConfig(
            processors=16,
            row_samples=4,
            trials=2,
            fault_rates=(0.0, 1e-4),
            mesh_link_failures=1,
        )
        serial = run_campaign(config, parallel=False)
        # One lane per batch, so the pool has 4 gather + 2 mesh points.
        parallel = run_campaign(config, parallel=True, max_workers=2, batch=1)
        assert parallel.as_table() == serial.as_table()
        assert parallel == per_seed_campaign(config)
