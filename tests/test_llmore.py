"""Tests for the LLMORE-like phase simulator and the Fig. 13/14 sweeps."""

import pytest

from repro.llmore import (
    BlockRowMap,
    Fft2dApp,
    MachineModel,
    ReorgMechanism,
    figure13_sweep,
    mesh_machine,
    psync_machine,
    simulate_fft2d,
)
from repro.util.errors import ConfigError


class TestApp:
    def test_paper_instance(self):
        app = Fft2dApp()
        assert app.total_samples == 1 << 20
        assert app.total_bits == (1 << 20) * 64

    def test_multiply_counts(self):
        app = Fft2dApp(rows=1024, cols=1024)
        # 1024 rows x 2*1024*10 multiplies.
        assert app.multiplies_for_phase("row_fft") == 1024 * 20480
        assert app.total_multiplies == 2 * 1024 * 20480

    def test_flops_positive(self):
        assert Fft2dApp().total_flops > 0

    def test_phase_kind_checks(self):
        app = Fft2dApp()
        with pytest.raises(ConfigError):
            app.multiplies_for_phase("scatter")
        with pytest.raises(ConfigError):
            app.bits_for_phase("row_fft")

    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            Fft2dApp(rows=1000)


class TestMapping:
    def test_balanced_map(self):
        m = BlockRowMap(rows=1024, cols=1024, cores=256)
        assert m.rows_per_core == 4
        assert m.samples_per_core == 4096
        assert m.is_balanced()

    def test_oversubscribed_cores(self):
        m = BlockRowMap(rows=64, cols=64, cores=4096)
        assert m.active_cores == 64
        assert m.rows_per_core == 1

    def test_owner(self):
        m = BlockRowMap(rows=8, cols=8, cores=4)
        assert m.owner(0) == 0
        assert m.owner(7) == 3

    def test_rows_of(self):
        m = BlockRowMap(rows=8, cols=8, cores=4)
        assert list(m.rows_of(1)) == [2, 3]

    def test_idle_core_empty_rows(self):
        m = BlockRowMap(rows=4, cols=4, cores=8)
        assert list(m.rows_of(7)) == []

    def test_transposed_swaps_dims(self):
        m = BlockRowMap(rows=16, cols=8, cores=4).transposed()
        assert m.rows == 8 and m.cols == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            BlockRowMap(rows=0, cols=4, cores=2)
        with pytest.raises(ConfigError):
            BlockRowMap(rows=4, cols=4, cores=2).owner(9)


class TestMachineModels:
    def test_square_requirement(self):
        with pytest.raises(ConfigError):
            MachineModel(name="x", cores=12, mechanism=ReorgMechanism.SCA)

    def test_with_cores(self):
        m = mesh_machine(64).with_cores(256)
        assert m.cores == 256
        assert m.mechanism is ReorgMechanism.MESH_BLOCKWISE

    def test_aggregate_memory_bandwidth(self):
        m = psync_machine(64)
        assert m.aggregate_memory_gbps == pytest.approx(320.0)

    def test_cycle_time(self):
        assert mesh_machine(64).cycle_ns == pytest.approx(0.4)


class TestSimulation:
    def test_phases_present(self):
        result = simulate_fft2d(Fft2dApp(), psync_machine(64))
        assert set(result.phases) == {
            "scatter",
            "row_fft",
            "reorganize",
            "load",
            "col_fft",
        }

    def test_total_is_sum(self):
        r = simulate_fft2d(Fft2dApp(), mesh_machine(64))
        assert r.total_ns == pytest.approx(sum(r.phases.values()))

    def test_compute_shrinks_with_cores(self):
        app = Fft2dApp()
        small = simulate_fft2d(app, psync_machine(16))
        big = simulate_fft2d(app, psync_machine(256))
        assert big.compute_ns < small.compute_ns

    def test_sca_reorg_independent_of_cores(self):
        app = Fft2dApp()
        a = simulate_fft2d(app, psync_machine(16)).phases["reorganize"]
        b = simulate_fft2d(app, psync_machine(1024)).phases["reorganize"]
        assert a == pytest.approx(b)

    def test_mesh_reorg_grows_with_cores(self):
        app = Fft2dApp()
        a = simulate_fft2d(app, mesh_machine(64)).phases["reorganize"]
        b = simulate_fft2d(app, mesh_machine(1024)).phases["reorganize"]
        assert b > a

    def test_mismatched_map_rejected(self):
        with pytest.raises(ConfigError):
            simulate_fft2d(
                Fft2dApp(),
                psync_machine(64),
                BlockRowMap(1024, 1024, cores=16),
            )

    def test_gflops_positive(self):
        assert simulate_fft2d(Fft2dApp(), psync_machine(64)).gflops > 0


class TestModelIIDelivery:
    """The paper's Section VI-B expectation, as a first-class option."""

    def test_model2_improves_psync(self):
        app = Fft2dApp()
        m1 = simulate_fft2d(app, psync_machine(256), delivery_k=1)
        m8 = simulate_fft2d(app, psync_machine(256), delivery_k=8)
        assert m8.gflops > 1.2 * m1.gflops

    def test_gain_shrinks_at_scale(self):
        """At 1024+ cores compute is already tiny; overlap buys less."""
        app = Fft2dApp()
        gain_256 = (
            simulate_fft2d(app, psync_machine(256), delivery_k=8).gflops
            / simulate_fft2d(app, psync_machine(256)).gflops
        )
        gain_1024 = (
            simulate_fft2d(app, psync_machine(1024), delivery_k=8).gflops
            / simulate_fft2d(app, psync_machine(1024)).gflops
        )
        assert gain_256 > gain_1024 > 1.0

    def test_phase_keys_complete(self):
        result = simulate_fft2d(Fft2dApp(), psync_machine(64), delivery_k=4)
        assert set(result.phases) == {
            "scatter", "row_fft", "reorganize", "load", "col_fft",
        }
        assert result.phases["scatter"] == 0.0  # folded into row_fft

    def test_k1_identical_to_default(self):
        app = Fft2dApp()
        a = simulate_fft2d(app, mesh_machine(64))
        b = simulate_fft2d(app, mesh_machine(64), delivery_k=1)
        assert a.phases == b.phases

    def test_validation(self):
        with pytest.raises(ConfigError):
            simulate_fft2d(Fft2dApp(), psync_machine(64), delivery_k=0)

    def test_model2_sweep_preserves_fig13_shape(self):
        """Section VI-B's upgrade lifts both machines but the paper's
        qualitative claims survive: mesh still peaks at 256, P-sync still
        converges and still wins past the knee."""
        sweep = figure13_sweep(delivery_k=8)
        assert sweep.mesh_peak_cores == 256
        assert sweep.psync_converges_to_ideal
        assert sweep.psync_advantage(4096) > 2.0

    def test_model2_sweep_lifts_psync_everywhere(self):
        base = figure13_sweep()
        upgraded = figure13_sweep(delivery_k=8)
        for a, b in zip(base.points, upgraded.points):
            assert b.psync.gflops >= a.psync.gflops - 1e-9


class TestFigure13Shape:
    @pytest.fixture(scope="class")
    def sweep(self):
        return figure13_sweep()

    def test_mesh_peaks_around_256(self, sweep):
        """Paper: 'the performance of the electronic mesh architecture
        peaks around 256 cores and decreases'."""
        assert sweep.mesh_peak_cores == 256

    def test_mesh_declines_after_peak(self, sweep):
        g = dict(zip(sweep.cores, sweep.mesh_gflops))
        assert g[1024] < g[256]
        assert g[4096] < g[1024]

    def test_psync_converges_to_ideal(self, sweep):
        assert sweep.psync_converges_to_ideal

    def test_psync_2x_to_10x_past_256(self, sweep):
        """Paper: 'two to ten times better ... for P > 256'."""
        for cores in (1024, 4096):
            adv = sweep.psync_advantage(cores)
            assert 2.0 <= adv <= 10.0

    def test_ideal_dominates_everything(self, sweep):
        for p in sweep.points:
            assert p.ideal.gflops >= p.mesh.gflops - 1e-9
            assert p.ideal.gflops >= p.psync.gflops - 1e-9

    def test_ideal_saturates(self, sweep):
        """Fig. 13: ideal performance doesn't scale linearly — memory
        bandwidth (4 controllers) bounds it."""
        g = dict(zip(sweep.cores, sweep.ideal_gflops))
        assert g[4096] / g[1024] < 1.1  # flat at the top
        assert g[16] / g[4] > 3.0       # near-linear at the bottom


class TestFigure14Shape:
    @pytest.fixture(scope="class")
    def sweep(self):
        return figure13_sweep()

    def test_mesh_fraction_grows(self, sweep):
        fr = sweep.mesh_reorg_fractions
        assert fr == sorted(fr)
        assert fr[-1] > 0.8

    def test_psync_fraction_levels_off(self, sweep):
        """Paper: P-sync's share 'levels off to a significantly more
        reasonable percentage'."""
        fr = dict(zip(sweep.cores, sweep.psync_reorg_fractions))
        assert fr[4096] == pytest.approx(fr[1024], rel=0.05)
        assert fr[4096] < 0.5

    def test_mesh_fraction_exceeds_psync_at_scale(self, sweep):
        """Past trivially small machines the mesh pays more for the
        reorganization.  (At 4 cores the SCA's per-row header overhead
        slightly exceeds the uncongested mesh's — also visible in the
        paper's Fig. 14, where the curves start together.)"""
        for p in sweep.points:
            if p.cores >= 64:
                assert p.mesh.reorg_fraction > p.psync.reorg_fraction
