"""Tests for Table III: transpose completion time, PSCAN vs mesh."""

import pytest

from repro.analysis import (
    measure_mesh_transpose,
    mesh_transpose_cycles_model,
    pscan_transactions,
    pscan_transpose_cycles,
    table3,
    transaction_cycles,
)
from repro.util import constants
from repro.util.errors import ConfigError


class TestPscanClosedForm:
    def test_eq23_paper_parameters(self):
        assert pscan_transactions() == 32768

    def test_eq24_paper_parameters(self):
        assert transaction_cycles() == 33

    def test_paper_headline_number(self):
        """Section V-C1: 'optimally completed in 1,081,344 bus cycles'."""
        assert pscan_transpose_cycles() == 1_081_344

    def test_scales_linearly_with_matrix(self):
        half = pscan_transpose_cycles(row_samples=512)
        assert half * 2 == pscan_transpose_cycles()

    def test_header_free_lower_bound(self):
        no_header = pscan_transpose_cycles(header_bits=0)
        # 2^20 samples x 64 bits / 64-bit bus = exactly one cycle/sample.
        assert no_header == 1 << 20

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError):
            pscan_transactions(row_samples=1, processors=1)  # 64 bits < a row
        with pytest.raises(ConfigError):
            transaction_cycles(bus_bits=60)  # 2112 % 60 != 0


class TestPaperScaleModel:
    def test_table3_tp1_matches_paper(self):
        rows = {r.t_p: r for r in table3()}
        assert rows[1].multiplier == pytest.approx(3.26, abs=0.02)
        assert rows[1].paper_multiplier == pytest.approx(3.26, abs=0.01)

    def test_table3_tp4_matches_paper(self):
        rows = {r.t_p: r for r in table3()}
        assert rows[4].multiplier == pytest.approx(6.06, abs=0.15)
        assert rows[4].paper_multiplier == pytest.approx(6.06, abs=0.01)

    def test_model_monotone_in_tp(self):
        assert mesh_transpose_cycles_model(reorder_cycles=4) > (
            mesh_transpose_cycles_model(reorder_cycles=1)
        )

    def test_explicit_congestion_factor(self):
        base = mesh_transpose_cycles_model(congestion_factor=1.0)
        assert base == 1024 * 1024 * 2  # elements x (1 + t_p), no dilation

    def test_pscan_reference_constant(self):
        rows = table3()
        assert all(
            r.pscan_cycles == constants.PAPER_PSCAN_TRANSPOSE_CYCLES for r in rows
        )


class TestMeasuredTranspose:
    """Flit-level cross-checks at reachable scale."""

    def test_multiplier_in_paper_band_tp1(self):
        m = measure_mesh_transpose(processors=16, row_samples=32, reorder_cycles=1)
        assert 1.5 <= m.multiplier <= 4.0

    def test_multiplier_in_paper_band_tp4(self):
        m = measure_mesh_transpose(processors=16, row_samples=32, reorder_cycles=4)
        assert 4.0 <= m.multiplier <= 7.0

    def test_tp_ordering_preserved(self):
        m1 = measure_mesh_transpose(16, 32, reorder_cycles=1)
        m4 = measure_mesh_transpose(16, 32, reorder_cycles=4)
        assert m4.mesh_cycles > m1.mesh_cycles
        assert m4.multiplier > m1.multiplier

    def test_elements_accounting(self):
        m = measure_mesh_transpose(16, 8)
        assert m.elements == 128

    def test_small_processor_count_rejected(self):
        with pytest.raises(ConfigError):
            measure_mesh_transpose(processors=2, row_samples=4)

    def test_multiplier_grows_with_scale(self):
        """Congestion grows with the mesh: the t_p = 1 multiplier rises
        with the core count, toward but below the paper's 3.26x."""
        for engine, small_p, large_p, cols in (
            ("reference", 16, 36, 16),
            ("compiled", 64, 144, 64),
        ):
            small = measure_mesh_transpose(small_p, cols, 1, engine=engine)
            large = measure_mesh_transpose(large_p, cols, 1, engine=engine)
            assert small.multiplier < large.multiplier < 3.26, engine

    def test_paper_scale_compiled_headline(self):
        """Table III's mesh row at paper scale, as EXPERIMENTS.md states it:
        1024 processors x 1024 samples at t_p = 4 on the compiled engine."""
        m = measure_mesh_transpose(
            processors=1024, row_samples=1024, reorder_cycles=4,
            engine="compiled",
        )
        assert m.mesh_cycles == 5_242_879
        assert m.pscan_cycles == constants.PAPER_PSCAN_TRANSPOSE_CYCLES
        assert round(m.multiplier, 2) == 4.85

    def test_paper_scale_compiled_headline_tp1(self):
        """The t_p = 1 row at paper scale: the network-bound law
        N*(3k^2 - 2k + 1) + 1 with k = 32, N = 1024."""
        m = measure_mesh_transpose(
            processors=1024, row_samples=1024, reorder_cycles=1,
            engine="compiled",
        )
        assert m.mesh_cycles == 3_081_217 == 1024 * (3 * 32**2 - 2 * 32 + 1) + 1
        assert m.pscan_cycles == constants.PAPER_PSCAN_TRANSPOSE_CYCLES
        assert round(m.multiplier, 2) == 2.85
