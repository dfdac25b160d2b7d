"""Tests reproducing Table I, Table II and Fig. 11 exactly."""

import pytest

from repro.analysis import (
    delivery_efficiency,
    figure11_curves,
    paper_lambda_ns,
    table1,
    table2,
)
from repro.util.errors import ConfigError

#: Table I from the paper, (k, S_b, t_ck ns, t_cf ns, W_p Gb/s, eta %).
PAPER_TABLE1 = [
    (1, 1024, 40960, 0, 409.6, 50.00),
    (2, 512, 18432, 4096, 455.1, 68.97),
    (4, 256, 8192, 8192, 512.0, 83.33),
    (8, 128, 3584, 12288, 585.1, 91.95),
    (16, 64, 1536, 16384, 682.7, 96.39),
    (32, 32, 640, 20480, 819.2, 98.46),
    (64, 16, 256, 24576, 1024.0, 99.38),
]

#: Table II from the paper, (k, eta_d %, eta %).
PAPER_TABLE2 = [
    (1, 98.46, 49.23),
    (2, 96.97, 66.88),
    (4, 94.12, 78.43),
    (8, 88.89, 81.74),
    (16, 80.00, 77.11),
    (32, 66.67, 65.64),
    (64, 50.01, 49.70),
]


class TestTable1Exact:
    def test_row_count(self):
        assert len(table1()) == 7

    @pytest.mark.parametrize("row", PAPER_TABLE1, ids=lambda r: f"k={r[0]}")
    def test_row_matches_paper(self, row):
        k, s_b, t_ck, t_cf, w_p, eta_pct = row
        ours = next(r for r in table1() if r.k == k)
        assert ours.block_size == s_b
        assert ours.t_ck_ns == pytest.approx(t_ck)
        assert ours.t_cf_ns == pytest.approx(t_cf)
        assert ours.bandwidth_gbps == pytest.approx(w_p, abs=0.05)
        assert 100 * ours.efficiency == pytest.approx(eta_pct, abs=0.005)

    def test_bandwidth_grows_with_k(self):
        """Table I's counterintuitive result: higher efficiency requires
        higher bandwidth, because smaller blocks must arrive faster."""
        rows = table1()
        bws = [r.bandwidth_gbps for r in rows]
        assert bws == sorted(bws)

    def test_efficiency_monotonic_in_k(self):
        effs = [r.efficiency for r in table1()]
        assert effs == sorted(effs)


class TestTable2Exact:
    @pytest.mark.parametrize("row", PAPER_TABLE2, ids=lambda r: f"k={r[0]}")
    def test_row_matches_paper(self, row):
        k, eta_d_pct, eta_pct = row
        ours = next(r for r in table2() if r.k == k)
        # abs=0.02 absorbs the paper's own rounding (it prints 50.01% for
        # an exact 50.00% eta_d at k=64).
        assert 100 * ours.delivery_efficiency == pytest.approx(eta_d_pct, abs=0.02)
        assert 100 * ours.compute_efficiency == pytest.approx(eta_pct, abs=0.02)

    def test_peak_at_k8(self):
        """Paper: 'compute efficiency peaks at 82% when k = 8'."""
        rows = table2()
        best = max(rows, key=lambda r: r.compute_efficiency)
        assert best.k == 8
        assert best.compute_efficiency == pytest.approx(0.8174, abs=0.001)

    def test_k64_half_as_efficient_as_k1_delivery(self):
        """Paper: 'the k = 64 case is half as efficient as the k = 1
        case' (delivery efficiency)."""
        rows = {r.k: r for r in table2()}
        ratio = rows[64].delivery_efficiency / rows[1].delivery_efficiency
        assert ratio == pytest.approx(0.5078, abs=0.001)


class TestLambdaModel:
    def test_implied_lambda_values(self):
        assert paper_lambda_ns(1) == pytest.approx(2.5)
        assert paper_lambda_ns(64) == pytest.approx(1.0)

    def test_lambda_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            paper_lambda_ns(3)

    def test_eq22_shape(self):
        # eta_d -> 1 as latency -> 0; -> 0 as latency -> inf.
        assert delivery_efficiency(0.0, 100, 1.0) == 1.0
        assert delivery_efficiency(1e9, 100, 1.0) < 1e-6

    def test_eq22_halfway(self):
        # When lambda equals the transfer time, eta_d = 0.5.
        assert delivery_efficiency(10.0, 100, 10.0) == pytest.approx(0.5)

    def test_eq22_validation(self):
        with pytest.raises(ConfigError):
            delivery_efficiency(1.0, 100, 0.0)
        with pytest.raises(ConfigError):
            delivery_efficiency(-1.0, 100, 1.0)


class TestFigure11:
    def test_mesh_peaks_at_8(self):
        curves = figure11_curves()
        assert curves.mesh_peak_k == 8
        mesh_by_k = dict(zip(curves.k_values, curves.mesh))
        assert mesh_by_k[64] < mesh_by_k[8]  # then falls off

    def test_psync_monotonic_toward_ideal(self):
        curves = figure11_curves()
        assert curves.psync_monotonic
        assert curves.psync[-1] > 0.99

    def test_psync_dominates_mesh(self):
        curves = figure11_curves()
        for ideal, mesh in zip(curves.psync, curves.mesh):
            assert ideal >= mesh

    def test_gap_widens_at_large_k(self):
        """The mesh's routing overhead bites hardest for small packets."""
        curves = figure11_curves()
        gap_small_k = curves.psync[0] - curves.mesh[0]
        gap_large_k = curves.psync[-1] - curves.mesh[-1]
        assert gap_large_k > 5 * gap_small_k

    def test_k_axis(self):
        assert figure11_curves().k_values == [1, 2, 4, 8, 16, 32, 64]
