"""Tests for the Eq.-21 mesh delivery model and its measured counterpart."""

import pytest

from repro.analysis import (
    measure_scatter,
    mesh_delivery_efficiency,
    scatter_cycles_eq21,
    scatter_cycles_ideal,
)
from repro.util.errors import ConfigError


class TestEq21:
    def test_ideal(self):
        assert scatter_cycles_ideal(256, 1024) == 256 * 1024

    def test_with_routing_overhead(self):
        # P F + P sqrt(P) t_r.
        assert scatter_cycles_eq21(256, 64, t_r=1) == pytest.approx(
            256 * 64 + 256 * 16
        )

    def test_tr_zero_is_ideal(self):
        assert scatter_cycles_eq21(64, 16, t_r=0) == scatter_cycles_ideal(64, 16)

    def test_efficiency_definition(self):
        eff = mesh_delivery_efficiency(256, 64, t_r=1)
        assert eff == pytest.approx((256 * 64) / (256 * 64 + 256 * 16))

    def test_small_packets_hurt(self):
        """Section V-B2: 'when F is large, this routing overhead is small,
        but ... the overhead becomes large' for small F."""
        big = mesh_delivery_efficiency(256, 1024)
        small = mesh_delivery_efficiency(256, 16)
        assert big > 0.95
        assert small < 0.55

    def test_validation(self):
        with pytest.raises(ConfigError):
            scatter_cycles_ideal(0, 4)
        with pytest.raises(ConfigError):
            scatter_cycles_eq21(4, 4, t_r=-1)


class TestMeasuredScatter:
    def test_measured_has_overhead(self):
        m = measure_scatter(processors=16, words_per_processor=8)
        assert m.cycles > m.ideal_cycles
        assert 0 < m.delivery_efficiency < 1

    def test_smaller_packets_lower_efficiency(self):
        """Model II with more blocks = smaller packets = more headers."""
        for words, ks in ((16, (1, 2, 4)), (32, (1, 2, 4, 8))):
            effs = [
                measure_scatter(16, words, k=k).delivery_efficiency for k in ks
            ]
            assert effs[0] > effs[-1], words

    def test_overhead_cycles(self):
        m = measure_scatter(processors=16, words_per_processor=8)
        assert m.overhead_cycles == m.cycles - m.ideal_cycles

    def test_latency_positive(self):
        m = measure_scatter(processors=16, words_per_processor=4)
        assert m.mean_packet_latency > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            measure_scatter(processors=0, words_per_processor=4)


class TestFittedLambda:
    def test_lambda_decreases_with_k(self):
        """Independent validation of the paper's implied lambda(k): the
        per-block latency extracted from the wormhole simulator falls as
        k grows (2.5 -> 1.0 ns in Table II; same direction here), because
        smaller blocks expose less per-block serialization."""
        from repro.analysis import fit_lambda

        fits = fit_lambda(16, 32)
        lams = [f.lambda_cycles for f in fits]
        assert lams == sorted(lams, reverse=True)

    def test_lambda_positive_and_bounded(self):
        from repro.analysis import fit_lambda

        for f in fit_lambda(16, 32):
            assert 0 < f.lambda_cycles < 50

    def test_higher_tr_raises_lambda(self):
        from repro.analysis import fit_lambda

        base = fit_lambda(16, 16, k_values=(1,), t_r=1)[0]
        slow = fit_lambda(16, 16, k_values=(1,), t_r=4)[0]
        assert slow.lambda_cycles > base.lambda_cycles

    def test_k_must_divide(self):
        from repro.analysis import fit_lambda

        with pytest.raises(ConfigError):
            fit_lambda(16, 30, k_values=(4,))
