"""Tests for the stats accumulators."""

import pytest

from repro.sim import (
    Counter,
    Histogram,
    RunningStats,
    TimeWeightedStat,
)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_mean_min_max(self):
        s = RunningStats()
        for v in (2.0, 4.0, 6.0):
            s.add(v)
        assert s.mean == pytest.approx(4.0)
        assert s.minimum == 2.0
        assert s.maximum == 6.0

    def test_variance_matches_numpy(self):
        import numpy as np

        rng = np.random.default_rng(7)
        data = rng.normal(size=500)
        s = RunningStats()
        for v in data:
            s.add(float(v))
        assert s.mean == pytest.approx(float(np.mean(data)), abs=1e-12)
        assert s.variance == pytest.approx(float(np.var(data)), rel=1e-9)
        assert s.stddev == pytest.approx(float(np.std(data)), rel=1e-9)

    def test_merge_equivalent_to_combined(self):
        import numpy as np

        rng = np.random.default_rng(8)
        a = rng.normal(size=100)
        b = rng.normal(loc=3.0, size=37)
        sa, sb = RunningStats(), RunningStats()
        for v in a:
            sa.add(float(v))
        for v in b:
            sb.add(float(v))
        sa.merge(sb)
        combined = np.concatenate([a, b])
        assert sa.count == 137
        assert sa.mean == pytest.approx(float(np.mean(combined)))
        assert sa.variance == pytest.approx(float(np.var(combined)), rel=1e-9)

    def test_merge_into_empty(self):
        sa, sb = RunningStats(), RunningStats()
        sb.add(5.0)
        sa.merge(sb)
        assert sa.count == 1 and sa.mean == 5.0

    def test_merge_empty_is_noop(self):
        sa = RunningStats()
        sa.add(1.0)
        sa.merge(RunningStats())
        assert sa.count == 1


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeightedStat(level=3.0)
        assert tw.average(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        tw = TimeWeightedStat()
        tw.update(5.0, 10.0)   # 0 for [0,5), 10 after
        assert tw.average(10.0) == pytest.approx(5.0)

    def test_zero_span(self):
        assert TimeWeightedStat().average(0.0) == 0.0

    def test_time_backwards_raises(self):
        tw = TimeWeightedStat()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 2.0)

    def test_level_property(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 7.0)
        assert tw.level == 7.0


class TestCounter:
    def test_default_zero(self):
        assert Counter()["missing"] == 0

    def test_incr(self):
        c = Counter()
        c.incr("hits")
        c.incr("hits", 4)
        assert c["hits"] == 5


class TestHistogram:
    def test_binning(self):
        h = Histogram(0.0, 10.0, 10)
        for v in (0.5, 1.5, 9.99):
            h.add(v)
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[9] == 1
        assert h.total == 3

    def test_under_overflow(self):
        h = Histogram(0.0, 1.0, 2)
        h.add(-0.1)
        h.add(1.0)
        assert h.underflow == 1
        assert h.overflow == 1

    def test_bin_edges(self):
        h = Histogram(0.0, 1.0, 4)
        assert h.bin_edges() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)

