"""Property-based tests for the :mod:`repro.sim.stats` accumulators.

Each accumulator is checked against a brute-force reference on the same
samples: ``RunningStats`` against ``math.fsum`` moments, ``Histogram``
against a linear scan of its own ``bin_edges()``, ``TimeWeightedStat``
against an explicit piecewise integration, and the SLO block
(:func:`repro.obs.slo.latency_slo`) against nearest-rank ranks computed
in integer arithmetic.  The merge laws, the empty
and single-sample edge cases, and the bin-boundary contract (which the
naive scaled-division binning violates by one ulp on exact edges) are
all exercised here.

Skipped cleanly when ``hypothesis`` is unavailable.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs.slo import latency_slo  # noqa: E402
from repro.sim.stats import (  # noqa: E402
    Counter,
    Histogram,
    RunningStats,
    TimeWeightedStat,
)

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


# -- RunningStats ------------------------------------------------------------


def _reference_moments(samples: list[float]) -> tuple[float, float]:
    mean = math.fsum(samples) / len(samples)
    var = math.fsum((x - mean) ** 2 for x in samples) / len(samples)
    return mean, var


class TestRunningStats:
    def test_empty(self):
        rs = RunningStats()
        assert rs.count == 0
        assert rs.mean == 0.0
        assert rs.variance == 0.0
        assert rs.stddev == 0.0

    @given(finite)
    def test_single_sample(self, x: float):
        rs = RunningStats()
        rs.add(x)
        assert rs.count == 1
        assert rs.mean == x
        assert rs.variance == 0.0
        assert rs.minimum == rs.maximum == x

    @given(st.lists(finite, min_size=1, max_size=200))
    def test_against_fsum_reference(self, samples: list[float]):
        rs = RunningStats()
        for x in samples:
            rs.add(x)
        mean, var = _reference_moments(samples)
        scale = max(1.0, max(abs(x) for x in samples))
        assert rs.count == len(samples)
        assert rs.mean == pytest.approx(mean, abs=1e-6 * scale)
        assert rs.variance == pytest.approx(var, rel=1e-6, abs=1e-6 * scale**2)
        assert rs.minimum == min(samples)
        assert rs.maximum == max(samples)

    @given(st.lists(finite, max_size=100), st.lists(finite, max_size=100))
    def test_merge_equals_concatenation(self, a: list[float], b: list[float]):
        left = RunningStats()
        for x in a:
            left.add(x)
        right = RunningStats()
        for x in b:
            right.add(x)
        left.merge(right)

        combined = RunningStats()
        for x in a + b:
            combined.add(x)
        assert left.count == combined.count
        if a or b:
            scale = max(1.0, max(abs(x) for x in a + b))
            assert left.mean == pytest.approx(combined.mean, abs=1e-6 * scale)
            assert left.variance == pytest.approx(
                combined.variance, rel=1e-6, abs=1e-6 * scale**2
            )
            assert left.minimum == combined.minimum
            assert left.maximum == combined.maximum

    @given(st.lists(finite, min_size=1, max_size=50))
    def test_merge_into_empty_and_from_empty(self, samples: list[float]):
        filled = RunningStats()
        for x in samples:
            filled.add(x)
        # empty <- filled copies; filled <- empty is a no-op.
        empty = RunningStats()
        empty.merge(filled)
        assert empty.count == filled.count
        assert empty.mean == filled.mean
        before = (filled.count, filled.mean, filled.variance)
        filled.merge(RunningStats())
        assert (filled.count, filled.mean, filled.variance) == before


# -- Histogram ---------------------------------------------------------------


def _reference_bin(hist: Histogram, value: float) -> int | None:
    """Index by linear scan of ``bin_edges()`` (None = under/overflow)."""
    if value < hist.lo or value >= hist.hi:
        return None
    edges = hist.bin_edges()
    for i in range(hist.bins):
        right = edges[i + 1] if i < hist.bins - 1 else hist.hi
        if edges[i] <= value < right or (i == hist.bins - 1 and value < hist.hi):
            if edges[i] <= value:
                return i
    return hist.bins - 1


class TestHistogram:
    @given(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.integers(min_value=1, max_value=40),
        st.lists(finite, min_size=1, max_size=200),
    )
    @settings(max_examples=60)
    def test_against_edge_scan(self, lo, width, bins, samples):
        hist = Histogram(lo, lo + width, bins)
        expected = [0] * bins
        under = over = 0
        for x in samples:
            hist.add(x)
            ref = _reference_bin(hist, x)
            if ref is None:
                if x < hist.lo:
                    under += 1
                else:
                    over += 1
            else:
                expected[ref] += 1
        assert hist.counts == expected
        assert hist.underflow == under
        assert hist.overflow == over
        assert hist.total == len(samples)

    @given(st.integers(min_value=1, max_value=32), st.integers(0, 31))
    def test_exact_edges_land_in_their_bin(self, bins, k):
        """A sample exactly on edge i belongs to bin i (the contract the
        naive scaled division can violate by one ulp)."""
        if k >= bins:
            k = bins - 1
        hist = Histogram(0.0, 1.0, bins)
        edges = hist.bin_edges()
        hist.add(edges[k])
        assert hist.counts[k] == 1

    def test_invariant_holds_for_awkward_widths(self):
        # 0.1 is inexact in binary; edge arithmetic disagrees with the
        # scaled division for several of these samples.
        hist = Histogram(0.0, 0.7, 7)
        edges = hist.bin_edges()
        for i, e in enumerate(edges[:-1]):
            hist.add(e)
            assert hist.counts[i] >= 1, f"edge {i} ({e}) landed elsewhere"

    def test_total_partitions(self):
        hist = Histogram(0.0, 10.0, 5)
        for x in [-1.0, 0.0, 3.3, 9.999, 10.0, 42.0]:
            hist.add(x)
        assert hist.underflow + hist.overflow + sum(hist.counts) == hist.total

    @given(
        st.lists(st.floats(-2.0, 3.0, allow_nan=False), min_size=1,
                 max_size=200),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100)
    def test_quantile_is_conservative(self, samples, q, bins):
        """``quantile(q)`` never under-covers: at least ``ceil(q*total)``
        samples are <= the reported value (the P99 latency-gate contract
        — a reported P99 must actually cover 99% of samples)."""
        hist = Histogram(0.0, 1.0, bins)
        for x in samples:
            hist.add(x)
        value = hist.quantile(q)
        assert hist.lo <= value <= hist.hi
        # An answer of hi means the target fell into the overflow mass,
        # which hi covers by definition.  Any interior answer must have
        # at least ceil(q * total) samples strictly below it (samples on
        # an edge belong to the bin *above* that edge).
        if value < hist.hi:
            covered = sum(1 for x in samples if x < value)
            assert covered >= math.ceil(q * hist.total)

    @given(
        st.lists(st.floats(0.0, 0.999, allow_nan=False), min_size=1,
                 max_size=100),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60)
    def test_quantile_monotone_in_q(self, samples, bins):
        hist = Histogram(0.0, 1.0, bins)
        for x in samples:
            hist.add(x)
        values = [hist.quantile(q) for q in (0.0, 0.25, 0.5, 0.95, 1.0)]
        assert values == sorted(values)

    def test_quantile_resolves_under_and_overflow_to_range_ends(self):
        hist = Histogram(0.0, 1.0, 4)
        for x in (-5.0, -4.0, 0.3, 7.0):
            hist.add(x)
        assert hist.quantile(0.25) == hist.lo  # underflow mass
        assert hist.quantile(1.0) == hist.hi  # overflow mass

    def test_quantile_validates(self):
        hist = Histogram(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            hist.quantile(0.5)  # empty
        hist.add(0.5)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    @given(
        st.lists(
            st.one_of(
                st.floats(-100.0, -1e-3, allow_nan=False),  # underflow mass
                st.floats(0.0, 1.0, allow_nan=False),       # in range
                st.floats(1.001, 100.0, allow_nan=False),   # overflow mass
            ),
            min_size=1, max_size=200,
        ),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=150)
    def test_quantile_conservative_under_out_of_range_mass(
        self, samples, q, bins
    ):
        """The quantile contract under heavy under/overflow: a reported
        quantile must stay a never-underestimating bound even when most
        of the mass sits outside ``[lo, hi)``.  ``lo`` may only be
        reported while the target rank is still inside the underflow
        mass, and any interior answer must cover ``ceil(q * total)``
        samples."""
        hist = Histogram(0.0, 1.0, bins)
        for x in samples:
            hist.add(x)
        value = hist.quantile(q)
        assert hist.lo <= value <= hist.hi
        target = math.ceil(q * hist.total)
        if value == hist.lo:
            assert target <= hist.underflow
        if value < hist.hi:
            covered = sum(1 for x in samples if x < value)
            # Samples below lo are < any interior answer, so they count
            # toward coverage; overflow mass can only push the answer up.
            assert covered >= target


# -- TimeWeightedStat --------------------------------------------------------


def _reference_average(
    steps: list[tuple[float, float]], start: float, end: float
) -> float:
    """Piecewise-constant integral of (time, level) steps over [start, end]."""
    if end <= start:
        return 0.0
    area = 0.0
    level = 0.0
    last = start
    for t, lv in steps:
        area += level * (t - last)
        last, level = t, lv
    area += level * (end - last)
    return area / (end - start)


class TestTimeWeightedStat:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            max_size=60,
        ),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_against_piecewise_reference(self, raw_steps, extra):
        steps = sorted(raw_steps, key=lambda s: s[0])
        tw = TimeWeightedStat()
        for t, lv in steps:
            tw.update(t, lv)
        end = (steps[-1][0] if steps else 0.0) + extra
        expected = _reference_average(steps, 0.0, end)
        assert tw.average(end) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_zero_span_and_monotonic_guard(self):
        tw = TimeWeightedStat()
        assert tw.average(0.0) == 0.0
        tw.update(5.0, 2.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 1.0)

    def test_level_property_tracks_last_update(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 3.5)
        assert tw.level == 3.5


# -- Counter -----------------------------------------------------------------


class TestCounter:
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 100))))
    def test_matches_dict_accumulation(self, incrs):
        c = Counter()
        ref: dict[str, int] = {}
        for name, by in incrs:
            c.incr(name, by)
            ref[name] = ref.get(name, 0) + by
        for name in "abc":
            assert c[name] == ref.get(name, 0)


# -- latency_slo -------------------------------------------------------------


class TestLatencySlo:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_exact_nearest_rank(self, latencies):
        slo = latency_slo(latencies)
        ranked = sorted(latencies)
        n = len(ranked)
        assert slo["count"] == n
        assert slo["min"] == ranked[0] and slo["max"] == ranked[-1]
        assert slo["mean"] == sum(ranked) / n
        assert slo["min"] <= slo["p50"] <= slo["p95"] <= slo["p99"] <= slo["max"]
        for percent in (50, 95, 99):
            rank = -(-percent * n // 100)  # ceil(percent * n / 100), exactly
            assert slo[f"p{percent}"] == ranked[rank - 1]

    def test_empty_is_none(self):
        assert latency_slo([]) is None
