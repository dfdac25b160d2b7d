"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import gather_schedule, scatter_schedule, sca_timing
from repro.core.schedule import round_robin_order, transpose_order
from repro.fft import BlockedFft, fft, ifft
from repro.photonics import PhotonicClock, SegmentLossModel
from repro.sim import RunningStats, Simulator

# -- strategy helpers --------------------------------------------------------

powers_of_two = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])
small_dims = st.integers(min_value=1, max_value=12)


class TestScheduleProperties:
    @given(rows=small_dims, cols=small_dims)
    def test_transpose_order_is_permutation(self, rows, cols):
        order = transpose_order(rows, cols)
        assert len(order) == rows * cols
        assert len(set(order)) == rows * cols
        # Every (node, word) pair appears exactly once.
        assert set(order) == {(r, c) for r in range(rows) for c in range(cols)}

    @given(
        nodes=small_dims,
        words=powers_of_two,
        block_exp=st.integers(min_value=0, max_value=7),
    )
    def test_round_robin_is_permutation(self, nodes, words, block_exp):
        block = 2 ** block_exp
        if words % block != 0:
            return
        order = round_robin_order(nodes, words, block)
        assert len(set(order)) == nodes * words

    @given(rows=small_dims, cols=small_dims)
    def test_gather_compilation_roundtrip(self, rows, cols):
        """Compiling then replaying the CPs reproduces the exact order."""
        order = transpose_order(rows, cols)
        sched = gather_schedule(order)
        rebuilt: list = [None] * len(order)
        for node, cp in sched.programs.items():
            for slot in cp:
                for i, cycle in enumerate(slot.cycles()):
                    rebuilt[cycle] = (node, slot.word_offset + i)
        assert rebuilt == order

    @given(rows=small_dims, cols=small_dims)
    def test_gather_always_full_utilization(self, rows, cols):
        sched = gather_schedule(transpose_order(rows, cols))
        assert sched.utilization == 1.0

    @given(
        nodes=small_dims,
        words=powers_of_two,
    )
    def test_scatter_delivers_every_word_once(self, nodes, words):
        sched = scatter_schedule(round_robin_order(nodes, words, block=1))
        per_node: dict = {}
        for node, cp in sched.programs.items():
            per_node[node] = sorted(
                slot.word_offset + i
                for slot in cp
                for i in range(slot.length)
            )
        for node in range(nodes):
            assert per_node[node] == list(range(words))


class TestScaTimingProperties:
    @given(
        rows=st.integers(min_value=2, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        pitch=st.floats(min_value=0.1, max_value=50.0),
        period=st.sampled_from([0.05, 0.1, 0.4]),
    )
    @settings(max_examples=50)
    def test_gapless_for_any_geometry(self, rows, cols, pitch, period):
        """The SCA burst is gapless regardless of node placement, pitch or
        clock rate — the paper's distance-independence claim."""
        sched = gather_schedule(transpose_order(rows, cols))
        clock = PhotonicClock(period_ns=period)
        positions = {i: i * pitch for i in range(rows)}
        timing = sca_timing(sched, clock, positions, rows * pitch)
        assert timing.is_gapless
        assert timing.bus_utilization == pytest.approx(1.0)

    @given(
        pos=st.floats(min_value=0.0, max_value=1000.0),
        edge=st.integers(min_value=0, max_value=10_000),
    )
    def test_edge_time_inverse(self, pos, edge):
        clock = PhotonicClock(period_ns=0.1)
        assert clock.edge_at(clock.edge_time(edge, pos), pos) == edge


class TestFftProperties:
    @given(
        n_exp=st.integers(min_value=0, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_fft_matches_numpy(self, n_exp, seed):
        n = 2 ** n_exp
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fft(x), np.fft.fft(x))

    @given(
        n_exp=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_ifft_inverts(self, n_exp, seed):
        n = 2 ** n_exp
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(ifft(fft(x)), x)

    @given(
        n_exp=st.integers(min_value=2, max_value=8),
        k_exp=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_blocked_fft_any_split(self, n_exp, k_exp, seed):
        """Model II block delivery computes the exact FFT for every valid
        (N, k) split."""
        n = 2 ** n_exp
        k = 2 ** min(k_exp, n_exp)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        bf = BlockedFft(n=n, k=k)
        for b in range(k):
            bf.deliver(b, x[bf.block_samples(b)])
        assert np.allclose(bf.finish(), np.fft.fft(x))

    @given(
        n_exp=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20)
    def test_parseval(self, n_exp, seed):
        n = 2 ** n_exp
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        X = fft(x)
        assert np.sum(np.abs(X) ** 2) == pytest.approx(n * np.sum(np.abs(x) ** 2))


class TestLossModelProperties:
    @given(
        laser=st.floats(min_value=-5.0, max_value=20.0),
        sens=st.floats(min_value=-35.0, max_value=-10.0),
        pitch=st.floats(min_value=0.05, max_value=5.0),
    )
    @example(laser=0.95, sens=-25.0, pitch=0.05)  # 25.95 / 0.025 rounds up past Eq. 1
    @settings(max_examples=50)
    def test_budget_boundary_is_sharp(self, laser, sens, pitch):
        model = SegmentLossModel(
            laser_power_dbm=laser,
            pd_sensitivity_dbm=sens,
            modulator_pitch_mm=pitch,
        )
        n = model.max_segments
        assert model.detectable_at_segment(n)
        # The very next segment must fail (modulo float fuzz at the edge).
        if model.power_at_segment(n + 1) < sens - 1e-9:
            assert not model.detectable_at_segment(n + 1)


class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    @settings(max_examples=50)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []
        for d in delays:
            t = sim.timeout(d)
            t.callbacks.append(lambda ev: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=50)
    def test_running_stats_bounds(self, values):
        s = RunningStats()
        for v in values:
            s.add(v)
        assert s.minimum <= s.mean <= s.maximum
        assert s.variance >= 0
        assert s.count == len(values)
