"""Tests for the from-scratch FFT (repro.fft.radix2), numpy as oracle."""

import numpy as np
import pytest

from repro.fft import (
    BlockedFft,
    bit_reverse_indices,
    bit_reverse_permute,
    butterfly_count,
    compute_time_ns,
    fft,
    fft_stage,
    ifft,
    multiply_count,
)
from repro.util.errors import ConfigError


class TestBitReversal:
    def test_n8(self):
        assert list(bit_reverse_indices(8)) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_involution(self):
        rev = bit_reverse_indices(64)
        assert list(rev[rev]) == list(range(64))

    def test_permute(self):
        x = np.arange(8)
        assert list(bit_reverse_permute(x)) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            bit_reverse_indices(6)

    def test_n1(self):
        assert list(bit_reverse_indices(1)) == [0]

    def test_returned_indices_are_fresh_and_writable(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        before = fft(x).view(np.float64).tobytes()
        rev = bit_reverse_indices(8)
        assert rev.flags.writeable
        rev[:] = 0
        assert list(bit_reverse_indices(8)) == [0, 4, 2, 6, 1, 5, 3, 7]
        assert fft(x).view(np.float64).tobytes() == before

    def test_block_samples_mutation_does_not_reach_fft(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        before = fft(x).view(np.float64).tobytes()
        samples = BlockedFft(8, 2).block_samples(1)
        samples[:] = 0
        assert list(BlockedFft(8, 2).block_samples(1)) == [1, 5, 3, 7]
        assert fft(x).view(np.float64).tobytes() == before


class TestFftCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256, 1024])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fft(x), np.fft.fft(x))

    def test_real_input(self):
        x = np.arange(16, dtype=float)
        assert np.allclose(fft(x), np.fft.fft(x))

    def test_impulse(self):
        x = np.zeros(32)
        x[0] = 1.0
        assert np.allclose(fft(x), np.ones(32))

    def test_dc(self):
        x = np.ones(32)
        expected = np.zeros(32, dtype=complex)
        expected[0] = 32.0
        assert np.allclose(fft(x), expected)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=64) + 1j * rng.normal(size=64)
        b = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.allclose(fft(2 * a + 3 * b), 2 * fft(a) + 3 * fft(b))

    def test_parseval(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        X = fft(x)
        assert np.sum(np.abs(x) ** 2) * 128 == pytest.approx(
            np.sum(np.abs(X) ** 2)
        )

    def test_batched_rows(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
        assert np.allclose(fft(m), np.fft.fft(m, axis=-1))

    @pytest.mark.parametrize("n", [2**k for k in range(7)])
    def test_batched_rows_bit_identical_to_per_row(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(16, n)) + 1j * rng.normal(size=(16, n))
        rows = np.stack([fft(row) for row in m])
        assert (
            fft(m).view(np.float64).tobytes()
            == rows.view(np.float64).tobytes()
        )

    def test_ifft_roundtrip(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.allclose(ifft(fft(x)), x)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            fft(np.zeros(12))


class TestStages:
    def test_stage_out_of_range(self):
        with pytest.raises(ConfigError):
            fft_stage(np.zeros(8, dtype=complex), 3)

    def test_stage_span_doubles(self):
        """Stage s operand span is 2^s — the non-locality growth the paper
        exploits (Section V-B1)."""
        n = 16
        for s in range(4):
            x = np.zeros(n, dtype=complex)
            x[0] = 1.0  # in bit-reversed domain
            fft_stage(x, s)
            touched = np.nonzero(x)[0]
            assert touched.max() - touched.min() == 2 ** s

    def test_all_stages_equal_full_fft(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        manual = bit_reverse_permute(np.asarray(x, complex)).copy()
        for s in range(6):
            fft_stage(manual, s)
        assert np.allclose(manual, np.fft.fft(x))


class TestCounts:
    def test_butterflies(self):
        assert butterfly_count(1024) == 512 * 10

    def test_multiplies_paper_convention(self):
        # 2 N log2 N with 4 multiplies per butterfly.
        assert multiply_count(1024) == 2 * 1024 * 10

    def test_table1_k1_compute_time(self):
        """Table I, k=1: 40960 ns for a 1024-point FFT at 2 ns/multiply."""
        assert compute_time_ns(1024, multiply_ns=2.0) == pytest.approx(40960.0)

    def test_compute_time_validation(self):
        with pytest.raises(ConfigError):
            compute_time_ns(1024, multiply_ns=0.0)

    def test_multiply_count_validation(self):
        with pytest.raises(ConfigError):
            multiply_count(1024, multiplies_per_butterfly=0)
