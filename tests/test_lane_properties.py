"""Property-based tests for the SIMD lane primitives (:mod:`repro.faults.lanes`).

The batched campaign engine's byte-identity contract reduces to two
properties checked here against brute-force references:

* **per-lane RNG stream independence** — lane ``i`` of a
  :class:`LaneRng` produces draws bit-identical to
  ``random.Random(seeds[i])`` regardless of the batch width, the other
  lanes' seeds, the lane order, or how the draws are chunked;
* **burst corruption** — :meth:`PscanFaultModel.corrupt_burst` makes
  exactly the draws, outputs and counter updates of the per-word hook,
  and frames only the words it corrupts;
* **buffered streams** — a :class:`DrawStream` scans ahead and reads
  back exactly the draws of the ``random.Random`` it wraps, and one
  primed with outputs a :class:`LaneRng` already drew reads exactly
  what an unprimed one reads;
* **mask algebra** — :func:`merge_masks` is the boolean union,
  :func:`compact_indices` / :func:`scatter_lanes` are stable inverses.

Skipped cleanly when ``hypothesis`` is unavailable.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.faults.crc import pack_word  # noqa: E402
from repro.faults.lanes import (  # noqa: E402
    DrawStream,
    LaneRng,
    compact_indices,
    draw_below,
    merge_masks,
    outputs_below,
    scatter_lanes,
)
from repro.faults.models import DriftEpisode, PscanFaultModel  # noqa: E402
from repro.util.errors import ConfigError  # noqa: E402

# Seeds cover the interesting ctor shapes: 0 (key [0]), single 32-bit
# words (the campaign's randrange(2**32) seeds), multi-word keys, and
# negative values (CPython seeds with abs()).
lane_seeds = st.integers(min_value=-(2**96), max_value=2**96)
masks = st.lists(st.booleans(), min_size=1, max_size=64)


def _scalar_draws(seed: int, count: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


class TestLaneRngStreams:
    @given(st.lists(lane_seeds, min_size=1, max_size=16),
           st.integers(min_value=1, max_value=700))
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_cpython(self, seeds, count):
        draws = LaneRng(seeds).random(count)
        for lane, seed in enumerate(seeds):
            assert np.array_equal(
                draws[lane], np.asarray(_scalar_draws(seed, count))
            )

    @given(st.lists(lane_seeds, min_size=2, max_size=12),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_independent_of_batch_width(self, seeds, count):
        wide = LaneRng(seeds).random(count)
        for lane, seed in enumerate(seeds):
            narrow = LaneRng([seed]).random(count)
            assert np.array_equal(wide[lane], narrow[0])

    @given(st.lists(lane_seeds, min_size=2, max_size=10),
           st.randoms(use_true_random=False),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_independent_of_lane_order(self, seeds, shuffler, count):
        order = list(range(len(seeds)))
        shuffler.shuffle(order)
        base = LaneRng(seeds).random(count)
        permuted = LaneRng([seeds[i] for i in order]).random(count)
        for new_pos, old_pos in enumerate(order):
            assert np.array_equal(permuted[new_pos], base[old_pos])

    @given(lane_seeds,
           st.lists(st.integers(min_value=1, max_value=400),
                    min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_chunked_draws_equal_one_shot(self, seed, chunks):
        total = sum(chunks)
        one_shot = LaneRng([seed]).random(total)[0]
        rng = LaneRng([seed])
        parts = np.concatenate([rng.random(n)[0] for n in chunks])
        assert np.array_equal(parts, one_shot)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            LaneRng([])

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            LaneRng([1]).random(-1)


class TestDrawBelow:
    @given(lane_seeds, st.integers(min_value=0, max_value=700),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_bulk_equals_scalar_and_leaves_same_state(self, seed, count, p):
        bulk, scalar = random.Random(seed), random.Random(seed)
        below = draw_below(bulk, count, p)
        assert list(below) == [scalar.random() < p for _ in range(count)]
        assert bulk.getstate() == scalar.getstate()

    @given(st.lists(lane_seeds, min_size=1, max_size=8),
           st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_lane_below_equals_random_compare(self, seeds, thresholds):
        p = np.asarray(thresholds)
        below = outputs_below(LaneRng(seeds).outputs(p.size), p)
        assert np.array_equal(below, LaneRng(seeds).random(p.size) < p)

    def test_threshold_at_a_draw_is_exclusive(self):
        # A threshold equal to a draw must not count it (strict <), even
        # though that draw passes the first-output prefilter.
        seed = 3
        first = random.Random(seed).random()
        assert not draw_below(random.Random(seed), 1, first)[0]
        assert draw_below(random.Random(seed), 1, np.nextafter(first, 1.0))[0]

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            draw_below(random.Random(0), -1, 0.5)


# A burst of words of one payload kind: CRC frames (the campaign's
# payload), ints, or opaque objects the hook can only tag.
bursts = st.one_of(
    st.lists(st.complex_numbers(allow_nan=False, max_magnitude=1e6),
             max_size=80).map(lambda vs: [pack_word(v) for v in vs]),
    st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=80),
    st.lists(st.text(max_size=4), max_size=80).map(
        lambda vs: [("opaque", v) for v in vs]
    ),
)


def _hooked(model, values):
    """The per-word hook over ``values``: ``{position: output}`` of the
    words it corrupted (every other word must come back as itself)."""
    corrupted = {}
    for i, v in enumerate(values):
        before = model.words_corrupted
        out = model(0.0, 0, i, v)
        if model.words_corrupted != before:
            corrupted[i] = out
        else:
            assert out is v
    return corrupted


class TestCorruptBurst:
    @given(
        bursts,
        st.floats(min_value=-6.0, max_value=np.log10(0.3)).map(
            lambda e: 10.0 ** e
        ),
        lane_seeds,
        st.sampled_from([8, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_word_hook(self, values, ber, seed, bits_per_word):
        burst = PscanFaultModel(ber=ber, seed=seed, bits_per_word=bits_per_word)
        hook = PscanFaultModel(ber=ber, seed=seed, bits_per_word=bits_per_word)
        framed = []

        def frame_of(i):
            framed.append(i)
            return values[i]

        out = burst.corrupt_burst(len(values), frame_of)
        assert out == _hooked(hook, values)
        # Only the corrupted words are framed, each once, in order.
        assert framed == list(out)
        assert burst.rng.getstate() == hook.rng.getstate()
        assert (
            burst.words_seen, burst.words_corrupted, burst.bits_flipped
        ) == (hook.words_seen, hook.words_corrupted, hook.bits_flipped)

    def test_consecutive_bursts_continue_the_stream(self):
        # Retransmission epochs call corrupt_burst again on the same
        # model: the second burst must see the hook's later draws.
        values = [pack_word(complex(i, -i)) for i in range(64)]
        burst = PscanFaultModel(ber=1e-2, seed=5)
        hook = PscanFaultModel(ber=1e-2, seed=5)
        for _ in range(3):
            out = burst.corrupt_burst(len(values), values.__getitem__)
            assert out
            assert out == _hooked(hook, values)
        assert burst.rng.getstate() == hook.rng.getstate()

    def test_drift_refused(self):
        model = PscanFaultModel(
            ber=1e-4,
            drift_episodes=(DriftEpisode(start_ns=0.0, end_ns=1.0, drift_nm=0.03),),
        )
        with pytest.raises(ConfigError):
            model.corrupt_burst(3, [1, 2, 3].__getitem__)


# One read of a DrawStream: a scan from the read offset, or a consuming
# getrandbits(k) / random() call.
stream_read = st.one_of(
    st.tuples(st.just("scan"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("bits"), st.integers(min_value=0, max_value=100)),
    st.tuples(st.just("random"), st.just(0)),
)
stream_reads = st.lists(stream_read, max_size=30)


def _offsets_below(seed, p, start, stop):
    """Offsets in ``range(start, stop, 2)`` of ``random.Random(seed)``'s
    output stream whose draw (that output and the next) is below ``p``."""
    rng = random.Random(seed)
    out = [rng.getrandbits(32) for _ in range(stop)]
    return [
        o for o in range(start, stop, 2)
        if ((out[o] >> 5) * 67108864.0 + (out[o + 1] >> 6))
        * (1.0 / 9007199254740992.0) < p
    ]


class TestDrawStream:
    @given(lane_seeds, st.floats(min_value=0.0, max_value=1.0), stream_reads)
    @settings(max_examples=100, deadline=None)
    def test_reads_equal_the_wrapped_rng(self, seed, p, reads):
        wrapped = random.Random(seed)
        stream = DrawStream(wrapped, p)
        scalar = random.Random(seed)
        for kind, arg in reads:
            if kind == "scan":
                # Scans look ahead without consuming: they must agree
                # with draws made from a copy of the scalar stream.
                ahead = random.Random()
                ahead.setstate(scalar.getstate())
                below = [ahead.random() < p for _ in range(arg)]
                start = stream.pos
                stop = start + 2 * arg
                hit = stream.next_below(start, stop)
                expect = (
                    start + 2 * below.index(True) if any(below) else None
                )
                assert hit == expect
                assert stream.count_below(start, stop) == sum(below)
            elif kind == "bits":
                assert stream.getrandbits(arg) == scalar.getrandbits(arg)
            else:
                assert stream.random() == scalar.random()
        # Reading up to what was drawn leaves the wrapped rng in step.
        while stream.pos < stream.drawn:
            stream.getrandbits(32)
            scalar.getrandbits(32)
        assert wrapped.getstate() == scalar.getstate()

    @given(lane_seeds, st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_sample_equals_the_wrapped_rng(self, seed, k):
        stream = DrawStream(random.Random(seed), 0.5)
        scalar = random.Random(seed)
        assert stream.sample(range(152), k) == scalar.sample(range(152), k)
        assert stream.pos == stream.drawn

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            DrawStream(random.Random(0), 0.5).getrandbits(-1)

    @given(
        lane_seeds,
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=120),
        st.lists(
            st.one_of(
                stream_read,
                st.tuples(st.just("sample"), st.integers(min_value=1, max_value=40)),
                st.tuples(
                    st.just("scan_at"),
                    st.tuples(
                        st.integers(min_value=0, max_value=300),
                        st.integers(min_value=1, max_value=40),
                    ),
                ),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_primed_equals_unprimed(self, seed, p, primed_draws, reads):
        # A stream primed with a LaneRng row, on the lane's generator
        # (which stands past that row), reads what a stream on a fresh
        # random.Random(seed) reads, and leaves the generator the same.
        # Each parity is scanned only when a scan starts at it, so scans
        # after odd-length samples and ``scan_at`` scans (either parity,
        # behind, inside or past the outputs already scanned) check that
        # a parity's hits are found wherever its scans start.
        lanes = LaneRng([seed])
        row = lanes.outputs(primed_draws)[0]
        primed = DrawStream(lanes.rngs[0], p, row)
        plain_rng = random.Random(seed)
        plain = DrawStream(plain_rng, p)
        assert primed.drawn == 2 * primed_draws
        for kind, arg in reads:
            if kind == "scan":
                start, stop = primed.pos, primed.pos + 2 * arg
                assert plain.pos == start
                assert primed.next_below(start, stop) == plain.next_below(
                    start, stop
                )
                assert primed.count_below(start, stop) == plain.count_below(
                    start, stop
                )
            elif kind == "bits":
                assert primed.getrandbits(arg) == plain.getrandbits(arg)
            elif kind == "random":
                assert primed.random() == plain.random()
            elif kind == "scan_at":
                start, count = arg
                stop = start + 2 * count
                expect = _offsets_below(seed, p, start, stop)
                for stream in (primed, plain):
                    assert stream.next_below(start, stop) == (
                        expect[0] if expect else None
                    )
                    assert stream.count_below(start, stop) == len(expect)
            else:
                assert primed.sample(range(152), arg) == plain.sample(
                    range(152), arg
                )
        while primed.pos < primed.drawn or plain.pos < plain.drawn:
            assert primed.getrandbits(32) == plain.getrandbits(32)
        assert primed.drawn == plain.drawn
        assert lanes.rngs[0].getstate() == plain_rng.getstate()


class TestMaskAlgebra:
    @given(masks, st.data())
    @settings(max_examples=50, deadline=None)
    def test_merge_is_boolean_union(self, first, data):
        second = data.draw(
            st.lists(st.booleans(), min_size=len(first), max_size=len(first))
        )
        a = np.asarray(first, dtype=bool)
        b = np.asarray(second, dtype=bool)
        merged = merge_masks(a, b)
        assert np.array_equal(merged, a | b)
        assert np.array_equal(merge_masks(a, b), merge_masks(b, a))
        assert np.array_equal(merge_masks(a, a), a)
        # merge never mutates its inputs
        assert np.array_equal(a, np.asarray(first, dtype=bool))

    @given(masks)
    @settings(max_examples=50, deadline=None)
    def test_compact_indices_stable_and_complete(self, mask):
        arr = np.asarray(mask, dtype=bool)
        idx = compact_indices(arr)
        assert list(idx) == [i for i, flag in enumerate(mask) if flag]
        assert all(idx[k] < idx[k + 1] for k in range(len(idx) - 1))

    @given(masks)
    @settings(max_examples=50, deadline=None)
    def test_scatter_inverts_compact(self, mask):
        arr = np.asarray(mask, dtype=bool)
        idx = compact_indices(arr)
        values = [f"replayed-{int(i)}" for i in idx]
        out = scatter_lanes(len(mask), idx, values, "clean")
        for lane, flag in enumerate(mask):
            expected = f"replayed-{lane}" if flag else "clean"
            assert out[lane] == expected

    def test_merge_rejects_empty_and_mismatched(self):
        with pytest.raises(ConfigError):
            merge_masks()
        with pytest.raises(ConfigError):
            merge_masks(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    def test_scatter_rejects_arity_and_range(self):
        with pytest.raises(ConfigError):
            scatter_lanes(3, np.asarray([0, 1]), ["a"], None)
        with pytest.raises(ConfigError):
            scatter_lanes(2, np.asarray([5]), ["a"], None)
