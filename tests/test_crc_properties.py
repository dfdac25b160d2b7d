"""Property tests for the canonical CRC frame codec (repro.faults.crc).

The satellite bugfix this guards: ``pack_word`` used to pickle the live
object, so ``frame_bits`` depended on the pickle protocol *and on object
identity* — ``("a"*3, "a"*3)`` with shared vs distinct string objects
produced different frame lengths, which silently shifted every seeded
fault-injector RNG draw downstream.  The codec now emits a canonical
structural encoding; these tests pin the frame bytes for representative
values and prove identity independence, plus randomized round-trip and
corruption-accounting properties under ``flip_bits``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.crc import (
    CRC_BITS,
    check_frame,
    crc16_ccitt,
    decode_value,
    encode_value,
    flip_bits,
    frame_bits,
    pack_word,
    unpack_word,
)
from repro.util.errors import TransientFaultError

# Scalars whose encoding must round-trip exactly (NaN excluded: x != x).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 100), max_value=2 ** 100),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False, allow_infinity=True),
    st.text(max_size=24),
    st.binary(max_size=24),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
    ),
    max_leaves=8,
)


def _crc16_bitwise(data: bytes, crc: int) -> int:
    """CRC-16/CCITT-FALSE by its shift-register definition: poly 0x1021,
    MSB first, no reflection, no final XOR."""
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else crc << 1
            crc &= 0xFFFF
    return crc


class TestRoundTrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_unpack_inverts_pack(self, value):
        back = unpack_word(pack_word(value))
        assert back == value
        assert type(back) is type(value)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_frame_is_payload_plus_crc(self, value):
        frame = pack_word(value)
        payload = encode_value(value)
        assert frame[:-2] == payload
        assert frame_bits(frame) == 8 * len(payload) + CRC_BITS
        assert check_frame(frame)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_decode_value_inverts_encode_value(self, value):
        assert decode_value(encode_value(value)) == value


class TestIdentityIndependence:
    """The pack_word regression: frames must depend on value, not identity."""

    def test_shared_vs_distinct_substructure(self):
        shared = "ab" * 3
        # Equal string, separate object — built at runtime so CPython's
        # constant folder cannot intern it away.
        distinct = "".join(["ab" for _ in range(3)])
        assert shared is not distinct  # the premise of the old bug
        assert pack_word((shared, shared)) == pack_word((shared, distinct))

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_equal_values_equal_frames(self, value):
        import copy

        assert pack_word(value) == pack_word(copy.deepcopy(value))

    def test_frame_lengths_pinned(self):
        """Regression pin: a codec change that alters frame lengths shifts
        every seeded fault-model RNG stream (rng.sample over frame_bits),
        invalidating committed campaign numbers.  Update deliberately."""
        # Pairs, not a dict: True == 1 would collapse two distinct pins.
        expected = [
            (0, 4),
            (1, 4),
            (-1, 4),
            (300, 5),
            (3.5, 11),
            (complex(0.5, -0.25), 19),
            ("payload", 11),
            (b"\x00\x01", 6),
            (None, 3),
            (True, 3),
            (("a", "a"), 10),
            ((), 4),
        ]
        for value, length in expected:
            assert len(pack_word(value)) == length, (
                f"pack_word({value!r}) frame length changed "
                f"({len(pack_word(value))} != {length})"
            )

    def test_crc16_reference_vector(self):
        # CRC-16/CCITT-FALSE check value for "123456789".
        assert crc16_ccitt(b"123456789") == 0x29B1

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=300, deadline=None)
    def test_crc16_matches_bitwise_reference(self, data, init):
        assert crc16_ccitt(data, init) == _crc16_bitwise(data, init)

    @pytest.mark.parametrize("length", range(65))
    def test_crc16_every_length_up_to_64(self, length):
        data = bytes((7 * i + 3) & 0xFF for i in range(length))
        assert crc16_ccitt(data) == _crc16_bitwise(data, 0xFFFF)
        for init in (0x0000, 0x1D0F, 0x8000):
            assert crc16_ccitt(data, init) == _crc16_bitwise(data, init)


class TestCorruption:
    @given(values, st.data())
    @settings(max_examples=150, deadline=None)
    def test_up_to_three_flips_always_detected(self, value, data):
        # CRC-16/CCITT keeps Hamming distance 4 well beyond these frame
        # lengths: 1-3 bit errors can never collide.
        frame = pack_word(value)
        nbits = frame_bits(frame)
        k = data.draw(st.integers(min_value=1, max_value=min(3, nbits)))
        positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=nbits - 1),
                min_size=k, max_size=k, unique=True,
            )
        )
        corrupted = flip_bits(frame, positions)
        assert not check_frame(corrupted)
        with pytest.raises(TransientFaultError):
            unpack_word(corrupted)

    @given(values, st.data())
    @settings(max_examples=100, deadline=None)
    def test_flip_bits_is_involutive(self, value, data):
        frame = pack_word(value)
        nbits = frame_bits(frame)
        positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=nbits - 1),
                max_size=8, unique=True,
            )
        )
        assert flip_bits(flip_bits(frame, positions), positions) == frame

    @given(values, st.data())
    @settings(max_examples=100, deadline=None)
    def test_corruption_accounting_is_exhaustive(self, value, data):
        """Every corrupted frame is detected, or a CRC collision — and a
        collision either decodes (delivered-bad, counted by the recovery
        layer as undetected) or fails payload decode (still an error to
        the caller).  No fourth outcome."""
        frame = pack_word(value)
        nbits = frame_bits(frame)
        k = data.draw(st.integers(min_value=1, max_value=min(12, nbits)))
        positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=nbits - 1),
                min_size=k, max_size=k, unique=True,
            )
        )
        corrupted = flip_bits(frame, positions)
        if not check_frame(corrupted):
            with pytest.raises(TransientFaultError):
                unpack_word(corrupted)
        else:
            try:
                unpack_word(corrupted)
            except TransientFaultError:
                pass  # collision with undecodable payload: still flagged

    def test_flip_position_out_of_range_rejected(self):
        frame = pack_word(1)
        with pytest.raises(Exception):
            flip_bits(frame, [frame_bits(frame)])


class TestDecodeFailureNarrowing:
    """The ``except Exception`` bugfix pin: :func:`unpack_word` converts
    only genuine decode failures (:data:`_DECODE_FAILURES`) into
    ``TransientFaultError``; anything else — a bug in the codec, a
    ``KeyboardInterrupt``-adjacent control-flow exception — must escape
    rather than masquerade as recoverable wire corruption and trigger an
    infinite NACK/retransmit loop."""

    def _crc_valid(self, payload: bytes) -> bytes:
        crc = crc16_ccitt(payload)
        return payload + bytes([crc >> 8, crc & 0xFF])

    def test_undecodable_payload_is_transient(self):
        # An unknown tag byte with a freshly computed (valid) CRC: the
        # checksum collides by construction, the decoder rejects it.
        frame = self._crc_valid(b"\xff\x00")
        assert check_frame(frame)
        with pytest.raises(TransientFaultError):
            unpack_word(frame)

    def test_truncated_payload_is_transient(self):
        inner = encode_value((1, 2, 3))
        frame = self._crc_valid(inner[: len(inner) // 2])
        assert check_frame(frame)
        with pytest.raises(TransientFaultError):
            unpack_word(frame)

    def test_unrelated_exceptions_propagate(self, monkeypatch):
        import repro.faults.crc as crc_mod

        def explode(_payload):
            raise RuntimeError("codec bug, not corruption")

        monkeypatch.setattr(crc_mod, "decode_value", explode)
        with pytest.raises(RuntimeError, match="codec bug"):
            unpack_word(pack_word(42))

    def test_decode_failure_tuple_is_pinned(self):
        import pickle
        import struct

        from repro.faults.crc import _DECODE_FAILURES

        assert Exception not in _DECODE_FAILURES
        assert BaseException not in _DECODE_FAILURES
        for exc in (ValueError, TypeError, KeyError, IndexError, EOFError,
                    AttributeError, ImportError, struct.error,
                    pickle.UnpicklingError):
            assert exc in _DECODE_FAILURES
