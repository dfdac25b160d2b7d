"""SIMD-lockstep seed lanes: many ``random.Random`` streams as one matrix.

The batched campaign engine (:mod:`repro.faults.batched`) classifies
hundreds of Monte-Carlo lanes at once by replaying each injector's RNG
draw stream in lockstep.  The injectors (:mod:`repro.faults.models`)
draw from :class:`random.Random`, so lane ``i``'s draws must be exactly
``random.Random(seeds[i]).random()``.

:class:`LaneRng` gets that by construction: it keeps one
``random.Random(seed)`` per lane and reads each lane's Mersenne Twister
outputs in bulk with ``getrandbits``, then assembles the 53-bit
doubles exactly as CPython's ``random()`` does.  :func:`outputs_below`
and :func:`draw_below` answer "is this draw below ``p``?" and convert
only the few draws that can be.  Lanes never share
state, so a lane's draws do not depend on how many other lanes share the
batch or in what order they appear (property-tested in
``tests/test_lane_properties.py``).

The module also hosts the small lane-mask primitives the engine uses
to split a batch into lockstep (clean) and divergent populations:
:func:`merge_masks`, :func:`compact_indices`, :func:`scatter_lanes`.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Sequence

import numpy as np

from ..util.errors import ConfigError

__all__ = [
    "DrawStream",
    "LaneRng",
    "draw_below",
    "outputs_below",
    "merge_masks",
    "compact_indices",
    "scatter_lanes",
]


def _mt_outputs(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit outputs of ``rng``'s Mersenne Twister.

    ``getrandbits(32 * count)`` consumes exactly ``count`` outputs with
    the first one in the lowest word, so its little-endian bytes are
    the outputs in stream order.
    """
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


def _mt_words(rng: random.Random, count: int) -> np.ndarray:
    """The 32-bit outputs ``count`` ``rng.random()`` calls would consume.

    ``random()`` uses two outputs, so this leaves ``rng`` where
    ``count`` ``random()`` calls leave it.
    """
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    return _mt_outputs(rng, 2 * count)


def _res53(words: np.ndarray) -> np.ndarray:
    """CPython's ``genrand_res53`` over consecutive output pairs.

    ``words`` holds 32-bit outputs in stream order along its last axis;
    each pair becomes one double in ``[0, 1)``.
    """
    a = (words[..., 0::2] >> np.uint32(5)).astype(np.float64)
    b = (words[..., 1::2] >> np.uint32(6)).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def outputs_below(words: np.ndarray, p) -> np.ndarray:
    """``_res53(words) < p``, converting only the pairs that can pass.

    A draw below ``p`` has ``(a >> 5) < p * 2**27`` for its first output
    ``a``, so one compare on the first outputs leaves the few candidates
    that need the exact test.  ``p`` broadcasts against the draws.
    """
    first = words[..., 0::2]
    hits = first < np.ceil(np.multiply(p, 2.0 ** 27)) * 32.0
    where = np.nonzero(hits)
    if where[0].size:
        pairs = np.stack((first[where], words[..., 1::2][where]), axis=-1)
        exact = _res53(pairs)[:, 0]
        hits[where] = exact < np.broadcast_to(p, hits.shape)[where]
    return hits


def draw_below(rng: random.Random, count: int, p: float) -> np.ndarray:
    """Which of the next ``count`` ``rng.random()`` draws fall below ``p``.

    Equal to ``[rng.random() < p for _ in range(count)]``, read in bulk,
    and leaves ``rng`` in the same state.
    """
    return outputs_below(_mt_words(rng, count), p)


class DrawStream(random.Random):
    """One ``random.Random``'s outputs, drawn once and read in any order.

    Offsets count 32-bit Mersenne Twister outputs from where ``rng``
    stood when the stream was made; a ``random()`` draw at offset ``o``
    is built from outputs ``o`` and ``o + 1``.  :meth:`next_below` and
    :meth:`count_below` scan for draws below ``p`` at any offset, so a
    reader can look ahead without committing to where the draws it
    consumes will start.  ``getrandbits`` and ``random`` consume the
    outputs at :attr:`pos` exactly as ``rng``'s own methods would, so
    every ``random.Random`` method built on them (``sample``) returns
    what ``rng`` itself would return from that point of its stream.

    Outputs are drawn from ``rng`` only when a call reads or scans
    them, never twice, and ``rng`` is not rewound: it stands
    :attr:`drawn` outputs further on.  A reader that ends at
    ``pos == drawn`` leaves ``rng`` exactly where reading the stream
    through ``rng`` would have.  Drawn outputs are scanned for draws
    below ``p`` only when a scan asks for them, one parity at a time,
    so a parity no scan starts at is never classified.

    ``drawn`` primes the stream with outputs a caller already drew from
    ``rng`` (``rng`` stands just past them): they are offsets ``0 ..
    len(drawn) - 1`` and are read in place, not copied, so a stream
    primed with a lane's row of a :meth:`LaneRng.outputs` matrix reads
    exactly what an unprimed stream on a fresh ``rng`` would.
    """

    def __init__(
        self, rng: random.Random, p: float, drawn: np.ndarray | None = None
    ) -> None:
        super().__init__(0)
        self._rng = rng
        self._p = p
        self._out = np.asarray(
            drawn if drawn is not None else (), dtype="<u4"
        )
        #: Per parity: the offsets of the draws below ``p`` in
        #: ``range(parity, self._hi[parity], 2)``, ascending.
        self._hits: tuple[list[int], list[int]] = ([], [])
        self._hi = [0, 1]
        #: Offset of the next output ``getrandbits``/``random`` consume.
        self.pos = 0

    @property
    def drawn(self) -> int:
        """Outputs drawn from ``rng`` so far, primed ones included."""
        return len(self._out)

    def _draw_to(self, end: int) -> None:
        """Draw from ``rng`` until every offset below ``end`` is known."""
        have = len(self._out)
        if end > have:
            more = _mt_outputs(self._rng, end - have)
            self._out = np.concatenate((self._out, more)) if have else more

    def _scan(self, start: int, stop: int) -> list[int]:
        """The hits of ``start``'s parity, covering every drawn draw
        below ``stop``."""
        parity = start % 2
        hits = self._hits[parity]
        hi = self._hi[parity]
        pairs = (min(stop, len(self._out)) - hi) // 2
        if pairs > 0:
            found = np.flatnonzero(
                outputs_below(self._out[hi:hi + 2 * pairs], self._p)
            )
            hits.extend((hi + 2 * found).tolist())
            self._hi[parity] = hi + 2 * pairs
        return hits

    def next_below(self, start: int, stop: int) -> int | None:
        """Offset of the first draw below ``p`` in ``range(start, stop, 2)``.

        ``None`` when there is none; ``stop - start`` must be even.
        """
        while True:
            hits = self._scan(start, stop)
            i = bisect_left(hits, start)
            if i < len(hits) and hits[i] < stop:
                return hits[i]
            if len(self._out) >= stop:
                return None
            self._draw_to(stop)

    def count_below(self, start: int, stop: int) -> int:
        """How many draws in ``range(start, stop, 2)`` fall below ``p``."""
        self._draw_to(stop)
        hits = self._scan(start, stop)
        return bisect_left(hits, stop) - bisect_left(hits, start)

    def getrandbits(self, k: int) -> int:
        """``k`` random bits from the outputs at :attr:`pos`, as CPython
        builds them: whole outputs from the least significant word up,
        the last one shifted down to the bits still wanted."""
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        count = (k - 1) // 32 + 1
        self._draw_to(self.pos + count)
        words = self._out[self.pos:self.pos + count]
        self.pos += count
        top = int(words[-1]) >> (32 * count - k)
        low = int.from_bytes(words[:-1].tobytes(), "little")
        return low | top << (32 * (count - 1))

    def random(self) -> float:
        """The ``random()`` draw at :attr:`pos` (``genrand_res53``)."""
        self._draw_to(self.pos + 2)
        a, b = self._out[self.pos:self.pos + 2].tolist()
        self.pos += 2
        return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


class LaneRng:
    """``len(seeds)`` CPython ``random.Random`` streams drawn in lockstep.

    Parameters
    ----------
    seeds:
        One integer seed per lane, exactly as it would be passed to
        ``random.Random(seed)`` (any magnitude or sign).

    Only ``random()`` draws, as their :meth:`outputs` or as doubles, are
    exposed — that is the only primitive the fault injectors consume on
    their classification-relevant paths (``rng.sample`` is reached
    *after* a lane has already diverged).  A diverged lane goes on from
    its own generator, ``rngs[lane]``, which stands where the lane's
    draws so far end; the :meth:`outputs` it already drew can prime a
    :class:`DrawStream` on it, so no output is drawn twice.
    """

    __slots__ = ("lanes", "rngs")

    def __init__(self, seeds: Sequence[int]) -> None:
        if len(seeds) < 1:
            raise ConfigError("LaneRng needs at least one lane seed")
        self.lanes = len(seeds)
        #: One ``random.Random(seed)`` per lane, advanced by every draw.
        self.rngs = [random.Random(int(s)) for s in seeds]

    def outputs(self, count: int) -> np.ndarray:
        """``(lanes, 2 * count)`` 32-bit outputs of the next ``count``
        draws, in stream order along each row."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        # Filled row by row: stacking per-lane arrays would hold the
        # matrix twice.
        out = np.empty((self.lanes, 2 * count), dtype="<u4")
        for row, rng in zip(out, self.rngs):
            row[:] = _mt_words(rng, count)
        return out

    def random(self, count: int) -> np.ndarray:
        """``(lanes, count)`` float64 draws, bit-identical per lane to
        ``random.Random(seed).random()`` (``genrand_res53``)."""
        return _res53(self.outputs(count))


def merge_masks(*masks: np.ndarray) -> np.ndarray:
    """OR together same-length boolean lane masks (empty input rejected).

    The engine's divergence predicate is a union of independent causes
    (bit flips, degenerate draw counts, unsupported injector shapes);
    merging is how those causes compose.
    """
    if not masks:
        raise ConfigError("merge_masks needs at least one mask")
    out = np.asarray(masks[0], dtype=bool).copy()
    for m in masks[1:]:
        arr = np.asarray(m, dtype=bool)
        if arr.shape != out.shape:
            raise ConfigError(
                f"mask shapes differ: {arr.shape} vs {out.shape}"
            )
        out |= arr
    return out


def compact_indices(mask: np.ndarray) -> np.ndarray:
    """Stable (ascending) lane indices where ``mask`` is set.

    Compaction is what turns a divergence mask into the scalar-replay
    worklist; stability keeps replay order == seed order, which the
    byte-identity contract depends on.
    """
    return np.flatnonzero(np.asarray(mask, dtype=bool))


def scatter_lanes(total: int, indices: np.ndarray, values: list, fill) -> list:
    """Inverse of :func:`compact_indices`: place ``values[k]`` at lane
    ``indices[k]``, every other lane gets ``fill``.

    ``fill`` is typically the shared fault-free result, so scatter is
    literally "clean lanes share one timeline, divergent lanes get
    their replayed result back in seed order".
    """
    if len(indices) != len(values):
        raise ConfigError(
            f"scatter arity mismatch: {len(indices)} indices, "
            f"{len(values)} values"
        )
    out = [fill] * total
    for k, lane in enumerate(indices):
        lane = int(lane)
        if not 0 <= lane < total:
            raise ConfigError(f"lane index {lane} outside batch of {total}")
        out[lane] = values[k]
    return out
