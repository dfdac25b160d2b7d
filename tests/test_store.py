"""Tests for the content-addressed result store (:mod:`repro.store`).

Three contracts:

* **canonical serialization** (`keys.canonicalize`) — deterministic,
  injective on the supported vocabulary, order-independent for mappings
  and sets, and *loud* (ConfigError) outside the vocabulary — never a
  repr-based hash that silently changes between runs;
* **key derivation** (`keys.point_key`) — same worker + same point ⇒
  same key; different point, different worker, or different worker
  *source* ⇒ different key (cache invalidation by construction);
* **store mechanics** — atomic object writes, manifest round-trip,
  torn-journal tolerance, and reference/age-aware garbage collection.
"""

import collections
import copy
import dataclasses
import enum
import hashlib
import json
import math
import os
import pickle
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults.campaign import CampaignConfig
from repro.llmore.app import Fft2dApp
from repro.llmore.machine import ReorgMechanism
from repro.mesh.topology import Port
from repro.store import (
    JournalEntry,
    ResultStore,
    SweepManifest,
    append_journal,
    canonical_json,
    canonicalize,
    code_fingerprint,
    point_key,
    point_keys,
    read_journal,
    worker_name,
)
from repro.store.keys import _CANONICAL
from repro.util.errors import ConfigError

# ---------------------------------------------------------------------------
# module-level workers (for key derivation tests)
# ---------------------------------------------------------------------------


def _worker_a(x):
    return x + 1


def _worker_b(x):
    return x + 2


# ---------------------------------------------------------------------------
# canonicalize / canonical_json
# ---------------------------------------------------------------------------


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize(42) == 42
        assert canonicalize("x") == "x"

    def test_floats_are_exact(self):
        a = canonical_json(0.1)
        b = canonical_json(0.1 + 2**-55)
        assert a != b  # nearby but distinct floats stay distinct

    def test_nonfinite_floats_supported(self):
        assert canonical_json(float("nan")) == canonical_json(float("nan"))
        assert canonical_json(float("inf")) != canonical_json(float("-inf"))

    def test_int_float_distinct(self):
        assert canonical_json(1) != canonical_json(1.0)

    def test_complex_and_bytes(self):
        assert canonical_json(1 + 2j) == canonical_json(complex(1.0, 2.0))
        assert canonical_json(b"\x00\xff") != canonical_json(b"\x00\xfe")

    def test_dict_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )

    def test_non_string_dict_keys(self):
        assert canonical_json({1e-4: "x", 0.0: "y"}) == canonical_json(
            {0.0: "y", 1e-4: "x"}
        )

    def test_set_order_irrelevant(self):
        assert canonical_json({3, 1, 2}) == canonical_json({2, 3, 1})

    def test_tuple_and_list_equivalent(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_dataclass_by_fields(self):
        a = CampaignConfig(seed=7)
        b = CampaignConfig(seed=7)
        c = CampaignConfig(seed=8)
        assert canonical_json(a) == canonical_json(b)
        assert canonical_json(a) != canonical_json(c)

    def test_enum_members(self):
        assert canonical_json(ReorgMechanism.IDEAL) == canonical_json(
            ReorgMechanism.IDEAL
        )
        members = list(ReorgMechanism)
        if len(members) > 1:
            assert canonical_json(members[0]) != canonical_json(members[1])

    def test_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        assert canonicalize(np.int64(5)) == canonicalize(5)
        assert canonical_json(np.float64(0.25)) == canonical_json(0.25)

    def test_unsupported_payloads_are_loud(self):
        with pytest.raises(ConfigError, match="no canonical serialization"):
            canonicalize(lambda: None)
        with pytest.raises(ConfigError):
            canonicalize(object())

    def test_output_is_strict_json(self):
        # Everything canonicalize produces must survive strict JSON.
        payload = {
            "cfg": CampaignConfig(),
            "z": 1 + 2j,
            "nan": float("nan"),
            "mech": ReorgMechanism.IDEAL,
        }
        text = canonical_json(payload)
        json.loads(text)  # does not raise

    def test_campaign_grid_is_canonical(self):
        """The satellite audit: real campaign points must canonicalize."""
        config = CampaignConfig(trials=2, fault_rates=(0.0, 1e-4))
        for ber in config.fault_rates:
            canonical_json((config, ber, (12345, 678)))
        canonical_json((config, ((0, 999), (1, 1000))))  # mesh batch shape

    def test_llmore_grid_is_canonical(self):
        canonical_json((Fft2dApp(), 256, 1, 1))


# ---------------------------------------------------------------------------
# key derivation
# ---------------------------------------------------------------------------


class TestPointKey:
    def test_stable_across_calls(self):
        assert point_key(_worker_a, (1, 2)) == point_key(_worker_a, (1, 2))

    def test_distinct_points_distinct_keys(self):
        assert point_key(_worker_a, (1, 2)) != point_key(_worker_a, (1, 3))

    def test_distinct_workers_distinct_keys(self):
        assert point_key(_worker_a, (1, 2)) != point_key(_worker_b, (1, 2))

    def test_fingerprint_covers_source(self):
        # Same point, but the two workers differ in source ⇒ the code
        # fingerprint (and thus the key) differs: editing a worker
        # invalidates its cached results.
        assert code_fingerprint(_worker_a) != code_fingerprint(_worker_b)

    def test_precomputed_fingerprint_matches(self):
        fp = code_fingerprint(_worker_a)
        assert point_key(_worker_a, 5, fingerprint=fp) == point_key(
            _worker_a, 5
        )

    def test_extra_salt_segregates(self):
        assert point_key(_worker_a, 5) != point_key(_worker_a, 5, extra="v2")

    def test_worker_name_is_module_qualified(self):
        assert worker_name(_worker_a).endswith(":_worker_a")
        assert "test_store" in worker_name(_worker_a)

    #: Keys that stores filled by earlier code already hold.  A slip in
    #: the key format would turn every such store cold without failing
    #: anything else, so the digests are literal.
    PINNED = {
        "dict": (
            {"processors": 64, "row_samples": 16, "reorder_cycles": 4,
             "engine": "compiled"},
            "f165a4676682804a6045da59c967b3e81b001b90c9b0c055c250f476bd63a8dd",
        ),
        "tuple": (
            (1, "two", None, True),
            "ad40ce076765d0813d1b68935727f6c4c99994afa78888965e178d7e2c364de2",
        ),
        "float": (
            0.1,
            "d6f64eddea8154c9f87db5afcd3007125b67e3fe09958b1bd35449af7cbed7d6",
        ),
        "dataclass": (
            JournalEntry(index=3, key="ab" * 32, cached=True, wall_s=0.5,
                         ts=1000.0),
            "938d4ce72577c00ec68a589a0d53915182db7176eeebc81257de46a9520a9f4f",
        ),
        "set": (
            {3, 1, 2},
            "7153f179614d83f879070a1b5b5e02c4d73b65c8e77bfa7407298cbcfa9786c0",
        ),
        "frozenset": (
            frozenset({"b", "a"}),
            "93bec3292ff306e99422c2a23db13f742c5e4e977592cdaeccc3fe273e36363c",
        ),
        "enum": (
            ReorgMechanism.SCA,
            "fb4c45b09462a978d8426d9edf4263d1ec291f462eaec74f76a6c329f01a9f3b",
        ),
        "intenum": (  # an IntEnum member keys as its int value
            Port.EAST,
            "2b284e5b348beb2a5f10453fc529ca99c4f412c95e3f454cb4931a815e4285da",
        ),
        "true": (
            True,
            "96f761e40fbb77fb4bc0c3a5bef1498f64d8b0be2c6bbe28acfe15657d278f64",
        ),
        "one": (
            1,
            "83562c10d338bbb1d81746ed1fa04034a74de1ef2737bcad7186f765275c9587",
        ),
        "int_keys": (
            {2: "b", 1: "a"},
            "675eb9c0685f53839460404e6ca1febf72afb3fa05417246d11a8878ab86addd",
        ),
        "tuple_keys": (
            {(1, 2): "x", (0, 5): "y"},
            "c0f0a4138250550a1aa9f98346dd6390e6014cc24b380192ddc811f770dbeb61",
        ),
        "escaped_keys": (
            {'"': 1, "é": 2, "a": 3},
            "78e43a955bd22ec1c351ed444d219e965ed148b4e47ba1997d43b653efd76a4d",
        ),
        "nan": (
            float("nan"),
            "a4c1e6459c6ca9ed905e7c1fd35a1e86f151697262248e6c502935b759a07410",
        ),
        "inf": (
            float("-inf"),
            "62a0f7b2f768018a9610ab357a2ebe4e9f2cb807004d9d93e1e2f4b363557442",
        ),
        "complex": (
            complex(1.5, -2.0),
            "abbdd4a47df6e008f3d923f2fb1200bb380f4ee46acafc44e44fef3fcd4c355d",
        ),
        "bytes": (
            b"\x00\xffP",
            "65219e330cda49b06ae5e0da278ef125cb817377f1baa9dea0471a76b9ee85c5",
        ),
        "numpy_float": (
            np.float64(0.25),
            "4730ad4417eacf7330b3627dedd997bfc3125bc001655ea9c220beee0df82b03",
        ),
        "numpy_int": (
            np.int64(7),
            "9919c4ef77e9a7eb72942655a8dcce26fc2fee38d34d85bb21fa2aab3c778c18",
        ),
        "extra": (  # a third element is the ``extra`` salt
            5,
            "cfa1d37cd90db6fa28b91e7a48d66a3864d4b119bed432ea65bf07c8f15c8bb5",
            "v2",
        ),
        "campaign_batch": (  # a batched fault campaign's grid point
            (CampaignConfig(), 1e-3, (11, 22, 33)),
            "5e2e8dff40fc4dff7874b87f250fc884c7c5154bbf57fddd93ee5c3a53689673",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_key_format_is_pinned(self, kind):
        from repro.analysis import measure_mesh_transpose

        point, key, *extra = self.PINNED[kind]
        assert point_key(
            measure_mesh_transpose, point, fingerprint="0" * 64,
            extra=extra[0] if extra else None,
        ) == key

    def test_set_key_ignores_hash_seed(self):
        # String hashing is salted per process, so a set of strings
        # iterates in another order under some of these seeds (which
        # ones depends on the interpreter's string hash); its key must
        # not follow that order.
        script = (
            "from repro.analysis import measure_mesh_transpose as f\n"
            "from repro.store import point_key\n"
            "s = {'alpha', 'beta', 'gamma', 'delta', 'epsilon'}\n"
            "print(list(s))\n"
            "print(point_key(f, s, fingerprint='0' * 64))\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        orders, keys = set(), set()
        for seed in ("1", "2", "3", "4"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            )
            order, key = out.stdout.splitlines()
            orders.add(order)
            keys.add(key)
        assert len(orders) >= 2
        assert len(keys) == 1


# ---------------------------------------------------------------------------
# the one-pass emitter against the canonical form it writes
# ---------------------------------------------------------------------------


class _Hue(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Tone(str, enum.Enum):  # what ``enum.StrEnum`` (3.11+) is
    PLAIN = "a"
    ACCENT = "é"


@dataclasses.dataclass(frozen=True)
class _Cell:
    x: object
    y: object


#: Strings whose JSON escapes sort them apart from their raw order
#: (``"é"`` is ``"\\u00e9"``, before ``"a"``; ``'"'`` is ``'\\"'``).
_STRINGS = ("", "a", "z", "Z", '"', "\\", "é", "\x7f", "\u2603",
            "\U0001f600", "a\nb", "\x00", "processors", "engine")


def _random_float(rng):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice((0.0, -0.0, 0.1, 1.0, -2.5, math.inf, -math.inf,
                           math.nan, 5e-324, 1e308))
    if roll < 0.6:
        return rng.uniform(-1e6, 1e6)
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def _random_scalar(rng):
    kind = rng.randrange(13)
    if kind == 0:
        return rng.choice(_STRINGS)
    if kind == 1:
        return "".join(rng.choice(_STRINGS) for _ in range(rng.randrange(3)))
    if kind == 2:
        return rng.choice((0, 1, -1, 2**64, -(2**70))) + rng.randrange(-3, 4)
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return None
    if kind == 5:
        return _random_float(rng)
    if kind == 6:
        return rng.choice(list(_Hue))
    if kind == 7:
        return rng.choice(list(_Tone))
    if kind == 8:
        return np.int64(rng.randrange(-1000, 1000))
    if kind == 9:
        return np.float64(_random_float(rng))
    if kind == 10:
        return complex(_random_float(rng), _random_float(rng))
    if kind == 11:
        return rng.randbytes(rng.randrange(4))
    return ReorgMechanism.SCA


def _random_hashable(rng, depth):
    roll = rng.randrange(5) if depth else 0
    if roll == 1:
        return tuple(_random_hashable(rng, depth - 1)
                     for _ in range(rng.randrange(3)))
    if roll == 2:
        return frozenset(_random_hashable(rng, depth - 1)
                         for _ in range(rng.randrange(3)))
    if roll == 3:
        return _Cell(_random_hashable(rng, depth - 1),
                     _random_hashable(rng, depth - 1))
    return _random_scalar(rng)


def _random_payload(rng, depth=3):
    roll = rng.randrange(9) if depth else 0
    size = rng.randrange(5)
    if roll == 1:
        return [_random_payload(rng, depth - 1) for _ in range(size)]
    if roll == 2:
        return tuple(_random_payload(rng, depth - 1) for _ in range(size))
    if roll == 3:  # string keys, some of them escaped
        return {rng.choice(_STRINGS): _random_payload(rng, depth - 1)
                for _ in range(size)}
    if roll == 4:  # any canonical keys: ints next to bools, enums, tuples
        return {_random_hashable(rng, depth - 1): _random_payload(rng, depth - 1)
                for _ in range(size)}
    if roll == 5:
        members = {_random_hashable(rng, depth - 1) for _ in range(size)}
        return members if rng.random() < 0.5 else frozenset(members)
    if roll == 6:
        return _Cell(_random_payload(rng, depth - 1),
                     _random_payload(rng, depth - 1))
    if roll == 7:
        return collections.OrderedDict(
            (rng.choice(_STRINGS), _random_payload(rng, depth - 1))
            for _ in range(size)
        )
    return _random_scalar(rng)


def _envelope_key(fn, point, fingerprint, extra):
    """``point_key`` as the module docstring defines it."""
    envelope = {
        "worker": worker_name(fn),
        "fingerprint": fingerprint,
        "point": canonicalize(point),
        "extra": canonicalize(extra),
    }
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


class TestCanonicalEmitter:
    """``canonical_json`` writes the bytes of ``_CANONICAL(canonicalize(x))``
    in one pass; ``point_key`` wraps them in the envelope's bytes."""

    def test_random_payloads_match_the_canonical_form(self):
        rng = random.Random(20130901)
        fingerprint = "0" * 64
        points, extras = [], []
        for _ in range(20_000):
            point = _random_payload(rng)
            extra = _random_payload(rng, 1) if rng.random() < 0.2 else None
            assert canonical_json(point) == _CANONICAL(canonicalize(point))
            assert point_key(
                _worker_a, point, fingerprint=fingerprint, extra=extra
            ) == _envelope_key(_worker_a, point, fingerprint, extra)
            if extra is None:
                points.append(point)
        assert point_keys(_worker_a, points, fingerprint=fingerprint) == [
            _envelope_key(_worker_a, p, fingerprint, None) for p in points
        ]

    def test_escaped_keys_sort_by_their_json(self):
        text = canonical_json({"a": 1, "é": 2, '"': 3, "Z": 4})
        assert text == _CANONICAL(canonicalize({"é": 2, "a": 1, "Z": 4, '"': 3}))
        assert text.index("u00e9") < text.index('"a"')

    def test_bool_and_int_stay_apart(self):
        assert canonical_json([True, 1, False, 0]) == "[true,1,false,0]"
        assert canonical_json(_Hue.LOW) == canonical_json(1)
        assert canonical_json(_Tone.ACCENT) == canonical_json("é")

    def test_unsupported_values_are_loud_inside_containers(self):
        with pytest.raises(ConfigError, match="no canonical serialization"):
            canonical_json({"x": [1, object()]})
        with pytest.raises(ConfigError):
            canonical_json({object(): 1})

    def test_keys_of_a_grid_equal_keys_of_each_point(self):
        grid = [{"processors": p, "engine": "compiled"} for p in (16, 64)]
        assert point_keys(_worker_a, grid, extra="v2") == [
            point_key(_worker_a, p, extra="v2") for p in grid
        ]
        assert point_keys(_worker_a, []) == []


class TestCodeFingerprint:
    def test_source_is_read_once_per_function(self, monkeypatch):
        import repro.store.keys as keys_mod

        def fresh(x):
            return x * 3

        reads = []
        real = keys_mod.inspect.getsource

        def counting(fn):
            reads.append(fn)
            return real(fn)

        monkeypatch.setattr(keys_mod.inspect, "getsource", counting)
        first = code_fingerprint(fresh)
        assert code_fingerprint(fresh) == first
        assert reads == [fresh]

    def test_rebinding_code_changes_fingerprint(self):
        def fresh(x):
            return x * 3

        before = code_fingerprint(fresh)
        fresh.__code__ = _worker_b.__code__
        after = code_fingerprint(fresh)
        assert after != before
        assert code_fingerprint(fresh) == after

    def test_non_weakrefable_callable_still_fingerprints(self):
        # Builtins take no weak references; they are hashed every time.
        assert code_fingerprint(len) == code_fingerprint(len)
        assert code_fingerprint(len) != code_fingerprint(abs)


# ---------------------------------------------------------------------------
# result store mechanics
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 3)
        assert not store.has(key)
        store.store(key, {"x": [1, 2, 3], "y": (4.5, None)})
        assert store.has(key)
        assert store.load(key) == {"x": [1, 2, 3], "y": (4.5, None)}

    def test_missing_key_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(KeyError):
            store.load(point_key(_worker_a, 99))

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigError):
            store.has("../../etc/passwd")
        with pytest.raises(ConfigError):
            store.has("short")

    @pytest.mark.parametrize("key", [
        "ABCDEF0123", "abcdef01\n", " abcdef01", "abcdefg1", "abcdef0\u0661",
        b"abcdef0123", 12345678, None,
    ])
    def test_only_lowercase_hex_keys_accepted(self, tmp_path, key):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigError):
            store.load(key)

    def test_overwrite_is_atomic_no_temp_residue(self, tmp_path):
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 1)
        store.store(key, "first")
        store.store(key, "second")
        assert store.load(key) == "second"
        shard = store._object_path(key).parent
        assert not list(shard.glob(".*.tmp"))

    def test_keys_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        wanted = {point_key(_worker_a, i) for i in range(5)}
        for i, key in enumerate(sorted(wanted)):
            store.store(key, i)
        assert set(store.keys()) == wanted
        assert store.object_count() == 5
        assert store.total_bytes() > 0

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 1)
        store.store(key, 1)
        assert store.delete(key) is True
        assert store.delete(key) is False
        assert not store.has(key)

    def test_torn_object_is_not_visible(self, tmp_path):
        # A crash mid-write leaves only a dot-tmp file, which has() and
        # keys() ignore (the object either exists whole or not at all).
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 7)
        path = store._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / f".{key[:12]}.xyz.tmp").write_bytes(
            pickle.dumps("partial")[:3]
        )
        assert not store.has(key)
        assert list(store.keys()) == []

    def test_has_reads_only_a_missing_object_as_absent(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 8)
        path = store._object_path(key)
        path.parent.parent.mkdir(parents=True)
        path.parent.write_bytes(b"")  # the shard is a file
        assert not store.has(key)
        path.parent.unlink()
        path.mkdir(parents=True)  # the object is a directory
        assert not store.has(key)

        # Any other error, e.g. an unreadable shard, is not a cache miss.
        def denied(p, *args, **kwargs):
            raise PermissionError(13, "Permission denied", p)

        monkeypatch.setattr(os, "stat", denied)
        with pytest.raises(PermissionError):
            store.has(key)


class TestLoadErrors:
    """``load`` is one ``os.open``/``os.read`` and ``pickle.loads``: only
    a missing object is a ``KeyError``, anything else unreadable raises
    and a sweep reads it as missing."""

    def test_missing_object_or_shard_is_a_key_error(self, tmp_path):
        store = ResultStore(tmp_path / "never-made")
        key = point_key(_worker_a, 1)
        with pytest.raises(KeyError):
            store.load(key)  # no store directory at all
        store.ensure_dirs()
        with pytest.raises(KeyError):
            store.load(key)  # no shard
        Path(store._object_file(key)).parent.mkdir()
        with pytest.raises(KeyError):
            store.load(key)  # a shard without the object

    def test_directory_and_torn_pickle_raise_and_read_as_missing(self, tmp_path):
        from repro.perf.sweep import _Checkpoint

        grid = [1, 2, 3]
        ckpt = _Checkpoint(tmp_path, _worker_a, grid, "")
        store = ckpt.store
        as_dir, torn, whole = ckpt.keys
        Path(store._object_file(as_dir)).mkdir(parents=True)
        store.store(torn, "torn")
        path = Path(store._object_file(torn))
        path.write_bytes(path.read_bytes()[:-3])
        store.store(whole, "whole")
        with pytest.raises(IsADirectoryError):
            store.load(as_dir)
        with pytest.raises((pickle.UnpicklingError, EOFError)):
            store.load(torn)
        assert ckpt.load_completed() == {2: "whole"}

    def test_large_object_reads_whole(self, tmp_path):
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 3)
        value = bytes(range(256)) * 1_000  # several reads long
        store.store(key, value)
        assert store.load(key) == value

    def test_unreadable_shard_propagates_from_has(self, tmp_path, monkeypatch):
        from repro.perf.sweep import _Checkpoint

        ckpt = _Checkpoint(tmp_path, _worker_a, [1], "")

        def denied(p, *args, **kwargs):
            raise PermissionError(13, "Permission denied", p)

        monkeypatch.setattr(os, "stat", denied)
        with pytest.raises(PermissionError):
            ckpt.store.has(ckpt.keys[0])
        with pytest.raises(PermissionError):
            ckpt.load_completed()


class TestMeasuredTransposePickle:
    """Stores hold pickled :class:`MeasuredTranspose` results, so their
    bytes and their loads must not move with the class's own
    ``__setstate__``."""

    #: ``pickle.dumps(measure_mesh_transpose(16, 8, 2, engine="compiled"),
    #: protocol=4)`` as stores filled by earlier code hold it (the
    #: pickled state is ``dataclasses``' field-value list).
    PINNED_BLOB = (
        b"\x80\x04\x95K\x00\x00\x00\x00\x00\x00\x00\x8c\x1erepro.analysis."
        b"transpose_model\x94\x8c\x11MeasuredTranspose\x94\x93\x94)\x81\x94]"
        b"\x94(K\x10K\x08K\x02M\x81\x01K\x84eb."
    )

    @staticmethod
    def _point():
        from repro.analysis import MeasuredTranspose

        return MeasuredTranspose(processors=16, row_samples=8, reorder_cycles=2,
                                 mesh_cycles=385, pscan_cycles=132)

    def test_bytes_are_pinned(self):
        from repro.analysis import measure_mesh_transpose

        measured = measure_mesh_transpose(16, 8, 2, engine="compiled")
        assert measured == self._point()
        assert pickle.dumps(measured, protocol=4) == self.PINNED_BLOB
        assert pickle.loads(self.PINNED_BLOB) == measured

    def test_state_fields_are_the_dataclass_fields(self):
        from repro.analysis import MeasuredTranspose
        from repro.analysis.transpose_model import _MEASURED_FIELDS

        assert _MEASURED_FIELDS == tuple(
            f.name for f in dataclasses.fields(MeasuredTranspose)
        )
        assert self._point().__getstate__() == [16, 8, 2, 385, 132]

    def test_loads_use_the_class_setstate(self, monkeypatch):
        """The class's own ``__setstate__`` is installed on every
        supported Python (``dataclass`` may replace one in the class
        body), so a load never calls ``dataclasses.fields``."""
        from repro.analysis import MeasuredTranspose
        from repro.analysis.transpose_model import _measured_setstate

        assert MeasuredTranspose.__setstate__ is _measured_setstate
        assert MeasuredTranspose.__setstate__ is not getattr(
            dataclasses, "_dataclass_setstate", None)

        def no_fields(*args, **kwargs):
            raise AssertionError("dataclasses.fields called by a load")

        monkeypatch.setattr(dataclasses, "fields", no_fields)
        assert pickle.loads(self.PINNED_BLOB) == self._point()

    def test_copies_are_equal(self):
        point = self._point()
        for twin in (copy.copy(point), copy.deepcopy(point)):
            assert twin == point and twin is not point
            with pytest.raises(dataclasses.FrozenInstanceError):
                twin.mesh_cycles = 0

    def test_a_stored_blob_reads_warm(self, tmp_path):
        """An object an earlier tree wrote is a hit, not a re-execution."""
        from repro.analysis import measure_mesh_transpose
        from repro.perf.sweep import run_sweep

        point = {"processors": 16, "row_samples": 8, "reorder_cycles": 2,
                 "engine": "compiled"}
        store = ResultStore(tmp_path)
        path = Path(store._object_file(point_key(measure_mesh_transpose, point)))
        path.parent.mkdir(parents=True)
        # The stored result says 386 cycles, so returning it proves a read.
        blob = self.PINNED_BLOB.replace(b"M\x81\x01", b"M\x82\x01")
        path.write_bytes(blob)
        [result] = run_sweep(measure_mesh_transpose, [point], parallel=False,
                             checkpoint=tmp_path)
        assert result.mesh_cycles == 386
        (entry,) = read_journal(next(store.runs_dir.glob("*.journal")))
        assert entry.cached is True


# ---------------------------------------------------------------------------
# manifests + journals
# ---------------------------------------------------------------------------


class TestManifest:
    def _manifest(self):
        fp = code_fingerprint(_worker_a)
        keys = [point_key(_worker_a, i, fingerprint=fp) for i in range(4)]
        return SweepManifest(
            worker=worker_name(_worker_a),
            fingerprint=fp,
            keys=keys,
            label="unit",
        )

    def test_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = manifest.save(tmp_path)
        loaded = SweepManifest.load(path)
        assert loaded.run_id == manifest.run_id
        assert loaded.keys == manifest.keys
        assert loaded.label == "unit"

    def test_run_id_content_derived(self, tmp_path):
        a, b = self._manifest(), self._manifest()
        assert a.run_id == b.run_id  # same grid ⇒ same manifest identity
        b.keys = list(reversed(b.keys))
        assert a.run_id != b.run_id

    def test_iter_dir_skips_corrupt(self, tmp_path):
        manifest = self._manifest()
        manifest.save(tmp_path)
        (tmp_path / "zz-corrupt.json").write_text("{not json")
        (tmp_path / "zz-foreign.json").write_text('{"schema_version": 99}')
        found = list(SweepManifest.iter_dir(tmp_path))
        assert [m.run_id for m in found] == [manifest.run_id]

    def test_malformed_manifest_is_a_config_error(self, tmp_path):
        manifest = self._manifest()
        manifest.save(tmp_path)
        (tmp_path / "zz-list.json").write_text("[1, 2]")
        (tmp_path / "zz-keyless.json").write_text('{"schema_version": 1}')
        for name in ("zz-list.json", "zz-keyless.json"):
            with pytest.raises(ConfigError):
                SweepManifest.load(tmp_path / name)
        found = list(SweepManifest.iter_dir(tmp_path))
        assert [m.run_id for m in found] == [manifest.run_id]

    def test_save_writes_only_new_or_relabelled(self, tmp_path):
        first = self._manifest()
        first.save(tmp_path)
        path = first.path(tmp_path)
        os.utime(path, ns=(10**9, 10**9))  # any rewrite moves this
        again = self._manifest()
        again.save(tmp_path)
        assert path.stat().st_mtime_ns == 10**9
        assert again.created_at == first.created_at
        relabelled = self._manifest()
        relabelled.label = "renamed"
        relabelled.save(tmp_path)
        stored = SweepManifest.load(path)
        assert path.stat().st_mtime_ns != 10**9
        assert stored.label == "renamed"
        assert stored.created_at == first.created_at
        path.write_text("{torn")
        self._manifest().save(tmp_path)
        assert SweepManifest.load(path).label == "unit"

    def test_status_against_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.ensure_dirs()
        manifest = self._manifest()
        store.store(manifest.keys[0], "r0")
        assert manifest.completed(store) == [True, False, False, False]
        assert "1/4" in manifest.status_line(store)

    def test_journal_round_trip_and_torn_line(self, tmp_path):
        path = tmp_path / "run.journal"
        for i in range(3):
            append_journal(
                path,
                JournalEntry(
                    index=i, key="ab" * 32, cached=bool(i % 2),
                    wall_s=0.5 * i, ts=1000.0 + i,
                ).to_json(),
            )
        with path.open("a") as fh:
            fh.write('{"index": 3, "key": "tor')  # crash mid-append
        entries = read_journal(path)
        assert [e.index for e in entries] == [0, 1, 2]
        assert entries[1].cached is True
        assert math.isclose(entries[2].wall_s, 1.0)

    def test_batch_append_is_one_line_per_entry(self, tmp_path):
        path = tmp_path / "run.journal"
        entries = [
            JournalEntry(index=i, key="cd" * 32, cached=True, wall_s=0.0,
                         ts=2000.0)
            for i in range(3)
        ]
        append_journal(path, *(entry.to_json() for entry in entries))
        append_journal(path)  # an empty batch writes nothing
        lines = path.read_text().splitlines()
        assert lines == [entry.to_json() for entry in entries]
        assert read_journal(path) == entries

    #: Journal lines as ``repro sweep status`` reads them from existing
    #: runs: a cache hit, and an executed point whose ``wall_s`` rounds
    #: at 6 digits, both with 10-digit timestamps.
    PINNED_LINES = [
        (
            JournalEntry(index=0, key="ab" * 32, cached=True, wall_s=0.0,
                         ts=1760000000.25),
            '{"cached":true,"index":0,"key":"abababababababababababababababab'
            'abababababababababababababababab","ts":1760000000.25,'
            '"wall_s":0.0}',
        ),
        (
            JournalEntry(index=35, key="0123456789abcdef" * 4, cached=False,
                         wall_s=0.01234567891, ts=1760000123.0),
            '{"cached":false,"index":35,"key":"0123456789abcdef0123456789abcdef'
            '0123456789abcdef0123456789abcdef","ts":1760000123.0,'
            '"wall_s":0.012346}',
        ),
    ]

    def test_journal_lines_are_pinned(self, tmp_path):
        path = tmp_path / "run.journal"
        entries = [entry for entry, _ in self.PINNED_LINES]
        append_journal(path, *(entry.to_json() for entry in entries))
        lines = [line for _, line in self.PINNED_LINES]
        assert [entry.to_json() for entry in entries] == lines
        assert path.read_text() == "".join(line + "\n" for line in lines)
        assert read_journal(path) == [
            JournalEntry(index=0, key="ab" * 32, cached=True, wall_s=0.0,
                         ts=1760000000.25),
            JournalEntry(index=35, key="0123456789abcdef" * 4, cached=False,
                         wall_s=0.012346, ts=1760000123.0),
        ]

    def test_hit_lines_equal_entry_lines(self):
        rng = random.Random(7)
        for _ in range(2_000):
            keys = ["".join(rng.choice("0123456789abcdef")
                            for _ in range(rng.choice((8, 16, 64))))
                    for _ in range(rng.randrange(1, 6))]
            indices = sorted(rng.sample(range(len(keys)), rng.randrange(len(keys) + 1)))
            ts = rng.choice((rng.uniform(0, 2e9), rng.random(), 1760000000.0,
                             float(rng.randrange(10**10)), 1e16))
            assert JournalEntry.hit_lines(keys, indices, ts) == [
                JournalEntry(index=i, key=keys[i], cached=True, wall_s=0.0,
                             ts=ts).to_json()
                for i in indices
            ]
        for entry, line in self.PINNED_LINES:
            if entry.cached:
                keys = [""] * entry.index + [entry.key]
                assert JournalEntry.hit_lines(keys, [entry.index], entry.ts) == [line]

    def test_hit_lines_append_like_entries(self, tmp_path):
        keys = ["ab" * 32, "cd" * 32]
        path = tmp_path / "run.journal"
        append_journal(path, *JournalEntry.hit_lines(keys, [0, 1], 1760000000.25))
        assert read_journal(path) == [
            JournalEntry(index=i, key=k, cached=True, wall_s=0.0,
                         ts=1760000000.25)
            for i, k in enumerate(keys)
        ]

    def test_read_missing_journal(self, tmp_path):
        assert read_journal(tmp_path / "absent.journal") == []


# ---------------------------------------------------------------------------
# garbage collection
# ---------------------------------------------------------------------------


class TestGc:
    def test_orphans_removed_referenced_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        store.ensure_dirs()
        fp = code_fingerprint(_worker_a)
        kept_keys = [point_key(_worker_a, i, fingerprint=fp) for i in range(3)]
        SweepManifest(
            worker=worker_name(_worker_a), fingerprint=fp, keys=kept_keys
        ).save(store.runs_dir)
        orphan = point_key(_worker_b, 0)
        for key in [*kept_keys, orphan]:
            store.store(key, "v")
        report = store.gc()
        assert report.removed == 1
        assert report.kept == 3
        assert not store.has(orphan)
        assert all(store.has(k) for k in kept_keys)

    def test_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.ensure_dirs()
        orphan = point_key(_worker_b, 1)
        store.store(orphan, "v")
        report = store.gc(dry_run=True)
        assert report.removed == 1 and report.dry_run
        assert store.has(orphan)

    def test_age_cutoff_with_all(self, tmp_path):
        store = ResultStore(tmp_path)
        store.ensure_dirs()
        old = point_key(_worker_a, 1)
        new = point_key(_worker_a, 2)
        store.store(old, "old")
        store.store(new, "new")
        stale = 10 * 86400
        path = store._object_path(old)
        os.utime(path, (path.stat().st_atime - stale,
                        path.stat().st_mtime - stale))
        report = store.gc(max_age_days=7, unreferenced_only=False)
        assert report.removed == 1
        assert not store.has(old) and store.has(new)

    def test_negative_age_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ResultStore(tmp_path).gc(max_age_days=-1)


# ---------------------------------------------------------------------------
# interrupt safety
# ---------------------------------------------------------------------------


class TestStoreInterrupt:
    def test_keyboard_interrupt_mid_pickle_propagates_cleanly(
            self, tmp_path, monkeypatch):
        """Ctrl-C during ``store()`` must not be absorbed (PR-6 satellite).

        The write path uses try/finally rather than a blanket except, so
        KeyboardInterrupt propagates, the temp file is unlinked, and no
        object is committed.
        """
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 11)

        def interrupted_dump(value, fh, protocol=None):
            fh.write(b"par")  # some bytes already on disk
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.store.result_store.pickle.dump", interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            store.store(key, {"x": 1})
        assert not store.has(key)
        shard = store._object_path(key).parent
        assert not list(shard.glob("*.tmp")), "temp residue left behind"

    def test_oserror_mid_write_unlinks_temp_and_propagates(
            self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        key = point_key(_worker_a, 12)
        monkeypatch.setattr(
            "repro.store.result_store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError, match="disk full"):
            store.store(key, "v")
        assert not store.has(key)
        assert not list(store._object_path(key).parent.glob("*.tmp"))


# ---------------------------------------------------------------------------
# serve journal + stale index (repro.store.leases)
# ---------------------------------------------------------------------------


class TestServeJournal:
    def _journal(self, tmp_path):
        from repro.store.leases import ServeJournal

        return ServeJournal(tmp_path / "serve.journal")

    def _submit(self, journal, job_id, **kw):
        defaults = dict(tenant="a", workload="noop", point_json="{}",
                        key="ab" * 32, priority=0, deadline_wall=1e10)
        defaults.update(kw)
        journal.submit(job_id, **defaults)

    def test_replay_pending_excludes_committed(self, tmp_path):
        journal = self._journal(tmp_path)
        self._submit(journal, "j-1")
        self._submit(journal, "j-2", tenant="b", priority=3)
        journal.lease("j-1", key="ab" * 32, attempt=1)
        journal.lease("j-1", key="ab" * 32, attempt=2)
        journal.commit("j-1", state="done", detail="cold")
        replay = journal.replay()
        assert [e.job_id for e in replay.pending] == ["j-2"]
        assert replay.pending[0].priority == 3
        assert replay.completed["j-1"].state == "done"
        assert replay.leases == {"j-1": 2}
        assert replay.skipped_lines == 0

    def test_last_submit_wins_on_reingest(self, tmp_path):
        journal = self._journal(tmp_path)
        self._submit(journal, "j-1", point_json='{"x": 1}')
        self._submit(journal, "j-1", point_json='{"x": 1}', priority=5)
        replay = journal.replay()
        assert len(replay.pending) == 1
        assert replay.pending[0].priority == 5
        assert replay.pending[0].point() == {"x": 1}

    def test_torn_trailing_line_skipped(self, tmp_path):
        journal = self._journal(tmp_path)
        self._submit(journal, "j-1")
        with journal.path.open("a") as fh:
            fh.write('{"schema": 1, "op": "comm')  # SIGKILL mid-append
        replay = journal.replay()
        assert replay.skipped_lines == 1
        assert [e.job_id for e in replay.pending] == ["j-1"]

    def test_foreign_schema_skipped(self, tmp_path):
        journal = self._journal(tmp_path)
        with journal.path.open("a") as fh:
            fh.write('{"schema": 99, "op": "submit", "job_id": "x"}\n')
        self._submit(journal, "j-1")
        replay = journal.replay()
        assert replay.skipped_lines == 1
        assert [e.job_id for e in replay.pending] == ["j-1"]

    def test_missing_journal_is_empty_replay(self, tmp_path):
        replay = self._journal(tmp_path).replay()
        assert replay.pending == [] and replay.completed == {}

    def test_max_sequence_over_numeric_suffixes(self, tmp_path):
        journal = self._journal(tmp_path)
        self._submit(journal, "srv-7")
        self._submit(journal, "tenant-abc123")  # non-numeric tail ignored
        journal.commit("srv-12", state="done")
        assert journal.replay().max_sequence == 12

    def test_entry_validation(self):
        from repro.store.leases import ServeJournalEntry

        with pytest.raises(ConfigError):
            ServeJournalEntry(op="banana", job_id="j", ts=0.0)
        with pytest.raises(ConfigError):
            ServeJournalEntry(op="submit", job_id="", ts=0.0)


class TestStaleIndex:
    def test_record_and_lookup(self, tmp_path):
        from repro.store.leases import StaleIndex

        index = StaleIndex(tmp_path)
        identity = "ab" * 32
        assert index.lookup(identity) is None
        index.record(identity, "cd" * 32)
        assert index.lookup(identity) == "cd" * 32
        index.record(identity, "ef" * 32)  # newer commit supersedes
        assert index.lookup(identity) == "ef" * 32

    def test_ttl_expires_old_records(self, tmp_path):
        from repro.store.leases import StaleIndex

        index = StaleIndex(tmp_path)
        identity = "ab" * 32
        index.record(identity, "cd" * 32, ts=1000.0)  # long ago
        assert index.lookup(identity, max_age_s=60.0) is None
        assert index.lookup(identity) == "cd" * 32  # unbounded accepts it

    def test_malformed_identity_rejected(self, tmp_path):
        from repro.store.leases import StaleIndex

        with pytest.raises(ConfigError):
            StaleIndex(tmp_path).record("../escape", "cd" * 32)

    def test_corrupt_record_reads_as_missing(self, tmp_path):
        from repro.store.leases import StaleIndex

        index = StaleIndex(tmp_path)
        identity = "ab" * 32
        index.record(identity, "cd" * 32)
        index._path(identity).write_text("{torn")
        assert index.lookup(identity) is None


class TestPointIdentity:
    def test_fingerprint_agnostic_and_point_sensitive(self):
        from repro.store.leases import point_identity

        a = point_identity("noop", {"x": 1, "y": 2})
        assert a == point_identity("noop", {"y": 2, "x": 1})  # order-free
        assert a != point_identity("noop", {"x": 1, "y": 3})
        assert a != point_identity("other", {"x": 1, "y": 2})
        # No code fingerprint in the identity: it is a pure function of
        # (workload name, point) — unlike point_key, which folds in the
        # worker source so edits invalidate the cache.
        assert a == point_identity("noop", {"x": 1, "y": 2})
