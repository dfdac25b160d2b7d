"""Canonical serialization and content-addressed keys for sweep points.

Every result the sweep runtime checkpoints is addressed by a **stable,
content-derived key**::

    key = sha256(canonical_json({
        "worker":      <module-qualified name of the worker function>,
        "fingerprint": <sha256 of the worker's source code>,
        "point":       canonicalize(<grid point payload>),
        "extra":       canonicalize(<caller-supplied salt, optional>),
    }))

so that

* the same worker evaluated at the same grid point always maps to the
  same key (warm-cache regeneration is a no-op);
* editing the worker's source invalidates every cached result computed
  with the old code (the ``fingerprint`` component changes);
* two different points can never collide on a formatting accident,
  because :func:`canonicalize` is injective on the supported payload
  vocabulary (see below) and :func:`canonical_json` emits one byte
  stream per canonical form (sorted keys, fixed separators, tagged
  non-finite floats).

Supported payload vocabulary
----------------------------
``None``, ``bool``, ``int``, ``str``, finite and non-finite ``float``,
``complex``, ``bytes``, ``list``/``tuple``, ``dict`` (any canonical
keys), ``set``/``frozenset`` (sorted by canonical form), :mod:`enum`
members, frozen-or-not ``dataclasses`` (by qualified class name +
per-field canonical form), and NumPy scalars (via ``.item()``).  The
repo's campaign / bench / figure configs are frozen dataclasses of plain
values, so they all canonicalize; anything outside the vocabulary (an
open file, a live simulator, a lambda) raises
:class:`~repro.util.errors.ConfigError` *before* dispatch — a
non-canonical point is a bug in the sweep's construction, not something
to hash by ``repr`` luck.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import json
import math
import weakref
from collections.abc import Callable, Mapping, Sequence, Set
from operator import itemgetter
from typing import Any

from ..util.errors import ConfigError

__all__ = [
    "canonicalize",
    "canonical_json",
    "code_fingerprint",
    "worker_name",
    "point_key",
]

#: Tag used for values that need a type marker to stay injective.
_TAG = "__repro__"


def _qualified_name(obj: type | Callable[..., Any]) -> str:
    module = getattr(obj, "__module__", None) or "?"
    qualname = getattr(obj, "__qualname__", None) or getattr(
        obj, "__name__", repr(obj)
    )
    return f"{module}:{qualname}"


#: The canonical JSON encoder: ``.encode(x)`` is exactly
#: ``json.dumps(x, sort_keys=True, separators=(",", ":"), allow_nan=False)``.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode
#: ``json.dumps(x, sort_keys=True)``: the order mapping keys and set
#: members sort in (the key format pins it).
_SORT_KEY = json.JSONEncoder(sort_keys=True).encode
#: ``json.dumps(s)`` for a ``str`` ``s``, without an encoder around it.
_JSON_STR = json.encoder.encode_basestring_ascii


def _encode(canonical: Any) -> str:
    """``_CANONICAL(canonical)``, without the encoder for a ``str`` or ``None``."""
    if type(canonical) is str:
        return _JSON_STR(canonical)
    if canonical is None:
        return "null"
    return _CANONICAL(canonical)


def _sort_key(canonical: Any) -> str:
    if type(canonical) is str:
        return _JSON_STR(canonical)
    return _SORT_KEY(canonical)


def canonicalize(value: Any) -> Any:
    """Map ``value`` onto a canonical, JSON-serializable form.

    The mapping is deterministic (no id()/repr() dependence, dict order
    irrelevant, sets sorted) and injective on the supported vocabulary:
    distinct payloads get distinct canonical forms.  Unsupported values
    raise :class:`ConfigError` naming the offending type.

    The built-in types grid points are made of dispatch on their exact
    type; subclasses of them (``IntEnum``, ``StrEnum``, NumPy floats)
    and everything else take the ``isinstance`` chain of
    :func:`_canonicalize_other`, so both give the same form.
    """
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is float:
        return _canonical_float(value)
    if kind is dict:
        return _canonical_map(value)
    if kind is list or kind is tuple:
        # Lists and tuples canonicalize identically on purpose: the
        # sweep runtime treats both as "a positional point payload".
        return [canonicalize(v) for v in value]
    return _canonicalize_other(value)


def _canonical_float(value: float) -> list[str]:
    if math.isfinite(value):
        # float.hex() is exact and round-trippable; repr would also
        # work on CPython >= 3.1 but hex makes the intent explicit.
        return [_TAG, "float", value.hex()]
    return [_TAG, "float", str(value)]  # 'nan', 'inf', '-inf'


def _canonical_map(value: Mapping[Any, Any]) -> list[Any]:
    items = []
    for k, v in value.items():
        if type(k) is str:
            items.append((_JSON_STR(k), k, canonicalize(v)))
        else:
            ck = canonicalize(k)
            items.append((_sort_key(ck), ck, canonicalize(v)))
    items.sort(key=itemgetter(0))  # stable: equal sort keys keep their order
    return [_TAG, "map", [[ck, cv] for _, ck, cv in items]]


def _canonicalize_other(value: Any) -> Any:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float):
        return _canonical_float(value)
    if isinstance(value, complex):
        return [_TAG, "complex",
                canonicalize(value.real), canonicalize(value.imag)]
    if isinstance(value, str):
        return value
    if isinstance(value, (bytes, bytearray)):
        return [_TAG, "bytes", bytes(value).hex()]
    if isinstance(value, enum.Enum):
        return [_TAG, "enum", _qualified_name(type(value)), value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [_TAG, "dataclass", _qualified_name(type(value)), fields]
    if isinstance(value, Mapping):
        return _canonical_map(value)
    if isinstance(value, Set):
        members = [canonicalize(v) for v in value]
        members.sort(key=_sort_key)
        return [_TAG, "set", members]
    if isinstance(value, Sequence):
        return [canonicalize(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):  # NumPy scalar duck-typing (no hard numpy dep)
        scalar = item()
        if type(scalar) is not type(value):
            return canonicalize(scalar)
    raise ConfigError(
        f"sweep point payload of type {type(value).__name__!r} has no "
        f"canonical serialization; use plain values, dataclasses, or "
        f"enums (got {value!r})"
    )


def canonical_json(value: Any) -> str:
    """One byte stream per canonical form: sorted keys, fixed separators."""
    return _CANONICAL(canonicalize(value))


def worker_name(fn: Callable[..., Any]) -> str:
    """Module-qualified name of a worker function (key component)."""
    return _qualified_name(fn)


#: ``fn`` -> (the ``__code__`` it was hashed with, its fingerprint).
_FINGERPRINTS: weakref.WeakKeyDictionary[Any, tuple[Any, str]] = (
    weakref.WeakKeyDictionary()
)


def code_fingerprint(fn: Callable[..., Any]) -> str:
    """A stable hash of the worker's *code*, for cache invalidation.

    Prefers the source text (editing the worker invalidates its cached
    results); falls back to the compiled bytecode + constants when the
    source is unavailable (frozen apps, REPL-defined workers), and to
    the qualified name alone as a last resort (C extensions).

    Computed once per function object per process: loaded code cannot
    change in-process, so the first answer stays the fingerprint of the
    code that runs (a later edit to the file on disk is picked up by the
    next process, not by a re-read here).  Rebinding ``fn.__code__``
    does change the running code, so it is hashed afresh.
    """
    code = getattr(fn, "__code__", None)
    try:
        cached = _FINGERPRINTS.get(fn)
    except TypeError:  # not weak-referenceable or not hashable
        cached = None
    if cached is not None and cached[0] is code:
        return cached[1]
    fingerprint = _hash_code(fn, code)
    try:
        _FINGERPRINTS[fn] = (code, fingerprint)
    except TypeError:
        pass
    return fingerprint


def _hash_code(fn: Callable[..., Any], code: Any) -> str:
    hasher = hashlib.sha256()
    hasher.update(worker_name(fn).encode())
    try:
        hasher.update(inspect.getsource(fn).encode())
        return hasher.hexdigest()
    except (OSError, TypeError):
        pass
    if code is not None:
        hasher.update(code.co_code)
        hasher.update(repr(code.co_consts).encode())
    return hasher.hexdigest()


def point_key(
    fn: Callable[..., Any],
    point: Any,
    *,
    fingerprint: str | None = None,
    extra: Any = None,
) -> str:
    """The content-addressed store key for ``fn`` evaluated at ``point``.

    ``fingerprint`` lets callers amortize :func:`code_fingerprint` over a
    grid (it is invariant per worker); ``extra`` is an optional salt for
    callers that need to segregate otherwise-identical evaluations (for
    example an environment revision).
    """
    # The bytes of ``json.dumps(envelope, sort_keys=True, ...)`` for the
    # envelope of the module docstring, its four keys in sorted order.
    if fingerprint is None:
        fingerprint = code_fingerprint(fn)
    payload = (
        '{"extra":' + _encode(canonicalize(extra))
        + ',"fingerprint":' + _encode(fingerprint)
        + ',"point":' + _encode(canonicalize(point))
        + ',"worker":' + _encode(worker_name(fn)) + "}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()
