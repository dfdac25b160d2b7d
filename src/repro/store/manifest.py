"""Sweep-run manifests and per-point completion journals.

A **manifest** describes one sweep run's identity: which worker, which
code fingerprint, and the grid-ordered list of content-addressed keys.
Its ``run_id`` is itself content-derived (hash of worker + fingerprint +
keys), so *resuming* a sweep naturally maps onto the same manifest —
there is no session state to reconcile, just a set membership question
per key against the object store.

A **journal** is an append-only JSON-lines file next to the manifest.
One line is appended (with an ``os.replace``-free ``O_APPEND`` write —
a line either lands whole or the point simply looks incomplete) every
time a point's result is committed to the store, recording the index,
key, wall time, and whether the result came from cache.  The cache hits
of one run share a single write, one line per hit.  Journals are
purely observational: resume correctness derives from the object store,
the journal exists so ``python -m repro sweep status`` can narrate a
half-finished campaign (and so post-mortems can see the completion
order a crashed run achieved).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..util.errors import ConfigError

__all__ = ["SweepManifest", "JournalEntry", "append_journal", "read_journal"]

SCHEMA_VERSION = 1


def _run_id(worker: str, fingerprint: str, keys: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    hasher.update(worker.encode())
    hasher.update(fingerprint.encode())
    for key in keys:
        hasher.update(key.encode())
    return hasher.hexdigest()[:16]


@dataclass(slots=True)
class SweepManifest:
    """Identity + grid-ordered keys of one sweep run (JSON on disk)."""

    worker: str
    fingerprint: str
    keys: list[str]
    label: str = ""
    created_at: float = field(default_factory=time.time)
    schema_version: int = SCHEMA_VERSION

    @property
    def run_id(self) -> str:
        """Content-derived id: same grid ⇒ same manifest file."""
        return _run_id(self.worker, self.fingerprint, self.keys)

    @property
    def n_points(self) -> int:
        return len(self.keys)

    # -- persistence ---------------------------------------------------------

    def path(self, runs_dir: Path) -> Path:
        return runs_dir / f"{self.run_id}.json"

    def journal_path(self, runs_dir: Path) -> Path:
        return runs_dir / f"{self.run_id}.journal"

    def save(self, runs_dir: Path) -> Path:
        """Atomically write the manifest unless it is already there; returns its path.

        The run id is content-derived, so a readable file under it
        already lists these keys: only a missing or unreadable file, or
        one with another ``label``, is (re)written.  A stored
        ``created_at`` is kept, so it stays the time of the first run.
        """
        path = self.path(runs_dir)
        try:
            stored = self.load(path)
        except ConfigError:
            stored = None
        if stored is not None:
            self.created_at = stored.created_at
            if stored.label == self.label:
                return path
        runs_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema_version": self.schema_version,
            "worker": self.worker,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "created_at": self.created_at,
            "keys": self.keys,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Path) -> "SweepManifest":
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable sweep manifest {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"sweep manifest {path} is not a JSON object")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"sweep manifest {path} has schema_version {version!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        try:
            return cls(
                worker=payload["worker"],
                fingerprint=payload["fingerprint"],
                keys=list(payload["keys"]),
                label=payload.get("label", ""),
                created_at=float(payload.get("created_at", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed sweep manifest {path}: {exc!r}") from exc

    @classmethod
    def iter_dir(cls, runs_dir: Path) -> Iterator["SweepManifest"]:
        """Every parseable manifest under ``runs_dir`` (sorted by file name)."""
        if not runs_dir.is_dir():
            return
        for path in sorted(runs_dir.glob("*.json")):
            try:
                yield cls.load(path)
            except ConfigError:
                continue  # a foreign/corrupt file must not wedge status/gc

    # -- status --------------------------------------------------------------

    def completed(self, store: Any) -> list[bool]:
        """Per-point completion flags against a :class:`ResultStore`."""
        return [store.has(key) for key in self.keys]

    def status_line(self, store: Any) -> str:
        done = sum(self.completed(store))
        state = (
            "complete" if done == self.n_points
            else f"{done}/{self.n_points} points"
        )
        label = f" [{self.label}]" if self.label else ""
        return f"{self.run_id}{label} {self.worker}: {state}"


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One committed point, as appended to the run's journal."""

    index: int
    key: str
    cached: bool
    wall_s: float
    ts: float

    def to_json(self) -> str:
        """The entry's journal line: ``json.dumps`` of its fields with
        sorted keys and compact separators, ``wall_s`` rounded to 6
        digits, formatted directly (``float.__repr__`` is how json
        writes a finite float)."""
        return (
            f'{{"cached":{"true" if self.cached else "false"},'
            f'"index":{self.index},"key":{_json_str(self.key)},'
            f'"ts":{self.ts!r},"wall_s":{round(self.wall_s, 6)!r}}}'
        )


#: ``json.dumps(s)`` for a ``str`` ``s``.
_json_str = json.encoder.encode_basestring_ascii


def append_journal(path: Path, *entries: JournalEntry) -> None:
    """Append one completion line per entry in a single ``O_APPEND`` write.

    A batch (every cache hit of one run) costs one open and one write;
    a crash mid-write can at worst tear the last line, which
    :func:`read_journal` skips.
    """
    if not entries:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    data = memoryview("".join(entry.to_json() + "\n" for entry in entries).encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        while data:  # os.write may write less than it was given
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def read_journal(path: Path) -> list[JournalEntry]:
    """Parse a journal, skipping any torn trailing line."""
    entries: list[JournalEntry] = []
    try:
        text = path.read_text()
    except OSError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            entries.append(
                JournalEntry(
                    index=int(payload["index"]),
                    key=str(payload["key"]),
                    cached=bool(payload["cached"]),
                    wall_s=float(payload["wall_s"]),
                    ts=float(payload["ts"]),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue  # torn line from a crash; the store is the truth
    return entries
