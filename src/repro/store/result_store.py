"""Content-addressed on-disk result store with atomic per-point writes.

Layout (everything under one ``root`` directory)::

    root/
      objects/ab/abcdef....pkl     one pickled result per store key
      runs/<run_id>.json           sweep manifests (see manifest.py)
      runs/<run_id>.journal        append-only per-point completion log

Writes are **atomic**: each object is pickled to a temporary file in the
same directory and ``os.replace``-d into place, so a killed process can
never leave a truncated object behind — a key either resolves to a
complete result or does not exist.  Loads verify nothing beyond pickle
integrity; invalidation is handled entirely by the key derivation
(:mod:`repro.store.keys`): change the worker's code or the point payload
and you get a *different* key, never a stale hit.

Garbage collection (:meth:`ResultStore.gc`) removes objects older than a
cutoff and/or objects no manifest references, so long-lived checkpoint
directories (the nightly CI cache) don't accumulate unboundedly.
"""

from __future__ import annotations

import os
import pickle
import re
import stat
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..util.errors import ConfigError

__all__ = ["ResultStore", "GcReport"]

#: Pinned protocol so every interpreter in a pool writes the same format.
PICKLE_PROTOCOL = 4

_OBJECT_SUFFIX = ".pkl"


@dataclass(frozen=True, slots=True)
class GcReport:
    """What one :meth:`ResultStore.gc` pass did (or would do)."""

    scanned: int
    removed: int
    kept: int
    reclaimed_bytes: int
    dry_run: bool

    def as_line(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"gc: scanned {self.scanned} object(s), {verb} {self.removed} "
            f"({self.reclaimed_bytes} bytes), kept {self.kept}"
        )


#: A store key: at least 8 lowercase hex digits and nothing else.
_KEY_RE = re.compile(r"[0-9a-f]{8,}")


def _check_key(key: str) -> str:
    if not isinstance(key, str) or _KEY_RE.fullmatch(key) is None:
        raise ConfigError(f"malformed store key: {key!r}")
    return key


class ResultStore:
    """Content-addressed result cache rooted at ``root`` (created lazily)."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.runs_dir = self.root / "runs"
        #: ``objects_dir`` as a string ending in a separator: the hit
        #: path (:meth:`has`, :meth:`load`) joins keys onto it without
        #: building a :class:`~pathlib.Path` per key.
        self._objects_prefix = os.path.join(self.objects_dir, "")

    # -- paths ---------------------------------------------------------------

    def _object_file(self, key: str) -> str:
        _check_key(key)
        return f"{self._objects_prefix}{key[:2]}{os.sep}{key}{_OBJECT_SUFFIX}"

    def _object_path(self, key: str) -> Path:
        """:meth:`_object_file` as a :class:`~pathlib.Path`, for callers
        that use its methods (:meth:`store` returns it)."""
        return Path(self._object_file(key))

    def ensure_dirs(self) -> None:
        """Create the store skeleton (idempotent)."""
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    # -- object CRUD ---------------------------------------------------------

    def has(self, key: str) -> bool:
        """True when ``key`` resolves to a complete, committed result.

        Only a missing object (or shard) reads as absent; any other
        ``OSError``, such as an unreadable shard, propagates.
        """
        try:
            mode = os.stat(self._object_file(key)).st_mode
        except (FileNotFoundError, NotADirectoryError):
            return False
        return stat.S_ISREG(mode)

    def store(self, key: str, value: Any) -> Path:
        """Atomically persist ``value`` under ``key``; returns the path.

        Safe against concurrent writers of the *same* key: both pickle
        the same bytes (same key ⇒ same worker+point ⇒ same seeded
        result) and ``os.replace`` is atomic, so the last writer wins
        harmlessly.
        """
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:12]}.", suffix=".tmp"
        )
        # try/finally rather than ``except BaseException: ... raise``:
        # nothing is caught, so a KeyboardInterrupt/SystemExit landing
        # mid-pickle cannot be absorbed by the cleanup path — it unlinks
        # the temp file and keeps propagating (tests/test_store.py pins
        # this).  Only a *committed* write skips the unlink.
        committed = False
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=PICKLE_PROTOCOL)
            os.replace(tmp_name, path)
            committed = True
        finally:
            if not committed:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        return path

    def load(self, key: str) -> Any:
        """Unpickle the result stored under ``key`` (KeyError when absent)."""
        try:
            with open(self._object_file(key), "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            raise KeyError(key) from None

    def delete(self, key: str) -> bool:
        """Remove ``key``'s object; True when something was deleted."""
        try:
            os.unlink(self._object_file(key))
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> Iterator[str]:
        """Every committed object key (unspecified order)."""
        if not self.objects_dir.is_dir():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for obj in sorted(shard.iterdir()):
                if obj.suffix == _OBJECT_SUFFIX and not obj.name.startswith("."):
                    yield obj.stem

    def object_count(self) -> int:
        """Number of committed objects."""
        return sum(1 for _ in self.keys())

    def total_bytes(self) -> int:
        """Bytes used by committed objects."""
        total = 0
        for key in self.keys():
            try:
                total += os.stat(self._object_file(key)).st_size
            except OSError:
                pass
        return total

    # -- garbage collection --------------------------------------------------

    def referenced_keys(self) -> set[str]:
        """Keys referenced by any manifest under ``runs/``."""
        from .manifest import SweepManifest

        refs: set[str] = set()
        for manifest in SweepManifest.iter_dir(self.runs_dir):
            refs.update(manifest.keys)
        return refs

    def gc(
        self,
        *,
        max_age_days: float | None = None,
        unreferenced_only: bool = True,
        dry_run: bool = False,
    ) -> GcReport:
        """Remove stale objects (and stray temp files); see :class:`GcReport`.

        ``unreferenced_only`` keeps every object some manifest still
        references regardless of age — resumable campaigns stay warm.
        ``max_age_days=None`` with ``unreferenced_only=True`` removes
        only orphans; with ``unreferenced_only=False`` it is a full wipe
        (use deliberately).
        """
        if max_age_days is not None and max_age_days < 0:
            raise ConfigError(f"max_age_days must be >= 0, got {max_age_days}")
        cutoff = (
            time.time() - max_age_days * 86400.0
            if max_age_days is not None
            else None
        )
        protected = self.referenced_keys() if unreferenced_only else set()
        scanned = removed = kept = reclaimed = 0
        for key in list(self.keys()):
            scanned += 1
            path = self._object_file(key)
            if key in protected:
                kept += 1
                continue
            if cutoff is not None:
                try:
                    if os.stat(path).st_mtime > cutoff:
                        kept += 1
                        continue
                except OSError:
                    pass
            try:
                size = os.stat(path).st_size
            except OSError:
                size = 0
            if not dry_run:
                self.delete(key)
            removed += 1
            reclaimed += size
        # Stray interrupted temp files are always garbage.
        if self.objects_dir.is_dir():
            for shard in self.objects_dir.iterdir():
                if not shard.is_dir():
                    continue
                for stray in shard.glob(".*.tmp"):
                    try:
                        size = stray.stat().st_size
                        if not dry_run:
                            stray.unlink()
                        reclaimed += size
                    except OSError:
                        pass
        return GcReport(
            scanned=scanned,
            removed=removed,
            kept=kept,
            reclaimed_bytes=reclaimed,
            dry_run=dry_run,
        )
