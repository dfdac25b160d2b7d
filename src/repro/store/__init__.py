"""Content-addressed result store for resumable parameter sweeps.

Three pieces (see ``docs/sweeps.md``):

* :mod:`repro.store.keys` — canonical JSON serialization of grid-point
  payloads and the content-addressed key derivation
  ``sha256(worker, code fingerprint, canonical point)``;
* :mod:`repro.store.result_store` — the on-disk object store with
  atomic per-point writes and age/reference-based garbage collection;
* :mod:`repro.store.manifest` — per-sweep manifests (grid-ordered key
  lists under a content-derived run id) and append-only completion
  journals, which is what ``python -m repro sweep status`` reads;
* :mod:`repro.store.leases` — the serve-layer journal (submit/lease/
  commit lines with crash replay), and the fingerprint-agnostic stale
  index that degraded warm-cache-only mode serves from (see
  ``docs/service.md``).

The consumers are :func:`repro.perf.sweep.run_sweep`'s
``checkpoint=``/``resume=`` mode and the :mod:`repro.serve` job server;
campaigns and figure sweeps never talk to this package directly.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "keys": ("canonical_json", "canonicalize", "code_fingerprint", "point_key", "point_keys",
             "worker_name"),
    "leases": ("ServeJournal", "ServeJournalEntry", "ServeReplay", "StaleIndex", "point_identity"),
    "manifest": ("JournalEntry", "SweepManifest", "append_journal", "read_journal"),
    "result_store": ("GcReport", "ResultStore"),
})
