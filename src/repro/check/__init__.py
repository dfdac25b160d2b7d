"""Correctness subsystem: static invariant lint + differential fuzzing.

Three parts (see ``docs/correctness.md``):

* :mod:`repro.check.analyzer` — a **static invariant analyzer** that
  lints CP programs, global schedules and mesh configurations *before*
  simulation: slot-collision detection on the waveguide timeline (the
  Fig. 4 invariant), word conservation per gather, credit-balance and
  buffer-bound checks.  Violations become structured
  :class:`~repro.check.analyzer.Diagnostic` records with source spans
  rather than a first-failure exception.
* :mod:`repro.check.fuzz` — a **seeded differential fuzzer** driven by
  one table, ``KINDS``: each kind's row holds its generator, its
  engine pairs (event ↔ compiled SCA, reference ↔ compiled mesh, …),
  its property checks (reference mesh invariants, analytic Table III
  band, CRC codec laws, …) and its shrink rules.  Any divergence fails the run.
* :mod:`repro.check.shrink` — a **config shrinker** that minimizes a
  failing fuzz case within its row's floors and constructibility
  predicate, and emits a committed regression seed under
  ``tests/corpus/``, auto-replayed by ``tests/test_check_corpus.py``.

CLI: ``python -m repro check lint`` / ``python -m repro check fuzz``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analyzer": (
        "Diagnostic", "LintReport", "ScheduleSpec", "SourceSpan", "analyze_mesh_config",
        "analyze_schedule", "analyze_workload", "lint_all", "lint_target", "lint_targets",
    ),
    "fuzz": ("FuzzCase", "Divergence", "FuzzResult", "generate_case", "run_case", "run_fuzz"),
    "shrink": ("shrink_case", "write_seed", "load_seed"),
})
