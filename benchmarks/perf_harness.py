#!/usr/bin/env python
"""Perf harness: regenerate ``BENCH_mesh.json`` / ``BENCH_engine.json``.

Thin wrapper around :mod:`repro.perf.cli` (also reachable as
``python -m repro perf``), which defaults the bench/baseline directory
to the repository root, so CI and developers write and compare the same
committed files.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py --quick
    PYTHONPATH=src python benchmarks/perf_harness.py --quick --check
    PYTHONPATH=src python benchmarks/perf_harness.py            # full mode

Quick mode shrinks the workloads to CI scale (~seconds); full mode is
the committed-baseline scale.  Regenerate baselines by running without
``--check`` and committing the updated files.
"""

from __future__ import annotations

import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:  # direct-script convenience
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
