"""Shared helpers for the benchmark harness.

Every bench runs one ablation, measured counterpart or subsystem load,
prints its rows, and asserts the finding EXPERIMENTS.md or the docs cite
for it.  The paper's tables and figures themselves come from
``python -m repro <artifact>``.  Timing is recorded by pytest-benchmark;
the heavy event-driven simulations run a single round.
"""

from __future__ import annotations


def emit(title: str, lines: list[str]) -> None:
    """Print a labelled block that survives pytest's capture with -s."""
    bar = "=" * max(len(title), 40)
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def ablation_sweep(fn, points):
    """Run an ablation grid through the checkpointed sweep runtime.

    Serial by design (pytest-benchmark owns the timing; a pool would
    hide the work it measures) but routed through
    :func:`repro.perf.sweep.run_sweep` so the ablation drivers share
    the sweep runtime's failure semantics — a worker error names its
    grid point instead of aborting the whole bench opaquely — and its
    content-addressed checkpoint: set ``REPRO_SWEEP_CHECKPOINT=dir``
    and re-running a figure/ablation bench against a warm store is a
    cache read (see docs/sweeps.md).  Results come back in grid order.
    """
    import os

    from repro.perf.sweep import run_sweep

    return run_sweep(
        fn,
        list(points),
        parallel=False,
        checkpoint=os.environ.get("REPRO_SWEEP_CHECKPOINT"),
    )
