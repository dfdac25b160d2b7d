"""Shared helpers for the benchmark harness.

Every bench runs one ablation, measured counterpart or subsystem load,
prints its rows, and asserts the finding EXPERIMENTS.md or the docs cite
for it.  The paper's tables and figures themselves come from
``python -m repro <artifact>``.  Timing is recorded by pytest-benchmark;
the heavy event-driven simulations run a single round.  The perf gates
time themselves as alternating pairs (:func:`alternating_pairs`).
"""

from __future__ import annotations

import statistics


def emit(title: str, lines: list[str]) -> None:
    """Print a labelled block that survives pytest's capture with -s."""
    bar = "=" * max(len(title), 40)
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)


def median_iqr(values) -> str:
    """``median m (IQR q1–q3)`` of ``values``, for gate printouts."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.4g} (IQR {q1:.4g}–{q3:.4g})"


def alternating_pairs(title, side_a, side_b, pairs):
    """Time ``side_a`` against ``side_b`` in alternating same-process pairs.

    Each side is a zero-argument callable returning ``(wall_s, output)``.
    Even pairs run side A first and odd pairs side B first, so drift on
    a shared host (clock, caches, neighbours) lands on both sides alike.
    Every pair asserts equal outputs before its timing counts.  Prints
    the median and IQR of each side's wall time and of the per-pair
    ratios, and returns the ratios (A's wall over B's).
    """
    walls_a, walls_b, ratios = [], [], []
    for i in range(pairs):
        if i % 2 == 0:
            wall_a, out_a = side_a()
            wall_b, out_b = side_b()
        else:
            wall_b, out_b = side_b()
            wall_a, out_a = side_a()
        assert out_a == out_b, f"{title}: pair {i} outputs differ"
        walls_a.append(wall_a)
        walls_b.append(wall_b)
        ratios.append(wall_a / wall_b)
    emit(title, [
        f"pairs       {pairs}",
        f"A wall_s    {median_iqr(walls_a)}",
        f"B wall_s    {median_iqr(walls_b)}",
        f"A/B ratio   {median_iqr(ratios)}",
    ])
    return ratios


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
