"""Fig. 13, measured — both architectures' end-to-end 2D FFT, executed.

The analytic Fig. 13 (`python -m repro fig13`) comes from the phase model.
Here the whole five-phase flow *runs* at micro scale on both machine
simulators, with the paper's Section VI fairness rule applied: **equal
link bandwidth**.  The P-sync machine uses the word-granular clock
(64-bit word per 0.2 ns = 320 Gb/s); the mesh gets a 5 GHz clock so its
64-bit flit links also carry 320 Gb/s.

Both produce numerically exact FFTs of the same matrix; the comparison
is purely about where the time goes.
"""

import numpy as np
import pytest

from repro.core.flowtiming import run_fft2d_flow
from repro.fft import fft2d_reference
from repro.mesh.flowtiming import run_mesh_fft2d_flow

from conftest import emit, once

SIZE = 16  # 16 x 16 matrix on 16 processors


def test_fig13_measured(benchmark):
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(SIZE, SIZE)) + 1j * rng.normal(size=(SIZE, SIZE))

    def run():
        psync = run_fft2d_flow(SIZE, SIZE, matrix, word_granular_clock=True)
        mesh = run_mesh_fft2d_flow(
            SIZE, SIZE, matrix, reorder_cycles=1, clock_ghz=5.0
        )
        return psync, mesh

    psync, mesh = once(benchmark, run)

    lines = [f"{'phase':>10} {'P-sync (ns)':>12} {'mesh (ns)':>10}"]
    for phase in psync.phases_ns:
        lines.append(
            f"{phase:>10} {psync.phases_ns[phase]:>12.1f} "
            f"{mesh.phases_ns[phase]:>10.1f}"
        )
    lines.append(
        f"{'total':>10} {psync.total_ns:>12.1f} {mesh.total_ns:>10.1f}   "
        f"(P-sync {mesh.total_ns / psync.total_ns:.2f}x faster)"
    )
    lines.append(
        f"efficiency: P-sync {psync.efficiency:.1%}, mesh {mesh.efficiency:.1%}"
        f" | reorg share: P-sync {psync.reorg_fraction:.1%}, "
        f"mesh {mesh.reorg_fraction:.1%}"
    )
    emit("Fig. 13 measured: end-to-end 2D FFT, bandwidth-equalized", lines)

    reference = fft2d_reference(matrix)
    assert np.allclose(psync.result, reference)
    assert np.allclose(mesh.result, reference)
    # Identical compute models; the communication gap is the story.
    assert psync.compute_ns == pytest.approx(mesh.compute_ns)
    assert psync.total_ns < mesh.total_ns
    assert psync.reorg_fraction < mesh.reorg_fraction
    # The transpose itself: mesh pays > 2x even at this friendly scale.
    assert (
        mesh.phases_ns["transpose"] / psync.phases_ns["transpose"] > 2.0
    )
