"""Compiled vs reference mesh engine at the scales the per-push checks skip.

    PYTHONPATH=src python tests/oracle_at_scale.py

The reference engine is the oracle.  ``bench/regen.py`` compares the
compiled engine with it only on sweep-grid points of at most 64
processors, and the test suite stays at that size too.  This script
covers the rest, which takes minutes:

* every sweep-grid point with more than 64 processors (the 12
  256-processor points of ``GRID_AXES`` in ``bench/workloads.py``),
  1-40 s each on the reference engine;
* the paper's 1024 processors with N = 2 samples per row, for
  t_p = r in {1, 2, 4, 8}, 6-10 s each;
* the network-bound r = 1 law on every k x k mesh for k = 2-16 with
  N = 1-16 samples per row (240 points, about 100 s in all), and on
  every non-square w x h mesh with w, h in 2-8 and N in {1, 2, 4}
  (126 points, a few seconds).

Each point compares ``mesh_signature(...)[:-1]``: every ``MeshStats``
observable except the per-flit ``sunk`` log, which the compiled engine
leaves empty.  Prints one line per point and exits 1 if any diverged.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # direct-script convenience
    sys.path.insert(0, str(_ROOT / "src"))

from repro.mesh import (  # noqa: E402
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    mesh_signature,
)
from repro.mesh.workloads import make_transpose_gather  # noqa: E402


def points() -> list[tuple[int, int, int, int]]:
    """``(width, height, row_samples, reorder_cycles)`` of every point."""
    if str(_ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(_ROOT / "bench"))
    from workloads import GRID_AXES

    def side(processors: int) -> int:
        return MeshTopology.square(processors).width

    grid = [
        (side(p), side(p), n, r)
        for p in GRID_AXES["processors"] if p > 64
        for n in GRID_AXES["row_samples"]
        for r in GRID_AXES["reorder_cycles"]
    ]
    paper = [(32, 32, 2, r) for r in (1, 2, 4, 8)]
    squares = [(k, k, n, 1) for k in range(2, 17) for n in range(1, 17)]
    rectangles = [
        (w, h, n, 1)
        for w in range(2, 9) for h in range(2, 9) if w != h
        for n in (1, 2, 4)
    ]
    return grid + paper + squares + rectangles


def signature(
    engine: str, width: int, height: int, row_samples: int, reorder: int
) -> tuple:
    """The transpose gather's signature on ``engine``, without ``sunk``."""
    topology = MeshTopology(width=width, height=height)
    net = MeshNetwork(
        topology, MeshConfig(engine=engine, memory_reorder_cycles=reorder)
    )
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topology, row_samples).packets)
    return mesh_signature(net, net.run())[:-1]


def same_as_reference(
    width: int, height: int, row_samples: int, reorder: int
) -> bool:
    """True when the compiled engine matches the reference at this point."""
    shape = (width, height, row_samples, reorder)
    return signature("compiled", *shape) == signature("reference", *shape)


def main() -> int:
    diverged = 0
    for shape in points():
        t0 = time.perf_counter()
        same = same_as_reference(*shape)
        diverged += not same
        print(
            "mesh=%2dx%-2d row_samples=%-3d reorder=%d  %s  (%.1f s)"
            % (*shape, "ok" if same else "DIVERGED", time.perf_counter() - t0),
            flush=True,
        )
    print(f"{diverged} of {len(points())} points diverged")
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
