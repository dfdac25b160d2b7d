#!/usr/bin/env python
"""Visualize why the mesh loses the transpose: the hot-sink funnel.

Runs the transpose gather on an 8x8 wormhole mesh with a single corner
memory interface, then with all four corners, and renders per-router
traffic heat maps.  The single-interface case shows the congestion
funnel toward (0,0) that Table III quantifies; four interfaces spread
the load (path diversity, Section III-C) but every flit still pays the
hop-by-hop journey the PSCAN avoids entirely.

Run:  python examples/mesh_congestion.py
"""

from repro.energy import measure_mesh_energy
from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    make_transpose_gather,
    make_transpose_gather_multi_mc,
)
from repro.viz import render_mesh_heatmap

SIDE = 8
COLS = 16


def run(multi_mc: bool):
    topo = MeshTopology.square(SIDE * SIDE)
    net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=1))
    if multi_mc:
        for corner in topo.corners():
            net.add_memory_interface(corner)
        workload = make_transpose_gather_multi_mc(topo, cols=COLS)
    else:
        net.add_memory_interface((0, 0))
        workload = make_transpose_gather(topo, cols=COLS)
    net.inject_all(workload.packets)
    stats = net.run()
    return topo, net, stats


def main() -> None:
    print(f"Transpose gather on an {SIDE}x{SIDE} mesh "
          f"({SIDE * SIDE} processors x {COLS} elements)\n")

    for multi in (False, True):
        label = "four corner interfaces" if multi else "single interface at (0,0)"
        topo, net, stats = run(multi)
        energy = measure_mesh_energy(net)
        print(f"--- {label} ---")
        print(render_mesh_heatmap(
            stats.flits_through_node, topo.width, topo.height
        ))
        print(f"completion: {stats.cycles} cycles | mean packet latency "
              f"{stats.mean_packet_latency:.0f} | {energy.pj_per_bit:.1f} pJ/bit "
              f"({energy.mean_hops:.1f} mean flit-hops)\n")

    print("The PSCAN reference for the same matrix: "
          f"{SIDE * SIDE * COLS} bus cycles (one per element), zero hops, "
          "reorganized in flight.")


if __name__ == "__main__":
    main()
