"""Fig. 11, measured — both architectures' efficiency curves from the
flit-level / event-level simulators rather than the closed forms.

The analytic Fig. 11 (`python -m repro fig11`) uses Tables I/II.  This bench
runs the *same Model II workload* on both machine simulators at a
reachable scale (16 processors, 64 words each) and reproduces the
figure's qualitative story from raw simulation:

* P-sync efficiency rises monotonically with k toward the ideal;
* the mesh's rises, peaks at an intermediate k, then falls as routing
  overhead of small packets dominates;
* P-sync dominates the mesh at every k.
"""

from repro.core import run_model2_overlap
from repro.mesh import run_mesh_model2_overlap

from conftest import emit, once

P = 16
TOTAL_WORDS = 64
BUS_CYCLE_NS = 0.1
K_VALUES = (1, 2, 4, 8)


def test_fig11_measured(benchmark):
    def run():
        rows = []
        for k in K_VALUES:
            bw = TOTAL_WORDS // k
            # Balance both machines at their own delivery rates:
            # one word per bus cycle on either interconnect.
            psync = run_model2_overlap(P, k, bw, P * bw * BUS_CYCLE_NS)
            mesh = run_mesh_model2_overlap(P, k, bw, float(P * bw))
            rows.append((k, psync.efficiency, mesh.efficiency,
                         mesh.delivery_efficiency))
        return rows

    rows = once(benchmark, run)
    lines = [f"{'k':>3} {'P-sync eff':>11} {'mesh eff':>9} {'mesh eta_d':>10}"]
    for k, pe, me, ed in rows:
        lines.append(f"{k:>3} {pe:>11.3f} {me:>9.3f} {ed:>10.3f}")
    emit("Fig. 11 measured: Model II efficiency from the simulators", lines)

    psync_effs = [pe for _k, pe, _m, _e in rows]
    mesh_effs = [me for _k, _p, me, _e in rows]
    eta_ds = [ed for *_rest, ed in rows]

    # P-sync rises monotonically with k (global synchrony: no per-packet
    # overhead).
    assert psync_effs == sorted(psync_effs)
    # The mesh's delivery efficiency falls monotonically with k (smaller
    # packets, more header/routing overhead) ...
    assert eta_ds == sorted(eta_ds, reverse=True)
    # ... so its overall efficiency peaks strictly inside the sweep.
    peak = mesh_effs.index(max(mesh_effs))
    assert 0 < peak < len(K_VALUES) - 1
    # P-sync dominates everywhere.
    for (_k, pe, me, _e) in rows:
        assert pe > me
