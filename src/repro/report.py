"""One-shot reproduction report: paper claim vs measured, per artifact.

``python -m repro summary`` builds the entire paper-vs-measured table
live — every number regenerated on the spot, nothing hard-coded except
the paper's published values being compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .util import constants

__all__ = ["ReportLine", "ReproductionReport", "build_report"]


@dataclass(frozen=True, slots=True)
class ReportLine:
    """One artifact's verdict."""

    artifact: str
    paper: str
    measured: str
    holds: bool


@dataclass
class ReproductionReport:
    """The full reproduction scorecard."""

    lines: list[ReportLine] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """True when every artifact's claim is reproduced."""
        return all(line.holds for line in self.lines)

    def as_table(self) -> str:
        """Fixed-width scorecard."""
        w_a = max(len(l.artifact) for l in self.lines)
        w_p = max(len(l.paper) for l in self.lines)
        w_m = max(len(l.measured) for l in self.lines)
        rows = [
            f"{'artifact':<{w_a}}  {'paper':<{w_p}}  {'measured':<{w_m}}  ok"
        ]
        for l in self.lines:
            rows.append(
                f"{l.artifact:<{w_a}}  {l.paper:<{w_p}}  {l.measured:<{w_m}}  "
                f"{'yes' if l.holds else 'NO'}"
            )
        return "\n".join(rows)


def build_report(fast: bool = True) -> ReproductionReport:
    """Regenerate every artifact and compare against the paper.

    ``fast=True`` (default) skips the measured Table III point (the
    compiled mesh engine, exact against the flit-level reference); the
    closed forms and sweeps run either way.
    """
    from .analysis import (
        figure11_curves,
        pscan_transpose_cycles,
        table1,
        table2,
        table3,
    )
    from .energy import figure5_sweep
    from .llmore import figure13_sweep

    report = ReproductionReport()

    t1 = table1()
    t1_exact = (
        abs(100 * t1[0].efficiency - 50.00) < 0.005
        and abs(100 * t1[-1].efficiency - 99.38) < 0.005
    )
    report.lines.append(ReportLine(
        "Table I (zero-latency efficiency)",
        "50.00% .. 99.38%",
        f"{100 * t1[0].efficiency:.2f}% .. {100 * t1[-1].efficiency:.2f}%",
        t1_exact,
    ))

    t2 = table2()
    peak = max(t2, key=lambda r: r.compute_efficiency)
    report.lines.append(ReportLine(
        "Table II (mesh efficiency peak)",
        "81.74% at k=8",
        f"{100 * peak.compute_efficiency:.2f}% at k={peak.k}",
        peak.k == 8 and abs(100 * peak.compute_efficiency - 81.74) < 0.02,
    ))

    pscan = pscan_transpose_cycles()
    report.lines.append(ReportLine(
        "Table III (PSCAN writeback)",
        f"{constants.PAPER_PSCAN_TRANSPOSE_CYCLES:,} cycles",
        f"{pscan:,} cycles",
        pscan == constants.PAPER_PSCAN_TRANSPOSE_CYCLES,
    ))

    t3 = {r.t_p: r for r in table3()}
    report.lines.append(ReportLine(
        "Table III (mesh multipliers)",
        "3.26x / 6.06x",
        f"{t3[1].multiplier:.2f}x / {t3[4].multiplier:.2f}x",
        abs(t3[1].multiplier - 3.26) < 0.1 and abs(t3[4].multiplier - 6.06) < 0.3,
    ))

    if not fast:
        from .analysis import measure_mesh_transpose

        m1 = measure_mesh_transpose(64, 64, reorder_cycles=1, engine="compiled")
        m4 = measure_mesh_transpose(64, 64, reorder_cycles=4, engine="compiled")
        report.lines.append(ReportLine(
            "Table III (flit-measured @64p)",
            "same band, t_p ordering",
            f"{m1.multiplier:.2f}x / {m4.multiplier:.2f}x",
            m1.multiplier < m4.multiplier
            and 1.5 < m1.multiplier < 4.5
            and 4.0 < m4.multiplier < 7.5,
        ))

    f5 = figure5_sweep()
    report.lines.append(ReportLine(
        "Fig. 5 (energy advantage)",
        ">= 5.2x",
        f"{f5.min_improvement:.2f}x .. {f5.max_improvement:.2f}x",
        f5.min_improvement >= 5.2,
    ))

    f11 = figure11_curves()
    report.lines.append(ReportLine(
        "Fig. 11 (curve shapes)",
        "mesh peaks k=8; P-sync -> ideal",
        f"mesh peak k={f11.mesh_peak_k}; P-sync "
        f"{100 * f11.psync[-1]:.1f}% at k=64",
        f11.mesh_peak_k == 8 and f11.psync_monotonic,
    ))

    f13 = figure13_sweep()
    adv = f13.psync_advantage(4096)
    report.lines.append(ReportLine(
        "Fig. 13 (scaling)",
        "mesh peaks ~256; P-sync -> ideal, 2-10x",
        f"mesh peak {f13.mesh_peak_cores}; advantage {adv:.1f}x @4096",
        f13.mesh_peak_cores == 256
        and f13.psync_converges_to_ideal
        and 2.0 <= adv <= 10.0,
    ))

    mesh_fr = f13.mesh_reorg_fractions
    psync_fr = f13.psync_reorg_fractions
    report.lines.append(ReportLine(
        "Fig. 14 (reorg share)",
        "mesh grows; P-sync levels off",
        f"mesh -> {100 * mesh_fr[-1]:.0f}%; P-sync -> {100 * psync_fr[-1]:.0f}%",
        mesh_fr == sorted(mesh_fr)
        and abs(psync_fr[-1] - psync_fr[-2]) < 0.05 * psync_fr[-1],
    ))

    return report
