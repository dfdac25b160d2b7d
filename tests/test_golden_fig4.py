"""Golden-trace regression test for the Fig.-4 SCA waveform.

The committed ``tests/golden/fig4_trace.json`` is the normalized
(:func:`repro.obs.chrome.normalize_events`) event trace of the canonical
Fig.-4 gather — 2 nodes × 6 words on a 140 mm waveguide, the exact
construction ``python -m repro fig4`` renders
(:func:`repro.core.pscan.fig4_gather`).  Any change to the SCA
timing arithmetic (flight delays, response skew, epoch aliasing, bus
period) shows up as a diff against this file.

Regenerating after an *intentional* timing change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_fig4.py

then review the diff of ``tests/golden/fig4_trace.json`` and commit it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.pscan import fig4_gather
from repro.obs import ObsConfig, ObsSession, normalize_events, validate_chrome_trace

GOLDEN = Path(__file__).parent / "golden" / "fig4_trace.json"


def _current_normalized() -> list[dict]:
    session = ObsSession(ObsConfig())
    fig4_gather(session)
    return normalize_events(session.tracer.events, categories=("sca",))


def test_fig4_trace_matches_golden():
    current = _current_normalized()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden file regenerated at {GOLDEN}")
    golden = json.loads(GOLDEN.read_text())
    assert current == golden, (
        "Fig.-4 SCA trace diverged from the committed golden file. If the "
        "timing change is intentional, regenerate with REPRO_REGEN_GOLDEN=1 "
        "(see module docstring) and review the diff."
    )


def test_fig4_trace_has_expected_shape():
    """Structural sanity independent of the exact golden values."""
    current = _current_normalized()
    # 3 rounds x 2 nodes x 2 words = 12 modulations and 12 arrivals.
    names = [e["name"] for e in current]
    assert names.count("modulate") == 12
    assert names.count("arrival") == 12
    # One gather-burst complete span.
    assert sum(1 for e in current if e["ph"] == "X") == 1
    # Arrival cadence is gapless: consecutive arrivals one bus period apart.
    arrivals = [e["ts"] for e in current if e["name"] == "arrival"]
    gaps = {round(b - a, 6) for a, b in zip(arrivals, arrivals[1:])}
    assert len(gaps) == 1
    # Fig. 4's three claims, read off the execution itself.  One
    # monolithic burst at the full data rate:
    execution = fig4_gather()
    assert execution.is_gapless
    assert execution.bus_utilization == pytest.approx(1.0)
    # The spliced order is exactly the schedule's interleave.
    assert execution.stream == [
        "a0", "a1", "b0", "b1", "a2", "a3", "b2", "b3", "a4", "a5", "b4", "b5"
    ]
    # P0 modulates at the same absolute time as P1, without collision (t4).
    assert (0, 1) in execution.simultaneous_modulation_pairs()


def test_fig4_chrome_export_is_schema_valid():
    """The same session exports a schema-clean Chrome trace."""
    session = ObsSession(ObsConfig())
    fig4_gather(session)
    summary = validate_chrome_trace(session.chrome_trace())
    assert summary["events"] == len(session.tracer)
