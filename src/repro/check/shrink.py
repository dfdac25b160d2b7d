"""Config shrinker + regression-seed corpus I/O.

When the fuzzer finds a divergence, the raw case is rarely the story —
a 25-processor faulty mesh run diverging usually still diverges at 4
processors with the fault removed.  :func:`shrink_case` greedily
minimizes a failing :class:`~repro.check.fuzz.FuzzCase` while preserving
*some* divergence (not necessarily the same oracle: a shrink that trades
one symptom of the bug for a smaller one is a better regression seed).

Minimized cases are committed as JSON seeds under ``tests/corpus/`` via
:func:`write_seed` and replayed by ``tests/test_check_corpus.py``: every
divergence ever found (and fixed) stays fixed.

Seed format::

    {
      "kind": "crc",
      "seed": 42,
      "params": {"values": 1, "depth": 1, ...},
      "note": "why this seed exists / what bug it pinned"
    }
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable

from .fuzz import KINDS, Divergence, FuzzCase, run_case

__all__ = ["shrink_case", "write_seed", "load_seed", "iter_corpus"]


def _candidate_values(value: Any, floor: int | tuple[int, ...]) -> list[Any]:
    """Smaller candidate values for one parameter, best first.

    ``floor`` comes from the kind's row in :data:`~repro.check.fuzz.KINDS`:
    a tuple lists the allowed values, an int is the bottom of a halving
    ladder.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        return []
    if isinstance(floor, tuple):
        return [c for c in floor if c < value]
    if value <= floor:
        return []
    out = [floor]
    # Halving ladder between floor and the current value.
    v = value
    while v > floor:
        v = floor + (v - floor) // 2
        if v not in out and v < value:
            out.append(v)
    return sorted(set(out))


def shrink_case(
    case: FuzzCase,
    predicate: Callable[[FuzzCase], bool] | None = None,
    max_rounds: int = 8,
) -> FuzzCase:
    """Greedily minimize ``case`` while ``predicate`` stays true.

    The default predicate is "``run_case`` still reports a divergence".
    Each round tries every shrinkable parameter's candidate ladder
    (smallest first) and keeps the first reduction that still fails;
    rounds repeat until a fixpoint or ``max_rounds``.  Only the
    parameters the kind's row gives floors for move, and a candidate
    its constructibility predicate rejects is never run.
    """
    if predicate is None:
        predicate = lambda c: bool(run_case(c))  # noqa: E731
    if not predicate(case):
        return case

    row = KINDS[case.kind]
    current = FuzzCase(
        kind=case.kind, seed=case.seed, params=dict(case.params),
        note=case.note,
    )
    for _ in range(max_rounds):
        improved = False
        for name in sorted(current.params):
            if name not in row.floors:
                continue
            value = current.params[name]
            for candidate in _candidate_values(value, row.floors[name]):
                trial = FuzzCase(
                    kind=current.kind,
                    seed=current.seed,
                    params={**current.params, name: candidate},
                    note=current.note,
                )
                if row.constructible and not row.constructible(trial.params):
                    continue
                if predicate(trial):
                    current = trial
                    improved = True
                    break
        if not improved:
            break
    return current


# ---------------------------------------------------------------------------
# corpus I/O
# ---------------------------------------------------------------------------


def _slug(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug or "case"


def write_seed(
    case: FuzzCase,
    directory: str | Path,
    note: str | None = None,
    divergences: Iterable[Divergence] = (),
) -> Path:
    """Persist ``case`` as a JSON regression seed; returns the path.

    The filename is ``<kind>-<seed>[-<note slug>].json``; an existing
    file with the same name is overwritten (same case, same seed — the
    content is deterministic).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = case.to_json()
    if note:
        payload["note"] = note
    oracles = sorted({d.oracle for d in divergences})
    if oracles:
        payload["oracles"] = oracles
    stem = f"{case.kind}-{case.seed}"
    if note:
        stem += f"-{_slug(note)[:40]}"
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_seed(path: str | Path) -> FuzzCase:
    """Load one JSON corpus seed back into a runnable case."""
    data = json.loads(Path(path).read_text())
    return FuzzCase.from_json(data)


def iter_corpus(directory: str | Path) -> list[tuple[Path, FuzzCase]]:
    """All seeds under ``directory``, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [
        (path, load_seed(path)) for path in sorted(directory.glob("*.json"))
    ]
