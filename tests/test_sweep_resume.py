"""Differential tests for the resumable, checkpointed sweep runtime.

The acceptance bar of PR 5:

* serial, parallel, crashed-then-resumed, and warm-cache sweeps return
  identical results **in grid order**;
* a worker raising ``OSError`` surfaces loudly (no silent serial
  re-run, no double execution — asserted via a per-point execution
  counter written to a side-effect directory by the workers);
* an interrupted seeded fault campaign resumed with ``resume=True``
  produces a report byte-identical to an uninterrupted serial run,
  re-executing only the missing grid points;
* ``BrokenProcessPool`` (a worker *process* dying, not raising) is
  recovered by resubmitting the missing points to a fresh pool.

Workers are module-level (picklable) and count their executions by
creating uniquely-named marker files, which is safe across processes.
"""

import os
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

import repro
import repro.faults.batched as batched_mod
import repro.store as store_pkg
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.obs import ObsSession
from repro.perf.sweep import run_sweep
from repro.store import ResultStore, SweepManifest, read_journal
from repro.util.errors import (
    ConfigError,
    SweepInterrupted,
    SweepPointError,
    SweepPoolError,
)

# ---------------------------------------------------------------------------
# module-level workers
# ---------------------------------------------------------------------------


def _mark(log_dir: str, x) -> None:
    """Record one execution of point ``x`` (unique file per call)."""
    Path(log_dir, f"exec-{x}-{uuid.uuid4().hex}").touch()


def _executions(log_dir) -> dict[str, int]:
    """Execution count per point label."""
    counts: dict[str, int] = {}
    for name in os.listdir(log_dir):
        if name.startswith("exec-"):
            label = name.split("-")[1]
            counts[label] = counts.get(label, 0) + 1
    return counts


def _counted_square(x, log_dir):
    _mark(log_dir, x)
    return x * x


def _oserror_on_three(x, log_dir):
    _mark(log_dir, x)
    if x == 3:
        raise OSError("simulated worker I/O failure")
    return x * x


def _fail_while_sentinel(x, log_dir, sentinel):
    """Raises for x >= 5 while the sentinel file exists (crash window)."""
    if x >= 5 and os.path.exists(sentinel):
        raise RuntimeError("simulated mid-campaign crash")
    _mark(log_dir, x)
    return x * 3


def _exit_once(x, sentinel):
    """Kills its worker process the first time the sentinel exists."""
    # Claim the sentinel atomically: two workers may race for it, and
    # only the one whose unlink succeeds dies.
    try:
        os.unlink(sentinel)
    except FileNotFoundError:
        return x * x
    os._exit(17)  # hard death: BrokenProcessPool, not an exception


def _grid(log_dir, n=8, **extra):
    return [{"x": x, "log_dir": str(log_dir), **extra} for x in range(n)]


# ---------------------------------------------------------------------------
# differential: serial == parallel == resumed == warm
# ---------------------------------------------------------------------------


class TestDifferentialPaths:
    def test_all_paths_identical(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs)
        expected = [p["x"] ** 2 for p in grid]

        serial = run_sweep(_counted_square, grid, parallel=False)
        parallel = run_sweep(
            _counted_square, grid, parallel=True, max_workers=2
        )
        ckpt = tmp_path / "store"
        cold = run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt
        )
        warm = run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt
        )
        warm_parallel = run_sweep(
            _counted_square, grid, parallel=True, max_workers=2,
            checkpoint=ckpt,
        )
        assert serial == parallel == cold == warm == warm_parallel == expected

    def test_warm_cache_executes_nothing(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=5)
        ckpt = tmp_path / "store"
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt)
        first = _executions(logs)
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt)
        assert _executions(logs) == first  # pure cache read
        assert all(count == 1 for count in first.values())

    def test_resume_false_forces_cold_run(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=4)
        ckpt = tmp_path / "store"
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt)
        run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt,
            resume=False,
        )
        assert all(c == 2 for c in _executions(logs).values())


class TestWarmRunOnlyReads:
    """A warm hit reads its object and journals itself, nothing more."""

    def test_warm_run_keeps_manifest_and_journals_each_hit(
        self, tmp_path, monkeypatch
    ):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=4)
        ckpt = tmp_path / "store"
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt,
                  label="first")
        [manifest_path] = ResultStore(ckpt).runs_dir.glob("*.json")
        journal = manifest_path.with_suffix(".journal")
        created = SweepManifest.load(manifest_path).created_at
        os.utime(manifest_path, ns=(10**9, 10**9))  # any rewrite shows
        cold_lines = len(read_journal(journal))

        appends = []
        real_append = store_pkg.append_journal

        def counting_append(path, *entries):
            appends.append(len(entries))
            real_append(path, *entries)

        monkeypatch.setattr(store_pkg, "append_journal", counting_append)
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt,
                  label="first")
        assert manifest_path.stat().st_mtime_ns == 10**9
        assert SweepManifest.load(manifest_path).created_at == created
        hits = read_journal(journal)[cold_lines:]
        assert [(e.index, e.cached) for e in hits] == [
            (i, True) for i in range(4)
        ]
        assert appends == [4]  # every hit in one append

        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt,
                  label="second")
        relabelled = SweepManifest.load(manifest_path)
        assert manifest_path.stat().st_mtime_ns != 10**9
        assert relabelled.label == "second"
        assert relabelled.created_at == created
        assert all(c == 1 for c in _executions(logs).values())

    def test_load_runs_only_for_hits(self, tmp_path, monkeypatch):
        """Misses are found by ``has``; ``load`` runs once per cache hit,
        so a count of ``load`` calls is a count of hits."""
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=4)
        ckpt = tmp_path / "store"
        loads = []
        real_load = ResultStore.load

        def counting_load(store, key):
            loads.append(key)
            return real_load(store, key)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        run_sweep(_counted_square, grid[:2], parallel=False, checkpoint=ckpt)
        assert loads == []  # cold: every point a miss
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt)
        assert len(loads) == 2  # two hits, two misses
        loads.clear()
        run_sweep(_counted_square, grid, parallel=False, checkpoint=ckpt)
        assert len(loads) == 4  # fully warm

    def test_edited_worker_misses_in_a_fresh_process(self, tmp_path):
        """The fingerprint is cached per process, so a worker edited
        between two runs must still miss in the second, fresh one."""
        src = Path(repro.__file__).resolve().parents[1]
        logs = tmp_path / "logs"
        logs.mkdir()
        module = tmp_path / "edited_worker.py"
        script = (
            "from repro.perf.sweep import run_sweep\n"
            "from edited_worker import work\n"
            f"grid = [{{'x': x, 'log_dir': {str(logs)!r}}} for x in range(3)]\n"
            f"print(run_sweep(work, grid, parallel=False, "
            f"checkpoint={str(tmp_path / 'store')!r}))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(src), str(tmp_path)]),
            "PYTHONDONTWRITEBYTECODE": "1",
        }

        def fresh_run(factor):
            module.write_text(
                "import os, uuid\n\n\n"
                "def work(x, log_dir):\n"
                "    open(os.path.join(log_dir, f'exec-{x}-{uuid.uuid4().hex}'),"
                " 'w').close()\n"
                f"    return x * {factor}\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=tmp_path,
                capture_output=True, text=True, check=True, timeout=120,
            )
            return out.stdout.strip()

        assert fresh_run(2) == "[0, 2, 4]"
        assert fresh_run(2) == "[0, 2, 4]"  # unchanged source: all warm
        assert _executions(logs) == {"0": 1, "1": 1, "2": 1}
        assert fresh_run(30) == "[0, 30, 60]"  # edited source: all miss
        assert _executions(logs) == {"0": 2, "1": 2, "2": 2}


# ---------------------------------------------------------------------------
# the PR-5 bugfix: worker OSError surfaces, no silent serial re-run
# ---------------------------------------------------------------------------


class TestWorkerErrorSurfaces:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_oserror_propagates_with_point(self, tmp_path, parallel):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs)
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                _oserror_on_three, grid, parallel=parallel, max_workers=2
            )
        err = excinfo.value
        assert err.index == 3
        assert err.point["x"] == 3
        assert isinstance(err.__cause__, OSError)

    def test_no_double_execution_on_worker_oserror(self, tmp_path):
        """Regression: the old fallback caught the worker's OSError and
        re-ran the *whole grid* serially — double execution, masked
        error.  Now every point runs at most once and the error is loud."""
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs)
        with pytest.raises(SweepPointError):
            run_sweep(
                _oserror_on_three, grid, parallel=True, max_workers=2
            )
        assert all(c == 1 for c in _executions(logs).values())

    def test_completed_points_checkpointed_despite_failure(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        ckpt = tmp_path / "store"
        grid = _grid(logs)
        with pytest.raises(SweepPointError):
            run_sweep(
                _oserror_on_three, grid, parallel=False, checkpoint=ckpt
            )
        # Serial grid order: points 0..2 committed before 3 failed.
        assert ResultStore(ckpt).object_count() == 3


# ---------------------------------------------------------------------------
# crash / interrupt / resume
# ---------------------------------------------------------------------------


class TestCrashResume:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_crashed_then_resumed_matches_serial(self, tmp_path, parallel):
        logs = tmp_path / "logs"
        logs.mkdir()
        sentinel = tmp_path / "crash-window"
        sentinel.touch()
        grid = _grid(logs, n=10, sentinel=str(sentinel))
        baseline = [p["x"] * 3 for p in grid]

        ckpt = tmp_path / "store"
        with pytest.raises(SweepPointError):
            run_sweep(
                _fail_while_sentinel, grid, parallel=parallel,
                max_workers=2, checkpoint=ckpt,
            )
        crashed = _executions(logs)
        assert set(crashed) == {str(x) for x in range(5)}  # 0..4 done

        sentinel.unlink()  # the transient failure clears
        resumed = run_sweep(
            _fail_while_sentinel, grid, parallel=parallel,
            max_workers=2, checkpoint=ckpt,
        )
        assert resumed == baseline
        # Only the missing points re-executed; every point exactly once.
        assert _executions(logs) == {str(x): 1 for x in range(10)}

    def test_stop_after_interrupts_and_resumes(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=6)
        ckpt = tmp_path / "store"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(
                _counted_square, grid, parallel=False, checkpoint=ckpt,
                stop_after=4,
            )
        assert excinfo.value.remaining == 2
        assert ResultStore(ckpt).object_count() == 4
        out = run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt
        )
        assert out == [p["x"] ** 2 for p in grid]
        assert _executions(logs) == {str(x): 1 for x in range(6)}

    def test_torn_checkpoint_object_reexecuted_exactly_once(self, tmp_path):
        """A truncated pickle in the store reads as *missing*, not fatal.

        A crash can tear a committed object (e.g. the disk filled after
        ``os.replace``).  On resume the torn point is re-executed exactly
        once; intact neighbours stay warm and execute zero times.
        """
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=5)
        ckpt = tmp_path / "store"
        first = run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt
        )

        from repro.store import code_fingerprint, point_key

        store = ResultStore(ckpt)
        fp = code_fingerprint(_counted_square)
        torn_key = point_key(_counted_square, grid[2], fingerprint=fp)
        path = store._object_path(torn_key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        resumed = run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt
        )
        assert resumed == first == [p["x"] ** 2 for p in grid]
        counts = _executions(logs)
        assert counts.pop("2") == 2  # torn point: first run + recovery
        assert all(c == 1 for c in counts.values())

    def test_foreign_object_in_store_reexecuted(self, tmp_path):
        """An object that unpickles to garbage from a different writer is
        also treated as missing rather than returned as a result."""
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=3)
        ckpt = tmp_path / "store"

        from repro.store import code_fingerprint, point_key

        store = ResultStore(ckpt)
        store.ensure_dirs()
        fp = code_fingerprint(_counted_square)
        key = point_key(_counted_square, grid[1], fingerprint=fp)
        path = store._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80\x05not really a pickle stream")

        out = run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt
        )
        assert out == [p["x"] ** 2 for p in grid]
        assert _executions(logs) == {str(x): 1 for x in range(3)}

    def test_stop_after_validates(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(_counted_square, _grid(tmp_path, 2), stop_after=0)

    def test_broken_pool_resubmits_missing(self, tmp_path):
        sentinel = tmp_path / "die-once"
        sentinel.touch()
        grid = [
            {"x": x, "sentinel": str(sentinel)} for x in range(6)
        ]
        out = run_sweep(_exit_once, grid, parallel=True, max_workers=2)
        assert out == [x * x for x in range(6)]

    def test_broken_pool_gives_up_loudly(self, tmp_path):
        # A sentinel that never clears: the pool dies on every rebuild.
        sentinel = tmp_path / "die-always"
        grid = [{"x": x, "sentinel": str(sentinel)} for x in range(4)]

        sentinel.touch()
        # Restart cap of 0 means a single pool death is terminal, even
        # though the worker would succeed on a fresh pool (the sentinel
        # is consumed by the first death).
        with pytest.raises(SweepPoolError):
            run_sweep(
                _exit_once, grid, parallel=True, max_workers=2,
                max_pool_restarts=0,
            )


# ---------------------------------------------------------------------------
# campaign-level acceptance: interrupt at ~50%, resume, byte-identical
# ---------------------------------------------------------------------------


class TestCampaignResume:
    CONFIG = CampaignConfig(
        processors=16,
        row_samples=4,
        trials=2,
        fault_rates=(0.0, 1e-4),
        mesh_link_failures=1,
    )
    #: One lane per batch point: a grid of 4 gather + 2 mesh points.
    BATCH = 1

    def test_interrupted_campaign_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        baseline = run_campaign(self.CONFIG, parallel=False).as_table()

        # Count per-point executions *below* the sweep workers, so the
        # store keys (derived from the workers' source) are unchanged.
        # Clean lanes never run a per-seed trial, so count the batches.
        calls: list[tuple] = []
        real_gather = batched_mod.run_gather_campaign_batch
        real_mesh = batched_mod.run_mesh_campaign_batch

        def counting_gather(config, ber, seeds):
            calls.append(("gather", ber, tuple(seeds)))
            return real_gather(config, ber, seeds)

        def counting_mesh(config, lanes):
            calls.append(("mesh", tuple(lanes)))
            return real_mesh(config, lanes)

        monkeypatch.setattr(
            batched_mod, "run_gather_campaign_batch", counting_gather
        )
        monkeypatch.setattr(
            batched_mod, "run_mesh_campaign_batch", counting_mesh
        )

        ckpt = tmp_path / "store"
        # Interrupt at ~50%: the gather grid has 4 points; stop after 2.
        with pytest.raises(SweepInterrupted):
            run_campaign(
                self.CONFIG, parallel=False, checkpoint=str(ckpt),
                stop_after=2, batch=self.BATCH,
            )
        executed_at_crash = list(calls)
        assert len(executed_at_crash) == 2  # exactly half the gather grid

        resumed = run_campaign(
            self.CONFIG, parallel=False, checkpoint=str(ckpt),
            batch=self.BATCH,
        )
        assert resumed.as_table() == baseline  # byte-identical report

        # Only the missing points re-executed: 4 gather + 2 mesh total,
        # each exactly once across both runs.
        assert len(calls) == 4 + 2
        assert len(set(calls)) == len(calls)

        # And a warm regeneration simulates nothing at all.
        warm_calls_before = len(calls)
        warm = run_campaign(
            self.CONFIG, parallel=False, checkpoint=str(ckpt),
            batch=self.BATCH,
        )
        assert warm.as_table() == baseline
        assert len(calls) == warm_calls_before

    def test_campaign_journal_narrates_resume(self, tmp_path):
        ckpt = tmp_path / "store"
        with pytest.raises(SweepInterrupted):
            run_campaign(
                self.CONFIG, parallel=False, checkpoint=str(ckpt),
                stop_after=2, batch=self.BATCH,
            )
        run_campaign(
            self.CONFIG, parallel=False, checkpoint=str(ckpt),
            batch=self.BATCH,
        )
        store = ResultStore(ckpt)
        manifests = list(SweepManifest.iter_dir(store.runs_dir))
        assert len(manifests) == 2  # gather + mesh sweeps
        for manifest in manifests:
            assert all(manifest.completed(store))
            journal = read_journal(manifest.journal_path(store.runs_dir))
            executed = [e for e in journal if not e.cached]
            # Each point executed exactly once across interrupt + resume.
            assert sorted(e.index for e in executed) == list(
                range(manifest.n_points)
            )


# ---------------------------------------------------------------------------
# observability hooks
# ---------------------------------------------------------------------------


class RecordingObs:
    def __init__(self):
        self.begins: list[dict] = []
        self.points: list[dict] = []
        self.ends: list[dict] = []

    def sweep_begin(self, **kw):
        self.begins.append(kw)

    def sweep_point(self, **kw):
        self.points.append(kw)

    def sweep_end(self, **kw):
        self.ends.append(kw)


class TestObsHooks:
    def test_duck_typed_hooks_fire(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=4)
        obs = RecordingObs()
        ckpt = tmp_path / "store"
        run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt,
            obs=obs, label="unit",
        )
        assert obs.begins[0] == {
            "label": "unit", "total": 4, "cached": 0, "pending": 4,
        }
        assert [p["cached"] for p in obs.points] == [False] * 4
        assert obs.ends[0]["executed"] == 4

        run_sweep(
            _counted_square, grid, parallel=False, checkpoint=ckpt,
            obs=obs, label="unit",
        )
        assert [p["cached"] for p in obs.points[4:]] == [True] * 4

    def test_obs_session_records_spans_and_metrics(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        grid = _grid(logs, n=3)
        session = ObsSession()
        run_sweep(
            _counted_square, grid, parallel=False,
            checkpoint=tmp_path / "store", obs=session, label="unit",
        )
        cats = {e.cat for e in session.tracer}
        assert "sweep" in cats
        phases = [e.ph for e in session.tracer.by_category("sweep")]
        assert phases[0] == "B" and phases[-1] == "E"
        payload = session.metrics.to_dict()
        names = {m["name"] for m in payload["metrics"]}
        assert {"sweep_points_total", "sweep_points_executed"} <= names
        # The trace validates as a Chrome trace object.
        session.chrome_trace()
