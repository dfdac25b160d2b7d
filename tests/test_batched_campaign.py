"""Differential wall: batched campaigns == per-seed scalar, byte for byte.

The SIMD-lockstep engine (:mod:`repro.faults.batched`) promises results
*bit-identical* to the per-seed sequential path across every injector.
This suite pins that contract:

* all three batched injectors — transient BER, thermal drift episodes,
  permanent dead mesh links — each batched vs a scalar loop;
* lockstep recovery of divergent gather lanes, including retry
  exhaustion and CRC collisions, framing and decoding only the words
  the lane's injector corrupts, and its structured refusals (drift,
  hook order) that send lanes to scalar replay;
* every lane's random stream drawn once: a recovered lane reads its
  classification row instead of drawing it again;
* one fault-free probe per config per ``run_campaign`` call, and none
  shared across calls;
* the fault-free mesh lane on the compiled engine, equal to the
  reference trial across mesh sizes and row lengths;
* gather + mesh workloads through ``run_campaign`` at the default
  batch and sizes 1, 7, 64 with a non-divisor remainder split, each
  against the per-seed oracle (:func:`per_seed_campaign`);
* the crashed-then-resumed checkpoint path and the warm-cache path;
* the batch shape in the canonical store payload;
* the failure contract: a lane raising inside fault replay reports
  the failing ``(seed, point)`` pair, not the bare campaign/batch
  index.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import numpy as np
import pytest

import repro.faults.batched as batched_mod
import repro.faults.campaign as campaign_mod
import repro.faults.recovery as recovery_mod
from repro.faults.batched import (
    _check_lockstep_recovery,
    _gather_batch_point,
    run_gather_campaign_batch,
    run_mesh_campaign_batch,
)
from repro.faults.campaign import (
    CampaignConfig,
    _campaign_report,
    _draw_seeds,
    _fft_row_data,
    _run_gather_trial,
    _run_mesh_trial,
    run_campaign,
)
from repro.faults.crc import CRC_BITS
from repro.faults.models import DriftEpisode, PscanFaultModel
from repro.fft import fft
from repro.store import code_fingerprint, point_key
from repro.util.errors import (
    ConfigError,
    EngineUnsupportedError,
    SweepInterrupted,
    SweepPointError,
)


def per_seed_campaign(config: CampaignConfig):
    """The per-seed oracle: ``run_campaign``'s trials, one seed at a time."""
    seeds_by_ber, mesh_lanes = _draw_seeds(config)
    return _campaign_report(
        config,
        [
            _run_gather_trial(config, ber, seed)
            for ber in config.fault_rates
            for seed in seeds_by_ber[ber]
        ],
        [_run_mesh_trial(config, dead, seed) for dead, seed in mesh_lanes],
    )


def _seeds(count: int, master: int = 20130901) -> list[int]:
    rng = random.Random(master)
    return [rng.randrange(2**32) for _ in range(count)]


SMALL = CampaignConfig(
    processors=4, row_samples=4, trials=3, seed=11, mesh_link_failures=2
)
DRIFT_EPISODES = (
    DriftEpisode(start_ns=0.0, end_ns=30.0, drift_nm=0.03),
    DriftEpisode(start_ns=40.0, end_ns=120.0, drift_nm=0.05, node=1),
)


# -- row-FFT lane data ---------------------------------------------------------


def _per_row_fft_data(config, seed):
    """The original one-row-at-a-time ``_fft_row_data``, kept as the pin."""
    rng = np.random.default_rng(seed)
    data = {}
    for node in range(config.processors):
        row = rng.standard_normal(config.row_samples) + 1j * rng.standard_normal(
            config.row_samples
        )
        data[node] = [complex(v) for v in fft(row)]
    return data


def _data_bytes(data):
    return np.array([data[node] for node in sorted(data)]).view(np.float64).tobytes()


class TestRowFftData:
    @pytest.mark.parametrize("processors,row_samples", [(4, 2), (16, 8), (64, 64)])
    def test_bit_identical_to_per_row_loop(self, processors, row_samples):
        config = CampaignConfig(processors=processors, row_samples=row_samples)
        for seed in _seeds(200):
            batched = _fft_row_data(config, seed)
            per_row = _per_row_fft_data(config, seed)
            assert list(batched) == list(per_row)
            assert _data_bytes(batched) == _data_bytes(per_row)

    def test_one_fft_call_per_invocation(self, monkeypatch):
        calls = []

        def counting_fft(x):
            calls.append(np.shape(x))
            return fft(x)

        monkeypatch.setattr(campaign_mod, "fft", counting_fft)
        _fft_row_data(CampaignConfig(), 7)
        assert calls == [(16, 8)]


# -- injector-by-injector byte identity --------------------------------------


class TestInjectorParity:
    @pytest.mark.parametrize("ber", [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2])
    def test_gather_ber(self, ber):
        seeds = _seeds(12)
        batch = run_gather_campaign_batch(SMALL, ber, seeds)
        assert batch.rows == [
            _run_gather_trial(SMALL, ber, s) for s in seeds
        ]
        assert (
            batch.lanes_clean + batch.lanes_recovered + batch.lanes_replayed
            == len(seeds)
        )
        # Without drift every divergent lane recovers in lockstep.
        assert batch.lanes_replayed == 0

    @pytest.mark.parametrize("ber", [1e-2, 5e-2])
    def test_gather_retry_exhaustion(self, ber):
        # No retries: every NACKed word is residual, and the rows carry
        # exhausted trials and partial correct fractions.
        config = CampaignConfig(
            processors=4, row_samples=4, trials=3, seed=11, max_retries=0
        )
        seeds = _seeds(12)
        batch = run_gather_campaign_batch(config, ber, seeds)
        scalar = [_run_gather_trial(config, ber, s) for s in seeds]
        assert batch.rows == scalar
        assert batch.lanes_recovered > 0
        assert any(row[5] for row in scalar)  # a residual was reported

    @pytest.mark.parametrize("ber", [1e-6, 1e-4])
    def test_gather_thermal_drift(self, ber):
        config = CampaignConfig(
            processors=4,
            row_samples=4,
            trials=3,
            seed=11,
            drift_episodes=DRIFT_EPISODES,
        )
        seeds = _seeds(10)
        batch = run_gather_campaign_batch(config, ber, seeds)
        assert batch.rows == [
            _run_gather_trial(config, ber, s) for s in seeds
        ]
        # Drift lanes are refused lockstep recovery: they replay scalar.
        assert batch.lanes_recovered == 0
        assert batch.lanes_clean + batch.lanes_replayed == len(seeds)

    def test_mesh_dead_links(self):
        lanes = [(dead, seed) for dead in (0, 1, 2) for seed in _seeds(4)]
        batch = run_mesh_campaign_batch(SMALL, lanes)
        assert batch.rows == [
            _run_mesh_trial(SMALL, dead, seed) for dead, seed in lanes
        ]
        # dead-link lanes always replay scalar; fault-free lanes never do.
        assert batch.lanes_replayed == sum(1 for d, _ in lanes if d > 0)

    def test_clean_lanes_share_probe_result(self):
        # At a tiny BER almost every lane is clean: the shared row must
        # still equal each lane's own scalar trial.
        seeds = _seeds(32)
        batch = run_gather_campaign_batch(SMALL, 1e-7, seeds)
        assert batch.lanes_clean > 0
        assert batch.rows == [
            _run_gather_trial(SMALL, 1e-7, s) for s in seeds
        ]


class TestCorruptedWordsOnly:
    def test_frames_and_decodes_only_corrupted_words(self, monkeypatch):
        # Lockstep recovery frames and CRC-decodes a word only when the
        # lane's injector flips it; every other word takes the lane's
        # own data value.  The scalar trial still frames every word.
        calls = {"pack": 0, "unpack": 0, "corrupt": 0, "arrived": 0}

        def counting(name, fn, weight=lambda *args: 1):
            def wrapped(*args):
                calls[name] += weight(*args)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(
            batched_mod, "pack_word", counting("pack", batched_mod.pack_word)
        )
        monkeypatch.setattr(
            recovery_mod, "pack_word", counting("pack", recovery_mod.pack_word)
        )
        monkeypatch.setattr(
            recovery_mod,
            "unpack_word",
            counting("unpack", recovery_mod.unpack_word),
        )
        monkeypatch.setattr(
            PscanFaultModel,
            "_corrupt",
            counting("corrupt", PscanFaultModel._corrupt),
        )
        monkeypatch.setattr(
            PscanFaultModel,
            "corrupt_burst",
            counting(
                "arrived",
                PscanFaultModel.corrupt_burst,
                lambda model, count, *rest: count,
            ),
        )
        for seed in _seeds(8):
            calls.update(pack=0, unpack=0, corrupt=0, arrived=0)
            batched_mod._recover_gather_lane(SMALL, 1e-2, seed)
            assert calls["pack"] == calls["unpack"] == calls["corrupt"] > 0
            assert calls["corrupt"] < calls["arrived"]
        calls.update(pack=0, unpack=0)
        _run_gather_trial(SMALL, 1e-2, _seeds(1)[0])
        assert calls["pack"] == SMALL.processors * SMALL.row_samples
        assert calls["unpack"] >= calls["pack"]

    def test_high_ber_undetected_errors_match_scalar(self):
        # At BER 5e-2 nearly every word is corrupted in every epoch, so
        # CRC-16 collisions show up: seed index 1677 of _seeds delivers
        # a wrong word the checksum passed.  Lockstep recovery must
        # count it exactly as the scalar trial does.
        seeds = _seeds(1680)[-10:]
        batch = run_gather_campaign_batch(SMALL, 5e-2, seeds)
        scalar = [_run_gather_trial(SMALL, 5e-2, s) for s in seeds]
        assert batch.rows == scalar
        assert batch.lanes_recovered == len(seeds)
        assert any(row[4] > 0 for row in scalar)


class TestDrawOnce:
    #: Outputs a lane's classification row holds: two per exposed bit.
    ROW = 2 * SMALL.processors * SMALL.row_samples * (64 + CRC_BITS)

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Counts the Mersenne Twister outputs drawn in ``repro.faults.lanes``."""
        import repro.faults.lanes as lanes_mod

        counter = {"outputs": 0}
        real = lanes_mod._mt_outputs

        def counting(rng, count):
            counter["outputs"] += count
            return real(rng, count)

        monkeypatch.setattr(lanes_mod, "_mt_outputs", counting)
        return counter

    def test_recovered_lanes_draw_epoch_zero_once(self, drawn):
        # Every lane draws its classification row once; a recovered lane
        # reads it again from memory and draws only what its recovery
        # consumes past it, as much as the lane drawn alone.
        seeds = _seeds(12)
        alone = []
        for seed in seeds:
            drawn["outputs"] = 0
            batched_mod._recover_gather_lane(SMALL, 1e-2, seed)
            alone.append(drawn["outputs"])
        drawn["outputs"] = 0
        batch = run_gather_campaign_batch(SMALL, 1e-2, seeds)
        assert batch.lanes_recovered == len(seeds)
        assert all(outputs > self.ROW for outputs in alone)
        assert drawn["outputs"] == sum(alone)
        assert batch.rows == [_run_gather_trial(SMALL, 1e-2, s) for s in seeds]

    def test_clean_lanes_draw_only_their_row(self, drawn):
        seeds = _seeds(16)
        batch = run_gather_campaign_batch(SMALL, 1e-7, seeds)
        assert batch.lanes_clean == len(seeds)
        assert drawn["outputs"] == len(seeds) * self.ROW


class TestSharedProbe:
    @pytest.mark.parametrize("drift", [(), DRIFT_EPISODES])
    def test_probe_independent_of_data_seed(self, drift):
        config = replace(SMALL, drift_episodes=drift)
        first = batched_mod._probe_gather(config, _seeds(1)[0])
        for seed in _seeds(6)[1:]:
            assert batched_mod._probe_gather(config, seed) == first

    @pytest.fixture
    def probes(self, monkeypatch):
        configs = []
        real = batched_mod._probe_gather

        def counting(config, data_seed):
            configs.append(config)
            return real(config, data_seed)

        monkeypatch.setattr(batched_mod, "_probe_gather", counting)
        return configs

    def test_one_probe_per_campaign_call(self, probes):
        # 4 fault rates x 3 chunks of trials = 12 batch points, 1 probe.
        config = TestCampaignBatchSizes.CONFIG
        report = run_campaign(config, batch=4)
        assert probes == [config]
        # Nothing outlives the call: the next one probes again.
        assert run_campaign(config, batch=4).as_table() == report.as_table()
        assert probes == [config, config]
        assert batched_mod._PROBES.get() is None

    def test_batches_outside_a_campaign_probe_each_time(self, probes):
        for ber in (0.0, 1e-4):
            run_gather_campaign_batch(SMALL, ber, _seeds(2))
        assert probes == [SMALL, SMALL]


class TestCleanMeshLane:
    @pytest.mark.parametrize("row_samples", [1, 2, 8, 32])
    @pytest.mark.parametrize("processors", [4, 9, 16, 36, 64])
    def test_compiled_row_equals_reference_trial(self, processors, row_samples):
        config = CampaignConfig(processors=processors, row_samples=row_samples)
        batch = run_mesh_campaign_batch(config, [(0, 1), (0, 2)])
        reference = _run_mesh_trial(config, 0, 1)
        assert batch.rows == [reference, reference]
        assert batch.rows[0] is not batch.rows[1]
        assert (batch.lanes_clean, batch.lanes_replayed) == (2, 0)

    def test_runs_on_the_compiled_engine(self, monkeypatch):
        from repro.mesh.compiled_network import CompiledMeshNetwork

        runs = []
        real = CompiledMeshNetwork.run

        def counting_run(self, max_cycles=None):
            runs.append(max_cycles)
            return real(self, max_cycles)

        monkeypatch.setattr(CompiledMeshNetwork, "run", counting_run)
        lanes = [(0, 1), (1, 2), (0, 3)]
        batch = run_mesh_campaign_batch(SMALL, lanes)
        assert runs == [campaign_mod._MESH_MAX_CYCLES]
        assert batch.rows == [_run_mesh_trial(SMALL, d, s) for d, s in lanes]

    def test_engine_refusal_propagates(self, monkeypatch):
        from repro.mesh.compiled_network import CompiledMeshNetwork

        def refuse(self):
            raise EngineUnsupportedError("compiled", "traffic_shape", "test")

        monkeypatch.setattr(CompiledMeshNetwork, "_require_supported", refuse)
        with pytest.raises(EngineUnsupportedError):
            run_mesh_campaign_batch(SMALL, [(0, 1)])

    def test_cycle_budget_overrun_replays_on_reference(self, monkeypatch):
        # A fault-free run longer than the budget ends as a partial
        # "max-cycles" row, which only the stepping engine can report.
        monkeypatch.setattr(campaign_mod, "_MESH_MAX_CYCLES", 40)
        monkeypatch.setattr(batched_mod, "_MESH_MAX_CYCLES", 40)
        config = CampaignConfig(processors=16, row_samples=8)
        batch = run_mesh_campaign_batch(config, [(0, 1)])
        reference = _run_mesh_trial(config, 0, 1)
        assert reference.report_kind == "max-cycles"
        assert batch.rows == [reference]


class TestLockstepRefusal:
    def test_drift_refused(self):
        config = CampaignConfig(
            processors=4, row_samples=4, drift_episodes=DRIFT_EPISODES
        )
        calls, _ = batched_mod._probe_gather(config, 1)
        with pytest.raises(EngineUnsupportedError) as excinfo:
            _check_lockstep_recovery(config, calls)
        assert excinfo.value.feature == "drift_episodes"

    def test_probe_order_accepted(self):
        calls, _ = batched_mod._probe_gather(SMALL, 1)
        _check_lockstep_recovery(SMALL, calls)

    def test_out_of_order_hook_calls_replay_scalar(self, monkeypatch):
        # If the probe ever saw the hook out of cycle order, lockstep
        # recovery's premise fails: the batch must refuse it and replay
        # every divergent lane scalar, still byte-identical.
        real_probe = batched_mod._probe_gather

        def swapped_probe(config, data_seed):
            calls, clean_row = real_probe(config, data_seed)
            calls[0], calls[1] = calls[1], calls[0]
            return calls, clean_row

        calls, _ = swapped_probe(SMALL, 1)
        with pytest.raises(EngineUnsupportedError) as excinfo:
            _check_lockstep_recovery(SMALL, calls)
        assert excinfo.value.feature == "hook_order"

        monkeypatch.setattr(batched_mod, "_probe_gather", swapped_probe)
        seeds = _seeds(8)
        batch = run_gather_campaign_batch(SMALL, 1e-3, seeds)
        assert batch.rows == [_run_gather_trial(SMALL, 1e-3, s) for s in seeds]
        assert batch.lanes_recovered == 0
        assert batch.lanes_replayed == len(seeds) - batch.lanes_clean > 0


# -- run_campaign -------------------------------------------------------------


class TestCampaignBatchSizes:
    # trials=10 makes batch=7 a non-divisor split (chunks of 7 + 3) and
    # batch=64 a single oversized chunk per rate.
    CONFIG = CampaignConfig(
        processors=4, row_samples=4, trials=10, seed=5, mesh_link_failures=2
    )

    @pytest.fixture(scope="class")
    def scalar_report(self):
        return per_seed_campaign(self.CONFIG)

    @pytest.mark.parametrize("batch", [None, 1, 7, 64])
    def test_report_byte_identical(self, scalar_report, batch):
        report = run_campaign(self.CONFIG, batch=batch)
        assert report.gather_rows == scalar_report.gather_rows
        assert report.mesh_rows == scalar_report.mesh_rows
        assert report.as_table() == scalar_report.as_table()

    def test_parallel_batched_identical(self, scalar_report):
        report = run_campaign(
            self.CONFIG, batch=7, parallel=True, max_workers=2
        )
        assert report.as_table() == scalar_report.as_table()

    def test_obs_counts_every_lane_outcome(self, scalar_report):
        from repro.obs import ObsConfig, ObsSession

        session = ObsSession(ObsConfig())
        report = run_campaign(self.CONFIG, batch=7, obs=session)
        assert report.as_table() == scalar_report.as_table()

        def lanes(outcome):
            metric = session.metrics.get("campaign_lanes", outcome=outcome)
            return metric.value if metric is not None else 0

        gather_lanes = self.CONFIG.trials * len(self.CONFIG.fault_rates)
        mesh_lanes = self.CONFIG.mesh_link_failures + 1
        assert lanes("recovered") > 0
        assert lanes("clean") + lanes("recovered") + lanes("replayed") == (
            gather_lanes + mesh_lanes
        )
        # Only the dead-link mesh lanes replay scalar.
        assert lanes("replayed") == self.CONFIG.mesh_link_failures

    def test_batch_zero_rejected(self):
        with pytest.raises(ConfigError):
            run_campaign(self.CONFIG, batch=0)


class TestCheckpointResume:
    CONFIG = CampaignConfig(
        processors=4, row_samples=4, trials=6, seed=31, mesh_link_failures=1
    )

    def test_crashed_then_resumed(self, tmp_path):
        scalar = per_seed_campaign(self.CONFIG)
        store = str(tmp_path / "store")
        with pytest.raises(SweepInterrupted):
            run_campaign(self.CONFIG, batch=4, checkpoint=store, stop_after=1)
        resumed = run_campaign(self.CONFIG, batch=4, checkpoint=store)
        assert resumed.as_table() == scalar.as_table()
        # Warm cache: a third run is pure reads, still identical.
        warm = run_campaign(self.CONFIG, batch=4, checkpoint=store)
        assert warm.as_table() == scalar.as_table()


# -- store keys ---------------------------------------------------------------


class TestStoreKeys:
    def test_batch_shape_in_key(self):
        seeds = tuple(_seeds(4))
        fingerprint = code_fingerprint(_gather_batch_point)
        whole = point_key(
            _gather_batch_point, (SMALL, 1e-4, seeds), fingerprint=fingerprint
        )
        split = point_key(
            _gather_batch_point,
            (SMALL, 1e-4, seeds[:2]),
            fingerprint=fingerprint,
        )
        assert whole != split


# -- failure contract ---------------------------------------------------------


class TestReplayFailureContract:
    CONFIG = CampaignConfig(
        processors=4, row_samples=4, trials=4, seed=5, fault_rates=(1e-3,),
        mesh_link_failures=0,
    )

    def _failing_seed(self):
        # With BER 1e-3 every lane diverges; pick the campaign's second
        # drawn seed so index mapping is non-trivial.
        seeds_by_ber, _ = _draw_seeds(self.CONFIG)
        return seeds_by_ber[1e-3][1], 1

    def _assert_lane_failure_contract(self, monkeypatch, config, lane_fn):
        failing_seed, flat_index = self._failing_seed()
        real = getattr(batched_mod, lane_fn)

        def boom(config, ber, trial_seed, *lane_state):
            if trial_seed == failing_seed:
                raise OSError("simulated replay crash")
            return real(config, ber, trial_seed, *lane_state)

        monkeypatch.setattr(batched_mod, lane_fn, boom)
        with pytest.raises(SweepPointError) as excinfo:
            run_campaign(config, batch=4)
        err = excinfo.value
        assert err.index == flat_index
        assert err.point == (config, 1e-3, failing_seed)
        assert str(failing_seed) in str(err)

    def test_batched_worker_failure_names_seed_and_point(self, monkeypatch):
        # At BER 1e-3 every lane diverges and recovers in lockstep.
        self._assert_lane_failure_contract(
            monkeypatch, self.CONFIG, "_recover_gather_lane"
        )

    def test_batched_drift_lane_failure_names_seed_and_point(
        self, monkeypatch
    ):
        # Drift lanes still go through scalar replay.
        config = replace(self.CONFIG, drift_episodes=DRIFT_EPISODES)
        self._assert_lane_failure_contract(
            monkeypatch, config, "_run_gather_trial"
        )

    def test_sweep_point_error_pickles(self):
        err = SweepPointError(
            "lane failed", index=7, point=(SMALL, 1e-4, 42), key="abc"
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SweepPointError)
        assert clone.index == 7
        assert clone.point == (SMALL, 1e-4, 42)
        assert clone.key == "abc"
        assert str(clone) == str(err)
