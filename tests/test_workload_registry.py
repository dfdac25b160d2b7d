"""Tests for the workload zoo (repro.workloads).

The registry contract (name + scalar params -> canonical
TrafficDescription), the built-in families' traffic shapes, every
family's reference run through the shared runner against the fuzz
invariants (including the SLO latency block), the words each photonic
lowering delivers, the traffic linter, and the picklable sweep/serve
worker.
"""

from __future__ import annotations

import pickle

import pytest

from repro.check.analyzer import analyze_traffic
from repro.check.fuzz import FuzzCase, run_case
from repro.mesh import MeshTopology, Packet
from repro.obs import latency_slo
from repro.util.errors import ConfigError
from repro.workloads import (
    CpPhase,
    TrafficDescription,
    build_workload,
    builtin_workload_names,
    evaluate_workload_point,
    get_workload,
    list_workloads,
    register_workload,
    run_cp_phases,
    run_on_mesh,
)
from repro.workloads.registry import _REGISTRY

ALL_FAMILIES = (
    "transpose", "transpose_multi_mc", "scatter", "uniform_random",
    "all_to_all", "allreduce", "allgather", "halo2d", "dnn_layer",
)

#: Small-mesh overrides so the differential matrix stays CI-cheap.
SMALL = {
    "transpose": {"processors": 16, "cols": 4},
    "transpose_multi_mc": {"processors": 16, "cols": 4},
    "scatter": {"processors": 16, "words_per_processor": 4, "k": 2},
    "uniform_random": {"processors": 9, "packets_per_node": 3},
    "all_to_all": {"processors": 9, "words_per_pair": 2},
    "allreduce": {"processors": 9, "words": 2},
    "allgather": {"processors": 9, "words": 2},
    "halo2d": {"processors": 9, "halo": 2},
    "dnn_layer": {"processors": 9, "batch": 4, "features_in": 4,
                  "features_out": 4},
}


class TestRegistry:
    def test_builtins_registered(self):
        names = list_workloads()
        for name in ALL_FAMILIES:
            assert name in names
        assert set(builtin_workload_names()) == set(ALL_FAMILIES)

    def test_unknown_name_names_the_roster(self):
        with pytest.raises(ConfigError, match="registered"):
            get_workload("nope")

    def test_reregister_requires_replace(self):
        family = get_workload("halo2d")
        with pytest.raises(ConfigError, match="already registered"):
            register_workload(
                "halo2d", family.builder, description="shadow"
            )
        # replace=True is the explicit opt-in.
        register_workload(
            "halo2d", family.builder,
            description=family.description, defaults=family.defaults,
            replace=True,
        )
        assert get_workload("halo2d").builder is family.builder

    def test_name_and_default_validation(self):
        with pytest.raises(ConfigError, match="token"):
            register_workload("bad name", lambda: None, description="x")
        with pytest.raises(ConfigError, match="scalar"):
            register_workload(
                "tmp_bad_default", lambda: None, description="x",
                defaults={"grid": [1, 2]},
            )
        assert "tmp_bad_default" not in _REGISTRY

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            build_workload("all_to_all", procesors=16)  # typo on purpose

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ConfigError, match="scalar"):
            build_workload("all_to_all", words_per_pair=[2])

    def test_params_are_defaults_merged(self):
        desc = build_workload("all_to_all", processors=9)
        assert desc.params == {"processors": 9, "words_per_pair": 2}
        assert desc.name == "all_to_all"

    def test_descriptions_are_single_shot(self):
        a = build_workload("halo2d", processors=9)
        b = build_workload("halo2d", processors=9)
        ids_a = {p.packet_id for p in a.packets}
        ids_b = {p.packet_id for p in b.packets}
        assert not ids_a & ids_b


class TestFamilyShapes:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_defaults_build_clean(self, name):
        desc = build_workload(name)
        nodes = set(desc.topology.nodes())
        assert desc.total_packets > 0
        for p in desc.packets:
            assert p.source in nodes and p.dest in nodes
        assert set(desc.memory_nodes) <= nodes
        assert sum(desc.pair_flits().values()) == desc.total_flits

    def test_all_to_all_is_full_pairwise(self):
        desc = build_workload("all_to_all", processors=9, words_per_pair=3)
        assert desc.total_packets == 9 * 8
        # Every ordered pair appears once with words + header flits.
        assert all(f == 4 for f in desc.pair_flits().values())

    def test_halo2d_is_nearest_neighbour(self):
        desc = build_workload("halo2d", processors=16, halo=2)
        for p in desc.packets:
            dist = abs(p.source[0] - p.dest[0]) + abs(p.source[1] - p.dest[1])
            assert dist == 1

    def test_allreduce_shape(self):
        desc = build_workload("allreduce", processors=9, words=2)
        assert desc.memory_nodes == ((0, 0),)
        assert desc.total_packets == 2 * 8  # contributions + results
        kinds = {phase.kind for phase in desc.cp_phases}
        assert kinds == {"gather", "scatter"}

    def test_dnn_layer_gradients_stripe_over_corners(self):
        desc = build_workload("dnn_layer", processors=16)
        corners = set(desc.topology.corners())
        assert set(desc.memory_nodes) == corners
        grad_dests = {p.dest for p in desc.packets
                      if p.dest in corners and p.source != p.dest}
        assert len(grad_dests) > 1  # genuinely striped, not one sink

    def test_mesh_only_families_have_no_cp_lowering(self):
        for name in ("uniform_random", "halo2d"):
            assert build_workload(name).cp_phases == ()
            with pytest.raises(ConfigError, match="mesh-only"):
                run_cp_phases(build_workload(name))


class TestEngineDifferential:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_reference_run_checks(self, name):
        # The ``workload`` fuzz kind's conservation, wormhole-order and
        # path-floor invariants and its id-shift relation, per family.
        params = {"name": name, "reorder": 4, **SMALL[name]}
        assert run_case(FuzzCase(kind="workload", seed=0, params=params)) == []
        ref = run_on_mesh(build_workload(name, **SMALL[name]), "reference")
        assert ref.slo == latency_slo(ref.stats.packet_latencies)

    @pytest.mark.parametrize(
        "name", ("all_to_all", "allreduce", "allgather", "dnn_layer")
    )
    def test_cp_phases_deliver_their_order(self, name):
        # Each phase moves exactly its (node, word) order, one word per
        # cycle, carrying the runner's provenance payload.
        desc = build_workload(name, processors=4)
        executions = run_cp_phases(desc)
        assert len(executions) == len(desc.cp_phases)
        for phase, ex in zip(desc.cp_phases, executions):
            assert ex.kind == phase.kind
            words = [f"{name}:n{n}:w{w}" for n, w in phase.order]
            arrivals = sorted(ex.arrivals, key=lambda a: a.cycle)
            assert [(a.cycle, a.source_node, a.word_index, a.value)
                    for a in arrivals] == [
                (c, n, w, words[c]) for c, (n, w) in enumerate(phase.order)
            ]
            if phase.kind == "gather":
                assert ex.stream == words and ex.is_gapless
            else:
                slices = {}
                for (n, _w), word in zip(phase.order, words):
                    slices.setdefault(n, []).append(word)
                assert ex.delivered == slices

    def test_slo_block_contract(self):
        result = run_on_mesh(build_workload("all_to_all", processors=9))
        slo = result.slo
        assert slo is not None
        assert set(slo) == {"count", "mean", "min", "max", "p50", "p95", "p99"}
        assert slo["count"] == result.stats.packets_delivered
        assert slo["min"] <= slo["p50"] <= slo["p95"] <= slo["p99"]

    def test_transpose_slo_is_exact_on_reference_and_compiled(self):
        """The registry-default 8x8 transpose funnels 512 packets into one
        sink: its percentiles are exact nearest-rank values, and the
        compiled engine reports the same block as the reference."""
        ref, compiled = (
            run_on_mesh(build_workload("transpose"), engine)
            for engine in ("reference", "compiled")
        )
        assert ref.slo == compiled.slo
        assert (ref.slo["p50"], ref.slo["p95"], ref.slo["p99"]) == (
            1278, 2433, 2533
        )
        assert ref.slo["max"] == 2558
        assert ref.slo["count"] == 512

    def test_committed_zoo_latency_leaves_reproduce(self):
        """Exact nearest-rank percentiles of two 16-processor zoo runs at
        t_p = 4."""
        for name, params, p50, p99 in (
            ("all_to_all", {"words_per_pair": 2}, 94, 185),
            ("halo2d", {"halo": 4}, 15, 39),
        ):
            slo = run_on_mesh(
                build_workload(name, processors=16, **params), reorder=4
            ).slo
            assert (slo["p50"], slo["p99"]) == (p50, p99), name

    def test_pair_table_contract(self):
        desc = build_workload("all_to_all", processors=9, words_per_pair=2)
        result = run_on_mesh(desc)
        assert len(result.pairs) == 9 * 8
        offered = sum(v["offered_flits"] for v in result.pairs.values())
        assert offered == desc.total_flits
        for entry in result.pairs.values():
            assert entry["packets"] == 1
            assert entry["delivered_bandwidth"] > 0
            assert entry["latency_min"] <= entry["latency_max"]


class TestAnalyzeTraffic:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_builtin_defaults_lint_clean(self, name):
        report = analyze_traffic(build_workload(name))
        assert report.ok, [str(d) for d in report.diagnostics]

    def _desc(self, packets, memory_nodes=(), cp_phases=(), params=None):
        return TrafficDescription(
            name="synthetic", params=dict(params or {}),
            topology=MeshTopology.square(4), packets=tuple(packets),
            memory_nodes=tuple(memory_nodes), cp_phases=tuple(cp_phases),
        )

    def test_endpoint_outside_mesh_is_trf001(self):
        bad = Packet(source=(0, 0), dest=(7, 7), payloads=[1])
        report = analyze_traffic(self._desc([bad]))
        assert any(d.code == "TRF001" for d in report.errors)

    def test_self_traffic_without_memory_is_trf002(self):
        selfish = Packet(source=(1, 1), dest=(1, 1), payloads=[1])
        report = analyze_traffic(self._desc([selfish]))
        assert any(d.code == "TRF002" for d in report.errors)
        # A memory interface at the destination legitimizes it...
        ok = analyze_traffic(self._desc([
            Packet(source=(1, 1), dest=(1, 1), payloads=[1])
        ], memory_nodes=[(1, 1)]))
        assert not any(d.code == "TRF002" for d in ok.errors)
        # ...and so does an explicit allow_self opt-in.
        opted = analyze_traffic(self._desc([
            Packet(source=(1, 1), dest=(1, 1), payloads=[1])
        ], params={"allow_self": True}))
        assert not any(d.code == "TRF002" for d in opted.errors)

    def test_empty_and_payload_less_are_trf003(self):
        report = analyze_traffic(self._desc([]))
        assert any(d.code == "TRF003" for d in report.errors)
        headers = Packet(source=(0, 0), dest=(1, 0), payloads=[])
        report = analyze_traffic(self._desc([headers]))
        assert any(d.code == "TRF003" for d in report.warnings)

    def test_bad_memory_nodes_are_trf004(self):
        pkt = Packet(source=(0, 0), dest=(1, 0), payloads=[1])
        report = analyze_traffic(
            self._desc([pkt], memory_nodes=[(9, 9), (0, 0), (0, 0)])
        )
        codes = [d.code for d in report.errors]
        assert codes.count("TRF004") == 2  # outside + duplicate

    def test_uncompilable_phase_is_trf005(self):
        pkt = Packet(source=(0, 0), dest=(1, 0), payloads=[1])
        dup = CpPhase("gather", ((0, 0), (0, 0)))  # duplicate (node, word)
        report = analyze_traffic(self._desc([pkt], cp_phases=[dup]))
        assert any(d.code == "TRF005" for d in report.errors)


class TestWorkers:
    def test_evaluate_workload_point_payload(self):
        payload = evaluate_workload_point(
            name="halo2d", engine="reference", processors=9, halo=1
        )
        assert payload["ok"] is True
        assert payload["workload"] == "halo2d"
        assert payload["engine"] == "reference"
        assert payload["params"] == {"processors": 9, "halo": 1}
        assert payload["slo"]["count"] == payload["packets_delivered"]
        assert payload["delivered_bandwidth"] > 0

    def test_worker_is_picklable(self):
        # The sweep process pool and the job server both require it.
        assert pickle.loads(pickle.dumps(evaluate_workload_point)) \
            is evaluate_workload_point

    def test_serve_worker_registered(self):
        from repro.serve.jobs import resolve_workload

        fn = resolve_workload("workload")
        result = fn(name="halo2d", engine="reference", processors=9, halo=1)
        assert result["ok"] and result["workload"] == "halo2d"

    def test_sweep_committed_zoo_point_is_a_serve_warm_hit(self, tmp_path):
        # A zoo sweep and the serve `workload` job run the same worker, so
        # they share store keys: a point the sweep committed is answered
        # warm, with no execution.
        import asyncio

        from repro.perf.sweep import run_sweep
        from repro.serve import JobRequest, JobState, ServeConfig, ServeServer

        root = tmp_path / "root"
        point = {"name": "halo2d", "processors": 9, "engine": "reference",
                 "reorder": 4}
        [committed] = run_sweep(evaluate_workload_point, [point],
                                parallel=False, checkpoint=root)
        server = ServeServer(root, ServeConfig(executor_mode="inline"))
        record = server.submit(
            JobRequest(tenant="a", workload="workload", point=point)
        )
        asyncio.run(server.run_until_idle())
        server.close()
        assert record.state is JobState.DONE and record.cache == "warm"
        assert record.result == committed
        assert server.cold_total == 0

    def test_zoo_sweep_table_prints_compiled_percentiles(self, capsys):
        """The compiled engine's SLO block reaches the sweep table: the
        p50/p99 columns match the reference run, not a 0 placeholder."""
        from repro.store.cli import main

        rows = {}
        for engine in ("reference", "compiled"):
            assert main([
                "run", "--workload", "zoo", "--family", "transpose",
                "--grid", "16", "--reorder-cycles", "4", "--engine", engine,
            ]) == 0
            rows[engine] = capsys.readouterr().out.splitlines()[1].split()
        assert rows["reference"][-2:] == rows["compiled"][-2:] == ["318", "633"]

    def test_obs_cli_exposes_zoo_families(self):
        from repro.obs.workloads import WORKLOADS

        for name in ("all_to_all", "allreduce", "halo2d", "dnn_layer"):
            assert name in WORKLOADS
