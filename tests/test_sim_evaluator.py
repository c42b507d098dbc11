"""Tests for the closed-form steady-state evaluator."""

from __future__ import annotations

import math

import pytest

from repro.hardware import SERVER_TYPES
from repro.models import build_model, partition_model, ModelVariant
from repro.plans import ExecutionPlan, Placement
from repro.sim import QueryWorkload, ServerEvaluator


def cpu_plan(threads=10, cores=2, batch=256):
    return ExecutionPlan(
        Placement.CPU_MODEL_BASED,
        threads=threads,
        cores_per_thread=cores,
        batch_size=batch,
    )


class TestCpuModelBased:
    def test_timings_have_positive_capacity(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        t = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, cpu_plan())
        assert t.capacity_items_s > 0
        assert t.cpu_core_s_per_item > 0
        assert t.gpu_busy_s_per_item == 0
        assert len(t.stages) == 1

    def test_memory_bound_capacity_respects_bandwidth(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        """RMC1 is memory-dominated: aggregate gather bandwidth caps
        throughput no matter how many threads are used."""
        t = t2_evaluator.plan_timings(
            rmc1_partitioned, rmc1_workload, cpu_plan(threads=20, cores=1)
        )
        achieved = t.capacity_items_s * t.mem_bytes_per_item
        peak = SERVER_TYPES["T2"].memory.gather_bw_bytes
        assert achieved <= peak * 1.1

    def test_fewer_colocated_threads_reduce_interference(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        """The Fig. 4 effect: 10x2 beats 20x1 for memory-dominated RMC1."""
        sla = 64.0
        p20 = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(20, 1), sla
        )
        p10 = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(10, 2), sla
        )
        assert p10.qps > p20.qps
        assert p10.qps_per_watt > p20.qps_per_watt
        assert p10.cpu_util < p20.cpu_util

    def test_plan_must_fit_cores(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        with pytest.raises(ValueError, match="does not fit"):
            t2_evaluator.plan_timings(
                rmc1_partitioned, rmc1_workload, cpu_plan(threads=21, cores=1)
            )

    def test_model_must_fit_host_memory(self, rmc1_workload):
        t1 = ServerEvaluator(SERVER_TYPES["T1"])  # 64 GB host
        big = partition_model(build_model("DIEN"))
        big_model_bytes = big.model.graph.total_weight_bytes()
        if big_model_bytes <= 64e9:
            pytest.skip("model fits; nothing to check")
        with pytest.raises(ValueError, match="GB"):
            t1.plan_timings(big, rmc1_workload, cpu_plan())


class TestQueueingModel:
    def test_latency_grows_with_load(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity_qps = timings.capacity_items_s / rmc1_workload.mean_size
        p_light = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * 0.2)
        p_heavy = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * 0.9)
        assert p_heavy.latency.p99_ms > p_light.latency.p99_ms
        assert p_heavy.power_w > p_light.power_w

    def test_overload_is_infeasible(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity_qps = timings.capacity_items_s / rmc1_workload.mean_size
        perf = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * 1.2)
        assert not perf.feasible
        assert "overloaded" in perf.infeasible_reason

    def test_percentiles_ordered(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        perf = t2_evaluator.evaluate(
            rmc1_partitioned, rmc1_workload, cpu_plan(), arrival_qps=800
        )
        lat = perf.latency
        assert lat.p50_ms <= lat.p95_ms <= lat.p99_ms


class TestLatencyBounded:
    def test_result_meets_sla(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        perf = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(), sla_ms=64.0
        )
        assert perf.feasible
        assert perf.latency.p99_ms <= 64.0

    def test_monotone_in_sla(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        plan = cpu_plan()
        qps = [
            t2_evaluator.latency_bounded(
                rmc1_partitioned, rmc1_workload, plan, sla_ms=sla
            ).qps
            for sla in (16.0, 64.0, 256.0)
        ]
        assert qps[0] <= qps[1] <= qps[2]

    def test_impossible_sla_is_infeasible(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        perf = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(), sla_ms=0.01
        )
        assert not perf.feasible

    def test_power_budget_constrains_throughput(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        free = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=64.0
        )
        capped = t2_evaluator.latency_bounded(
            rmc1_partitioned,
            rmc1_workload,
            plan,
            sla_ms=64.0,
            power_budget_w=free.power_w * 0.9,
        )
        assert capped.qps < free.qps
        assert capped.power_w <= free.power_w * 0.9 + 1e-6


class TestNmpServer:
    def test_nmp_speeds_up_multi_hot_models(
        self, t2_evaluator, t3_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        base = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=20.0
        )
        nmp = t3_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=20.0
        )
        assert nmp.qps > 1.5 * base.qps

    def test_nmp_does_not_help_one_hot_models(self, t2_evaluator, t3_evaluator):
        model = build_model("DIN")
        pm = partition_model(model)
        wl = QueryWorkload.for_model(model.config.mean_query_size)
        # Small batches: DIN's attention makes large per-core batches
        # blow the SLA regardless of memory system.
        plan = cpu_plan(batch=32)
        base = t2_evaluator.latency_bounded(pm, wl, plan, sla_ms=100.0)
        nmp = t3_evaluator.latency_bounded(pm, wl, plan, sla_ms=100.0)
        assert nmp.qps == pytest.approx(base.qps, rel=0.1)
        # ... but pays the NMP idle-power tax (Fig. 15b).
        assert nmp.qps_per_watt < base.qps_per_watt


class TestSdPipeline:
    def test_pipeline_stages(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        plan = ExecutionPlan(
            Placement.CPU_SD_PIPELINE,
            batch_size=256,
            sparse_threads=4,
            sparse_cores=2,
            dense_threads=8,
        )
        t = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        names = [s.name for s in t.stages]
        assert names == ["sparse", "dense"]
        assert t.capacity_items_s > 0


class TestGpuPlacements:
    def test_gpu_model_based_small_model(self, t7_evaluator, rmc1_workload):
        model = build_model("DLRM-RMC1", ModelVariant.SMALL)
        pm = partition_model(model, device_memory_bytes=16e9, co_location=2)
        plan = ExecutionPlan(
            Placement.GPU_MODEL_BASED, threads=2, fusion_limit=1024
        )
        t = t7_evaluator.plan_timings(pm, rmc1_workload, plan)
        names = [s.name for s in t.stages]
        assert names == ["loading", "inference"]
        assert t.gpu_busy_s_per_item > 0
        assert t.fill_items == 1024

    def test_gpu_model_based_requires_hot_partition(
        self, t7_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1)
        with pytest.raises(ValueError, match="hot-sparse"):
            t7_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)

    def test_cold_path_requires_host_threads(self, t7_evaluator, rmc1_workload):
        model = build_model("DLRM-RMC2")  # 38 GB: never fully hot
        pm = partition_model(model, device_memory_bytes=16e9, co_location=1)
        assert pm.cold_miss_rate > 0
        plan = ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1, sparse_threads=0)
        with pytest.raises(ValueError, match="sparse_threads"):
            t7_evaluator.plan_timings(pm, rmc1_workload, plan)

    def test_gpu_memory_capacity_enforced(self, t7_evaluator, rmc1_workload):
        model = build_model("DLRM-RMC1")  # 3.8 GB per copy
        pm = partition_model(model, device_memory_bytes=16e9, co_location=1)
        plan = ExecutionPlan(Placement.GPU_MODEL_BASED, threads=8)
        with pytest.raises(ValueError, match="device memory"):
            t7_evaluator.plan_timings(pm, rmc1_workload, plan)

    def test_gpu_sd_stages(self, t7_evaluator, rmc1_partitioned, rmc1_workload):
        plan = ExecutionPlan(
            Placement.GPU_SD,
            threads=2,
            fusion_limit=2048,
            sparse_threads=8,
            sparse_cores=2,
            batch_size=256,
        )
        t = t7_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        names = [s.name for s in t.stages]
        assert names == ["sparse", "loading", "inference"]

    def test_gpu_placement_needs_gpu(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        plan = ExecutionPlan(
            Placement.GPU_SD,
            threads=1,
            sparse_threads=2,
            fusion_limit=512,
        )
        with pytest.raises(ValueError, match="does not fit"):
            t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)

    def test_query_fusion_improves_gpu_throughput(self, t7_evaluator, rmc1_workload):
        """The Fig. 6 effect: fusing queries into large batches raises
        latency-bounded throughput for compute-heavy models."""
        model = build_model("DLRM-RMC3", ModelVariant.SMALL)
        wl = QueryWorkload.for_model(model.config.mean_query_size)
        pm = partition_model(model, device_memory_bytes=16e9, co_location=1)
        no_fusion = t7_evaluator.latency_bounded(
            pm, wl, ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1), sla_ms=50.0
        )
        fused = t7_evaluator.latency_bounded(
            pm,
            wl,
            ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1, fusion_limit=4096),
            sla_ms=50.0,
        )
        assert fused.qps > 1.5 * no_fusion.qps


class TestGraphTimingMemo:
    """``_cpu_graph_timing`` memoizes the contention fixpoint per
    (graph, items, workers, co-located threads, mem_scale)."""

    @staticmethod
    def fresh(graph, *args, **kwargs):
        return ServerEvaluator(SERVER_TYPES["T3"])._cpu_graph_timing(
            graph, *args, **kwargs
        )

    def test_second_call_returns_the_memoized_tuple(self, rmc1_partitioned):
        evaluator = ServerEvaluator(SERVER_TYPES["T3"])
        graph = rmc1_partitioned.sparse
        first = evaluator._cpu_graph_timing(graph, 128, 2, 4)
        assert evaluator._cpu_graph_timing(graph, 128, 2, 4) is first
        assert first == self.fresh(graph, 128, 2, 4)

    def test_mem_scale_and_threads_do_not_alias(self, rmc1_partitioned):
        evaluator = ServerEvaluator(SERVER_TYPES["T3"])
        graph = rmc1_partitioned.sparse
        base = evaluator._cpu_graph_timing(graph, 128, 2, 4)
        scaled = evaluator._cpu_graph_timing(graph, 128, 2, 4, mem_scale=0.5)
        crowded = evaluator._cpu_graph_timing(graph, 128, 2, 16)
        assert scaled != base and crowded != base and scaled != crowded
        assert scaled == self.fresh(graph, 128, 2, 4, mem_scale=0.5)
        assert crowded == self.fresh(graph, 128, 2, 16)
        assert base == self.fresh(graph, 128, 2, 4)

    def test_sd_ratio_shares_the_memo(self, rmc1):
        from repro.scheduling.search import GradientSearch

        evaluator = ServerEvaluator(SERVER_TYPES["T3"])
        search = GradientSearch(evaluator, rmc1)
        search._sd_ratio(2)
        sparse = search.host_partition().sparse
        entries = len(evaluator._graph_timings)
        assert entries == 2  # the sparse and dense probe timings
        evaluator._cpu_graph_timing(sparse, 128, 2, 2)
        assert len(evaluator._graph_timings) == entries
