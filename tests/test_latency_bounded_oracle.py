"""Differential oracle for the latency-bounded probe.

:meth:`ServerEvaluator.latency_bounded` decides each probed arrival rate
with a scalar predicate and builds a :class:`ServerPerformance` only
once, at the winning rate.  The oracle below is the plain form of the
same search: a full :meth:`ServerEvaluator.perf_at` per probe, with the
same 11-fraction scan and 24-step bisection.  For every plan the
Hercules task scheduler visits, both must return ``==`` results --
floats, breakdowns and infeasibility reasons alike.
"""

from __future__ import annotations

import functools
import math

import pytest

from repro.hardware import SERVER_TYPES
from repro.models import build_model
from repro.plans import Placement
from repro.scheduling import HerculesTaskScheduler
from repro.sim import ServerEvaluator, ServerPerformance

PAIRS = [
    (server, model)
    for server in ("T2", "T3", "T7")
    for model in ("DLRM-RMC1", "DLRM-RMC2")
]


def oracle_latency_bounded(
    evaluator, partitioned, workload, plan, sla_ms, power_budget_w=None
):
    """Reference latency-bounded search: one ``perf_at`` per probe."""
    try:
        timings = evaluator.plan_timings(partitioned, workload, plan)
    except ValueError as exc:
        return ServerPerformance.infeasible(str(exc))

    capacity_qps = timings.capacity_items_s / workload.mean_size
    if not math.isfinite(capacity_qps) or capacity_qps <= 0:
        return ServerPerformance.infeasible("plan has no capacity")

    def feasible(qps):
        perf = evaluator.perf_at(timings, workload, qps, power_budget_w)
        if perf.feasible and perf.latency.p99_ms <= sla_ms:
            return perf
        return None

    fractions = (0.98, 0.95, 0.9, 0.8, 0.65, 0.5, 0.35, 0.2, 0.1, 0.05, 0.02)
    best = None
    hi = capacity_qps
    for frac in fractions:
        qps = capacity_qps * frac
        perf = feasible(qps)
        if perf is not None:
            best = perf
            break
        hi = qps
    if best is None:
        return ServerPerformance.infeasible(
            f"SLA {sla_ms} ms unreachable at any load"
        )
    lo = best.qps
    for _ in range(24):
        mid = (lo + hi) / 2.0
        perf = feasible(mid)
        if perf is not None:
            best, lo = perf, mid
        else:
            hi = mid
    return best


@functools.cache
def visited_calls(server_name, model_name):
    """The evaluator and every ``latency_bounded`` call one search makes."""
    evaluator = ServerEvaluator(SERVER_TYPES[server_name])
    calls = []
    probe = evaluator.latency_bounded

    def recording(partitioned, workload, plan, sla_ms, power_budget_w=None):
        calls.append((partitioned, workload, plan, sla_ms, power_budget_w))
        return probe(partitioned, workload, plan, sla_ms, power_budget_w)

    evaluator.latency_bounded = recording
    HerculesTaskScheduler(evaluator, build_model(model_name)).search()
    del evaluator.latency_bounded
    return evaluator, calls


@pytest.mark.parametrize("server_name,model_name", PAIRS)
class TestProbeMatchesOracle:
    def test_unconstrained(self, server_name, model_name):
        evaluator, calls = visited_calls(server_name, model_name)
        assert calls
        for partitioned, workload, plan, sla_ms, budget in calls:
            assert budget is None
            got = evaluator.latency_bounded(partitioned, workload, plan, sla_ms)
            want = oracle_latency_bounded(
                evaluator, partitioned, workload, plan, sla_ms
            )
            assert got == want, plan.describe()

    def test_binding_power_budget(self, server_name, model_name):
        """A budget halfway between idle and the unconstrained optimum's
        power caps the rate below the SLA-bound one."""
        evaluator, calls = visited_calls(server_name, model_name)
        idle_w = evaluator.server.idle_w
        bound = 0
        for partitioned, workload, plan, sla_ms, _ in calls:
            free = evaluator.latency_bounded(partitioned, workload, plan, sla_ms)
            if not free.feasible:
                continue
            budget = (idle_w + free.power_w) / 2.0
            got = evaluator.latency_bounded(
                partitioned, workload, plan, sla_ms, budget
            )
            want = oracle_latency_bounded(
                evaluator, partitioned, workload, plan, sla_ms, budget
            )
            assert got == want, plan.describe()
            if got.feasible and got.qps < free.qps:
                assert got.power_w <= budget
                bound += 1
        assert bound > 0

    def test_unreachable_sla(self, server_name, model_name):
        evaluator, calls = visited_calls(server_name, model_name)
        for partitioned, workload, plan, _, _ in calls:
            got = evaluator.latency_bounded(partitioned, workload, plan, 1e-3)
            want = oracle_latency_bounded(
                evaluator, partitioned, workload, plan, 1e-3
            )
            assert got == want
            assert not got.feasible
            assert got.infeasible_reason == want.infeasible_reason


def test_pairs_cover_every_placement():
    placements = {
        plan.placement
        for server_name, model_name in PAIRS
        for _, _, plan, _, _ in visited_calls(server_name, model_name)[1]
    }
    assert placements == set(Placement)
