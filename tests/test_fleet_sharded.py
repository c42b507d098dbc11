"""Sharded fleet replay: bit-identical merge, sketch-backed reports.

The scale-out runner (``repro.fleet.sharded``) promises that replaying
a fleet sharded by model across worker processes reproduces — in exact
percentile mode — the *same floats* the single-process engine reports:
per-model stats, replica rows, fleet energy, the interleaved
scale-event timeline, and the events counter.  The hypothesis lane
pins that across routing policies, shard counts, and seeds (the
``fleet_replay_sharded`` perfbench scenario asserts the same equality
at benchmark scale).  Sketch mode keeps the counting stats float-exact
and is held to the calibrated P² rank-band criterion from
``tests/test_obs.py`` on percentiles.

The vector cores shard too: each worker replays against the forced
fleet-wide horizon on whichever core it selects, and the merge stays
``==``.  A shard whose models drew no arrivals is an ordinary idle run
(its autoscaler still ticks).  Unit tests cover the shard planner, the
actionable refusals (policy instances, the epoch core, bare
iterators), orphan models, arrival seed lanes, and the engine's
forced-horizon rules on both cores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.state import Allocation
from repro.fleet import (
    FaultSchedule,
    FleetSimulator,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    build_fleet,
)
from repro.fleet.routing import make_policy
from repro.fleet.sharded import plan_shards, run_fleet_sharded
from repro.models import build_model
from repro.obs import FleetProbe
from repro.sim import QueryWorkload
from repro.traces import FleetArrivals, MMPPProcess, PoissonProcess, save_trace

MODELS = ("DLRM-RMC1", "DLRM-RMC2")
SLA = {"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0}


@pytest.fixture(scope="module")
def fleet_inputs(small_table):
    models = {m: build_model(m) for m in MODELS}
    workloads = {
        m: QueryWorkload.for_model(models[m].config.mean_query_size)
        for m in MODELS
    }
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 2)
    allocation.add("T3", "DLRM-RMC2", 2)
    return small_table, models, workloads, allocation


def _source(workloads, seed=0, duration=1.2):
    return FleetArrivals(
        {
            "DLRM-RMC1": MMPPProcess(
                workloads["DLRM-RMC1"], [150.0, 900.0], 0.3, duration
            ),
            "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 250.0, duration),
        },
        seed=seed,
    )


def _run(
    inputs,
    source,
    *,
    shards,
    policy="rr",
    seed=0,
    percentile_mode="exact",
    autoscale=False,
    standby=None,
    core="python",
):
    """``autoscale``: False, True (reactive), or "reactive"/"predictive"."""
    table, models, workloads, allocation = inputs
    autoscaler = None
    if autoscale == "predictive":
        autoscaler = PredictiveAutoscaler(SLA, window_s=0.2)
    elif autoscale:
        autoscaler = ReactiveAutoscaler(SLA, window_s=0.2, cooldown_s=0.4)
    return run_fleet_sharded(
        allocation,
        table,
        models,
        workloads,
        source,
        shards=shards,
        policy=policy,
        sla_ms=SLA,
        autoscaler=autoscaler,
        seed=seed,
        percentile_mode=percentile_mode,
        warmup_s=0.1,
        standby=standby,
        core=core,
        max_workers=2,
    )


class TestShardedMergeBitIdentity:
    @settings(max_examples=5, deadline=None)
    @given(
        policy=st.sampled_from(["rr", "p2c", "least", "weighted"]),
        shards=st.integers(2, 4),
        seed=st.integers(0, 1000),
    )
    def test_matches_single_process_exactly(
        self, fleet_inputs, policy, shards, seed
    ):
        """float-`==` across the whole report: per-model stats, replica
        rows, energy, events — for every policy, shard count, seed."""
        source = _source(fleet_inputs[2], seed=seed)
        ref = _run(fleet_inputs, source, shards=1, policy=policy, seed=seed)
        out = _run(fleet_inputs, source, shards=shards, policy=policy, seed=seed)
        assert out.to_dict() == ref.to_dict()
        for m, stats in ref.per_model.items():
            got = out.per_model[m]
            assert (got.p50_ms, got.p95_ms, got.p99_ms) == (
                stats.p50_ms,
                stats.p95_ms,
                stats.p99_ms,
            )
            assert (got.qps, got.mean_ms, got.violation_rate) == (
                stats.qps,
                stats.mean_ms,
                stats.violation_rate,
            )
        assert out.avg_power_w == ref.avg_power_w
        assert out.events == ref.events

    @pytest.mark.parametrize("policy", ["p2c", "least"])
    def test_autoscaled_timeline_interleaves_identically(
        self, fleet_inputs, policy
    ):
        """With a reactive autoscaler and a standby pool, the merged
        scale-event timeline is the single-process timeline."""
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 2)
        standby.add("T3", "DLRM-RMC2", 1)
        source = _source(fleet_inputs[2], seed=7)
        ref = _run(
            fleet_inputs, source, shards=1, policy=policy, seed=7,
            autoscale=True, standby=standby,
        )
        out = _run(
            fleet_inputs, source, shards=2, policy=policy, seed=7,
            autoscale=True, standby=standby,
        )
        assert out.to_dict() == ref.to_dict()
        assert len(out.scale_events) == len(ref.scale_events)
        for a, b in zip(out.scale_events, ref.scale_events):
            assert (a.time_s, a.model, a.action, a.server.index, a.reason) == (
                b.time_s, b.model, b.action, b.server.index, b.reason
            )

    def test_materialized_list_source(self, fleet_inputs):
        """A pre-drawn list shards without a phase-A scan (its horizon
        is knowable) and still merges bit-identically."""
        trace = list(_source(fleet_inputs[2], seed=11))
        ref = _run(fleet_inputs, trace, shards=1)
        out = _run(fleet_inputs, trace, shards=2)
        assert out.to_dict() == ref.to_dict()

    def test_recorded_trace_source(self, fleet_inputs, tmp_path):
        """A recorded trace file replays sharded through the filtered
        per-worker view and merges bit-identically."""
        from repro.traces import RecordedTrace

        path = str(tmp_path / "trace.jsonl")
        save_trace(path, list(_source(fleet_inputs[2], seed=5)))
        ref = _run(fleet_inputs, RecordedTrace(path), shards=1)
        out = _run(fleet_inputs, RecordedTrace(path), shards=2)
        assert out.to_dict() == ref.to_dict()

    def test_orphan_model_arrivals_count_as_drops(self, fleet_inputs):
        """Arrivals for a model with no replicas anywhere must be folded
        into a live shard so the merged drop accounting matches."""
        table, models, workloads, allocation = fleet_inputs
        wl = workloads["DLRM-RMC1"]
        source = FleetArrivals(
            {
                "DLRM-RMC1": PoissonProcess(wl, 300.0, 1.0),
                "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 200.0, 1.0),
                "ZZ-unserved": PoissonProcess(wl, 50.0, 1.0),
            },
            seed=3,
        )
        ref = _run(fleet_inputs, source, shards=1)
        out = _run(fleet_inputs, source, shards=2)
        assert out.to_dict() == ref.to_dict()
        assert out.per_model["ZZ-unserved"].dropped > 0

    def test_shard_with_no_arrivals_idles_over_full_window(self, fleet_inputs):
        """A shard whose models drew zero arrivals still accounts its
        idle replicas across the shared horizon."""
        table, models, workloads, allocation = fleet_inputs
        source = FleetArrivals(
            {"DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 400.0, 1.0)},
            seed=9,
        )
        ref = _run(fleet_inputs, source, shards=1)
        out = _run(fleet_inputs, source, shards=2)
        assert out.to_dict() == ref.to_dict()
        assert out.per_model["DLRM-RMC2"].completed == 0
        assert out.avg_power_w == ref.avg_power_w

    @pytest.mark.parametrize("mode", ["reactive", "predictive"])
    @pytest.mark.parametrize("core", ["python", "auto"])
    def test_idle_shard_with_autoscaler_matches_single_process(
        self, fleet_inputs, core, mode
    ):
        """A model with replicas but no arrivals, under an autoscaler:
        its shard runs the engine like any other, so its scaler ticks
        through the window and drains the idle replicas exactly as the
        single-process run does (scale events, active time, power)."""
        table, models, workloads, allocation = fleet_inputs
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 1)
        standby.add("T3", "DLRM-RMC2", 1)
        source = FleetArrivals(
            {"DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 900.0, 1.2)},
            seed=9,
        )
        kwargs = dict(autoscale=mode, standby=standby, core=core)
        ref = _run(fleet_inputs, source, shards=1, **kwargs)
        out = _run(fleet_inputs, source, shards=2, **kwargs)
        assert out.to_dict() == ref.to_dict()
        assert any(ev.model == "DLRM-RMC2" for ev in ref.scale_events)

    @pytest.mark.parametrize("policy", ["rr", "weighted"])
    @pytest.mark.parametrize("core", ["vector", "auto"])
    def test_vector_cores_merge_identically(self, fleet_inputs, core, policy):
        """Workers on the vector core replay against the forced
        fleet-wide horizon; the merge equals the single-process run on
        the same core, and both equal the python core."""
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 2)
        standby.add("T3", "DLRM-RMC2", 1)
        source = _source(fleet_inputs[2], seed=7)
        kwargs = dict(policy=policy, seed=7, autoscale=True, standby=standby)
        ref = _run(fleet_inputs, source, shards=1, core="python", **kwargs)
        single = _run(fleet_inputs, source, shards=1, core=core, **kwargs)
        out = _run(fleet_inputs, source, shards=2, core=core, **kwargs)
        assert out.to_dict() == single.to_dict() == ref.to_dict()
        assert ref.scale_events


class TestSketchMode:
    def test_counting_stats_exact_percentiles_in_rank_band(self, fleet_inputs):
        """Sketch mode keeps counts/qps/violations float-identical and
        its percentiles inside the calibrated P² rank band (±15 rank
        points, or within a tenth of the data range — the criterion
        ``tests/test_obs.py`` calibrated over 48k adversarial
        mixtures)."""
        table, models, workloads, allocation = fleet_inputs
        source = _source(workloads, seed=3, duration=2.0)
        servers = build_fleet(allocation, table, models, workloads)
        probe = FleetProbe(metrics=False, trace=True)
        sim = FleetSimulator(
            servers, policy="rr", sla_ms=SLA, seed=0, core="python",
            observer=probe,
        )
        ref = sim.run(source, warmup_s=0.1)
        samples = {m: [] for m in MODELS}
        for span in probe.spans:
            if span["outcome"] == "completed" and span["measured"]:
                samples[span["model"]].append(span["latency_ms"])

        out = _run(fleet_inputs, source, shards=2, percentile_mode="sketch")
        for m in MODELS:
            stats, got = ref.per_model[m], out.per_model[m]
            assert got.completed == stats.completed == len(samples[m])
            assert got.dropped == stats.dropped
            assert got.qps == stats.qps
            assert got.violation_rate == stats.violation_rate
            assert got.mean_ms == pytest.approx(stats.mean_ms, rel=1e-9)
            data = samples[m]
            for q, v in (
                (0.5, got.p50_ms), (0.95, got.p95_ms), (0.99, got.p99_ms)
            ):
                lo = float(np.percentile(data, max(0.0, q - 0.15) * 100))
                hi = float(np.percentile(data, min(1.0, q + 0.15) * 100))
                slack = 1e-9 + 1e-9 * max(abs(lo), abs(hi))
                true = float(np.percentile(data, q * 100))
                near = abs(v - true) <= 0.10 * (max(data) - min(data)) + 1e-9
                assert (lo - slack <= v <= hi + slack) or near
        # Replica and power accounting are untouched by the report mode.
        assert [s.to_dict() for s in out.servers] == [
            s.to_dict() for s in ref.servers
        ]
        assert out.avg_power_w == ref.avg_power_w

    def test_sharded_sketch_equals_unsharded_sketch(self, fleet_inputs):
        """The merge is deterministic in sketch mode too: identical
        per-model streams feed identical P² marker updates."""
        source = _source(fleet_inputs[2], seed=21)
        ref = _run(fleet_inputs, source, shards=1, percentile_mode="sketch")
        out = _run(fleet_inputs, source, shards=2, percentile_mode="sketch")
        assert out.to_dict() == ref.to_dict()

    def test_sketch_mode_reports_no_phases(self, fleet_inputs, small_table):
        """Phase breakdowns need the stored sample list; sketch-mode
        fault runs skip them by design."""
        table, models, workloads, allocation = fleet_inputs
        servers = build_fleet(allocation, table, models, workloads)
        sim = FleetSimulator(
            servers, policy="rr", sla_ms=SLA, core="python",
            percentile_mode="sketch",
            faults=FaultSchedule.parse("crash@0.3:0+0.5"),
        )
        result = sim.run(_source(workloads, seed=2, duration=1.0), warmup_s=0.05)
        assert result.phases == ()
        assert result.total_completed > 0

    def test_bad_mode_rejected(self, fleet_inputs):
        table, models, workloads, allocation = fleet_inputs
        servers = build_fleet(allocation, table, models, workloads)
        with pytest.raises(ValueError, match="percentile_mode"):
            FleetSimulator(servers, sla_ms=SLA, percentile_mode="approx")


class TestPlanAndRefusals:
    def test_plan_round_robins_sorted_names(self):
        assert plan_shards(["c", "a", "b"], 2) == [["a", "c"], ["b"]]
        assert plan_shards(["a", "b"], 4) == [["a"], ["b"]]  # clamped
        assert plan_shards(["a"], 1) == [["a"]]
        with pytest.raises(ValueError, match="shards"):
            plan_shards(["a"], 0)

    def test_policy_instance_refused(self, fleet_inputs):
        source = _source(fleet_inputs[2])
        with pytest.raises(ValueError, match="policy name"):
            _run(fleet_inputs, source, shards=2, policy=make_policy("p2c"))

    def test_vector_epoch_refused(self, fleet_inputs):
        """Epoch batches span models, so per-model shards would route
        differently: refused before any worker starts."""
        table, models, workloads, allocation = fleet_inputs
        with pytest.raises(ValueError, match="vector-epoch.*span"):
            run_fleet_sharded(
                allocation, table, models, workloads,
                _source(workloads), shards=2, sla_ms=SLA,
                core="vector-epoch",
            )

    def test_bare_iterator_refused(self, fleet_inputs):
        with pytest.raises(ValueError, match="re-iterable"):
            _run(fleet_inputs, iter(list(_source(fleet_inputs[2]))), shards=2)

    def test_empty_source_refused(self, fleet_inputs):
        with pytest.raises(ValueError, match="empty"):
            _run(fleet_inputs, [], shards=2)


class TestSeedLanes:
    def test_explicit_seeds_reproduce_default_lanes(self, fleet_inputs):
        """Pinning each model's lane to its fleet-wide default draws the
        identical stream — the invariant the sharded runner rests on."""
        from repro.traces.arrivals import MODEL_SEED_STRIDE

        workloads = fleet_inputs[2]
        procs = {
            "DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 300.0, 0.5),
            "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 200.0, 0.5),
        }
        default = FleetArrivals(procs, seed=4)
        lanes = {
            m: 4 + MODEL_SEED_STRIDE * i for i, m in enumerate(sorted(procs))
        }
        pinned = FleetArrivals(procs, seed=4, seeds=lanes)
        assert list(default) == list(pinned)
        # A sub-fleet with pinned lanes draws the same per-model stream.
        sub = FleetArrivals(
            {"DLRM-RMC2": procs["DLRM-RMC2"]},
            seed=4,
            seeds={"DLRM-RMC2": lanes["DLRM-RMC2"]},
        )
        want = [(m, q) for m, q in default if m == "DLRM-RMC2"]
        got = list(sub)
        assert [(m, q.arrival_s, q.size) for m, q in got] == [
            (m, q.arrival_s, q.size) for m, q in want
        ]

    def test_seeds_must_cover_every_model(self, fleet_inputs):
        workloads = fleet_inputs[2]
        procs = {"DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 100.0, 0.5)}
        with pytest.raises(ValueError, match="seeds"):
            FleetArrivals(procs, seeds={})


class TestForcedHorizon:
    """``FleetSimulator.run(horizon_s=...)``'s rules on the python core;
    :class:`TestForcedHorizonVector` reruns every test on the vector
    core, which follows the same rules."""

    core = "python"

    def _sim(self, fleet_inputs, **kwargs):
        table, models, workloads, allocation = fleet_inputs
        servers = build_fleet(allocation, table, models, workloads)
        return FleetSimulator(
            servers, policy="rr", sla_ms=SLA, core=self.core, **kwargs
        )

    def test_forcing_the_natural_horizon_changes_nothing(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        end = max(q.arrival_s for _, q in source)
        ref = self._sim(fleet_inputs).run(source, warmup_s=0.05)
        out = self._sim(fleet_inputs).run(
            source, warmup_s=0.05, horizon_s=end
        )
        assert out.to_dict() == ref.to_dict()

    def test_horizon_before_last_arrival_raises(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        with pytest.raises(ValueError, match="last arrival"):
            self._sim(fleet_inputs).run(source, warmup_s=0.05, horizon_s=0.06)

    def test_horizon_inside_warmup_raises(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        with pytest.raises(ValueError, match="warmup"):
            self._sim(fleet_inputs).run(source, warmup_s=0.5, horizon_s=0.4)

    def test_fault_mode_refuses_forced_horizon(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        sim = self._sim(
            fleet_inputs, faults=FaultSchedule.parse("crash@0.3:0+0.2")
        )
        with pytest.raises(ValueError, match="fault-free"):
            sim.run(source, warmup_s=0.05, horizon_s=2.0)

    def test_empty_stream_is_an_idle_run(self, fleet_inputs):
        """No arrivals under a forced horizon: every replica idles over
        the whole window and the autoscaler ticks up to the horizon."""
        sim = self._sim(
            fleet_inputs,
            autoscaler=ReactiveAutoscaler(SLA, window_s=0.2, cooldown_s=0.4),
        )
        result = sim.run([], warmup_s=0.05, horizon_s=1.0)
        assert sim.last_tick_count == 4  # 0.2, 0.4, 0.6..., 0.8; not 1.0
        assert result.total_completed == 0
        assert result.duration_s == 1.0 - 0.05
        assert sum(s.active_s for s in result.servers) > 0.0
        assert result.avg_power_w > 0.0


class TestForcedHorizonVector(TestForcedHorizon):
    core = "vector"


@pytest.mark.parametrize("autoscale", [None, "reactive", "predictive"])
@pytest.mark.parametrize("extra", [0.0, 0.05, 0.37, "empty"])
def test_forced_horizon_vector_matches_python(fleet_inputs, extra, autoscale):
    """Vector == python under a forced horizon at, and past, the last
    arrival -- and on an empty stream -- with and without a scaler."""
    table, models, workloads, allocation = fleet_inputs
    standby = Allocation()
    standby.add("T2", "DLRM-RMC1", 2)
    trace = list(_source(workloads, seed=6, duration=0.8))
    if extra == "empty":
        trace, horizon = [], 0.8
    else:
        horizon = max(q.arrival_s for _, q in trace) + extra

    def run(core):
        autoscaler = None
        if autoscale == "reactive":
            autoscaler = ReactiveAutoscaler(SLA, window_s=0.15, cooldown_s=0.3)
        elif autoscale == "predictive":
            autoscaler = PredictiveAutoscaler(SLA, window_s=0.15)
        servers = build_fleet(
            allocation, table, models, workloads, standby=standby
        )
        sim = FleetSimulator(
            servers, policy="rr", sla_ms=SLA, autoscaler=autoscaler,
            core=core,
        )
        return sim, sim.run(trace, warmup_s=0.05, horizon_s=horizon)

    (py, base), (vec, out) = run("python"), run("vector")
    assert out.to_dict() == base.to_dict()
    assert vec.last_tick_count == py.last_tick_count
    assert vec.last_event_count == py.last_event_count
