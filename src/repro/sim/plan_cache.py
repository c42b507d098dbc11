"""Shared memoization of closed-form plan evaluations.

Plan scoring is the repo's hottest analytic path: the gradient search
re-times hundreds of candidate plans per (model, server) pair, the
offline profiler runs that search for every pair, and the fleet
simulator builds one stage pipeline per provisioned server.  All of
those reduce to :meth:`ServerEvaluator.plan_timings`, which is a pure
function of ``(partitioned model, workload, plan)`` -- so the results
can be computed once and shared everywhere.

Three layers live here:

- :class:`PlanTimingsCache` -- a per-evaluator memo table keyed by an
  *explicit content key* (:func:`partition_key` plus the hashable
  workload/plan).  Content keys survive ``pickle``/``fork``
  round-trips, so the cache stays valid under
  ``ProcessPoolExecutor`` fan-out -- unlike the previous
  ``id(partitioned)`` scheme, where a child process could never hit on
  entries keyed by the parent's object identities.  An optional
  ``max_entries`` bound evicts oldest-first.
- A module-level registry keyed by the same content keys --
  ``shared_evaluator``, ``partitioned_for``, ``timings_for``,
  ``stages_for`` and ``serviced_stages_for`` -- used by the fleet
  builder and the cluster provisioner so that fifty replicas of
  (T2, DLRM-RMC1, plan) cost one evaluation, not fifty.
- Quantized span memos -- ``span_for`` caches
  :meth:`PlanTimings.service_span_s` per (timings, query size) in the
  table the evaluator fills too: the latency-bounded probe reads the
  p99 span once per candidate plan, and ``perf_at`` the four
  percentile spans of the winning rate.

``clear_shared_caches()`` resets everything (tests use it to measure
hit rates deterministically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from repro.hardware.server import ServerType
    from repro.models.partition import PartitionedModel
    from repro.models.zoo import RecommendationModel
    from repro.plans import ExecutionPlan
    from repro.sim.evaluator import PlanTimings, ServerEvaluator
    from repro.sim.queries import QueryWorkload

__all__ = [
    "CacheStats",
    "PlanTimingsCache",
    "partition_key",
    "model_key",
    "shared_evaluator",
    "partitioned_for",
    "timings_for",
    "stages_for",
    "serviced_stages_for",
    "span_for",
    "shared_cache_stats",
    "clear_shared_caches",
]


@dataclass
class CacheStats:
    """Hit/miss counters for one memo table."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


def model_key(model: "RecommendationModel") -> tuple:
    """Content identity of a model: its full config plus variant.

    The config is a frozen dataclass, so two ``build_model`` calls (or
    a pickle round-trip across a process pool) produce equal keys,
    while models that merely share a display name cannot alias.
    """
    return (model.config, model.variant)


def partition_key(partitioned: "PartitionedModel") -> tuple:
    """Content identity of a partitioned model (explicit, hashable).

    Combines the model identity with everything the partitioning step
    depends on: the capacity budget it was sized for, the resulting hot
    set, and the access profile's hit rate.  No object identity is
    involved, so keys computed in different processes agree.
    """
    return (
        model_key(partitioned.model),
        partitioned.capacity_budget_bytes,
        partitioned.hot_rows_per_table,
        partitioned.hot_hit_rate,
    )


class PlanTimingsCache:
    """Memo table for :meth:`ServerEvaluator.plan_timings`.

    Keys combine :func:`partition_key` with the (hashable) workload and
    plan.  Only successful evaluations are cached -- infeasible plans
    re-raise their ``ValueError`` so error messages stay exact.

    Args:
        max_entries: Optional bound; inserting past it evicts the
            oldest entries (insertion order) first.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self._data: dict[tuple, Any] = {}
        self.max_entries = max_entries
        self.stats = CacheStats()

    @staticmethod
    def key(
        partitioned: "PartitionedModel",
        workload: "QueryWorkload",
        plan: "ExecutionPlan",
    ) -> tuple:
        return (partition_key(partitioned), workload, plan)

    def get(
        self,
        partitioned: "PartitionedModel",
        workload: "QueryWorkload",
        plan: "ExecutionPlan",
    ) -> "PlanTimings | None":
        timings = self._data.get(self.key(partitioned, workload, plan))
        if timings is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return timings

    def put(
        self,
        partitioned: "PartitionedModel",
        workload: "QueryWorkload",
        plan: "ExecutionPlan",
        timings: "PlanTimings",
    ) -> None:
        data = self._data
        data[self.key(partitioned, workload, plan)] = timings
        if self.max_entries is not None:
            while len(data) > self.max_entries:
                del data[next(iter(data))]  # oldest-first (insertion order)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.stats = CacheStats()


# ----------------------------------------------------------------------
# Content-keyed shared registry (fleet + provisioning)
# ----------------------------------------------------------------------

_EVALUATORS: dict[str, "ServerEvaluator"] = {}
_PARTITIONS: dict[tuple, "PartitionedModel"] = {}
_STAGES: dict[tuple, tuple] = {}
_RUNTIME: dict[tuple, tuple] = {}
_STATS = CacheStats()
_SPAN_STATS = CacheStats()


def shared_evaluator(server: "ServerType") -> "ServerEvaluator":
    """One default-configured evaluator per server type.

    Sharing the evaluator shares its :class:`PlanTimingsCache`, so every
    consumer of (server type, model, plan) timings hits the same memo.
    """
    from repro.sim.evaluator import ServerEvaluator

    evaluator = _EVALUATORS.get(server.name)
    if evaluator is None:
        evaluator = ServerEvaluator(server)
        _EVALUATORS[server.name] = evaluator
    return evaluator


def partitioned_for(
    server: "ServerType",
    model: "RecommendationModel",
    plan: "ExecutionPlan",
) -> "PartitionedModel":
    """The partitioned model a plan was searched with (memoized).

    GPU model-based plans partition against the device-memory budget
    divided by the plan's co-location degree; every other placement
    uses the unconstrained host split (whose ``Gs``/``Gd`` graphs are
    identical to the budgeted split's).
    """
    from repro.models.partition import partition_model
    from repro.plans import Placement

    if plan.placement is Placement.GPU_MODEL_BASED:
        if server.gpu is None:
            raise ValueError(f"{server.name} has no accelerator for {plan.describe()}")
        key = (model_key(model), server.name, plan.threads)
        if key not in _PARTITIONS:
            _PARTITIONS[key] = partition_model(
                model, server.gpu.memory_bytes, plan.threads
            )
        return _PARTITIONS[key]
    key = (model_key(model), None, 0)
    if key not in _PARTITIONS:
        _PARTITIONS[key] = partition_model(model)
    return _PARTITIONS[key]


def timings_for(
    server: "ServerType",
    model: "RecommendationModel",
    workload: "QueryWorkload",
    plan: "ExecutionPlan",
) -> "PlanTimings":
    """Closed-form timings for a (server type, model, plan) triple."""
    evaluator = shared_evaluator(server)
    partitioned = partitioned_for(server, model, plan)
    return evaluator.plan_timings(partitioned, workload, plan)


def stages_for(
    server: "ServerType",
    model: "RecommendationModel",
    workload: "QueryWorkload",
    plan: "ExecutionPlan",
) -> tuple:
    """DES stage-spec pipeline for a triple, memoized across replicas.

    Stage specs are immutable (per-replica queue state lives in the
    engines), so one tuple is safely shared by every replica of the
    same (server type, model, plan).
    """
    from repro.sim.server_sim import build_stages

    key = (server.name, model_key(model), workload, plan)
    stages = _STAGES.get(key)
    if stages is None:
        _STATS.misses += 1
        evaluator = shared_evaluator(server)
        partitioned = partitioned_for(server, model, plan)
        stages = tuple(build_stages(evaluator, partitioned, workload, plan))
        _STAGES[key] = stages
    else:
        _STATS.hits += 1
    return stages


def serviced_stages_for(
    server: "ServerType",
    model: "RecommendationModel",
    workload: "QueryWorkload",
    plan: "ExecutionPlan",
) -> tuple:
    """Runtime :class:`~repro.sim.event_core.ServicedStage` pipeline.

    Wraps :func:`stages_for` in the event core's memoizing stage
    records; because the tuple is shared across every replica of the
    triple, the quantized ``items -> service`` and ``size -> chunks``
    tables fill once per fleet rather than once per replica.
    """
    from repro.sim.event_core import ServicedStage

    key = (server.name, model_key(model), workload, plan)
    stages = _RUNTIME.get(key)
    if stages is None:
        stages = tuple(
            ServicedStage(spec) for spec in stages_for(server, model, workload, plan)
        )
        _RUNTIME[key] = stages
    return stages


def span_for(timings: "PlanTimings", query_size: int) -> float:
    """Memoized :meth:`PlanTimings.service_span_s`.

    Every ``perf_at`` on the same timings reads the spans of the same
    four percentile sizes; quantizing on (timings, size) turns them
    into dict hits.  The table lives on the timings instance (int keys,
    no re-hash of the stage tuple), so it is shared with the
    evaluator's own span lookups and garbage-collects with the timings
    object.
    """
    cache = timings.span_cache()
    span = cache.get(query_size)
    if span is None:
        _SPAN_STATS.misses += 1
        span = timings.service_span_s(query_size)
        cache[query_size] = span
    else:
        _SPAN_STATS.hits += 1
    return span


def shared_cache_stats() -> dict[str, CacheStats]:
    """Stats for the shared registries and each evaluator's memo."""
    out = {"stages": _STATS, "spans": _SPAN_STATS}
    for name, evaluator in _EVALUATORS.items():
        out[f"timings:{name}"] = evaluator.timings_cache.stats
    return out


def clear_shared_caches() -> None:
    """Reset the registry (evaluators, partitions, stages, spans, stats)."""
    global _STATS, _SPAN_STATS
    _EVALUATORS.clear()
    _PARTITIONS.clear()
    _STAGES.clear()
    _RUNTIME.clear()
    _STATS = CacheStats()
    _SPAN_STATS = CacheStats()
