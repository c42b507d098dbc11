"""Run one ``repro.cli`` invocation in this fresh interpreter and record it.

    python3 e2ebench/invoke.py RECORD MODE [--count] -- CLI_ARGS...

``run.py`` starts one of these per measured invocation, so every
sample pays what a CLI user pays: interpreter start, imports, cold
in-process memo caches and table profiling.  The report goes to this
process's stdout, as it would for a user.  After it is flushed, a JSON
record of monotonic-clock stamps and counters is written to RECORD;
``run.py`` stamped the clock just before it started this process.  It
also stops this process every 0.25 s to time a calibration, and turns
every stamp into reference-speed seconds in which the pauses count
nothing (see ``run.py``).

MODE is one of:

``plain``
    Only the setup/replay boundary is stamped: the first
    ``FleetSimulator.run`` or ``provision_fault_aware`` call ends set-up,
    and each ``FleetSimulator.run`` call's start and end are kept.
``materialise``
    As ``plain``, but a streamed arrival source is drawn into a list
    before each replay's start is stamped.  ``fleet.ingest_s`` is the
    difference in replay seconds between a ``plain`` and a
    ``materialise`` invocation on the same inputs.
``trace``
    A span (name, start, end, parent) around every layer entry point the
    CLI calls, wrapped from here; nothing under ``src/`` changes.  Spans
    stay in memory and go into the record at the end, with the counters
    read from the layers' own results.

``--count`` adds the number of arrivals fed to the replays, counted
after the report is out (a streamed source is drained once more).

The module is entered through ``repro.cli`` on purpose: in a fresh
interpreter ``import repro.sim`` or ``import repro.traces`` alone fails
on a circular import between the two packages, while ``repro.cli``
imports them in an order that works -- the order users get.
"""

from __future__ import annotations

import functools
import json
import logging
import resource
import sys
import time
import traceback

now = time.monotonic


def rebind(owner, name: str, make) -> None:
    """Replace ``owner.name`` by ``make(original)``.

    A module-level function is also replaced in every ``repro`` module
    that imported it by name (``repro.cli`` calls ``build_fleet`` and
    ``provision_fault_aware`` through its own globals).
    """
    original = getattr(owner, name)
    wrapped = functools.wraps(original)(make(original))
    setattr(owner, name, wrapped)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").split(".")[0] == "repro"
            and getattr(module, name, None) is original
        ):
            setattr(module, name, wrapped)


class Recorder:
    """Stamps, spans and counters of one invocation."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.t_setup: float | None = None
        self.replays: list[list[float]] = []  # [start, end] per replay
        self.replayed: list = []  # each FleetSimulator.run's arrival source
        self.results: list = []
        self.outcomes: list = []
        self.sources: list = []  # FleetArrivals the CLI iterated
        self.vector_runs = 0
        self.fallbacks: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def end_setup(self) -> None:
        if self.t_setup is None:
            self.t_setup = now()

    def span(self, name: str):
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, now(), None, stack[-1] if stack else None])
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = now()

            return wrapper

        return make

    def replay(self, run):
        materialise = self.mode == "materialise"
        keep_results = self.mode == "trace"

        def wrapper(sim, trace, *args, **kwargs):
            if materialise and not isinstance(trace, (list, tuple)):
                trace = list(trace)
            self.end_setup()
            start = now()
            try:
                result = run(sim, trace, *args, **kwargs)
            finally:
                self.replays.append([start, now()])
            self.replayed.append(trace)
            if keep_results:
                self.results.append(result)
            return result

        return wrapper

    def provisioning(self, search):
        keep = self.mode == "trace"

        def wrapper(*args, **kwargs):
            self.end_setup()
            outcome = search(*args, **kwargs)
            if keep:
                self.outcomes.append(outcome)
            return outcome

        return wrapper

    def vector_entry(self, fn):
        def wrapper(*args, **kwargs):
            self.vector_runs += 1
            return fn(*args, **kwargs)

        return wrapper

    def remember_source(self, iterate):
        def wrapper(source):
            if not any(s is source for s in self.sources):
                self.sources.append(source)
            return iterate(source)

        return wrapper


class FallbackLog(logging.Handler):
    """Keeps the engine's ``core='auto'`` fallback records."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__(logging.INFO)
        self.recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "falling back" in message:
            self.recorder.fallbacks.append(message)


def instrument(rec: Recorder) -> None:
    """Install the wrappers the record's mode asks for."""
    from repro.fleet import engine, provisioning

    engine_log = logging.getLogger(engine.__name__)
    engine_log.setLevel(logging.INFO)
    engine_log.addHandler(FallbackLog(rec))
    rebind(engine.FleetSimulator, "run", rec.replay)
    rebind(provisioning, "provision_fault_aware", rec.provisioning)
    if rec.mode != "trace":
        return

    # Imported here, not by the CLI up front: the cost is the
    # instrumentation's own and lands in its span, not in cli.imports.
    from repro import cli
    from repro.cluster.schedulers import HerculesClusterScheduler
    from repro.fleet.autoscaler import PredictiveAutoscaler, ReactiveAutoscaler
    from repro.fleet.report import FleetResult
    from repro.obs.probe import FleetProbe
    from repro.scheduling.profiler import OfflineProfiler
    from repro.sim import fast_core
    from repro.traces.arrivals import FleetArrivals

    for entry in ("run_vectorized", "run_vectorized_faults", "run_epoch"):
        rebind(fast_core, entry, rec.vector_entry)
    rebind(FleetArrivals, "__iter__", rec.remember_source)
    for owner, name, span in (
        (cli, "main", "cli.main"),
        (OfflineProfiler, "profile", "scheduling.profile"),
        (OfflineProfiler, "profile_pair", "scheduling.profile_pair"),
        (HerculesClusterScheduler, "allocate", "cluster.allocate"),
        (engine, "build_fleet", "fleet.build"),
        (engine.FleetSimulator, "run", "fleet.run"),
        (fast_core, "run_vectorized", "sim.fast_core"),
        (fast_core, "run_vectorized_faults", "sim.fast_core"),
        (fast_core, "run_epoch", "sim.fast_core"),
        (ReactiveAutoscaler, "tick", "fleet.autoscaler.tick"),
        (PredictiveAutoscaler, "tick", "fleet.autoscaler.tick"),
        (provisioning, "provision_fault_aware", "fleet.provisioning"),
        (FleetProbe, "export_metrics", "obs.export"),
        (FleetProbe, "export_trace", "obs.export"),
        (FleetResult, "to_dict", "fleet.report"),
        (FleetResult, "format", "fleet.report"),
    ):
        rebind(owner, name, rec.span(span))


def run_cli(main, argv: list[str]) -> tuple[int, str | None]:
    """``main(argv)`` as the process exit code, plus any traceback."""
    try:
        return int(main(argv) or 0), None
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0, None
        return 1, str(exc.code)
    except Exception:
        return 1, traceback.format_exc()


def drain(source) -> int:
    """Arrivals in ``source``, drawn one by one."""
    count = 0
    for _ in source:
        count += 1
    return count


def counters(rec: Recorder, argv: list[str]) -> dict:
    """Per-layer counts, read after the report from the layers' results."""
    from repro.sim.plan_cache import shared_cache_stats

    cache = shared_cache_stats().values()
    results = rec.results
    out = {
        "plan_cache_hits": sum(s.hits for s in cache),
        "plan_cache_misses": sum(s.misses for s in cache),
        "events": sum(r.events for r in results),
        "fault_events": sum(len(r.fault_events) for r in results),
        "failed": sum(r.total_failed for r in results),
        "retried": sum(r.total_retried for r in results),
        "hedged": sum(r.total_hedged for r in results),
        "scale_events": sum(len(r.scale_events) for r in results),
        "evaluations": sum(len(o.evaluations) for o in rec.outcomes),
        "provision_replays": sum(o.replays for o in rec.outcomes),
        "metric_rows": 0,
        "arrivals": 0,
        "arrival_drains": [],  # [start, end] per source drained
    }
    for source in rec.sources:
        start = now()
        out["arrivals"] += drain(source)
        out["arrival_drains"].append([start, now()])
    if "--metrics-out" in argv:
        with open(argv[argv.index("--metrics-out") + 1], "rb") as fh:
            out["metric_rows"] = sum(1 for _ in fh)
    return out


def replayed_queries(rec: Recorder) -> int:
    """Arrivals fed to all replays (a repeated source counted each time)."""
    return sum(
        len(trace) if isinstance(trace, (list, tuple)) else drain(trace)
        for trace in rec.replayed
    )


def main() -> int:
    record_path, mode, *rest = sys.argv[1:]
    split = rest.index("--")
    count = "--count" in rest[:split]
    argv = rest[split + 1:]

    import repro.cli

    t_imported = now()
    rec = Recorder(mode)
    instrument(rec)
    t_instrumented = now()
    # Looked up after instrument(): in trace mode cli.main is wrapped.
    code, error = run_cli(repro.cli.main, argv)
    sys.stdout.flush()
    t_report = now()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "error": error,
        "t_imported": t_imported,
        "t_instrumented": t_instrumented,
        "t_setup": rec.t_setup,
        "t_report": t_report,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "replays": rec.replays,
        "replay_calls": len(rec.replayed),
        "streamed": any(
            not isinstance(t, (list, tuple)) for t in rec.replayed
        ),
        "fallbacks": rec.fallbacks,
    }
    if error is None:
        if count:
            record["queries"] = replayed_queries(rec)
        if mode == "trace":
            record["vector_runs"] = rec.vector_runs
            record["spans"] = rec.spans
            record["counters"] = counters(rec, argv)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
