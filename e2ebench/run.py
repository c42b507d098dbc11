"""End-to-end benchmark of ``repro.cli`` invocations (see README.md).

    python3 e2ebench/run.py --workload day-rr --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --seconds 15 --trace 1   # every workload in turn
    python3 e2ebench/run.py --self-test

Each sample is one CLI invocation in a fresh interpreter, started by
``invoke.py`` with ``--jobs 1``.  Its seconds are reference-speed
seconds: wall seconds scaled by the host's speed, which the parent
measures with a fixed calibration while the invocation is paused (see
``Calibration``).  ``--trace 0`` repeats the untraced
invocation for ``--seconds`` (at least twice) and reports the medians of
the end-to-end metrics.  ``--trace 1`` makes one untraced, one traced
and, for a streamed arrival source, one pre-materialised invocation, and
reports the per-layer metrics and the tracing overhead.  Every
invocation's report is checked.  Each workload's JSON result follows
its human-readable lines, so with one workload it is the last line of
stdout; a record of the run (and the spans, when traced) is written
under ``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

now = time.monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"

#: One run (all its invocations) must end well inside three minutes.
RUN_LIMIT_S = 165.0
#: Untraced runs take at least this many samples, so the report digest
#: is compared across repetitions and set-up is measured more than once.
MIN_SAMPLES = 2
#: ``provision-faults`` runs the program at this seed whatever the
#: benchmark seed: the seed draws the random fault realisation, and
#: with it how many replays the R search makes (2 to 8 over seeds 0-5,
#: 5 s to 17 s), so across seeds total_s would measure the seed.
PINNED_SEED = 0
#: The parent stops a running invocation this often to time a calibration.
PAUSE_EVERY_S = 0.25
#: The calibration's median time on the 2-vCPU Xeon host the bounds were
#: set on, so that reference seconds read close to wall seconds there.
REFERENCE_CALIBRATION_S = 0.0175

DAY = ["fleet", "--servers", "50", "--policy", "rr", "--duration", "30"]
DAY_FAULTS = "domain:size=5;crash@8:dom1+4,slow@16:7*2.0+4,crash@22:3+3"
TINY_DAY = ["fleet", "--servers", "10", "--policy", "rr", "--duration", "3"]
TINY_FAULTS = "domain:size=2;crash@0.8:dom1+0.4,slow@1.6:2*2.0+0.4,crash@2.2:1+0.3"
METRICS = "{metrics}"  # replaced by a path under the run's work directory


def telemetry(faults: str) -> list[str]:
    return [
        "--autoscale", "--autoscale-mode", "predictive",
        "--faults", faults,
        "--carbon", "diurnal:base=350,swing=150",
        "--metrics-out", METRICS,
    ]


def provision(servers: str, *extra: str) -> list[str]:
    return [
        "provision-fault-aware", "--servers", servers, "--models", "DLRM-RMC1",
        *extra,
        "--faults", "domain:size=2;random:domain_mtbf=6,domain_mttr=0.5",
        "--retries", "2", "--hedge-ms", "15", "--target-availability", "0.999",
    ]


@dataclass(frozen=True)
class Workload:
    argv: list[str]
    tiny: list[str]  # the same shape at self-test size
    seeded: bool = True  # False: the program runs at PINNED_SEED
    reference_core: str | None = None  # report must equal this core's


WORKLOADS = {
    "day-rr": Workload(
        DAY,
        ["fleet", "--servers", "6", "--policy", "rr", "--duration", "1"],
        reference_core="python",
    ),
    "day-rr-telemetry": Workload(
        DAY + telemetry(DAY_FAULTS), TINY_DAY + telemetry(TINY_FAULTS)
    ),
    "provision-faults": Workload(
        provision("24"), provision("6", "--duration", "2"), seeded=False
    ),
    "hetero-p2c": Workload(
        [
            "fleet", "--server-types", *(f"T{i}" for i in range(1, 11)),
            "--models", "DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3", "MT-WnD",
            "DIN", "DIEN", "--servers", "120", "--duration", "6",
        ],
        [
            "fleet", "--server-types", "T1", "T5", "--models", "DLRM-RMC1",
            "DIN", "--servers", "8", "--duration", "1",
        ],
    ),
}

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "sim_queries_per_s": "queries/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.imports_s": "s",
    "scheduling.profile_s": "s",
    "scheduling.pairs": "count",
    "scheduling.pairs_per_s": "1/s",
    "sim.plan_cache.hits": "count",
    "sim.plan_cache.misses": "count",
    "sim.plan_cache.hit_ratio": "ratio",
    "cluster.allocate_s": "s",
    "cluster.allocate_calls": "count",
    "fleet.build_s": "s",
    "traces.arrivals_s": "s",
    "traces.queries": "count",
    "traces.queries_per_s": "1/s",
    "fleet.run_s": "s",
    "fleet.run.self_s": "s",
    "fleet.run_calls": "count",
    "fleet.ingest_s": "s",
    "fleet.events": "count",
    "fleet.events_per_s": "1/s",
    "fleet.vector_runs": "count",
    "fleet.core_fallbacks": "count",
    "sim.fast_core_s": "s",
    "fleet.autoscaler.tick_s": "s",
    "fleet.autoscaler.ticks": "count",
    "fleet.autoscaler.scale_events": "count",
    "fleet.faults.events": "count",
    "fleet.faults.failed": "count",
    "fleet.faults.retried": "count",
    "fleet.faults.hedged": "count",
    "fleet.provisioning.s": "s",
    "fleet.provisioning.evaluations": "count",
    "fleet.provisioning.replays": "count",
    "fleet.provisioning.replay_ratio": "ratio",
    "obs.export_s": "s",
    "obs.metric_rows": "count",
    "fleet.report_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Invocations and their output check


class Calibration:
    """Fixed work whose time tracks the host's speed at the moment.

    The host's speed swings by tens of percent within seconds, and a
    CLI invocation slows with it, CPU seconds included.  So the parent times
    this work before an invocation, while it is paused every
    PAUSE_EVERY_S, and after it, and scales each stretch of the
    invocation by REFERENCE_CALIBRATION_S over the calibrations around
    it (``Clock``).  The work is the two kinds the program does, a
    dict-heavy Python loop and a NumPy sort-and-scan, and uses nothing
    of the program, so a faster program still reads faster.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._data = numpy.random.default_rng(0).random(75_000)
        self()  # the first call pays one-off allocations

    def __call__(self) -> float:
        np, data = self._np, self._data
        start = now()
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(25_000):
            key = i % 1031
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += table[key] / (key + 1)
        order = np.argsort(data, kind="stable")
        np.maximum.accumulate(np.cumsum(data[order]) - data)
        return now() - start


@dataclass(frozen=True)
class Clock:
    """Seconds an invocation ran from its start up to a monotonic stamp.

    The invocation runs in segments between the parent's pauses, and
    paused time counts nothing.  A segment's seconds are multiplied by
    its scale: 1 for wall seconds, or REFERENCE_CALIBRATION_S over the
    mean of the two calibrations around it for reference seconds.
    """

    segments: list[tuple[float, float, float]]  # (start, end, scale)

    def __call__(self, t: float) -> float:
        total = 0.0
        for start, end, scale in self.segments:
            if t <= start:
                break
            total += (min(t, end) - start) * scale
        return total


def clocks(
    t0: float, stops: list[float], conts: list[float], cals: list[float]
) -> tuple[Clock, Clock]:
    """Reference and wall clocks of an invocation started at ``t0``.

    ``stops``/``conts`` are the pauses; ``cals`` holds the calibration
    before the start, one per pause and one after the end.
    """
    spans = list(zip([t0, *conts], [*stops, math.inf]))
    speeds = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    ref = [(a, b, REFERENCE_CALIBRATION_S / c) for (a, b), c in zip(spans, speeds)]
    return Clock(ref), Clock([(a, b, 1.0) for a, b in spans])


@dataclass
class Sample:
    """One invocation as the parent saw it."""

    role: str  # "measure", "reference", "trace" or "materialise"
    t0: float  # monotonic stamp just before the process started
    exit: int | None
    record: dict | None
    ref: Clock  # reference seconds since t0
    wall: Clock  # wall seconds since t0, pauses excluded
    calibration_s: float  # median calibration time around the invocation
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.ref(self.record["t_report"])

    @property
    def setup_s(self) -> float:
        return self.ref(self.record["t_setup"])

    @property
    def replay_s(self) -> float:
        return sum(self.ref(b) - self.ref(a) for a, b in self.record["replays"])

    def core(self) -> str:
        rec = self.record or {}
        fallbacks = rec.get("fallbacks")
        if fallbacks:
            reasons = " | ".join(dict.fromkeys(fallbacks))
            return f"python (auto fell back on {len(fallbacks)} replays): {reasons}"
        if self.role == "reference":
            return "python (reference)"
        return "vector" if rec.get("replay_calls") else "none"

    def summary(self) -> dict:
        rec = self.record or {}
        ok = not self.problems
        return {
            "role": self.role,
            "exit": self.exit,
            "total_s": self.total_s if ok else None,
            "setup_s": self.setup_s if ok else None,
            "replay_s": self.replay_s if ok else None,
            "wall_total_s": self.wall(rec["t_report"]) if ok else None,
            "wall_setup_s": self.wall(rec["t_setup"]) if ok else None,
            "calibration_s": self.calibration_s,
            "replay_calls": rec.get("replay_calls"),
            "queries": rec.get("queries"),
            "peak_rss_kb": rec.get("maxrss_kb"),
            "cpu_s": rec.get("cpu_s"),
            "core": self.core(),
            "digest": self.digest,
            "problems": self.problems,
        }


def check_fleet_doc(doc: dict, where: str) -> list[str]:
    problems = []
    for name, m in doc["per_model"].items():
        if not m["p50_ms"] <= m["p95_ms"] <= m["p99_ms"]:
            problems.append(f"{where} {name}: p50 <= p95 <= p99 fails")
        for key in ("completed", "dropped", "failed", "retried", "hedged"):
            if m[key] < 0:
                problems.append(f"{where} {name}: {key} {m[key]} < 0")
    counts = dict(doc["totals"], events=doc["events"])
    problems += [f"{where}: {k} {v} < 0" for k, v in counts.items() if v < 0]
    if not 0.0 <= doc["availability"] <= 1.0:
        problems.append(f"{where}: availability {doc['availability']}")
    return problems


def check_report(text: bytes, provisioning: bool) -> list[str]:
    """Property checks on one ``--json`` report."""
    try:
        return check_doc(json.loads(text), provisioning)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not the expected --json document: {exc!r}"]


def check_doc(doc: dict, provisioning: bool) -> list[str]:
    if not provisioning:
        return check_fleet_doc(doc, "report")
    problems = check_fleet_doc(doc["result"], "result")
    problems += check_fleet_doc(doc["baseline_result"], "baseline_result")
    for ev in doc["evaluations"]:
        for key in ("service_availability", "uptime_availability"):
            if not 0.0 <= ev[key] <= 1.0:
                problems.append(f"evaluation R={ev['r']}: {key} {ev[key]}")
    if doc["replays"] < 0:
        problems.append(f"replays {doc['replays']} < 0")
    if not doc["converged"]:
        problems.append("provisioning search did not converge")
    return problems


class Run:
    """The invocations of one benchmark run, in one work directory."""

    def __init__(self, argv: list[str], work: Path) -> None:
        self.argv = argv
        self.work = work
        self.deadline = now() + RUN_LIMIT_S
        self.samples: list[Sample] = []
        self.calibrate = Calibration()

    def invoke(self, argv: list[str], role: str, count: bool = False) -> Sample:
        n = len(self.samples)
        record_path = self.work / f"record-{n}.json"
        stdout_path = self.work / f"stdout-{n}.json"
        stderr_path = self.work / f"stderr-{n}.txt"
        mode = role if role in ("trace", "materialise") else "plain"
        cmd = [sys.executable, str(HERE / "invoke.py"), str(record_path), mode]
        cmd += ["--count"] if count else []
        cmd += ["--", *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cals = [self.calibrate()]
        stops: list[float] = []
        conts: list[float] = []
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = now()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
            try:
                code = self.wait(proc, stops, conts, cals)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        cals.append(self.calibrate())
        record = None
        if record_path.exists():
            record = json.loads(record_path.read_text())
        ref, wall = clocks(t0, stops, conts, cals)
        sample = Sample(role, t0, code, record, ref, wall, statistics.median(cals))
        self.samples.append(sample)
        if code is None:
            sample.problems.append(f"timed out after {RUN_LIMIT_S:.0f} s")
        elif code != 0 or record is None or record["error"]:
            tail = stderr_path.read_text(errors="replace").strip()[-800:]
            sample.problems.append(f"exit {code}: {tail}")
        else:
            text = stdout_path.read_bytes()
            sample.digest = hashlib.sha256(text).hexdigest()
            sample.problems += check_report(
                text, provisioning=self.argv[0] == "provision-fault-aware"
            )
            if record["t_setup"] is None:
                sample.problems.append("no replay ran")
            first = next(s.digest for s in self.samples if s.digest)
            if sample.digest != first:
                sample.problems.append(
                    f"report differs from the run's first report ({first[:12]})"
                )
        return sample

    def wait(
        self,
        proc: subprocess.Popen,
        stops: list[float],
        conts: list[float],
        cals: list[float],
    ) -> int | None:
        """Exit code of ``proc``, or None at the deadline.

        Every PAUSE_EVERY_S the process is stopped, the calibration is
        timed, and the process continues.
        """
        while now() < self.deadline:
            try:
                return proc.wait(timeout=min(PAUSE_EVERY_S, self.deadline - now()))
            except subprocess.TimeoutExpired:
                pass
            proc.send_signal(signal.SIGSTOP)
            stops.append(now())
            cals.append(self.calibrate())
            conts.append(now())
            proc.send_signal(signal.SIGCONT)
        return None

    @property
    def out_of_time(self) -> bool:
        return now() >= self.deadline

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.problems)


# ----------------------------------------------------------------------
# Metrics


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Median of each end-to-end metric over the measured samples."""
    queries = samples[0].record["queries"]
    values: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for s in samples:
        values["total_s"].append(s.total_s)
        values["setup_s"].append(s.setup_s)
        values["sim_queries_per_s"].append(queries / s.replay_s)
        values["peak_rss_mb"].append(s.record["maxrss_kb"] / 1024.0)
    return {name: statistics.median(v) for name, v in values.items()}


def span_tree(sample: Sample) -> list[dict]:
    """The traced invocation's spans, rooted at the interpreter start.

    Times are reference seconds since ``t0``.  ``invocation`` spans the whole
    wait, ``cli.imports`` interpreter start up to ``import repro.cli``
    done, ``e2ebench.instrument`` the wrapping itself; the wrapped
    layers nest under ``cli.main``.  ``self_s`` is a span's duration
    minus what its children cover.
    """
    rec, clock = sample.record, sample.ref
    spans = [
        {"name": "invocation", "start_s": 0.0, "end_s": clock(rec["t_report"]), "parent": None},
        {"name": "cli.imports", "start_s": 0.0, "end_s": clock(rec["t_imported"]), "parent": 0},
        {
            "name": "e2ebench.instrument",
            "start_s": clock(rec["t_imported"]),
            "end_s": clock(rec["t_instrumented"]),
            "parent": 0,
        },
    ]
    base = len(spans)
    for name, start, end, parent in rec["spans"]:
        spans.append({
            "name": name,
            "start_s": clock(start),
            "end_s": clock(end),
            "parent": 0 if parent is None else parent + base,
        })
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_s"] - s["start_s"]
    for s, child_s in zip(spans, covered):
        s["self_s"] = s["end_s"] - s["start_s"] - child_s
    return spans


def check_spans(spans: list[dict]) -> list[str]:
    """Children lie inside their parent and do not overlap; self >= 0."""
    problems = []
    last_end: dict[int, float] = {}
    eps = 1e-9
    for i, s in enumerate(spans):
        if s["end_s"] < s["start_s"]:
            problems.append(f"span {i} {s['name']} ends before it starts")
        if s["self_s"] < -eps:
            problems.append(f"span {i} {s['name']} self time {s['self_s']}")
        p = s["parent"]
        if p is None:
            continue
        parent = spans[p]
        if not (
            parent["start_s"] - eps <= s["start_s"]
            and s["end_s"] <= parent["end_s"] + eps
        ):
            problems.append(f"span {i} {s['name']} escapes parent {parent['name']}")
        if s["start_s"] < last_end.get(p, -math.inf) - eps:
            problems.append(f"span {i} {s['name']} overlaps a sibling")
        last_end[p] = s["end_s"]
    return problems


def layer_metrics(
    base: Sample, traced: Sample, materialised: Sample | None, spans: list[dict]
) -> dict[str, float]:
    """Per-layer metrics of a traced run."""

    def outermost(name: str) -> list[dict]:
        picked = []
        for s in spans:
            p = s["parent"]
            while p is not None and spans[p]["name"] != name:
                p = spans[p]["parent"]
            if s["name"] == name and p is None:
                picked.append(s)
        return picked

    def seconds(name: str) -> float:
        return sum(s["end_s"] - s["start_s"] for s in outermost(name))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    c = traced.record["counters"]
    profile_s = seconds("scheduling.profile")
    pairs = calls("scheduling.profile_pair")
    lookups = c["plan_cache_hits"] + c["plan_cache_misses"]
    run_s = seconds("fleet.run")
    evaluations = c["evaluations"]
    arrivals_s = sum(traced.ref(b) - traced.ref(a) for a, b in c["arrival_drains"])
    ingest_s = 0.0  # a list source was materialised during set-up
    if materialised is not None:
        ingest_s = base.replay_s - materialised.replay_s
    return {
        "cli.imports_s": traced.ref(traced.record["t_imported"]),
        "scheduling.profile_s": profile_s,
        "scheduling.pairs": pairs,
        "scheduling.pairs_per_s": share(pairs, profile_s),
        "sim.plan_cache.hits": c["plan_cache_hits"],
        "sim.plan_cache.misses": c["plan_cache_misses"],
        "sim.plan_cache.hit_ratio": share(c["plan_cache_hits"], lookups),
        "cluster.allocate_s": seconds("cluster.allocate"),
        "cluster.allocate_calls": calls("cluster.allocate"),
        "fleet.build_s": seconds("fleet.build"),
        "traces.arrivals_s": arrivals_s,
        "traces.queries": c["arrivals"],
        "traces.queries_per_s": share(c["arrivals"], arrivals_s),
        "fleet.run_s": run_s,
        "fleet.run.self_s": sum(s["self_s"] for s in outermost("fleet.run")),
        "fleet.run_calls": calls("fleet.run"),
        "fleet.ingest_s": ingest_s,
        "fleet.events": c["events"],
        "fleet.events_per_s": share(c["events"], run_s),
        "fleet.vector_runs": traced.record["vector_runs"],
        "fleet.core_fallbacks": len(traced.record["fallbacks"]),
        "sim.fast_core_s": seconds("sim.fast_core"),
        "fleet.autoscaler.tick_s": seconds("fleet.autoscaler.tick"),
        "fleet.autoscaler.ticks": calls("fleet.autoscaler.tick"),
        "fleet.autoscaler.scale_events": c["scale_events"],
        "fleet.faults.events": c["fault_events"],
        "fleet.faults.failed": c["failed"],
        "fleet.faults.retried": c["retried"],
        "fleet.faults.hedged": c["hedged"],
        "fleet.provisioning.s": seconds("fleet.provisioning"),
        "fleet.provisioning.evaluations": evaluations,
        "fleet.provisioning.replays": c["provision_replays"],
        "fleet.provisioning.replay_ratio": share(c["provision_replays"], evaluations),
        "obs.export_s": seconds("obs.export"),
        "obs.metric_rows": c["metric_rows"],
        "fleet.report_s": seconds("fleet.report"),
        "trace.overhead_s": traced.total_s - base.total_s,
        "trace.overhead_ratio": traced.total_s / base.total_s,
    }


# ----------------------------------------------------------------------
# One benchmark run


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result document and the run record."""
    wl = WORKLOADS[name]
    work = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics_out = str(work / "metrics.jsonl")
    argv = [metrics_out if a == METRICS else a for a in (wl.tiny if tiny else wl.argv)]
    argv += ["--json", "--jobs", "1", "--seed", str(seed if wl.seeded else PINNED_SEED)]
    run = Run(argv, work)
    try:
        if wl.reference_core:
            run.invoke(argv + ["--core", wl.reference_core], "reference")
        spans: list[dict] = []
        metrics: dict[str, float] = {}
        if traced:
            base = run.invoke(argv, "measure", count=True)
            trace = run.invoke(argv, "trace")
            mat = None
            if not base.problems and base.record["streamed"]:
                mat = run.invoke(argv, "materialise")
            if run.failed == 0:
                spans = span_tree(trace)
                trace.problems += check_spans(spans)
            if run.failed == 0:  # spans that do not nest fail the run too
                metrics = layer_metrics(base, trace, mat, spans)
        else:
            start = now()
            measured: list[Sample] = []
            while not run.out_of_time and (
                len(measured) < MIN_SAMPLES or now() - start < seconds
            ):
                measured.append(run.invoke(argv, "measure", count=not measured))
            good = [s for s in measured if not s.problems]
            if good and measured[0] in good:
                metrics = end_to_end(good)
                if any(s.record["replay_calls"] != good[0].record["replay_calls"] for s in good):
                    good[0].problems.append("replay count differs between repetitions")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "argv": argv,
        "samples": [s.summary() for s in run.samples],
        "attempted": len(run.samples),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "spans": spans,
    }


def report(doc: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    measured = [s for s in doc["samples"] if s["role"] == "measure" and not s["problems"]]
    for s in doc["samples"]:
        for problem in s["problems"]:
            print(f"{doc['workload']}: {s['role']} invocation failed: {problem}", file=sys.stderr)
    for name, m in doc["metrics"].items():
        n = f"  (median of {len(measured)})" if not doc["trace"] else ""
        print(f"{doc['workload']:<17} {name:<32} {m['value']:>14.6g} {m['unit']}{n}")
    print(
        f"{doc['workload']:<17} {'error_rate':<32} "
        f"{share(doc['failed'], doc['attempted']):>14.6g} fraction"
        f"  ({doc['failed']} of {doc['attempted']} invocations)"
    )
    if measured and not doc["trace"]:
        wall = {
            k: statistics.median(s[k] for s in measured)
            for k in ("wall_total_s", "wall_setup_s", "calibration_s")
        }
        print(
            f"{doc['workload']:<17} wall seconds: total {wall['wall_total_s']:.4g} s, "
            f"setup {wall['wall_setup_s']:.4g} s; calibration {wall['calibration_s']:.4g} s "
            f"(reference {REFERENCE_CALIBRATION_S} s)"
        )
    cores = sorted({s["core"] for s in doc["samples"]})
    print(f"{doc['workload']:<17} core: {'; '.join(cores)}")
    complete = set(doc["metrics"]) == set(PER_LAYER if doc["trace"] else END_TO_END)
    print(json.dumps({
        "correct": doc["failed"] == 0 and complete,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))


def self_test() -> int:
    """A tiny-size traced and untraced pass over every workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for traced in (False, True):
            doc = measure(name, seed=1, seconds=0.0, traced=traced, tiny=True)
            where = f"{name} trace={int(traced)}"
            problems += [f"{where}: {p}" for s in doc["samples"] for p in s["problems"]]
            got = {k: m["unit"] for k, m in doc["metrics"].items()}
            if got != want[int(traced)]:
                problems.append(f"{where}: metrics/units {got} != {want[int(traced)]}")
            if traced:  # measure() already failed any span that does not nest
                spans = doc["spans"]
                if not any(s["parent"] is not None and spans[s["parent"]]["parent"] is not None for s in spans):
                    problems.append(f"{where}: no span nests below cli.main")
                if "trace.overhead_s" not in doc["metrics"]:
                    problems.append(f"{where}: tracing overhead not reported")
            print(f"self-test {where}: {len(doc['samples'])} invocations", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=tuple(WORKLOADS), help="default: each in turn"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # Terminated, a run still kills and reaps the invocation it started
    # (which may be stopped for a calibration) on its way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"e2ebench: {SRC / 'repro' / 'cli.py'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Users run with compiled bytecode; compile once, outside any timing.
    compileall.compile_dir(str(SRC), quiet=1)
    # The calibration must time the CPU the invocation runs on; the
    # invocations inherit this affinity (and size their thread pools by it).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.self_test:
        return self_test()
    complete = True
    OUT.mkdir(exist_ok=True)
    for name in [args.workload] if args.workload else WORKLOADS:
        doc = measure(name, args.seed, args.seconds, bool(args.trace))
        record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(doc, indent=1))
        report(doc)
        complete = complete and bool(doc["metrics"])
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
