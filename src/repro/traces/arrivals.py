"""Arrival processes: first-class workload-traffic models.

Every consumer in the repo used to hard-code piecewise-Poisson arrivals
materialized into one sorted query list.  This module makes the arrival
process itself a pluggable object: a :class:`ArrivalProcess` describes
*how* traffic arrives (steady Poisson, Markov-modulated bursts, diurnal
ramps, superpositions), and ``stream_batches()`` lazily yields the
concrete time-sorted arrivals as numpy columns -- one segment at a
time, so a multi-million-query replay never holds the whole trace in
memory.  ``stream()`` is the row view of the same draws: one
:class:`~repro.sim.queries.Query` record per arrival.

Two shapes flow through the repo:

- single-model streams (``Iterator[Query]``) feed the single-node DES;
- multi-model streams (``Iterator[(model_name, Query)]``) feed the
  fleet engine.  :class:`FleetArrivals` merges per-model processes into
  one lazily-sorted stream and is *re-iterable*: each ``iter()``
  restarts the replay, which is what lets the fault-aware provisioner
  replay the same traffic at every candidate ``R``.  Its
  ``stream_batches()`` yields the same merge as columns (with a model
  code column), which the vectorized fleet core ingests without ever
  building a per-query object.

Bit-compatibility: :class:`PiecewisePoissonProcess` reproduces the
legacy ``repro.sim.loadgen`` draw sequence exactly (same per-segment
seeds, same vectorized numpy draws), and :class:`FleetArrivals` over
such processes reproduces the legacy ``build_fleet_trace`` merge order
element-for-element -- ``tests/test_perf_equivalence.py`` pins both
with ``==`` on floats.  The columnar merge keeps the tie order of a
stable ``heapq.merge`` over the per-stream rows: by arrival time, then
stream index, then position in the stream (``tests/test_traces.py``
pins it against a copy of the heap merge).

HPC benchmarking practice (RZBENCH; the Broadwell/Cascade Lake
characterizations) warns that synthetic-only inputs flatter
steady-state designs; :mod:`repro.traces.recorded` adds measured-trace
replay on the same protocol.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from repro.sim.queries import Query, QueryWorkload

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "PiecewisePoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "SuperposedProcess",
    "FleetArrivals",
    "poisson_segment",
    "batch_rows",
    "MODEL_SEED_STRIDE",
]

#: Per-model seed offset stride the fleet trace builder has always used
#: (models in sorted-name order draw from disjoint seed lanes).
MODEL_SEED_STRIDE = 7919

#: Largest expected arrival count one segment may draw.  Above it the
#: four per-query columns alone need tens of GiB, so the draw is
#: refused with a ValueError instead of a numpy allocation failure.
MAX_SEGMENT_ARRIVALS = 2**31

#: Rows per slice when a merged batch is turned into ``(model, Query)``.
_ROW_SLICE = 4096

#: One batch of arrivals as columns: ``(arrival_s, size, pooling_scale)``
#: (float64, int64, float64), sorted by arrival time.
Batch = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_expected(rate_qps: float, duration_s: float, where: str) -> float:
    """``rate_qps * duration_s``, refused above :data:`MAX_SEGMENT_ARRIVALS`."""
    expected = rate_qps * duration_s
    if expected > MAX_SEGMENT_ARRIVALS:
        raise ValueError(
            f"{where} expects {expected:.4g} arrivals ({rate_qps:.4g} qps x "
            f"{duration_s:.4g} s); one segment draws at most 2**31 -- lower "
            "the rate (level/qps/noise) or the duration"
        )
    return expected


def _draw_columns(
    workload: QueryWorkload,
    rng: np.random.Generator,
    count: int,
    start_s: float,
    duration_s: float,
) -> Batch:
    """The per-query draws of one segment, in the pinned RNG order:
    sorted uniform offsets, sizes, then gamma pooling factors."""
    times = np.sort(rng.uniform(0.0, duration_s, size=count)) + start_s
    sizes = workload.size_dist.sample(rng, count)
    if workload.pooling_cv > 0:
        shape = 1.0 / workload.pooling_cv**2
        pooling = np.maximum(rng.gamma(shape, 1.0 / shape, size=count), 1e-3)
    else:
        pooling = np.ones(count)
    return times, sizes, pooling


def batch_rows(batch: Batch, first_id: int = 0) -> Iterator[Query]:
    """``Query`` rows of one batch, ids consecutive from ``first_id``."""
    times, sizes, pooling = batch
    return _queries(
        range(first_id, first_id + len(times)),
        times.tolist(),
        sizes.tolist(),
        pooling.tolist(),
    )


def _queries(ids, times, sizes, pooling) -> Iterator[Query]:
    """``Query`` records zipped from Python-scalar columns.

    ``tuple.__new__`` is what ``Query._make`` calls, without its
    Python-level frame and length check: every column is validated in
    bulk (sizes clipped >= min_size >= 1, times shifted by a
    non-negative start, pooling clamped positive), and ``tolist``
    converts them to Python scalars in one C pass.
    """
    return map(tuple.__new__, repeat(Query), zip(ids, times, sizes, pooling))


def poisson_segment(
    workload: QueryWorkload,
    arrival_rate_qps: float,
    duration_s: float,
    seed: int = 0,
    start_s: float = 0.0,
) -> Batch:
    """One fully-drawn Poisson segment as columns (the legacy loadgen core).

    Draw the arrival count then sort uniforms: equivalent to a Poisson
    process without growing a list of exponential gaps.  All sampling
    and clamping is vectorized.  ``repro.sim.loadgen.generate_trace``
    is a thin wrapper around this draw, so the sequence here is the
    historically pinned one -- change it and the float-equivalence
    suite fails.
    """
    if arrival_rate_qps <= 0:
        raise ValueError("arrival rate must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    expected = _check_expected(
        arrival_rate_qps, duration_s, f"the Poisson segment at t={start_s:g} s"
    )
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(expected))
    return _draw_columns(workload, rng, count, start_s, duration_s)


def _segment_with_rng(
    workload: QueryWorkload,
    rng: np.random.Generator,
    arrival_rate_qps: float,
    start_s: float,
    duration_s: float,
    where: str,
) -> Batch | None:
    """A Poisson segment drawn from a *running* generator (``None``
    when it holds no arrival).

    Used by processes whose rate trajectory itself consumes randomness
    (MMPP dwell times, diurnal noise): one sequentially-consumed RNG
    keeps the whole trajectory deterministic per seed without a seed
    schedule per segment.
    """
    if arrival_rate_qps <= 0:
        return None
    expected = _check_expected(arrival_rate_qps, duration_s, where)
    count = int(rng.poisson(expected))
    if count == 0:
        return None
    return _draw_columns(workload, rng, count, start_s, duration_s)


def _not_sorted(later: float, earlier: float) -> ValueError:
    return ValueError(
        f"arrival stream is not sorted by time (t={later!r} after t={earlier!r})"
    )


def _merge_batches(streams: list[Iterator[Batch]]) -> Iterator[tuple]:
    """Stably merge time-sorted batch streams into time-sorted batches.

    Yields ``(arrival_s, size, pooling_scale, source)`` where ``source``
    is each row's stream index.  Rows come out in the order a stable
    ``heapq.merge`` of the streams' rows keyed on arrival time gives:
    by time, then stream index, then position in the stream.  A row is
    emitted once its time is strictly below every live stream's last
    loaded time, so a later batch can never tie with it from an earlier
    stream; at most about one batch per stream is held at a time.
    """
    k = len(streams)
    iters = [iter(s) for s in streams]
    pending: list[Batch | None] = [None] * k
    last = [-math.inf] * k
    live = list(range(k))
    emitted = -math.inf
    while live:
        i = min(live, key=last.__getitem__)
        batch = next(iters[i], None)
        if batch is None:
            live.remove(i)
        else:
            times = batch[0]
            if not len(times):
                continue
            if times[0] < last[i]:
                raise _not_sorted(float(times[0]), last[i])
            bad = np.flatnonzero(times[1:] < times[:-1])
            if len(bad):
                j = int(bad[0])
                raise _not_sorted(float(times[j + 1]), float(times[j]))
            held = pending[i]
            pending[i] = batch if held is None else tuple(
                np.concatenate((h, b)) for h, b in zip(held, batch)
            )
            last[i] = float(times[-1])
        bound = min((last[j] for j in live), default=math.inf)
        if bound <= emitted:
            continue
        emitted = bound
        parts = []
        for j in range(k):
            held = pending[j]
            if held is None:
                continue
            cut = int(np.searchsorted(held[0], bound, side="left"))
            if cut == 0:
                continue
            parts.append((j, tuple(c[:cut] for c in held)))
            pending[j] = None if cut == len(held[0]) else tuple(
                c[cut:] for c in held
            )
        if not parts:
            continue
        if len(parts) == 1:
            j, (t, size, pool) = parts[0]
            yield t, size, pool, np.full(len(t), j, dtype=np.int64)
            continue
        t = np.concatenate([p[1][0] for p in parts])
        order = np.argsort(t, kind="stable")
        yield (
            t[order],
            np.concatenate([p[1][1] for p in parts])[order],
            np.concatenate([p[1][2] for p in parts])[order],
            np.concatenate(
                [np.full(len(p[1][0]), p[0], dtype=np.int64) for p in parts]
            )[order],
        )


class ArrivalProcess:
    """One model's arrival traffic, described as a process.

    Subclasses implement :meth:`stream_batches`, lazily yielding
    time-sorted :data:`Batch` columns (one segment at a time);
    :meth:`stream` is their row view, :class:`Query` records with
    non-decreasing ``arrival_s`` and consecutive ids from ``first_id``.
    The three derived quantities every consumer needs are part of the
    protocol:

    - ``end_s`` -- the nominal end of the process (the replay horizon
      hint used to bound stochastic fault draws and autoscaler
      windows); ``None`` when unknown without a scan.
    - ``mean_qps`` -- the time-averaged offered rate (used to size
      fleets and SLAs against capacity).
    - ``peak_qps`` -- the highest instantaneous segment rate (what a
      provisioner must cover).
    """

    workload: QueryWorkload

    @property
    def end_s(self) -> float | None:
        raise NotImplementedError

    @property
    def mean_qps(self) -> float:
        raise NotImplementedError

    @property
    def peak_qps(self) -> float:
        return self.mean_qps

    def stream_batches(self, seed: int = 0) -> Iterator[Batch]:
        raise NotImplementedError

    def stream(self, seed: int = 0, first_id: int = 0) -> Iterator[Query]:
        return chain.from_iterable(self._row_batches(seed, first_id))

    def _row_batches(self, seed: int, first_id: int) -> Iterator[Iterator[Query]]:
        next_id = first_id
        for batch in self.stream_batches(seed=seed):
            yield batch_rows(batch, next_id)
            next_id += len(batch[0])

    def materialize(self, seed: int = 0, first_id: int = 0) -> list[Query]:
        """The fully-drawn trace (legacy list shape)."""
        return list(self.stream(seed=seed, first_id=first_id))


class PiecewisePoissonProcess(ArrivalProcess):
    """Chained constant-rate Poisson segments (the legacy workload).

    Args:
        workload: Size/pooling distributions to sample.
        segments: ``(qps, duration_s)`` chain laid back to back from
            t=0.  Segments with non-positive rate or duration are
            skipped (a positive duration still advances the clock),
            exactly as the legacy fleet trace builder did.
        seed_offset / seed_stride: Segment ``s`` draws with seed
            ``seed + seed_offset + seed_stride * s`` -- the historical
            schedule (offset 0, stride 1) by default.
    """

    def __init__(
        self,
        workload: QueryWorkload,
        segments: Sequence[tuple[float, float]],
        seed_offset: int = 0,
        seed_stride: int = 1,
    ) -> None:
        self.workload = workload
        self.segments = tuple((float(q), float(d)) for q, d in segments)
        if not self.segments:
            raise ValueError("need at least one segment")
        if sum(max(d, 0.0) for _, d in self.segments) <= 0:
            raise ValueError("need positive total duration")
        clock = 0.0
        for qps, dur in self.segments:
            if qps > 0 and dur > 0:
                _check_expected(
                    qps, dur, f"the Poisson segment at t={clock:g} s"
                )
            clock += dur
        self.seed_offset = seed_offset
        self.seed_stride = seed_stride

    @property
    def end_s(self) -> float:
        return sum(max(d, 0.0) for _, d in self.segments)

    @property
    def mean_qps(self) -> float:
        total = self.end_s
        return (
            sum(max(q, 0.0) * d for q, d in self.segments if d > 0) / total
        )

    @property
    def peak_qps(self) -> float:
        return max(q for q, _ in self.segments)

    def stream_batches(self, seed: int = 0) -> Iterator[Batch]:
        clock = 0.0
        for s_idx, (qps, dur) in enumerate(self.segments):
            if qps > 0 and dur > 0:
                batch = poisson_segment(
                    self.workload,
                    qps,
                    dur,
                    seed=seed + self.seed_offset + self.seed_stride * s_idx,
                    start_s=clock,
                )
                if len(batch[0]):
                    yield batch
            clock += dur


class PoissonProcess(PiecewisePoissonProcess):
    """A single constant-rate Poisson segment."""

    def __init__(
        self, workload: QueryWorkload, qps: float, duration_s: float
    ) -> None:
        if qps <= 0:
            raise ValueError("arrival rate must be positive")
        super().__init__(workload, [(qps, duration_s)])


class MMPPProcess(ArrivalProcess):
    """Markov-modulated Poisson process: bursty, correlated arrivals.

    The process cycles through ``rates`` states; state ``k`` lasts an
    exponential dwell with mean ``dwell_s[k]`` and emits Poisson
    arrivals at ``rates[k]``.  A two-state (low/high) configuration is
    the classic burst model: long quiet stretches punctured by short
    storms whose *within-storm* rate far exceeds the mean -- the
    traffic shape that makes steady-state tail numbers lie.

    Memory: one dwell's arrivals at a time.
    """

    def __init__(
        self,
        workload: QueryWorkload,
        rates: Sequence[float],
        dwell_s: Sequence[float] | float,
        duration_s: float,
    ) -> None:
        self.workload = workload
        self.rates = tuple(float(r) for r in rates)
        if len(self.rates) < 2:
            raise ValueError("MMPP needs at least two states")
        if any(r < 0 for r in self.rates):
            raise ValueError("state rates must be >= 0")
        if max(self.rates) <= 0:
            raise ValueError("at least one state rate must be positive")
        if isinstance(dwell_s, (int, float)):
            dwell_s = [float(dwell_s)] * len(self.rates)
        self.dwell_s = tuple(float(d) for d in dwell_s)
        if len(self.dwell_s) != len(self.rates):
            raise ValueError("need one dwell time per state")
        if any(d <= 0 for d in self.dwell_s):
            raise ValueError("dwell times must be > 0")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.duration_s = float(duration_s)

    @property
    def end_s(self) -> float:
        return self.duration_s

    @property
    def mean_qps(self) -> float:
        # Stationary occupancy of a cyclic chain is dwell-proportional.
        total = sum(self.dwell_s)
        return sum(r * d for r, d in zip(self.rates, self.dwell_s)) / total

    @property
    def peak_qps(self) -> float:
        return max(self.rates)

    def stream_batches(self, seed: int = 0) -> Iterator[Batch]:
        rng = np.random.default_rng(seed)
        clock = 0.0
        state = 0
        n_states = len(self.rates)
        while clock < self.duration_s:
            dwell = float(rng.exponential(self.dwell_s[state]))
            dwell = min(dwell, self.duration_s - clock)
            if dwell > 0.0:
                batch = _segment_with_rng(
                    self.workload, rng, self.rates[state], clock, dwell,
                    f"the MMPP state-{state} dwell at t={clock:g} s",
                )
                if batch is not None:
                    yield batch
            clock += dwell
            state = (state + 1) % n_states


class DiurnalProcess(ArrivalProcess):
    """A compressed diurnal day with optional per-segment noise.

    The day-periodic shape matches the cluster layer's
    ``DiurnalTrace`` (sharpened cosine between ``trough_ratio`` and 1):
    ``steps`` piecewise-constant segments span ``duration_s`` seconds
    per day for ``days`` days.  ``noise`` multiplies each segment's
    rate by ``1 + noise * N(0, 1)`` (clamped positive), drawn from the
    stream seed -- ramp realism without hand-written segment tables.
    """

    def __init__(
        self,
        workload: QueryWorkload,
        peak_qps: float,
        duration_s: float,
        steps: int = 24,
        trough_ratio: float = 0.4,
        peak_position: float = 20.0 / 24.0,
        sharpness: float = 2.0,
        noise: float = 0.0,
        days: int = 1,
    ) -> None:
        if peak_qps <= 0:
            raise ValueError("peak_qps must be positive")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if steps < 1 or days < 1:
            raise ValueError("need steps >= 1 and days >= 1")
        if not 0.0 < trough_ratio <= 1.0:
            raise ValueError("trough_ratio must be in (0, 1]")
        if not 0.0 <= peak_position < 1.0:
            raise ValueError("peak_position must be in [0, 1)")
        if sharpness < 1.0:
            raise ValueError("sharpness must be >= 1")
        if noise < 0.0:
            raise ValueError("noise must be >= 0")
        self.workload = workload
        self._peak_qps = float(peak_qps)
        self.duration_s = float(duration_s)
        self.steps = int(steps)
        self.trough_ratio = float(trough_ratio)
        self.peak_position = float(peak_position)
        self.sharpness = float(sharpness)
        self.noise = float(noise)
        self.days = int(days)
        if self.noise == 0.0:  # every step's rate is known: refuse early
            _check_expected(
                self._peak_qps
                * max(self.level_at(i / self.steps) for i in range(self.steps)),
                self.duration_s / self.steps,
                "the diurnal peak step",
            )

    @property
    def end_s(self) -> float:
        return self.duration_s * self.days

    def level_at(self, fraction_of_day: float) -> float:
        """Noise-free load level in [trough_ratio, 1] at a day fraction."""
        phase = (fraction_of_day - self.peak_position) * 2.0 * math.pi
        base = (1.0 + math.cos(phase)) / 2.0  # 1 at peak, 0 at trough
        return self.trough_ratio + (1.0 - self.trough_ratio) * base**self.sharpness

    @property
    def mean_qps(self) -> float:
        return self.peak_qps * (
            sum(self.level_at(i / self.steps) for i in range(self.steps)) / self.steps
        )

    @property
    def peak_qps(self) -> float:
        return self._peak_qps

    def stream_batches(self, seed: int = 0) -> Iterator[Batch]:
        rng = np.random.default_rng(seed)
        seg = self.duration_s / self.steps
        clock = 0.0
        for _day in range(self.days):
            for i in range(self.steps):
                rate = self.peak_qps * self.level_at(i / self.steps)
                if self.noise > 0.0:
                    rate *= max(0.0, 1.0 + self.noise * float(rng.standard_normal()))
                batch = _segment_with_rng(
                    self.workload, rng, rate, clock, seg,
                    f"the diurnal step {i} at t={clock:g} s",
                )
                if batch is not None:
                    yield batch
                clock += seg


class SuperposedProcess(ArrivalProcess):
    """Superposition of independent arrival processes for one model.

    Streams are merged by arrival time (ties in part order) and
    re-numbered so ids stay consecutive -- e.g. a diurnal ramp carrying
    an MMPP burst overlay.  Component ``k`` draws from ``seed + k`` so
    the parts stay independent under one stream seed.
    """

    def __init__(self, parts: Sequence[ArrivalProcess]) -> None:
        if not parts:
            raise ValueError("need at least one component process")
        self.parts = tuple(parts)
        self.workload = self.parts[0].workload

    @property
    def end_s(self) -> float | None:
        ends = [p.end_s for p in self.parts]
        return None if any(e is None for e in ends) else max(ends)

    @property
    def mean_qps(self) -> float:
        return sum(p.mean_qps for p in self.parts)

    @property
    def peak_qps(self) -> float:
        # Conservative: components may peak at different times, so the
        # sum bounds the true instantaneous peak.
        return sum(p.peak_qps for p in self.parts)

    def stream_batches(self, seed: int = 0) -> Iterator[Batch]:
        streams = [
            part.stream_batches(seed=seed + k) for k, part in enumerate(self.parts)
        ]
        for times, sizes, pooling, _part in _merge_batches(streams):
            yield times, sizes, pooling


class FleetArrivals:
    """Re-iterable multi-model arrival source for the fleet engine.

    Merges per-model :class:`ArrivalProcess` streams into one
    time-sorted stream.  Models are taken in sorted-name order and
    model ``m`` streams with seed ``seed + MODEL_SEED_STRIDE * m`` --
    the exact seed schedule and (stable) tie order of the legacy
    ``build_fleet_trace``, so a fleet of
    :class:`PiecewisePoissonProcess` inputs replays the historical
    trace element-for-element.

    Two views of the same merge: :meth:`stream_batches` yields columns
    ``(arrival_s, size, pooling_scale, model_code)`` where the code
    indexes the sorted model names (``list(self.processes)``); iterating
    yields ``(model_name, Query)`` rows with each model's query ids
    consecutive from 0.  Each ``iter()`` or ``stream_batches()`` call
    restarts the replay from scratch: the fleet engine consumes it
    lazily, and repeat-replay consumers (the fault-aware provisioner,
    A/B benchmarks) simply iterate again.

    ``seeds`` pins each model's stream seed explicitly instead of the
    positional ``seed + stride * m_idx`` schedule.  The sharded runner
    uses this to hand a *subset* of models to a worker while keeping
    every stream's lane exactly where the full fleet would put it
    (``seed + stride * global_sorted_index``), so a sub-fleet draws
    bit-identical arrivals.
    """

    def __init__(
        self,
        processes: dict[str, ArrivalProcess],
        seed: int = 0,
        seeds: dict[str, int] | None = None,
    ) -> None:
        if not processes:
            raise ValueError("need at least one model process")
        self.processes = dict(sorted(processes.items()))
        self.seed = seed
        if seeds is not None:
            missing = sorted(set(self.processes) - set(seeds))
            if missing:
                raise ValueError(
                    f"seeds= must cover every model; missing {missing}"
                )
        self.seeds = dict(seeds) if seeds is not None else None

    @property
    def end_s(self) -> float | None:
        ends = [p.end_s for p in self.processes.values()]
        return None if any(e is None for e in ends) else max(ends)

    @property
    def mean_qps(self) -> dict[str, float]:
        return {m: p.mean_qps for m, p in self.processes.items()}

    def stream_batches(self) -> Iterator[tuple]:
        streams = []
        for m_idx, (model, process) in enumerate(self.processes.items()):
            if self.seeds is not None:
                lane = self.seeds[model]
            else:
                lane = self.seed + MODEL_SEED_STRIDE * m_idx
            streams.append(process.stream_batches(seed=lane))
        return _merge_batches(streams)

    def __iter__(self) -> Iterator[tuple[str, Query]]:
        return chain.from_iterable(self._row_batches())

    def _row_batches(self) -> Iterator[Iterator[tuple[str, Query]]]:
        names = list(self.processes)
        next_id = [0] * len(names)
        for times, sizes, pooling, codes in self.stream_batches():
            ids = np.empty(len(times), dtype=np.int64)
            counts = np.bincount(codes, minlength=len(names)).tolist()
            for code, count in enumerate(counts):
                if count:
                    first = next_id[code]
                    ids[codes == code] = np.arange(first, first + count)
                    next_id[code] = first + count
            # Rows leave in slices of a few thousand: the transient
            # Python-scalar lists stay small next to the consumer's own
            # allocations (the python loop's peak RSS measured lower).
            for lo in range(0, len(times), _ROW_SLICE):
                hi = lo + _ROW_SLICE
                yield zip(
                    map(names.__getitem__, codes[lo:hi].tolist()),
                    _queries(
                        ids[lo:hi].tolist(),
                        times[lo:hi].tolist(),
                        sizes[lo:hi].tolist(),
                        pooling[lo:hi].tolist(),
                    ),
                )

    def materialize(self) -> list[tuple[str, Query]]:
        """The fully-drawn legacy list shape."""
        return list(self)
