"""Arrival-process subsystem: traffic as a first-class object.

``repro.traces`` owns *how queries arrive*: synthetic processes
(piecewise Poisson, MMPP bursts, diurnal ramps with noise,
superpositions), recorded-trace replay from CSV/JSONL files, and the
``--arrivals`` CLI grammar.  Consumers -- the single-node DES, the
fleet engine, the fault-aware provisioner -- accept the streams these
processes produce instead of pre-materialized query lists, so replays
run in O(segment) memory and the legacy piecewise-Poisson path stays
bit-identical (``repro.sim.loadgen`` is now a thin adapter over this
package).
"""

from repro.traces.arrivals import (
    MODEL_SEED_STRIDE,
    ArrivalProcess,
    DiurnalProcess,
    FleetArrivals,
    MMPPProcess,
    PiecewisePoissonProcess,
    PoissonProcess,
    SuperposedProcess,
    poisson_segment,
)
from repro.traces.recorded import RecordedTrace, read_trace, save_trace
from repro.traces.spec import ArrivalSpec, parse_arrivals

__all__ = [
    "MODEL_SEED_STRIDE",
    "ArrivalProcess",
    "DiurnalProcess",
    "FleetArrivals",
    "MMPPProcess",
    "PiecewisePoissonProcess",
    "PoissonProcess",
    "SuperposedProcess",
    "poisson_segment",
    "RecordedTrace",
    "read_trace",
    "save_trace",
    "ArrivalSpec",
    "parse_arrivals",
]
