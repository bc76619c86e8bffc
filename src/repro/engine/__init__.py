"""Timing engines.

Four engines consume a :class:`repro.memory.classify.ClassifiedTrace`:

* :func:`repro.engine.fast_sim.simulate_fast` — a per-record analytical
  walk of the machine (scalar core + decoupled VPU + throttled memory).
  Milliseconds per run; the single-point reference for the batch engine.
* :func:`repro.engine.batch_sim.simulate_batch` — the sweep engine: lowers
  the classified trace once (:mod:`repro.engine.lower`) into flat
  knob-independent arrays, then times **all** sweep points in one call
  into a native walk (``walk.c``, built with the local gcc on first use;
  logged fallback to the fast engine without one). Bit-identical cycles
  to the fast engine at every point.
* :func:`repro.engine.event_fast.simulate_events_fast` — the production
  discrete-event engine (``engine="event"``): array-backed per-instruction
  state machines stepped off an integer-cycle calendar queue, an order of
  magnitude faster than the coroutine reference while producing
  bit-identical reports.
* :func:`repro.engine.event_sim.simulate_events` — the coroutine
  discrete-event reference model (``engine="event-ref"``) at line-request
  granularity. The readable specification the fast event engine is checked
  against; use it to validate, not to sweep.

All share the cost models in :mod:`core_model` and :mod:`vpu_model` and the
two event engines additionally share the pre-quantized
:class:`repro.engine.event_common.EventPlan`, so a disagreement between
them localizes to queueing/overlap behaviour, which is exactly what the
cross-validation tests probe. See ``docs/engines.md`` for the full map.

``ENGINES`` maps engine names to single-trace entry points (each takes one
classified trace, returns one :class:`CycleReport`); ``FpgaSdv`` and the
CLI resolve ``engine=`` strings through it.
"""

from repro.engine.results import CycleReport
from repro.engine.fast_sim import simulate_fast
from repro.engine.event_fast import simulate_events_fast
from repro.engine.event_sim import simulate_events
from repro.engine.lower import LoweredTrace, lower_trace
from repro.engine.batch_sim import (
    batch_cycles,
    simulate_batch,
    simulate_batch_one,
)

#: name -> ClassifiedTrace -> CycleReport registry (one entry per engine).
ENGINES = {
    "fast": simulate_fast,
    "event": simulate_events_fast,
    "event-ref": simulate_events,
    "batch": simulate_batch_one,
}

__all__ = [
    "CycleReport",
    "ENGINES",
    "LoweredTrace",
    "batch_cycles",
    "lower_trace",
    "simulate_batch",
    "simulate_batch_one",
    "simulate_events",
    "simulate_events_fast",
    "simulate_fast",
]
