"""The ``repro-sdv profile`` harness: per-VL attribution breakdowns.

Runs one kernel at every vector length (plus the scalar build), attributes
each run's cycles via :mod:`repro.obs.attribution`, and renders the result
as a table with one column per bucket — the "short reasons" view: reading
down the DRAM-stall column shows the paper's latency-tolerance mechanism
directly, as exposed stall cycles shrinking while vectors grow.

Also the export point for single-run artifacts: a schema-versioned
manifest (:mod:`repro.obs.manifest`) and a Perfetto trace combining the
engine timelines of every implementation with the harness spans
(:mod:`repro.obs.perfetto`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.parallel import run_tasks
from repro.core.sweeps import (
    DEFAULT_VLS,
    _impls,
    _resolve_spec,
    _sweep_worker_init,
    impl_label,
    run_implementation,
    workload_fingerprint,
)
from repro.engine.event_fast import simulate_events_fast
from repro.engine.event_sim import simulate_events
from repro.engine.fast_sim import simulate_fast
from repro.engine.results import CycleReport
from repro.kernels import KERNELS
from repro.obs.attribution import BUCKET_LABELS, BUCKET_ORDER, CycleAttribution
from repro.obs.manifest import build_manifest
from repro.obs.perfetto import (
    trace_events_from_spans,
    trace_events_from_timeline,
)
from repro.obs.spans import get_tracer
from repro.obs.timeline import TimelineRecorder
from repro.util.tables import TextTable
from repro.workloads import get_scale


@dataclass
class ProfileEntry:
    """One implementation's timed + attributed run."""

    impl: str
    vl: int | None
    report: CycleReport
    attribution: CycleAttribution
    timeline: TimelineRecorder | None = None


@dataclass
class ProfileResult:
    """All implementations of one kernel, timed, attributed, exportable."""

    kernel: str
    scale: str
    seed: int
    engine: str
    config: object            # the base SdvConfig (max VL varies per entry)
    workload_fp: str
    entries: list[ProfileEntry] = field(default_factory=list)
    #: engine-introspection snapshot covering this profile's runs
    #: (``profile_kernel(engine_stats=True)``), else None
    engine_stats: dict | None = None

    def render(self, *, fractions: bool = False) -> str:
        """The per-VL attribution table (cycles, or shares of the total)."""
        cols = ["impl", "cycles"] + [BUCKET_LABELS[b] for b in BUCKET_ORDER]
        cols += ["DRAM lat hidden"]
        t = TextTable(cols)
        for e in self.entries:
            a = e.attribution
            if fractions:
                row = [f"{a.fraction(b) * 100:.1f}%" for b in BUCKET_ORDER]
                hidden = (a.dram_latency_hidden / a.dram_latency_demand
                          if a.dram_latency_demand else 0.0)
                row.append(f"{hidden * 100:.1f}%")
            else:
                row = [f"{a.buckets[b] / 1e3:.1f}k" for b in BUCKET_ORDER]
                row.append(f"{a.dram_latency_hidden / 1e3:.1f}k")
            t.add_row([e.impl, f"{a.total / 1e3:.1f}k"] + row)
        unit = "% of total" if fractions else "kcycles"
        return (f"cycle attribution — {self.kernel} ({self.scale} scale, "
                f"{self.engine} engine, {unit})\n" + t.render())

    def render_engine_stats(self) -> str:
        """The engine-counter table (``repro-sdv profile --engine-stats``)."""
        from repro.obs.engine_stats import EngineStats

        stats = EngineStats()
        if self.engine_stats:
            stats.merge(self.engine_stats)
        return stats.render()

    def manifest(self) -> dict:
        """Schema-versioned manifest with per-run attribution buckets."""
        runs = []
        for e in self.entries:
            a = e.attribution
            runs.append({
                "impl": e.impl,
                "vl": e.vl,
                "cycles": a.total,
                "buckets": {b: a.buckets[b] for b in BUCKET_ORDER},
                "dram_latency_demand": a.dram_latency_demand,
                "dram_latency_hidden": a.dram_latency_hidden,
            })
        extra = None
        if self.engine_stats is not None:
            extra = {"engine_stats": self.engine_stats}
        return build_manifest(
            kernel=self.kernel, engine=self.engine, config=self.config,
            runs=runs, scale=self.scale, seed=self.seed,
            workload_fingerprint=self.workload_fp, extra=extra,
        )

    def trace_events(self) -> list[dict]:
        """Perfetto events: one process row per impl timeline + the
        harness spans."""
        events: list[dict] = []
        pid = 1
        for e in self.entries:
            if e.timeline is not None:
                events.extend(trace_events_from_timeline(
                    e.timeline, pid=pid,
                    label=f"{self.kernel}/{e.impl} [{e.timeline.engine}]"))
                pid += 1
        events.extend(trace_events_from_spans(get_tracer().spans))
        return events


def _trace_task(args):
    """Pool worker: one implementation's sealed trace, returned by value
    (a CI-scale SpMV vl8 trace pickles to about 2 MB)."""
    spec_or_name, workload, vl, verify, reference, trace_cache, fp = args
    return run_implementation(_resolve_spec(spec_or_name), workload, vl,
                              verify=verify, reference=reference,
                              trace_cache=trace_cache, workload_fp=fp)[1]


def _generate_traces_parallel(spec, workload, impl_vls, *, verify: bool,
                              reference, trace_cache, jobs: int) -> dict:
    """Fan trace generation (the expensive stage) across the persistent
    sweep pool; returns ``{vl: TraceBuffer}``."""
    payload = spec.name if KERNELS.get(spec.name) is spec else spec
    fp = workload_fingerprint(workload)
    tasks = [(payload, workload, vl, verify, reference, trace_cache, fp)
             for vl in impl_vls]
    traces = run_tasks(_trace_task, tasks, jobs=jobs,
                       initializer=_sweep_worker_init)
    return dict(zip(impl_vls, traces))


def profile_kernel(name: str, *, scale: str = "ci", seed: int = 7,
                   vls=DEFAULT_VLS, engine: str = "fast",
                   include_scalar: bool = True, verify: bool = True,
                   trace_cache=None, timelines: bool = False,
                   engine_stats: bool = False,
                   jobs: int = 1) -> ProfileResult:
    """Time + attribute one kernel at every VL (and the scalar build).

    ``timelines=True`` additionally records each run's machine-activity
    timeline (with the event engine when ``engine="event"``, else the fast
    engine — the batch engine computes identical cycles but walks all
    configs at once, so it records no per-run schedule).

    ``engine_stats=True`` turns on engine introspection for the duration
    of the profile and attaches the counter snapshot covering exactly
    these runs to :attr:`ProfileResult.engine_stats`.

    ``jobs > 1`` fans trace *generation* (the expensive stage) across
    worker processes, each returning its sealed trace by value; timing
    and attribution stay in the parent, bit-identical to ``jobs=1``.
    """
    from repro.obs import engine_stats as es_mod

    es_was = es_mod.introspection_enabled()
    es_before: dict | None = None
    if engine_stats:
        collector = es_mod.set_introspection(True)
        es_before = collector.snapshot()
    spec = KERNELS[name]
    workload = spec.prepare(get_scale(scale), seed)
    reference = spec.reference(workload) if verify else None
    tracer = get_tracer()
    result = None
    impl_vls = _impls(vls, include_scalar)
    traces: dict = {}
    if jobs > 1 and len(impl_vls) > 1:
        traces = _generate_traces_parallel(
            spec, workload, impl_vls, verify=verify, reference=reference,
            trace_cache=trace_cache, jobs=jobs)
    try:
        for vl in impl_vls:
            label = impl_label(vl)
            with tracer.span(f"profile:{name}:{label}",
                             kernel=name, impl=label):
                if vl in traces:
                    # trace generated by a worker; the SDV rebuild is the
                    # same one run_implementation does
                    from repro.soc import FpgaSdv

                    sdv = FpgaSdv()
                    if vl is not None:
                        sdv.configure(max_vl=vl)
                    trace = traces[vl]
                else:
                    sdv, trace = run_implementation(spec, workload, vl,
                                                    verify=verify,
                                                    reference=reference,
                                                    trace_cache=trace_cache)
                if result is None:
                    result = ProfileResult(
                        kernel=name, scale=scale, seed=seed, engine=engine,
                        config=sdv.config,
                        workload_fp=workload_fingerprint(workload),
                    )
                report = sdv.time(trace, engine=engine)
                att = sdv.attribute(trace, engine=engine)
                report.attribution = att
                timeline = None
                if timelines:
                    timeline = TimelineRecorder()
                    ct = sdv.classify(trace)
                    if engine == "event":
                        simulate_events_fast(ct, timeline=timeline)
                    elif engine == "event-ref":
                        simulate_events(ct, timeline=timeline)
                    else:
                        simulate_fast(ct, timeline=timeline)
                result.entries.append(ProfileEntry(
                    impl=label, vl=vl, report=report, attribution=att,
                    timeline=timeline,
                ))
    finally:
        if engine_stats:
            snap = es_mod.get_engine_stats().snapshot()
            if result is not None:
                result.engine_stats = es_mod.snapshot_delta(es_before, snap)
            es_mod.set_introspection(es_was)
    return result
