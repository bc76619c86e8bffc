"""The paper's three sweeps.

Efficiency structure (what makes paper-scale sweeps tractable):

* the trace of one (kernel, implementation) pair is generated **once** —
  the Latency Controller and Bandwidth Limiter knobs do not change what the
  program does, only how long it takes (exactly like the FPGA) — and can be
  persisted to an on-disk cache (``trace_cache=``) so repeated runs skip
  functional re-execution entirely;
* the cache classification and lowering of that trace are computed **once**
  (both are knob-independent) and cached on the trace;
* every sweep point of the trace is then timed in **one** batch-engine call
  (:mod:`repro.engine.batch_sim`, a native walk over the lowered arrays) —
  not one Python re-timing pass per point;
* trace generation for the different implementations fans out across worker
  processes (``jobs=N``, :mod:`repro.core.parallel`);
* the reference result used for verification is computed once per
  (kernel, workload), not once per implementation.

The default sweep axes follow Section 4: extra latency 0..1024 cycles,
bandwidth 1..64 B/cycle in powers of two, VL in {8,...,256} plus scalar.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import pickle
import pkgutil
import sys
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.config import SdvConfig
from repro.core.measurements import Measurement, SweepResult
from repro.core.parallel import resolve_jobs, run_tasks
from repro.errors import ConfigError, KernelError, TraceError
from repro.kernels.base import KernelSpec
from repro.memory.classify_fast import (
    default_classifier,
    set_default_classifier,
)
from repro.obs import engine_stats as engine_stats_mod
from repro.obs.runlog import RunLog, get_runlog
from repro.soc.sdv import FpgaSdv
from repro.trace.events import TraceBuffer
from repro.trace.serialize import CLASSIFIED_FORMAT_VERSION
from repro.trace.serialize import FORMAT_VERSION as TRACE_FORMAT_VERSION
from repro.trace.serialize import (
    load_classified,
    load_trace,
    save_classified,
    save_trace,
)

#: Figure 3/4 x-axis: extra latency cycles added by the Latency Controller.
DEFAULT_LATENCIES: tuple[int, ...] = (0, 32, 64, 128, 256, 512, 1024)

#: Figure 5 x-axis: Bandwidth Limiter setting in bytes/cycle.
DEFAULT_BANDWIDTHS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: vector lengths evaluated in the paper (doubles per register).
DEFAULT_VLS: tuple[int, ...] = (8, 16, 32, 64, 128, 256)

#: engine used to re-time sweep points unless the caller overrides it.
DEFAULT_SWEEP_ENGINE = "batch"


def impl_label(vl: int | None) -> str:
    """Column label: None -> 'scalar', 128 -> 'vl128'."""
    return "scalar" if vl is None else f"vl{vl}"


def workload_fingerprint(workload, payload: bytes | None = None) -> str:
    """Stable content hash of a prepared workload (trace-cache key part).

    Workloads are plain data (NumPy arrays, scipy matrices, graphs), so
    their pickle is deterministic for a given prepare(scale, seed).
    ``payload`` lets a caller that already pickled the workload (the
    sweep parent pickles once per kernel, not once per task) skip the
    re-serialization.
    """
    if payload is None:
        payload = pickle.dumps(workload, protocol=4)
    return hashlib.sha256(payload).hexdigest()[:16]


#: trace-machinery modules whose source co-determines every recorded
#: trace: Dep semantics and replicate() fixups live in ``template``, the
#: object-vs-columnar emission switch in ``modes``. An edit there changes
#: the dep/address columns of cached traces without touching any kernel,
#: so they are always part of the fingerprint.
_TRACE_MACHINERY_MODULES = ("repro.trace.template", "repro.trace.modes")


def kernel_fingerprint(spec: KernelSpec) -> str:
    """Content hash of the code that would generate the trace.

    A cached trace is only as good as the emitters that recorded it: if a
    kernel's scalar or vector implementation changes (or the module around
    it — templated emitters lean on module-level helpers), previously
    cached traces must not be served. Hashing the defining modules' source
    invalidates them automatically. Beyond the defining module itself,
    the hash covers:

    * every loaded sibling module of the emitter's ``repro.*`` package
      (templated emitters split helpers across ``kernels/<k>/``), and
    * the trace machinery (:data:`_TRACE_MACHINERY_MODULES`) — the
      template ``Dep``/address-stream semantics determine the recorded
      dep columns, so editing them must invalidate every cached trace.

    Non-``repro`` emitters (ad-hoc test stand-ins) hash only their own
    module, keeping the key independent of unrelated test-file churn.
    Callables without retrievable source (ad-hoc lambdas, C extensions)
    fall back to their repr, which at least separates distinct functions.
    """
    parts = [spec.name]
    mod_names: set[str] = set(_TRACE_MACHINERY_MODULES)
    for fn in (spec.scalar, spec.vector):
        mod_name = getattr(fn, "__module__", None)
        if mod_name is None:
            try:
                parts.append(inspect.getsource(fn))
            except (OSError, TypeError):
                parts.append(repr(fn))
            continue
        mod_names.add(mod_name)
        if mod_name.startswith("repro."):
            # enumerate the emitter's package from disk (not from
            # sys.modules, which would make the key import-order
            # dependent and break parent/worker agreement)
            pkg_name = mod_name.rsplit(".", 1)[0]
            try:
                pkg = importlib.import_module(pkg_name)
            except ImportError:
                continue
            for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
                if not info.ispkg:
                    mod_names.add(f"{pkg_name}.{info.name}")
    for name in sorted(mod_names):
        try:
            mod = importlib.import_module(name)
            parts.append(inspect.getsource(mod))
        except (ImportError, OSError, TypeError):
            parts.append(f"<no-source:{name}>")
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:12]


def trace_cache_path(cache_dir: str | os.PathLike, spec_name: str,
                     workload, vl: int | None, sdv: FpgaSdv,
                     spec: KernelSpec | None = None,
                     workload_fp: str | None = None) -> Path:
    """Cache file for one (kernel, workload, max_vl, geometry) trace.

    The name carries everything that determines the recorded trace: the
    kernel + workload + VL + SoC geometry, the on-disk trace schema
    version (``serialize.FORMAT_VERSION``), and — when ``spec`` is given —
    a fingerprint of the kernel's emitter source, so stale traces from an
    older schema or an edited kernel are never loaded. ``workload_fp``
    is :func:`workload_fingerprint` hoisted by the caller (the sweep
    parent computes it once per kernel instead of pickling the workload
    in every task).
    """
    src = kernel_fingerprint(spec) if spec is not None else "nosrc"
    geom = hashlib.sha256(
        repr((sdv.geometry_key(), sdv.config.memory_bytes,
              None if vl is None else sdv.max_vl)).encode()
    ).hexdigest()[:12]
    wfp = workload_fp if workload_fp is not None \
        else workload_fingerprint(workload)
    name = (f"{spec_name}-{impl_label(vl)}-"
            f"{wfp}-{geom}-"
            f"t{TRACE_FORMAT_VERSION}-{src}.npz")
    return Path(cache_dir) / name


def classified_sidecar_path(cache_path: Path, sdv: FpgaSdv) -> Path:
    """The classified sidecar of one cached trace file.

    The name carries the sidecar schema version and the cache-geometry
    fingerprint (l1d/l2 size/ways/banks, prefetch depth, gather
    coalescing), so a geometry change simply misses instead of serving a
    stale classification; the fingerprint is re-checked against the
    file's embedded copy at load time.
    """
    return cache_path.with_name(
        f"{cache_path.name[:-4]}.cls{CLASSIFIED_FORMAT_VERSION}-"
        f"{sdv.geometry_fingerprint()}.npz")


def _seed_from_sidecar(sdv: FpgaSdv, trace: TraceBuffer,
                       cache_path: Path) -> None:
    """Cache-hit path: pre-load the trace's classification from its
    sidecar so the reload skips reclassification entirely."""
    if sdv.has_classification(trace):
        return  # the memoized trace object already carries it
    side = classified_sidecar_path(cache_path, sdv)
    ct = None
    if side.exists():
        ct = load_classified(side, trace, sdv.config,
                             geometry_fp=sdv.geometry_fingerprint())
    stats_on = engine_stats_mod.introspection_enabled()
    if ct is not None:
        sdv.seed_classification(trace, ct)
        if stats_on:
            engine_stats_mod.get_engine_stats().count(
                "classify.sidecar_hits")
    elif stats_on:
        engine_stats_mod.get_engine_stats().count(
            "classify.sidecar_misses")


#: per-process memo of loaded cached traces, keyed by cache-file path.
#: The path is content-addressed (kernel + workload + VL + geometry +
#: emitter fingerprint), so a hit is always the identical trace; serving
#: the same object also reuses the lowering/event-plan caches stashed on
#: it by the engines. Bounded: a sweep touches a handful of (kernel, VL)
#: traces at a time, evicted LRU.
_TRACE_MEMO: dict = {}
_TRACE_MEMO_CAP = 4


def _sweep_worker_init() -> None:
    """Per-worker initializer for the persistent sweep pool.

    Runs once when a worker process comes up (idempotent — also invoked
    in-process before serial runs). The trace memo then persists for the
    worker's lifetime, so consecutive figures sweeping the same kernels
    load and lower each cached trace once per worker instead of once per
    figure.
    """
    # the memo is deliberately *not* cleared: surviving entries are keyed
    # by content-addressed paths and stay valid across figures. Warm the
    # kernel registry here so the first task doesn't pay the import.
    import repro.kernels  # noqa: F401


def _load_trace_memoized(cache_path):
    key = str(cache_path)
    hit = _TRACE_MEMO.pop(key, None)
    if hit is None:
        hit = load_trace(cache_path)
        while len(_TRACE_MEMO) >= _TRACE_MEMO_CAP:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = hit  # (re-)insert at the LRU tail
    return hit


def run_implementation(
    spec: KernelSpec,
    workload,
    vl: int | None,
    *,
    config: SdvConfig | None = None,
    verify: bool = True,
    reference=None,
    trace_cache: str | os.PathLike | None = None,
    workload_fp: str | None = None,
) -> tuple[FpgaSdv, TraceBuffer]:
    """Build one implementation's trace on a fresh SDV.

    Returns the SDV (holding the workload's memory image configuration) and
    the sealed trace, ready to be re-timed at many knob settings.

    ``reference`` lets callers hoist ``spec.reference(workload)`` out of a
    per-implementation loop (it is identical for every VL); when omitted
    and ``verify`` is set, it is computed here. With ``trace_cache`` set, a
    previously recorded trace is loaded instead of re-executing the kernel
    (skipping verification — the cached trace was verified when recorded),
    and fresh traces are saved back to the cache. ``workload_fp`` is the
    hoisted :func:`workload_fingerprint` (avoids re-pickling the workload
    per implementation).
    """
    sdv = FpgaSdv(config)
    if vl is not None:
        sdv.configure(max_vl=vl)

    cache_path = None
    if trace_cache is not None:
        root = Path(trace_cache)
        if root.exists() and not root.is_dir():
            raise TraceError(
                f"trace cache path '{root}' exists and is not a directory"
            )
        cache_path = trace_cache_path(root, spec.name, workload, vl, sdv,
                                      spec=spec, workload_fp=workload_fp)
        if cache_path.exists():
            if engine_stats_mod.introspection_enabled():
                engine_stats_mod.get_engine_stats().count(
                    "trace_cache.hits")
            with get_runlog().context(f"cache-load:{spec.name}:"
                                      f"{impl_label(vl)}"):
                trace = _load_trace_memoized(cache_path)
                _seed_from_sidecar(sdv, trace, cache_path)
            return sdv, trace
        if engine_stats_mod.introspection_enabled():
            engine_stats_mod.get_engine_stats().count("trace_cache.misses")

    session = sdv.session()
    builder = spec.vector if vl is not None else spec.scalar
    output = builder(session, workload)
    trace = session.seal()
    if verify:
        ref = spec.reference(workload) if reference is None else reference
        if not spec.check(output, ref):
            raise KernelError(
                f"{spec.name}/{impl_label(vl)} produced a wrong result"
            )
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # classification is knob-independent and every consumer needs it
        # next, so computing it here is never wasted work — and the
        # sidecar makes the *next* cache hit skip it outright
        ct = sdv.classify(trace)
        with get_runlog().context(f"cache-save:{spec.name}:"
                                  f"{impl_label(vl)}"):
            # sidecar first: a trace file then implies its sidecar was
            # written, and each save is atomic (see serialize._write_npz)
            save_classified(ct, classified_sidecar_path(cache_path, sdv),
                            geometry_fp=sdv.geometry_fingerprint())
            save_trace(trace, cache_path)
    return sdv, trace


def _impls(vls: Sequence[int], include_scalar: bool) -> list[int | None]:
    out: list[int | None] = [None] if include_scalar else []
    out.extend(vls)
    return out


def _sweep_configs(base: SdvConfig, axis: str,
                   points: Sequence[int]) -> list[SdvConfig]:
    if axis == "latency":
        return [base.with_extra_latency(p) for p in points]
    return [base.with_bandwidth(p) for p in points]


@dataclass
class _ImplOutcome:
    """Everything one (kernel, implementation) task ships back to the
    parent sweep: measurements plus the task's run-log records and
    engine-stats delta (plain data; collectors never cross the process
    boundary)."""

    measurements: list[Measurement]
    pid: int = 0
    wall_s: float = 0.0
    log: list = field(default_factory=list)
    engine_stats: dict = field(default_factory=dict)


def _task_obs(runlog_on: bool, trace_id: str, introspection: bool):
    """Per-task observability: this process's run log joined to the
    parent's stream (the task's records start at the returned index) and
    the engine-stats baseline snapshot for delta shipping."""
    log = get_runlog()
    log.enabled = runlog_on
    log.trace_id = trace_id
    # sync this process's introspection flag with the parent's; ship only
    # the *delta* recorded by this task — workers are persistent, and in
    # serial runs the parent collector already holds what we record
    engine_stats_mod.set_introspection(introspection)
    es_before = (engine_stats_mod.get_engine_stats().snapshot()
                 if introspection else None)
    return log, len(log.records), es_before


def _es_delta(introspection: bool, es_before) -> dict:
    if not introspection:
        return {}
    return engine_stats_mod.snapshot_delta(
        es_before, engine_stats_mod.get_engine_stats().snapshot())


def _resolve_spec(spec_or_name) -> KernelSpec:
    """Registry kernels travel to workers by name; resolve either form."""
    if isinstance(spec_or_name, str):
        from repro.kernels import KERNELS  # registry lookup in the worker

        return KERNELS[spec_or_name]
    return spec_or_name


def _time_points(sdv: FpgaSdv, trace: TraceBuffer, kernel: str, label: str,
                 axis: str, points: Sequence[int], keep_reports: bool,
                 engine: str, attributions: bool,
                 log: RunLog) -> list[Measurement]:
    """Time one trace at the given points of one axis.

    The single re-timing code path of every sweep, serial or fanned out:
    a worker runs exactly this function on the trace it generated, so
    ``jobs`` cannot change a Measurement.

    Classification (every engine) and lowering (batch) are knob-
    independent and cached on the trace, so computing them up front in
    their own ``classify``/``lower`` scopes costs nothing extra and keeps
    those stages out of the ``re-time`` scope.
    """
    configs = _sweep_configs(sdv.config, axis, points)
    with log.context(f"classify:{kernel}:{label}", kernel=kernel,
                     impl=label):
        ct = sdv.classify(trace)
    lowered = None
    if engine == "batch":
        with log.context(f"lower:{kernel}:{label}", kernel=kernel,
                         impl=label):
            lowered = sdv.lower(trace)
    base_lat = sdv.extra_latency
    base_bpc = int(sdv.bandwidth_bpc)

    def measurement(point, cycles, report, att=None):
        return Measurement(
            kernel=kernel, impl=label,
            extra_latency=point if axis == "latency" else base_lat,
            bandwidth_bpc=point if axis == "bandwidth" else base_bpc,
            cycles=cycles, report=report, attribution=att,
        )

    with log.context(f"re-time:{kernel}:{label}", kernel=kernel,
                     impl=label, engine=engine, points=len(points),
                     attributions=attributions):
        if attributions and engine == "batch" and not keep_reports:
            # fused path: ONE batch walk times every sweep point AND
            # every attribution-ladder rung (the ladder's L0 column *is*
            # the sweep cycle count, bit-for-bit), so turning buckets on
            # costs a few extra knob-axis columns, not extra walks
            from repro.obs.attribution import attribute_many

            atts = attribute_many(ct, configs, lowered=lowered)
            measurements = [measurement(p, att.total, None, att)
                            for p, att in zip(points, atts)]
        elif engine == "batch" and not keep_reports:
            # compact path: one batch walk, a bare cycles vector, no
            # intermediate CycleReport garbage
            cycles = sdv.time_many(trace, configs, engine="batch",
                                   reports=False)
            measurements = [measurement(p, float(c), None)
                            for p, c in zip(points, cycles)]
        else:
            reports = sdv.time_many(trace, configs, engine=engine)
            measurements = [measurement(p, r.cycles,
                                        r if keep_reports else None)
                            for p, r in zip(points, reports)]

    if attributions and not (engine == "batch" and not keep_reports):
        from repro.obs.attribution import attribute_many

        with log.context(f"attribute:{kernel}:{label}", kernel=kernel,
                         impl=label):
            atts = attribute_many(ct, configs, lowered=sdv.lower(trace))
        measurements = [replace(m, attribution=att)
                        for m, att in zip(measurements, atts)]
    return measurements


def _time_one_impl(spec: KernelSpec, workload, vl: int | None, axis: str,
                   points: Sequence[int], config: SdvConfig | None,
                   verify: bool, reference, keep_reports: bool, engine: str,
                   trace_cache, attributions: bool, runlog_on: bool,
                   trace_id: str, introspection: bool,
                   workload_fp: str | None) -> _ImplOutcome:
    """Generate + time one implementation across all points of one axis."""
    t_begin = time.perf_counter()
    log, first_record, es_before = _task_obs(runlog_on, trace_id,
                                             introspection)
    label = impl_label(vl)
    log.event("impl.start", kernel=spec.name, impl=label, axis=axis,
              points=len(points), engine=engine)

    with log.context(f"trace-gen:{spec.name}:{label}", kernel=spec.name,
                     impl=label):
        t0 = time.perf_counter()
        sdv, trace = run_implementation(spec, workload, vl, config=config,
                                        verify=verify, reference=reference,
                                        trace_cache=trace_cache,
                                        workload_fp=workload_fp)
        trace_gen_s = time.perf_counter() - t0
        log.event("impl.trace_ready", kernel=spec.name, impl=label,
                  records=len(trace), wall_s=round(trace_gen_s, 6))

    measurements = _time_points(sdv, trace, spec.name, label, axis, points,
                                keep_reports, engine, attributions, log)
    wall_s = time.perf_counter() - t_begin
    log.event("impl.done", kernel=spec.name, impl=label,
              measurements=len(measurements), wall_s=round(wall_s, 6))
    # move the task's records out: the parent adopts them whether the
    # task ran in a worker or in-process, so each lands in the parent's
    # log exactly once and persistent workers accumulate nothing
    records = log.records[first_record:]
    del log.records[first_record:]
    return _ImplOutcome(
        measurements=measurements,
        pid=os.getpid(),
        wall_s=wall_s,
        log=records,
        engine_stats=_es_delta(introspection, es_before),
    )


def _impl_task(args) -> _ImplOutcome:
    """Module-level worker: one (kernel, implementation) per process task."""
    (spec_or_name, workload, vl, axis, points, config, verify, reference,
     keep_reports, engine, trace_cache, attributions, runlog_on, trace_id,
     introspection, workload_fp, classify_name) = args
    set_default_classifier(classify_name)
    return _time_one_impl(_resolve_spec(spec_or_name), workload, vl, axis,
                          points, config, verify, reference, keep_reports,
                          engine, trace_cache, attributions, runlog_on,
                          trace_id, introspection, workload_fp)


def _validate_grid(axis: str, points: Sequence[int], vls: Sequence[int],
                   config: SdvConfig | None) -> None:
    """Fail fast on an illegal sweep grid, *before* trace generation.

    Trace generation is the expensive half of a sweep; an illegal knob
    value must not surface as a mid-sweep engine error after minutes of
    emitting. Reuses the ``repro.lint`` config pass so the CLI linter and
    the harness agree on legality.
    """
    from repro.lint.config_rules import check_sweep
    from repro.lint.findings import Severity

    errors = [f for f in check_sweep(axis, points, vls, config=config)
              if f.severity >= Severity.ERROR]
    if errors:
        lines = "; ".join(f"{f.rule} {f.location}: {f.message}"
                          for f in errors)
        raise ConfigError(f"illegal {axis} sweep grid: {lines}")


def _sweep(spec: KernelSpec, workload, axis: str, points: list[int],
           vls: Sequence[int], include_scalar: bool,
           config: SdvConfig | None, verify: bool, keep_reports: bool,
           engine: str, jobs: int, trace_cache,
           attributions: bool = False) -> SweepResult:
    _validate_grid(axis, points, vls, config)
    impls = _impls(vls, include_scalar)
    # hoisted per (kernel, workload): the reference is identical for
    # every implementation, and the workload pickles exactly once for
    # the trace-cache fingerprint
    reference = spec.reference(workload) if verify else None
    wl_payload = pickle.dumps(workload, protocol=4)
    workload_fp = workload_fingerprint(workload, payload=wl_payload)

    result = SweepResult(
        kernel=spec.name, axis=axis, points=points,
        impls=[impl_label(v) for v in impls],
    )
    runlog = get_runlog()
    engine_stats = engine_stats_mod.get_engine_stats()
    introspection = engine_stats_mod.introspection_enabled()
    my_pid = os.getpid()
    # registry kernels travel to workers by name (always picklable);
    # ad-hoc specs travel as themselves
    from repro.kernels import KERNELS

    payload = spec.name if KERNELS.get(spec.name) is spec else spec
    tasks = [
        (payload, workload, vl, axis, points, config, verify, reference,
         keep_reports, engine, trace_cache, attributions, runlog.enabled,
         runlog.trace_id, introspection, workload_fp, default_classifier())
        for vl in impls
    ]
    labels = [impl_label(v) for v in impls]
    parallel = resolve_jobs(jobs) > 1
    done = 0

    def heartbeat(idx: int, outcome: _ImplOutcome) -> None:
        # per-worker progress while slower implementations are in flight
        nonlocal done
        done += 1
        runlog.event("sweep.heartbeat", kernel=spec.name, axis=axis,
                     impl=labels[idx], done=done, total=len(tasks),
                     worker_pid=outcome.pid,
                     wall_s=round(outcome.wall_s, 3))
        if parallel:
            print(f"[sweep {spec.name}/{axis}] {labels[idx]} done "
                  f"({done}/{len(tasks)}, worker pid {outcome.pid}, "
                  f"{outcome.wall_s:.1f}s)", file=sys.stderr)

    with runlog.context(f"sweep:{spec.name}:{axis}", kernel=spec.name,
                        axis=axis, impls=len(tasks), points=len(points),
                        engine=engine, jobs=jobs):
        for outcome in run_tasks(_impl_task, tasks, jobs=jobs,
                                 on_result=heartbeat,
                                 initializer=_sweep_worker_init):
            runlog.adopt(outcome.log)
            if outcome.pid != my_pid:
                # in-process outcomes already recorded straight into
                # this collector; only worker deltas need merging
                engine_stats.merge(outcome.engine_stats)
            for m in outcome.measurements:
                result.add(m)
    return result


def latency_sweep(
    spec: KernelSpec,
    workload,
    *,
    latencies: Iterable[int] = DEFAULT_LATENCIES,
    vls: Sequence[int] = DEFAULT_VLS,
    include_scalar: bool = True,
    config: SdvConfig | None = None,
    verify: bool = True,
    keep_reports: bool = False,
    engine: str = DEFAULT_SWEEP_ENGINE,
    jobs: int = 1,
    trace_cache: str | os.PathLike | None = None,
    attributions: bool = False,
) -> SweepResult:
    """Section 4.1: execution time vs. extra memory latency.

    ``attributions=True`` additionally decomposes every sweep point's
    cycles into the :mod:`repro.obs.attribution` buckets (attached per
    measurement) at the cost of K+3 extra batch-walk columns per impl.
    ``jobs > 1`` runs each implementation as one task on the persistent
    worker pool (see ``docs/parallelism.md``); the rows are bit-identical
    to ``jobs=1``.
    """
    return _sweep(spec, workload, "latency", list(latencies), vls,
                  include_scalar, config, verify, keep_reports, engine,
                  jobs, trace_cache, attributions)


def bandwidth_sweep(
    spec: KernelSpec,
    workload,
    *,
    bandwidths: Iterable[int] = DEFAULT_BANDWIDTHS,
    vls: Sequence[int] = DEFAULT_VLS,
    include_scalar: bool = True,
    config: SdvConfig | None = None,
    verify: bool = True,
    keep_reports: bool = False,
    engine: str = DEFAULT_SWEEP_ENGINE,
    jobs: int = 1,
    trace_cache: str | os.PathLike | None = None,
    attributions: bool = False,
) -> SweepResult:
    """Section 4.2: execution time vs. the Bandwidth Limiter setting."""
    return _sweep(spec, workload, "bandwidth", list(bandwidths), vls,
                  include_scalar, config, verify, keep_reports, engine,
                  jobs, trace_cache, attributions)


def vl_sweep(
    spec: KernelSpec,
    workload,
    *,
    vls: Sequence[int] = DEFAULT_VLS,
    config: SdvConfig | None = None,
    verify: bool = True,
    trace_cache: str | os.PathLike | None = None,
) -> dict[str, float]:
    """Execution time per implementation at the default knob settings
    (the zero-extra-latency, full-bandwidth column of Figures 3/4)."""
    out: dict[str, float] = {}
    reference = spec.reference(workload) if verify else None
    for vl in _impls(vls, include_scalar=True):
        sdv, trace = run_implementation(spec, workload, vl, config=config,
                                        verify=verify, reference=reference,
                                        trace_cache=trace_cache)
        out[impl_label(vl)] = sdv.time(trace).cycles
    return out
