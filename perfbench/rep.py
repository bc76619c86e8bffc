"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (``run.py`` builds this command line; it is not meant for hand use)::

    python3 perfbench/rep.py --workload W --scale S --seed N \
        --phase fill|sweep --traced 0|1 --jobs J --cache DIR --out FILE

``--phase fill`` prepares the workload and fills the on-disk trace cache
(traces plus classified sidecars), as ``paper-bfs-warm``'s set-up does.
``--phase sweep`` prepares the workload and runs the workload's sweeps,
rendering each figure. The result, one JSON object, goes to ``--out``.

Untraced (``--traced 0``) the sweeps go through the public sweep API
(``latency_sweep`` / ``bandwidth_sweep``), exactly as ``repro-sdv fig3``
runs them. Traced (``--traced 1``) the same work is done serially by
calling each layer's public function in the order
``repro.core.sweeps._time_one_impl`` calls it, every call wrapped in a
span. The simulated cycles of both must agree bit for bit; ``run.py``
checks that.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

#: Fig 3/4 x-axis and Fig 5 x-axis, as in ``repro.core.sweeps``.
LATENCIES = (0, 32, 64, 128, 256, 512, 1024)
BANDWIDTHS = (1, 2, 4, 8, 16, 32, 64)
#: scalar plus the paper's six vector lengths
IMPLS = (None, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which figure sweeps run, and how."""

    kernel: str
    scale: str
    #: (axis, attribution buckets on) per sweep, in run order
    sweeps: tuple[tuple[str, bool], ...]
    engine: str
    jobs: int
    #: set-up fills a trace cache that the timed sweeps then read
    warm_cache: bool
    why: str

    @property
    def ops_per_rep(self) -> int:
        """Operations one repetition attempts: one per (impl, sweep)."""
        return len(IMPLS) * len(self.sweeps)


WORKLOADS = {
    "paper-spmv-cold": Workload(
        "spmv", "paper", (("latency", True), ("bandwidth", False)),
        "batch", 1, False,
        "headline kernel end to end from nothing: trace generation, "
        "classification, fused attribution walk and Fig 5 walk all show"),
    "paper-bfs-warm": Workload(
        "bfs", "paper", (("latency", False),), "batch", 1, True,
        "walk-bound: the batch walk over 1.8M cached records dominates; "
        "generation and classification move into set-up"),
    "ci-spmv-des-j2": Workload(
        "spmv", "ci", (("latency", False),), "event", 2, False,
        "discrete-event engine over two workers: the only load on the "
        "DES, the worker pool and the shared-memory trace plane"),
}


def impl_label(vl: int | None) -> str:
    return "scalar" if vl is None else f"vl{vl}"


def axis_points(axis: str) -> tuple[int, ...]:
    return LATENCIES if axis == "latency" else BANDWIDTHS


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Spans:
    """In-memory span recorder.

    Each record holds name, start, end, the index of its parent span, a
    (workload, implementation) id and optional counts taken at the same
    boundary. Records are written out once, when the repetition ends.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str, impl: str | None = None, **counts):
        parent = self._open[-1] if self._open else None
        if impl is None and parent is not None:
            impl = self.records[parent]["id"][1]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "id": [self.workload, impl],
               "counts": counts}
        self._open.append(len(self.records))
        self.records.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _array_bytes(obj) -> int:
    """Computed bytes of an object's array fields: ndarray ``nbytes``,
    8 bytes per element of a Python list (one pointer each)."""
    import numpy as np

    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += 8 * len(value)
    return total


class Rep:
    """One repetition of one workload in this interpreter."""

    def __init__(self, name: str, scale: str, seed: int, jobs: int,
                 cache: str) -> None:
        self.w = WORKLOADS[name]
        self.scale = scale
        self.seed = seed
        self.jobs = jobs
        self.cache = cache

    def setup(self, spans: Spans | None) -> None:
        """Imports and ``spec.prepare``: everything before the sweep."""
        from repro.kernels import KERNELS
        from repro.workloads import get_scale

        self.spec = KERNELS[self.w.kernel]
        with spans("workloads.prepare") if spans else nullcontext():
            self.workload = self.spec.prepare(get_scale(self.scale),
                                              self.seed)

    # ------------------------------------------------------------ fill

    def fill(self, spans: Spans | None) -> dict:
        """Fill the trace cache for every implementation."""
        from repro.core.sweeps import run_implementation, workload_fingerprint

        ops = []
        if spans is None:
            fp = workload_fingerprint(self.workload)
            reference = self.spec.reference(self.workload)
            for vl in IMPLS:
                ops.append(_attempt(
                    "fill", vl, lambda vl=vl: run_implementation(
                        self.spec, self.workload, vl, verify=True,
                        reference=reference, trace_cache=self.cache,
                        workload_fp=fp)))
            return {"ops": ops}
        with spans("core.sweeps.fill"):
            fp = workload_fingerprint(self.workload)
            with spans("kernels.verify"):
                reference = self.spec.reference(self.workload)
            for vl in IMPLS:
                with spans("core.sweeps.impl", impl_label(vl)):
                    ops.append(_attempt("fill", vl, lambda vl=vl: (
                        self._traced_trace(spans, vl, reference, fp))))
        return {"ops": ops}

    # ----------------------------------------------------------- sweep

    def sweep(self, spans: Spans | None) -> dict:
        """Run every sweep of the workload, rendering each figure."""
        from repro.core.report import render_figure3, render_figure5
        from repro.core.sweeps import bandwidth_sweep, latency_sweep
        from repro.obs.runlog import get_runlog, set_logging

        out = {"cycles": {}, "records": {}, "ops": []}
        run = {"latency": latency_sweep, "bandwidth": bandwidth_sweep}
        if spans is None:
            # the run log is the one place the sweep API reports trace
            # lengths (a few events per implementation)
            set_logging(True)
        for axis, attributions in self.w.sweeps:
            render = render_figure3 if axis == "latency" else render_figure5
            try:
                if spans is None:
                    result = run[axis](
                        self.spec, self.workload, engine=self.w.engine,
                        jobs=self.jobs, trace_cache=self.cache or None,
                        attributions=attributions)
                    records = {
                        r["attrs"]["impl"]: r["attrs"]["records"]
                        for r in get_runlog().records
                        if r["name"] == "impl.trace_ready"}
                    get_runlog().clear()
                    render(result)
                else:
                    result, records = self._traced_sweep(
                        spans, axis, attributions)
                    with spans("core.report.render", None):
                        render(result)
            except Exception as exc:  # a failed sweep fails its every op
                out["ops"].extend(
                    {"axis": axis, "impl": impl_label(vl),
                     "error": f"{type(exc).__name__}: {exc}"}
                    for vl in IMPLS)
                continue
            out["cycles"][axis] = {impl: result.series(impl)
                                   for impl in result.impls}
            out["records"][axis] = records
            out["ops"].extend({"axis": axis, "impl": impl_label(vl),
                               "error": None} for vl in IMPLS)
        return out

    def _traced_sweep(self, spans: Spans, axis: str, attributions: bool):
        """The sweep, serially, one span per public layer call, in the
        order ``_time_one_impl`` makes them."""
        from repro.core.measurements import Measurement, SweepResult
        from repro.core.sweeps import workload_fingerprint
        from repro.obs.attribution import attribute_many

        points = axis_points(axis)
        result = SweepResult(kernel=self.spec.name, axis=axis,
                             points=list(points),
                             impls=[impl_label(v) for v in IMPLS])
        records = {}
        with spans("core.sweeps.sweep", None, axis=axis):
            with spans("kernels.verify"):
                reference = self.spec.reference(self.workload)
            fp = workload_fingerprint(self.workload)
            for vl in IMPLS:
                label = impl_label(vl)
                with spans("core.sweeps.impl", label) as counts:
                    sdv, trace = self._traced_trace(spans, vl, reference,
                                                    fp)
                    n = len(trace)
                    configs = [sdv.config.with_extra_latency(p)
                               if axis == "latency"
                               else sdv.config.with_bandwidth(p)
                               for p in points]
                    # a seeded classification is a lookup, not work
                    fresh = 0 if sdv.has_classification(trace) else n
                    with spans("memory.classify", records=fresh):
                        ct = sdv.classify(trace)
                    lowered = None
                    if self.w.engine == "batch":
                        with spans("engine.lower", records=n):
                            lowered = sdv.lower(trace)
                        if attributions:
                            with spans("obs.attribute", records=n):
                                cycles = [a.total for a in attribute_many(
                                    ct, configs, lowered=lowered)]
                        else:
                            with spans("engine.walk", records=n,
                                       cols=len(configs)):
                                cycles = sdv.time_many(
                                    trace, configs, engine="batch",
                                    reports=False)
                    else:
                        with spans("engine.des", records=n,
                                   points=len(configs)):
                            cycles = [r.cycles for r in sdv.time_many(
                                trace, configs, engine=self.w.engine)]
                    counts.update(
                        records=n, trace_bytes=_array_bytes(trace.cols),
                        lowered_bytes=(_array_bytes(lowered)
                                       if lowered is not None else 0))
                records[label] = n
                base_lat = sdv.extra_latency
                base_bpc = int(sdv.bandwidth_bpc)
                for p, c in zip(points, cycles):
                    result.add(Measurement(
                        kernel=self.spec.name, impl=label,
                        extra_latency=p if axis == "latency" else base_lat,
                        bandwidth_bpc=p if axis == "bandwidth" else base_bpc,
                        cycles=float(c)))
        return result, records

    def _traced_trace(self, spans: Spans, vl: int | None, reference,
                      fp: str):
        """``run_implementation``, one span per layer call: load the
        cached trace and its sidecar, or generate, verify and (with a
        cache) save it."""
        from pathlib import Path

        from repro.core.sweeps import classified_sidecar_path, trace_cache_path
        from repro.errors import KernelError
        from repro.soc.sdv import FpgaSdv
        from repro.trace.serialize import (
            load_classified,
            load_trace,
            save_classified,
            save_trace,
        )

        sdv = FpgaSdv()
        if vl is not None:
            sdv.configure(max_vl=vl)
        path = None
        if self.cache:
            path = trace_cache_path(Path(self.cache), self.spec.name,
                                    self.workload, vl, sdv, spec=self.spec,
                                    workload_fp=fp)
            if path.exists():
                with spans("trace.load", hits=1) as counts:
                    trace = load_trace(path)
                    counts["records"] = len(trace)
                side = classified_sidecar_path(path, sdv)
                if side.exists():
                    with spans("memory.sidecar_load"):
                        ct = load_classified(
                            side, trace, sdv.config,
                            geometry_fp=sdv.geometry_fingerprint())
                        if ct is not None:
                            sdv.seed_classification(trace, ct)
                return sdv, trace
        with spans("trace.gen", misses=1) as counts:
            session = sdv.session()
            builder = self.spec.vector if vl is not None else self.spec.scalar
            output = builder(session, self.workload)
            trace = session.seal()
            counts["records"] = len(trace)
        with spans("kernels.verify"):
            ok = self.spec.check(output, reference)
        if not ok:
            raise KernelError(
                f"{self.spec.name}/{impl_label(vl)} produced a wrong result")
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            with spans("trace.save"):
                save_trace(trace, path)
            with spans("memory.classify", records=len(trace)):
                ct = sdv.classify(trace)
            with spans("memory.sidecar_save"):
                save_classified(ct, classified_sidecar_path(path, sdv),
                                geometry_fp=sdv.geometry_fingerprint())
        return sdv, trace


def _attempt(axis: str, vl: int | None, fn) -> dict:
    try:
        fn()
    except Exception as exc:  # counted as a failed operation by run.py
        return {"axis": axis, "impl": impl_label(vl),
                "error": f"{type(exc).__name__}: {exc}"}
    return {"axis": axis, "impl": impl_label(vl), "error": None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scale", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", required=True, choices=("fill", "sweep"))
    ap.add_argument("--traced", type=int, required=True, choices=(0, 1))
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--cache", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from repro.memory.classify_fast import default_classifier

    spans = Spans(args.workload) if args.traced else None
    rep = Rep(args.workload, args.scale, args.seed, args.jobs, args.cache)
    rep.setup(spans)
    # the sweep is ready: set-up time ends here
    ready = time.monotonic()
    cpu_ready = cpu_seconds()
    t0 = time.perf_counter()
    out = rep.fill(spans) if args.phase == "fill" else rep.sweep(spans)
    wall = time.perf_counter() - t0
    out.update(ready=ready, done=time.monotonic(), wall_s=wall,
               cpu_ready=cpu_ready, classifier=default_classifier(),
               spans=spans.records if spans else [])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
