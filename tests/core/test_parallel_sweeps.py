"""Parallel sweeps: ``jobs=N`` fan-out is bit-identical to ``jobs=1``.

The contract under test (see ``docs/parallelism.md``): a sweep whose
implementations run as whole-implementation tasks on the worker pool
produces *exactly* the Measurement rows of the serial path — same
cycles, same reports, same attributions, same ordering — for every
kernel, axis and engine; and the per-implementation ``classify`` (and,
on the batch engine, ``lower``) stage shows up as its own run-log scope
on both paths.
"""

import pytest

import repro.core.sweeps as sweeps_mod
from repro.core.sweeps import (
    bandwidth_sweep,
    latency_sweep,
    workload_fingerprint,
)
from repro.kernels import KERNELS
from repro.obs.runlog import get_runlog, set_logging
from repro.workloads import get_scale

# >1 point and >1 implementation, cheap enough for the full
# kernel x engine x axis matrix at smoke scale
LATS = (0, 128, 512)
BWS = (4, 32)
VLS = (8, 32)


def _workload(kernel):
    spec = KERNELS[kernel]
    return spec, spec.prepare(get_scale("smoke"), 7)


def _rows(result):
    """Every field that must survive the fan-out, in result order."""
    out = []
    for m in result.measurements:
        rep = None if m.report is None else m.report.cycles
        att = None if m.attribution is None else \
            (m.attribution.total, dict(m.attribution.buckets))
        out.append((m.kernel, m.impl, m.extra_latency, m.bandwidth_bpc,
                    m.cycles, rep, att))
    return out


def _serial_vs_fanned(sweep, kernel="fft", **kw):
    spec, workload = _workload(kernel)
    serial = sweep(spec, workload, jobs=1, **kw)
    fanned = sweep(spec, workload, jobs=2, **kw)
    assert _rows(serial) == _rows(fanned)
    return fanned


class TestFanOutBitIdentity:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_latency_grid(self, kernel, engine):
        _serial_vs_fanned(latency_sweep, kernel, latencies=LATS, vls=VLS,
                          verify=False, engine=engine)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_bandwidth_grid(self, kernel, engine):
        _serial_vs_fanned(bandwidth_sweep, kernel, bandwidths=BWS, vls=VLS,
                          verify=False, engine=engine)

    def test_event_ref_engine(self):
        # the coroutine reference DES, the slowest and most stateful
        # engine
        _serial_vs_fanned(latency_sweep, latencies=LATS, vls=(8,),
                          verify=False, engine="event-ref")

    def test_batch_engine(self):
        _serial_vs_fanned(latency_sweep, latencies=LATS, vls=VLS,
                          verify=False, engine="batch")

    def test_keep_reports(self):
        fanned = _serial_vs_fanned(latency_sweep, latencies=LATS, vls=(8,),
                                   verify=False, engine="fast",
                                   keep_reports=True)
        assert all(m.report is not None for m in fanned.measurements)

    @pytest.mark.parametrize("engine", ["fast", "batch"])
    def test_attributions(self, engine):
        fanned = _serial_vs_fanned(latency_sweep, latencies=LATS, vls=(8,),
                                   verify=False, engine=engine,
                                   attributions=True)
        assert all(m.attribution is not None for m in fanned.measurements)

    def test_verified_sweep(self):
        _serial_vs_fanned(latency_sweep, latencies=LATS, vls=(8,),
                          verify=True, engine="fast")


class TestStageSpans:
    """classify and lower get their own scopes, apart from ``re-time``."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_classify_and_lower_span_per_impl(self, jobs):
        spec, workload = _workload("fft")
        log = set_logging(True)
        try:
            latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                          verify=False, engine="batch", jobs=jobs)
            names = [r["name"] for r in log.records]
        finally:
            set_logging(False)
        impls = ["scalar"] + [f"vl{v}" for v in VLS]
        for stage in ("classify", "lower"):
            for edge in ("begin", "end"):
                got = sorted(n for n in names if n.startswith(f"{stage}:")
                             and n.endswith(f".{edge}"))
                assert got == sorted(f"{stage}:fft:{i}.{edge}"
                                     for i in impls)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_ready_reaches_parent_once_per_impl(self, jobs):
        # the benchmark harness reads trace lengths from these events via
        # get_runlog()/set_logging()/.records/.clear()
        spec, workload = _workload("fft")
        set_logging(True)
        try:
            for _ in range(2):
                latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                              verify=False, engine="batch", jobs=jobs)
                ready = [r["attrs"] for r in get_runlog().records
                         if r["name"] == "impl.trace_ready"]
                get_runlog().clear()
                assert sorted(a["impl"] for a in ready) == sorted(
                    ["scalar"] + [f"vl{v}" for v in VLS])
                assert all(a["records"] > 0 for a in ready)
        finally:
            set_logging(False)


class TestFingerprintHoist:
    def test_fingerprint_computed_once_per_sweep(self, monkeypatch):
        # one pickle.dumps per (kernel, workload) in the parent, not one
        # per impl task
        spec, workload = _workload("fft")
        calls = []
        real = workload_fingerprint

        def counting(w, payload=None):
            calls.append(payload is not None)
            return real(w, payload)

        monkeypatch.setattr(sweeps_mod, "workload_fingerprint", counting)
        latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                      verify=False, engine="fast")
        assert calls == [True]  # once, reusing the already-pickled blob

    def test_hoisted_fp_reaches_cache_path(self, tmp_path, monkeypatch):
        spec, workload = _workload("fft")
        calls = []
        real = workload_fingerprint

        def counting(w, payload=None):
            calls.append(1)
            return real(w, payload)

        monkeypatch.setattr(sweeps_mod, "workload_fingerprint", counting)
        latency_sweep(spec, workload, latencies=LATS, vls=(8,),
                      verify=False, engine="fast", trace_cache=tmp_path)
        # serial in-process run: the hoisted fp flows into every
        # trace_cache_path call, so the workload pickles exactly once
        assert len(calls) == 1


class TestProfileParallel:
    def test_profile_jobs2_matches_serial(self):
        from repro.obs.profile import profile_kernel

        serial = profile_kernel("fft", scale="smoke", vls=(8, 32))
        fanned = profile_kernel("fft", scale="smoke", vls=(8, 32), jobs=2)
        assert [e.impl for e in serial.entries] == \
            [e.impl for e in fanned.entries]
        for a, b in zip(serial.entries, fanned.entries):
            assert a.attribution.total == b.attribution.total
            assert a.attribution.buckets == b.attribution.buckets
            assert a.report.cycles == b.report.cycles
