"""Sweep-harness infrastructure: process fan-out + on-disk trace cache.

Covers the ``jobs=N`` worker-pool path (results identical to serial), the
``trace_cache=DIR`` path (a repeat run must not re-execute the kernel, and
an *edited* kernel must miss the cache), and the hoisted once-per-sweep
reference.
"""

import dataclasses
import os

import pytest

import repro.core.parallel as parallel_mod
import repro.core.sweeps as sweeps_mod
from repro.core.parallel import (
    default_jobs,
    resolve_jobs,
    run_tasks,
    shutdown_pool,
)
from repro.core.sweeps import (
    bandwidth_sweep,
    latency_sweep,
    run_implementation,
    trace_cache_path,
    vl_sweep,
    workload_fingerprint,
)
from repro.kernels import KERNELS
from repro.soc import FpgaSdv
from repro.workloads import get_scale


def _square(x):
    return x * x


class TestRunTasks:
    def test_serial_matches_parallel(self):
        tasks = list(range(8))
        assert run_tasks(_square, tasks, jobs=1) == \
            run_tasks(_square, tasks, jobs=2) == [x * x for x in tasks]

    def test_resolve_jobs(self):
        assert resolve_jobs(0) == default_jobs()
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(4) == 4

    def test_single_task_runs_inline(self):
        assert run_tasks(_square, [5], jobs=8) == [25]


def _init_marker(value):
    import os
    os.environ["_REPRO_TEST_POOL_INIT"] = value


def _read_marker(_):
    import os
    return os.environ.get("_REPRO_TEST_POOL_INIT")


class TestPersistentPool:
    def test_pool_survives_across_calls(self):
        shutdown_pool()
        try:
            run_tasks(_square, [1, 2, 3], jobs=2)
            first = parallel_mod._pool
            run_tasks(_square, [4, 5, 6], jobs=2)
            second = parallel_mod._pool
            if first is not None:  # pool came up on this platform
                assert second is first
        finally:
            shutdown_pool()
        assert parallel_mod._pool is None

    def test_pool_replaced_when_shape_changes(self):
        shutdown_pool()
        try:
            run_tasks(_square, [1, 2, 3], jobs=2)
            first = parallel_mod._pool
            run_tasks(_square, [1, 2, 3], jobs=3)
            second = parallel_mod._pool
            if first is not None and second is not None:
                assert second is not first
                assert second[0][0] == 3
        finally:
            shutdown_pool()

    def test_shape_change_waits_for_old_workers(self):
        # regression: the old pool was torn down with wait=False, leaving
        # orphaned workers running alongside the new pool (e.g. still
        # writing a trace-cache file the new workers read)
        shutdown_pool()
        calls = {}

        class _Recorder:
            def shutdown(self, wait=False, cancel_futures=False):
                calls["wait"] = wait
                calls["cancel_futures"] = cancel_futures

        parallel_mod._pool = ((99, None, ()), _Recorder())
        try:
            parallel_mod._get_pool(2, None, ())
            assert calls == {"wait": True, "cancel_futures": True}
        finally:
            shutdown_pool()

    def test_foreign_pool_is_abandoned_not_shut_down(self, monkeypatch):
        # a pool inherited across fork belongs to the parent: the child
        # builds its own and never shuts the parent's workers down
        class _Parents:
            def shutdown(self, *a, **k):
                raise AssertionError("foreign pool must not be shut down")

        parents = ((1, None, ()), _Parents())
        monkeypatch.setattr(parallel_mod, "_pool", parents)
        monkeypatch.setattr(parallel_mod, "_pool_pid", os.getpid() + 1)
        try:
            pool = parallel_mod._get_pool(1, None, ())
            assert parallel_mod._pool[1] is pool
            assert parallel_mod._pool_pid == os.getpid()
        finally:
            shutdown_pool()

    def test_initializer_runs_in_workers_and_persists(self):
        shutdown_pool()
        try:
            seen = run_tasks(_read_marker, [0, 1], jobs=2,
                             initializer=_init_marker, initargs=("warm",))
            assert seen == ["warm", "warm"]
            # second call, same shape: same workers, initializer state kept
            seen = run_tasks(_read_marker, [0, 1], jobs=2,
                             initializer=_init_marker, initargs=("warm",))
            assert seen == ["warm", "warm"]
        finally:
            shutdown_pool()

    def test_serial_path_runs_initializer_inline(self, monkeypatch):
        monkeypatch.delenv("_REPRO_TEST_POOL_INIT", raising=False)
        out = run_tasks(_read_marker, [0], jobs=4,
                        initializer=_init_marker, initargs=("inline",))
        assert out == ["inline"]  # single task -> in-process + initializer


class _FakePool:
    """Stands in for a ProcessPoolExecutor with pre-resolved futures."""

    def __init__(self, futures):
        self._futures = list(futures)
        self._next = 0

    def submit(self, fn, task):
        f = self._futures[self._next]
        self._next += 1
        return f

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenPoolRebuild:
    def test_rebuild_reports_each_task_once(self, monkeypatch):
        # a worker dies mid-run: the first dispatch completes some tasks
        # then raises BrokenProcessPool; the retry completes everything.
        # on_result must fire exactly once per task (no duplicate
        # heartbeats) and the rebuild must surface as one warn event.
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.runlog import set_logging

        tasks = [1, 2, 3]
        first = []
        for t in tasks[:-1]:
            f = Future()
            f.set_result(t * t)
            first.append(f)
        broken = Future()
        broken.set_exception(BrokenProcessPool("worker died"))
        first.append(broken)
        second = []
        for t in tasks:
            f = Future()
            f.set_result(t * t)
            second.append(f)

        pools = iter([_FakePool(first), _FakePool(second)])
        monkeypatch.setattr(parallel_mod, "_get_pool",
                            lambda workers, init, initargs: next(pools))

        log = set_logging(True)
        reported = []
        try:
            out = run_tasks(_square, tasks, jobs=2,
                            on_result=lambda i, r: reported.append(i))
        finally:
            set_logging(False)

        assert out == [1, 4, 9]
        assert sorted(reported) == [0, 1, 2]  # each index exactly once
        warns = [r for r in log.records
                 if r["name"] == "parallel.pool_rebuilt"]
        assert len(warns) == 1 and warns[0]["level"] == "warn"

    def test_twice_broken_pool_falls_back_to_serial(self, monkeypatch,
                                                    capsys):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.runlog import set_logging

        def broken_pool(workers, init, initargs):
            futures = []
            for _ in range(3):
                f = Future()
                f.set_exception(BrokenProcessPool("worker died"))
                futures.append(f)
            return _FakePool(futures)

        monkeypatch.setattr(parallel_mod, "_get_pool", broken_pool)
        log = set_logging(True)
        reported = []
        try:
            out = run_tasks(_square, [1, 2, 3], jobs=2,
                            on_result=lambda i, r: reported.append(i))
        finally:
            set_logging(False)
        assert out == [1, 4, 9]  # serial fallback still computes
        assert sorted(reported) == [0, 1, 2]
        warns = [r for r in log.records
                 if r["name"] == "parallel.serial_fallback"]
        assert len(warns) == 1 and warns[0]["level"] == "warn"
        # visible without the stream too: one stderr line per fallback
        assert capsys.readouterr().err.count(
            "parallel.serial_fallback") == 1


class TestWorkerTraceMemo:
    def test_cached_trace_loaded_once_per_process(self, tmp_path,
                                                  monkeypatch):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        run_implementation(spec, workload, 8, verify=False,
                           trace_cache=tmp_path)  # warm the disk cache
        monkeypatch.setattr(sweeps_mod, "_TRACE_MEMO", {})
        loads = []
        real_load = sweeps_mod.load_trace

        def counting_load(path):
            loads.append(str(path))
            return real_load(path)

        monkeypatch.setattr(sweeps_mod, "load_trace", counting_load)
        _, t1 = run_implementation(spec, workload, 8, verify=False,
                                   trace_cache=tmp_path)
        _, t2 = run_implementation(spec, workload, 8, verify=False,
                                   trace_cache=tmp_path)
        assert len(loads) == 1  # second hit served from the memo
        assert t2 is t1         # same object -> engine plan caches reused

    def test_memo_is_bounded(self, tmp_path, monkeypatch):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        monkeypatch.setattr(sweeps_mod, "_TRACE_MEMO", {})
        monkeypatch.setattr(sweeps_mod, "_TRACE_MEMO_CAP", 2)
        for vl in (8, 16, 32, 64):
            run_implementation(spec, workload, vl, verify=False,
                               trace_cache=tmp_path)   # record
            run_implementation(spec, workload, vl, verify=False,
                               trace_cache=tmp_path)   # load + memoize
        assert len(sweeps_mod._TRACE_MEMO) <= 2


class TestParallelSweeps:
    def test_latency_sweep_jobs2_matches_serial(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        serial = latency_sweep(spec, workload, vls=(8, 64))
        fanned = latency_sweep(spec, workload, vls=(8, 64), jobs=2)
        for impl in serial.impls:
            assert serial.series(impl) == fanned.series(impl)

    def test_bandwidth_sweep_jobs2_matches_serial(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        serial = bandwidth_sweep(spec, workload, vls=(8,))
        fanned = bandwidth_sweep(spec, workload, vls=(8,), jobs=2)
        for impl in serial.impls:
            assert serial.series(impl) == fanned.series(impl)


class _EmitterRan(Exception):
    """Raised by the edited-kernel stand-in to prove it executed."""


def _edited(session, workload):
    raise _EmitterRan


class TestTraceCache:
    def test_cache_files_written_and_results_identical(self, tmp_path):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        first = latency_sweep(spec, workload, vls=(8,),
                              trace_cache=tmp_path)
        traces = [f for f in tmp_path.glob("*.npz")
                  if ".cls" not in f.name]
        sidecars = [f for f in tmp_path.glob("*.npz") if ".cls" in f.name]
        assert len(traces) == 2  # scalar + vl8
        assert len(sidecars) == 2  # one classified sidecar per trace
        second = latency_sweep(spec, workload, vls=(8,),
                               trace_cache=tmp_path)
        for impl in first.impls:
            assert first.series(impl) == second.series(impl)

    def test_cache_hit_skips_kernel_execution(self, tmp_path):
        # wrappers keep the cache key stable across both runs (the key
        # fingerprints the emitters' defining module, which here is this
        # test file either way) while counting every actual execution
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        calls = []

        def counting_scalar(session, w):
            calls.append("scalar")
            return spec.scalar(session, w)

        def counting_vector(session, w):
            calls.append("vector")
            return spec.vector(session, w)

        counted = dataclasses.replace(spec, scalar=counting_scalar,
                                      vector=counting_vector)
        latency_sweep(counted, workload, vls=(8,), trace_cache=tmp_path)
        assert calls  # the warming run did record the traces
        calls.clear()
        result = latency_sweep(counted, workload, vls=(8,),
                               trace_cache=tmp_path, verify=False)
        assert calls == []  # cache hit: no emitter re-executed
        assert len(result.measurements) == 2 * len(result.points)

    def test_changed_kernel_source_invalidates_cache(self, tmp_path):
        # the staleness guard: a spec whose emitter code differs from the
        # one that warmed the cache must re-record, not load a stale trace
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        latency_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        edited = dataclasses.replace(spec, scalar=_edited, vector=_edited)
        with pytest.raises(_EmitterRan):
            latency_sweep(edited, workload, vls=(8,),
                          trace_cache=tmp_path, verify=False)
        sdv = FpgaSdv().configure(max_vl=8)
        assert trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                                spec=spec) != \
            trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                             spec=edited)

    def test_template_machinery_edit_invalidates_cache(self, monkeypatch):
        # the cache key must cover the trace-template machinery (Dep
        # semantics, replicate fixups, emission mode), not just the
        # kernel emitters: an edit there changes every recorded dep and
        # address column without touching any kernels/ file
        import inspect as real_inspect

        import repro.core.sweeps as sweeps_mod
        from repro.core.sweeps import kernel_fingerprint

        spec = KERNELS["fft"]
        base = kernel_fingerprint(spec)
        assert base == kernel_fingerprint(spec)  # deterministic

        real_getsource = real_inspect.getsource

        def edited_getsource(obj):
            src = real_getsource(obj)
            if getattr(obj, "__name__", "") == "repro.trace.template":
                return src + "\n# Dep.prev now steps by 2 iterations\n"
            return src

        monkeypatch.setattr(sweeps_mod.inspect, "getsource",
                            edited_getsource)
        assert kernel_fingerprint(spec) != base

    def test_cache_key_distinguishes_vl_and_workload(self, tmp_path):
        spec = KERNELS["fft"]
        w7 = spec.prepare(get_scale("smoke"), 7)
        w8 = spec.prepare(get_scale("smoke"), 8)
        assert workload_fingerprint(w7) != workload_fingerprint(w8)
        assert workload_fingerprint(w7) == workload_fingerprint(w7)
        sdv8 = FpgaSdv().configure(max_vl=8)
        sdv64 = FpgaSdv().configure(max_vl=64)
        assert trace_cache_path(tmp_path, spec.name, w7, 8, sdv8) != \
            trace_cache_path(tmp_path, spec.name, w7, 64, sdv64)
        assert trace_cache_path(tmp_path, spec.name, w7, 8, sdv8) != \
            trace_cache_path(tmp_path, spec.name, w8, 8, sdv8)

    def test_cache_path_that_is_a_file_rejected(self, tmp_path):
        from repro.errors import TraceError
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        not_a_dir = tmp_path / "cache.txt"
        not_a_dir.write_text("")
        with pytest.raises(TraceError):
            run_implementation(spec, workload, 8, verify=False,
                               trace_cache=not_a_dir)

    def test_interrupted_save_leaves_no_entry(self, tmp_path, monkeypatch):
        # a writer dying mid-save must not leave a truncated file that
        # every later run would fail to load; the next run regenerates
        import numpy as np

        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        real_savez = np.savez

        def dies_midway(fh, **arrays):
            fh.write(b"PK\x03\x04 truncated")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", dies_midway)
        with pytest.raises(KeyboardInterrupt):
            run_implementation(spec, workload, 8, verify=False,
                               trace_cache=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(np, "savez", real_savez)
        sdv, trace = run_implementation(spec, workload, 8, verify=False,
                                        trace_cache=tmp_path)
        path = trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                                spec=spec)
        assert path.exists() and len(trace) > 0
        sweeps_mod._TRACE_MEMO.clear()
        _, again = run_implementation(spec, workload, 8, verify=False,
                                      trace_cache=tmp_path)
        assert len(again) == len(trace)

    def test_vl_sweep_accepts_cache(self, tmp_path):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        first = vl_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        second = vl_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        assert first == second


class TestHoistedReference:
    def test_reference_computed_once_per_sweep(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        calls = []

        def counting_reference(w):
            calls.append(1)
            return spec.reference(w)

        counted = dataclasses.replace(spec, reference=counting_reference)
        latency_sweep(counted, workload, vls=(8, 64), verify=True)
        assert len(calls) == 1  # three implementations, one reference

    def test_explicit_reference_skips_recompute(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        ref = spec.reference(workload)
        poisoned = dataclasses.replace(
            spec, reference=lambda w: pytest.fail("reference recomputed"))
        sdv, trace = run_implementation(poisoned, workload, 8,
                                        verify=True, reference=ref)
        assert trace.sealed


class TestClassifiedSidecar:
    """The classified sidecar: reloads skip reclassification entirely."""

    def _warm(self, tmp_path):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        latency_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        return spec, workload

    def test_reload_seeds_from_sidecar_without_reclassifying(self, tmp_path):
        from repro.core import sweeps as sweeps_mod
        from repro.obs import engine_stats as es_mod

        spec, workload = self._warm(tmp_path)
        first = latency_sweep(spec, workload, vls=(8,),
                              trace_cache=tmp_path, verify=False)
        # drop the in-process trace memo: memoized traces still carry
        # their classification, which would mask the sidecar path
        sweeps_mod._TRACE_MEMO.clear()
        was = es_mod.introspection_enabled()
        collector = es_mod.set_introspection(True)
        before = collector.snapshot()
        try:
            second = latency_sweep(spec, workload, vls=(8,),
                                   trace_cache=tmp_path, verify=False)
        finally:
            es_mod.set_introspection(was)
        delta = es_mod.snapshot_delta(
            before, collector.snapshot())["counters"]
        for impl in first.impls:
            assert first.series(impl) == second.series(impl)
        assert delta.get("classify.sidecar_hits") == 2  # scalar + vl8
        assert delta.get("classify.sidecar_misses", 0) == 0
        # sidecar seeding means zero classification runs on reload
        assert delta.get("classify.stack_runs", 0) \
            + delta.get("classify.walk_runs", 0) == 0

    def test_stale_geometry_sidecar_is_ignored(self, tmp_path, capsys):
        from repro.core import sweeps as sweeps_mod
        from repro.core.sweeps import run_implementation
        from repro.obs import engine_stats as es_mod
        from repro.obs.runlog import set_logging

        spec, workload = self._warm(tmp_path)
        sweeps_mod._TRACE_MEMO.clear()
        for side in tmp_path.glob("*.npz"):
            if ".cls" in side.name:
                # keep the filename honest but corrupt the payload so the
                # embedded-fingerprint check rejects it on load
                side.write_bytes(b"not an npz")
        was = es_mod.introspection_enabled()
        collector = es_mod.set_introspection(True)
        before = collector.snapshot()
        log = set_logging(True)
        try:
            sdv, trace = run_implementation(spec, workload, 8,
                                            verify=False,
                                            trace_cache=tmp_path)
            ct = sdv.classify(trace)
            rejected = [r for r in log.records
                        if r["name"] == "trace_cache.sidecar_rejected"]
        finally:
            set_logging(False)
            es_mod.set_introspection(was)
        delta = es_mod.snapshot_delta(
            before, collector.snapshot())["counters"]
        assert ct is not None
        assert delta.get("classify.sidecar_misses", 0) >= 1
        assert delta.get("classify.sidecar_hits", 0) == 0
        # the fallback is audible: one warning naming file and reason
        assert len(rejected) == 1
        assert rejected[0]["level"] == "warn"
        assert ".cls" in rejected[0]["attrs"]["path"]
        # np.load's own complaint about the garbage bytes
        assert rejected[0]["attrs"]["reason"].startswith("ValueError: ")
        assert "trace_cache.sidecar_rejected" in capsys.readouterr().err

    def test_compressed_cache_from_older_writer_seeds_sweep(self, tmp_path):
        """Files the old deflating writer left (same keys) stay valid."""
        import zipfile

        import numpy as np

        from repro.core import sweeps as sweeps_mod
        from repro.obs import engine_stats as es_mod
        from repro.trace.serialize import (
            CLASSIFIED_FORMAT_VERSION,
            FORMAT_VERSION,
            load_classified,
            load_trace,
        )

        assert (FORMAT_VERSION, CLASSIFIED_FORMAT_VERSION) == (2, 1)
        spec, workload = self._warm(tmp_path)
        new = latency_sweep(spec, workload, vls=(8,), trace_cache=tmp_path,
                            verify=False)
        sdv = FpgaSdv()
        geom = sdv.geometry_fingerprint()

        def read_all():
            out = {}
            for f in sorted(tmp_path.glob("*.npz")):
                if ".cls" not in f.name:
                    continue
                trace = load_trace(f.with_name(f.name.split(".cls")[0]
                                               + ".npz"))
                ct = load_classified(f, trace, sdv.config, geometry_fp=geom)
                out[f.name] = (trace.cols, ct)
            return out

        files = sorted(tmp_path.glob("*.npz"))
        assert len(files) == 4  # scalar + vl8, trace + sidecar each
        for f in files:
            assert {i.compress_type for i in zipfile.ZipFile(f).infolist()} \
                == {zipfile.ZIP_STORED}
        stored = read_all()
        for f in files:  # rewrite every entry as the old writer did
            with np.load(f) as z:
                data = dict(z)
            np.savez_compressed(f, **data)
            assert zipfile.ZIP_DEFLATED in {
                i.compress_type for i in zipfile.ZipFile(f).infolist()}
        deflated = read_all()
        assert stored.keys() == deflated.keys()
        for name, (cols, ct) in stored.items():
            cols2, ct2 = deflated[name]
            assert cols.strings == cols2.strings
            for col in ("kind", "n_alu", "dep", "addr_off", "addrs",
                        "writes", "opcode_id", "label_id"):
                np.testing.assert_array_equal(getattr(cols, col),
                                              getattr(cols2, col))
            assert np.array_equal(ct.rows, ct2.rows)
            assert np.array_equal(ct.level_lens, ct2.level_lens)
            assert np.array_equal(ct.level_flat, ct2.level_flat)

        sweeps_mod._TRACE_MEMO.clear()
        was = es_mod.introspection_enabled()
        collector = es_mod.set_introspection(True)
        before = collector.snapshot()
        try:
            old = latency_sweep(spec, workload, vls=(8,),
                                trace_cache=tmp_path, verify=False)
        finally:
            es_mod.set_introspection(was)
        delta = es_mod.snapshot_delta(
            before, collector.snapshot())["counters"]
        assert delta.get("classify.sidecar_hits") == 2
        assert delta.get("classify.stack_runs", 0) \
            + delta.get("classify.walk_runs", 0) == 0
        for impl in new.impls:
            assert new.series(impl) == old.series(impl)
