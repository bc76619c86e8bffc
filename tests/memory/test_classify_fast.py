"""Equality suite for the vectorized classification engine.

The stack-distance engine (:func:`repro.memory.classify_fast.
classify_trace_fast`) must be **bit-identical** to the sequential walker
(:func:`repro.memory.classify.classify_trace`) — rows, per-record level
arrays and totals — on every trace and every cache geometry. These tests
pin that down three ways: a kernel x VL grid on real generated traces, a
directed geometry/feature ablation grid on random traces, and a
Hypothesis property suite on adversarial access streams.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CoreConfig, L2Config, SdvConfig, VpuConfig
from repro.errors import ConfigError, TraceError
from repro.memory.classify import classify_trace
from repro.memory.classify_fast import (
    CLASSIFIERS,
    classify_trace_fast,
    default_classifier,
    first_touch_mask,
    prev_occurrence,
    set_default_classifier,
)
from repro.trace.events import (
    ScalarBlock,
    TraceBuffer,
    VectorInstr,
    VMemPattern,
    VOpClass,
)

BASE = 0x10000


def tiny_cfg(**vpu_kwargs) -> SdvConfig:
    return SdvConfig(
        core=CoreConfig(l1d_bytes=4096, l1d_ways=4),
        l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4),
        vpu=VpuConfig(**vpu_kwargs),
    ).validate()


def assert_identical(a, b):
    """rows, packed levels and totals all bit-identical."""
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.level_lens, b.level_lens)
    assert np.array_equal(a.level_flat, b.level_flat)
    assert a.level_flat.dtype == b.level_flat.dtype == np.uint8
    assert a.totals == b.totals


def rand_trace(rng, n_rec, vl) -> TraceBuffer:
    """Random mixed scalar/vector trace exercising every pattern."""
    tb = TraceBuffer()
    for _ in range(n_rec):
        if rng.random() < 0.45:
            k = int(rng.integers(1, 12))
            addrs = (rng.integers(0, 1 << 14, size=k)) * 8
            writes = rng.random(k) < 0.35
            tb.append(ScalarBlock(n_alu_ops=0,
                                  mem_addrs=addrs.astype(np.int64),
                                  mem_is_write=writes))
        else:
            pat = [VMemPattern.UNIT, VMemPattern.STRIDED,
                   VMemPattern.INDEXED][int(rng.integers(0, 3))]
            base = int(rng.integers(0, 1 << 12)) * 8
            k = int(rng.integers(1, vl + 1))
            if pat == VMemPattern.UNIT:
                addrs = base + 8 * np.arange(k)
            elif pat == VMemPattern.STRIDED:
                addrs = base + int(rng.integers(1, 9)) * 8 * np.arange(k)
            else:
                addrs = (rng.integers(0, 1 << 12, size=k)) * 8
            w = bool(rng.random() < 0.4)
            tb.append(VectorInstr(op=VOpClass.MEM, vl=k,
                                  opcode="vse" if w else "vle", pattern=pat,
                                  addrs=addrs.astype(np.int64), is_write=w))
    return tb.seal()


class TestKernelGrid:
    """Real generated traces: every kernel, scalar + two VLs."""

    @pytest.mark.parametrize("kernel", ["spmv", "bfs", "pagerank", "fft"])
    @pytest.mark.parametrize("vl", [None, 64, 256])
    def test_bit_identical_on_kernel_traces(self, kernel, vl):
        from repro.core.sweeps import run_implementation
        from repro.kernels import KERNELS
        from repro.workloads import get_scale

        spec = KERNELS[kernel]
        workload = spec.prepare(get_scale("smoke"), 7)
        _sdv, trace = run_implementation(spec, workload, vl, verify=False,
                                         reference=None, trace_cache=None)
        cfg = SdvConfig().validate()
        assert_identical(classify_trace(trace, cfg),
                         classify_trace_fast(trace, cfg))


class TestAblationGrid:
    """Random traces across geometry / prefetch / coalescing ablations."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_prefetch_and_coalescing(self, depth, coalesce):
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=4096, l1d_ways=4,
                            l1_prefetch_depth=depth),
            l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4),
            vpu=VpuConfig(coalesce_gathers=coalesce),
        ).validate()
        rng = np.random.default_rng(depth * 2 + coalesce)
        for _ in range(6):
            tr = rand_trace(rng, int(rng.integers(10, 80)), 32)
            assert_identical(classify_trace(tr, cfg),
                             classify_trace_fast(tr, cfg))

    @pytest.mark.parametrize("l1_bytes,l1_ways", [(4096, 2), (8192, 8)])
    @pytest.mark.parametrize("banks,bank_ways", [(1, 4), (4, 16)])
    def test_geometry_ablations(self, l1_bytes, l1_ways, banks, bank_ways):
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=l1_bytes, l1d_ways=l1_ways),
            l2=L2Config(banks=banks, bank_bytes=64 * 1024, ways=bank_ways),
        ).validate()
        rng = np.random.default_rng(l1_bytes + l1_ways + banks + bank_ways)
        for _ in range(6):
            tr = rand_trace(rng, int(rng.integers(10, 80)),
                            int(rng.choice([8, 64])))
            assert_identical(classify_trace(tr, cfg),
                             classify_trace_fast(tr, cfg))


class TestPropertySuite:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_streams_identical(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n_rec = data.draw(st.integers(1, 60))
        vl = data.draw(st.sampled_from([1, 8, 32, 64]))
        depth = data.draw(st.sampled_from([0, 2]))
        coalesce = data.draw(st.booleans())
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=4096, l1d_ways=4,
                            l1_prefetch_depth=depth),
            l2=L2Config(banks=2, bank_bytes=16 * 1024, ways=4),
            vpu=VpuConfig(coalesce_gathers=coalesce),
        ).validate()
        tr = rand_trace(np.random.default_rng(seed), n_rec, vl)
        assert_identical(classify_trace(tr, cfg),
                         classify_trace_fast(tr, cfg))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=120))
    def test_prev_occurrence_matches_dict_walk(self, vals):
        lines = np.asarray(vals, dtype=np.int64)
        prev = prev_occurrence(lines)
        last: dict[int, int] = {}
        for t, line in enumerate(vals):
            assert prev[t] == last.get(line, -1)
            last[line] = t
        assert np.array_equal(first_touch_mask(lines), prev < 0)


class TestSelector:
    def test_registry_has_both_engines(self):
        assert set(CLASSIFIERS) == {"stack", "walk"}
        assert default_classifier() in CLASSIFIERS

    def test_unknown_default_rejected(self):
        with pytest.raises(TraceError):
            set_default_classifier("bogus")

    def test_sdv_selector_and_cache_keying(self):
        from repro.soc import FpgaSdv

        tb = TraceBuffer()
        tb.append(ScalarBlock(n_alu_ops=0,
                              mem_addrs=np.array([BASE, BASE + 8, BASE]),
                              mem_is_write=np.zeros(3, dtype=bool)))
        trace = tb.seal()
        stack = FpgaSdv(classify="stack")
        walk = FpgaSdv(classify="walk")
        assert stack.classify_name == "stack"
        assert walk.classify_name == "walk"
        assert_identical(stack.classify(trace), walk.classify(trace))
        # each selector caches under its own key
        assert stack.has_classification(trace)
        assert walk.has_classification(trace)

    def test_unknown_selector_rejected(self):
        from repro.soc import FpgaSdv

        with pytest.raises(ConfigError):
            FpgaSdv(classify="bogus")

    def test_seed_classification_round_trip(self):
        from repro.soc import FpgaSdv

        tb = TraceBuffer()
        tb.append(ScalarBlock(n_alu_ops=0, mem_addrs=np.array([BASE]),
                              mem_is_write=np.zeros(1, dtype=bool)))
        trace = tb.seal()
        a = FpgaSdv()
        ct = a.classify(trace)
        # the cache lives on the trace, keyed by (engine, geometry): a
        # same-geometry peer already sees it ...
        assert FpgaSdv().has_classification(trace)
        # ... and a fresh trace object does not, until seeded
        tb2 = TraceBuffer()
        tb2.append(ScalarBlock(n_alu_ops=0, mem_addrs=np.array([BASE]),
                               mem_is_write=np.zeros(1, dtype=bool)))
        trace2 = tb2.seal()
        b = FpgaSdv()
        assert not b.has_classification(trace2)
        b.seed_classification(trace2, ct)
        assert b.has_classification(trace2)
        assert b.classify(trace2).totals == ct.totals


class TestPackedLevels:
    """The packed ``(level_lens, level_flat)`` form both engines emit."""

    def _mixed(self):
        tb = TraceBuffer()
        tb.append(ScalarBlock(n_alu_ops=1, mem_addrs=np.array([BASE, BASE]),
                              mem_is_write=np.zeros(2, dtype=bool)))
        tb.append(VectorInstr(op=VOpClass.ARITH, vl=8, opcode="vfadd"))
        tb.append(ScalarBlock(n_alu_ops=3, mem_addrs=np.zeros(0, np.int64),
                              mem_is_write=np.zeros(0, dtype=bool)))
        tb.append(VectorInstr(op=VOpClass.MEM, vl=8, opcode="vle",
                              pattern=VMemPattern.UNIT,
                              addrs=BASE + 8 * np.arange(8)))
        return tb.seal()

    @pytest.mark.parametrize("engine", ["walk", "stack"])
    def test_invariants(self, engine):
        ct = CLASSIFIERS[engine](self._mixed(), tiny_cfg())
        lens = ct.level_lens
        assert lens.dtype == np.int64 and ct.level_flat.dtype == np.uint8
        assert len(ct.level_flat) == int(np.maximum(lens, 0).sum())
        # -1 exactly on records without memory requests
        assert lens.tolist() == [2, -1, -1, 1]
        assert ct.levels_of(1) is None and ct.levels_of(2) is None
        assert ct.levels_of(0).tolist() == [2, 0]  # DRAM, then L1 hit
        assert ct.levels_of(3).tolist() == [1]  # recalled, L2 hit

    @pytest.mark.parametrize("engine", ["walk", "stack"])
    def test_no_memory_records(self, engine):
        tb = TraceBuffer()
        tb.append(VectorInstr(op=VOpClass.ARITH, vl=8, opcode="vfadd"))
        ct = CLASSIFIERS[engine](tb.seal(), tiny_cfg())
        assert ct.level_lens.tolist() == [-1]
        assert ct.level_flat.shape == (0,)

    def test_misaligned_lengths_rejected(self):
        ct = classify_trace(self._mixed(), tiny_cfg())
        with pytest.raises(TraceError):
            dataclasses.replace(ct, level_flat=ct.level_flat[:-1],
                                level_off=None)
        with pytest.raises(TraceError):
            dataclasses.replace(ct, level_lens=ct.level_lens[:-1],
                                level_off=None)
