"""Batch engine: exact agreement with the fast engine, plus API contract.

The batch engine's promise is *bit-identical* cycles to ``simulate_fast``
at every sweep point — not "close", identical floats — so these tests use
exact equality across the full Figure-3 (latency) and Figure-5 (bandwidth)
grids on all four kernels.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import SdvConfig
from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    run_implementation,
)
from repro.engine import ENGINES
from repro.engine.batch_sim import (
    batch_cycles,
    simulate_batch,
    simulate_batch_one,
)
from repro.engine.fast_sim import simulate_fast
from repro.engine.lower import (
    LKIND_BARRIER,
    LKIND_SCALAR,
    knob_free_config,
    lower_trace,
)
from repro.errors import EngineError
from repro.isa import ScalarContext, VectorContext
from repro.kernels import KERNELS
from repro.memory.address_space import MemoryImage
from repro.memory.classify import classify_trace
from repro.obs.attribution import attribute, attribute_many
from repro.soc import FpgaSdv
from repro.trace.events import TraceBuffer
from repro.trace.serialize import load_trace, save_trace
from repro.workloads import get_scale

# scalar is always included; the trace-heavy kernels get a VL subset to
# bound CI runtime (agreement is VL-independent — the lowered arrays just
# get longer)
GRID_VLS = {
    "spmv": (8, 64, 256),
    "fft": (8, 64, 256),
    "bfs": (8, 256),
    "pagerank": (8, 256),
}

REPORT_FIELDS = (
    "cycles", "scalar_issue_cycles", "scalar_stall_cycles",
    "vpu_arith_cycles", "vpu_mem_cycles", "bandwidth_bound_cycles",
    "dram_reads", "dram_writes",
)


def grid_configs(base: SdvConfig) -> list[SdvConfig]:
    """Full Figure-3 latency axis + full Figure-5 bandwidth axis."""
    return ([base.with_extra_latency(l) for l in DEFAULT_LATENCIES]
            + [base.with_bandwidth(b) for b in DEFAULT_BANDWIDTHS])


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_batch_matches_fast_exactly_on_full_grids(kernel):
    spec = KERNELS[kernel]
    workload = spec.prepare(get_scale("ci"), 7)
    for vl in (None,) + GRID_VLS[kernel]:
        sdv, trace = run_implementation(spec, workload, vl, verify=False)
        configs = grid_configs(sdv.config)
        batch = sdv.time_many(trace, configs, engine="batch", reports=False)
        fast = sdv.time_many(trace, configs, engine="fast", reports=False)
        assert np.array_equal(batch, fast), (kernel, vl)


def test_batch_reports_match_fast_reports_field_for_field():
    spec = KERNELS["spmv"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 64, verify=False)
    configs = grid_configs(sdv.config)
    reports = simulate_batch(sdv.lower(trace), configs)
    for cfg, b in zip(configs, reports):
        f = simulate_fast(dataclasses.replace(sdv.classify(trace),
                                              config=cfg))
        for fld in REPORT_FIELDS:
            assert getattr(b, fld) == getattr(f, fld), fld
        assert b.engine == "batch"


def test_batch_cycles_equals_report_cycles():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    configs = grid_configs(sdv.config)
    lowered = sdv.lower(trace)
    compact = batch_cycles(lowered, configs)
    full = [r.cycles for r in simulate_batch(lowered, configs)]
    assert compact.tolist() == full


def test_serialized_trace_retimes_identically(tmp_path):
    spec = KERNELS["spmv"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 64, verify=False)
    path = tmp_path / "spmv-vl64.npz"
    save_trace(trace, path)
    reloaded = load_trace(path)
    configs = grid_configs(sdv.config)
    original = sdv.time_many(trace, configs, engine="batch", reports=False)
    roundtrip = sdv.time_many(reloaded, configs, engine="batch",
                              reports=False)
    assert np.array_equal(original, roundtrip)


def test_engine_registry_has_batch_and_sdv_accepts_it():
    assert "batch" in ENGINES
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv_b = FpgaSdv(engine="batch").configure(max_vl=8)
    sdv_f = FpgaSdv(engine="fast").configure(max_vl=8)
    _, rb = sdv_b.run(spec.vector, workload)
    _, rf = sdv_f.run(spec.vector, workload)
    assert rb.cycles == rf.cycles
    assert rb.engine == "batch"
    # hardware counters absorbed the run like any other engine
    assert sdv_b.counters.snapshot() == rb.cycles


def test_simulate_batch_one_matches_fast():
    spec = KERNELS["pagerank"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    ct = sdv.classify(trace)
    assert simulate_batch_one(ct).cycles == simulate_fast(ct).cycles


def test_empty_config_list_rejected():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    with pytest.raises(EngineError):
        simulate_batch(sdv.lower(trace), [])


def test_non_knob_config_change_rejected():
    """A batch may only vary the latency/bandwidth knobs."""
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    lowered = sdv.lower(trace)
    other = sdv.config.with_max_vl(16)
    assert knob_free_config(other) != lowered.base_key
    with pytest.raises(EngineError):
        simulate_batch(lowered, [other])


def test_lowered_trace_is_cached_on_the_trace_object():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    first = sdv.lower(trace)
    sdv.configure(extra_latency=512)  # knob changes must not re-lower
    assert sdv.lower(trace) is first


def test_lower_trace_validates_dependency_targets():
    spec = KERNELS["spmv"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    ct = sdv.classify(trace)
    lowered = lower_trace(ct)
    assert lowered.n == len(ct.rows)
    assert lowered.total_dram_reads == int(
        ct.rows["dram_reads"].sum() + ct.rows["pf_dram_reads"].sum())

    # edges the native walk could not index safely are rejected up front
    scalar_row = int(np.flatnonzero(lowered.kind == LKIND_SCALAR)[0])
    for bad_dep in (lowered.n, scalar_row):
        rows = ct.rows.copy()
        rows["dep"][-1] = bad_dep
        with pytest.raises(EngineError, match="dependency edge"):
            lower_trace(dataclasses.replace(ct, rows=rows))


# -- kernel edge cases ------------------------------------------------------

#: VPU builds that switch off or shrink each walk feature
VPU_VARIANTS = {
    "default": {},
    "no-chaining": {"chaining": False},
    "in-order-mem": {"ooo_mem_issue": False},
    "queue-depth-1": {"mem_queue_depth": 1},
    "in-order-queue-depth-2": {"ooo_mem_issue": False,
                               "mem_queue_depth": 2},
    "line-mshrs-7": {"line_mshrs": 7},
}


def _axpy_then_gather(mem, scl, vec, *, barriers):
    """Dependent strided and indexed vector work; ``barriers`` places
    barriers (a leading one, two in a row, none at the end)."""
    rng = np.random.default_rng(3)
    x = mem.alloc("x", np.arange(2048, dtype=np.float64))
    y = mem.alloc("y", rng.random(1 << 12))
    idx = mem.alloc("idx", rng.integers(0, 1 << 12, 1024))
    if barriers:
        scl.barrier()
    i = 0
    while i < 2048:
        vl = vec.vsetvl(2048 - i)
        xv = vec.vle(x, i)
        vec.vse(vec.vfmacc(xv, xv, 3.0), x, i)
        i += vl
    scl.emit_block(y.addr(rng.integers(0, 1 << 12, 256)), False, 512)
    if barriers:
        scl.barrier()
        scl.barrier()          # a barrier-only segment
    i = 0
    while i < 1024:
        vl = vec.vsetvl(1024 - i)
        vec.vlxe(y, vec.vle(idx, i))
        i += vl


def _hand_trace(barriers):
    mem = MemoryImage(1 << 22)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=64)
    scl = ScalarContext(mem, trace)
    _axpy_then_gather(mem, scl, vec, barriers=barriers)
    scl.flush()
    return trace.seal()


def _edge_trace(program, config):
    if program == "spmv-vl64":
        spec = KERNELS["spmv"]
        _, trace = run_implementation(spec, spec.prepare(
            get_scale("smoke"), 7), 64, verify=False)
    else:
        trace = _hand_trace(barriers=program == "barrier-only-segment")
    return classify_trace(trace, config)


@pytest.mark.parametrize("program", ["spmv-vl64", "no-final-barrier",
                                     "barrier-only-segment"])
@pytest.mark.parametrize("variant", sorted(VPU_VARIANTS))
def test_batch_matches_fast_on_kernel_edge_cases(program, variant):
    base = SdvConfig()
    config = dataclasses.replace(base, vpu=dataclasses.replace(
        base.vpu, **VPU_VARIANTS[variant])).validate()
    ct = _edge_trace(program, config)
    lowered = lower_trace(ct)
    kinds = lowered.kind
    if program == "no-final-barrier":
        assert kinds[-1] != LKIND_BARRIER
        assert not np.any(kinds == LKIND_BARRIER)
    if program == "barrier-only-segment":
        bars = np.flatnonzero(kinds == LKIND_BARRIER)
        assert np.any(np.diff(bars) == 1) and bars[0] == 0

    configs = grid_configs(config)
    fast = [simulate_fast(dataclasses.replace(ct, config=c)).cycles
            for c in configs]
    assert batch_cycles(lowered, configs).tolist() == fast

    # attribution: the 2K+3-column ladder walk against per-point fast
    points = configs[::4]
    many = attribute_many(ct, points, lowered=lowered)
    for cfg, att in zip(points, many):
        ref = attribute(dataclasses.replace(ct, config=cfg), engine="fast")
        assert att.ladder == ref.ladder
        assert att.buckets == ref.buckets
