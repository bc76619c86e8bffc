"""Batch timing engine: every sweep point of one trace in one native walk.

``simulate_fast`` walks the classified trace once *per knob setting* in
Python; a paper sweep calls it 7-49 times per (kernel, implementation)
trace. This engine times all of those settings from the trace's lowered
form (:func:`repro.engine.lower.lower_trace`, computed once) in a single
call into a small C kernel, ``walk.c``: the same frontier recurrence, run
config by config over the flat record arrays, with the knob-dependent
terms computed inline by the same IEEE operations in the same order. The
two engines agree bit for bit; the agreement tests pin exact cycle
equality on all four kernels.

The kernel is compiled with the local ``gcc`` on the first batch walk and
cached (see :func:`_load`). When it cannot be built or loaded, the reason
is logged once (run-log warning ``batch.native_fallback`` plus the
engine-stats counter of that name) and each config is re-timed through
:func:`simulate_fast` instead: same cycles, K Python walks.

Configurations in one batch must share everything except the two runtime
sweep knobs (Latency Controller ``extra_latency_cycles`` and Bandwidth
Limiter ``bw_num/bw_den``); :class:`repro.errors.EngineError` otherwise.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import os
import subprocess
import tempfile
from collections.abc import Sequence
from importlib import resources
from pathlib import Path

import numpy as np

from repro.config import SdvConfig
from repro.engine import core_model, vpu_model
from repro.engine.fast_sim import simulate_fast
from repro.engine.lower import LoweredTrace, knob_free_config, lower_trace
from repro.engine.results import CycleReport
from repro.errors import EngineError
from repro.memory.classify import ClassifiedTrace


def _check_configs(lowered: LoweredTrace,
                   configs: Sequence[SdvConfig]) -> None:
    if not configs:
        raise EngineError("simulate_batch needs at least one config")
    for k, cfg in enumerate(configs):
        if knob_free_config(cfg) != lowered.base_key:
            raise EngineError(
                f"config {k} differs from the lowered trace in more than "
                "the latency/bandwidth knobs; re-lower the trace for it"
            )


def _knob_axes(configs: Sequence[SdvConfig]):
    """DRAM latency, limiter window and L2 hit latency, one per config."""
    lat = np.array([c.dram_latency for c in configs], dtype=np.float64)
    den = np.array([c.mem.bw_den for c in configs], dtype=np.float64)
    num = np.array([c.mem.bw_num for c in configs], dtype=np.float64)
    l2 = np.array([c.l2_hit_latency for c in configs], dtype=np.float64)
    return lat, den, num, l2


def _bw_floor(lowered: LoweredTrace, lat: np.ndarray, den: np.ndarray,
              num: np.ndarray) -> np.ndarray:
    """Global Bandwidth Limiter floor (exact integer closed form)."""
    total = lowered.total_dram_reads + lowered.total_dram_writes
    floor = np.zeros(len(lat))
    if total > 0:
        for k in range(len(lat)):
            floor[k] = (((total - 1) // int(num[k])) * int(den[k]) + 1.0
                        + lat[k])
    return floor


_FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-std=c99",
          "-fPIC", "-shared")


def _compile_and_load(src: bytes, so: Path):
    """Build ``src`` to a unique temporary file, load it, then publish it
    at ``so``; concurrent builders race safely on ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=so.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(["gcc", *_FLAGS, "-x", "c", "-", "-o", tmp],
                       input=src, capture_output=True, check=True)
        fn = ctypes.CDLL(tmp).repro_walk
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return fn


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/repro`` when it is ours and no one else can
    write to it, else ``None``."""
    try:
        root = Path(os.environ.get("XDG_CACHE_HOME")
                    or Path.home() / ".cache") / "repro"
        root.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = root.stat()
    except (OSError, RuntimeError):         # RuntimeError: no home dir
        return None
    private = st.st_uid == os.getuid() and not st.st_mode & 0o022
    return root if private and os.access(root, os.W_OK) else None


def _load():
    """``(kernel, None)`` or ``(None, reason)``.

    The shared object is cached under :func:`_cache_dir`, named by the
    sha256 of the source, the compiler version and the flags; a cached
    file that fails to load is rebuilt once. Without a usable cache dir
    each process builds into a fresh private temp dir and reuses nothing
    (a shared temp dir could hold someone else's file of that name).
    """
    try:
        src = resources.files("repro.engine").joinpath("walk.c").read_bytes()
        cc = subprocess.run(["gcc", "--version"], capture_output=True,
                            check=True).stdout
        tag = hashlib.sha256(src + cc + " ".join(_FLAGS).encode())
        name = f"repro-walk-{tag.hexdigest()[:16]}.so"
        root = _cache_dir()
        if root is None:
            with tempfile.TemporaryDirectory(prefix="repro-") as tmp:
                fn = _compile_and_load(src, Path(tmp) / name)
        else:
            try:
                fn = ctypes.CDLL(str(root / name)).repro_walk
            except (OSError, AttributeError):   # absent, truncated, corrupt
                fn = _compile_and_load(src, root / name)
    except (OSError, AttributeError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        return None, f"{type(exc).__name__}: {exc} {detail.decode()}".strip()
    fn.restype = None
    fn.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 7
                   + [ctypes.c_int64] + [ctypes.c_void_p] * 8)
    return fn, None


@functools.lru_cache(maxsize=None)
def _kernel():
    """The native walk, loaded on first use; ``None`` (logged once, with
    the reason) when it cannot be built or loaded."""
    fn, reason = _load()
    if fn is None:
        from repro.obs.engine_stats import get_engine_stats, \
            introspection_enabled
        from repro.obs.runlog import get_runlog

        get_runlog().event("batch.native_fallback", level="warn",
                           reason=reason)
        if introspection_enabled():
            get_engine_stats().count("batch.native_fallback")
    return fn


def _walk(lowered: LoweredTrace, configs: Sequence[SdvConfig],
          axes) -> tuple[np.ndarray, np.ndarray]:
    """Cycle counts of ``lowered`` at each config, in one native walk,
    and the bandwidth floor under them; ``axes`` is
    ``_knob_axes(configs)``.

    The configs need only agree on what the lowered arrays bake in; the
    attribution ladder also varies the L2 hit latency per column (NoC and
    cache latencies enter the model only through it). Without the native
    kernel each config is re-timed through :func:`simulate_fast`, whose
    cycles the kernel reproduces bit for bit.
    """
    from repro.obs.engine_stats import get_engine_stats, \
        introspection_enabled

    K, n = len(configs), lowered.n
    if introspection_enabled():
        es = get_engine_stats()
        es.count("batch.walks")
        es.count("batch.points", K)
        es.count("batch.record_points", n * K)
    lat, den, num, l2 = axes
    floor = _bw_floor(lowered, lat, den, num)
    fn = _kernel()
    if fn is None:
        return np.array([
            simulate_fast(dataclasses.replace(lowered.ct, config=c)).cycles
            for c in configs]), floor

    vpu = lowered.base.vpu
    L = lowered
    per_rec = [np.ascontiguousarray(a, dtype=t) for a, t in (
        (L.kind, np.int8), (L.dep, np.int64), (L.slot, np.int64),
        (L.scalar_dest, np.uint8), (L.vm_first_kind, np.int8))]
    cols = [np.ascontiguousarray(c, dtype=np.float64) for c in (
        L.sc_issue, L.sc_l2_hits, L.sc_dram_reads, L.sc_p, L.sc_bw_txns,
        L.va_occ, L.vm_addr, L.vm_lines, L.vm_l2_lines, L.vm_txns,
        L.vm_dram_reads)]
    table = (ctypes.c_void_p * len(cols))(*[c.ctypes.data for c in cols])
    prm = np.array([vpu_model.arith_latency(L.base),
                    vpu_model.LANE_PIPE_DEPTH,
                    core_model.VECTOR_DISPATCH_CYCLES,
                    core_model.VSETVL_CYCLES,
                    core_model.SCALAR_RESULT_TRANSFER_CYCLES,
                    vpu.line_mshrs, vpu.chaining, vpu.ooo_mem_issue,
                    vpu.mem_queue_depth], dtype=np.float64)
    # chain, completion, mem_queue_depth ring; then the end times
    out = [np.empty(n), np.empty(n), np.empty(vpu.mem_queue_depth),
           np.empty(K)]
    kind, dep, slot, sdest, first = (a.ctypes.data for a in per_rec)
    fn(n, kind, dep, slot, sdest, table, first, prm.ctypes.data, K,
       *(a.ctypes.data for a in (lat, den, num, l2, *out)))
    return np.maximum(out[-1], floor), floor


def batch_cycles(lowered: LoweredTrace,
                 configs: Sequence[SdvConfig]) -> np.ndarray:
    """Cycle counts only, one per config — no :class:`CycleReport` garbage.

    This is the ``keep_reports=False`` sweep path: a compact float64 vector
    the harness turns directly into :class:`Measurement` rows.
    """
    configs = list(configs)
    _check_configs(lowered, configs)
    if lowered.n == 0:
        return np.zeros(len(configs))
    return _walk(lowered, configs, _knob_axes(configs))[0]


def simulate_batch(lowered: LoweredTrace,
                   configs: Sequence[SdvConfig]) -> list[CycleReport]:
    """Time one lowered trace at every config; one report per config.

    ``simulate_batch(lowered, [c1..cK])[k]`` equals
    ``simulate_fast(classified trace rebound to ck)`` cycle-for-cycle.
    """
    configs = list(configs)
    _check_configs(lowered, configs)
    K = len(configs)
    if lowered.n == 0:
        return [CycleReport(cycles=0.0, engine="batch") for _ in range(K)]

    axes = _knob_axes(configs)
    cycles, bw_floor = _walk(lowered, configs, axes)
    lat, den, num, _ = axes

    issue = float(lowered.sc_issue.sum())
    stall_l2 = float(lowered.sc_stall_l2.sum())
    stall_dram_per_lat = float((lowered.sc_dram_reads / lowered.sc_p).sum())
    varith = float(lowered.va_occ.sum())
    if lowered.n_vmem:
        # per-instruction memory-unit busy time, max(AGU, streaming)
        vm_service = np.maximum(
            lowered.vm_lines[:, None],
            lowered.vm_l2_lines[:, None]
            + lowered.vm_txns[:, None] * den[None, :] / num[None, :],
        )
        vmem = np.maximum(lowered.vm_addr[:, None], vm_service).sum(axis=0)
    else:
        vmem = np.zeros(K)

    return [
        CycleReport(
            cycles=float(cycles[k]),
            engine="batch",
            scalar_issue_cycles=issue,
            scalar_stall_cycles=stall_l2 + stall_dram_per_lat * lat[k],
            vpu_arith_cycles=varith,
            vpu_mem_cycles=float(vmem[k]),
            bandwidth_bound_cycles=float(bw_floor[k]),
            dram_reads=lowered.total_dram_reads,
            dram_writes=lowered.total_dram_writes,
            meta={"records": lowered.n, "batch_size": K},
        )
        for k in range(K)
    ]


def simulate_batch_one(ct: ClassifiedTrace) -> CycleReport:
    """Engine-registry adapter: time a classified trace at its own config.

    Lowers on the fly; callers that re-time many points should lower once
    (via :meth:`repro.soc.FpgaSdv.time_many`, which also caches the lowered
    form on the trace) and call :func:`simulate_batch` directly.
    """
    return simulate_batch(lower_trace(ct), [ct.config])[0]
