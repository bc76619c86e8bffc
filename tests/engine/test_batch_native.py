"""The batch engine's native walk: loader, build cache and fallback.

``batch_sim._kernel`` compiles ``walk.c`` on first use. When it cannot be
built or loaded, every batch walk re-times through ``simulate_fast``; the
results must not change by a bit, and the reason must be logged exactly
once. A corrupt cached build must be rebuilt (or fall back with a logged
reason), never crash a sweep.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    run_implementation,
)
from repro.engine import batch_sim
from repro.kernels import KERNELS
from repro.obs.attribution import attribute_many
from repro.obs.engine_stats import set_introspection
from repro.obs.runlog import set_logging
from repro.workloads import get_scale

SRC = Path(__file__).resolve().parents[2] / "src"


def _all_paths(kernel):
    """batch_cycles, simulate_batch and attribute_many on a CI-scale
    kernel's scalar and two vector implementations."""
    spec = KERNELS[kernel]
    workload = spec.prepare(get_scale("ci"), 7)
    out = []
    for vl in (None, 64, 256):
        sdv, trace = run_implementation(spec, workload, vl, verify=False)
        lowered = sdv.lower(trace)
        configs = ([sdv.config.with_extra_latency(x)
                    for x in DEFAULT_LATENCIES]
                   + [sdv.config.with_bandwidth(b)
                      for b in DEFAULT_BANDWIDTHS])
        reports = batch_sim.simulate_batch(lowered, configs)
        atts = attribute_many(sdv.classify(trace), configs, lowered=lowered)
        out.append((
            batch_sim.batch_cycles(lowered, configs).tolist(),
            [dataclasses.asdict(r) for r in reports],
            [a.as_dict() for a in atts],
        ))
    return out


@pytest.fixture
def reset_kernel():
    batch_sim._kernel.cache_clear()
    yield
    batch_sim._kernel.cache_clear()


def test_walk_source_ships_as_package_data():
    src = resources.files("repro.engine").joinpath("walk.c")
    assert src.is_file()
    assert b"repro_walk" in src.read_bytes()


def test_native_kernel_loads_here():
    fn, reason = batch_sim._load()
    assert fn is not None, reason


@pytest.mark.parametrize("kernel", ["spmv", "fft"])
def test_fallback_is_bit_identical_and_logged_once(kernel, monkeypatch,
                                                   reset_kernel):
    assert batch_sim._kernel() is not None
    native = _all_paths(kernel)

    monkeypatch.setattr(batch_sim, "_load", lambda: (None, "unavailable"))
    batch_sim._kernel.cache_clear()
    log = set_logging(True)
    stats = set_introspection(True)
    try:
        fallback = _all_paths(kernel)
        warnings = [r for r in log.records
                    if r["name"] == "batch.native_fallback"]
        fallbacks = stats.counters.get("batch.native_fallback")
    finally:
        set_logging(False)
        set_introspection(False)

    for (nc, nr, na), (fc, fr, fa) in zip(native, fallback):
        assert np.array_equal(nc, fc)
        assert nr == fr
        assert na == fa
    assert len(warnings) == 1
    assert warnings[0]["level"] == "warn"
    assert warnings[0]["attrs"]["reason"] == "unavailable"
    assert fallbacks == 1


_PROBE = textwrap.dedent("""
    import json
    from repro.core.sweeps import run_implementation
    from repro.engine import batch_sim
    from repro.kernels import KERNELS
    from repro.obs.runlog import set_logging
    from repro.workloads import get_scale

    log = set_logging(True)
    spec = KERNELS["spmv"]
    sdv, trace = run_implementation(
        spec, spec.prepare(get_scale("smoke"), 7), 64, verify=False)
    cfgs = [sdv.config.with_extra_latency(x) for x in (0, 512)]
    cycles = sdv.time_many(trace, cfgs, engine="batch", reports=False)
    print(json.dumps({
        "native": batch_sim._kernel() is not None,
        "cycles": cycles.tolist(),
        "warnings": [r["attrs"]["reason"] for r in log.records
                     if r["name"] == "batch.native_fallback"],
    }))
""")


def _probe(cache_home, **env):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home),
               PYTHONPATH=str(SRC), **env)
    res = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _truncate_cached_build(cache_home):
    (so,) = (Path(cache_home) / "repro").glob("repro-walk-*.so")
    so.write_bytes(so.read_bytes()[:200])
    return so


def test_corrupt_cached_build_is_rebuilt(tmp_path):
    first = _probe(tmp_path)
    assert first["native"] and not first["warnings"]
    so = _truncate_cached_build(tmp_path)
    again = _probe(tmp_path)
    assert again == first
    assert so.stat().st_size > 200


def test_corrupt_cache_without_a_working_compiler_falls_back(tmp_path):
    first = _probe(tmp_path)
    _truncate_cached_build(tmp_path)
    # a gcc that reports the real version (so the cache name matches the
    # corrupt file) but cannot compile anything
    version = subprocess.run(["gcc", "--version"], capture_output=True,
                             check=True).stdout
    (tmp_path / "version.txt").write_bytes(version)
    fake = tmp_path / "bin" / "gcc"
    fake.parent.mkdir()
    fake.write_text(textwrap.dedent(f"""\
        #!/bin/sh
        if [ "$1" = "--version" ]; then cat {tmp_path / "version.txt"}; exit 0; fi
        echo "gcc: no compiling today" >&2; exit 1
        """))
    fake.chmod(0o755)
    out = _probe(tmp_path, PATH=f"{fake.parent}{os.pathsep}"
                 f"{os.environ.get('PATH', '')}")
    assert not out["native"]
    assert out["cycles"] == first["cycles"]
    (reason,) = out["warnings"]
    assert "no compiling today" in reason


def _cache_name():
    src = resources.files("repro.engine").joinpath("walk.c").read_bytes()
    cc = subprocess.run(["gcc", "--version"], capture_output=True,
                        check=True).stdout
    tag = hashlib.sha256(src + cc + " ".join(batch_sim._FLAGS).encode())
    return f"repro-walk-{tag.hexdigest()[:16]}.so"


def test_unwritable_cache_dir_builds_privately_in_the_temp_dir(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = _probe(blocker, TMPDIR=str(tmp))
    assert out["native"] and not out["warnings"]
    assert list(tmp.iterdir()) == []        # nothing left behind


def test_temp_dir_file_of_the_cache_name_is_never_loaded(tmp_path):
    """A planted library under the cache name in the shared temp dir (or
    in a cache dir others can write to) must not be dlopened."""
    planted = tmp_path / "planted.c"
    planted.write_text(textwrap.dedent("""\
        #include <stdio.h>
        #include <stdlib.h>
        __attribute__((constructor)) static void boom(void) {
            fputs("planted library ran", stderr); exit(3);
        }
        void repro_walk(void) {}
        """))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    so = tmp / _cache_name()
    subprocess.run(["gcc", "-shared", "-fPIC", str(planted), "-o", str(so)],
                   check=True)
    so.chmod(0o777)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    out = _probe(blocker, TMPDIR=str(tmp))
    assert out["native"] and not out["warnings"]

    shared = tmp_path / "shared"
    (shared / "repro").mkdir(parents=True)
    (shared / "repro" / so.name).write_bytes(so.read_bytes())
    (shared / "repro").chmod(0o777)
    out = _probe(shared, TMPDIR=str(tmp))
    assert out["native"] and not out["warnings"]
