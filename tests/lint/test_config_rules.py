"""Sweep-grid legality, SoC config checks, trace-cache staleness audit."""

import numpy as np
import pytest

from repro.config import SdvConfig
from repro.core.sweeps import run_implementation, trace_cache_path
from repro.errors import ConfigError
from repro.kernels import KERNELS
from repro.lint.config_rules import (
    check_bandwidth_axis,
    check_latency_axis,
    check_sweep,
    check_trace_cache,
    check_vls,
)
from repro.soc import FpgaSdv
from repro.workloads import get_scale
from tests.lint.util import error_rules, rules_of


class TestAxes:
    def test_default_grids_are_clean(self):
        from repro.core.sweeps import (
            DEFAULT_BANDWIDTHS,
            DEFAULT_LATENCIES,
            DEFAULT_VLS,
        )
        assert check_latency_axis(DEFAULT_LATENCIES) == []
        assert check_bandwidth_axis(DEFAULT_BANDWIDTHS) == []
        assert check_vls(DEFAULT_VLS) == []

    @pytest.mark.parametrize("points,rule", [
        ((0, -5), "C001"),
        ((0, 1.5), "C001"),
        ((), "C008"),
        ((0, 2000), "C007"),
        ((64, 0), "C006"),
        ((0, 0), "C006"),
    ])
    def test_latency_axis(self, points, rule):
        assert rule in rules_of(check_latency_axis(points))

    @pytest.mark.parametrize("points,rule", [
        ((0,), "C002"),            # zero B/cycle
        ((3,), "C002"),            # does not divide the 64 B line
        ((128,), "C002"),          # beyond the line: cannot divide it
        ((), "C008"),
    ])
    def test_bandwidth_axis(self, points, rule):
        assert rule in rules_of(check_bandwidth_axis(points))

    @pytest.mark.parametrize("vls,rule", [
        ((48,), "C003"),
        ((0,), "C003"),
        ((512,), "C007"),
        ((), "C008"),
    ])
    def test_vl_grid(self, vls, rule):
        assert rule in rules_of(check_vls(vls))

    def test_check_sweep_rolls_up_axis_vls_and_config(self):
        found = check_sweep("latency", (0, -1), (48,), SdvConfig())
        rules = rules_of(found)
        assert "C001" in rules and "C003" in rules

    def test_unknown_axis(self):
        assert "C005" in rules_of(check_sweep("voltage", (0,), (8,)))


class TestSweepGate:
    """The harness rejects illegal grids before generating any trace."""

    def test_latency_sweep_rejects_bad_grid(self):
        from repro.core.sweeps import latency_sweep
        spec = KERNELS["spmv"]
        wl = spec.prepare(get_scale("smoke"), 7)
        with pytest.raises(ConfigError, match="C001"):
            latency_sweep(spec, wl, latencies=(0, -5), vls=(64,))
        with pytest.raises(ConfigError, match="C003"):
            latency_sweep(spec, wl, latencies=(0,), vls=(48,))

    def test_bandwidth_sweep_rejects_bad_grid(self):
        from repro.core.sweeps import bandwidth_sweep
        spec = KERNELS["spmv"]
        wl = spec.prepare(get_scale("smoke"), 7)
        with pytest.raises(ConfigError, match="C002"):
            bandwidth_sweep(spec, wl, bandwidths=(3,), vls=(64,))


class TestTraceCacheAudit:
    def _warm(self, tmp_path):
        spec = KERNELS["fft"]
        wl = spec.prepare(get_scale("smoke"), 7)
        run_implementation(spec, wl, 8, trace_cache=tmp_path,
                           verify=False)
        return spec, wl

    def test_fresh_cache_is_clean(self, tmp_path):
        self._warm(tmp_path)
        assert check_trace_cache(tmp_path) == []

    def test_not_a_directory(self, tmp_path):
        f = tmp_path / "file"
        f.write_text("x")
        assert rules_of(check_trace_cache(f)) == ["S003"]

    def test_unrecognized_entry(self, tmp_path):
        self._warm(tmp_path)
        (tmp_path / "leftover.npz").write_bytes(b"x")
        assert rules_of(check_trace_cache(tmp_path)) == ["S003"]

    def test_stray_temp_from_killed_writer(self, tmp_path):
        # a save killed before its rename leaves '<entry>.<pid>.tmp'
        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        (tmp_path / f"{entry.name}.4242.tmp").write_bytes(b"PK partial")
        found = check_trace_cache(tmp_path)
        assert rules_of(found) == ["S003"]
        assert found[0].location.endswith(".4242.tmp")

    @staticmethod
    def _trace_entry(tmp_path):
        """The cached trace itself (not its classified sidecar)."""
        return next(f for f in tmp_path.glob("*.npz")
                    if ".cls" not in f.name)

    @staticmethod
    def _drop_sidecars(tmp_path):
        for side in tmp_path.glob("*.npz"):
            if ".cls" in side.name:
                side.unlink()

    def test_stale_schema_version(self, tmp_path):
        self._warm(tmp_path)
        self._drop_sidecars(tmp_path)
        entry = self._trace_entry(tmp_path)
        stale = entry.name.replace("-t", "-t9", 1)
        entry.rename(tmp_path / stale)
        assert rules_of(check_trace_cache(tmp_path)) == ["S001"]

    def test_stale_kernel_fingerprint(self, tmp_path):
        self._warm(tmp_path)
        self._drop_sidecars(tmp_path)
        entry = self._trace_entry(tmp_path)
        stem, src = entry.name.rsplit("-", 1)
        entry.rename(tmp_path / f"{stem}-{'0' * 12}.npz")
        found = check_trace_cache(tmp_path)
        assert rules_of(found) == ["S002"]
        assert error_rules(found) == ["S002"]

    # ---- S004: classified sidecars ------------------------------------

    def _sidecar(self, tmp_path):
        return next(f for f in tmp_path.glob("*.npz") if ".cls" in f.name)

    def test_fresh_sidecar_is_clean(self, tmp_path):
        self._warm(tmp_path)
        assert self._sidecar(tmp_path) is not None
        assert check_trace_cache(tmp_path) == []

    def test_orphaned_sidecar(self, tmp_path):
        self._warm(tmp_path)
        self._trace_entry(tmp_path).unlink()
        found = check_trace_cache(tmp_path)
        assert rules_of(found) == ["S004"]
        assert "orphaned" in found[0].message

    def test_stale_sidecar_schema(self, tmp_path):
        self._warm(tmp_path)
        side = self._sidecar(tmp_path)
        side.rename(tmp_path / side.name.replace(".cls", ".cls9", 1))
        assert rules_of(check_trace_cache(tmp_path)) == ["S004"]

    def test_geometry_mismatch(self, tmp_path):
        self._warm(tmp_path)
        side = self._sidecar(tmp_path)
        stem, tail = side.name.rsplit("-", 1)
        side.rename(tmp_path / f"{stem}-{'0' * 12}.npz")
        found = check_trace_cache(tmp_path)
        assert rules_of(found) == ["S004"]
        assert "disagrees" in found[0].message

    def test_unreadable_sidecar(self, tmp_path):
        self._warm(tmp_path)
        self._sidecar(tmp_path).write_bytes(b"not an npz")
        found = check_trace_cache(tmp_path)
        assert rules_of(found) == ["S004"]
        assert "unreadable" in found[0].message
