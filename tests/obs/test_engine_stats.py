"""Engine-introspection collector unit tests plus the live hooks: a real
event-engine run must fill the counters when introspection is on and
record nothing when it is off, and the figure-boundary reset must repair
dangling telemetry state without losing completed records."""

import json

import pytest

from repro.core.sweeps import run_implementation
from repro.engine import simulate_events_fast, simulate_fast
from repro.kernels import KERNELS
from repro.obs.engine_stats import (
    EngineStats,
    get_engine_stats,
    introspection_enabled,
    set_introspection,
    snapshot_delta,
)
from repro.obs.runlog import get_runlog, set_logging
from repro.workloads import get_scale


@pytest.fixture(autouse=True)
def _introspection_off():
    """Leave the process-wide collector the way we found it (disabled)."""
    yield
    set_introspection(False)
    set_logging(False)


@pytest.fixture(scope="module")
def classified():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    return sdv.classify(trace)


class TestEngineStats:
    def test_count_and_high(self):
        s = EngineStats()
        s.count("a")
        s.count("a", 4)
        s.high("h", 3)
        s.high("h", 2)
        assert s.counters["a"] == 5
        assert s.highs["h"] == 3

    def test_snapshot_merge(self):
        parent, worker = EngineStats(), EngineStats()
        parent.count("n", 1)
        worker.count("n", 4)
        worker.high("depth", 9)
        snap = worker.snapshot()
        assert json.dumps(snap)  # plain data, serializable
        parent.merge(snap)
        assert parent.counters["n"] == 5
        assert parent.highs["depth"] == 9

    def test_snapshot_delta_subtracts_counters_keeps_highs(self):
        s = EngineStats()
        s.count("n", 10)
        s.high("depth", 4)
        before = s.snapshot()
        s.count("n", 3)
        s.count("fresh", 2)
        s.high("depth", 7)
        delta = snapshot_delta(before, s.snapshot())
        # only the work between the snapshots ships; zero deltas drop
        assert delta["counters"] == {"n": 3, "fresh": 2}
        assert delta["highs"] == {"depth": 7}

    def test_ratios_derived_only_with_data(self):
        s = EngineStats()
        assert s.ratios() == {}
        s.count("event.line_spawns", 10)
        s.count("event.lines_recycled", 8)
        s.count("event.timestamps", 4)
        s.count("event.tokens", 12)
        r = s.ratios()
        assert r["event.slab_recycle_rate"] == pytest.approx(0.8)
        assert r["event.tokens_per_timestamp"] == pytest.approx(3.0)

    def test_render_mentions_counters(self):
        s = EngineStats()
        s.count("event.runs", 2)
        s.high("event.max_drain_depth", 5)
        text = s.render()
        assert "event.runs" in text
        assert "event.max_drain_depth (max)" in text


class TestLiveIntrospection:
    def test_event_engine_fills_counters_when_enabled(self, classified):
        stats = set_introspection(True)
        simulate_events_fast(classified)
        c = stats.counters
        assert c["event.runs"] == 1
        assert c["event.timestamps"] > 0
        assert c["event.tokens"] >= c["event.timestamps"]
        assert c["event.line_spawns"] > 0
        assert stats.highs["event.slab_high_water"] > 0
        # recycling never exceeds spawning
        assert c["event.lines_recycled"] <= c["event.line_spawns"]

    def test_reference_engine_fills_counters_when_enabled(self, classified):
        from repro.engine import simulate_events

        stats = set_introspection(True)
        simulate_events(classified)
        assert stats.counters.get("event_ref.timestamps", 0) > 0
        assert stats.counters.get("event_ref.events", 0) > 0

    def test_disabled_engines_record_nothing(self, classified):
        set_introspection(True)   # clear any prior state
        set_introspection(False)
        assert not introspection_enabled()
        simulate_events_fast(classified)
        simulate_fast(classified)
        stats = get_engine_stats()
        assert stats.counters == {} and stats.highs == {}

    def test_enable_clears_only_on_off_to_on_edge(self):
        stats = set_introspection(True)
        stats.count("sticky", 1)
        assert set_introspection(True).counters.get("sticky") == 1
        set_introspection(False)
        assert set_introspection(True).counters == {}


class TestFigureReset:
    def test_reset_clears_metrics_and_repairs_nesting(self, capsys):
        log = set_logging(True)
        with log.context("done"):
            pass
        log.event("keep.me")
        # simulate a figure aborted mid-scope: its begin record is in the
        # stream and its name is still on the context path
        log.event("dangling.begin")
        log._ctx.append("dangling")

        dangling = log.reset_context()

        assert dangling == 1
        assert log._ctx == []
        names = [r["name"] for r in log.records]
        # completed telemetry survives the boundary; the dangling scope
        # is closed, so it still exports as a slice
        assert names[:3] == ["done.begin", "done.end", "keep.me"]
        assert names[-2:] == ["dangling.end", "figure.dangling_spans"]
        assert "figure.dangling_spans" in capsys.readouterr().err

    def test_clean_reset_is_quiet(self, capsys):
        set_logging(True)
        assert get_runlog().reset_context() == 0
        assert [r for r in get_runlog().records
                if r["name"] == "figure.dangling_spans"] == []
        assert capsys.readouterr().err == ""
