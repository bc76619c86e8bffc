"""End-to-end tests for the HTML run dashboard and the instrumented CLI
surfaces around it: ``repro-sdv dash``, ``--emit-runlog``,
``--engine-stats``, and the artifact checker's dashboard rule."""

import json

import pytest

from repro.cli import main
from repro.config import SdvConfig
from repro.obs.check import check_file, check_file_finding
from repro.obs.htmlreport import (
    DASH_MARKER,
    build_dashboard,
    render_dashboard,
    validate_dashboard,
)
from repro.obs.ledger import append_record, build_record
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.runlog import RunLog, set_logging, write_runlog


@pytest.fixture(autouse=True)
def _quiet_obs():
    yield
    set_logging(False)


def _manifest(**kwargs):
    return build_manifest(
        kernel="spmv", engine="fast", config=SdvConfig().validate(),
        runs=[{"impl": "vl8", "cycles": 10.0,
               "buckets": {"scalar issue": 4.0, "DRAM latency stall": 6.0}}],
        **kwargs,
    )


def _ledger(path, values, metric="speedup"):
    for v in values:
        append_record(path, build_record(
            bench="bench_x", metric=metric, value=v, unit="ratio",
            scale="ci", git_rev="deadbeef"))


def _runlog_lines():
    log = RunLog()
    with log.context("figure"):
        log.event("point", latency=64)
    from repro.obs.runlog import build_header
    return [build_header(log)] + log.merged_records()


class TestRenderDashboard:
    def test_empty_dashboard_is_valid(self):
        text = render_dashboard()
        validate_dashboard(text)
        assert text.startswith("<!DOCTYPE html>")
        assert DASH_MARKER in text[:256]

    def test_sections_follow_inputs(self, tmp_path):
        lpath = tmp_path / "ledger.jsonl"
        _ledger(lpath, [5.5, 5.4, 5.6, 5.5, 5.45, 5.5])
        from repro.obs.ledger import load_ledger
        text = render_dashboard(
            manifests=[("prof.json", _manifest())],
            runlog=_runlog_lines(),
            ledger=load_ledger(lpath),
            title="unit run",
        )
        validate_dashboard(text)
        assert "unit run" in text
        assert "Cycle attribution" in text
        assert "Run log" in text
        assert "Perf ledger trends" in text
        assert "DRAM latency stall" in text
        assert "no regressions" in text

    def test_regression_badge_has_text_not_just_color(self, tmp_path):
        lpath = tmp_path / "ledger.jsonl"
        _ledger(lpath, [5.5, 5.4, 5.6, 5.5, 5.45, 5.5, 2.0])
        from repro.obs.ledger import load_ledger
        text = render_dashboard(ledger=load_ledger(lpath))
        # status is never color alone: icon + word in the badge
        assert "REGRESSED" in text

    def test_dark_mode_and_table_views_present(self):
        text = render_dashboard(manifests=[("m.json", _manifest())],
                                runlog=_runlog_lines())
        assert "prefers-color-scheme: dark" in text
        assert "<table>" in text  # every chart ships a table view

    def test_validator_rejects_external_content(self):
        good = render_dashboard()
        validate_dashboard(good)
        bad = good.replace("</body>",
                           '<script src="http://evil"></script></body>')
        with pytest.raises(ValueError, match="self-contained"):
            validate_dashboard(bad)
        with pytest.raises(ValueError, match="DOCTYPE"):
            validate_dashboard("<html></html>")
        with pytest.raises(ValueError, match="truncated"):
            validate_dashboard(good[: len(good) // 2])


class TestBuildDashboard:
    def test_build_from_artifact_files(self, tmp_path):
        mpath = tmp_path / "run.manifest.json"
        write_manifest(mpath, _manifest())
        rpath = tmp_path / "run.jsonl"
        log = RunLog()
        log.event("x")
        write_runlog(rpath, log)
        lpath = tmp_path / "ledger.jsonl"
        _ledger(lpath, [5.5, 5.6])
        out = build_dashboard(tmp_path / "dash.html",
                              manifests=[str(mpath)], runlog=str(rpath),
                              ledger=str(lpath))
        assert check_file(str(out)) == "dashboard"

    def test_build_accepts_sweep_json_with_nested_manifest(self, tmp_path):
        sweep = {"schema": "repro.sweep/1",
                 "meta": {"manifest": _manifest()}}
        spath = tmp_path / "fig3.json"
        spath.write_text(json.dumps(sweep))
        out = build_dashboard(tmp_path / "dash.html",
                              manifests=[str(spath)])
        assert "Cycle attribution" in out.read_text()

    def test_invalid_input_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.manifest/1"}))
        with pytest.raises(ValueError):
            build_dashboard(tmp_path / "dash.html", manifests=[str(bad)])

    def test_checker_flags_tampered_dashboard(self, tmp_path):
        out = build_dashboard(tmp_path / "dash.html")
        tampered = out.read_text().replace(
            "</body>", '<link href="http://cdn/x.css"></body>')
        out.write_text(tampered)
        kind, bad = check_file_finding(str(out))
        assert kind is None
        assert bad.rule == "O007"


class TestDashCli:
    def test_dash_verb_end_to_end(self, tmp_path, capsys):
        mpath = tmp_path / "prof.manifest.json"
        rpath = tmp_path / "prof.runlog.jsonl"
        rc = main(["profile", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--engine-stats",
                   "--emit-json", str(mpath),
                   "--emit-runlog", str(rpath)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine introspection" in out
        assert check_file(str(rpath)) == "runlog"

        dpath = tmp_path / "dash.html"
        rc = main(["dash", "--output", str(dpath),
                   "--manifest", str(mpath), "--runlog", str(rpath),
                   "--title", "smoke profile"])
        assert rc == 0
        assert check_file(str(dpath)) == "dashboard"
        text = dpath.read_text()
        assert "smoke profile" in text
        # engine stats captured in the manifest surface on the dashboard
        assert "Engine introspection" in text

    def test_dash_verb_rejects_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["dash", "--output", str(tmp_path / "dash.html"),
                   "--manifest", str(bad)])
        assert rc != 0


class TestEmitRunlogCli:
    def test_profile_runlog_covers_kernels(self, tmp_path):
        rpath = tmp_path / "run.jsonl"
        rc = main(["profile", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--emit-runlog", str(rpath)])
        assert rc == 0
        from repro.obs.runlog import load_and_validate
        lines = load_and_validate(rpath)
        assert lines[0]["command"] == "profile"
        names = [r["name"] for r in lines[1:]]
        assert "profile.kernel" in names
