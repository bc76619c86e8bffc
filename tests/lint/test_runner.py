"""The lint orchestrator and its two CLI entry points."""

import json

import pytest

from repro.cli import main as cli_main
from repro.lint.runner import (
    DEFAULT_FAMILIES,
    FAMILIES,
    LintOptions,
    main as lint_main,
    run_lint,
)


class TestRunLint:
    def test_clean_tree_has_no_errors(self):
        opts = LintOptions(kernels=("spmv",), vls=(8,), scale="smoke")
        report = run_lint(opts)
        assert report.exit_code() == 0, report.render_text()
        assert opts.meta["templates"] > 0
        assert opts.meta["elapsed_s"] > 0

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown lint family"):
            run_lint(LintOptions(families=("vibes",)))

    def test_family_selection_skips_templates(self):
        opts = LintOptions(families=("config",))
        report = run_lint(opts)
        assert report.exit_code() == 0
        assert "templates" not in opts.meta

    def test_ignore_filters_rules(self):
        base = LintOptions(families=("template",), kernels=("bfs",),
                           vls=(8,), scale="smoke")
        with_warn = run_lint(base)
        without = run_lint(LintOptions(
            families=("template",), kernels=("bfs",), vls=(8,),
            scale="smoke", ignore=("T005",)))
        assert not any(f.rule == "T005" for f in without)
        assert len(without) <= len(with_warn)

    def test_default_families(self):
        assert set(DEFAULT_FAMILIES) <= set(FAMILIES)
        assert "cache" in FAMILIES and "cache" not in DEFAULT_FAMILIES


class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "T001" in out and "E001" in out and "C001" in out

    def test_unknown_kernel_is_usage_error(self, capsys):
        rc = lint_main(["--kernel", "nope", "--family", "config"])
        assert rc == 2

    def test_retired_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--family", "concurrency"])
        assert exc.value.code == 2
        assert "invalid choice: 'concurrency'" in capsys.readouterr().err

    def test_json_output(self, capsys):
        rc = lint_main(["--family", "config", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint/2"
        assert doc["exit_code"] == 0
        assert doc["meta"]["families"] == ["config"]

    def test_json_v1_compat_format(self, capsys):
        rc = lint_main(["--family", "config", "--format", "json-v1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint/1"
        assert "meta" not in doc
        assert all("category" not in f for f in doc["findings"])

    def test_text_output_and_summary(self, capsys):
        rc = lint_main(["--family", "template", "--kernel", "spmv",
                        "--vls", "8", "--scale", "smoke"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "clean" in captured.out or "findings" in captured.out
        assert "templates analyzed" in captured.err

    def test_repro_sdv_verb_matches_module_entry(self, capsys):
        assert cli_main(["lint", "--family", "config", "--json"]) == 0
        via_cli = json.loads(capsys.readouterr().out)
        assert lint_main(["--family", "config", "--json"]) == 0
        via_module = json.loads(capsys.readouterr().out)
        # wall-clock meta necessarily differs between the two runs
        via_cli["meta"].pop("elapsed_s")
        via_module["meta"].pop("elapsed_s")
        assert via_cli == via_module

    def test_cache_family_needs_directory_flag(self, tmp_path):
        # --all turns the cache family on; without --trace-cache it is
        # a silent no-op rather than an error
        rc = lint_main(["--all", "--kernel", "spmv", "--vls", "8",
                        "--scale", "smoke"])
        assert rc == 0
