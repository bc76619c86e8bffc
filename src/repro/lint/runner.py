"""Lint orchestration: run pass families, aggregate one findings report.

Four families, individually selectable (``--family``), all on by
default when ``--all`` is given:

* ``template`` — run every kernel's vector emitter per VL under
  :func:`repro.trace.template.capture_replications`, analyze each
  captured replication for undeclared hazards, and validate the sealed
  trace's columnar invariants (scalar builds get the columnar check);
* ``emitter`` — AST lint over ``src/repro/kernels`` + ``src/repro/isa``;
* ``config`` — legality of the default sweep grids and the SoC build;
* ``cache`` — staleness audit of a trace-cache directory (needs
  ``--trace-cache``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from repro.lint.config_rules import check_sweep, check_trace_cache
from repro.lint.emitter_rules import lint_paths
from repro.lint.findings import Finding, FindingsReport, Severity
from repro.lint.rules import render_catalog
from repro.lint.trace_rules import analyze_snapshot, check_trace_buffer

#: every pass family, in execution order.
FAMILIES = ("template", "emitter", "config", "cache")

#: families that run without extra inputs (cache needs a directory).
DEFAULT_FAMILIES = ("template", "emitter", "config")


@dataclass
class LintOptions:
    """Everything one lint run needs."""

    families: tuple[str, ...] = DEFAULT_FAMILIES
    kernels: tuple[str, ...] | None = None   # None = full registry
    vls: tuple[int, ...] = (8, 64)
    scale: str = "ci"
    seed: int = 7
    trace_cache: str | None = None
    ignore: tuple[str, ...] = ()
    paths: tuple[str, ...] | None = None     # emitter pass override
    include_scalar: bool = True
    meta: dict = field(default_factory=dict)  # filled by run_lint


def _lint_templates(opts: LintOptions) -> list[Finding]:
    from repro.kernels import KERNELS
    from repro.soc.sdv import FpgaSdv
    from repro.trace.template import capture_replications
    from repro.workloads import get_scale

    names = list(KERNELS) if opts.kernels is None else list(opts.kernels)
    scale = get_scale(opts.scale)
    out: list[Finding] = []
    # a strip-mined kernel replicates the same template once per strip;
    # a warning that repeats verbatim for every strip carries no extra
    # signal, so warnings dedupe on (rule, slot pair, message) per
    # kernel/VL while errors always report every instance
    seen: set[tuple] = set()

    def _add(findings: list[Finding], label: str) -> None:
        for f in findings:
            if f.severity < Severity.ERROR:
                key = (f.rule, label,
                       f.location.split("#", 1)[-1], f.message)
                if key in seen:
                    continue
                seen.add(key)
            out.append(f)

    for name in names:
        spec = KERNELS[name]
        workload = spec.prepare(scale, opts.seed)
        for vl in opts.vls:
            sdv = FpgaSdv().configure(max_vl=vl)
            session = sdv.session()
            with capture_replications() as snaps:
                spec.vector(session, workload)
            trace = session.seal()
            label = f"{name}/vl{vl}"
            for snap in snaps:
                _add(analyze_snapshot(snap, label), label)
            out.extend(check_trace_buffer(trace, label, hw_max_vl=vl))
            opts.meta["templates"] = opts.meta.get("templates", 0) \
                + len(snaps)
        if opts.include_scalar:
            session = FpgaSdv().session()
            spec.scalar(session, workload)
            out.extend(check_trace_buffer(session.seal(),
                                          f"{name}/scalar"))
    return out


def _lint_config(opts: LintOptions) -> list[Finding]:
    from repro.core.sweeps import (
        DEFAULT_BANDWIDTHS,
        DEFAULT_LATENCIES,
        DEFAULT_VLS,
    )

    out = check_sweep("latency", DEFAULT_LATENCIES, DEFAULT_VLS,
                      where="defaults")
    out.extend(check_sweep("bandwidth", DEFAULT_BANDWIDTHS, DEFAULT_VLS,
                           where="defaults"))
    # check_sweep validates the VL grid and config twice; drop repeats
    seen: set[tuple] = set()
    unique = []
    for f in out:
        key = (f.rule, f.location, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def run_lint(opts: LintOptions | None = None) -> FindingsReport:
    """Run the selected pass families; returns the filtered report."""
    opts = opts if opts is not None else LintOptions()
    report = FindingsReport()
    t0 = time.perf_counter()
    for family in opts.families:
        if family == "template":
            report.extend(_lint_templates(opts))
        elif family == "emitter":
            report.extend(lint_paths(opts.paths))
        elif family == "config":
            report.extend(_lint_config(opts))
        elif family == "cache":
            if opts.trace_cache is not None:
                report.extend(check_trace_cache(opts.trace_cache))
        else:
            raise ValueError(f"unknown lint family '{family}' "
                             f"(choose from {', '.join(FAMILIES)})")
    opts.meta["families"] = list(opts.families)
    opts.meta["elapsed_s"] = time.perf_counter() - t0
    report.meta.update(opts.meta)
    return report.ignoring(opts.ignore)


# ------------------------------------------------------------------- CLI

def add_lint_arguments(p: argparse.ArgumentParser) -> None:
    """The ``repro-sdv lint`` / ``python -m repro.lint`` options."""
    p.add_argument("--all", action="store_true",
                   help="run every pass family on every kernel")
    p.add_argument("--family", action="append", choices=FAMILIES,
                   help="pass family to run (repeatable; default: "
                        "template+emitter+config)")
    p.add_argument("--kernel", default="all",
                   help="kernel to analyze: spmv|bfs|pagerank|fft|all")
    p.add_argument("--vls", default="8,64",
                   help="comma list of VLs for the template pass")
    p.add_argument("--scale", default="ci",
                   help="workload scale for the template pass "
                        "(default ci)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace-cache", default=None, metavar="DIR",
                   help="trace-cache directory for the staleness audit")
    p.add_argument("--ignore", default="", metavar="RULES",
                   help="comma list of rule ids to suppress")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "json-v1"),
                   help="report format (json-v1 emits the legacy "
                        "repro.lint/1 schema)")
    p.add_argument("--json", action="store_true",
                   help="alias for --format json")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")


def run_lint_cli(args: argparse.Namespace) -> int:
    """Shared verb body for the CLI entry points; returns the exit code."""
    if args.list_rules:
        print(render_catalog())
        return 0
    if args.kernel == "all":
        kernels = None
    else:
        from repro.kernels import KERNELS
        if args.kernel not in KERNELS:
            print(f"unknown kernel '{args.kernel}'", file=sys.stderr)
            return 2
        kernels = (args.kernel,)
    families = tuple(args.family) if args.family else DEFAULT_FAMILIES
    if args.all:
        families = FAMILIES
    ignore = tuple(r.strip() for r in args.ignore.split(",") if r.strip())
    opts = LintOptions(
        families=families,
        kernels=kernels,
        vls=tuple(int(x) for x in args.vls.split(",")),
        scale=args.scale,
        seed=args.seed,
        trace_cache=args.trace_cache,
        ignore=ignore,
    )
    report = run_lint(opts)
    fmt = args.format
    if args.json and fmt == "text":
        fmt = "json"
    if fmt == "json":
        print(report.to_json())
    elif fmt == "json-v1":
        print(report.to_json(version=1))
    else:
        print(report.render_text())
        print(f"[lint: {opts.meta.get('elapsed_s', 0.0):.1f}s, "
              f"{opts.meta.get('templates', 0)} templates analyzed]",
              file=sys.stderr)
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static verification of trace templates, kernel "
                    "emitters and sweep configs",
    )
    add_lint_arguments(parser)
    return run_lint_cli(parser.parse_args(argv))
