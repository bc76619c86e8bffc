"""Static verification of trace templates, kernel emitters and sweep configs.

PR 3 made templated trace emission the default: the timing model now
trusts hand-declared :class:`repro.trace.template.Dep` edges and affine
address streams, so an undeclared address overlap or a stale emitter
silently produces wrong cycle counts — exactly the class of bug the
paper's latency/bandwidth claims cannot survive. This package is the
machine-checked safety net:

* :mod:`repro.lint.trace_rules` — the alias/hazard checker: evaluates
  affine and explicit address streams symbolically across replicated
  iterations and proves every cross-iteration RAW/WAR/WAW overlap is
  covered by a declared ``Dep`` (flagging dead declarations), plus
  columnar-invariant checks on sealed :class:`TraceBuffer` contents.
* :mod:`repro.lint.emitter_rules` — AST lint of kernel-emitter source:
  forbids nondeterminism that would poison the kernel-source cache
  fingerprint, requires columnar emission in hot paths, and checks ISA
  legality (VL values, CSR access discipline).
* :mod:`repro.lint.config_rules` — legality of latency/bandwidth knob
  grids and VL grids before any trace is generated, plus trace-cache
  staleness checks.

Every pass reports through one findings pipeline
(:mod:`repro.lint.findings`): rule id, severity, location, message and a
fix hint, rendered as text or JSON with a shared exit-code model (exit 1
iff any ERROR finding survives). Run it as ``repro-sdv lint`` or
``python -m repro.lint``; the rule catalog lives in
:mod:`repro.lint.rules` and ``docs/static-analysis.md``.
"""

from repro.lint.findings import Finding, FindingsReport, Severity
from repro.lint.rules import RULES, Rule
from repro.lint.runner import LintOptions, run_lint

__all__ = [
    "Finding",
    "FindingsReport",
    "Severity",
    "Rule",
    "RULES",
    "LintOptions",
    "run_lint",
]
