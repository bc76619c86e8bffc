"""Inline-suppression parsing shared by the source-level lint passes.

The AST pass (:mod:`repro.lint.emitter_rules`) honours this comment
syntax::

    flagged_call()  # repro-lint: disable=E001
    other_call()    # repro-lint: disable=E001,E003
    anything()      # repro-lint: disable=all

A :class:`SuppressionIndex` parses every such comment in a file up
front, answers "is this rule suppressed on this line?" during the pass,
and *remembers which suppressions actually fired*. After the pass,
:meth:`SuppressionIndex.audit` turns the leftovers into findings so
dead suppressions rot visibly instead of silently:

* ``W001`` — the comment names a rule id that is not in the catalog
  (typo'd or removed rules would otherwise suppress nothing forever);
* ``W002`` — the comment is syntactically valid but no finding on that
  line was suppressed this run (the code was fixed, the comment stayed).
"""

from __future__ import annotations

import re

from repro.lint.findings import Finding
from repro.lint.rules import RULES, finding

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+|all)")

#: sentinel spec for ``disable=all``.
_ALL = frozenset({"all"})


class SuppressionIndex:
    """All ``# repro-lint: disable=`` comments of one file, with usage
    tracking for the stale-suppression audit."""

    def __init__(self, path: str, lines: list[str]) -> None:
        self.path = path
        #: lineno -> rule-id set (or the ``all`` sentinel)
        self._by_line: dict[int, frozenset[str]] = {}
        for i, line in enumerate(lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m is None:
                continue
            spec = m.group(1).strip()
            if spec == "all":
                self._by_line[i] = _ALL
            else:
                self._by_line[i] = frozenset(
                    r.strip() for r in spec.split(",") if r.strip())
        self._used: set[int] = set()

    def suppresses(self, lineno: int, rule: str) -> bool:
        """True iff ``rule`` is disabled on ``lineno`` (and record that
        the suppression earned its keep)."""
        spec = self._by_line.get(lineno)
        if spec is None:
            return False
        if spec is _ALL or rule in spec:
            self._used.add(lineno)
            return True
        return False

    def audit(self) -> list[Finding]:
        """W001/W002 findings for the suppressions that deserve them."""
        out: list[Finding] = []
        for lineno in sorted(self._by_line):
            spec = self._by_line[lineno]
            loc = f"{self.path}:{lineno}"
            if spec is not _ALL:
                for rule in sorted(spec):
                    if rule not in RULES:
                        out.append(finding(
                            "W001", loc,
                            f"suppression names unknown rule '{rule}'"))
            if lineno not in self._used:
                out.append(finding(
                    "W002", loc,
                    "stale suppression: no finding on this line was "
                    "suppressed" if spec is _ALL else
                    "stale suppression: "
                    f"{', '.join(sorted(spec))} did not fire on this "
                    "line"))
        return out
