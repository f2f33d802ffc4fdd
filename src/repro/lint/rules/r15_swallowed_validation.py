"""R15: validation failures raise typed errors — never vanish.

On the untrusted path a failed check is a *security signal*: a peer
sent something no honest peer sends.  Two anti-patterns hide it:

* ``except WireFormatError: pass`` (or ``ValidationError``,
  ``ValueError``, ...) — the forged frame is dropped with no trace, so
  a probing attacker is indistinguishable from silence.  Handle it:
  log, count, or re-raise a typed error.
* silent clamping — ``n = min(n, MAX_ITEMS)`` quietly *accepts* forged
  input by rounding it into range, which corrupts protocol meaning
  instead of rejecting it.  Validators raise
  :class:`~repro.errors.ValidationError` instead.

Scoped like R13/R14 to the trust boundary: wire, net and durable.  The
session driver (``repro/core/session.py``) trusts its caller and
handles no decoded values, so it is outside.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.taint import analyze_module


class SwallowedValidationRule(LintRule):
    rule_id = "R15"
    name = "swallowed-validation"
    summary = (
        "validation failures on the untrusted path must be logged or "
        "re-raised, never silently swallowed or clamped"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("wire", "net", "durable")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        report = analyze_module(tree, scope)
        for finding in report.of_kind("swallow", "clamp"):
            yield Violation(
                self.rule_id,
                scope.posix,
                finding.line,
                finding.col + 1,
                finding.detail,
            )
