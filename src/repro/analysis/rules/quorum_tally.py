"""Quorum tally: count voters through ``common.quorum.Tally``, not ``len()``.

* **quorum-tally** -- a ``len(...)`` compared against a ``QuorumSpec``
  threshold (``weak_quorum``, ``commit_quorum``, ``view_change_quorum``,
  ``nf``), read directly or through a local assigned from one, outside
  ``repro.common.quorum``.  A sender set checked that way needs an "already
  acted" flag beside it; AHL's CommitteeVote lacked one and was re-sent on
  every later vote.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Project, Rule, SourceFile, register_rule
from repro.analysis.findings import Finding

THRESHOLDS = frozenset({"weak_quorum", "commit_quorum", "view_change_quorum", "nf"})


def _mentions_threshold(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr in THRESHOLDS for n in ast.walk(node))


def _is_len(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"


class _QuorumVisitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.findings: list[Finding] = []
        self._symbols: list[str] = []
        self._names: set[str] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer = self._names
        self._names = {
            target.id
            for assign in ast.walk(node)
            if isinstance(assign, ast.Assign) and _mentions_threshold(assign.value)
            for target in assign.targets
            if isinstance(target, ast.Name)
        }
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()
        self._names = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _is_threshold(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._names
        return _mentions_threshold(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(
            (_is_len(a) and self._is_threshold(b)) or (_is_len(b) and self._is_threshold(a))
            for a, b in zip(operands, operands[1:])
        ):
            self.findings.append(
                self.source.finding(
                    "quorum-tally",
                    node,
                    "len(...) compared against a quorum threshold: count the voters "
                    "with common.quorum.Tally, whose add() reports the crossing once",
                    ".".join(self._symbols),
                )
            )
        self.generic_visit(node)


@register_rule
class QuorumTallyRule(Rule):
    id = "quorum-tally"
    title = "Quorum thresholds are counted by Tally, not len()"
    rationale = (
        "Tally.add fires exactly once per bucket, so the missing-'already acted'-"
        "flag bug (re-sending on every vote past the quorum) cannot be written."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not source.module.startswith("repro.") or source.module == "repro.common.quorum":
            return ()
        visitor = _QuorumVisitor(source)
        visitor.visit(source.tree)
        return visitor.findings
