"""Structural guard: every execution at a local sequence goes through one step.

``PbftReplica._execute_fragment`` executes a batch holding its locks, advances
``last_executed``, offers the sequence to the checkpoint protocol and releases
the locks.  A second caller of ``execute_batch`` or ``_maybe_checkpoint`` would
be a second execution path with its own order of those steps.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

GUARDED = ("execute_batch", "_maybe_checkpoint")

ALLOWED = {"PbftReplica._execute_fragment"}


class _CallSites(ast.NodeVisitor):
    """Collects, per guarded name, the dotted scope of every call to it."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.sites: dict[str, set[str]] = {name: set() for name in GUARDED}

    def _enter(self, node: ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in GUARDED:
            self.sites[node.func.attr].add(".".join(self.scope))
        self.generic_visit(node)


def _guarded_call_sites() -> dict[str, set[str]]:
    visitor = _CallSites()
    for path in sorted(SRC.rglob("*.py")):
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.sites


def test_execution_and_checkpoint_run_only_in_the_one_step():
    sites = _guarded_call_sites()
    for name in GUARDED:
        stray = sites[name] - ALLOWED
        assert not stray, (
            f"{name}() is called outside PbftReplica._execute_fragment: {sorted(stray)}. "
            "Route the execution through the step."
        )
        assert "PbftReplica._execute_fragment" in sites[name]
