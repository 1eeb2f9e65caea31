"""Async hygiene: the event-loop packages must not stall or drop exceptions.

The socket backend multiplexes every replica of a process on one asyncio
loop.  Two statically detectable hazards:

* **blocking-async** -- a synchronous blocking call (``time.sleep``, sync
  socket/subprocess ops) inside ``async def`` freezes every replica sharing
  the loop for its duration; under WAN emulation one stray sleep distorts all
  measured latencies.

* **orphan-task** -- ``create_task``/``ensure_future`` whose result is
  discarded is fire-and-forget: the task can be garbage-collected mid-flight
  and its exception is reported only as "exception was never retrieved" at
  interpreter exit, long after the run that lost a message.  Keep a reference
  and attach an exception sink (``add_done_callback`` or an awaited
  gather/wait).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Project,
    Rule,
    SourceFile,
    build_import_table,
    register_rule,
    resolve_call_target,
)
from repro.analysis.findings import Finding

#: Packages whose code runs on (or next to) the shared asyncio loops.
ASYNC_SCOPE = ("repro.rt", "repro.net", "repro.engine")

_BLOCKING = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "select.select",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
    }
)

_SPAWNERS = ("create_task", "ensure_future")


def _in_scope(source: SourceFile) -> bool:
    return any(
        source.module == p or source.module.startswith(p + ".") for p in ASYNC_SCOPE
    )


class _AsyncVisitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.imports = build_import_table(source.tree)
        self.blocking: list[Finding] = []
        self.orphans: list[Finding] = []
        self._symbols: list[str] = []
        self._async_depth = 0

    @property
    def symbol(self) -> str:
        return ".".join(self._symbols)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A sync def nested in an async def runs synchronously when called
        # from the coroutine, but flagging it would also flag callbacks that
        # run outside the loop; keep the rule scoped to coroutine bodies.
        self._symbols.append(node.name)
        depth, self._async_depth = self._async_depth, 0
        self.generic_visit(node)
        self._async_depth = depth
        self._symbols.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._symbols.append(node.name)
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1
        self._symbols.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth > 0:
            target = resolve_call_target(node.func, self.imports)
            if target in _BLOCKING:
                self.blocking.append(
                    self.source.finding(
                        "blocking-async",
                        node,
                        f"blocking call {target}() inside 'async def {self._symbols[-1]}' "
                        "stalls every replica sharing the event loop; use the "
                        "awaitable equivalent",
                        self.symbol,
                    )
                )
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _SPAWNERS:
            self.orphans.append(
                self.source.finding(
                    "orphan-task",
                    node,
                    f"fire-and-forget {value.func.attr}(...): the task can be "
                    "garbage-collected mid-flight and its exception is never "
                    "retrieved; keep a reference and attach an exception sink",
                    self.symbol,
                )
            )
        elif isinstance(value, ast.Call):
            target = resolve_call_target(value.func, self.imports)
            if target in (f"asyncio.{name}" for name in _SPAWNERS):
                self.orphans.append(
                    self.source.finding(
                        "orphan-task",
                        node,
                        "fire-and-forget asyncio task: keep a reference and attach "
                        "an exception sink",
                        self.symbol,
                    )
                )
        self.generic_visit(node)


@register_rule
class BlockingAsyncRule(Rule):
    id = "blocking-async"
    title = "No synchronous blocking calls inside async def"
    rationale = (
        "One replica blocking the loop blocks every co-scheduled replica and "
        "timer; latency measurements and liveness both degrade invisibly."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not _in_scope(source):
            return ()
        visitor = _AsyncVisitor(source)
        visitor.visit(source.tree)
        return visitor.blocking


@register_rule
class OrphanTaskRule(Rule):
    id = "orphan-task"
    title = "No fire-and-forget create_task/ensure_future"
    rationale = (
        "An unreferenced task is collectable mid-flight and its exception "
        "surfaces only at interpreter exit; every spawned task needs an owner "
        "and an exception sink."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if not _in_scope(source):
            return ()
        visitor = _AsyncVisitor(source)
        visitor.visit(source.tree)
        return visitor.orphans
