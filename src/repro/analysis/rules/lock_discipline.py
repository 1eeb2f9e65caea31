"""Lock and cross-shard ordering discipline: new sites must be audited.

The PR-5 AHL deadlock was exactly this shape: a *second* code path started
proposing cross-shard batches outside the dense-index machinery, so two
replicas could interleave lock acquisitions in different orders.  The
deadlock-freedom argument (sequence-ordered acquisition, Theorem 6.2) only
covers the audited sites below; this rule flags any new one so it gets the
same review before it ships.

* **lock-site** -- calls to the :class:`~repro.storage.locks.LockManager`
  mutation API (``try_lock``/``release``/``fast_forward``/``skip_sequence``)
  anywhere outside the audited modules.

* **cross-order-site** -- access to AHL's dense-index proposal-ordering state
  (``_ready_cross``/``_next_cross_proposal``/``_cross_dest_counts``/
  ``_cross_order_stale``) outside the audited AHL replica module.

* **propose-site** -- a ``self._propose(...)`` call anywhere but
  ``PbftReplica``'s batching, admission and pump methods.  ``_propose`` opens
  a window slot unconditionally, so a subclass that calls it directly walks
  past ``PipelineConfig.depth`` (RingBFT's Forward-quorum proposals once held
  9 slots at depth 4); everything else goes through ``_admit``.

A legitimate new site is announced with a pragma, e.g.::

    acquired, unblocked = self.locks.try_lock(seq, token, keys)  # repro: allow[lock-site] audited: sequence-ordered via <proof>
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Project, Rule, SourceFile, SymbolVisitor, register_rule
from repro.analysis.findings import Finding

#: Modules whose lock-acquisition ordering has been audited against the
#: sequence-ordered-acquisition argument.
AUDITED_LOCK_MODULES = frozenset(
    {
        "repro.storage.locks",  # the manager itself
        "repro.consensus.pbft.replica",  # execution pipeline: ordered by sequence
    }
)

#: The lock-table mutation API.  Read-only accessors are fine anywhere.
LOCK_MUTATORS = frozenset({"try_lock", "release", "fast_forward", "skip_sequence"})

#: Modules allowed to touch AHL's dense-index proposal-ordering state.
AUDITED_CROSS_ORDER_MODULES = frozenset({"repro.baselines.ahl.replica"})

CROSS_ORDER_ATTRS = frozenset(
    {"_ready_cross", "_next_cross_proposal", "_cross_dest_counts", "_cross_order_stale"}
)


#: The only callers of ``_propose``: the depth=1 fill/flush paths, the
#: admission point, and the pump that serves it.
PROPOSE_SITES = frozenset(
    {
        "PbftReplica._enqueue_for_proposal",
        "PbftReplica._flush_batches",
        "PbftReplica._admit",
        "PbftReplica._pump_pipeline",
    }
)


class _AttrCallVisitor(SymbolVisitor):
    def __init__(self, source: SourceFile) -> None:
        super().__init__()
        self.source = source
        self.lock_calls: list[tuple[ast.Call, str, str]] = []
        self.order_attrs: list[tuple[ast.Attribute, str, str]] = []
        self.propose_calls: list[tuple[ast.Call, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in LOCK_MUTATORS:
                self.lock_calls.append((node, func.attr, self.symbol))
            elif func.attr == "_propose":
                self.propose_calls.append((node, self.symbol))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in CROSS_ORDER_ATTRS:
            self.order_attrs.append((node, node.attr, self.symbol))
        self.generic_visit(node)


@register_rule
class LockSiteRule(Rule):
    id = "lock-site"
    title = "Lock-table mutations only in audited modules"
    rationale = (
        "Deadlock freedom rests on sequence-ordered acquisition; a lock "
        "mutation outside the audited execution pipeline needs the same "
        "ordering audit before it ships."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if source.module in AUDITED_LOCK_MODULES:
            return ()
        visitor = _AttrCallVisitor(source)
        visitor.visit(source.tree)
        return [
            source.finding(
                self.id,
                node,
                f".{attr}(...) is a lock-table mutation outside the audited "
                "modules; audit the acquisition order against the "
                "sequence-ordered locking argument, then allow it with a pragma",
                symbol,
            )
            for node, attr, symbol in visitor.lock_calls
        ]


@register_rule
class CrossOrderSiteRule(Rule):
    id = "cross-order-site"
    title = "Cross-shard proposal-ordering state only in the audited machinery"
    rationale = (
        "The PR-5 AHL deadlock came from a second proposal path bypassing the "
        "dense-index ordering; any new access to that state needs the same "
        "audit."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        if source.module in AUDITED_CROSS_ORDER_MODULES:
            return ()
        visitor = _AttrCallVisitor(source)
        visitor.visit(source.tree)
        return [
            source.finding(
                self.id,
                node,
                f"access to {attr} outside the audited dense-index machinery; "
                "cross-shard proposal ordering must stay single-pathed "
                "(PR-5 deadlock shape)",
                symbol,
            )
            for node, attr, symbol in visitor.order_attrs
        ]


@register_rule
class ProposeSiteRule(Rule):
    id = "propose-site"
    title = "Proposals only through the admission point"
    rationale = (
        "_propose opens a window slot unconditionally; only PbftReplica's "
        "batching, admission and pump methods may call it, so "
        "PipelineConfig.depth bounds every proposer."
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        visitor = _AttrCallVisitor(source)
        visitor.visit(source.tree)
        return [
            source.finding(
                self.id,
                node,
                "direct _propose(...) call bypasses the proposal window; "
                "hand the batch to PbftReplica._admit instead",
                symbol,
            )
            for node, symbol in visitor.propose_calls
            if symbol not in PROPOSE_SITES
        ]
