"""MAC coverage: every Message subclass must be authentication-covered.

The PR-3 bug class: a replica-to-replica broadcast type that no replica lists
in ``_MAC_REQUIRED_TYPES`` can be delivered *without* a MAC tag -- the
verification gate waves it through, so a Byzantine peer can forge the sender
field.  This rule makes the closed-world assumption explicit: every class
deriving from :class:`repro.common.messages.Message` must either

* appear in some ``_MAC_REQUIRED_TYPES`` tuple (mandatory pairwise MACs), or
* be listed in :data:`SIGNED_OR_CLIENT_TYPES` with the reason it is exempt,
  which today is a stated, tracked gap for both client-facing types.

Adding a new Message subclass without deciding its authentication story is a
build failure, not a silent gap.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Project, Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.rules._classgraph import build_class_graph

#: Message types whose authentication is *not* the pairwise-MAC vector, with
#: the reason.  Extend this table deliberately -- every entry is an audited
#: trust decision, not a convenience.
SIGNED_OR_CLIENT_TYPES: dict[str, str] = {
    # Tracked gap (ROADMAP item 14): the client signs every request, but no
    # replica verifies that signature -- SignatureScheme.verify runs only
    # inside verify_certificate -- so a request's claimed origin is taken on
    # trust.  What the shard orders is still bound by the batch digest.
    "ClientRequest": "client-signed, signature not verified (ROADMAP 14)",
    # Client-directed traffic, not yet authenticated (ROADMAP item 1b): the
    # client completes on f+1 distinct self-declared senders without comparing
    # results or verifying a MAC, and takes a shard's view from the (f+1)-th
    # highest claim of that shard's replicas -- a routing hint only.
    "ClientResponse": "unauthenticated: client counts f+1 distinct senders (ROADMAP 1b)",
}

_REGISTRY_NAME = "_MAC_REQUIRED_TYPES"


def _covered_names(project: Project) -> set[str]:
    """Every class name appearing in any ``_MAC_REQUIRED_TYPES`` assignment."""
    covered: set[str] = set()
    for source in project.files:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if _REGISTRY_NAME not in targets:
                continue
            for child in ast.walk(node.value):
                if isinstance(child, ast.Name):
                    covered.add(child.id)
                elif isinstance(child, ast.Attribute):
                    covered.add(child.attr)
    return covered


@register_rule
class MacCoverageRule(Rule):
    id = "mac-coverage"
    title = "Every Message subclass is MAC-required or explicitly whitelisted"
    rationale = (
        "A broadcast type absent from every _MAC_REQUIRED_TYPES tuple can be "
        "delivered untagged, so its sender field is forgeable; new message "
        "types must opt into an authentication mechanism explicitly."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = build_class_graph(project)
        covered = _covered_names(project)
        findings: list[Finding] = []
        for name, info in sorted(graph.subclasses_of("Message").items()):
            if name in covered or name in SIGNED_OR_CLIENT_TYPES:
                continue
            findings.append(
                info.source.finding(
                    self.id,
                    info.node,
                    f"Message subclass {name} is in no _MAC_REQUIRED_TYPES tuple "
                    "and not in the signed/client whitelist; decide its "
                    "authentication story (see repro.analysis.rules.mac_coverage)",
                    symbol=name,
                )
            )
        return findings
