"""Outside-in span tracer for the ringbench traced run.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces the
public entry point of every layer (class attributes such as
``Simulator.step`` or ``PbftReplica.on_message``; for module-level functions,
every ``repro.*`` module's binding of that function) with a timing wrapper,
and :meth:`Tracer.remove` puts the originals back.

A span is ``(name, start ns, end ns, parent span, request id)``.  Open spans
live on a stack, which gives each span its parent and its *self time*: its
duration minus the part covered by child spans.  Spans aggregate in memory
per ``(name, parent name)``; the last ``keep`` raw spans are retained for the
JSONL dump written when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

#: Raw spans kept for the JSONL dump (the aggregates cover every span).
RAW_SPANS_KEPT = 50_000

#: ``PbftReplica.on_message`` spans are keyed by ``type(message).__name__``.
PBFT_HANDLED = (
    "ClientRequest",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "ViewChange",
    "NewView",
)
CORE_HANDLED = ("Forward", "Execute", "RemoteView")
AHL_2PC = ("Prepare2PC", "Vote2PC", "CommitteeVote", "CommitteeDecision", "Decide2PC")

#: Every span name the traced run reports, in the benchmark's layer order.
#: A span that never fires is reported as 0, never omitted.
SPAN_NAMES: tuple[str, ...] = (
    # harness
    "workloads.ycsb.generate",
    "consensus.client.submit",
    "consensus.client.on_message",
    # repro.sim / repro.rt / repro.netem
    "sim.kernel.step",
    "sim.kernel.schedule",
    "sim.network.send",
    "sim.network.multicast",
    "rt.scheduler.schedule",
    "netem.decide",
    # repro.common.codec
    "common.codec.encode",
    "common.codec.decode",
    "common.codec.memo",
    # repro.common.crypto
    "common.crypto.mac_tag",
    "common.crypto.mac_verify",
    "common.crypto.sign",
    "common.crypto.sig_verify",
    "common.crypto.verify_certificate",
    # repro.consensus.pbft / repro.core / repro.baselines.ahl
    *(f"consensus.pbft.on.{name}" for name in PBFT_HANDLED),
    "consensus.pbft.on.other",
    *(f"core.on.{name}" for name in CORE_HANDLED),
    "baselines.ahl.on.2pc",
    # repro.storage
    "storage.locks.try_lock",
    "storage.locks.release",
    "storage.executor.execute",
    "storage.ledger.append_batch",
    "storage.kvstore.state_root",
    # repro.net
    "net.wire.encode_envelope",
    "net.wire.decode",
    "net.framing.encode_frame",
    "net.framing.feed",
    "net.transport.send",
    "net.transport.multicast",
)


def _message_request(args: tuple) -> Any:
    """Request id of a handler call ``(node, message)``: the batch digest or
    the transaction id, when the message carries one."""
    message = args[1]
    request = getattr(message, "batch_digest", None)
    if request is None:
        request = getattr(message, "txn_id", None)
    if request is None:
        transaction = getattr(message, "transaction", None)
        request = getattr(transaction, "txn_id", None)
    return request


def _submit_request(args: tuple) -> Any:
    return args[1].txn_id


class Tracer:
    """Span recorder plus the bookkeeping to undo its own patches."""

    def __init__(
        self, clock: Callable[[], int] = time.perf_counter_ns, keep: int = RAW_SPANS_KEPT
    ) -> None:
        self._clock = clock
        #: Open spans, innermost last: [name, start_ns, child_ns, span_id, request].
        #: The sentinel at the bottom is the parent of root spans (span id 0).
        self._stack: list[list] = [[None, 0, 0, 0, None]]
        self._ids = itertools.count(1)
        #: One ``(name, {parent name: [calls, total_ns, self_ns]})`` per wrapper.
        self._rows: list[tuple[str, dict[str | None, list[int]]]] = []
        #: (span_id, parent_id, name, start_ns, end_ns, request).
        self.raw: deque[tuple] = deque(maxlen=keep)
        #: try_lock calls that had to wait (the wrapper sees the verdict).
        self.lock_waits = 0
        self._patches: list[tuple[Any, str, Any]] = []

    @property
    def open_spans(self) -> int:
        return len(self._stack) - 1

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        request_of: Callable[[tuple], Any] | None = None,
    ) -> Callable:
        """``fn`` timed as one ``name`` span per outermost call.

        A call made while a span of the same name is already innermost (e.g.
        ``tag_vector`` calling ``tag``) is part of that span, not a new one.
        A span without a request id of its own inherits its parent's.  An
        exception raised by ``fn`` still closes the span.
        """
        stack = self._stack
        clock = self._clock
        ids = self._ids
        raw = self.raw
        rows: dict[str | None, list[int]] = {}
        self._rows.append((name, rows))

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                return fn(*args, **kwargs)
            request = parent[4] if request_of is None else request_of(args) or parent[4]
            frame = [name, 0, 0, next(ids), request]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                row = rows.get(parent[0])
                if row is None:
                    rows[parent[0]] = row = [0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                raw.append((frame[3], parent[3], name, start, end, request))

        return traced

    def patch_attr(self, owner: Any, attr: str, name: str, request_of=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with its traced form."""
        original = owner.__dict__[attr]
        self._set(owner, attr, self.wrap(name, original, request_of), original)

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Trace a module-level function everywhere it is bound.

        ``from x import f`` copies the binding into the importer, so patching
        ``x.f`` alone would miss those call sites: every loaded ``repro.*``
        module holding the original object gets the traced one instead.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced, original)

    def patch_handlers(self, owner: type, attr: str, names: dict[str, str], default: str) -> None:
        """Trace a message handler with the span name chosen per message type."""
        original = owner.__dict__[attr]
        by_span = {
            span: self.wrap(span, original, _message_request)
            for span in {*names.values(), default}
        }
        by_type = {type_name: by_span[span] for type_name, span in names.items()}
        fallback = by_span[default]

        def dispatch(node, message):
            return by_type.get(type(message).__name__, fallback)(node, message)

        self._set(owner, attr, dispatch, original)

    def _set(self, owner: Any, attr: str, value: Any, original: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def totals(self) -> dict[tuple[str, str | None], list[int]]:
        """``(name, parent name or None) -> [calls, total_ns, self_ns]``."""
        out: dict[tuple[str, str | None], list[int]] = {}
        for name, rows in self._rows:
            for parent, row in rows.items():
                merged = out.setdefault((name, parent), [0, 0, 0])
                for index, value in enumerate(row):
                    merged[index] += value
        return out

    def by_name(self) -> dict[str, dict[str, int]]:
        """``name -> {"calls", "total_ns", "self_ns"}`` summed over parents."""
        out: dict[str, dict[str, int]] = {}
        for (name, _parent), (calls, total_ns, self_ns) in self.totals.items():
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += calls
            row["total_ns"] += total_ns
            row["self_ns"] += self_ns
        return out

    def edges(self) -> list[dict]:
        """The ``(name, parent)`` aggregate table, largest self time first."""
        rows = [
            {"name": name, "parent": parent, "calls": calls, "total_ns": total, "self_ns": self_ns}
            for (name, parent), (calls, total, self_ns) in self.totals.items()
        ]
        return sorted(rows, key=lambda row: -row["self_ns"])

    def write_jsonl(self, path: Path) -> None:
        """Dump the retained raw spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent_id, name, start, end, request in self.raw:
                if isinstance(request, bytes):
                    request = request.hex()[:16]
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _packed_layout_encoders() -> list[tuple[Any, str]]:
    """Module bindings of the ``compile_fixed_dict`` closures (packed layouts)."""
    found = []
    for module in _repro_modules():
        for key, value in vars(module).items():
            if getattr(value, "__qualname__", "") == "compile_fixed_dict.<locals>.encode":
                found.append((module, key))
    return found


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary named in :data:`SPAN_NAMES`."""
    from repro.baselines.ahl import replica as _ahl  # noqa: F401 - load before scanning
    from repro.common import codec, crypto
    from repro.consensus.pbft.client import Client
    from repro.consensus.pbft.replica import PbftReplica
    from repro.net import framing, transport, wire
    from repro.netem.emulator import LinkEmulator
    from repro.rt.transport import RealTimeScheduler
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.storage.executor import ExecutionEngine
    from repro.storage.kvstore import KeyValueStore
    from repro.storage.ledger import Ledger
    from repro.storage.locks import LockManager
    from repro.workloads.ycsb import YcsbWorkloadGenerator

    # harness
    tracer.patch_attr(YcsbWorkloadGenerator, "generate", "workloads.ycsb.generate")
    tracer.patch_attr(Client, "submit", "consensus.client.submit", _submit_request)
    tracer.patch_attr(Client, "on_message", "consensus.client.on_message", _message_request)
    # scheduler kernels, transports, link emulation
    tracer.patch_attr(Simulator, "step", "sim.kernel.step")
    tracer.patch_attr(Simulator, "schedule", "sim.kernel.schedule")
    tracer.patch_attr(Network, "send", "sim.network.send")
    tracer.patch_attr(Network, "multicast", "sim.network.multicast")
    tracer.patch_attr(RealTimeScheduler, "schedule", "rt.scheduler.schedule")
    tracer.patch_attr(LinkEmulator, "decide", "netem.decide")
    # codec: the generic walker, the packed layouts, the per-object memos
    tracer.patch_function(codec, "encode_canonical", "common.codec.encode")
    for module, key in _packed_layout_encoders():
        tracer.patch_attr(module, key, "common.codec.encode")
    tracer.patch_function(codec, "decode_canonical", "common.codec.decode")
    for memo in ("memoized_payload", "memoized_digest", "memoized_packed_payload"):
        tracer.patch_function(codec, memo, "common.codec.memo")
    # crypto
    tracer.patch_attr(crypto.MacAuthenticator, "tag", "common.crypto.mac_tag")
    tracer.patch_attr(crypto.MacAuthenticator, "tag_vector", "common.crypto.mac_tag")
    tracer.patch_attr(crypto.MacAuthenticator, "verify", "common.crypto.mac_verify")
    tracer.patch_attr(crypto.SignatureScheme, "sign", "common.crypto.sign")
    tracer.patch_attr(crypto.SignatureScheme, "verify", "common.crypto.sig_verify")
    tracer.patch_function(crypto, "verify_certificate", "common.crypto.verify_certificate")
    # consensus handlers, keyed by message type
    handlers = {name: f"consensus.pbft.on.{name}" for name in PBFT_HANDLED}
    handlers.update({name: f"core.on.{name}" for name in CORE_HANDLED})
    handlers.update({name: "baselines.ahl.on.2pc" for name in AHL_2PC})
    tracer.patch_handlers(PbftReplica, "on_message", handlers, "consensus.pbft.on.other")
    # storage
    _patch_try_lock(tracer, LockManager)
    tracer.patch_attr(LockManager, "release", "storage.locks.release")
    tracer.patch_attr(ExecutionEngine, "execute_batch", "storage.executor.execute")
    tracer.patch_attr(Ledger, "append_batch", "storage.ledger.append_batch")
    tracer.patch_attr(KeyValueStore, "state_root", "storage.kvstore.state_root")
    # socket wire path
    tracer.patch_function(wire, "encode_envelope", "net.wire.encode_envelope")
    tracer.patch_function(wire, "encode_envelope_multi", "net.wire.encode_envelope")
    tracer.patch_function(wire, "decode_wire_payload", "net.wire.decode")
    tracer.patch_function(framing, "encode_frame", "net.framing.encode_frame")
    tracer.patch_attr(framing.FrameDecoder, "feed", "net.framing.feed")
    tracer.patch_attr(transport.SocketTransport, "send", "net.transport.send")
    tracer.patch_attr(transport.SocketTransport, "multicast", "net.transport.multicast")
    return tracer


def _patch_try_lock(tracer: Tracer, lock_manager: type) -> None:
    """``try_lock`` span that also counts the calls that were not granted."""
    original = lock_manager.__dict__["try_lock"]

    def counting(*args, **kwargs):
        verdict = original(*args, **kwargs)
        if not verdict[0]:
            tracer.lock_waits += 1
        return verdict

    tracer._set(
        lock_manager, "try_lock", tracer.wrap("storage.locks.try_lock", counting), original
    )
