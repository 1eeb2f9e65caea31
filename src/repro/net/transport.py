"""Asyncio TCP transport: the third implementation of the ``Transport`` protocol.

``SocketTransport`` speaks real sockets while presenting the exact surface
the protocol classes already use (``register`` / ``send`` / ``multicast`` /
``node`` / ``known_addresses`` / ``simulator``), so replicas and clients run
over TCP unchanged.  Key properties:

* **Framed canonical wire format** -- every message crosses the network as a
  :mod:`repro.net.framing` frame holding a deliver envelope (destination,
  full MAC vector, message) in canonical encoding; receivers rebuild the
  message object and verify MACs exactly as in-process receivers do.
* **Per-peer connection management** -- one outgoing connection per remote
  endpoint, dialled lazily, re-dialled with exponential backoff after
  failures; frames queue (bounded) while a peer is unreachable, and losses
  are absorbed by the protocol's own retransmission timers, exactly like a
  lossy network.
* **Multicast fast path** -- mirroring the in-process transports: one
  fan-out encodes the tag vector and the message once and writes per-peer
  frames that differ only in the destination item.
* **Fail-stop on garbage** -- a malformed frame or envelope poisons only the
  connection that carried it; the transport counts it, drops the connection,
  and keeps serving every other peer.
* **Link emulation** -- the transport consults the same
  :class:`~repro.netem.LinkEmulator` as the in-process backends at send time:
  injected faults suppress the outbound copy, and under a geo policy every
  frame is held for the emulated one-way WAN delay (scheduled on the
  protocol scheduler) before it is queued for its peer, so ``--geo`` runs on
  loopback TCP reproduce real region-to-region latency.
* **Per-peer write coalescing** -- frames that are ready together leave in
  one ``write()``/``drain()`` per peer per loop tick instead of one syscall
  each; under emulated WAN delay whole protocol rounds release in bursts,
  which this collapses into single writes (``SocketStats.writes`` vs
  ``frames_sent`` shows the batching factor).

Addresses are the same values the rest of the stack uses
(:class:`~repro.common.types.ReplicaId` objects, client-id strings).  The
``address_map`` pins replicas to TCP endpoints; addresses missing from the
map (clients, which are created dynamically) route to ``default_endpoint`` --
in a launcher deployment, the coordinator process that hosts them.
"""

from __future__ import annotations

import asyncio
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.errors import ConfigurationError, MalformedMessageError, NetworkError
from repro.net.framing import MAX_FRAME_BYTES, FrameDecoder, encode_frame
from repro.net.wire import (
    ControlReply,
    ControlRequest,
    decode_wire_payload,
    encode_envelope,
    encode_envelope_control,
    encode_envelope_multi,
)
from repro.netem.conditions import NetworkConditions
from repro.netem.emulator import LinkEmulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.messages import Message
    from repro.rt.transport import RealTimeScheduler
    from repro.sim.node import Node

Endpoint = tuple[str, int]

#: First reconnect delay after a failed dial; doubles up to the ceiling.
RECONNECT_INITIAL_S = 0.05
RECONNECT_MAX_S = 1.0
#: Outbound frames buffered per peer while it is unreachable.
PEER_QUEUE_FRAMES = 4096
#: Write attempts per frame before it is dropped (the protocol's timers
#: retransmit anything that mattered).
FRAME_WRITE_ATTEMPTS = 2
#: Write-coalescing bounds: frames already queued for one peer are gathered
#: into a single ``write()`` up to these limits, so a burst released by an
#: emulated-WAN delay or a multicast fan-out costs one syscall, not one per
#: frame.  The byte bound keeps a single gathered write well under typical
#: kernel socket buffers.
COALESCE_MAX_FRAMES = 128
COALESCE_MAX_BYTES = 256 * 1024


@dataclass
class SocketStats:
    """Wire-level counters for one transport (one OS process)."""

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: ``write()``/``drain()`` round trips; ``frames_sent / writes`` is the
    #: per-peer coalescing factor.
    writes: int = 0
    #: Frames that rode an earlier frame's write instead of their own.
    coalesced_frames: int = 0
    #: Frames whose enqueue was deferred by an emulated link delay.
    netem_delayed: int = 0
    #: Messages handed to local nodes (both wire deliveries and the
    #: zero-copy local path).
    delivered: int = 0
    #: Fan-outs served by the encode-once multicast fast path.
    multicasts: int = 0
    #: Frames or envelopes rejected as garbage (connection dropped each time).
    malformed_frames: int = 0
    #: Outbound frames abandoned (peer queue full or write attempts exhausted).
    dropped_frames: int = 0
    #: Messages suppressed by injected fault conditions (drops, blocked links).
    faults_injected: int = 0
    #: Exceptions raised by a local node's handler for a delivered message.
    delivery_errors: int = 0
    #: Wire deliveries addressed to a node this process does not host.
    unroutable: int = 0
    connects: int = 0
    connect_failures: int = 0
    control_requests: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "writes": self.writes,
            "coalesced_frames": self.coalesced_frames,
            "netem_delayed": self.netem_delayed,
            "delivered": self.delivered,
            "multicasts": self.multicasts,
            "malformed_frames": self.malformed_frames,
            "dropped_frames": self.dropped_frames,
            "faults_injected": self.faults_injected,
            "delivery_errors": self.delivery_errors,
            "unroutable": self.unroutable,
            "connects": self.connects,
            "connect_failures": self.connect_failures,
            "control_requests": self.control_requests,
        }


class _PeerLink:
    """One outgoing connection: bounded frame queue + reconnecting writer task."""

    def __init__(
        self, endpoint: Endpoint, loop: asyncio.AbstractEventLoop, stats: SocketStats
    ) -> None:
        self.endpoint = endpoint
        self._loop = loop
        self._stats = stats
        self._queue: asyncio.Queue[bytes] = asyncio.Queue(maxsize=PEER_QUEUE_FRAMES)
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None
        self._backoff = RECONNECT_INITIAL_S
        self._closed = False

    def enqueue(self, frame: bytes) -> None:
        """Queue a frame for delivery; drops (and counts) when the peer is so
        far behind that its buffer is full -- network semantics, not an error."""
        if self._closed:
            return
        try:
            self._queue.put_nowait(frame)
        except asyncio.QueueFull:
            self._stats.dropped_frames += 1
            return
        self._ensure_task()

    def _ensure_task(self) -> None:
        if self._task is not None or self._closed:
            return
        if self._loop.is_running():
            self._task = self._loop.create_task(self._run())
        else:
            # Called from synchronous setup code before the backend starts
            # driving the loop; arm the task creation for the first tick.
            self._loop.call_soon(self._ensure_task)

    async def _run(self) -> None:
        while not self._closed:
            frame = await self._queue.get()
            # Coalesce: everything already queued for this peer rides the
            # same write (frames are self-delimiting, so concatenation is
            # exactly what the peer's FrameDecoder expects).
            frames = [frame]
            gathered = len(frame)
            while len(frames) < COALESCE_MAX_FRAMES and gathered < COALESCE_MAX_BYTES:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                frames.append(extra)
                gathered += len(extra)
            payload = frame if len(frames) == 1 else b"".join(frames)
            for attempt in range(FRAME_WRITE_ATTEMPTS):
                writer = await self._connect()
                if writer is None:  # link closed while backing off
                    return
                try:
                    writer.write(payload)
                    await writer.drain()
                    self._stats.frames_sent += len(frames)
                    self._stats.bytes_sent += gathered
                    self._stats.writes += 1
                    self._stats.coalesced_frames += len(frames) - 1
                    break
                except (ConnectionError, OSError):
                    self._disconnect()
            else:
                self._stats.dropped_frames += len(frames)

    async def _connect(self) -> asyncio.StreamWriter | None:
        """Dial the peer, backing off exponentially until it answers."""
        while self._writer is None and not self._closed:
            try:
                _, writer = await asyncio.open_connection(*self.endpoint)
                self._writer = writer
                self._backoff = RECONNECT_INITIAL_S
                self._stats.connects += 1
            except (ConnectionError, OSError):
                self._stats.connect_failures += 1
                await asyncio.sleep(self._backoff)
                self._backoff = min(self._backoff * 2, RECONNECT_MAX_S)
        return self._writer

    def _disconnect(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    async def aclose(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass
            self._task = None
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass


class SocketTransport:
    """Message fabric over real TCP, API-compatible with ``sim.network.Network``.

    ``wire_loopback=True`` (the default) routes even locally-hosted
    destinations through the full encode -> frame -> TCP -> decode -> verify
    path via the transport's own listening socket, so a single-process
    deployment still exercises the real wire; the multi-process launcher
    leaves it on (each process hosts disjoint nodes, so it is moot there) and
    tests can switch it off to get the zero-copy local path.
    """

    def __init__(
        self,
        scheduler: "RealTimeScheduler",
        loop: asyncio.AbstractEventLoop,
        *,
        listen: Endpoint = ("127.0.0.1", 0),
        address_map: dict[Hashable, Endpoint] | None = None,
        default_endpoint: Endpoint | None = None,
        max_frame: int = MAX_FRAME_BYTES,
        wire_loopback: bool = True,
        conditions: NetworkConditions | None = None,
        emulator: LinkEmulator | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._loop = loop
        self._listen = listen
        self._address_map = dict(address_map or {})
        self._default_endpoint = default_endpoint
        self.max_frame = max_frame
        self.wire_loopback = wire_loopback
        #: Consulted at send time exactly like the in-process backends: the
        #: emulator's fault conditions (drops, blocked links, isolation)
        #: suppress the outbound copy, emulated loss drops it, and a geo
        #: policy's one-way delay defers the enqueue -- so fault studies and
        #: WAN scenarios on ``--backend socket`` behave like the simulator's.
        #: Without an explicit emulator the transport gets the no-emulation
        #: engine (faults honoured, zero delay), preserving plain loopback.
        if emulator is None:
            emulator = LinkEmulator(None, conditions, seed=getattr(scheduler, "seed", 2022))
        elif conditions is not None:
            # Mirror the in-process transports: the emulator owns its
            # conditions, so a standalone argument must not coexist with it.
            raise ConfigurationError("pass either an emulator or conditions, not both")
        self.emulator = emulator
        self.stats = SocketStats()
        self._nodes: dict[Hashable, "Node"] = {}
        self._links: dict[Endpoint, _PeerLink] = {}
        self._server: asyncio.base_events.Server | None = None
        self._bound: Endpoint | None = None
        self._closing = False
        self._reader_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        #: Callback invoked with a :class:`ControlRequest`, returning the
        #: reply payload dict; installed by the serve runtime.
        self.control_handler = None

    # ------------------------------------------------------------------
    # Transport protocol surface
    # ------------------------------------------------------------------

    @property
    def simulator(self) -> "RealTimeScheduler":
        return self._scheduler

    @property
    def conditions(self) -> NetworkConditions:
        return self.emulator.conditions

    def register(self, node: "Node") -> None:
        if node.address in self._nodes:
            raise NetworkError(f"address {node.address!r} is already registered")
        self._nodes[node.address] = node
        self.emulator.assign_region(node.address, node.region)

    def node(self, address: Hashable) -> "Node":
        if address not in self._nodes:
            raise NetworkError(f"node {address!r} is not hosted by this process")
        return self._nodes[address]

    def known_addresses(self) -> tuple[Hashable, ...]:
        return tuple(self._nodes) + tuple(
            a for a in self._address_map if a not in self._nodes
        )

    def _decide(self, src: Hashable, dst: Hashable, size: int) -> tuple[bool, float]:
        """Send-time link decision, mirroring the in-process backends.

        Suppressed sends (injected faults and emulated loss alike) are
        tallied in ``faults_injected``; delivered sends carry the emulated
        one-way delay forward.
        """
        deliver, delay = self.emulator.decide(src, dst, size)
        if not deliver:
            self.stats.faults_injected += 1
        return deliver, delay

    def send(self, src: Hashable, dst: Hashable, message: "Message") -> None:
        deliver, delay = self._decide(src, dst, message.wire_size())
        if not deliver:
            return
        node = self._nodes.get(dst)
        if node is not None and not self.wire_loopback:
            self._deliver_local(node, message, delay)
            return
        self._send_frame(
            dst, encode_frame(encode_envelope(dst, message), max_frame=self.max_frame), delay
        )

    def multicast(self, src: Hashable, dsts, message: "Message") -> None:
        """Fan-out fast path: tag vector and message encoded once for all
        wire copies (per-destination frames differ only in the address item)."""
        if not dsts:
            return
        self.stats.multicasts += 1
        size = message.wire_size()
        wire_dsts: list = []
        wire_delays: list[float] = []
        for dst in dsts:
            deliver, delay = self._decide(src, dst, size)
            if not deliver:
                continue
            node = self._nodes.get(dst)
            if node is not None and not self.wire_loopback:
                self._deliver_local(node, message, delay)
            else:
                wire_dsts.append(dst)
                wire_delays.append(delay)
        if not wire_dsts:
            return
        for dst, delay, body in zip(
            wire_dsts, wire_delays, encode_envelope_multi(wire_dsts, message)
        ):
            self._send_frame(dst, encode_frame(body, max_frame=self.max_frame), delay)

    # ------------------------------------------------------------------
    # outbound path
    # ------------------------------------------------------------------

    def _deliver_local(self, node: "Node", message: "Message", delay: float = 0.0) -> None:
        if delay > 0.0:
            self._scheduler.schedule(delay, self._deliver_local_now, node, message)
        else:
            self._loop.call_soon(self._deliver_local_now, node, message)

    def _deliver_local_now(self, node: "Node", message: "Message") -> None:
        if self._closing:
            # Same teardown rule as the wire path: a netem-held local
            # delivery whose timer fires mid-aclose must not reach a node of
            # a deployment being dismantled.
            return
        self.stats.delivered += 1
        node.deliver(message)

    def _send_frame(self, dst: Hashable, frame: bytes, delay: float) -> None:
        """Queue a frame for its peer, after the emulated link delay if any.

        The hold happens send-side on the protocol scheduler, so the bytes hit the TCP socket only when
        the emulated propagation time has passed -- the receiving process
        measures genuine one-way WAN latency on its loopback connection.

        The peer link is resolved *before* the hold: an unroutable
        destination raises :class:`NetworkError` at send time (a
        misconfigured address book must fail loudly in the caller, not as an
        unhandled exception inside a timer callback), and a delayed frame
        firing after :meth:`aclose` hits its already-closed link instead of
        recreating one.
        """
        link = self._link_for(dst)
        if delay > 0.0:
            self.stats.netem_delayed += 1
            self._scheduler.schedule(delay, self._enqueue_on_link, link, frame)
        else:
            self._enqueue_on_link(link, frame)

    def _endpoint_for(self, dst: Hashable) -> Endpoint:
        endpoint = self._address_map.get(dst)
        if endpoint is not None:
            return endpoint
        if dst in self._nodes:
            # wire_loopback: our own listening socket is the peer.
            if self._bound is None:
                raise NetworkError(
                    "wire loopback requires a started transport (call start() first)"
                )
            return self._bound
        if self._default_endpoint is not None:
            return self._default_endpoint
        raise NetworkError(f"no TCP endpoint known for destination {dst!r}")

    def _link_for(self, dst: Hashable) -> _PeerLink:
        endpoint = self._endpoint_for(dst)
        link = self._links.get(endpoint)
        if link is None:
            link = _PeerLink(endpoint, self._loop, self.stats)
            self._links[endpoint] = link
        return link

    def _enqueue_on_link(self, link: _PeerLink, frame: bytes) -> None:
        if self._closing:
            # A delayed frame outliving its transport is network semantics
            # (the deployment is gone); count it like any abandoned frame.
            self.stats.dropped_frames += 1
            return
        link.enqueue(frame)

    # ------------------------------------------------------------------
    # inbound path
    # ------------------------------------------------------------------

    async def start(self) -> Endpoint:
        """Bind the listening socket; returns the actual (host, port)."""
        if self._server is not None:
            return self._bound  # type: ignore[return-value]
        self._server = await asyncio.start_server(
            self._on_connection, self._listen[0], self._listen[1]
        )
        sockname = self._server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        return self._bound

    @property
    def bound_endpoint(self) -> Endpoint | None:
        return self._bound

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        self._conn_writers.add(writer)
        decoder = FrameDecoder(max_frame=self.max_frame)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                self.stats.bytes_received += len(chunk)
                try:
                    bodies = decoder.feed(chunk)
                    for body in bodies:
                        await self._dispatch(decode_wire_payload(body), writer)
                except MalformedMessageError:
                    # Garbage on the stream: drop this connection, keep the
                    # process (and every other connection) alive.
                    self.stats.malformed_frames += 1
                    break
        except (ConnectionError, OSError):  # pragma: no cover - peer went away
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _dispatch(self, payload, writer: asyncio.StreamWriter) -> None:
        if isinstance(payload, ControlRequest):
            self.stats.control_requests += 1
            reply = self._handle_control(payload)
            writer.write(encode_frame(encode_envelope_control(reply), max_frame=self.max_frame))
            await writer.drain()
            return
        if isinstance(payload, ControlReply):  # stray reply: nothing to route
            return
        dst, message = payload
        self.stats.frames_received += 1
        node = self._nodes.get(dst)
        if node is None:
            self.stats.unroutable += 1
            return
        self.stats.delivered += 1
        try:
            node.deliver(message)
        except Exception:  # noqa: BLE001 - a handler bug must not look like garbage
            # On the in-process backends a handler exception crashes the run
            # with a traceback; here it would otherwise die inside a reader
            # task ("exception was never retrieved") while the sender's
            # retransmit timer re-delivers the same poison message forever.
            # Surface it loudly (the launcher captures each process's stderr
            # in its log) and keep the connection -- the frame itself was fine.
            self.stats.delivery_errors += 1
            traceback.print_exc()

    def _handle_control(self, request: ControlRequest) -> ControlReply:
        handler = self.control_handler
        if handler is None:
            return ControlReply(op=request.op, ok=False, data={"error": "no control handler"})
        try:
            data = handler(request)
        except Exception as exc:  # noqa: BLE001 - control plane must answer
            return ControlReply(op=request.op, ok=False, data={"error": str(exc)})
        return ControlReply(op=request.op, ok=True, data=data or {})

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        # Flag first: netem-delayed frames whose timers fire while the awaits
        # below drive the loop must not enqueue onto (or recreate) links.
        self._closing = True
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._server = None
        # Close established connections instead of cancelling their reader
        # tasks: the readers observe EOF and exit on their own (cancelling a
        # start_server handler task trips asyncio's done-callback teardown).
        for writer in list(self._conn_writers):
            writer.close()
        if self._reader_tasks:
            await asyncio.wait(list(self._reader_tasks), timeout=1.0)
        for task in list(self._reader_tasks):  # pragma: no cover - stragglers
            task.cancel()
        for link in self._links.values():
            await link.aclose()
        self._links.clear()
