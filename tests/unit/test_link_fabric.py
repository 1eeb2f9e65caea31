"""Conformance tests: both transports share one link front end.

``sim.Network`` and ``SocketTransport`` subclass
:class:`~repro.netem.fabric.LinkFabric`, which owns the node registry, the
per-copy link decision and the shared counters.  Every test here runs on
both backends and asserts the same observable behaviour.
"""

import asyncio

import pytest

from repro.common.messages import Checkpoint
from repro.engine import SimBackend, SocketBackend, Transport
from repro.errors import NetworkError
from repro.net.transport import SocketTransport
from repro.rt.transport import RealTimeScheduler
from repro.sim.node import Node


class _Recorder(Node):
    def __init__(self, address, network):
        super().__init__(address, "local", network)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def _message():
    return Checkpoint(sender="a", sequence=1, state_digest=b"\x00" * 32)


@pytest.fixture(params=[SimBackend, SocketBackend], ids=["sim", "socket"])
def backend(request):
    backend = request.param(seed=1)
    try:
        yield backend
    finally:
        backend.close()


@pytest.fixture
def nodes(backend):
    return _Recorder("a", backend.transport), _Recorder("b", backend.transport)


def test_both_transports_are_the_shared_front_end(backend):
    assert isinstance(backend.transport, Transport)
    # Ringbench's tracer patches these by name on each concrete class.
    assert {"send", "multicast"} <= set(type(backend.transport).__dict__)


def test_duplicate_registration_rejected(backend, nodes):
    with pytest.raises(NetworkError):
        backend.transport.register(nodes[0])


def test_unknown_destination_raises_before_any_link_decision(backend, nodes):
    transport = backend.transport
    before = transport.emulator.stats.snapshot()
    with pytest.raises(NetworkError):
        transport.send("a", "ghost", _message())
    with pytest.raises(NetworkError):
        transport.multicast("a", ["ghost"], _message())
    assert transport.emulator.stats.snapshot() == before
    assert transport.stats.dropped == 0


def test_suppressed_copies_count_once_each_and_never_arrive(backend, nodes):
    transport = backend.transport
    transport.conditions.block_link("a", "b")
    transport.send("a", "b", _message())
    assert transport.stats.dropped == 1
    transport.multicast("a", ["b"], _message())
    assert transport.stats.dropped == 2
    transport.conditions.unblock_link("a", "b")
    transport.conditions.drop_probability = 1.0
    transport.send("a", "b", _message())
    assert transport.stats.dropped == 3
    backend.run_for(0.05)
    assert nodes[1].received == []
    assert transport.stats.delivered == 0


def test_one_fan_out_counts_one_multicast(backend, nodes):
    transport = backend.transport
    _Recorder("c", transport)
    transport.multicast("a", ["b", "c"], _message())
    assert transport.stats.multicasts == 1
    assert backend.run_until(lambda: transport.stats.delivered == 2, timeout=5.0)
    assert [len(node.received) for node in nodes] == [0, 1]


def test_socket_emulator_seeds_from_the_scheduler():
    loop = asyncio.new_event_loop()
    try:
        transport = SocketTransport(RealTimeScheduler(loop, seed=7), loop)
        assert transport.emulator.seed == 7
    finally:
        loop.close()
