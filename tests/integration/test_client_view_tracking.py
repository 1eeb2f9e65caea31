"""Integration tests: after a view change the client addresses the live primary.

Shard 0's primary crashes; the first request after the crash still pays one
client timeout (the broadcast is how the client learns of the view change),
but the replies carry the new view, so the next request goes straight to the
new primary and completes without a retransmission.  A second crash costs one
more timeout and moves the client on to view 2.  Runs on the simulator and
over real TCP (socket backend, wire loopback).
"""

import pytest

from repro.common.types import ReplicaId
from repro.config import SystemConfig, TimerConfig
from repro.engine import Deployment
from repro.faults.injector import FaultInjector
from repro.txn.transaction import TransactionBuilder

from tests.conftest import small_workload

TIMERS = TimerConfig(
    local_timeout=0.5, remote_timeout=1.0, transmit_timeout=1.5, client_timeout=1.5
)
#: Seven replicas per shard (f = 2), so shard 0 survives two crashed primaries.
REPLICAS = 7


def _record_requests(client):
    """Every request the client sends, as ``(txn_id, destinations)``."""
    sent = []
    send, broadcast = client.send, client.broadcast

    def recording_send(dst, message):
        sent.append((message.transaction.txn_id, (dst,)))
        send(dst, message)

    def recording_broadcast(dsts, message, include_self=False):
        sent.append((message.transaction.txn_id, tuple(dsts)))
        broadcast(dsts, message, include_self)

    client.send = recording_send
    client.broadcast = recording_broadcast
    return sent


def _run_one(deployment, sent, txn_id):
    """Submit one shard-0 transaction, await it; (latency, its sends)."""
    key = deployment.table.local_record(0, len(deployment.client.completed))
    txn = TransactionBuilder(txn_id, "client-0").read_modify_write(0, key, txn_id).build()
    deployment.submit(txn)
    assert deployment.run_until_clients_done(timeout=30.0)
    record = deployment.client.completed[-1]
    assert record.txn_id == txn_id
    return record.latency, [dsts for sent_id, dsts in sent if sent_id == txn_id]


@pytest.mark.parametrize("backend", ["sim", "socket"])
def test_client_follows_two_view_changes(backend):
    config = SystemConfig.uniform(2, REPLICAS, timers=TIMERS, workload=small_workload())
    deployment = Deployment.build(config, backend=backend, num_clients=1, batch_size=1)
    try:
        client = deployment.client
        sent = _record_requests(client)
        injector = FaultInjector(deployment)
        everyone = tuple(deployment.directory.replicas_of(0))

        _, sends = _run_one(deployment, sent, "healthy")
        assert sends == [(ReplicaId(0, 0),)]

        injector.crash_primary(0)
        _, sends = _run_one(deployment, sent, "first-crash")
        assert sends == [(ReplicaId(0, 0),), everyone]
        assert client.view_of(0) == 1

        latency, sends = _run_one(deployment, sent, "after-first-crash")
        assert sends == [(ReplicaId(0, 1),)]
        assert latency < TIMERS.client_timeout

        injector.crash_primary(0, view=1)
        _, sends = _run_one(deployment, sent, "second-crash")
        assert sends == [(ReplicaId(0, 1),), everyone]
        assert client.view_of(0) == 2

        latency, sends = _run_one(deployment, sent, "after-second-crash")
        assert sends == [(ReplicaId(0, 2),)]
        assert latency < TIMERS.client_timeout

        txn_ids = {txn_id for txn_id, _ in sent}
        live = [r for r in deployment.shard_replicas(0) if not r.crashed]
        assert len(live) == REPLICAS - 2
        assert deployment.ledgers_consistent(0)
        assert deployment.ledgers_consistent(1)
        for replica in live:
            order = replica.ledger.commit_order(txn_ids)
            assert sorted(order) == sorted(txn_ids)
    finally:
        deployment.close()
