"""Unit tests: the client learns each shard's view from its replicas' replies.

The rule: per shard, keep the highest view each replica of that shard has
claimed; the shard's view is the (f + 1)-th highest claim, and requests go to
that view's primary.  One reply lists every transaction of its client in one
batch; each listed transaction the client has in flight completes on f + 1
distinct senders.
"""

import pytest

from repro.common.messages import ClientResponse
from repro.common.types import ReplicaId
from repro.config import SystemConfig
from repro.engine import Deployment
from repro.txn.transaction import TransactionBuilder

from tests.conftest import small_workload

N = 4  # f = 1, so a view moves once two replicas claim it


@pytest.fixture
def deployment():
    config = SystemConfig.uniform(2, N, workload=small_workload())
    with Deployment.build(config, num_clients=1) as built:
        yield built


def _reply(shard, sender, view, txn_ids=("unknown-txn",)):
    return ClientResponse(
        sender=sender,
        txn_ids=txn_ids,
        sequence=1,
        results=tuple({} for _ in txn_ids),
        shard=shard,
        view=view,
    )


def _claim(client, shard, index, view):
    client.on_message(_reply(shard, ReplicaId(shard, index), view))


class TestViewRule:
    def test_one_claim_does_not_move_the_view(self, deployment):
        client = deployment.client
        _claim(client, 0, 1, 7)
        assert client.view_of(0) == 0

    def test_f_plus_one_claims_move_it_to_the_f_plus_one_th_highest(self, deployment):
        client = deployment.client
        _claim(client, 0, 1, 7)
        _claim(client, 0, 2, 3)
        assert client.view_of(0) == 3
        _claim(client, 0, 3, 5)
        assert client.view_of(0) == 5

    def test_a_later_lower_claim_never_lowers_it(self, deployment):
        client = deployment.client
        _claim(client, 0, 1, 4)
        _claim(client, 0, 2, 4)
        assert client.view_of(0) == 4
        _claim(client, 0, 1, 0)
        _claim(client, 0, 2, 1)
        _claim(client, 0, 0, 0)
        _claim(client, 0, 3, 2)
        assert client.view_of(0) == 4

    def test_claims_from_non_members_of_the_shard_are_ignored(self, deployment):
        client = deployment.client
        for sender in (ReplicaId(1, 0), ReplicaId(1, 1), ReplicaId(0, N), "r1@S0", "client-9"):
            client.on_message(_reply(0, sender, 9))
        assert client.view_of(0) == 0
        assert client.view_of(1) == 0
        # A shard the directory does not know is ignored, not an error.
        client.on_message(_reply(99, ReplicaId(99, 0), 9))
        client.on_message(_reply(99, ReplicaId(99, 1), 9))
        assert client.view_of(99) == 0

    def test_views_are_tracked_per_replying_shard(self, deployment):
        client = deployment.client
        _claim(client, 1, 0, 2)
        _claim(client, 1, 3, 2)
        assert client.view_of(1) == 2
        assert client.view_of(0) == 0

    def test_the_per_shard_table_is_bounded_by_n(self, deployment):
        client = deployment.client
        for view in range(50):
            for index in range(N + 3):
                _claim(client, 0, index, view)
                client.on_message(_reply(0, ReplicaId(1, index), view))
        assert client.view_of(0) == 49
        assert set(client._view_claims) == {0}
        assert len(client._view_claims[0]) == N


class TestRouting:
    @staticmethod
    def _submit_to(deployment, txn_id):
        client = deployment.client
        sent = []
        client.send = lambda dst, message: sent.append(dst)
        key = deployment.table.local_record(0, 0)
        client.submit(TransactionBuilder(txn_id, client.client_id).write(0, key, "v").build())
        return sent

    def test_submit_goes_to_the_view_zero_primary_by_default(self, deployment):
        assert self._submit_to(deployment, "t0") == [ReplicaId(0, 0)]

    def test_submit_goes_to_the_learned_views_primary(self, deployment):
        client = deployment.client
        _claim(client, 0, 2, 1)
        _claim(client, 0, 3, 1)
        assert self._submit_to(deployment, "t1") == [ReplicaId(0, 1)]
        _claim(client, 0, 2, N + 2)
        _claim(client, 0, 3, N + 2)
        assert self._submit_to(deployment, "t2") == [ReplicaId(0, 2)]

    def test_replies_still_complete_the_transaction(self, deployment):
        client = deployment.client
        self._submit_to(deployment, "t3")
        client.on_message(_reply(0, ReplicaId(0, 1), 0, txn_ids=("t3",)))
        assert client.outstanding == 1
        client.on_message(_reply(0, ReplicaId(0, 2), 0, txn_ids=("t3",)))
        assert client.outstanding == 0
        assert [record.txn_id for record in client.completed] == ["t3"]


class TestGroupedReplies:
    @pytest.fixture
    def two_clients(self):
        config = SystemConfig.uniform(2, N, workload=small_workload())
        with Deployment.build(config, num_clients=2) as built:
            yield built

    @staticmethod
    def _submit(deployment, client, txn_ids):
        client.send = lambda dst, message: None
        key = deployment.table.local_record(0, 0)
        for txn_id in txn_ids:
            client.submit(TransactionBuilder(txn_id, client.client_id).write(0, key, "v").build())

    def test_each_listed_transaction_completes_once_at_f_plus_one_senders(self, deployment):
        client = deployment.client
        self._submit(deployment, client, ("g1", "g2", "g3"))
        grouped = ("g1", "g2", "g3")
        client.on_message(_reply(0, ReplicaId(0, 1), 0, txn_ids=grouped))
        client.on_message(_reply(0, ReplicaId(0, 1), 0, txn_ids=grouped))
        assert client.outstanding == 3  # one sender, however often it replies
        client.on_message(_reply(0, ReplicaId(0, 2), 0, txn_ids=grouped))
        assert client.outstanding == 0
        client.on_message(_reply(0, ReplicaId(0, 3), 0, txn_ids=grouped))
        assert [record.txn_id for record in client.completed] == ["g1", "g2", "g3"]

    def test_ids_not_in_flight_are_ignored(self, deployment):
        client = deployment.client
        self._submit(deployment, client, ("g4", "g5"))
        for index in (1, 2):
            client.on_message(_reply(0, ReplicaId(0, index), 0, txn_ids=("ghost", "g4")))
        assert [record.txn_id for record in client.completed] == ["g4"]
        assert client.outstanding == 1

    def test_a_reply_naming_another_clients_transaction_cannot_complete_it(self, two_clients):
        owner, other = two_clients.clients.values()
        self._submit(two_clients, owner, ("mine",))
        for index in range(N):
            other.on_message(_reply(0, ReplicaId(0, index), 0, txn_ids=("mine",)))
        assert owner.outstanding == 1
        assert other.completed == []

    def test_the_view_is_learned_once_per_message(self, deployment, monkeypatch):
        client = deployment.client
        learned = []
        monkeypatch.setattr(client, "_learn_view", learned.append)
        reply = _reply(0, ReplicaId(0, 1), 3, txn_ids=("a", "b", "c"))
        client.on_message(reply)
        assert learned == [reply]
