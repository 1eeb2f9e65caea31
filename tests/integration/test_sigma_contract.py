"""Integration tests: what the read/write sets Sigma carry, and whom they trust.

Forward and Execute carry Sigma only for complex transactions: each shard
contributes the values of its keys that some transaction of the batch names
in ``Operation.depends_on``.  A batch of simple transactions therefore sends
empty sets at every hop, so a hop's messages do not grow with its position
in the ring.  A received Sigma is adopted only once ``f + 1`` senders of its
origin shard carry it, so one Byzantine replica cannot decide what a complex
transaction reads.
"""

import pytest

from repro.common.messages import Execute, Forward
from repro.config import SystemConfig, WorkloadConfig
from repro.engine import Deployment
from repro.txn.transaction import TransactionBuilder

BACKENDS = ("sim", "socket")


def _deployment(backend: str, num_shards: int = 3) -> Deployment:
    config = SystemConfig.uniform(
        num_shards,
        4,
        workload=WorkloadConfig(
            num_records=400, cross_shard_fraction=1.0, batch_size=1, num_clients=1, seed=5
        ),
    )
    return Deployment.build(config, backend=backend, num_clients=1, batch_size=1, seed=5)


def _capture_cross_shard_sends(deployment: Deployment) -> list:
    """Record every Forward/Execute any replica sends (relays included)."""
    sent: list = []
    for replica in deployment.replicas.values():
        def send(dst, message, _original=replica.send):
            if isinstance(message, (Forward, Execute)):
                sent.append(message)
            return _original(dst, message)

        replica.send = send  # type: ignore[method-assign]
    return sent


def _sigma(message) -> dict:
    return message.read_sets if isinstance(message, Forward) else message.write_sets


def _pairs(sigma: dict) -> set:
    return {(shard, key) for shard, values in sigma.items() for key in values}


def _keys(deployment: Deployment) -> dict[int, str]:
    return {shard: deployment.table.local_record(shard, 7) for shard in (0, 1, 2)}


def _complex_txn(keys: dict[int, str], txn_id: str = "complex"):
    """Shard 0 depends on a later shard (resolved in the Forward rotation),
    shard 1 on an earlier one (resolved in the Execute rotation)."""
    return (
        TransactionBuilder(txn_id, "client-0")
        .read(0, keys[0])
        .write(0, keys[0], f"{txn_id}@0", depends_on=((2, keys[2]),))
        .read(1, keys[1])
        .write(1, keys[1], f"{txn_id}@1", depends_on=((0, keys[0]),))
        .read_modify_write(2, keys[2], f"{txn_id}@2")
        .build()
    )


def _expected_values(keys: dict[int, str], initial: str, txn_id: str = "complex") -> dict:
    written0 = f"{txn_id}@0|2:{keys[2]}={initial}"
    return {
        0: written0,
        1: f"{txn_id}@1|0:{keys[0]}={written0}",
        2: f"{txn_id}@2",
    }


def _assert_stored(deployment: Deployment, keys: dict[int, str], expected: dict) -> None:
    for shard, key in keys.items():
        values = [replica.store.read(key) for replica in deployment.shard_replicas(shard)]
        assert values == [expected[shard]] * len(values), (shard, values)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSigmaContract:
    def test_simple_batch_sends_empty_sets_at_every_hop(self, backend):
        with _deployment(backend) as deployment:
            sent = _capture_cross_shard_sends(deployment)
            keys = _keys(deployment)
            builder = TransactionBuilder("simple", "client-0")
            for shard, key in keys.items():
                builder.read_modify_write(shard, key, f"simple@{shard}")
            result = deployment.run_workload([builder.build()], timeout=60.0)
            assert result.all_completed
            assert {type(m) for m in sent} == {Forward, Execute}
            assert all(_sigma(message) == {} for message in sent)
            for replica in deployment.replicas.values():
                for record in replica._cross_records.values():
                    assert record.write_sets == {}

    def test_complex_sigma_holds_exactly_the_dependencies(self, backend):
        with _deployment(backend) as deployment:
            sent = _capture_cross_shard_sends(deployment)
            keys = _keys(deployment)
            initial = deployment.replica(2, 0).store.read(keys[2])
            result = deployment.run_workload([_complex_txn(keys)], timeout=60.0)
            assert result.all_completed
            dependencies = {(2, keys[2]), (0, keys[0])}
            assert all(_pairs(_sigma(message)) <= dependencies for message in sent)
            assert set().union(*(_pairs(_sigma(m)) for m in sent)) == dependencies
            _assert_stored(deployment, keys, _expected_values(keys, initial))


class TestHopSize:
    def test_execute_payload_does_not_grow_with_the_hop(self):
        with _deployment("sim", num_shards=5) as deployment:
            sent = _capture_cross_shard_sends(deployment)
            builder = TransactionBuilder("wide", "client-0")
            for shard in range(5):
                builder.read_modify_write(shard, deployment.table.local_record(shard, 3), "w")
            assert deployment.run_workload([builder.build()], timeout=60.0).all_completed
            sizes = {
                message.origin_shard: len(message.payload_bytes())
                for message in sent
                if isinstance(message, Execute)
            }
            assert sorted(sizes) == [0, 1, 2, 3, 4]
            assert len(set(sizes.values())) == 1, sizes


def _poison(sigma: dict) -> dict:
    return {shard: {key: "POISON" for key in values} for shard, values in sigma.items()}


def _make_liar(replica, kind: str) -> None:
    """Have ``replica`` send its ``kind`` messages with every Sigma value
    replaced -- fully authenticated and with the honest certificate."""
    if kind == "Forward":
        original = replica._send_forward

        def send_forward(record):
            honest = record.write_sets
            record.write_sets, record.cached_forward = _poison(honest), None
            try:
                original(record)
            finally:
                record.write_sets, record.cached_forward = honest, None

        replica._send_forward = send_forward
    else:
        original = replica._send_execute

        def send_execute(record):
            honest = record.write_sets
            record.write_sets = _poison(honest)
            try:
                original(record)
            finally:
                record.write_sets = honest

        replica._send_execute = send_execute


class TestSigmaAdoption:
    @pytest.mark.parametrize("index", range(4))
    def test_a_lying_forward_cannot_change_stored_values(self, index):
        # Shard 0 depends on shard 2's key: the value reaches shard 0 in
        # shard 2's Forwards when the first rotation wraps.
        with _deployment("sim") as deployment:
            _make_liar(deployment.replica(2, index), "Forward")
            keys = _keys(deployment)
            initial = deployment.replica(2, 0).store.read(keys[2])
            result = deployment.run_workload([_complex_txn(keys)], timeout=60.0)
            assert result.all_completed
            _assert_stored(deployment, keys, _expected_values(keys, initial))

    @pytest.mark.parametrize("index", range(4))
    def test_a_lying_execute_cannot_change_stored_values(self, index):
        # Shard 1 depends on shard 0's key: shard 0's written value reaches
        # shard 1 in shard 0's Executes.
        with _deployment("sim") as deployment:
            _make_liar(deployment.replica(0, index), "Execute")
            keys = _keys(deployment)
            initial = deployment.replica(2, 0).store.read(keys[2])
            result = deployment.run_workload([_complex_txn(keys)], timeout=60.0)
            assert result.all_completed
            _assert_stored(deployment, keys, _expected_values(keys, initial))
