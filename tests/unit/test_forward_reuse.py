"""Forward messages are reused across retransmissions (ROADMAP open item).

``_send_forward`` used to rebuild the Forward object on every
(re)transmission, so the frozen object's payload memo and MAC vector never
amortised.  It now rebuilds only when the record's accumulated read sets
actually changed.
"""

from repro.common.messages import Forward
from repro.config import SystemConfig, WorkloadConfig
from repro.core.records import CrossShardRecord
from repro.engine import Deployment
from repro.txn.transaction import TransactionBuilder


def _deployment():
    config = SystemConfig.uniform(
        2,
        4,
        workload=WorkloadConfig(
            num_records=200, cross_shard_fraction=1.0, batch_size=1, num_clients=1, seed=7
        ),
    )
    return Deployment.build(config, backend="sim", num_clients=1, batch_size=1, seed=7)


def _cross_txn():
    return (
        TransactionBuilder("cross-1", "client-0")
        .read_modify_write(0, "user3", "a")
        .read_modify_write(1, "user150", "b")
        .build()
    )


def _run_cross_shard(deployment):
    result = deployment.run_workload([_cross_txn()], timeout=120.0)
    assert result.all_completed
    # The default checkpoint interval (100) never fires here, so the record
    # survives for inspection.
    replica = deployment.primary_of(0)
    record = next(iter(replica._cross_records.values()))
    return replica, record


class TestForwardReuse:
    def test_retransmission_reuses_the_same_forward_object(self):
        deployment = _deployment()
        replica, record = _run_cross_shard(deployment)
        sent: list[Forward] = []
        replica.send = lambda dst, message: sent.append(message)  # type: ignore[assignment]
        replica._send_forward(record)
        replica._send_forward(record)
        assert len(sent) == 2
        assert sent[0] is sent[1], "unchanged read sets must not rebuild the Forward"
        assert sent[0] is record.cached_forward

    def test_changed_read_sets_rebuild_the_forward(self):
        deployment = _deployment()
        replica, record = _run_cross_shard(deployment)
        sent: list[Forward] = []
        replica.send = lambda dst, message: sent.append(message)  # type: ignore[assignment]
        replica._send_forward(record)
        record.merge_write_sets({1: {"user150": "a-new-value"}})
        replica._send_forward(record)
        assert len(sent) == 2
        assert sent[0] is not sent[1], "changed read sets must rebuild the Forward"
        assert sent[1].read_sets[1]["user150"] == "a-new-value"

    def test_auth_tags_survive_reuse(self):
        """A reused Forward keeps its MAC vector: no re-tagging per retransmit."""
        deployment = _deployment()
        replica, record = _run_cross_shard(deployment)
        replica.send = lambda dst, message: None  # type: ignore[assignment]
        replica._send_forward(record)
        tags_created = replica.auth_tags_created
        replica._send_forward(record)
        replica._send_forward(record)
        assert replica.auth_tags_created == tags_created


def _record() -> CrossShardRecord:
    return CrossShardRecord(
        batch_digest=b"\x01" * 32, involved_shards=frozenset({0, 1}), weak_quorum=lambda shard: 2
    )


class TestWriteSetVersioning:
    def test_merging_identical_values_does_not_bump_the_version(self):
        record = _record()
        record.merge_write_sets({0: {"k": "v"}})
        version = record.write_sets_version
        record.merge_write_sets({0: {"k": "v"}})
        assert record.write_sets_version == version

    def test_new_keys_and_changed_values_bump_the_version(self):
        record = _record()
        record.merge_write_sets({0: {"k": "v"}})
        v1 = record.write_sets_version
        record.merge_write_sets({0: {"k2": "w"}})
        v2 = record.write_sets_version
        record.merge_write_sets({0: {"k": "changed"}})
        assert v1 < v2 < record.write_sets_version

    def test_add_local_writes_is_version_tracked(self):
        record = _record()
        record.add_local_writes(0, {"k": "v"})
        version = record.write_sets_version
        record.add_local_writes(0, {"k": "v"})
        assert record.write_sets_version == version
        record.add_local_writes(0, {"k": "v2"})
        assert record.write_sets_version == version + 1
