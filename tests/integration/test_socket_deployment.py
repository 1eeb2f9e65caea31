"""Integration tests: the socket backend and the multi-process launcher.

The same replica/client code that runs on the simulator must run over real
TCP: in one process (wire-loopback mode, every message crossing the full
encode -> frame -> TCP -> decode -> MAC-verify path through the transport's
own listening socket) and across processes (one per replica, spawned by the
launcher).  Parity tests pin the socket backend to the simulator: the same
workload commits the same transactions.
"""

import socket as _socket

import pytest

from repro.config import SystemConfig, WorkloadConfig
from repro.engine import Deployment, SocketBackend, backend_by_name
from repro.net.launcher import build_system_config, build_workload, deploy_local
from repro.txn.transaction import TransactionBuilder


def _config(num_shards=2, cross=0.5):
    return SystemConfig.uniform(
        num_shards,
        4,
        workload=WorkloadConfig(
            num_records=200,
            cross_shard_fraction=cross,
            batch_size=1,
            num_clients=2,
            seed=11,
        ),
    )


def _mixed_workload(num_shards=2):
    transactions = []
    for i in range(4):
        shard = i % num_shards
        transactions.append(
            TransactionBuilder(f"mix-{i}", f"client-{i % 2}")
            .read_modify_write(shard, f"user{3 + i}", f"v{i}")
            .build()
        )
    builder = TransactionBuilder("mix-cross", "client-0")
    for shard in range(num_shards):
        builder.read_modify_write(shard, f"user{9 + shard}", f"x@{shard}")
    transactions.append(builder.build())
    return transactions


class TestSocketBackendRegistry:
    def test_backend_by_name_builds_socket_backend(self):
        backend = backend_by_name("socket", seed=1, latency=None)
        try:
            assert isinstance(backend, SocketBackend)
            host, port = backend.listen_endpoint
            assert port > 0
        finally:
            backend.close()

    def test_deployment_build_accepts_socket_by_name(self):
        deployment = Deployment.build(_config(), backend="socket", num_clients=1)
        try:
            assert deployment.backend.name == "socket"
        finally:
            deployment.close()


class TestSingleProcessSocketDeployment:
    """wire_loopback: every message crosses a real TCP socket in one process."""

    def test_mixed_workload_over_tcp_loopback(self):
        deployment = Deployment.build(
            _config(), backend="socket", num_clients=2, batch_size=1, seed=11
        )
        try:
            result = deployment.run_workload(_mixed_workload(), timeout=60.0)
            assert result.backend == "socket"
            assert result.all_completed
            assert result.ledgers_consistent
            assert result.message_counts.get("Forward", 0) > 0
            stats = deployment.backend.transport.stats
            # Everything travelled the wire: frames in == frames out, no
            # malformed traffic, the multicast fast path was exercised, and
            # not a single MAC failed on the decoded per-receiver copies.
            assert stats.frames_sent > 0
            assert stats.frames_received == stats.frames_sent
            assert stats.multicasts > 0
            assert stats.malformed_frames == 0
            assert sum(r.auth_rejections for r in deployment.replicas.values()) == 0
            assert sum(r.auth_verifications for r in deployment.replicas.values()) > 0
        finally:
            deployment.close()

    def test_garbage_on_the_wire_does_not_crash_the_deployment(self):
        """Mid-stream garbage drops that connection; consensus is unharmed."""
        deployment = Deployment.build(
            _config(), backend="socket", num_clients=2, batch_size=1, seed=11
        )
        try:
            host, port = deployment.backend.listen_endpoint
            attacker = _socket.create_connection((host, port))
            attacker.sendall(b"\x00garbage-that-is-not-a-frame" * 8)
            result = deployment.run_workload(_mixed_workload(), timeout=60.0)
            attacker.close()
            assert result.all_completed
            assert result.ledgers_consistent
            assert deployment.backend.transport.stats.malformed_frames >= 1
        finally:
            deployment.close()

    def test_socket_and_sim_commit_the_same_transactions(self):
        """Deployment parity: same workload, same committed txn sets/writes."""
        outcomes = {}
        for backend in ("sim", "socket"):
            deployment = Deployment.build(
                _config(), backend=backend, num_clients=2, batch_size=1, seed=11
            )
            try:
                result = deployment.run_workload(_mixed_workload(), timeout=60.0)
                assert result.all_completed
                outcomes[backend] = {
                    "commits": {
                        shard: frozenset(
                            txn
                            for block in deployment.primary_of(shard).ledger.blocks()[1:]
                            for txn in block.txn_ids
                        )
                        for shard in (0, 1)
                    },
                    "writes": {
                        (shard, key): deployment.primary_of(shard).store.read(key)
                        for shard in (0, 1)
                        for key in (f"user{9 + shard}",)
                    },
                }
            finally:
                deployment.close()
        assert outcomes["sim"] == outcomes["socket"]

    def test_single_shard_transaction_completes_in_wall_clock_time(self):
        with Deployment.build(_config(num_shards=1), backend="socket") as deployment:
            txn = (
                TransactionBuilder("wire-single", "client-0")
                .read_modify_write(0, "user3", "wire-value")
                .build()
            )
            result = deployment.run_workload([txn], timeout=10.0)
            assert result.all_completed
            assert result.wall_clock_s < 10.0
            assert all(
                replica.store.read("user3") == "wire-value"
                for replica in deployment.shard_replicas(0)
            )

    def test_cross_shard_transaction_travels_the_ring(self):
        with Deployment.build(_config(), backend="socket") as deployment:
            txn = (
                TransactionBuilder("wire-cross", "client-0")
                .read_modify_write(0, "user3", "wire@0")
                .read_modify_write(1, "user150", "wire@1")
                .build()
            )
            result = deployment.run_workload([txn], timeout=20.0)
            assert result.all_completed
            counts = deployment.message_counts()
            assert counts.get("Forward", 0) > 0
            assert counts.get("Execute", 0) > 0
            for shard, key, value in ((0, "user3", "wire@0"), (1, "user150", "wire@1")):
                assert all(r.store.read(key) == value for r in deployment.shard_replicas(shard))

    def test_small_mixed_workload_and_metrics(self):
        with Deployment.build(_config(), backend="socket", num_clients=2) as deployment:
            transactions = [
                TransactionBuilder(f"wire-mix-{i}", f"client-{i % 2}")
                .read_modify_write(i % 2, f"user{3 + i}", f"v{i}")
                .build()
                for i in range(4)
            ]
            result = deployment.run_workload(transactions, timeout=20.0)
            assert result.all_completed
            assert result.throughput_tps > 0
            assert result.avg_latency > 0
            for shard in (0, 1):
                assert deployment.ledgers_consistent(shard)


@pytest.mark.slow
class TestMultiProcessDeployment:
    """One OS process per replica, coordinated over loopback TCP."""

    def test_deploy_local_completes_a_cross_shard_workload(self):
        outcome = deploy_local(
            shards=2, replicas_per_shard=4, transactions=12, seed=11, timeout=60.0
        )
        result = outcome.result
        assert result.all_completed
        assert result.ledgers_consistent
        assert outcome.aggregate["auth_rejections"] == 0
        assert outcome.aggregate["auth_verifications"] > 0
        assert outcome.aggregate["bytes_on_wire"] > 0
        assert outcome.aggregate["processes"] == 9  # 8 replicas + coordinator
        assert outcome.ok
        # Every process reported, and cross-shard work actually happened.
        assert len(outcome.per_replica) == 8
        assert result.message_counts.get("Forward", 0) > 0
        report = outcome.report()
        assert report["ok"] is True

    def test_deploy_local_matches_the_simulator(self):
        """The multi-process fleet commits exactly the sim's transaction sets."""
        flags = dict(
            shards=2, replicas_per_shard=4, transactions=12, seed=11
        )
        outcome = deploy_local(**flags, timeout=60.0)
        assert outcome.result.all_completed

        config = build_system_config(
            shards=flags["shards"],
            replicas_per_shard=flags["replicas_per_shard"],
            seed=flags["seed"],
        )
        deployment = Deployment.build(config, backend="sim", num_clients=2, seed=flags["seed"])
        try:
            workload = build_workload(
                config, list(deployment.clients), flags["transactions"], flags["seed"]
            )
            sim_result = deployment.run_workload(workload, timeout=120.0)
            assert sim_result.all_completed
            sim_commits = {
                shard: frozenset(
                    txn
                    for block in deployment.primary_of(shard).ledger.blocks()[1:]
                    for txn in block.txn_ids
                )
                for shard in config.shard_ids
            }
        finally:
            deployment.close()
        socket_commits = {
            shard: frozenset(txns) for shard, txns in outcome.shard_commits.items()
        }
        assert socket_commits == sim_commits
        assert any(sim_commits.values()), "workload must commit on at least one shard"
