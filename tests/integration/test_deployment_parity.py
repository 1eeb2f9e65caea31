"""Integration tests: the unified Deployment harness and sim/socket parity.

The same protocol code must behave the same on both execution backends: every
transaction of a small cross-shard workload completes, ledgers stay
consistent, and both runs report the unified ``RunResult`` shape.  The socket
runs push every message through the wire loopback (encode, frame, TCP,
decode, MAC-verify) on the wall clock.
"""

import pytest

from repro.config import SystemConfig, TimerConfig, WorkloadConfig
from repro.engine import (
    BACKENDS,
    Deployment,
    RunResult,
    SimBackend,
    SocketBackend,
    SustainedLoadDriver,
    WorkloadDriver,
    backend_by_name,
    run_sustained_load,
)
from repro.errors import ConfigurationError
from repro.txn.transaction import TransactionBuilder
from repro.workloads.ycsb import YcsbWorkloadGenerator

BACKEND_NAMES = ("sim", "socket")


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
    """Four single-shard transactions plus one touching every shard."""
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


class TestBackendRegistry:
    def test_backend_by_name_builds_both_backends(self):
        assert set(BACKENDS) == {"sim", "socket"}
        sim = backend_by_name("sim", seed=1)
        assert isinstance(sim, SimBackend)
        wire = backend_by_name("socket", seed=1)
        assert isinstance(wire, SocketBackend)
        wire.close()

    @pytest.mark.parametrize("name", ["quantum", "realtime"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ConfigurationError, match=r"known: \['sim', 'socket'\]"):
            backend_by_name(name)

    def test_sim_backend_rejects_socket_only_knobs(self):
        with pytest.raises(TypeError, match="listen"):
            backend_by_name("sim", seed=1, listen=("127.0.0.1", 0))

    def test_socket_backend_rejects_drain(self):
        backend = SocketBackend()
        with pytest.raises(ConfigurationError):
            backend.drain()
        backend.close()


class TestDeploymentParity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_mixed_workload_completes_with_consistent_ledgers(self, backend):
        config = _config()
        deployment = Deployment.build(config, backend=backend, num_clients=2, batch_size=1)
        try:
            result = deployment.run_workload(_mixed_workload(), timeout=120.0)
            assert isinstance(result, RunResult)
            assert result.backend == backend
            assert result.all_completed
            assert result.submitted == 5
            assert result.ledgers_consistent
            assert result.total_messages > 0
            assert result.message_counts.get("Forward", 0) > 0
            assert result.avg_latency > 0
            assert result.throughput_tps > 0
            for shard in config.shard_ids:
                assert deployment.executed_in_same_order(
                    shard, {f"mix-{i}" for i in range(4)} | {"mix-cross"}
                )
        finally:
            deployment.close()

    def test_both_backends_apply_the_same_writes(self):
        """The cross-shard write set lands identically under either clock."""
        states = {}
        for backend in BACKEND_NAMES:
            deployment = Deployment.build(_config(), backend=backend, num_clients=2, batch_size=1)
            try:
                result = deployment.run_workload(_mixed_workload(), timeout=120.0)
                assert result.all_completed
                states[backend] = {
                    (shard, key): deployment.primary_of(shard).store.read(key)
                    for shard in (0, 1)
                    for key in (f"user{9 + shard}",)
                }
            finally:
                deployment.close()
        assert states["sim"] == states["socket"]

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_workload_driver_is_backend_agnostic(self, backend):
        config = _config(cross=0.4)
        deployment = Deployment.build(config, backend=backend, num_clients=2, batch_size=1)
        try:
            generator = YcsbWorkloadGenerator(
                deployment.table, deployment.directory.ring, config.workload, seed=11
            )
            driver = WorkloadDriver(deployment, generator, total=8, window=2)
            result = driver.run(timeout=300.0)
            assert result.completed == 8
            assert driver.submitted == 8
            assert result.ledgers_consistent
        finally:
            deployment.close()

    @staticmethod
    def _sustained_config(seed):
        timers = TimerConfig(
            local_timeout=1.0,
            remote_timeout=2.0,
            transmit_timeout=3.0,
            client_timeout=1.5,
            checkpoint_interval=2,
        )
        return SystemConfig.uniform(
            2,
            4,
            timers=timers,
            workload=WorkloadConfig(
                num_records=200,
                cross_shard_fraction=0.2,
                batch_size=1,
                num_clients=2,
                seed=seed,
            ),
        )

    @staticmethod
    def _sustained_on_socket(config, seed):
        """The socket variant drives :class:`SustainedLoadDriver` directly:
        protocol time is wall time there, so it drains for half a second
        instead of ``run_sustained_load``'s ten and samples every 20 ms to
        catch the retained log between checkpoints."""
        deployment = Deployment.build(
            config, backend="socket", num_clients=2, batch_size=1, seed=seed
        )
        try:
            generator = YcsbWorkloadGenerator(
                deployment.table, deployment.directory.ring, config.workload, seed=seed
            )
            driver = SustainedLoadDriver(
                deployment,
                generator,
                rate_per_second=100.0,
                checkpoint_intervals=4,
                seed=seed,
                sample_interval=0.02,
                max_duration=120.0,
                drain=0.5,
            )
            return driver.run(), driver
        finally:
            deployment.close()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_sustained_load_driver_is_backend_agnostic(self, backend):
        """Sustained Poisson load reaches its checkpoint target on both backends."""
        config = self._sustained_config(seed=11)
        if backend == "sim":
            result, driver = run_sustained_load(
                config,
                backend="sim",
                rate_per_second=100.0,
                checkpoint_intervals=4,
                seed=11,
                sample_interval=0.2,
                max_duration=120.0,
            )
        else:
            result, driver = self._sustained_on_socket(config, seed=11)
        assert driver.stable_floor() >= driver.target_sequence
        assert result.ledgers_consistent
        assert driver.series.samples, "retained-state gauges were sampled"
        assert driver.series.peak("log_slots") > 0

    def test_repeated_runs_report_windowed_metrics(self):
        """Driving one deployment twice yields per-run numbers, not totals."""
        deployment = Deployment.build(_config(), backend="sim", num_clients=2, batch_size=1)
        first = deployment.run_workload(_mixed_workload(), timeout=120.0)
        second = deployment.run_workload(
            [
                TransactionBuilder("again", "client-0")
                .read_modify_write(0, "user50", "second-run")
                .build()
            ],
            timeout=120.0,
        )
        assert first.completed == 5 and second.completed == 1
        assert second.submitted == 1
        # The second window's message traffic is a fraction of the first's.
        assert 0 < second.total_messages < first.total_messages
        assert second.total_messages == sum(second.message_counts.values())
        assert len(second.latencies) == 1
        # Cache counters are windowed the same way: the single-transaction
        # second run reports its own (smaller) encode counts, not the
        # cumulative deployment totals.
        assert 0 < second.cache_stats["payload"]["misses"] < first.cache_stats["payload"]["misses"]
        for cache in ("verify", "certificate"):
            window = second.cache_stats[cache]
            assert window.get("hits", 0) + window.get("misses", 0) <= (
                first.cache_stats[cache].get("hits", 0)
                + first.cache_stats[cache].get("misses", 0)
            )

    def test_run_result_row_shape_is_identical(self):
        rows = {}
        for backend in BACKEND_NAMES:
            deployment = Deployment.build(_config(), backend=backend, num_clients=2, batch_size=1)
            try:
                rows[backend] = deployment.run_workload(
                    _mixed_workload(), timeout=120.0
                ).as_row()
            finally:
                deployment.close()
        assert set(rows["sim"]) == set(rows["socket"])
        assert rows["sim"]["completed"] == rows["socket"]["completed"] == 5


class TestCrossBackendDeterminism:
    """Same seed => identical commit order and digests on both backends.

    Submission is sequential (one client, window 1) so the commit order is
    pinned by the workload rather than by scheduling jitter; the assertion
    then checks that the *byte-level* protocol outcome -- block sequences,
    transaction order, Merkle roots, and chained block hashes -- is identical
    under the simulator clock and over the socket wire loopback.
    """

    @staticmethod
    def _chains(total=8, cross=0.4):
        chains = {}
        for backend in BACKEND_NAMES:
            config = SystemConfig.uniform(
                2,
                4,
                workload=WorkloadConfig(
                    num_records=200,
                    cross_shard_fraction=cross,
                    batch_size=1,
                    num_clients=1,
                    seed=11,
                ),
            )
            deployment = Deployment.build(
                config, backend=backend, num_clients=1, batch_size=1, seed=11
            )
            try:
                generator = YcsbWorkloadGenerator(
                    deployment.table, deployment.directory.ring, config.workload, seed=11
                )
                driver = WorkloadDriver(deployment, generator, total=total, window=1)
                result = driver.run(timeout=300.0)
                assert result.completed == total
                assert result.ledgers_consistent
                chains[backend] = {
                    shard: [
                        (block.sequence, block.txn_ids, block.merkle_root, block.block_hash())
                        for block in deployment.primary_of(shard).ledger.blocks()
                    ]
                    for shard in config.shard_ids
                }
            finally:
                deployment.close()
        return chains

    def test_commit_order_and_digests_match_across_backends(self):
        chains = self._chains()
        assert chains["sim"] == chains["socket"]
        # The workload must actually have committed work on every shard.
        for shard_chain in chains["sim"].values():
            assert len(shard_chain) > 1


class TestDeploymentHarness:
    def test_context_manager_closes_backend(self):
        with Deployment.build(_config(), backend="socket") as deployment:
            assert deployment.backend.name == "socket"
        # A second close is harmless.
        deployment.close()

    def test_sim_aliases_point_at_backend(self):
        deployment = Deployment.build(_config(), backend="sim")
        assert deployment.simulator is deployment.backend.scheduler
        assert deployment.network is deployment.backend.transport
        assert deployment.scheduler is deployment.simulator
