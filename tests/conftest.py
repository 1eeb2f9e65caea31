"""Shared fixtures for the test suite.

Protocol-mode fixtures build small deterministic deployments (3-4 shards of 4
replicas) that run in well under a second of wall-clock time; the analytical
model is exercised directly at paper scale.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig, TimerConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment
from repro.txn.transaction import TransactionBuilder


def small_workload(**overrides) -> WorkloadConfig:
    """Workload config sized for fast protocol-mode tests."""
    defaults = dict(
        num_records=400,
        cross_shard_fraction=0.3,
        batch_size=1,
        num_clients=2,
        seed=2022,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def small_system(num_shards: int = 3, replicas: int = 4, **workload_overrides) -> SystemConfig:
    return SystemConfig.uniform(
        num_shards,
        replicas,
        workload=small_workload(**workload_overrides),
    )


def build_cluster(
    num_shards: int = 3,
    replicas: int = 4,
    replica_class=RingBftReplica,
    num_clients: int = 1,
    seed: int = 2022,
    **workload_overrides,
) -> Deployment:
    config = small_system(num_shards, replicas, **workload_overrides)
    return Deployment.build(
        config, backend="sim",
        replica_class=replica_class,
        num_clients=num_clients,
        batch_size=1,
        seed=seed,
    )


@pytest.fixture
def ring_cluster() -> Deployment:
    """A 3-shard, 4-replica RingBFT cluster with one client."""
    return build_cluster()


@pytest.fixture
def txn_builder():
    """Factory for transaction builders with unique ids."""
    counter = {"value": 0}

    def _make(client_id: str = "client-0") -> TransactionBuilder:
        counter["value"] += 1
        return TransactionBuilder(f"test-txn-{counter['value']}", client_id)

    return _make


@pytest.fixture
def fast_timers() -> TimerConfig:
    return TimerConfig(
        local_timeout=1.0, remote_timeout=2.0, transmit_timeout=3.0, client_timeout=2.0
    )
