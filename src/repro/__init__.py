"""RingBFT reproduction: resilient consensus over a sharded ring topology.

The package reproduces the system described in "RingBFT: Resilient Consensus
over Sharded Ring Topology" (EDBT 2022): a meta-BFT protocol for
sharded-replicated permissioned blockchains, the AHL and Sharper baselines it
is evaluated against, the YCSB-style workload generator, a deterministic
discrete-event simulation substrate, and the analytical performance model
used to regenerate the paper's figures at full scale.

Quickstart::

    from repro import Deployment, SystemConfig, TransactionBuilder

    config = SystemConfig.uniform(num_shards=3, replicas_per_shard=4)
    deployment = Deployment.build(config, backend="sim")
    txn = (TransactionBuilder("txn-1", "client-0")
           .read_modify_write(0, "user100", "new-value")
           .build())
    deployment.submit(txn)
    deployment.run_until_clients_done()
"""

from repro.config import ShardConfig, SystemConfig, TimerConfig, WorkloadConfig
from repro.engine import (
    Deployment,
    ExecutionBackend,
    RunResult,
    SimBackend,
    SocketBackend,
    WorkloadDriver,
    backend_by_name,
)
from repro.consensus.directory import Directory
from repro.core.replica import RingBftReplica
from repro.consensus.pbft.replica import PbftReplica
from repro.txn.ring import RingTopology
from repro.txn.transaction import Operation, OpType, Transaction, TransactionBuilder

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "ExecutionBackend",
    "RunResult",
    "SimBackend",
    "SocketBackend",
    "WorkloadDriver",
    "backend_by_name",
    "SystemConfig",
    "ShardConfig",
    "TimerConfig",
    "WorkloadConfig",
    "Directory",
    "RingBftReplica",
    "PbftReplica",
    "RingTopology",
    "Transaction",
    "TransactionBuilder",
    "Operation",
    "OpType",
    "__version__",
]
