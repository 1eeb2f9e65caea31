"""Deployment: one harness for every execution backend.

``Deployment.build`` wires together everything a protocol run needs --
execution backend (scheduler + transport), keystore, directory, one replica
object per configured replica, and any number of clients -- and offers the
convenience helpers used by the examples, the integration tests, the
experiments, and the protocol-mode benchmarks.  The backend is pluggable:

    deployment = Deployment.build(config, backend="sim")      # deterministic
    deployment = Deployment.build(config, backend="socket")   # real TCP

Workload runs on either backend return the same :class:`RunResult`, so a
figure or demo written against ``Deployment`` can switch clocks with a
``--backend`` flag and nothing else.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.common import codec
from repro.common.crypto import KeyStore
from repro.common.types import ReplicaId
from repro.config import SystemConfig
from repro.consensus.directory import Directory
from repro.consensus.pbft.client import Client
from repro.consensus.pbft.replica import PbftReplica
from repro.core.replica import RingBftReplica
from repro.engine.backends import ExecutionBackend, backend_by_name
from repro.engine.protocols import Scheduler, Transport
from repro.errors import ConfigurationError
from repro.metrics.collector import percentile, summarize_pipeline
from repro.netem import LatencyModel, NetemPolicy, region_map_for
from repro.storage.kvstore import ShardedKeyValueStore
from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class RunResult:
    """Unified outcome of one workload run, identical across backends.

    ``duration_s`` is protocol time (virtual seconds in the simulator,
    wall-clock seconds on sockets), so throughput numbers are directly
    comparable between backends; ``wall_clock_s`` additionally reports how
    long the run took on the host.
    """

    backend: str
    submitted: int
    completed: int
    duration_s: float
    wall_clock_s: float
    latencies: tuple[float, ...] = ()
    message_counts: dict[str, int] = field(default_factory=dict)
    total_messages: int = 0
    ledgers_consistent: bool | None = None
    #: Hit/miss counters of the hot-path caches for this run window:
    #: ``verify``/``certificate`` (the keystore's signature memo LRUs),
    #: ``payload``/``digest`` (the codec's per-object memoisation) and
    #: ``intern`` (hits/misses/evictions of the codec's table of decoded
    #: nested values; zero on the simulator, which never decodes).
    cache_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Proposal-window occupancy aggregated over this process's replicas:
    #: peak open slots, batches proposed, average adaptive batch size, and
    #: the mean time a request queued at its primary before proposal.
    pipeline_stats: dict[str, float | int] = field(default_factory=dict)

    @property
    def all_completed(self) -> bool:
        return self.completed == self.submitted

    @property
    def avg_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def p50_latency(self) -> float:
        return self._latency_percentile(0.50)

    @property
    def p99_latency(self) -> float:
        return self._latency_percentile(0.99)

    @property
    def throughput_tps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def _latency_percentile(self, fraction: float) -> float:
        return percentile(sorted(self.latencies), fraction)

    def as_row(self) -> dict:
        """The run as one experiment-table row."""
        return {
            "backend": self.backend,
            "submitted": self.submitted,
            "completed": self.completed,
            "duration_s": round(self.duration_s, 3),
            "throughput_tps": round(self.throughput_tps, 1),
            "avg_latency_s": round(self.avg_latency, 4),
            "p99_latency_s": round(self.p99_latency, 4),
            "messages": self.total_messages,
        }


@dataclass
class Deployment:
    """A running deployment of one protocol on one execution backend."""

    config: SystemConfig
    directory: Directory
    backend: ExecutionBackend
    keystore: KeyStore
    replicas: dict[ReplicaId, PbftReplica]
    clients: dict[str, Client] = field(default_factory=dict)
    table: ShardedKeyValueStore | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        *,
        backend: str | ExecutionBackend = "sim",
        replica_class: type[PbftReplica] = RingBftReplica,
        num_clients: int = 1,
        batch_size: int | None = None,
        latency: LatencyModel | None = None,
        netem: NetemPolicy | None = None,
        seed: int = 2022,
        preload_table: bool = True,
        local_replicas: "set[ReplicaId] | frozenset[ReplicaId] | None" = None,
    ) -> "Deployment":
        """Build a deployment running ``replica_class`` on every replica.

        ``backend`` is either a backend name (``"sim"`` / ``"socket"``) or
        an already-constructed :class:`ExecutionBackend`.

        ``netem`` is the shared link-emulation policy
        (:class:`~repro.netem.NetemPolicy`) applied to every backend's
        transport; the region of *every* configured replica (hosted here or
        not) is threaded into the transport's
        :class:`~repro.netem.LinkEmulator`, so a socket process models the
        WAN delay of links whose far end lives in another OS process.

        ``local_replicas`` restricts which of the configured replicas this
        process actually instantiates (the multi-process socket launcher
        gives each OS process one replica and the coordinator none --
        ``local_replicas=set()``); the directory still describes the full
        deployment, so routing and quorum arithmetic are unchanged.  With the
        default ``None`` every replica is hosted in-process.
        """
        if isinstance(backend, str):
            backend = backend_by_name(backend, seed=seed, latency=latency, netem=netem)
        directory = Directory.from_config(config)
        emulator = getattr(backend.transport, "emulator", None)
        if emulator is not None:
            # Every configured replica -- not just the locally-hosted subset
            # -- so the socket transport knows the region of remote peers it
            # only ever dials.
            emulator.assign_regions(region_map_for(directory, config.shards))
        keystore = KeyStore()
        table = ShardedKeyValueStore(config.shard_ids, config.workload.num_records)

        replicas: dict[ReplicaId, PbftReplica] = {}
        for shard in config.shards:
            shard_members = [
                replica_id
                for replica_id in directory.replicas_of(shard.shard_id)
                if local_replicas is None or replica_id in local_replicas
            ]
            if not shard_members:
                continue
            partition = table.build_partition(shard.shard_id) if preload_table else None
            for replica_id in shard_members:
                replicas[replica_id] = replica_class(
                    replica_id,
                    directory,
                    backend.transport,
                    keystore,
                    batch_size=batch_size or 1,
                    initial_records=partition,
                )

        deployment = cls(
            config=config,
            directory=directory,
            backend=backend,
            keystore=keystore,
            replicas=replicas,
            table=table,
        )
        for i in range(num_clients):
            deployment.add_client(f"client-{i}")
        return deployment

    def add_client(self, client_id: str, region: str = "local") -> Client:
        if client_id in self.clients:
            raise ConfigurationError(f"client {client_id!r} already exists")
        client = Client(
            client_id, self.directory, self.backend.transport, self.keystore, region=region
        )
        self.clients[client_id] = client
        return client

    # ------------------------------------------------------------------
    # backend access
    # ------------------------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        return self.backend.scheduler

    @property
    def transport(self) -> Transport:
        return self.backend.transport

    @property
    def simulator(self) -> Scheduler:
        """The backend scheduler (named after the historical sim-only field)."""
        return self.backend.scheduler

    @property
    def network(self) -> Transport:
        """The backend transport (named after the historical sim-only field)."""
        return self.backend.transport

    @property
    def now(self) -> float:
        return self.backend.now

    def close(self) -> None:
        """Release backend resources (the socket backend owns a loop)."""
        self.backend.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------

    def replica(self, shard: int, index: int) -> PbftReplica:
        return self.replicas[ReplicaId(shard=shard, index=index)]

    def shard_replicas(self, shard: int) -> list[PbftReplica]:
        """The replicas of ``shard`` hosted by *this* process (all of them in
        a single-process deployment, a subset under the socket launcher)."""
        return [
            self.replicas[r] for r in self.directory.replicas_of(shard) if r in self.replicas
        ]

    def primary_of(self, shard: int, view: int = 0) -> PbftReplica:
        return self.replicas[self.directory.primary_of(shard, view)]

    @property
    def client(self) -> Client:
        """The first client (convenience for single-client scenarios)."""
        return next(iter(self.clients.values()))

    # ------------------------------------------------------------------
    # driving workloads
    # ------------------------------------------------------------------

    def submit(self, txn: Transaction, client_id: str | None = None) -> None:
        """Submit a transaction through a client (defaults to the first client)."""
        client = self.clients[client_id] if client_id else self.client
        client.submit(txn)

    def run(self, duration: float | None = None, max_events: int | None = 2_000_000) -> float:
        """Drive the backend until quiescent (sim only), absolute protocol time
        ``duration``, or ``max_events``."""
        if duration is None:
            return self.backend.drain(max_events=max_events)
        return self.backend.run_until_time(duration, max_events=max_events)

    def run_until_clients_done(
        self, timeout: float = 120.0, max_events: int = 5_000_000
    ) -> bool:
        """Drive until every client transaction completed or ``timeout`` protocol seconds."""
        return self.backend.run_until(
            lambda: all(client.outstanding == 0 for client in self.clients.values()),
            timeout,
            max_events=max_events,
        )

    def run_workload(
        self,
        transactions: list[Transaction],
        timeout: float = 120.0,
        *,
        max_events: int = 5_000_000,
        check_consistency: bool = True,
    ) -> RunResult:
        """Submit ``transactions`` round-robin over the clients and await completion.

        Returns the unified :class:`RunResult` regardless of backend.
        ``timeout`` is in protocol seconds.
        """
        started_at = self.backend.now
        wall_started = _time.perf_counter()
        completed_before = self.completed_transactions()
        message_counts_before = self.message_counts()
        cache_stats_before = self.cache_stats_snapshot()
        client_ids = list(self.clients)
        for i, txn in enumerate(transactions):
            self.submit(txn, client_ids[i % len(client_ids)])
        self.run_until_clients_done(timeout, max_events=max_events)
        return self.collect_result(
            submitted=len(transactions),
            started_at=started_at,
            wall_started=wall_started,
            completed_before=completed_before,
            message_counts_before=message_counts_before,
            cache_stats_before=cache_stats_before,
            check_consistency=check_consistency,
        )

    def cache_stats_snapshot(self) -> dict:
        """Snapshot of every hot-path cache counter, taken at a window start.

        Pass the result to :meth:`collect_result` as ``cache_stats_before`` so
        the reported ``RunResult.cache_stats`` covers only that run window --
        both the process-wide codec memo counters and the deployment's
        verification LRUs are windowed the same way.
        """
        return {
            "codec": codec.STATS.snapshot(),
            "keystore": self.keystore.cache_stats(),
        }

    def _windowed_cache_stats(self, before: dict | None) -> dict[str, dict[str, int]]:
        keystore_before = (before or {}).get("keystore", {})
        cache_stats: dict[str, dict[str, int]] = {}
        for name, stats in self.keystore.cache_stats().items():
            if not stats:
                cache_stats[name] = {}
                continue
            base = keystore_before.get(name, {})
            windowed = dict(stats)
            windowed["hits"] = stats.get("hits", 0) - base.get("hits", 0)
            windowed["misses"] = stats.get("misses", 0) - base.get("misses", 0)
            cache_stats[name] = windowed
        cache_stats.update(codec.STATS.delta_since((before or {}).get("codec")))
        return cache_stats

    def collect_result(
        self,
        *,
        submitted: int,
        started_at: float,
        wall_started: float,
        completed_before: int = 0,
        message_counts_before: dict[str, int] | None = None,
        cache_stats_before: dict | None = None,
        check_consistency: bool = True,
    ) -> RunResult:
        """Snapshot the deployment into a :class:`RunResult` for one run window.

        ``completed_before`` and ``message_counts_before`` window the counters
        so that driving one deployment several times reports per-run numbers,
        not cumulative deployment totals.
        """
        latencies = tuple(
            record.latency
            for client in self.clients.values()
            for record in client.completed
            if record.submitted_at >= started_at
        )
        counts = self.message_counts()
        if message_counts_before:
            counts = {
                name: total - message_counts_before.get(name, 0)
                for name, total in counts.items()
                if total - message_counts_before.get(name, 0)
            }
        consistent: bool | None = None
        if check_consistency:
            consistent = all(self.ledgers_consistent(s) for s in self.config.shard_ids)
        cache_stats = self._windowed_cache_stats(cache_stats_before)
        return RunResult(
            backend=self.backend.name,
            submitted=submitted,
            completed=self.completed_transactions() - completed_before,
            duration_s=max(self.backend.now - started_at, 0.0),
            wall_clock_s=_time.perf_counter() - wall_started,
            latencies=latencies,
            message_counts=counts,
            total_messages=sum(counts.values()),
            ledgers_consistent=consistent,
            cache_stats=cache_stats,
            pipeline_stats=summarize_pipeline(self.replicas.values()),
        )

    # ------------------------------------------------------------------
    # deployment-wide metrics and invariants
    # ------------------------------------------------------------------

    def completed_transactions(self) -> int:
        return sum(client.completed_count for client in self.clients.values())

    def latencies(self) -> list[float]:
        values: list[float] = []
        for client in self.clients.values():
            values.extend(client.latencies())
        return values

    def total_messages(self) -> int:
        return sum(node.stats.total_messages for node in self.replicas.values())

    def message_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for node in self.replicas.values():
            for name, count in node.stats.sent_count.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def retained_state_totals(self) -> dict[str, int]:
        """Deployment-wide retained-state gauges (summed over all replicas).

        Sampled periodically by the sustained-load harness to prove that
        steady-state memory is bounded by O(checkpoint_interval + in-flight)
        rather than O(total committed work).
        """
        totals: dict[str, int] = {}
        for replica in self.replicas.values():
            for gauge, value in replica.retained_state().items():
                totals[gauge] = totals.get(gauge, 0) + value
        return totals

    def committed_batch_total(self) -> int:
        """Total batches committed across all replicas (cumulative work gauge)."""
        return sum(replica.committed_batch_count for replica in self.replicas.values())

    def set_gc_enabled(self, enabled: bool) -> None:
        """Toggle checkpoint-driven garbage collection on every replica."""
        for replica in self.replicas.values():
            replica.gc_enabled = enabled

    def dropped_request_counts(self) -> dict[str, int]:
        """Client requests replicas dropped as unroutable, by reason."""
        totals: dict[str, int] = {}
        for node in self.replicas.values():
            for reason, count in node.stats.dropped_requests.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def ledgers_consistent(self, shard: int) -> bool:
        """Every non-crashed replica of ``shard`` holds a ledger with the same blocks.

        Replicas that lag (fewer blocks) are compared on their common prefix,
        mirroring the paper's non-divergence property (identical order, some
        replicas may be behind until the next checkpoint).
        """
        chains = [
            [block.block_hash() for block in replica.ledger.blocks()]
            for replica in self.shard_replicas(shard)
            if not replica.crashed
        ]
        if not chains:
            return True
        for a in chains:
            for b in chains:
                prefix = min(len(a), len(b))
                if a[:prefix] != b[:prefix]:
                    return False
        return True

    def executed_in_same_order(self, shard: int, txn_ids: set[str]) -> bool:
        """All replicas of ``shard`` executed the given transactions in one order."""
        orders = {
            tuple(replica.ledger.commit_order(txn_ids))
            for replica in self.shard_replicas(shard)
            if not replica.crashed and replica.executed_txn_count > 0
        }
        return len(orders) <= 1
