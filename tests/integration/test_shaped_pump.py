"""Property sweep: the pipelined proposal window is safe across seeds x depths x rates.

The full-batch rule only engages under open-loop pressure (arrivals fast
enough to fill a batch inside ``target_queue_delay``), so these tests drive
the deployment with a seeded Poisson arrival process -- the same machinery as
the open-loop benchmark -- and assert what the pump must never trade away for
throughput:

* the window is a bound: whoever proposes (client batches, Forward-quorum
  batches, AHL's 2PC batches), ``peak_open_slots <= depth``, no proposed
  batch exceeds ``max_batch_size``, and under saturating load batches leave
  nearly full,
* the GC watermark never truncates an open slot,
* a primary crash that lands mid-window, with forwarded batches queued for a
  slot, still converges to a single commit order with exactly-once execution.
"""

import random

import pytest

from repro.baselines.ahl.replica import AhlReplica
from repro.common.messages import PrePrepare
from repro.config import PipelineConfig, SystemConfig, TimerConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine.deployment import Deployment
from repro.faults.injector import FaultInjector
from repro.workloads.ycsb import YcsbWorkloadGenerator

SHARDS = 3
REPLICAS = 4
MAX_BATCH = 8


def _build(
    depth, seed, *, timers=None, cross_shard=0.3, replica_class=RingBftReplica
):
    workload = WorkloadConfig(
        num_records=10_000,
        cross_shard_fraction=cross_shard,
        batch_size=50,
        num_clients=SHARDS * 2,
        seed=seed,
    )
    if timers is None:
        # Generous fault timers: saturation must not read as a faulty
        # primary unless a test wants exactly that.
        timers = TimerConfig(
            local_timeout=30.0,
            remote_timeout=60.0,
            transmit_timeout=90.0,
            client_timeout=120.0,
        )
    pipeline = PipelineConfig(depth=depth, max_batch_size=MAX_BATCH)
    config = SystemConfig.uniform(
        SHARDS, REPLICAS, workload=workload, timers=timers, pipeline=pipeline
    )
    deployment = Deployment.build(
        config,
        backend="sim",
        replica_class=replica_class,
        num_clients=0,
        batch_size=50,
        seed=seed,
    )
    for i, shard in enumerate(config.shards):
        for j in range(2):
            deployment.add_client(f"client-{i}-{j}", region=shard.region)
    return config, deployment


def _inject_poisson(deployment, config, rate, seed, duration_s):
    """Seeded Poisson arrivals round-robined over the clients."""
    generator = YcsbWorkloadGenerator(
        deployment.table, deployment.directory.ring, config.workload, seed=seed
    )
    rng = random.Random(seed)
    clients = list(deployment.clients)
    state = {"count": 0}
    start = deployment.now

    def arrive():
        if deployment.now - start >= duration_s:
            return
        client_id = clients[state["count"] % len(clients)]
        state["count"] += 1
        deployment.submit(generator.generate(1, client_id)[0], client_id)
        deployment.scheduler.schedule(rng.expovariate(rate), arrive)

    deployment.scheduler.schedule(rng.expovariate(rate), arrive)
    return state


class TestWindowIsABound:
    #: Offered load that fills a MAX_BATCH batch well inside the 50 ms
    #: queue-delay budget at every primary (>= 800/s each).
    SATURATING_RATE = 2400.0
    #: Offered load that cannot (100/s per primary fills 5 of 8): the pump
    #: ships eagerly, and Forward / 2PC batches meet single-request slots.
    LIGHT_RATE = 300.0

    def _drive(self, depth, cross_shard, replica_class, seed, rate):
        config, deployment = _build(
            depth, seed, cross_shard=cross_shard, replica_class=replica_class
        )
        try:
            oversized = []
            pumps = {True: 0, False: 0}  # keyed by "arrivals fill a batch in time"
            budget = config.pipeline.target_queue_delay
            for replica in deployment.replicas.values():
                original = replica._broadcast_shard

                def tracked(message, include_self=True, *, r=replica, orig=original):
                    if isinstance(message, PrePrepare):
                        if len(message.requests) > MAX_BATCH:
                            oversized.append(
                                (str(r.replica_id), message.sequence, len(message.requests))
                            )
                    orig(message, include_self)

                def pumped(reason, *, r=replica, orig=replica._pump_pipeline):
                    pumps[r.pacing.fills_within(MAX_BATCH, budget)] += 1
                    orig(reason)

                replica._broadcast_shard = tracked
                replica._pump_pipeline = pumped

            state = _inject_poisson(deployment, config, rate, seed, duration_s=1.0)
            deployment.run(duration=deployment.now + 5.0)

            assert oversized == []
            replicas = list(deployment.replicas.values())
            assert max(r.peak_open_slots for r in replicas) <= depth
            if rate == self.SATURATING_RATE:
                # The run must exercise the full-batch rule, and under it
                # batches leave nearly full.
                assert pumps[True] > pumps[False]
                proposed = sum(r.proposed_batch_count for r in replicas)
                txns = sum(r.proposed_txn_count for r in replicas)
                assert txns / proposed >= 0.75 * MAX_BATCH
            else:
                assert pumps[False] > pumps[True]
            completed = sum(len(c.completed) for c in deployment.clients.values())
            assert completed == state["count"]
            for shard in range(SHARDS):
                assert deployment.ledgers_consistent(shard)
        finally:
            deployment.close()

    @pytest.mark.parametrize("replica_class", (RingBftReplica, AhlReplica))
    @pytest.mark.parametrize("cross_shard", (0.0, 0.3, 1.0))
    @pytest.mark.parametrize("depth", (2, 4, 8))
    def test_no_proposer_exceeds_the_window(self, depth, cross_shard, replica_class):
        self._drive(depth, cross_shard, replica_class, 2022, self.SATURATING_RATE)

    @pytest.mark.parametrize("replica_class", (RingBftReplica, AhlReplica))
    @pytest.mark.parametrize("depth", (2, 4, 8))
    @pytest.mark.parametrize(
        "seed, rate",
        ((1, LIGHT_RATE), (2022, LIGHT_RATE), (1, SATURATING_RATE)),
    )
    def test_bound_holds_across_seeds_and_regimes(self, seed, rate, depth, replica_class):
        self._drive(depth, 0.3, replica_class, seed, rate)


class TestGcNeverTruncatesOpenWindow:
    @pytest.mark.parametrize("seed", (7, 2022))
    @pytest.mark.parametrize("depth", (2, 4))
    def test_watermark_stays_below_open_slots(self, seed, depth):
        timers = TimerConfig(
            local_timeout=30.0,
            remote_timeout=60.0,
            transmit_timeout=90.0,
            client_timeout=120.0,
            checkpoint_interval=4,  # GC churns while the window is busy
        )
        config, deployment = _build(depth, seed, timers=timers)
        try:
            violations = []
            for replica in deployment.replicas.values():
                original = replica._truncate_below

                def tracked(watermark, *, r=replica, orig=original):
                    if r._open_slots and watermark >= min(r._open_slots):
                        violations.append(
                            (str(r.replica_id), watermark, min(r._open_slots))
                        )
                    orig(watermark)

                replica._truncate_below = tracked

            _inject_poisson(deployment, config, 1500.0, seed, duration_s=2.0)
            deployment.run(duration=deployment.now + 6.0)

            gc_runs = sum(r.gc_runs for r in deployment.replicas.values())
            assert gc_runs >= 1
            assert violations == []
            for shard in range(SHARDS):
                assert deployment.ledgers_consistent(shard)
        finally:
            deployment.close()


class TestViewChangeMidShapedWindow:
    DEPTH = 4
    # Backups expect their primary to propose a forwarded batch within the
    # local timeout, so a crash escalates to a view change in under a second;
    # the short client timeout re-drives client requests that were staged at
    # the dead primary.
    TIMERS = TimerConfig(
        local_timeout=0.4,
        remote_timeout=20.0,
        transmit_timeout=40.0,
        client_timeout=0.5,
    )

    def _crash_shard1_primary_when(self, deployment, condition):
        """Poll ``condition(primary)`` every 0.5 ms from t=0.3 s; crash on the
        first hit and return what the window looked like at that instant."""
        victim = deployment.primary_of(1)
        crashed_with = {}

        def poll():
            if condition(victim):
                crashed_with["queued"] = len(victim._admission_queue)
                crashed_with["open"] = victim.open_slot_count
                FaultInjector(deployment).crash_primary(1)
            else:
                deployment.scheduler.schedule(0.0005, poll)

        deployment.scheduler.schedule(0.3, poll)
        return crashed_with

    def _assert_recovered(self, deployment, submitted):
        completed = sum(len(c.completed) for c in deployment.clients.values())
        assert completed == submitted
        survivors = [r for r in deployment.shard_replicas(1) if not r.crashed]
        assert all(r.view >= 1 for r in survivors)
        # The window still bounds every later view: resubmitted backlog and
        # re-driven cross-shard batches all went through admission.
        assert max(r.peak_open_slots for r in survivors) <= self.DEPTH
        assert sum(r.proposed_batch_count for r in survivors) > 0
        for shard in range(SHARDS):
            members = [r for r in deployment.shard_replicas(shard) if not r.crashed]
            assert deployment.ledgers_consistent(shard)
            committed = {
                txn_id
                for replica in members
                for block in replica.ledger.blocks()
                for txn_id in block.txn_ids
            }
            orders = {tuple(r.ledger.commit_order(committed)) for r in members}
            assert len(orders) == 1
            order = orders.pop()
            assert len(order) == len(set(order))
            assert all(r.retained_state()["locked_keys"] == 0 for r in members)

    def test_overload_view_change_recovers_single_commit_order(self):
        """Shard 1's primary crashes the instant its window is full *and* a
        Forward-quorum batch is queued behind it for a slot.  The queue dies
        with the primary; the new primary must re-drive those batches (and
        the client backlog) through its own window, and every shard must
        still converge to one commit order with exactly-once execution and
        no lock left behind."""
        config, deployment = _build(self.DEPTH, 2022, timers=self.TIMERS)
        try:
            state = _inject_poisson(deployment, config, 2200.0, 2022, duration_s=2.0)
            crashed_with = self._crash_shard1_primary_when(
                deployment, lambda primary: bool(primary._admission_queue)
            )
            deployment.run(duration=deployment.now + 25.0)

            # The scenario is only interesting if the crash caught forwarded
            # batches waiting behind a full window.
            assert crashed_with["queued"] >= 1
            assert crashed_with["open"] == self.DEPTH
            assert state["count"] > 1000
            self._assert_recovered(deployment, state["count"])
        finally:
            deployment.close()

    def test_ahl_view_change_redrives_stalled_2pc_batches(self):
        """The same crash under AHL, caught while a 2PC batch the committee
        is waiting on is still uncommitted at the involved shard's primary.
        Only the primary proposes such batches, so the new primary must
        re-drive them or the committee -- and every lock the batch holds on
        the other shards -- waits forever."""
        config, deployment = _build(
            self.DEPTH, 2022, timers=self.TIMERS, replica_class=AhlReplica
        )
        try:
            state = _inject_poisson(deployment, config, 2200.0, 2022, duration_s=1.0)
            crashed_with = self._crash_shard1_primary_when(
                deployment,
                lambda primary: any(
                    record.local_consensus_started and record.local_sequence is None
                    for record in primary._records.values()
                ),
            )
            deployment.run(duration=deployment.now + 25.0)

            assert crashed_with["open"] >= 1
            self._assert_recovered(deployment, state["count"])
        finally:
            deployment.close()

    @pytest.mark.parametrize("replica_class", (RingBftReplica, AhlReplica))
    def test_prepared_uncommitted_batch_is_not_redriven_twice(self, replica_class):
        """Shard 1's primary crashes holding a cross-shard batch that every
        backup has *prepared* but none committed (its Commit votes are lost).
        The NewView re-proposes the batch from the prepared certificates, and
        the record is still unlocked / without a local sequence at that
        instant, so the subclass re-drive sees it as stalled: it must not
        propose the batch a second time at a fresh sequence."""
        config, deployment = _build(
            self.DEPTH, 2022, timers=self.TIMERS, replica_class=replica_class
        )
        try:
            members = deployment.shard_replicas(1)
            primary = deployment.primary_of(1)
            victim = {}
            redriven = []

            def is_handed_over(message):
                # Ordered on another shard's say-so (a Forward quorum from
                # shard 0, or the AHL committee's prepare): never staged by
                # shard 1's own clients, so only the subclass re-drive can
                # bring it back after a view change.
                txn = message.requests[0].transaction
                return txn.is_cross_shard and 0 in txn.involved_shards

            for replica in members:
                pre_prepare, commit, send = (
                    replica._handle_pre_prepare,
                    replica._handle_commit,
                    replica._broadcast_shard,
                )

                def on_pre_prepare(message, *, orig=pre_prepare):
                    if (
                        not victim
                        and message.view == 0
                        and deployment.now >= 0.3
                        and is_handed_over(message)
                    ):
                        victim["digest"] = message.batch_digest
                        victim["sequence"] = message.sequence
                        victim["txn_id"] = message.requests[0].transaction.txn_id
                    orig(message)

                def on_commit(message, *, orig=commit):
                    if message.view == 0 and message.batch_digest == victim.get("digest"):
                        return  # lost: the batch stays prepared, never commits
                    orig(message)

                def on_broadcast(message, include_self=True, *, orig=send):
                    if (
                        isinstance(message, PrePrepare)
                        and message.view >= 1
                        and message.batch_digest == victim.get("digest")
                    ):
                        redriven.append(message.sequence)
                    orig(message, include_self)

                replica._handle_pre_prepare = on_pre_prepare
                replica._handle_commit = on_commit
                replica._broadcast_shard = on_broadcast

            def crash_once_prepared():
                quorum = primary.quorum.commit_quorum
                if victim and all(
                    (0, victim["sequence"], victim["digest"])
                    in replica.log.prepared_sequences(quorum)
                    for replica in members
                    if replica is not primary
                ):
                    FaultInjector(deployment).crash_primary(1)
                else:
                    deployment.scheduler.schedule(0.0002, crash_once_prepared)

            state = _inject_poisson(deployment, config, 600.0, 2022, duration_s=1.0)
            deployment.scheduler.schedule(0.3, crash_once_prepared)
            deployment.run(duration=deployment.now + 25.0)

            assert primary.crashed
            survivors = [r for r in members if not r.crashed]
            # The batch came back through the NewView's re-proposal, at its
            # old sequence, and nowhere else.
            assert redriven == []
            assert all(
                r.ledger.sequence_of(victim["txn_id"]) == victim["sequence"]
                for r in survivors
            )
            self._assert_recovered(deployment, state["count"])
        finally:
            deployment.close()
