"""Integration tests: one WAN model across both execution backends.

The acceptance bar for the unified link model:

* the same seeded geo workload completes on the simulator and the TCP
  socket backend through one shared
  :class:`~repro.netem.NetemPolicy` object;
* the socket backend's *measured* per-link one-way delays match the
  configured (asymmetric) matrix within tolerance;
* the simulator's delivery schedule is byte-for-byte deterministic across
  runs of the same seed.
"""

import pytest

from repro.common.messages import Checkpoint
from repro.engine import Deployment, SocketBackend
from repro.errors import NetworkError
from repro.experiments import wan
from repro.net.launcher import build_system_config, build_workload
from repro.netem import DelayMatrix, NetemPolicy
from repro.sim.node import Node


class TestSharedPolicyAcrossBackends:
    def test_same_geo_workload_completes_on_both_backends(self):
        """One NetemPolicy object, one seeded workload, two substrates."""
        rows = wan.run(
            backends=("sim", "socket"),
            transactions=6,
            shards=2,
            replicas_per_shard=4,
            geo="wan3",
            seed=2022,
        )
        assert [row["backend"] for row in rows] == ["sim", "socket"]
        for row in rows:
            assert row["completed"] == "6/6", row
            assert row["consistent"], row
            # WAN structure is visible on every backend: a cross-shard mix in
            # wan3 regions cannot finish with LAN-grade latency.
            assert row["avg_latency_ms"] > 10.0, row

    def test_geo_socket_run_is_measurably_slower_than_loopback(self):
        kwargs = dict(transactions=6, shards=2, replicas_per_shard=4, seed=2022)
        geo_row = wan.run_protocol("socket", geo="wan3", **kwargs)[0]
        plain, _ = wan.run_one("socket", geo=None, **kwargs)
        assert geo_row["completed"] == "6/6"
        assert plain.all_completed
        assert geo_row["avg_latency_ms"] > plain.avg_latency * 1000.0 + 10.0


class _Probe(Node):
    """Records (sequence -> arrival protocol time) for delay measurement."""

    def __init__(self, address, region, network):
        super().__init__(address, region, network)
        self.arrivals = {}

    def on_message(self, message):
        self.arrivals[message.sequence] = self.now


class TestSocketHonoursDelayMatrix:
    def test_measured_one_way_delays_match_an_asymmetric_matrix(self):
        """a->b is configured 4x slower than b->a; the wire must show it."""
        ab_delay, ba_delay = 0.080, 0.020
        matrix = (
            DelayMatrix()
            .set("east", "west", ab_delay)
            .set("west", "east", ba_delay)
            .set("east", "east", 0.0005)
            .set("west", "west", 0.0005)
        )
        backend = SocketBackend(netem=NetemPolicy(matrix=matrix), seed=5)
        try:
            transport = backend.transport
            a = _Probe("a", "east", transport)
            b = _Probe("b", "west", transport)
            count = 8
            sent_ab, sent_ba = {}, {}
            for i in range(count):
                sent_ab[i] = backend.scheduler.now
                transport.send("a", "b", Checkpoint(sender="a", sequence=i, state_digest=b"x"))
            for i in range(count, 2 * count):
                sent_ba[i] = backend.scheduler.now
                transport.send("b", "a", Checkpoint(sender="b", sequence=i, state_digest=b"x"))
            done = backend.run_until(
                lambda: len(a.arrivals) == count and len(b.arrivals) == count, timeout=20.0
            )
            assert done, (len(a.arrivals), len(b.arrivals))

            measured_ab = [b.arrivals[i] - sent_ab[i] for i in sent_ab]
            measured_ba = [a.arrivals[i] - sent_ba[i] for i in sent_ba]
            jitter = NetemPolicy().latency.jitter_fraction
            # Lower bound is hard (the frame is *held* send-side for the
            # emulated delay); the upper bound adds slack for loopback TCP,
            # loop scheduling, and the driver's polling granularity.
            for sample in measured_ab:
                assert ab_delay <= sample <= ab_delay * (1 + jitter) + 0.25, measured_ab
            for sample in measured_ba:
                assert ba_delay <= sample <= ba_delay * (1 + jitter) + 0.25, measured_ba
            # The asymmetry itself must be visible, not just the bounds.
            avg_ab = sum(measured_ab) / len(measured_ab)
            avg_ba = sum(measured_ba) / len(measured_ba)
            assert avg_ab > avg_ba + (ab_delay - ba_delay) / 2
            assert transport.stats.netem_delayed == 2 * count
        finally:
            backend.close()

    def test_unroutable_delayed_send_raises_at_send_time(self):
        """An unknown destination must fail in the caller, not inside the
        timer callback the emulated delay defers the enqueue to."""
        backend = SocketBackend(netem=NetemPolicy(), seed=3)
        try:
            _Probe("a", "oregon", backend.transport)
            with pytest.raises(NetworkError):
                backend.transport.send(
                    "a", "ghost", Checkpoint(sender="a", sequence=0, state_digest=b"x")
                )
        finally:
            backend.close()

    def test_delayed_frames_are_dropped_once_the_transport_is_closing(self):
        """A netem-held frame whose timer fires during teardown must not
        enqueue onto (or recreate) a peer link."""
        backend = SocketBackend(netem=NetemPolicy(), seed=3)
        try:
            transport = backend.transport
            a = _Probe("a", "oregon", transport)
            _Probe("b", "london", transport)
            transport._closing = True
            transport.send("a", "b", Checkpoint(sender=str(a.address), sequence=0,
                                                state_digest=b"x"))
            backend.run_for(0.2)
            assert transport.stats.dropped_frames == 1
            assert transport.stats.frames_sent == 0
        finally:
            backend.close()

    def test_delayed_local_deliveries_are_suppressed_once_closing(self):
        """The zero-copy local path honours the same teardown rule as the
        wire path: a held delivery must not reach a node mid-dismantle."""
        backend = SocketBackend(netem=NetemPolicy(), wire_loopback=False, seed=3)
        try:
            transport = backend.transport
            _Probe("a", "oregon", transport)
            b = _Probe("b", "london", transport)
            transport._closing = True
            transport.send("a", "b", Checkpoint(sender="a", sequence=0, state_digest=b"x"))
            backend.run_for(0.2)
            assert b.arrivals == {}
            assert transport.stats.delivered == 0
        finally:
            backend.close()


class TestSimScheduleDeterminism:
    def _run_once(self, seed=2022):
        config = build_system_config(
            shards=2, replicas_per_shard=4, seed=seed, num_clients=2, geo="wan3"
        )
        deployment = Deployment.build(
            config,
            backend="sim",
            num_clients=2,
            batch_size=1,
            seed=seed,
            netem=NetemPolicy.for_profile("wan3"),
        )
        try:
            workload = build_workload(config, list(deployment.clients), 10, seed)
            result = deployment.run_workload(workload, timeout=120.0)
            chains = {
                shard: [block.block_hash() for replica in deployment.shard_replicas(shard)
                        for block in replica.ledger.blocks()]
                for shard in config.shard_ids
            }
            events = deployment.simulator.processed_events
        finally:
            deployment.close()
        return result, chains, events

    def test_same_seed_identical_schedule_latencies_and_ledgers(self):
        first = self._run_once()
        second = self._run_once()
        assert first[0].all_completed
        # Byte-for-byte: exact float equality on every latency sample, the
        # exact event count, and identical block-hash chains on every replica.
        assert first[0].latencies == second[0].latencies
        assert first[0].message_counts == second[0].message_counts
        assert first[2] == second[2]
        assert first[1] == second[1]

    def test_different_seed_changes_the_schedule(self):
        baseline = self._run_once(seed=2022)
        other = self._run_once(seed=2023)
        assert baseline[0].latencies != other[0].latencies


class TestSimSocketDecisionParity:
    def test_same_seed_identical_link_decisions_across_backend_emulators(self):
        """The emulators inside a sim and a socket backend built from the
        same seed+policy answer identically for identical traffic."""
        from repro.engine import backend_by_name

        policy = NetemPolicy.for_profile("wan3")
        sim = backend_by_name("sim", seed=13, netem=policy)
        wire = backend_by_name("socket", seed=13, netem=policy)
        try:
            for emulator in (sim.transport.emulator, wire.transport.emulator):
                emulator.assign_regions({"a": "oregon", "b": "montreal"})
            sim_decisions = [sim.transport.emulator.decide("a", "b", 512) for _ in range(40)]
            wire_decisions = [wire.transport.emulator.decide("a", "b", 512) for _ in range(40)]
            assert sim_decisions == wire_decisions
        finally:
            wire.close()
