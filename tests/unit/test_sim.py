"""Unit tests for the discrete-event kernel, WAN model, network, and node runtime."""

import gc
import random
import weakref

import pytest

from repro.common.messages import Checkpoint
from repro.config import GCP_REGIONS
from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.netem.regions import LatencyModel, region_rtt_seconds, rtt_matrix


class TestSimulatorKernel:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == pytest.approx(2.0)

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_ties_keep_scheduling_order_across_cancellations_and_schedule_at(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        dropped = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule_at(1.0, fired.append, "b")
        sim.schedule(0.5, lambda: sim.schedule_at(1.0, fired.append, "d"))
        sim.schedule(1.0, fired.append, "c")
        dropped.cancel()
        dropped.cancel()
        assert sim.pending_events == 4
        sim.run()
        assert fired == ["a", "b", "c", "d"]
        assert sim.processed_events == 5 and sim.pending_events == 0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(2.0)

    def test_max_events_bound(self):
        sim = Simulator()
        counter = {"n": 0}

        def reschedule():
            counter["n"] += 1
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        sim.run(max_events=10)
        assert counter["n"] == 10

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append("nested")))
        sim.run()
        assert fired == ["nested"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(1.5, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [pytest.approx(1.5)]

    def test_deterministic_rng_per_seed(self):
        a = Simulator(seed=7).rng.random()
        b = Simulator(seed=7).rng.random()
        c = Simulator(seed=8).rng.random()
        assert a == b
        assert a != c


class TestCalendarRetention:
    """Cancelled timers release their callbacks, and the heap compacts in order."""

    def test_calendar_stays_bounded_under_cancel_churn(self):
        sim = Simulator()
        rng = random.Random(5)
        live = []
        for i in range(10_000):
            live.append(sim.schedule(30.0 + rng.random() * 90.0, lambda: None))
            if i % 100:
                live.pop(rng.randrange(len(live))).cancel()
            assert sim.calendar_size <= 2 * sim.pending_events + 256
        assert sim.pending_events == 100
        sim.run()
        assert sim.processed_events == 100 and sim.calendar_size == 0

    def test_cancel_releases_the_callback_and_its_arguments(self):
        class Callback:
            def __call__(self, arg):
                pass

        class Arg:
            pass

        sim = Simulator()
        callback, arg = Callback(), Arg()
        callback_ref, arg_ref = weakref.ref(callback), weakref.ref(arg)
        handle = sim.schedule(60.0, callback, arg)
        del callback, arg
        gc.collect()
        assert callback_ref() is not None and arg_ref() is not None
        handle.cancel()
        gc.collect()
        assert callback_ref() is None and arg_ref() is None
        assert handle.callback is None and handle.cancelled
        assert sim.calendar_size == 1  # the entry itself waits to surface

    def test_firing_order_matches_a_sorted_model_across_compactions(self):
        sim = Simulator()
        rng = random.Random(11)
        scheduled = {}  # scheduling order -> (time, handle)
        cancelled = set()
        fired = []
        compactions = 0

        def add(at):
            seq = len(scheduled)
            if rng.random() < 0.5:
                handle = sim.schedule(at - sim.now, on_fire, seq)
            else:
                handle = sim.schedule_at(at, on_fire, seq)
            scheduled[seq] = (at, handle)

        def cancel_some(count):
            nonlocal compactions
            for _ in range(count):
                seq = rng.randrange(len(scheduled))
                handle = scheduled[seq][1]
                if handle.cancelled or handle.fired:
                    continue
                before = sim.calendar_size
                handle.cancel()
                cancelled.add(seq)
                compactions += sim.calendar_size < before

        def on_fire(seq):
            fired.append(seq)
            # Whole-number times make ties common; some land at ``now``.
            for _ in range(rng.randrange(3)):
                add(sim.now + rng.randrange(4))
            cancel_some(rng.randrange(3))

        for _ in range(1_500):
            add(float(rng.randrange(40)))
            cancel_some(1 if rng.random() < 0.7 else 0)
        sim.run(until=1_000.0)

        expected = sorted(
            (seq for seq in scheduled if seq not in cancelled),
            key=lambda seq: (scheduled[seq][0], seq),
        )
        assert fired == expected
        assert compactions >= 1


class TestRegions:
    def test_rtt_is_symmetric(self):
        assert region_rtt_seconds("oregon", "tokyo") == region_rtt_seconds("tokyo", "oregon")

    def test_same_region_rtt_is_small(self):
        assert region_rtt_seconds("iowa", "iowa") < 0.005

    def test_transpacific_slower_than_intra_us(self):
        assert region_rtt_seconds("oregon", "tokyo") > region_rtt_seconds("oregon", "iowa")

    def test_all_paper_regions_have_coordinates(self):
        matrix = rtt_matrix(GCP_REGIONS)
        assert len(matrix) == len(GCP_REGIONS) ** 2
        assert all(value >= 0 for value in matrix.values())

    def test_latency_model_message_delay_includes_size(self):
        model = LatencyModel()
        small = model.message_delay("oregon", "london", 100)
        large = model.message_delay("oregon", "london", 10_000_000)
        assert large > small

    def test_one_way_delay_is_half_rtt(self):
        model = LatencyModel()
        assert model.one_way_delay("oregon", "london") == pytest.approx(
            region_rtt_seconds("oregon", "london") / 2
        )


class _Recorder(Node):
    """Test node that records everything it receives."""

    def __init__(self, address, region, network):
        super().__init__(address, region, network)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def _checkpoint(sender="a"):
    return Checkpoint(sender=sender, sequence=1, state_digest=b"\x00" * 32)


class TestNetworkAndNode:
    def _build(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        a = _Recorder("a", "oregon", network)
        b = _Recorder("b", "london", network)
        return sim, network, a, b

    def test_message_delivery_with_latency(self):
        sim, network, a, b = self._build()
        a.send("b", _checkpoint())
        sim.run()
        assert len(b.received) == 1
        assert sim.now >= region_rtt_seconds("oregon", "london") / 2

    def test_blocked_link_drops_messages_one_way(self):
        sim, network, a, b = self._build()
        network.conditions.block_link("a", "b")
        a.send("b", _checkpoint())
        b.send("a", _checkpoint(sender="b"))
        sim.run()
        assert b.received == []
        assert len(a.received) == 1

    def test_isolated_node_neither_sends_nor_receives(self):
        sim, network, a, b = self._build()
        network.conditions.isolate("b")
        a.send("b", _checkpoint())
        sim.run()
        assert b.received == []

    def test_full_message_loss(self):
        sim, network, a, b = self._build()
        network.conditions.drop_probability = 1.0
        for _ in range(5):
            a.send("b", _checkpoint())
        sim.run()
        assert b.received == []
        assert network.stats.dropped == 5

    def test_crashed_node_ignores_traffic_and_timers(self):
        sim, network, a, b = self._build()
        fired = []
        b.set_timer("t", 1.0, lambda: fired.append("timer"))
        b.crash()
        a.send("b", _checkpoint())
        sim.run()
        assert b.received == []
        assert fired == []

    def test_recovered_node_receives_again(self):
        sim, network, a, b = self._build()
        b.crash()
        b.recover()
        a.send("b", _checkpoint())
        sim.run()
        assert len(b.received) == 1

    def test_broadcast_excludes_self_unless_requested(self):
        sim, network, a, b = self._build()
        a.broadcast(["a", "b"], _checkpoint(), include_self=False)
        sim.run()
        assert a.received == []
        assert len(b.received) == 1
        a.broadcast(["b"], _checkpoint(), include_self=True)
        assert len(a.received) == 1  # local delivery is immediate

    def test_named_timers_replace_and_cancel(self):
        sim, network, a, _ = self._build()
        fired = []
        a.set_timer("x", 1.0, lambda: fired.append("first"))
        a.set_timer("x", 2.0, lambda: fired.append("second"))
        assert a.has_timer("x")
        sim.run()
        assert fired == ["second"]
        assert not a.has_timer("x")

    def test_cancel_timer(self):
        sim, network, a, _ = self._build()
        fired = []
        a.set_timer("x", 1.0, lambda: fired.append("x"))
        a.cancel_timer("x")
        sim.run()
        assert fired == []

    def test_message_stats_recorded_on_send(self):
        sim, network, a, b = self._build()
        a.send("b", _checkpoint())
        assert a.stats.total_messages == 1
        assert a.stats.sent_count["Checkpoint"] == 1
