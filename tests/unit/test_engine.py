"""Unit tests: engine protocols, kernel lazy deletion, crypto memo caches,
and the unroutable-request accounting."""

import pytest

from repro.common.crypto import KeyStore, Signature, SignatureScheme, verify_certificate
from repro.engine.backends import SimBackend, SocketBackend
from repro.engine.protocols import Clock, Scheduler, Transport
from repro.errors import CryptoError
from repro.sim.kernel import Simulator


class TestStructuralProtocols:
    def test_sim_backend_satisfies_protocols(self):
        backend = SimBackend(seed=1)
        assert isinstance(backend.scheduler, Clock)
        assert isinstance(backend.scheduler, Scheduler)
        assert isinstance(backend.transport, Transport)

    def test_socket_backend_satisfies_protocols(self):
        backend = SocketBackend(seed=1)
        try:
            assert isinstance(backend.scheduler, Clock)
            assert isinstance(backend.scheduler, Scheduler)
            assert isinstance(backend.transport, Transport)
        finally:
            backend.close()


class TestKernelLazyDeletion:
    def test_pending_events_tracks_schedule_and_fire(self):
        sim = Simulator(seed=1)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        sim.step()
        assert sim.pending_events == 4
        assert handles[0].fire_time == 1.0

    def test_cancel_decrements_immediately_without_popping(self):
        sim = Simulator(seed=1)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        handles[2].cancel()
        assert sim.pending_events == 3
        # Cancelling twice is harmless and does not double-count.
        handles[2].cancel()
        assert sim.pending_events == 3

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator(seed=1)
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()
        first.cancel()  # already fired: must be a no-op
        assert sim.pending_events == 1
        sim.step()
        assert sim.pending_events == 0

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator(seed=1)
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(0.5, lambda: fired.append("drop"))
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.fire_time == 1.0
        assert sim.pending_events == 0

    def test_pending_events_is_constant_time(self):
        # A heap full of cancelled stragglers must not slow the counter; the
        # old implementation scanned the whole queue on every call.
        sim = Simulator(seed=1)
        handles = [sim.schedule(10.0 + i * 1e-3, lambda: None) for i in range(10_000)]
        for handle in handles[:9_999]:
            handle.cancel()
        assert sim.pending_events == 1


class TestVerificationCaches:
    def test_cached_verify_matches_uncached(self):
        cached = KeyStore()
        cold = KeyStore(verify_cache_size=0)
        for keystore in (cached, cold):
            scheme = SignatureScheme(keystore)
            sig = scheme.sign("replica-1", b"payload")
            assert scheme.verify(sig, b"payload")
            assert not scheme.verify(sig, b"other-payload")
            forged = Signature(signer="replica-2", value=sig.value)
            assert not scheme.verify(forged, b"payload")

    def test_repeated_verify_hits_the_cache(self):
        keystore = KeyStore()
        scheme = SignatureScheme(keystore)
        sig = scheme.sign("replica-1", b"payload")
        for _ in range(5):
            assert scheme.verify(sig, b"payload")
        stats = keystore.cache_stats()["verify"]
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_certificate_cache_memoises_whole_certificates(self):
        keystore = KeyStore()
        scheme = SignatureScheme(keystore)
        payload = b"commit|0|7"
        signatures = [scheme.sign(f"replica-{i}", payload) for i in range(4)]
        for _ in range(3):
            assert verify_certificate(scheme, payload, signatures, required=3)
        stats = keystore.cache_stats()["certificate"]
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        # Signature order must not matter for the memo key.
        assert verify_certificate(scheme, payload, list(reversed(signatures)), 3)
        assert keystore.cache_stats()["certificate"]["hits"] == 3

    def test_certificate_below_quorum_rejected_cached_and_not(self):
        for keystore in (KeyStore(), KeyStore(verify_cache_size=0)):
            scheme = SignatureScheme(keystore)
            payload = b"commit|1|9"
            signatures = [scheme.sign(f"replica-{i}", payload) for i in range(2)]
            assert not verify_certificate(scheme, payload, signatures, required=3)
            assert not verify_certificate(scheme, payload, signatures, required=3)

    def test_lru_eviction_bounds_memory(self):
        keystore = KeyStore(verify_cache_size=4)
        scheme = SignatureScheme(keystore)
        for i in range(10):
            sig = scheme.sign("replica-1", b"m%d" % i)
            assert scheme.verify(sig, b"m%d" % i)
        assert len(keystore.verify_cache) <= 4

    def test_zero_size_cache_disables_memoisation(self):
        keystore = KeyStore(verify_cache_size=0)
        assert keystore.verify_cache is None
        assert keystore.certificate_cache is None
        assert keystore.cache_stats() == {"verify": {}, "certificate": {}}

    def test_lru_cache_rejects_nonpositive_size(self):
        from repro.common.crypto import LruCache

        with pytest.raises(CryptoError):
            LruCache(0)


class TestUnroutableRequestAccounting:
    def _deployment(self):
        from repro.config import SystemConfig, WorkloadConfig
        from repro.engine import Deployment

        config = SystemConfig.uniform(
            2, 4, workload=WorkloadConfig(num_records=100, batch_size=1, num_clients=1)
        )
        return Deployment.build(config, backend="sim", num_clients=1, batch_size=1)

    def test_request_naming_unknown_shard_is_counted_not_swallowed(self):
        from repro.common.crypto import SignatureScheme
        from repro.common.messages import ClientRequest
        from repro.txn.transaction import TransactionBuilder

        deployment = self._deployment()
        txn = (
            TransactionBuilder("ghost", "client-0")
            .read_modify_write(0, "user1", "v")
            .read_modify_write(99, "nowhere", "v")  # shard 99 is not in the ring
            .build()
        )
        # The client itself refuses to route such a transaction, so deliver
        # the (properly signed) request straight to a primary, as a buggy or
        # malicious client would.
        scheme = SignatureScheme(deployment.keystore)
        unsigned = ClientRequest(sender="client-0", transaction=txn)
        request = ClientRequest(
            sender="client-0",
            transaction=txn,
            signature=scheme.sign("client-0", unsigned.payload_bytes()),
        )
        primary = deployment.primary_of(0)
        primary.deliver(request)
        deployment.run(duration=5.0)
        drops = deployment.dropped_request_counts()
        assert drops.get("unroutable", 0) >= 1
        assert primary.stats.total_dropped_requests >= 1
        # The malformed transaction never got ordered anywhere.
        assert deployment.completed_transactions() == 0

    def test_well_routed_requests_record_no_drops(self):
        from repro.txn.transaction import TransactionBuilder

        deployment = self._deployment()
        txn = (
            TransactionBuilder("fine", "client-0")
            .read_modify_write(0, "user1", "v")
            .build()
        )
        deployment.submit(txn)
        assert deployment.run_until_clients_done(timeout=30.0)
        assert deployment.dropped_request_counts() == {}

    def test_merged_stats_preserve_drop_reasons(self):
        from repro.common.messages import MessageStats

        a = MessageStats()
        a.record_dropped_request("unroutable")
        b = MessageStats()
        b.record_dropped_request("unroutable")
        b.record_dropped_request("other")
        merged = a.merged_with(b)
        assert merged.dropped_requests == {"unroutable": 2, "other": 1}
        assert merged.total_dropped_requests == 3
