"""Property-based tests for the core data structures (hypothesis)."""

from zlib import crc32

from hypothesis import given, settings, strategies as st

from repro.common.crypto import KeyStore, SignatureScheme, sha256
from repro.common.merkle import BucketedDigest, LeafBuckets, MerkleTree, merkle_root
from repro.common.quorum import QuorumSpec, max_faulty
from repro.storage.kvstore import KeyValueStore, PartitionImage
from repro.storage.ledger import Ledger
from repro.txn.ring import RingTopology
from repro.txn.transaction import TransactionBuilder


# ---------------------------------------------------------------------------
# Merkle trees
# ---------------------------------------------------------------------------

leaves_strategy = st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=32)


class TestMerkleProperties:
    @given(leaves=leaves_strategy)
    def test_every_leaf_has_a_valid_proof(self, leaves):
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert MerkleTree.verify_proof(leaf, tree.proof(index), tree.root)

    @given(leaves=leaves_strategy, data=st.data())
    def test_modified_leaf_fails_its_proof(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        tampered = leaves[index] + b"!"
        assert not MerkleTree.verify_proof(tampered, tree.proof(index), tree.root)

    @given(leaves=leaves_strategy)
    def test_root_is_deterministic(self, leaves):
        assert MerkleTree(leaves).root == MerkleTree(leaves).root


def reference_root(leaves: dict[str, bytes], num_buckets: int) -> bytes:
    """Each bucket is sha256 of its leaves in key order; the root is the
    Merkle root over the buckets."""
    buckets: list[list[str]] = [[] for _ in range(num_buckets)]
    for key in leaves:
        buckets[crc32(key.encode()) % num_buckets].append(key)
    return merkle_root([sha256(b"".join(leaves[k] for k in sorted(b))) for b in buckets])


def reference_leaf(key: str, value: str, version: int) -> bytes:
    return f"{len(key)}:{key}{len(value)}:{value}#{version}|".encode()


# Few, short keys so that overwrites, inserts and empty buckets all occur.
digest_keys = st.text(alphabet="ab|=#:é", min_size=1, max_size=3)
leaf_maps = st.dictionaries(digest_keys, st.binary(max_size=8), max_size=24)


class TestBucketedDigestProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        num_buckets=st.sampled_from((1, 2, 64)),
        base=leaf_maps,
        rounds=st.lists(leaf_maps, max_size=4),
    )
    def test_spliced_root_equals_the_reference(self, num_buckets, base, rounds):
        # Every round overwrites base keys and inserts absent ones; a root
        # is taken after each round (and once more, unchanged).
        digest = BucketedDigest(
            num_buckets, base=LeafBuckets.of(base, lambda ks: [base[k] for k in ks], num_buckets)
        )
        own: dict[str, bytes] = {}

        def source(keys):
            return [own[k] for k in keys]

        assert digest.root(source) == reference_root(base, num_buckets)
        for writes in rounds:
            for key in writes:
                digest.update(key)
            own.update(writes)
            expected = reference_root({**base, **own}, num_buckets)
            assert digest.root(source) == expected
            assert digest.root(source) == expected


class TestStateRootProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        records=st.dictionaries(digest_keys, st.text(alphabet="x|=#:0", max_size=4), max_size=20),
        versions=st.dictionaries(digest_keys, st.integers(1, 3), max_size=6),
        writes=st.lists(st.tuples(digest_keys, st.text(alphabet="y|#", max_size=3)), max_size=20),
    )
    def test_store_root_equals_the_reference(self, records, versions, writes):
        versions = {k: v for k, v in versions.items() if k in records}
        store = KeyValueStore(0, PartitionImage(records))
        store.replace(records, versions)

        def expected():
            current = store.versions()
            leaves = {k: reference_leaf(k, v, current.get(k, 0)) for k, v in store.items().items()}
            return reference_root(leaves, 64)

        assert store.state_root() == expected()
        for key, value in writes:
            store.write(key, value)
            assert store.state_root() == expected()


# ---------------------------------------------------------------------------
# Quorums
# ---------------------------------------------------------------------------


class TestQuorumProperties:
    @given(n=st.integers(min_value=4, max_value=200))
    def test_commit_quorums_always_intersect_in_a_nonfaulty_replica(self, n):
        spec = QuorumSpec.for_replicas(n)
        # Two commit quorums overlap in more than f replicas.
        overlap = 2 * spec.commit_quorum - n
        assert overlap > spec.f

    @given(n=st.integers(min_value=1, max_value=500))
    def test_max_faulty_respects_bft_bound(self, n):
        f = max_faulty(n)
        assert 3 * f + 1 <= n + 3  # f is the largest integer with n >= 3f+1
        assert n >= 3 * f + 1 or f == 0

    @given(n=st.integers(min_value=4, max_value=200))
    def test_weak_quorum_contains_a_nonfaulty_replica(self, n):
        spec = QuorumSpec.for_replicas(n)
        assert spec.weak_quorum > spec.f


# ---------------------------------------------------------------------------
# Ring order
# ---------------------------------------------------------------------------

ring_strategy = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=12, unique=True
)


class TestRingProperties:
    @given(order=ring_strategy, data=st.data())
    def test_route_is_a_permutation_of_the_involved_set(self, order, data):
        ring = RingTopology(order)
        involved = frozenset(
            data.draw(
                st.lists(st.sampled_from(order), min_size=1, max_size=len(order), unique=True)
            )
        )
        route = ring.route(involved)
        assert set(route) == involved
        assert len(route) == len(involved)

    @given(order=ring_strategy, data=st.data())
    def test_following_next_visits_every_involved_shard_once(self, order, data):
        ring = RingTopology(order)
        involved = frozenset(
            data.draw(
                st.lists(st.sampled_from(order), min_size=1, max_size=len(order), unique=True)
            )
        )
        current = ring.first_in_ring_order(involved)
        visited = [current]
        for _ in range(len(involved) - 1):
            current = ring.next_in_ring_order(current, involved)
            visited.append(current)
        assert set(visited) == involved
        # One more hop wraps back to the initiator, closing the rotation.
        assert ring.next_in_ring_order(current, involved) == visited[0]

    @given(order=ring_strategy, data=st.data())
    def test_next_and_prev_are_inverse(self, order, data):
        ring = RingTopology(order)
        involved = frozenset(
            data.draw(
                st.lists(st.sampled_from(order), min_size=1, max_size=len(order), unique=True)
            )
        )
        for shard in involved:
            nxt = ring.next_in_ring_order(shard, involved)
            assert ring.prev_in_ring_order(nxt, involved) == shard

    @given(order=ring_strategy, data=st.data())
    def test_initiator_is_unique_and_shared_by_overlapping_sets(self, order, data):
        ring = RingTopology(order)
        involved = frozenset(
            data.draw(
                st.lists(st.sampled_from(order), min_size=1, max_size=len(order), unique=True)
            )
        )
        initiator = ring.first_in_ring_order(involved)
        assert initiator in involved
        assert ring.position(initiator) == min(ring.position(s) for s in involved)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


class TestLedgerProperties:
    @settings(max_examples=25)
    @given(
        batches=st.lists(
            st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    def test_chain_verifies_and_preserves_order(self, batches):
        ledger = Ledger(shard_id=0)
        all_ids = []
        for seq, batch in enumerate(batches, start=1):
            txns = []
            for i, key_index in enumerate(batch):
                txn_id = f"txn-{seq}-{i}"
                all_ids.append(txn_id)
                txns.append(
                    TransactionBuilder(txn_id, "c")
                    .read_modify_write(0, f"user{key_index}", f"v{seq}-{i}")
                    .build()
                )
            ledger.append_batch(seq, "p", txns)
        assert ledger.verify_chain()
        assert ledger.height == len(batches)
        assert ledger.commit_order(set(all_ids)) == all_ids


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class TestSignatureProperties:
    @given(payload=st.binary(min_size=0, max_size=256), signer=st.text(min_size=1, max_size=12))
    def test_sign_verify_roundtrip(self, payload, signer):
        scheme = SignatureScheme(KeyStore())
        assert scheme.verify(scheme.sign(signer, payload), payload)

    @given(
        payload=st.binary(min_size=1, max_size=64),
        other=st.binary(min_size=1, max_size=64),
        signer=st.text(min_size=1, max_size=8),
    )
    def test_signature_does_not_transfer_to_other_payloads(self, payload, other, signer):
        if payload == other:
            return
        scheme = SignatureScheme(KeyStore())
        assert not scheme.verify(scheme.sign(signer, payload), other)
