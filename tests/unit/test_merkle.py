"""Unit tests for the Merkle tree used by block roots."""

import pytest

from repro.common.crypto import sha256
from repro.common.merkle import BucketedDigest, LeafBuckets, MerkleTree, merkle_root
from repro.errors import LedgerError


class TestMerkleTree:
    def test_single_leaf_root_is_stable(self):
        assert MerkleTree([b"only"]).root == MerkleTree([b"only"]).root

    def test_root_changes_with_leaf_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_changes_with_leaf_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_empty_tree_is_rejected(self):
        with pytest.raises(LedgerError):
            MerkleTree([])

    def test_leaf_count(self):
        assert MerkleTree([b"a", b"b", b"c"]).leaf_count == 3

    def test_merkle_root_helper_matches_tree(self):
        leaves = [b"x", b"y", b"z"]
        assert merkle_root(leaves) == MerkleTree(leaves).root

    def test_odd_leaf_counts_are_supported(self):
        for count in (1, 3, 5, 7, 9):
            leaves = [f"leaf-{i}".encode() for i in range(count)]
            tree = MerkleTree(leaves)
            assert len(tree.root) == 32

    def test_leaf_digest_is_domain_separated_from_node_digest(self):
        # A tree over one leaf must not equal the raw hash of the leaf, or an
        # attacker could confuse leaves with inner nodes.
        assert MerkleTree([b"data"]).root != sha256(b"data")


class TestMerkleProofs:
    def test_valid_proof_verifies_for_every_leaf(self):
        leaves = [f"txn-{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            proof = tree.proof(index)
            assert MerkleTree.verify_proof(leaf, proof, tree.root)

    def test_proof_fails_for_wrong_leaf(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        proof = tree.proof(1)
        assert not MerkleTree.verify_proof(b"not-b", proof, tree.root)

    def test_proof_fails_against_wrong_root(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        other = MerkleTree([b"w", b"x", b"y", b"z"])
        proof = tree.proof(2)
        assert not MerkleTree.verify_proof(b"c", proof, other.root)

    def test_proof_index_out_of_range(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(LedgerError):
            tree.proof(5)

    def test_proof_path_length_is_logarithmic(self):
        leaves = [f"{i}".encode() for i in range(16)]
        tree = MerkleTree(leaves)
        assert len(tree.proof(0).path) == 4


def _source(leaves):
    """A leaf source reading the current leaves from ``leaves``."""
    return lambda keys: [leaves[key] for key in keys]


def _base(leaves, num_buckets=64):
    return LeafBuckets.of(leaves, _source(leaves), num_buckets)


class TestBucketedDigest:
    def test_root_is_pure_function_of_entry_set(self):
        # Incremental arrival and bulk install must converge on one root.
        leaves = {f"key-{i}": f"key-{i}=v{i}".encode() for i in range(50)}
        incremental = BucketedDigest()
        for i in range(50):
            incremental.update(f"key-{i}")
            incremental.root(_source(leaves))  # interleave refreshes with mutations
        bulk = BucketedDigest()
        for i in reversed(range(50)):
            bulk.update(f"key-{i}")
        assert incremental.root(_source(leaves)) == bulk.root(_source(leaves))

    def test_root_changes_with_any_leaf(self):
        leaves = {f"key-{i}": f"key-{i}=v{i}".encode() for i in range(10)}
        digest = BucketedDigest()
        for key in leaves:
            digest.update(key)
        before = digest.root(_source(leaves))
        leaves["key-3"] = b"key-3=tampered"
        digest.update("key-3")
        assert digest.root(_source(leaves)) != before

    def test_only_touched_buckets_are_dirty(self):
        leaves = {f"key-{i}": b"leaf" for i in range(100)}
        digest = BucketedDigest()
        for key in leaves:
            digest.update(key)
        digest.root(_source(leaves))
        assert digest.dirty_buckets == 0
        digest.update("key-7")
        assert digest.dirty_buckets == 1

    def test_overlay_on_a_shared_base_matches_a_flat_digest(self):
        # Overwrites, blind inserts and a base shared by two instances all
        # reproduce the root of one digest holding the same entries.
        leaves = {f"key-{i}": f"key-{i}=v0".encode() for i in range(100)}
        base = _base(leaves)
        flat = BucketedDigest()
        for key in leaves:
            flat.update(key)
        first = BucketedDigest(base=base)
        second = BucketedDigest(base=base)
        own: dict[str, bytes] = {}
        assert first.root(_source(own)) == second.root(_source(own)) == flat.root(_source(leaves))
        own.update({"key-3": b"key-3=v1", "key-new": b"key-new=v1"})
        for key in own:
            first.update(key)
            flat.update(key)
        assert first.root(_source(own)) == flat.root(_source({**leaves, **own}))
        assert second.root(_source(own)) != first.root(_source(own))
        assert second.root(_source(own)) == BucketedDigest(base=base).root(_source(own))

    def test_base_bucket_is_one_blob_of_the_digested_bytes(self):
        leaves = {"b": b"b=2;", "a": b"a=|1;", "c": b""}
        base = _base(leaves, num_buckets=1)
        assert base.keys == (("a", "b", "c"),)
        assert base.blobs == (b"a=|1;b=2;",)
        assert base.digests == (sha256(base.blobs[0]),)
        # Leaf i is blob[starts[i]:starts[i + 1]].
        starts = base.starts[0]
        assert list(starts) == [0, 5, 9, 9]
        assert [base.blobs[0][starts[i] : starts[i + 1]] for i in range(3)] == [
            b"a=|1;",
            b"b=2;",
            b"",
        ]

    def test_base_with_another_bucket_count_is_rejected(self):
        with pytest.raises(LedgerError):
            BucketedDigest(8, base=_base({}, num_buckets=4))

    def test_zero_buckets_rejected(self):
        with pytest.raises(LedgerError):
            BucketedDigest(num_buckets=0)

    def test_bucket_count_changes_partitioning_root(self):
        # The bucket count is part of the digest definition; replicas must
        # agree on it (it is a constructor constant, not negotiated state).
        leaves = {f"key-{i}": b"leaf" for i in range(10)}
        a = BucketedDigest(num_buckets=4)
        b = BucketedDigest(num_buckets=8)
        for digest in (a, b):
            for key in leaves:
                digest.update(key)
        assert len(a.root(_source(leaves))) == 32
        assert len(b.root(_source(leaves))) == 32
