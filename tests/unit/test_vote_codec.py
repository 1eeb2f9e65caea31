"""Compiled fixed layouts: injectivity of vote payloads and of the encoder.

Byte identity of every message payload with the generic walker is checked
type by type in ``test_payload_binding.py``; these tests pin that the
compiled encoder keeps the codec's type tags, so distinct votes never share
bytes.
"""

import pytest

from repro.common import codec
from repro.common.messages import Commit, Prepare
from repro.common.types import ReplicaId

_SENDERS = (ReplicaId(0, 0), ReplicaId(7, 27), "client-0", "äöü ☃", "")
_VIEWS = (0, 1, 99, 10**9)
_SEQUENCES = (0, 1, -5, 10**15)
_DIGESTS = (b"", b"\x00" * 32, bytes(range(64)), b"\xff")


def _grid():
    for sender in _SENDERS:
        for view in _VIEWS:
            for sequence in _SEQUENCES:
                for digest in _DIGESTS:
                    yield sender, view, sequence, digest


class TestInjectivity:
    def test_distinct_votes_encode_distinctly(self):
        seen = {}
        for sender, view, sequence, digest in _grid():
            message = Commit(sender=sender, view=view, sequence=sequence, batch_digest=digest)
            key = message.payload_bytes()
            identity = (str(sender), view, sequence, digest)
            assert seen.setdefault(key, identity) == identity
        assert len(seen) == len(list(_grid()))

    def test_type_confusion_is_impossible_across_vote_types(self):
        """A Prepare and a Commit over identical fields must not collide."""
        prepare = Prepare(sender=ReplicaId(0, 1), view=1, sequence=2, batch_digest=b"d" * 32)
        commit = Commit(sender=ReplicaId(0, 1), view=1, sequence=2, batch_digest=b"d" * 32)
        assert prepare.payload_bytes() != commit.payload_bytes()

    def test_int_vs_str_fields_cannot_collide(self):
        """The packed int path must stay type-tagged: 1 != "1"."""
        packed = codec.compile_fixed_dict({"type": "T"}, ("x",))
        assert packed(1) != packed("1")
        assert packed(1) == codec.encode_canonical({"type": "T", "x": 1})
        assert packed("1") == codec.encode_canonical({"type": "T", "x": "1"})

    def test_non_fast_types_fall_back_to_the_generic_walker(self):
        packed = codec.compile_fixed_dict({"type": "T"}, ("x",))
        for value in (None, True, 1.5, (1, 2), [1], {"a": 1}, frozenset({1})):
            assert packed(value) == codec.encode_canonical({"type": "T", "x": value})

    def test_bool_is_not_collapsed_into_int(self):
        packed = codec.compile_fixed_dict({}, ("x",))
        assert packed(True) != packed(1)
        assert packed(True) == codec.encode_canonical({"x": True})

    def test_overlapping_static_and_dynamic_keys_rejected(self):
        with pytest.raises(codec.MalformedMessageError):
            codec.compile_fixed_dict({"x": 1}, ("x",))
