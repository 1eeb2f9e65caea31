"""Core identifier types used across every subsystem.

The paper's notation (Section 3) is mapped onto explicit Python types:

* a *shard* ``S`` has a ring identifier ``id(S)`` -- :class:`ShardId`;
* a *replica* ``r`` belongs to a shard and has a local index ``id(r)`` used by
  the linear communication primitive -- :class:`ReplicaId`;
* clients are globally identified -- :class:`ClientId`;
* consensus sequence numbers ``k`` and views are plain integers wrapped in
  ``NewType`` aliases so signatures stay self-documenting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NewType

from repro.common.codec import register_wire_type

ShardId = NewType("ShardId", int)
ClientId = NewType("ClientId", str)
SeqNum = NewType("SeqNum", int)
ViewNum = NewType("ViewNum", int)


@register_wire_type
@dataclass(frozen=True, order=True)
class ReplicaId:
    """Globally unique replica identity.

    ``shard`` is the ring identifier of the shard the replica belongs to and
    ``index`` is the replica's position inside its shard (``0..n-1``).  The
    linear communication primitive pairs replicas of neighbouring shards that
    share the same ``index``.
    """

    shard: int
    index: int
    # Per-instance caches set in ``__post_init__``.  Declared ``ClassVar`` so
    # that the dataclass machinery -- and with it equality, ordering and the
    # canonical wire encoding -- ignores them.
    _hash: ClassVar[int]
    _str: ClassVar[str]

    def __post_init__(self) -> None:
        # Computed once per instance: replica ids key every vote tally and
        # routing table, and their string names every MAC key and payload
        # sender, so both run once per delivered message copy.  The hash
        # keeps the generated dataclass value.
        object.__setattr__(self, "_hash", hash((self.shard, self.index)))
        object.__setattr__(self, "_str", f"r{self.index}@S{self.shard}")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str

    @property
    def is_primary_candidate(self) -> bool:
        """Whether this replica is the default (view 0) primary of its shard."""
        return self.index == 0


def primary_index(view: int, num_replicas: int) -> int:
    """Return the replica index acting as primary in ``view``.

    PBFT rotates the primary round-robin over the replica indices, so the
    primary of view ``v`` in a shard of ``n`` replicas is ``v mod n``.
    """
    if num_replicas <= 0:
        raise ValueError("num_replicas must be positive")
    return view % num_replicas


@dataclass(frozen=True)
class DataItem:
    """A single data item (YCSB record key) owned by exactly one shard."""

    shard: int
    key: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.key}@S{self.shard}"
