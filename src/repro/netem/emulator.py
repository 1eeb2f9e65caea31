"""The link emulator: every per-link delivery decision, for every backend.

One :class:`LinkEmulator` instance sits under each transport (simulated,
TCP socket) and answers the only question a delivery layer
needs to ask: *given a message of this size from src to dst, is it delivered,
and after what one-way delay?*  Everything behind that answer -- region
assignment, the :class:`~repro.netem.policy.NetemPolicy` delay/loss math,
injected fault conditions, and the random draws -- is owned here, so the
two backends cannot drift apart.

Determinism contract
--------------------

Every (src, dst) link owns a private RNG stream seeded from
``(seed, str(src), str(dst))`` via SHA-256 (stable across processes and
Python hash randomisation).  A link's decision sequence therefore depends
only on the sequence of sends *on that link*, not on global interleaving:
the same seed and the same per-link traffic produce identical delay/loss
decisions on the simulator and on a socket fleet where
each process only ever sees its own outbound links.

Draw order per decision is fixed and documented: one fault coin (always),
one loss coin (only when the link's spec has ``loss > 0``), one jitter coin
(only on delivery under a policy).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.netem.conditions import NetworkConditions
from repro.netem.policy import LinkSpec, NetemPolicy

NodeAddress = Hashable

#: Decision returned by :meth:`LinkEmulator.decide`.
#: ``deliver`` is False for both injected faults and emulated loss;
#: ``delay_s`` is the unscaled one-way delay (0.0 when not delivered).
Decision = tuple[bool, float]


class _LinkState:
    """Per-(src, dst) state: resolved spec + private RNG + counters."""

    __slots__ = ("spec", "rng", "delivered", "dropped")

    def __init__(self, spec: LinkSpec | None, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.delivered = 0
        self.dropped = 0


@dataclass
class NetemStats:
    """Emulator-wide counters (per transport instance)."""

    delivered: int = 0
    #: Messages suppressed by injected fault conditions (blocks, isolation,
    #: fault drop probability).
    faulted: int = 0
    #: Messages lost to the policy's steady-state emulated loss.
    lost: int = 0

    def snapshot(self) -> dict[str, int]:
        return {"delivered": self.delivered, "faulted": self.faulted, "lost": self.lost}


class LinkEmulator:
    """Stateful decision engine over one :class:`NetemPolicy`.

    ``policy=None`` means "no emulation": links have zero delay and no loss,
    but injected :class:`NetworkConditions` faults are still honoured (this
    is the socket backend's default -- loopback wire realism without WAN
    behaviour until a geo profile asks for it).
    """

    def __init__(
        self,
        policy: NetemPolicy | None = None,
        conditions: NetworkConditions | None = None,
        *,
        seed: int = 2022,
    ) -> None:
        self.policy = policy
        self.conditions = conditions or NetworkConditions()
        self.seed = seed
        self.stats = NetemStats()
        self._regions: dict[NodeAddress, str] = {}
        self._links: dict[tuple[NodeAddress, NodeAddress], _LinkState] = {}

    # ------------------------------------------------------------------
    # region assignment
    # ------------------------------------------------------------------

    def assign_region(self, address: NodeAddress, region: str) -> None:
        """Pin ``address`` to ``region``; affected link specs are refreshed.

        Only the *spec* of links touching ``address`` is recomputed -- each
        link's private RNG stream and counters survive, so an assignment
        made after traffic has flowed (a client added mid-run) can never
        rewind a stream and replay delay/loss decisions already drawn.
        """
        if self._regions.get(address) == region:
            return
        self._regions[address] = region
        if self.policy is None:
            return
        for (src, dst), state in self._links.items():
            if src == address or dst == address:
                state.spec = self.policy.spec_for(self.region_of(src), self.region_of(dst))

    def assign_regions(self, mapping: Mapping[NodeAddress, str]) -> None:
        for address, region in mapping.items():
            self.assign_region(address, region)

    def region_of(self, address: NodeAddress) -> str:
        return self._regions.get(address, "local")

    def known_regions(self) -> dict[NodeAddress, str]:
        return dict(self._regions)

    # ------------------------------------------------------------------
    # link resolution
    # ------------------------------------------------------------------

    def _link_rng(self, src: NodeAddress, dst: NodeAddress) -> random.Random:
        # Length-prefix each component: addresses are caller-supplied strings,
        # so naive "seed|src|dst" joining would let two distinct links collide
        # on one RNG stream (e.g. "a|b"->"c" vs "a"->"b|c").
        digest = hashlib.sha256()
        for part in (str(self.seed), str(src), str(dst)):
            body = part.encode()
            digest.update(len(body).to_bytes(4, "big"))
            digest.update(body)
        return random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def link(self, src: NodeAddress, dst: NodeAddress) -> _LinkState:
        state = self._links.get((src, dst))
        if state is None:
            spec = None
            if self.policy is not None:
                spec = self.policy.spec_for(self.region_of(src), self.region_of(dst))
            state = _LinkState(spec, self._link_rng(src, dst))
            self._links[(src, dst)] = state
        return state

    def link_spec(self, src: NodeAddress, dst: NodeAddress) -> LinkSpec | None:
        """The resolved spec for a link (None under the no-emulation policy)."""
        return self.link(src, dst).spec

    def expected_one_way_delay(self, src: NodeAddress, dst: NodeAddress, size_bytes: int) -> float:
        """Pre-jitter one-way delay for a message (tests / reports)."""
        spec = self.link_spec(src, dst)
        return 0.0 if spec is None else spec.base_delay(size_bytes)

    # ------------------------------------------------------------------
    # the decision
    # ------------------------------------------------------------------

    def decide(self, src: NodeAddress, dst: NodeAddress, size_bytes: int) -> Decision:
        """One delivery decision; see the module docstring for the RNG contract."""
        link = self.link(src, dst)
        coin = link.rng.random()
        if not self.conditions.allows(src, dst, coin):
            link.dropped += 1
            self.stats.faulted += 1
            return (False, 0.0)
        spec = link.spec
        if spec is None:
            link.delivered += 1
            self.stats.delivered += 1
            return (True, 0.0)
        if spec.loss > 0.0 and link.rng.random() < spec.loss:
            link.dropped += 1
            self.stats.lost += 1
            return (False, 0.0)
        delay = spec.delay_with_jitter(size_bytes, link.rng.random())
        link.delivered += 1
        self.stats.delivered += 1
        return (True, delay)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-friendly summary: policy, regions, per-link counters."""
        links = {
            f"{src}->{dst}": {
                "delay_ms": (
                    round(state.spec.delay_s * 1000.0, 3) if state.spec else 0.0
                ),
                "delivered": state.delivered,
                "dropped": state.dropped,
            }
            for (src, dst), state in self._links.items()
        }
        return {
            "profile": self.policy.profile if self.policy else None,
            "emulated": self.policy is not None,
            "loss": self.policy.loss if self.policy else 0.0,
            "seed": self.seed,
            "regions": {str(addr): region for addr, region in self._regions.items()},
            "stats": self.stats.snapshot(),
            "links": links,
        }


def region_map_for(directory, shards: Iterable) -> dict:
    """Address -> region for every configured replica of a deployment.

    Built from the :class:`~repro.consensus.directory.Directory` so it covers
    *all* replicas -- including ones hosted by other OS processes, which never
    register locally on a socket transport but whose outbound-link delays this
    process must still model.
    """
    mapping = {}
    for shard in shards:
        for replica_id in directory.replicas_of(shard.shard_id):
            mapping[replica_id] = directory.region_of(shard.shard_id)
    return mapping
