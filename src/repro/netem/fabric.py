"""The link front end every transport shares.

A transport connects the nodes of one deployment.  Its front half is the
same on every backend: a node registry, one :class:`LinkEmulator` decision
per message copy, and the counters that say what became of each copy.
:class:`LinkFabric` owns that half once.  A backend subclass supplies only
the back half: how a destination resolves to a delivery handle (a hosted
node, a TCP peer link) and what delivery means (a simulator event, a frame
on a socket).

Subclasses define ``send`` and ``multicast`` in their own class body, and
route every copy through :meth:`LinkFabric._route`, so both backends make
the identical decision sequence for the identical traffic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable

from repro.errors import NetworkError
from repro.netem.conditions import NetworkConditions
from repro.netem.emulator import LinkEmulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.messages import Message
    from repro.sim.node import Node

__all__ = ["FabricStats", "LinkFabric"]


@dataclass
class FabricStats:
    """Per-copy outcomes every transport counts the same way."""

    #: Messages handed to a node this transport hosts.
    delivered: int = 0
    #: Copies the link emulator suppressed (injected faults and emulated loss).
    dropped: int = 0
    #: Fan-outs; each counts once whatever its audience size, and its
    #: copies still land in ``delivered`` / ``dropped``.
    multicasts: int = 0


class LinkFabric(abc.ABC):
    """Message fabric connecting the nodes of one deployment.

    ``scheduler`` is the protocol clock nodes reach as ``simulator``;
    ``emulator`` decides every copy's fate and owns the mutable fault
    :attr:`conditions`; ``stats`` is a :class:`FabricStats` (a backend may
    pass a subclass with counters of its own).
    """

    def __init__(self, scheduler: Any, emulator: LinkEmulator, stats: FabricStats) -> None:
        self._scheduler = scheduler
        self.emulator = emulator
        self.stats = stats
        self._nodes: dict[Hashable, "Node"] = {}

    @property
    def simulator(self) -> Any:
        return self._scheduler

    @property
    def conditions(self) -> NetworkConditions:
        return self.emulator.conditions

    def register(self, node: "Node") -> None:
        """Host ``node`` on this transport; addresses must be unique."""
        if node.address in self._nodes:
            raise NetworkError(f"address {node.address!r} is already registered")
        self._nodes[node.address] = node
        self.emulator.assign_region(node.address, node.region)

    @abc.abstractmethod
    def send(self, src: Hashable, dst: Hashable, message: "Message") -> None:
        """Deliver one copy of ``message`` from ``src`` to ``dst``."""

    @abc.abstractmethod
    def multicast(self, src: Hashable, dsts, message: "Message") -> None:
        """Deliver one copy of ``message`` to every address in ``dsts``."""

    @abc.abstractmethod
    def _resolve(self, dst: Hashable) -> Any:
        """The backend's delivery handle for ``dst``.

        Raises :class:`NetworkError` when ``dst`` cannot be reached.
        """

    def _route(self, src: Hashable, dst: Hashable, size: int) -> tuple[Any, float] | None:
        """One copy's link decision: ``(handle, delay)``, or None if dropped.

        The destination resolves before the emulator draws, so an unknown
        address raises in the caller and consumes no random draw.
        """
        handle = self._resolve(dst)
        deliver, delay = self.emulator.decide(src, dst, size)
        if not deliver:
            self.stats.dropped += 1
            return None
        return handle, delay
