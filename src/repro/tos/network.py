"""A network of Quanto nodes sharing one simulator and one radio channel.

The network owns the shared :class:`~repro.core.labels.ActivityRegistry`
(activity ids are a network-wide namespace in the paper's deployments),
the channel, and any interference sources.  It is the setup surface for
the multi-node experiments (Bounce, collection) and for the network-wide
energy merge in :mod:`repro.core.netmerge`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.labels import ActivityRegistry
from repro.errors import NetworkError
from repro.net.channel import RadioChannel
from repro.net.interference import Wifi80211Interferer
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.node import NodeConfig, QuantoNode


class Network:
    """A shared simulation with multiple nodes on one channel."""

    def __init__(self, seed: int = 0):
        self.sim = Simulator()
        self.rng = RngFactory(seed)
        self.registry = ActivityRegistry()
        self.channel = RadioChannel(self.sim)
        self.nodes: dict[int, QuantoNode] = {}
        self.interferers: list[Wifi80211Interferer] = []

    def add_node(self, config: NodeConfig) -> QuantoNode:
        """Create a node attached to the shared channel and registry."""
        if config.node_id in self.nodes:
            raise NetworkError(f"duplicate node id {config.node_id}")
        node = QuantoNode(
            self.sim, config, registry=self.registry, channel=self.channel,
            rng_factory=self.rng,
        )
        self.nodes[config.node_id] = node
        return node

    def add_wifi_interferer(
        self, audible_to: Optional[set[int]] = None,
    ) -> Wifi80211Interferer:
        """Attach an 802.11 interference source to the shared channel.
        ``audible_to`` restricts which nodes hear it (a source near only
        part of the deployment); None means everyone."""
        interferer = Wifi80211Interferer(
            self.sim, self.rng.stream("interferer.wifi"))
        self.channel.add_interferer(interferer, audible_to=audible_to)
        self.interferers.append(interferer)
        return interferer

    def boot_all(
        self,
        apps: dict[int, Callable[[QuantoNode], None]],
    ) -> None:
        """Boot every node with its application start hook."""
        for node_id, node in self.nodes.items():
            node.boot(apps.get(node_id))

    def run(self, until_ns: int) -> None:
        for interferer in self.interferers:
            interferer.start()
        self.sim.run(until=until_ns)

    def node(self, node_id: int) -> QuantoNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"no node {node_id}") from None
