"""Shared fixtures.

The 48-second Blink run is the workhorse of the integration tests; it is
session-scoped because it is deterministic and read-only for assertions.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a multi-seed or long-simulation test; still "
        "part of tier 1 (deselect with -m 'not slow')")


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def node(sim):
    """A standalone (no-radio) node."""
    return QuantoNode(sim, NodeConfig(node_id=1), rng_factory=RngFactory(0))


@pytest.fixture(scope="session")
def blink_run():
    """One deterministic 48 s Blink run shared by integration tests."""
    from repro.apps.blink import BlinkApp

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1), rng_factory=RngFactory(0))
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(48))
    return sim, node, app


@pytest.fixture(scope="session")
def bounce_run():
    """One deterministic two-node Bounce run."""
    from repro.apps.bounce import BounceApp
    from repro.tos.network import Network
    from repro.units import ms

    network = Network(seed=0)
    node1 = network.add_node(NodeConfig(node_id=1, mac="csma"))
    node4 = network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(4))
    return network, (node1, node4), (app1, app4)
