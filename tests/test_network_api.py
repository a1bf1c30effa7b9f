"""The Network assembly surface."""

import pytest

from repro.errors import NetworkError
from repro.tos.network import Network
from repro.tos.node import NodeConfig
from repro.units import seconds


def test_duplicate_node_id_rejected():
    network = Network(seed=0)
    network.add_node(NodeConfig(node_id=1))
    with pytest.raises(NetworkError):
        network.add_node(NodeConfig(node_id=1))


def test_nodes_share_registry_and_channel():
    network = Network(seed=0)
    a = network.add_node(NodeConfig(node_id=1))
    b = network.add_node(NodeConfig(node_id=2))
    assert a.registry is b.registry
    # Activity names resolve to the same ids across nodes.
    assert a.activity("X").aid == b.activity("X").aid


def test_node_lookup():
    network = Network(seed=0)
    node = network.add_node(NodeConfig(node_id=3))
    assert network.node(3) is node
    with pytest.raises(NetworkError):
        network.node(99)


def test_interferers_start_with_run():
    network = Network(seed=0)
    network.add_node(NodeConfig(node_id=1))
    interferer = network.add_wifi_interferer()
    assert interferer.burst_count == 0
    network.boot_all({})
    network.run(seconds(5))
    assert interferer.burst_count > 10


def test_boot_all_with_partial_apps():
    network = Network(seed=0)
    network.add_node(NodeConfig(node_id=1))
    network.add_node(NodeConfig(node_id=2))
    started = []
    network.boot_all({1: lambda n: started.append(n.node_id)})
    network.run(seconds(1))
    assert started == [1]
