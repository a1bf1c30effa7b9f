"""The instrumented forwarding queue and the collection protocol."""

import pytest

from repro.core.labels import ActivityLabel
from repro.tos.network import Network
from repro.tos.node import NodeConfig
from repro.tos.queue import CAPACITY, ForwardingQueue
from repro.units import ms, seconds


def test_queue_restores_saved_activity(node, sim):
    red = node.activity("Red")
    blue = node.activity("Blue")
    queue = ForwardingQueue("q", node.cpu_activity, node.platform.mcu)
    seen = []

    def app(n):
        n.cpu_activity.set(red)
        queue.enqueue("from-red")
        n.cpu_activity.set(blue)
        queue.enqueue("from-blue")
        n.cpu_activity.set(n.idle)
        # Later service: each dequeue restores its item's activity.
        seen.append((queue.dequeue(), n.cpu_activity.get()))
        seen.append((queue.dequeue(), n.cpu_activity.get()))

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=ms(10))
    assert seen == [("from-red", red), ("from-blue", blue)]


def test_queue_drop_tail_when_full(node, sim):
    queue = ForwardingQueue("q", node.cpu_activity, node.platform.mcu)
    results = []

    def app(n):
        for item in range(CAPACITY + 1):  # the last one is dropped
            results.append(queue.enqueue(item))

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=ms(10))
    assert results == [True] * CAPACITY + [False]
    assert queue.dropped == 1
    assert queue.full
    assert queue.enqueued == CAPACITY


def test_queue_peek_and_empty(node, sim):
    queue = ForwardingQueue("q", node.cpu_activity, node.platform.mcu)
    assert queue.dequeue() is None
    red = node.activity("Red")

    def app(n):
        n.cpu_activity.set(red)
        queue.enqueue("x")

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=ms(10))
    assert node.cpu_activity.get() != red
    got = []
    node.scheduler.post_function(
        lambda: got.append((queue.dequeue(), node.cpu_activity.get())))
    sim.run(until=ms(20))
    assert got == [("x", red)]  # the head restores its saved activity


# -- the collection protocol ---------------------------------------------


@pytest.fixture(scope="module")
def collection_run():
    from repro.apps.collection import CollectionApp, build_line_topology

    network = Network(seed=5)
    node_ids = [10, 11, 12]  # 12 -> 11 -> 10 (root)
    for node_id in node_ids:
        network.add_node(NodeConfig(node_id=node_id, mac="csma"))
    apps = build_line_topology(network, node_ids, root_id=10,
                               sample_period_ns=seconds(4))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(16))
    return network, apps


def test_collection_delivers_to_root(collection_run):
    network, apps = collection_run
    root = apps[10]
    assert len(root.delivered) >= 3
    origins = {origin for origin, _ in root.delivered}
    # The leaf's samples traversed the middle node to reach the root.
    assert 12 in origins


def test_collection_middle_node_forwards(collection_run):
    network, apps = collection_run
    middle = apps[11]
    # It forwarded more packets than it originated (its own + the leaf's).
    assert middle.packets_forwarded > middle.samples_originated


def test_collection_charges_origin_across_hops(collection_run):
    """The leaf's Collect activity consumed energy on the middle node."""
    network, apps = collection_run
    middle_node = network.node(11)
    emap = middle_node.energy_map(fold_proxies=True)
    by_activity = emap.energy_by_activity()
    assert by_activity.get("12:Collect", 0.0) > 0.0


def test_collection_network_price_per_origin(collection_run):
    from repro.core.netmerge import merge_energy_maps

    network, apps = collection_run
    maps = {nid: network.node(nid).energy_map(fold_proxies=True)
            for nid in (10, 11, 12)}
    report = merge_energy_maps(maps)
    # The leaf's activity cost is spread over at least two nodes.
    leaf_spread = report.spread.get("12:Collect", {})
    assert len([n for n, e in leaf_spread.items() if e > 0]) >= 2
    assert report.remote_fraction("12:Collect", 12) > 0.1
