"""Network-wide live profiling and remaining channel/AM coverage."""

import pytest

from repro.core.topq import NetworkTop, QuantoTop
from repro.tos.network import Network
from repro.tos.node import NodeConfig
from repro.units import ms, seconds


def test_network_top_aggregates_across_nodes():
    from repro.apps.bounce import BounceApp

    network = Network(seed=0)
    node1 = network.add_node(NodeConfig(node_id=1, mac="csma",
                                        enable_counters=True))
    node4 = network.add_node(NodeConfig(node_id=4, mac="csma",
                                        enable_counters=True))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    tops = {}

    def boot(node, app):
        def start(n):
            app.start(n)
            top = QuantoTop(n, refresh_ns=seconds(1))
            top.start()
            tops[n.node_id] = top

        return start

    node1.boot(boot(node1, app1))
    node4.boot(boot(node4, app4))
    network.run(seconds(6))

    net_top = NetworkTop(tops, network.registry)
    totals = net_top.totals()
    # Both nodes' idle floors are visible ...
    assert 1 in totals["1:Idle"]
    assert 4 in totals["4:Idle"]
    # ... and node 4's activity spent live-counted energy on node 1.
    assert totals.get("4:BounceApp", {}).get(1, 0.0) > 0.0
    text = net_top.render()
    assert "network quanto-top (2 nodes)" in text
    assert "4:BounceApp" in text


def test_network_top_requires_nodes():
    with pytest.raises(ValueError):
        NetworkTop({}, None)


def test_localized_interferer_audibility():
    """An interference source audible to one node does not raise CCA
    busy for another (the deployment case study's mechanism)."""
    from repro.net.interference import WifiTrafficConfig

    network = Network(seed=0)
    near = network.add_node(NodeConfig(node_id=1, mac="csma",
                                       radio_channel_number=17))
    far = network.add_node(NodeConfig(node_id=2, mac="csma",
                                      radio_channel_number=17))
    network.add_wifi_interferer(
        WifiTrafficConfig(data_gap_mean_ns=ms(1),
                          data_burst_mean_ns=ms(200),
                          data_burst_cap_ns=ms(400)),
        audible_to={1})
    results = {}

    def boot(node):
        def start(n):
            n.mac.start(lambda: None)

        return start

    near.boot(boot(near))
    far.boot(boot(far))
    network.run(seconds(1))
    # Sample CCA on both radios while the interferer bursts.
    near_clear = near.platform.radio.cca_clear()
    far_clear = far.platform.radio.cca_clear()
    assert far_clear is True
    assert near_clear is False


def test_am_explicit_activity_override():
    from repro.hw.radio import Frame

    network = Network(seed=0)
    sender = network.add_node(NodeConfig(node_id=1, mac="csma"))
    receiver = network.add_node(NodeConfig(node_id=2, mac="csma"))
    got = []

    def recv_app(n):
        n.am.register_receiver(7, got.append)
        n.mac.start()

    def send_app(n):
        override = n.registry.label(1, "Override")

        def ready():
            n.am.send(2, 7, b"z", activity=override)

        n.mac.start(ready)

    receiver.boot(recv_app)
    sender.boot(send_app)
    network.run(seconds(1))
    assert len(got) == 1
    assert got[0].activity == sender.registry.label(1, "Override").encode()


def test_am_dst_filtering():
    network = Network(seed=0)
    sender = network.add_node(NodeConfig(node_id=1, mac="csma"))
    receiver = network.add_node(NodeConfig(node_id=2, mac="csma"))
    bystander = network.add_node(NodeConfig(node_id=3, mac="csma"))
    addressed_got = []
    bystander_got = []

    def recv_app(n):
        n.am.register_receiver(99, addressed_got.append)
        n.mac.start()

    def bystander_app(n):
        n.am.register_receiver(99, bystander_got.append)
        n.mac.start()

    def send_app(n):
        n.mac.start(lambda: n.am.send(2, 99, b"q"))

    receiver.boot(recv_app)
    bystander.boot(bystander_app)
    sender.boot(send_app)
    network.run(seconds(1))
    # The addressed node's receiver got it; the bystander's AM layer
    # dropped it (wrong destination) even though its radio heard it.
    assert len(addressed_got) == 1
    assert bystander_got == []
    assert bystander.platform.radio.frames_received == 1
