"""Remaining channel and AM coverage."""

from repro.tos.network import Network
from repro.tos.node import NodeConfig
from repro.units import seconds


class AlwaysOnInBand:
    """An interference source that radiates all the time, fully in-band
    (polled by the channel like a Wi-Fi interferer)."""

    def active(self) -> bool:
        return True

    def overlap(self, channel: int) -> float:
        return 1.0


def test_localized_interferer_audibility():
    """An interference source audible to one node does not raise CCA
    busy for another (the deployment case study's mechanism)."""
    network = Network(seed=0)
    near = network.add_node(NodeConfig(node_id=1, mac="csma",
                                       radio_channel_number=17))
    far = network.add_node(NodeConfig(node_id=2, mac="csma",
                                      radio_channel_number=17))
    network.channel.add_interferer(AlwaysOnInBand(), audible_to={1})
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
