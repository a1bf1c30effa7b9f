"""MAC layers: always-on CSMA and low-power listening."""

import pytest

from repro.tos import mac
from repro.tos.network import Network
from repro.tos.node import NodeConfig
from repro.units import ms, seconds


def _lpl_network(channel=17, with_interferer=True, seed=0):
    from repro.apps.lpl_app import LplListenApp

    network = Network(seed=seed)
    node = network.add_node(NodeConfig(
        node_id=1, mac="lpl", radio_channel_number=channel))
    if with_interferer:
        network.add_wifi_interferer()
    app = LplListenApp()
    network.boot_all({1: app.start})
    return network, node, app


def test_csma_leaves_radio_listening():
    network = Network(seed=0)
    node = network.add_node(NodeConfig(node_id=1, mac="csma"))
    started = []
    node.boot(lambda n: n.mac.start(lambda: started.append(True)))
    network.run(ms(50))
    assert started == [True]
    assert node.platform.radio.state == "RX"


def test_lpl_wakes_on_schedule():
    network, node, app = _lpl_network(channel=26, with_interferer=False)
    network.run(seconds(5))
    # ~10 checks in 5 s at 500 ms intervals.
    assert 8 <= app.wakeups <= 11
    assert app.detections == 0
    # Radio is off between checks.
    assert node.platform.radio.state == "OFF"


def test_lpl_clean_channel_duty_cycle():
    network, node, app = _lpl_network(channel=26, with_interferer=True)
    network.run(seconds(10))
    timeline = node.timeline()
    on_ns = sum(iv.dt_ns for iv in timeline.power_intervals()
                if iv.state_of(4) not in (0, None))
    duty = on_ns / network.sim.now
    assert 0.015 < duty < 0.035  # ~2.2 %
    assert app.detections == 0


def test_lpl_interference_causes_false_positives():
    network, node, app = _lpl_network(channel=17, with_interferer=True)
    network.run(seconds(20))
    assert app.detections > 0
    assert app.false_positive_rate() > 0.05


def test_lpl_hold_uses_rx_proxy_activity():
    network, node, app = _lpl_network(channel=17, with_interferer=True)
    network.run(seconds(30))
    timeline = node.timeline()
    proxy = node.proxies.label("pxy_RX")
    radio_segments = timeline.activity_segments(4)
    proxy_time = sum(s.dt_ns for s in radio_segments if s.label == proxy)
    # False-positive holds paint the radio with the (unbound) RX proxy.
    assert proxy_time > ms(50)
    assert all(s.bound_to is None for s in radio_segments
               if s.label == proxy)


def test_lpl_send_retransmits_for_a_full_interval():
    from repro.hw.radio import Frame

    network = Network(seed=1)
    sender = network.add_node(NodeConfig(
        node_id=1, mac="lpl", radio_channel_number=26))
    listener = network.add_node(NodeConfig(
        node_id=2, mac="lpl", radio_channel_number=26))
    got = []
    listener.mac.set_receive(got.append)

    def start_sender(n):
        n.mac.start(lambda: None)
        frame = Frame(src=1, dst=2, am_type=9, payload=b"ping")
        n.vtimers.start_oneshot(
            lambda: n.mac.send(frame, None), ms(700), name="kick")

    def start_listener(n):
        n.mac.start(lambda: None)

    sender.boot(start_sender)
    listener.boot(start_listener)
    network.run(seconds(3))
    # Many copies were transmitted over the 500 ms window; the duty-cycled
    # listener caught at least one (either by locking onto a preamble
    # during its CCA window or via the energy-detect hold).
    assert sender.platform.radio.frames_sent > 5
    assert len(got) >= 1
    assert got[0].payload == b"ping"


def test_lpl_config_defaults_match_paper():
    assert mac.CHECK_INTERVAL_NS == ms(500)
    assert mac.DETECT_TIMEOUT_NS == ms(100)
