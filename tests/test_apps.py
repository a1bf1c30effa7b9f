"""The paper's applications, functionally."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.network import Network
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import ms, seconds


def test_blink_toggle_counts(blink_run):
    sim, node, app = blink_run
    # Red toggles every second (47 full fires in 48 s given boot offset),
    # green every 2 s, blue every 4 s.
    assert app.toggles[0] in (47, 48)
    assert app.toggles[1] in (23, 24)
    assert app.toggles[2] in (11, 12)


def test_blink_led_on_times(blink_run):
    sim, node, app = blink_run
    timeline = node.timeline()
    for res_id in (1, 2, 3):
        on_ns = sum(iv.dt_ns for iv in timeline.power_intervals()
                    if iv.state_of(res_id) == 1)
        assert on_ns == pytest.approx(seconds(24), rel=0.03)


def test_bounce_exchanges_packets(bounce_run):
    network, (node1, node4), (app1, app4) = bounce_run
    assert app1.received >= 2
    assert app4.received >= 2
    assert app1.bounces >= 1
    assert app4.bounces >= 1


def test_bounce_charges_remote_activity(bounce_run):
    network, (node1, node4), (app1, app4) = bounce_run
    emap = node1.energy_map(fold_proxies=True)
    by_activity = emap.energy_by_activity()
    assert by_activity.get("4:BounceApp", 0.0) > 0.0
    # And symmetrically on the other node.
    emap4 = node4.energy_map(fold_proxies=True)
    assert emap4.energy_by_activity().get("1:BounceApp", 0.0) > 0.0


def test_sense_and_send_without_radio():
    from repro.apps.sense_send import SenseAndSendApp

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1),
                      rng_factory=RngFactory(0))
    app = SenseAndSendApp(period_ns=seconds(2), send=False)
    node.boot(app.start)
    sim.run(until=seconds(7))
    assert app.samples_taken >= 2
    # Sensor energy is attributed to the sensing activities.
    emap = node.energy_map(fold_proxies=True)
    by_activity = emap.energy_by_activity()
    assert by_activity.get("1:ACT_HUM", 0.0) > 0.0
    assert by_activity.get("1:ACT_TEMP", 0.0) > 0.0


def test_sense_and_send_with_radio():
    from repro.apps.sense_send import SenseAndSendApp

    network = Network(seed=0)
    sender = network.add_node(NodeConfig(node_id=1, mac="csma"))
    sink = network.add_node(NodeConfig(node_id=0, mac="csma"))
    got = []
    app = SenseAndSendApp(sink_id=0, period_ns=seconds(2))

    def sink_app(n):
        n.am.register_receiver(0x53, got.append)
        n.mac.start()

    network.boot_all({1: app.start, 0: sink_app})
    network.run(seconds(7))
    assert app.packets_sent >= 2
    assert len(got) >= 2


def test_timer_leak_app_counts():
    from repro.apps.timer_leak import TimerLeakApp
    from repro.hw.platform import PlatformConfig

    sim = Simulator()
    node = QuantoNode(
        sim,
        NodeConfig(node_id=32, platform=PlatformConfig(dco_calibration=True)),
        rng_factory=RngFactory(0))
    app = TimerLeakApp()
    node.boot(app.start)
    sim.run(until=seconds(2))
    assert app.calibration_interrupts() == pytest.approx(32, abs=2)


def test_dma_app_measures_send(bounce_run=None):
    from repro.apps.dma_compare import OneShotSenderApp

    network = Network(seed=0)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    app = OneShotSenderApp()
    network.boot_all({1: app.start})
    network.run(seconds(1))
    assert app.duration_ns is not None
    assert ms(2) < app.duration_ns < ms(40)
