"""Failure injection: overflow, loss, collisions, device variation.

A profiler earns trust by behaving sanely when the system around it
misbehaves; these tests push the failure paths the unit tests don't."""

import pytest

from repro.core.timeline import ColumnarTimeline
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.hw.platform import PlatformConfig
from repro.tos.network import Network
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import ms, seconds


def test_log_overflow_mid_run_keeps_prefix_analyzable():
    """A tiny 800-entry buffer (the real default) overflows during a long
    Blink run; the captured prefix must still decode and regress."""
    from repro.apps.blink import BlinkApp

    sim = Simulator()
    node = QuantoNode(
        sim, NodeConfig(node_id=1, logger_buffer_entries=100),
        rng_factory=RngFactory(0))
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(48))
    assert node.logger.stopped_on_overflow
    assert node.logger.records_written == 100
    assert node.logger.records_dropped > 0
    # The prefix still forms a valid, analyzable log, as it stands (no
    # closing mark: the logger has stopped).
    timeline = ColumnarTimeline(
        node.logger.columns(), end_time_ns=sim.now,
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids)
    intervals = timeline.power_intervals()
    assert intervals
    regression = node.regression(timeline)
    # With only ~9 s captured, LED0 is still identifiable.
    assert regression.current_ma("LED0") == pytest.approx(2.50, rel=0.1)


def test_bounce_survives_link_loss():
    """Packets get dropped; the app simply stops bouncing (no retry in
    Bounce) but nothing crashes and logs stay consistent."""
    from repro.apps.bounce import BounceApp

    network = Network(seed=0)
    node1 = network.add_node(NodeConfig(node_id=1, mac="csma"))
    node4 = network.add_node(NodeConfig(node_id=4, mac="csma"))
    network.channel.set_link_loss(1, 4, 0.5)
    network.channel.set_link_loss(4, 1, 0.5)
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(8))
    for node in (node1, node4):
        entries = node.entries()
        times = [e.time_us for e in entries]
        assert times == sorted(times)
        # Analysis still works on whatever happened.
        node.energy_map()


def test_simultaneous_transmissions_collide_quietly():
    """Two nodes transmitting in each other's calibration blind window:
    frames are lost, radios recover to RX, no exceptions."""
    from repro.apps.bounce import BounceApp

    network = Network(seed=0)
    node1 = network.add_node(NodeConfig(node_id=1, mac="csma"))
    node4 = network.add_node(NodeConfig(node_id=4, mac="csma"))
    # Identical originate delays force the collision.
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(250))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(2))
    assert node1.platform.radio.state == "RX"
    assert node4.platform.radio.state == "RX"
    assert node1.platform.radio.frames_sent == 1
    # Near-simultaneous strobes: delivery is possible for one side at
    # most; both nodes keep functioning either way.
    assert app1.received + app4.received <= 2


def test_device_variation_still_recovered():
    """Each physical node's draws vary +/-10 %; the regression recovers
    *that node's* values, not the nominal profile."""
    from repro.apps.blink import BlinkApp

    sim = Simulator()
    node = QuantoNode(
        sim,
        NodeConfig(node_id=7,
                   platform=PlatformConfig(device_variation=0.10)),
        rng_factory=RngFactory(99))
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(48))
    regression = node.regression()
    for led in ("LED0", "LED1", "LED2"):
        truth_ma = node.platform.profile.current(led, "ON") * 1e3
        assert regression.current_ma(led) == pytest.approx(truth_ma,
                                                           rel=0.03), led
        # And the varied truth is genuinely different from the default.
    default_led0 = 2.50
    varied_led0 = node.platform.profile.current("LED0", "ON") * 1e3
    assert abs(varied_led0 - default_led0) > 0.01


def test_meter_gain_error_preserves_breakdown_shape():
    """+15 % miscalibration (the iCount spec bound): every activity's
    share of the total stays put even though absolute joules shift."""
    from repro.apps.blink import BlinkApp

    def run(gain):
        sim = Simulator()
        node = QuantoNode(
            sim,
            NodeConfig(node_id=1,
                       platform=PlatformConfig(icount_gain_error=gain)),
            rng_factory=RngFactory(0))
        app = BlinkApp()
        node.boot(app.start)
        sim.run(until=seconds(48))
        emap = node.energy_map()
        total = emap.total_energy_j()
        return {k: v / total for k, v in emap.energy_by_activity().items()}

    clean = run(0.0)
    skewed = run(0.15)
    for name in ("1:Red", "1:Green", "1:Blue", "Const."):
        assert skewed[name] == pytest.approx(clean[name], abs=0.01), name


def test_disabled_logger_means_no_visibility_but_no_crash():
    from repro.apps.blink import BlinkApp

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1),
                      rng_factory=RngFactory(0))
    node.logger.enabled = False
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(8))
    assert node.logger.records_written == 0
    assert node.logger.records_dropped > 0
    # The application itself ran fine.
    assert app.toggles[0] >= 7
