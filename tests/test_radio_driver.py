"""The radio driver's instrumented paths, in isolation."""

import pytest

from repro.hw.radio import Frame
from repro.tos.drivers.radio import SendError
from repro.tos.network import Network
from repro.tos.node import NodeConfig, RES_CPU, RES_RADIO
from repro.units import ms, seconds


def _single_node(spi_mode="irq", seed=0):
    from repro.hw.platform import PlatformConfig

    network = Network(seed=seed)
    node = network.add_node(NodeConfig(
        node_id=1, mac="csma",
        platform=PlatformConfig(spi_mode=spi_mode)))
    return network, node


def _send_one(network, node, payload=b"x" * 10, use_cca=True):
    done = []

    def app(n):
        def ready():
            n.set_cpu_activity("Tx")
            frame = Frame(src=1, dst=2, am_type=5, payload=payload)
            n.radio_driver.send(frame, lambda f: done.append(
                network.sim.now), use_cca=use_cca)

        n.mac.start(ready)

    node.boot(app)
    network.run(seconds(1))
    return done


def test_send_completes_and_paints_radio_irq_mode():
    network, node = _single_node("irq")
    done = _send_one(network, node)
    assert len(done) == 1
    # The radio was painted with the sender's activity during the TX and
    # returned to idle afterwards.
    tx_label = node.registry.label(1, "Tx")
    timeline = node.timeline()
    radio_segments = timeline.activity_segments(RES_RADIO)
    assert any(s.label == tx_label for s in radio_segments)
    assert node.radio_activity.get() == node.idle
    # Interrupt mode used per-pair UART interrupts.
    assert node.platform.spi.pair_interrupts > 5
    assert node.platform.spi.dma_transfers == 0


def test_send_completes_dma_mode():
    network, node = _single_node("dma")
    done = _send_one(network, node)
    assert len(done) == 1
    assert node.platform.spi.dma_transfers == 1
    assert node.platform.spi.pair_interrupts == 0
    assert node.interrupts.count("int_DACDMA") == 1


def test_uart_fragments_bound_to_sender_activity():
    network, node = _single_node("irq")
    _send_one(network, node)
    tx_label = node.registry.label(1, "Tx")
    uart = node.proxies.label("int_UART0RX")
    timeline = node.timeline()
    segments = timeline.activity_segments(RES_CPU)
    uart_segments = [s for s in segments if s.label == uart]
    assert uart_segments
    assert all(s.effective_label == tx_label for s in uart_segments)


def test_second_send_while_busy_rejected():
    network, node = _single_node()
    errors = []

    def app(n):
        def ready():
            frame = Frame(src=1, dst=2, am_type=5, payload=b"a")
            n.radio_driver.send(frame, None)
            try:
                n.radio_driver.send(frame, None)
            except SendError as exc:
                errors.append(exc)

        n.mac.start(ready)

    node.boot(app)
    network.run(seconds(1))
    assert len(errors) == 1


def test_congestion_backoff_on_busy_channel():
    """A continuously busy channel (wide-overlap interferer) forces
    congestion backoffs; the driver gives up after MAX_BACKOFFS."""
    from test_network_top import AlwaysOnInBand

    network, node = _single_node()
    network.channel.add_interferer(AlwaysOnInBand())
    done = _send_one(network, node)
    # The send eventually completed or gave up — either way the driver
    # performed multiple backoffs and did not wedge.
    assert node.radio_driver.backoff_count > 1
    assert node.radio_driver._tx_frame is None


def test_tx_powerstate_trace():
    network, node = _single_node()
    _send_one(network, node)
    values = [e.value for e in node.entries()
              if e.res_id == RES_RADIO and e.type_name == "powerstate"]
    # OFF -> VREG -> IDLE -> RX (mac start) -> TX -> RX (fallback)
    assert values[:3] == [1, 2, 3]
    assert 4 in values
    assert values[values.index(4) + 1] == 3


def test_set_tx_power_validation():
    network, node = _single_node()

    def app(n):
        n.radio_driver.set_tx_power(-7)
        assert n.platform.radio.tx_power_dbm == -7
        with pytest.raises(ValueError):
            n.radio_driver.set_tx_power(3)

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    network.run(ms(10))


def test_rx_while_spi_busy_retries():
    """A frame arriving while the SPI is mid-TX-load queues behind the
    rx-retry timer instead of corrupting the transfer."""
    network, node = _single_node("irq")
    node2 = network.add_node(NodeConfig(node_id=2, mac="csma"))
    got = []

    def app1(n):
        def ready():
            n.am.register_receiver(5, got.append)
        n.mac.start(ready)

    def app2(n):
        def ready():
            n.set_cpu_activity("Tx2")
            frame = Frame(src=2, dst=1, am_type=5, payload=b"y" * 40)
            n.radio_driver.send(frame, None)
        n.mac.start(ready)

    node.boot(app1)
    node2.boot(app2)
    network.run(seconds(1))
    assert node.am.received == len(got) == 1
