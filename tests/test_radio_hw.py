"""The CC2420-class radio hardware model."""

import pytest

from repro.errors import HardwareError
from repro.hw.catalog import default_actual_profile
from repro.hw.power import PowerRail
from repro.hw.radio import (
    CALIBRATION_NS,
    OSC_DELAY_NS,
    PREAMBLE_NS,
    Frame,
    Radio,
    VREG_DELAY_NS,
)
from repro.net.channel import RadioChannel
from repro.sim.engine import Simulator
from repro.units import ma, ms


def _radio_pair():
    sim = Simulator()
    channel = RadioChannel(sim)
    radios = []
    for node_id in (1, 2):
        rail = PowerRail(sim, voltage=3.0)
        radio = Radio(sim, rail, default_actual_profile(), node_id)
        radio.attach(channel)
        radios.append((radio, rail))
    return sim, channel, radios


def _power_up(sim, radio, then=None):
    def osc_done():
        if then:
            then()

    radio.vreg_on(lambda: radio.osc_on(osc_done))


def test_power_up_sequence_and_timing():
    sim, channel, radios = _radio_pair()
    radio, rail = radios[0]
    states, done = [], []

    def osc_done():
        states.append(radio.state)
        done.append(sim.now)

    def vreg_done():
        states.append(radio.state)
        radio.osc_on(osc_done)

    radio.vreg_on(vreg_done)
    sim.run()
    assert states == ["VREG", "IDLE"]
    assert done == [VREG_DELAY_NS + OSC_DELAY_NS]


def test_rx_on_draws_listen_current():
    sim, channel, radios = _radio_pair()
    radio, rail = radios[0]
    _power_up(sim, radio, radio.rx_on)
    sim.run()
    assert radio.state == "RX"
    # listen path + control path + regulator
    expected = ma(18.46) + 426e-6 + 22e-6
    assert rail.current() == pytest.approx(expected, rel=1e-6)


def test_frame_length_and_airtime():
    frame = Frame(src=1, dst=2, am_type=0x42, payload=b"hello")
    # 11 header + 2 activity + 5 payload + 2 CRC = 20
    assert frame.length == 20
    assert frame.airtime_ns() == (1 + 20) * 32_000


def test_transmit_delivers_to_listener():
    sim, channel, radios = _radio_pair()
    tx, _ = radios[0]
    rx, _ = radios[1]
    got = []
    rx.on_rx_done = lambda: got.append(rx.read_rx_fifo())
    _power_up(sim, rx, rx.rx_on)
    frame = Frame(src=1, dst=2, am_type=7, payload=b"x" * 10, activity=0x0105)

    def send():
        tx.load_tx_fifo(frame)
        tx.strobe_tx()

    _power_up(sim, tx, send)
    sim.run()
    assert len(got) == 1
    assert got[0].activity == 0x0105
    assert tx.frames_sent == 1
    assert rx.frames_received == 1
    # CC2420 falls back to RX after transmitting.
    assert tx.state == "RX"


def test_sfd_fires_after_preamble():
    sim, channel, radios = _radio_pair()
    tx, _ = radios[0]
    rx, _ = radios[1]
    sfd_times = []
    rx.on_sfd = lambda: sfd_times.append(sim.now)
    _power_up(sim, rx, rx.rx_on)
    frame = Frame(src=1, dst=2, am_type=7, payload=b"")
    tx_start = []

    def send():
        tx.load_tx_fifo(frame)
        tx.strobe_tx()
        tx_start.append(sim.now)

    _power_up(sim, tx, send)
    sim.run()
    assert len(sfd_times) == 1
    assert sfd_times[0] == tx_start[0] + CALIBRATION_NS + PREAMBLE_NS


def test_rx_while_not_listening_misses_frame():
    sim, channel, radios = _radio_pair()
    tx, _ = radios[0]
    rx, _ = radios[1]
    _power_up(sim, rx)  # IDLE, not RX
    frame = Frame(src=1, dst=2, am_type=7, payload=b"")

    def send():
        tx.load_tx_fifo(frame)
        tx.strobe_tx()

    _power_up(sim, tx, send)
    sim.run()
    assert rx.frames_received == 0


def test_channel_mismatch_blocks_delivery():
    sim, channel, radios = _radio_pair()
    tx, _ = radios[0]
    rx, _ = radios[1]
    rx.set_channel_number(26)
    tx.set_channel_number(17)
    _power_up(sim, rx, rx.rx_on)
    frame = Frame(src=1, dst=2, am_type=7, payload=b"")

    def send():
        tx.load_tx_fifo(frame)
        tx.strobe_tx()

    _power_up(sim, tx, send)
    sim.run()
    assert rx.frames_received == 0


def test_cca_sees_other_transmission():
    sim, channel, radios = _radio_pair()
    tx, _ = radios[0]
    rx, _ = radios[1]
    results = []
    _power_up(sim, rx, rx.rx_on)
    frame = Frame(src=1, dst=2, am_type=7, payload=b"x" * 50)

    def send():
        tx.load_tx_fifo(frame)
        tx.strobe_tx()

    _power_up(sim, tx, send)
    # Sample CCA mid-flight (TX spans roughly 1.6–3.9 ms).
    sim.at(ms(3), lambda: results.append(rx.cca_clear()))
    sim.run()
    assert results == [False]
    # After the frame, the channel is clear again.
    assert rx.cca_clear() is True


def test_illegal_transitions_raise():
    sim, channel, radios = _radio_pair()
    radio, _ = radios[0]
    with pytest.raises(HardwareError):
        radio.osc_on(lambda: None)  # vreg off
    with pytest.raises(HardwareError):
        radio.rx_on()
    with pytest.raises(HardwareError):
        radio.strobe_tx()
    with pytest.raises(HardwareError):
        radio.cca_clear()
    with pytest.raises(HardwareError):
        radio.read_rx_fifo()
    with pytest.raises(HardwareError):
        radio.set_channel_number(27)


def test_vreg_off_aborts_everything():
    sim, channel, radios = _radio_pair()
    radio, rail = radios[0]
    _power_up(sim, radio, radio.rx_on)
    sim.run()
    radio.vreg_off()
    assert radio.state == "OFF"
    assert rail.current() == pytest.approx(0.0, abs=1e-9)
