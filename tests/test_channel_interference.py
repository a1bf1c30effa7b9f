"""The radio channel and the 802.11 interference process."""

import pytest

from repro.errors import NetworkError
from repro.net.channel import RadioChannel, channel_center_mhz, overlap_factor
from repro.net.interference import Wifi80211Interferer
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.units import seconds


def test_channel_centers():
    assert channel_center_mhz(11) == 2405.0
    assert channel_center_mhz(26) == 2480.0
    assert channel_center_mhz(17) == 2453.0  # the paper's stated center
    with pytest.raises(NetworkError):
        channel_center_mhz(10)


def test_overlap_factor_geometry():
    # 802.11 ch 6 at 2437 MHz, 22 MHz wide.
    assert overlap_factor(2437.0, 22.0, 17) > 0.4  # 16 MHz away: in skirt
    assert overlap_factor(2437.0, 22.0, 26) == 0.0  # 43 MHz away: clean
    # Directly on top: full overlap (ch 13 center 2415... pick within).
    assert overlap_factor(2480.0, 22.0, 26) == 1.0


def test_interferer_duty_fraction():
    """The busy fraction of the tuned process lands in the regime that
    produces the paper's false-positive rate (~4-8 % busy)."""
    sim = Simulator()
    interferer = Wifi80211Interferer(
        sim, RngFactory(0).stream("wifi"))
    interferer.start()
    busy_ns = 0
    step = 100_000  # 0.1 ms
    t = 0
    while t < seconds(30):
        t += step
        sim.run(until=t)
        if interferer.active():
            busy_ns += step
    fraction = busy_ns / seconds(30)
    assert 0.03 < fraction < 0.10
    assert interferer.burst_count > 100


def test_interferer_overlap_by_channel():
    sim = Simulator()
    interferer = Wifi80211Interferer(
        sim, RngFactory(0).stream("wifi"))
    assert interferer.overlap(17) > 0.1
    assert interferer.overlap(26) == 0.0


def test_interferer_stop():
    sim = Simulator()
    interferer = Wifi80211Interferer(
        sim, RngFactory(0).stream("wifi"))
    interferer.start()
    sim.run(until=seconds(1))
    interferer.stop()
    assert not interferer.active()


def test_channel_duplicate_node_rejected():
    sim = Simulator()
    channel = RadioChannel(sim)

    class FakeRadio:
        node_id = 1
        freq_channel = 26

    channel.register(FakeRadio())
    with pytest.raises(NetworkError):
        channel.register(FakeRadio())


def test_link_loss_validation():
    channel = RadioChannel(Simulator())
    with pytest.raises(NetworkError):
        channel.set_link_loss(1, 2, 1.5)


def test_energy_detected_from_interferer_only_on_overlapping_channel():
    sim = Simulator()
    channel = RadioChannel(sim)

    class FakeInterferer:
        def active(self):
            return True

        def overlap(self, ch):
            return 1.0 if ch == 17 else 0.0

    class FakeRadio:
        def __init__(self, node_id, freq):
            self.node_id = node_id
            self.freq_channel = freq

    channel.add_interferer(FakeInterferer())
    r17 = FakeRadio(1, 17)
    r26 = FakeRadio(2, 26)
    channel.register(r17)
    channel.register(r26)
    assert channel.energy_detected(r17) is True
    assert channel.energy_detected(r26) is False
