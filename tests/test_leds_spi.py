"""LED bank and SPI bus hardware models."""

import pytest

from repro.errors import HardwareError
from repro.hw.catalog import default_actual_profile
from repro.hw.leds import LedBank
from repro.hw.power import PowerRail
from repro.hw.spi import BYTE_TIME_NS, DMA_SETUP_NS, SpiBus
from repro.sim.engine import Simulator
from repro.units import ma


def _bank():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    bank = LedBank(rail, default_actual_profile())
    return sim, rail, bank


def test_led_draws_actual_current_when_on():
    sim, rail, bank = _bank()
    bank.led(0).on()
    assert rail.current() == pytest.approx(ma(2.50))
    bank.led(0).off()
    assert rail.current() == 0.0


def test_led_toggle_counts():
    sim, rail, bank = _bank()
    led = bank.led(1)
    led.on()
    led.off()
    led.on()
    assert led.toggle_count == 3


def test_led_on_is_idempotent():
    sim, rail, bank = _bank()
    led = bank.led(2)
    led.on()
    led.on()
    assert led.toggle_count == 1
    led.off()
    led.off()
    assert led.toggle_count == 2
    assert rail.current() == 0.0


def test_led_index_bounds():
    sim, rail, bank = _bank()
    with pytest.raises(HardwareError):
        bank.led(3)


# -- SPI ----------------------------------------------------------------


def test_pair_shift_timing():
    sim = Simulator()
    spi = SpiBus(sim)
    done = []
    spi.shift_pair(10, lambda: done.append(sim.now))
    sim.run()
    assert done == [2 * BYTE_TIME_NS]
    assert spi.busy  # held until end_transfer
    spi.end_transfer()
    assert not spi.busy


def test_single_byte_pair():
    sim = Simulator()
    spi = SpiBus(sim)
    done = []
    spi.shift_pair(1, lambda: done.append(sim.now))
    sim.run()
    assert done == [BYTE_TIME_NS]


def test_dma_transfer_timing_and_release():
    sim = Simulator()
    spi = SpiBus(sim)
    done = []
    spi.dma_transfer(40, lambda: done.append(sim.now))
    assert spi.busy
    sim.run()
    assert done == [DMA_SETUP_NS + 40 * BYTE_TIME_NS]
    assert not spi.busy
    assert spi.dma_transfers == 1


def test_bus_contention_rejected():
    sim = Simulator()
    spi = SpiBus(sim)
    spi.dma_transfer(10, lambda: None)
    with pytest.raises(HardwareError):
        spi.dma_transfer(10, lambda: None)


def test_zero_length_transfers_rejected():
    sim = Simulator()
    spi = SpiBus(sim)
    with pytest.raises(HardwareError):
        spi.shift_pair(0, lambda: None)
    with pytest.raises(HardwareError):
        spi.dma_transfer(0, lambda: None)
