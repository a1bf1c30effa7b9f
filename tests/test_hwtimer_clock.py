"""Hardware timer compare units and the DCO-calibration clock leak."""

import pytest

from repro.errors import HardwareError
from repro.hw.clock import ClockSystem, DCO_CALIBRATION_HZ
from repro.hw.hwtimer import TimerBlock
from repro.sim.engine import Simulator
from repro.units import ms, seconds


def test_compare_fires_at_absolute_time():
    sim = Simulator()
    block = TimerBlock(sim, "TIMERB", 7)
    fired = []
    unit = block.unit(0)
    unit.set_handler(lambda: fired.append(sim.now))
    unit.arm(ms(5))
    sim.run()
    assert fired == [ms(5)]
    assert unit.fire_count == 1


def test_rearm_replaces_previous():
    sim = Simulator()
    unit = TimerBlock(sim, "TIMERB", 7).unit(0)
    fired = []
    unit.set_handler(lambda: fired.append(sim.now))
    unit.arm(ms(5))
    unit.arm(ms(10))
    sim.run()
    assert fired == [ms(10)]


def test_disarm_cancels():
    sim = Simulator()
    unit = TimerBlock(sim, "TIMERB", 7).unit(0)
    unit.set_handler(lambda: pytest.fail("should not fire"))
    unit.arm(ms(5))
    unit.disarm()
    sim.run()


def test_arm_without_handler_rejected():
    sim = Simulator()
    unit = TimerBlock(sim, "TIMERB", 7).unit(0)
    with pytest.raises(HardwareError):
        unit.arm(ms(1))


def test_arm_in_the_past_rejected():
    sim = Simulator()
    unit = TimerBlock(sim, "TIMERB", 7).unit(0)
    unit.set_handler(lambda: None)
    sim.at(ms(10), lambda: None)
    sim.run()
    with pytest.raises(HardwareError):
        unit.arm(ms(5))


def test_unit_index_bounds():
    sim = Simulator()
    block = TimerBlock(sim, "TIMERA", 3)
    with pytest.raises(HardwareError):
        block.unit(3)


def test_dco_calibration_fires_at_16_hz():
    sim = Simulator()
    timer_a = TimerBlock(sim, "TIMERA", 3)
    clock = ClockSystem(sim, timer_a, dco_calibration=True)
    fires = []
    clock.start(lambda: fires.append(sim.now))
    sim.run(until=seconds(2))
    assert clock.calibration_count == 2 * DCO_CALIBRATION_HZ
    assert len(fires) == 32


def test_dco_calibration_disabled_never_fires():
    sim = Simulator()
    timer_a = TimerBlock(sim, "TIMERA", 3)
    clock = ClockSystem(sim, timer_a, dco_calibration=False)
    clock.start(lambda: pytest.fail("leak should be off"))
    sim.run(until=seconds(2))
    assert clock.calibration_count == 0
