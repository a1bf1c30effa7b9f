"""The MCU model: jobs, cycle charging, IRQ priority, sleep/wake."""

import pytest

from repro.errors import HardwareError
from repro.hw.catalog import default_actual_profile
from repro.hw.mcu import Mcu
from repro.hw.power import PowerRail
from repro.sim.engine import Simulator
from repro.units import ma, us


def _mcu():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    mcu = Mcu(sim, rail, default_actual_profile())
    return sim, rail, mcu


def test_job_occupies_declared_cycles():
    sim, rail, mcu = _mcu()
    done_at = []
    mcu.post_task(lambda: mcu.consume(100), label="work")
    mcu.post_task(lambda: done_at.append(sim.now), label="after")
    sim.run()
    # Second job starts when the first one's 100 cycles (100 us) elapse.
    assert done_at == [us(100)]


def test_consume_outside_job_rejected():
    sim, rail, mcu = _mcu()
    with pytest.raises(HardwareError):
        mcu.consume(10)


def test_negative_cycles_rejected():
    sim, rail, mcu = _mcu()

    def bad():
        mcu.consume(-5)

    mcu.post_task(bad)
    with pytest.raises(HardwareError):
        sim.run()


def test_irq_jobs_preempt_queued_tasks():
    sim, rail, mcu = _mcu()
    order = []

    def first():
        mcu.consume(10)
        order.append("task1")
        mcu.post_task(lambda: order.append("task2"))
        mcu.post_irq(lambda: order.append("irq"))

    mcu.post_task(first)
    sim.run()
    assert order == ["task1", "irq", "task2"]


def _cpu_draws(rail):
    """Record the rail's aggregate current at every step (only the CPU
    sink draws here)."""
    draws = []
    rail.add_observer(lambda _t, amps: draws.append(amps))
    profile = default_actual_profile()
    return draws, profile.current("CPU", "ACTIVE"), \
        profile.current("CPU", "LPM3")


def test_cpu_sleeps_when_queue_empties():
    sim, rail, mcu = _mcu()
    draws, active, sleep = _cpu_draws(rail)
    mcu.post_task(lambda: mcu.consume(10))
    sim.run()
    assert draws == [pytest.approx(active), pytest.approx(sleep)]
    assert mcu.jobs_pending() == 0


def test_ground_truth_current_follows_activity():
    sim, rail, mcu = _mcu()
    profile = default_actual_profile()
    active = profile.current("CPU", "ACTIVE")
    mcu.post_task(lambda: mcu.consume(1000))
    # Before run: job queued, CPU woke immediately.
    assert rail.current() == pytest.approx(active)
    sim.run()
    assert rail.current() == pytest.approx(profile.current("CPU", "LPM3"))


def test_virtual_now_advances_with_consumption():
    sim, rail, mcu = _mcu()
    samples = []

    def work():
        samples.append(mcu.virtual_now())
        mcu.consume(50)
        samples.append(mcu.virtual_now())
        mcu.consume(25)
        samples.append(mcu.virtual_now())

    mcu.post_task(work)
    sim.run()
    assert samples == [0, us(50), us(75)]


def test_virtual_now_outside_job_is_sim_now():
    sim, rail, mcu = _mcu()
    sim.at(us(500), lambda: None)
    sim.run()
    assert mcu.virtual_now() == sim.now


def test_total_active_cycles_accumulates():
    sim, rail, mcu = _mcu()
    mcu.post_task(lambda: mcu.consume(100))
    mcu.post_task(lambda: mcu.consume(200))
    sim.run()
    assert mcu.total_active_cycles == 300
    assert mcu.total_active_time_ns == us(300)
    assert mcu.jobs_executed == 2


def test_wake_from_interrupt_while_sleeping():
    sim, rail, mcu = _mcu()
    draws, active, sleep = _cpu_draws(rail)
    mcu.post_task(lambda: mcu.consume(10))
    sim.run()
    assert draws[-1] == pytest.approx(sleep)
    sim.at(sim.now + us(100), mcu.post_irq, lambda: mcu.consume(5))
    sim.run()
    assert draws[-2:] == [pytest.approx(active), pytest.approx(sleep)]


def test_jobs_pending_counts_queued():
    sim, rail, mcu = _mcu()
    observed = []

    def work():
        mcu.post_task(lambda: None)
        mcu.post_task(lambda: None)
        observed.append(mcu.jobs_pending())

    mcu.post_task(work)
    sim.run()
    assert observed == [2]


def test_invalid_sleep_state_rejected():
    sim = Simulator()
    rail = PowerRail(sim)
    with pytest.raises(HardwareError):
        Mcu(sim, rail, default_actual_profile(), sleep_state="NAP")
