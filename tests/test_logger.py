"""The Quanto logger: wire format, costs, buffer modes, decoding."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labels import ActivityLabel
from repro.core.logger import (
    COST_TOTAL,
    ENTRY_SIZE,
    ENTRY_STRUCT,
    QuantoLogger,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_POWERSTATE,
    decode_log,
)
from repro.errors import LoggerError
from repro.hw.catalog import default_actual_profile
from repro.hw.mcu import Mcu
from repro.hw.power import PowerRail
from repro.meter.icount import ICountMeter
from repro.sim.engine import Simulator
from repro.units import ma, us


def _stack(buffer_entries=800, **kwargs):
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    load = rail.register("load")
    load.set_current(ma(10))
    mcu = Mcu(sim, rail, default_actual_profile())
    icount = ICountMeter(rail)
    logger = QuantoLogger(mcu, icount, buffer_entries=buffer_entries,
                          **kwargs)
    return sim, mcu, logger


def test_entry_is_exactly_12_bytes():
    assert ENTRY_SIZE == 12
    assert ENTRY_STRUCT.size == 12


def test_record_charges_102_cycles():
    sim, mcu, logger = _stack()
    mcu.post_task(lambda: logger.record(TYPE_POWERSTATE, 1, 1))
    sim.run()
    assert mcu.total_active_cycles == COST_TOTAL
    assert logger.records_written == 1


def test_record_outside_job_rejected():
    sim, mcu, logger = _stack()
    with pytest.raises(Exception):
        logger.record(TYPE_POWERSTATE, 1, 1)


def test_decode_roundtrip_single():
    sim, mcu, logger = _stack()
    mcu.post_task(lambda: logger.record(TYPE_ACT_CHANGE, 3, 0x0102))
    sim.run()
    entries = logger.decode()
    assert len(entries) == 1
    entry = entries[0]
    assert entry.type == TYPE_ACT_CHANGE
    assert entry.res_id == 3
    assert entry.value == 0x0102
    assert entry.label == ActivityLabel(1, 2)
    assert entry.type_name == "act_change"


def test_timestamps_increase_within_one_job():
    sim, mcu, logger = _stack()

    def body():
        logger.record(TYPE_POWERSTATE, 1, 1)
        logger.record(TYPE_POWERSTATE, 2, 1)
        logger.record(TYPE_POWERSTATE, 3, 1)

    mcu.post_task(body)
    sim.run()
    times = [e.time_us for e in logger.decode()]
    assert times == sorted(times)
    assert len(set(times)) == 3  # strictly increasing (102 us apart)
    assert times[1] - times[0] == COST_TOTAL  # 102 cycles = 102 us


def test_overflow_stops_logging():
    sim, mcu, logger = _stack(buffer_entries=3)

    def body():
        for i in range(5):
            logger.record(TYPE_POWERSTATE, 1, i)

    mcu.post_task(body)
    sim.run()
    assert logger.records_written == 3
    assert logger.records_dropped == 2
    assert logger.stopped_on_overflow


def test_disabled_logger_drops():
    sim, mcu, logger = _stack()
    logger.enabled = False
    mcu.post_task(lambda: logger.record(TYPE_POWERSTATE, 1, 1))
    sim.run()
    assert logger.records_written == 0
    assert logger.records_dropped == 1
    assert mcu.total_active_cycles == 0  # no cost when not recording


def test_unknown_mode_rejected():
    sim, mcu, _ = _stack()
    with pytest.raises(LoggerError):
        QuantoLogger(mcu, None, mode="telepathy")


def test_decode_rejects_ragged_input():
    with pytest.raises(LoggerError):
        decode_log(b"\x00" * 13)


def test_time_wrap_unwrapping():
    """u32 microsecond timestamps wrap every ~71.6 minutes; the decoder
    must unwrap them into a monotone timeline."""
    raw = b"".join([
        ENTRY_STRUCT.pack(TYPE_POWERSTATE, 1, 0xFFFF_FFF0, 100, 0),
        ENTRY_STRUCT.pack(TYPE_POWERSTATE, 1, 0x0000_0010, 110, 1),
    ])
    entries = decode_log(raw)
    assert entries[1].time_us - entries[0].time_us == 0x20
    assert entries[1].time_us > entries[0].time_us


def test_icount_wrap_unwrapping():
    raw = b"".join([
        ENTRY_STRUCT.pack(TYPE_POWERSTATE, 1, 100, 0xFFFF_FFFE, 0),
        ENTRY_STRUCT.pack(TYPE_POWERSTATE, 1, 200, 0x0000_0002, 1),
    ])
    entries = decode_log(raw)
    assert entries[1].icount - entries[0].icount == 4


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([TYPE_POWERSTATE, TYPE_ACT_CHANGE, TYPE_ACT_BIND]),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=0xFFFF),
    ),
    min_size=1, max_size=40,
))
def test_decode_roundtrip_property(events):
    """Property: any recorded sequence decodes to the same (type, res_id,
    value) triples, in order, with monotone timestamps."""
    sim, mcu, logger = _stack(buffer_entries=100)

    def body():
        for entry_type, res_id, value in events:
            logger.record(entry_type, res_id, value)

    mcu.post_task(body)
    sim.run()
    entries = logger.decode()
    assert [(e.type, e.res_id, e.value) for e in entries] == events
    times = [e.time_us for e in entries]
    assert times == sorted(times)


def test_boot_snapshot_records_everything():
    from repro.core.activity import SingleActivityDevice
    from repro.core.powerstate import PowerStateTracker

    sim, mcu, logger = _stack()
    tracker = PowerStateTracker()
    tracker.create("CPU", 0).set(1)
    tracker.create("LED0", 1)
    cpu = SingleActivityDevice("CPU", 0)
    mcu.post_task(
        lambda: logger.record_boot_snapshot(tracker, [cpu]))
    sim.run()
    entries = logger.decode()
    assert len(entries) == 3  # two boot powerstates + one activity
    assert entries[0].type_name == "boot"
