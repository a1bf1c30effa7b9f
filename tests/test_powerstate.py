"""PowerState / PowerStateTrack interfaces."""

import pytest

from repro.core.powerstate import PowerStateTracker, PowerStateVar
from repro.errors import PowerModelError


def test_set_and_names():
    var = PowerStateVar("Radio", 4, {0: "OFF", 3: "RX"}, baseline_value=0)
    assert var.value == 0
    assert var.state_name() == "OFF"
    var.set(3)
    assert var.state_name() == "RX"
    var.set(99)
    assert var.state_name() == "state99"


def test_idempotent_set_no_notification():
    var = PowerStateVar("LED0", 1)
    events = []
    var.add_tracker(lambda v, value: events.append(value))
    var.set(1)
    var.set(1)
    var.set(0)
    assert events == [1, 0]
    assert var.change_count == 2


def test_value_range_enforced():
    var = PowerStateVar("X", 5)
    with pytest.raises(PowerModelError):
        var.set(1 << 16)


def test_tracker_creates_and_fans_out():
    tracker = PowerStateTracker()
    led = tracker.create("LED0", 1)
    radio = tracker.create("Radio", 4, {0: "OFF", 3: "RX"})
    seen = []
    tracker.add_listener(lambda var, value: seen.append((var.name, value)))
    led.set(1)
    radio.set(3)
    assert seen == [("LED0", 1), ("Radio", 3)]


def test_tracker_duplicate_res_id_rejected():
    tracker = PowerStateTracker()
    tracker.create("A", 1)
    with pytest.raises(PowerModelError):
        tracker.create("B", 1)


def test_tracker_lookup_and_ordering():
    tracker = PowerStateTracker()
    tracker.create("B", 2)
    tracker.create("A", 1)
    assert [v.name for v in tracker.all_vars()] == ["A", "B"]
