"""Single/MultiActivityDevice semantics."""

from repro.core.activity import MultiActivityDevice, SingleActivityDevice
from repro.core.labels import ActivityLabel, idle_label


RED = ActivityLabel(1, 1)
BLUE = ActivityLabel(1, 2)
REMOTE = ActivityLabel(4, 1)


def test_single_set_and_get():
    device = SingleActivityDevice("CPU", 0)
    assert device.get() == idle_label()
    device.set(RED)
    assert device.get() == RED


def test_single_idempotent_set_no_notify():
    device = SingleActivityDevice("CPU", 0)
    events = []
    device.add_tracker(lambda d, label, bound: events.append((label, bound)))
    device.set(RED)
    device.set(RED)
    assert events == [(RED, False)]
    assert device.change_count == 1


def test_single_bind_always_notifies():
    device = SingleActivityDevice("CPU", 0)
    events = []
    device.add_tracker(lambda d, label, bound: events.append((label, bound)))
    device.set(RED)
    device.bind(REMOTE)
    assert events == [(RED, False), (REMOTE, True)]
    assert device.get() == REMOTE
    assert device.bind_count == 1


def test_single_multiple_trackers_all_fire():
    device = SingleActivityDevice("CPU", 0)
    a, b = [], []
    device.add_tracker(lambda d, label, bound: a.append(label))
    device.add_tracker(lambda d, label, bound: b.append(label))
    device.set(BLUE)
    assert a == [BLUE] and b == [BLUE]


def tracked_set(device):
    """The device's activity set as its trackers see it."""
    current = set()
    device.add_tracker(lambda d, label, added: (
        current.add if added else current.discard)(label))
    return current


def test_multi_add_remove():
    device = MultiActivityDevice("TimerB", 9)
    current = tracked_set(device)
    assert device.add(RED) is True
    assert device.add(RED) is False  # already present
    assert current == {RED}
    assert device.add(BLUE) is True
    assert current == {RED, BLUE}
    assert device.remove(RED) is True
    assert device.remove(RED) is False
    assert current == {BLUE}


def test_multi_tracker_events():
    device = MultiActivityDevice("TimerB", 9)
    events = []
    device.add_tracker(lambda d, label, added: events.append((label, added)))
    device.add(RED)
    device.add(RED)  # no event
    device.remove(RED)
    assert events == [(RED, True), (RED, False)]
