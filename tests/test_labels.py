"""Activity labels: encoding, registry, proxies."""

import pytest
from hypothesis import given, strategies as st

from repro.core.labels import (
    IDLE_ID,
    PROXY_BASE,
    PROXY_IDS,
    QUANTO_ID,
    ActivityLabel,
    ActivityRegistry,
    idle_label,
)
from repro.core.activity import ProxyActivitySet
from repro.errors import ActivityError


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_encode_decode_roundtrip(origin, aid):
    label = ActivityLabel(origin, aid)
    assert ActivityLabel.decode(label.encode()) == label
    assert 0 <= label.encode() <= 0xFFFF


def test_encoding_layout():
    assert ActivityLabel(1, 2).encode() == 0x0102
    assert ActivityLabel.decode(0x0401) == ActivityLabel(4, 1)


def test_out_of_range_rejected():
    with pytest.raises(ActivityError):
        ActivityLabel(256, 0)
    with pytest.raises(ActivityError):
        ActivityLabel(0, 300)
    with pytest.raises(ActivityError):
        ActivityLabel.decode(1 << 16)


def test_idle_and_proxy_predicates():
    assert not idle_label(3).is_proxy
    proxy = ActivityLabel(1, PROXY_IDS["pxy_RX"])
    assert proxy.is_proxy
    quanto = ActivityLabel(1, QUANTO_ID)
    assert not quanto.is_proxy  # Quanto's own activity is not a proxy


def test_str_rendering():
    assert str(ActivityLabel(4, 7)) == "4:7"


def test_registry_registers_and_renders():
    registry = ActivityRegistry()
    aid = registry.register("Red")
    label = ActivityLabel(1, aid)
    assert registry.name_of(label) == "1:Red"
    # Re-registration returns the same id.
    assert registry.register("Red") == aid


def test_registry_well_known_names():
    registry = ActivityRegistry()
    assert registry.name_of(idle_label(1)) == "1:Idle"
    assert registry.name_of(
        ActivityLabel(1, PROXY_IDS["int_TIMERB0"])) == "1:int_TIMERB0"
    assert registry.name_of(ActivityLabel(1, QUANTO_ID)) == "1:Quanto"


def test_registry_label_helper():
    registry = ActivityRegistry()
    label = registry.label(4, "BounceApp")
    assert registry.name_of(label) == "4:BounceApp"
    # Same name from a different origin: same id, different origin.
    other = registry.label(1, "BounceApp")
    assert other.aid == label.aid
    assert other.origin == 1


def test_registry_reserved_range_protected():
    registry = ActivityRegistry()
    ids = []
    with pytest.raises(ActivityError):
        for i in range(PROXY_BASE):
            ids.append(registry.register(f"act{i}"))
    # Every id handed out is an application id: none reaches the proxy
    # range or reuses Idle's.
    assert ids and all(IDLE_ID < aid < PROXY_BASE for aid in ids)


def test_registry_auto_ids_unique():
    registry = ActivityRegistry()
    ids = [registry.register(f"act{i}") for i in range(30)]
    assert len(set(ids)) == 30
    assert all(0 < i < PROXY_BASE for i in ids)


def test_proxy_set_per_node():
    proxies = ProxyActivitySet(7, PROXY_IDS)
    label = proxies.label("pxy_RX")
    assert label.origin == 7
    assert label.aid == PROXY_IDS["pxy_RX"]
    for name, aid in PROXY_IDS.items():
        assert proxies.label(name) == ActivityLabel(origin=7, aid=aid)
    with pytest.raises(ActivityError):
        proxies.label("int_BOGUS")
    with pytest.raises(ActivityError):
        ProxyActivitySet(300, PROXY_IDS)
