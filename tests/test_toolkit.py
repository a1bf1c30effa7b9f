"""The offline log toolkit: dump and validation."""

import pytest

from repro.core.logger import ENTRY_STRUCT, decode_log
from repro.toolkit.logdump import dump_log
from repro.toolkit.validate import validate_log
from repro.tos.node import COMPONENT_NAMES


def test_dump_log_renders_names(blink_run):
    sim, node, app = blink_run
    text = dump_log(node.entries(), node.registry, COMPONENT_NAMES,
                    limit=50)
    assert "powerstate" in text
    assert "1:Red" in text
    assert "LED0" in text
    assert "more entries" in text


def test_dump_log_without_registry():
    raw = ENTRY_STRUCT.pack(2, 0, 100, 5, 0x0101)
    text = dump_log(decode_log(raw))
    assert "1:1" in text  # raw label rendering


def test_validate_clean_blink_log(blink_run):
    sim, node, app = blink_run
    issues = validate_log(node.entries())
    errors = [i for i in issues if i.severity == "error"]
    assert errors == []
    # Blink's timer proxy is always implicitly unbound (set, not bind),
    # so an info-level unbound-proxy finding is expected and correct.
    assert any(i.code == "unbound-proxy" for i in issues)


def test_validate_empty_log():
    issues = validate_log([])
    assert issues[0].code == "empty-log"
    assert "empty-log" in str(issues[0])


def test_validate_flags_missing_boot():
    raw = ENTRY_STRUCT.pack(1, 3, 100, 5, 1)  # powerstate with no boot
    issues = validate_log(decode_log(raw))
    assert any(i.code == "no-boot-snapshot" for i in issues)


def test_validate_flags_redundant_powerstate():
    raw = b"".join([
        ENTRY_STRUCT.pack(6, 3, 0, 0, 0),    # boot
        ENTRY_STRUCT.pack(1, 3, 100, 5, 1),
        ENTRY_STRUCT.pack(1, 3, 200, 9, 1),  # same value again
    ])
    issues = validate_log(decode_log(raw))
    assert any(i.code == "redundant-powerstate" for i in issues)


def test_validate_bound_proxy_not_flagged():
    proxy = 0x01C8  # node 1, first proxy id
    real = 0x0101
    raw = b"".join([
        ENTRY_STRUCT.pack(2, 0, 0, 0, proxy),   # act_change to proxy
        ENTRY_STRUCT.pack(3, 0, 100, 2, real),  # act_bind to real
    ])
    issues = validate_log(decode_log(raw))
    assert not any(i.code == "unbound-proxy" for i in issues)


def test_validate_lpl_false_positives_visible():
    """On the interference run, the unbound pxy_RX shows up as the
    expected info finding — the false-positive energy signature."""
    from repro.experiments.fig13 import run_channel

    result = run_channel(17, seed=0)
    node = result["node"]
    issues = validate_log(node.entries())
    unbound = [i for i in issues if i.code == "unbound-proxy"]
    assert any("pxy" in i.message or "200" in i.message for i in unbound) \
        or unbound  # the proxy label renders as origin:id
