"""The streaming reference for a node's offline analysis.

``QuantoNode.regression``, ``energy_map`` and ``breakdown`` run the
columnar path only.  The functions here answer the same calls through
the streaming reference instead — :class:`TimelineStream` plus
:func:`solve_breakdown` for the regression, :func:`stream_energy_map`
for the map — from the same inputs: a passed timeline snapshot's rows,
device sets and end time, else the live log decoded entry by entry.
These never build a ``ColumnarTimeline``, so the reference
reconstructs independently of the columnar path.

:func:`install` swaps them in for the node's methods, so a whole
experiment runs on the reference, and every map call also runs the
product method and fails on the first differing cell.

:func:`recorded_maps` captures every map the node layer builds, and
:func:`maps_digest` hashes their exact bits, so a golden digest pins
the maps themselves, not only their rendered (rounded) figures.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import repro.tos.node as node_module
from repro.core.accounting import stream_energy_map
from repro.core.regression import solve_breakdown
from repro.core.timeline import TimelineStream
from repro.tos.node import COMPONENT_NAMES, NodeBreakdown, QuantoNode


#: The product methods, captured before any :func:`install`.
PRODUCT_REGRESSION = QuantoNode.regression
PRODUCT_ENERGY_MAP = QuantoNode.energy_map
PRODUCT_BREAKDOWN_ALL = QuantoNode.breakdown_all


def reference_log(node, timeline=None) -> tuple[list, dict]:
    """``(entries, stream kwargs)`` of the passed snapshot, else of the
    live log, closed the way :meth:`QuantoNode.timeline` closes it."""
    if timeline is not None:
        return timeline.entries, dict(
            end_time_ns=timeline.end_time_ns,
            single_res_ids=timeline.single_device_ids(),
            multi_res_ids=timeline.multi_device_ids())
    if node._booted:
        node.mark_log_end()
    return node.entries(), dict(
        end_time_ns=node.sim.now, single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids)


def _solve(node, entries):
    intervals: list = []
    TimelineStream(on_interval=intervals.append).feed_all(entries)
    return solve_breakdown(
        intervals,
        node.layout(),
        node.platform.icount.nominal_energy_per_pulse_j,
        node.platform.rail.voltage,
    )


def _map(node, log, regression, fold_proxies):
    entries, stream_kwargs = log
    return stream_energy_map(
        entries, regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        fold_proxies=fold_proxies,
        idle_name=node.registry.name_of(node.idle),
        **stream_kwargs,
    )


def regression(node, timeline=None):
    """:meth:`QuantoNode.regression` on the reference."""
    entries, _ = reference_log(node, timeline)
    return _solve(node, entries)


def energy_map(node, timeline=None, regression=None, fold_proxies=False):
    """:meth:`QuantoNode.energy_map` on the reference."""
    log = reference_log(node, timeline)
    if regression is None:
        regression = _solve(node, log[0])
    return _map(node, log, regression, fold_proxies)


def breakdown(node):
    """:meth:`QuantoNode.breakdown` on the reference: the log decodes
    once and both consumers replay it."""
    log = reference_log(node)
    reg = _solve(node, log[0])
    return reg, _map(node, log, reg, fold_proxies=False)


def breakdown_all(nodes):
    """:meth:`QuantoNode.breakdown_all` on the reference, checked: the
    product call closes and snapshots each node's log, then the
    reference analyses each snapshot on its own (its rows, device sets
    and end time) and every product map must match its node's reference
    map cell by cell."""
    answers = []
    for node, product in zip(nodes, PRODUCT_BREAKDOWN_ALL(nodes)):
        log = reference_log(node, product.timeline)
        reg = _solve(node, log[0])
        reference = _map(node, log, reg, fold_proxies=True)
        assert_same_map(reference, product.energy_map)
        answers.append(NodeBreakdown(product.timeline, reg, reference))
    return answers


def assert_same_map(reference, product) -> None:
    """Bit-identity of two maps, float bits and dict order; a failure
    names the first differing ``(component, activity)`` cell with both
    values as ``float.hex``."""
    def show(value):
        return "absent" if value is None else float.hex(value)

    for key in dict.fromkeys([*reference.energy_j, *product.energy_j]):
        ref, got = reference.energy_j.get(key), product.energy_j.get(key)
        if show(ref) != show(got):
            raise AssertionError(
                f"energy cell {key}: reference {show(ref)} "
                f"!= product {show(got)}")
    assert list(reference.energy_j) == list(product.energy_j), \
        "energy cells in a different order"
    for key in dict.fromkeys([*reference.time_ns, *product.time_ns]):
        ref, got = reference.time_ns.get(key), product.time_ns.get(key)
        assert ref == got, f"time cell {key}: reference {ref} != product {got}"
    assert list(reference.time_ns) == list(product.time_ns), \
        "time cells in a different order"
    for name in ("metered_energy_j", "reconstructed_energy_j"):
        ref, got = getattr(reference, name), getattr(product, name)
        assert show(ref) == show(got), \
            f"{name}: reference {show(ref)} != product {show(got)}"
    assert reference.span_ns == product.span_ns


def install(monkeypatch) -> None:
    """Route every node's regression, energy map and breakdown, and the
    fused :meth:`QuantoNode.breakdown_all`, through the reference.  Each
    map call also computes the product map from the same arguments (the
    same snapshots) and compares it cell by cell."""
    def product_map(node, timeline, reg, fold_proxies):
        if reg is None:
            reg = PRODUCT_REGRESSION(node, timeline)
        return PRODUCT_ENERGY_MAP(node, timeline, reg, fold_proxies)

    def checked_map(node, timeline=None, regression=None,
                    fold_proxies=False):
        reference = energy_map(node, timeline, regression, fold_proxies)
        assert_same_map(reference, product_map(
            node, timeline, regression, fold_proxies))
        return reference

    def checked_breakdown(node):
        reg, reference = breakdown(node)
        assert_same_map(reference, product_map(
            node, None, PRODUCT_REGRESSION(node), False))
        return reg, reference

    monkeypatch.setattr(QuantoNode, "regression", regression)
    monkeypatch.setattr(QuantoNode, "energy_map", checked_map)
    monkeypatch.setattr(QuantoNode, "breakdown", checked_breakdown)
    monkeypatch.setattr(QuantoNode, "breakdown_all",
                        staticmethod(breakdown_all))


@contextmanager
def recorded_maps():
    """Collect every map the node layer's ``columnar_energy_map`` builds
    while active, in build order (a fused call's maps in node order)."""
    maps: list = []
    product = node_module.columnar_energy_map

    def recording(*args, **kwargs):
        result = product(*args, **kwargs)
        maps.extend(result)
        return result

    node_module.columnar_energy_map = recording
    try:
        yield maps
    finally:
        node_module.columnar_energy_map = product


def maps_digest(maps) -> str:
    """sha256 of a canonical dump of ``maps``: every energy cell as
    ``float.hex`` and every time cell, in dict order, then the metered
    and reconstructed totals and the span — a last-bit change anywhere
    changes it."""
    lines = []
    for index, emap in enumerate(maps):
        lines.append(f"map {index}")
        lines.extend(f"E {key!r} {float.hex(value)}"
                     for key, value in emap.energy_j.items())
        lines.extend(f"T {key!r} {value}"
                     for key, value in emap.time_ns.items())
        lines.append(f"metered {float.hex(emap.metered_energy_j)}")
        lines.append(
            f"reconstructed {float.hex(emap.reconstructed_energy_j)}")
        lines.append(f"span {emap.span_ns}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
