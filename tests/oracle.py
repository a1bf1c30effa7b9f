"""The streaming reference for a node's offline analysis.

``QuantoNode.regression``, ``energy_map`` and ``breakdown`` run the
columnar path only.  The functions here answer the same calls through
the streaming reference instead — :class:`TimelineStream` plus
:func:`solve_breakdown` for the regression, :func:`stream_energy_map`
for the map — from the same inputs: a passed timeline snapshot's rows,
device sets and end time, else the live log decoded entry by entry.
They never build a ``ColumnarTimeline``, so the reference reconstructs
independently of the columnar path.

:func:`install` swaps them in for the node's methods, so a whole
experiment runs on the reference, and every map call also runs the
product method and fails on the first differing cell.  ``ANALYZE``
names both map implementations for tests that run one log through each.
"""

from __future__ import annotations

from repro.core.accounting import columnar_energy_map, stream_energy_map
from repro.core.regression import solve_breakdown
from repro.core.timeline import TimelineStream
from repro.tos.node import COMPONENT_NAMES, RES_TIMERB, QuantoNode

#: Both map implementations, called with the same decoded entries:
#: "streaming" is the reference, "columnar" the product path.
ANALYZE = {"streaming": stream_energy_map, "columnar": columnar_energy_map}

#: The product methods, captured before any :func:`install`.
PRODUCT_REGRESSION = QuantoNode.regression
PRODUCT_ENERGY_MAP = QuantoNode.energy_map


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
        end_time_ns=node.sim.now,
        single_res_ids=[d.res_id for d in node._single_devices()],
        multi_res_ids=[RES_TIMERB])


def _solve(node, entries, weighting="sqrt_et", strict=False):
    intervals: list = []
    TimelineStream(on_interval=intervals.append).feed_all(entries)
    return solve_breakdown(
        intervals,
        node.layout(),
        node.platform.icount.nominal_energy_per_pulse_j,
        node.platform.rail.voltage,
        weighting=weighting,
        strict=strict,
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


def regression(node, timeline=None, weighting="sqrt_et", strict=False):
    """:meth:`QuantoNode.regression` on the reference."""
    entries, _ = reference_log(node, timeline)
    return _solve(node, entries, weighting, strict)


def energy_map(node, timeline=None, regression=None, fold_proxies=False):
    """:meth:`QuantoNode.energy_map` on the reference."""
    log = reference_log(node, timeline)
    if regression is None:
        regression = _solve(node, log[0])
    return _map(node, log, regression, fold_proxies)


def breakdown(node, fold_proxies=False, weighting="sqrt_et"):
    """:meth:`QuantoNode.breakdown` on the reference: the log decodes
    once and both consumers replay it."""
    log = reference_log(node)
    reg = _solve(node, log[0], weighting)
    return reg, _map(node, log, reg, fold_proxies)


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
    """Route every node's regression, energy map and breakdown through
    the reference.  Each map call also computes the product map from
    the same arguments and compares it cell by cell."""
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

    def checked_breakdown(node, fold_proxies=False, weighting="sqrt_et"):
        reg, reference = breakdown(node, fold_proxies, weighting)
        assert_same_map(reference, product_map(
            node, None, PRODUCT_REGRESSION(node, weighting=weighting),
            fold_proxies))
        return reg, reference

    monkeypatch.setattr(QuantoNode, "regression", regression)
    monkeypatch.setattr(QuantoNode, "energy_map", checked_map)
    monkeypatch.setattr(QuantoNode, "breakdown", checked_breakdown)
