"""Boundary-exact analysis windows through the tail re-cover.

``EnergyAccumulator`` flips into tail mode when intervals outrun the
analysis window (``end_time_ns``): covers defer and replay at finish
from the retained segment deques.  The delicate inputs are windows
whose end lands *exactly* on a segment or interval boundary, exactly on
the final entry, or past everything the log contains.  For each such
end the streaming and columnar backends must agree bit-for-bit — the
same contract the golden digests pin for the default window, enforced
here for the adversarial ones, in both proxy-fold modes.
"""

import pytest

from oracle import ANALYZE
from repro.core.logger import iter_entries
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES
from repro.units import seconds


@pytest.fixture(scope="module")
def blink():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    return node, timeline, node.regression(timeline), \
        bytes(node.logger.raw_bytes())


def map_at(node, regression, raw, end_time_ns, fold, backend):
    return ANALYZE[backend](
        iter_entries(raw), regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        fold_proxies=fold,
        idle_name=node.registry.name_of(node.idle),
        end_time_ns=end_time_ns,
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids,
    )


def boundary_ends(timeline):
    """Every boundary a window end could land on exactly: segment
    edges, interval edges, the last entry, and points past the log."""
    ends = set()
    for res_id in timeline.single_device_ids():
        for segment in timeline.activity_segments(res_id):
            ends.add(segment.t0_ns)
            ends.add(segment.t1_ns)
    for res_id in timeline.multi_device_ids():
        spans = timeline.multi_columns(res_id)
        ends.update(spans.t0.tolist())
        ends.update(spans.t1.tolist())
    for interval in timeline.power_intervals():
        ends.add(interval.t1_ns)
    last_entry_ns = int(timeline.columns.time_ns[-1])
    ends |= {last_entry_ns, last_entry_ns + 1,
             last_entry_ns + int(seconds(1))}
    return sorted(end for end in ends if end > 0)


@pytest.mark.parametrize("fold", [False, True])
def test_backends_agree_at_every_boundary_end(blink, fold):
    node, timeline, regression, raw = blink
    ends = boundary_ends(timeline)
    assert len(ends) > 50  # the probe is only meaningful with coverage
    for end in ends:
        streaming = map_at(node, regression, raw, end, fold, "streaming")
        columnar = map_at(node, regression, raw, end, fold, "columnar")
        context = f"end={end} fold={fold}"
        assert list(streaming.energy_j) == list(columnar.energy_j), context
        assert streaming.energy_j == columnar.energy_j, context
        assert streaming.time_ns == columnar.time_ns, context
        assert streaming.metered_energy_j == \
            columnar.metered_energy_j, context
        assert streaming.reconstructed_energy_j == \
            columnar.reconstructed_energy_j, context
        assert streaming.span_ns == columnar.span_ns, context


def test_window_past_the_log_matches_last_entry_extension(blink):
    """A window end past every record: the open spans extend to it, the
    deferred tail replay covers it, and both backends still agree (the
    map keeps growing only in time, not in metered pulses)."""
    node, timeline, regression, raw = blink
    last_entry_ns = int(timeline.columns.time_ns[-1])
    far = last_entry_ns + int(seconds(30))
    streaming = map_at(node, regression, raw, far, False, "streaming")
    columnar = map_at(node, regression, raw, far, False, "columnar")
    assert streaming.energy_j == columnar.energy_j
    assert streaming.span_ns == columnar.span_ns
    at_end = map_at(node, regression, raw, last_entry_ns, False,
                    "streaming")
    assert streaming.metered_energy_j == at_end.metered_energy_j
    assert streaming.span_ns >= at_end.span_ns
