"""Boundary-exact analysis windows through the tail re-cover.

``EnergyAccumulator`` flips into tail mode when intervals outrun the
analysis window (``end_time_ns``): covers defer and replay at finish
from the retained segment deques.  The delicate inputs are windows
whose end lands *exactly* on a segment or interval boundary, exactly on
the final entry, or past everything the log contains.  For each such
end of the Blink log the harness's columnar fold
(``tests/differential.py``) must equal the streaming reference
bit for bit — the same contract the golden digests pin for the default
window, enforced here for the adversarial ones, in both proxy-fold
modes.  Generated logs end on such edges in the differential harness's
own runs too.
"""

import dataclasses

import pytest

import differential
from differential import check_columnar_maps, node_case
from repro.units import seconds


@pytest.fixture(scope="module")
def blink():
    return node_case("blink", differential.blink_node())


def ended_at(case, end_time_ns):
    return dataclasses.replace(case, name=f"{case.name} to {end_time_ns}",
                               end_time_ns=end_time_ns)


def boundary_ends(timeline):
    """Every boundary a window end could land on exactly: segment
    edges, interval edges, the last entry, and points past the log."""
    ends = set()
    for res_id in timeline.single_device_ids():
        for segment in timeline.activity_segments(res_id):
            ends.add(segment.t0_ns)
            ends.add(segment.t1_ns)
    for res_id in timeline.multi_device_ids():
        spans = timeline._multis.get(res_id)
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
    ends = boundary_ends(blink.timeline())
    assert len(ends) > 50  # the probe is only meaningful with coverage
    for end in ends:
        case = ended_at(blink, end)
        check_columnar_maps(case, case.timeline(), (fold,))


def test_window_past_the_log_matches_last_entry_extension(blink):
    """A window end past every record: the open spans extend to it, the
    deferred tail replay covers it, and both backends still agree (the
    map keeps growing only in time, not in metered pulses)."""
    last_entry_ns = int(blink.columns.time_ns[-1])
    far = ended_at(blink, last_entry_ns + int(seconds(30)))
    check_columnar_maps(far, far.timeline(), (False,))
    at_end = ended_at(blink, last_entry_ns).oracle_map(False)
    assert far.oracle_map(False).metered_energy_j == at_end.metered_energy_j
    assert far.oracle_map(False).span_ns >= at_end.span_ns
