"""Every equivalent analysis path gives the same ``EnergyMap`` bits.

The harness (``tests/differential.py``) feeds each log through the
streaming reference, the whole-log columnar fold in both proxy modes,
the K-log fused fold (logs grouped by registry names), the live fold
(wire decoder at byte splits into a windowed accumulator, at several
batch sizes) and checkpoint/restore of an ingest session, and requires the reference's map bit for bit, the
one-row-batch window sequence for every split, and the last window's
cumulative sums to be the final map.  The logs are the seeded
adversarial ones (:data:`SEEDS`) and the real blink, bounce and
collection node logs.  A failure names the seed or log, the path and
the first differing cell.  The per-subject test files run the same
checks on logs, cuts and knobs of their own: ``test_columnar``
(decode, reconstruction, maps), ``test_fused_analysis`` (fused groups,
random splits), ``test_streaming`` and ``test_tail_boundaries`` (real
logs, boundary-exact ends), ``test_windowed`` (strides),
``test_wire_decoder`` (decoder splits and restores) and
``test_window_goldens`` (chunk sizes and checkpoint cadence).

The coverage table asserts that every adversarial feature the harness
is for occurred at least once, so an edit to the generator cannot drop
one silently; the knob table asserts that each windowed option changes
something observable.
"""

import inspect
from dataclasses import replace

import pytest

import differential
from differential import (
    adversarial_log,
    check_checkpoint,
    check_columnar,
    check_fused,
    check_windowed,
    log_features,
    node_case,
    plan_features,
)
from repro.core.accounting import WindowedAccumulator, columnar_energy_map
from repro.core.labels import ActivityRegistry
from repro.tos.node import fusable_groups
from repro.units import ms, seconds

#: The generated logs every path runs on.
SEEDS = range(40)

#: Fused-group sizes, taken in turn.
GROUP_SIZES = (2, 3, 5)

#: Every feature the generator and the feeding plans must reach.
LOG_FEATURES = {
    "time wraps alone", "iCount wraps alone", "time and iCount wrap",
    "same-time power records (merged interval edge)",
    "same-time changes (zero-length segment)",
    "self-bind", "out-and-back bind", "same-time binds",
    "bind chain of 3 or more",
    "multi add and remove", "single device turns multi",
    "no activity rows",
    "end before last entry", "end at last entry", "end past last entry",
    "end on a segment edge", "end on an interval edge",
    "declared device never named",
    "declared device named only after it drew power",
    "devices sharing a component name",
}
PLAN_FEATURES = {
    "wrap exactly at a split point", "wrap inside a chunk",
    "split mid-entry",
    "fold batches of one row", "fold batches of a few rows",
    "fold batches of the default size",
    "retain all windows", "retain a few windows",
    "default origin", "origin before the first record",
    "checkpoint at the start", "checkpoint at the end",
    "checkpoint mid-entry", "checkpoint after a wrap",
}


@pytest.fixture(scope="module")
def cases():
    return [adversarial_log(seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def real_cases():
    """The node logs by name: Blink, both Bounce nodes, and the three
    nodes of the collection line, the root's records running 500 ms
    past its analysis end (the tail re-cover)."""
    bounce = differential.bounce_network()
    collection = differential.collection_network()
    return {
        "blink": node_case("blink", differential.blink_node()),
        **{f"bounce-{nid}": node_case(f"bounce-{nid}", bounce.node(nid))
           for nid in (1, 4)},
        **{f"collection-{nid}": node_case(
            f"collection-{nid}", collection.node(nid),
            int(ms(500)) if nid == 11 else 0) for nid in (11, 12, 13)},
    }


def groups(cases):
    """The cases in fused groups of :data:`GROUP_SIZES` sizes, each
    group sharing one component-name map."""
    by_names: dict[int, list] = {}
    for case in cases:
        by_names.setdefault(id(case.names), []).append(case)
    sizes = iter(GROUP_SIZES * len(cases))
    for family in by_names.values():
        while family:
            size = next(sizes)
            yield family[:size]
            family = family[size:]


def test_coverage_table(cases):
    """Each listed feature occurs in some generated log or plan."""
    seen = set()
    for case in cases:
        seen |= log_features(case) | plan_features(case)
    assert not LOG_FEATURES - seen, sorted(LOG_FEATURES - seen)
    assert not PLAN_FEATURES - seen, sorted(PLAN_FEATURES - seen)


def test_generated_columnar_matches_reference(cases):
    for case in cases:
        check_columnar(case)


def test_generated_fused_matches_single_builds(cases):
    for group in groups(cases):
        check_fused(group)


def test_fused_families_follow_registry_names(cases):
    """Logs whose registries are distinct objects naming every activity
    alike share one fold and each gets its reference map; a log whose
    registry names an activity differently is left out of that fold
    and gets the bytes it gets alone, which the others' registry would
    not give it."""
    odd = next(case for case in cases
               if any(activity == "1:act1"
                      for _, activity in case.oracle_map(False).time_ns))
    renamed = ActivityRegistry()
    assert renamed.register("Renamed") == 1
    group = [replace(case, registry=ActivityRegistry())
             for case in cases[:3] if case is not odd]
    group.append(replace(odd, registry=renamed))
    assert fusable_groups([case.registry for case in group]) \
        == [list(range(len(group) - 1)), [len(group) - 1]]
    check_fused(group)
    alone = group[-1]
    (priced_by_others,) = columnar_energy_map(
        alone.timeline(), [alone.regression], group[0].registry,
        alone.names, [alone.pulse_j], idle_names=[alone.idle_name])
    assert list(priced_by_others.time_ns) \
        != list(alone.oracle_map(False).time_ns)


def test_generated_windowed_matches_reference(cases):
    seen = set()
    for case in cases:
        check_windowed(case, seen)
    assert seen == {
        "a batch closing no window", "empty windows", "evicted windows",
        "tail re-cover", "tail begins mid-batch",
        "rows join an open tail at finish"}, seen


def test_generated_checkpoint_resumes_identically(cases):
    seen = set()
    for case in cases:
        check_checkpoint(case, seen)
    assert seen == {
        "checkpoint carries an open multi span",
        "checkpoint during the tail", "checkpoint after evictions"}, seen


def test_real_logs_match_reference(real_cases):
    """Every path on the node logs; the live and checkpoint paths at
    each log's seeded plan (the collection root's run through them in
    ``test_window_goldens``'s split fuzz, cut every way)."""
    for case in real_cases.values():
        check_columnar(case)
    for name in ("blink", "bounce-1", "bounce-4"):
        check_windowed(real_cases[name])
        check_checkpoint(real_cases[name])
    # A network's nodes share one registry, so each network is one
    # fused family.
    check_fused([real_cases["bounce-1"], real_cases["bounce-4"]])
    check_fused([real_cases[f"collection-{nid}"] for nid in (11, 12, 13)])


# -- knobs --------------------------------------------------------------------


def _windows(case, **options):
    knobs = dict(stride_ns=int(seconds(1)), origin_ns=None, retain=None,
                 end_time_ns=case.end_time_ns, idle_name=case.idle_name)
    knobs.update(options)
    accumulator = WindowedAccumulator(
        case.regression, case.registry, case.names, case.pulse_j,
        single_res_ids=case.singles, multi_res_ids=case.multis, **knobs)
    accumulator.feed_columns(case.columns)
    final = accumulator.finish()
    return accumulator, final


#: Each remaining ``WindowedAccumulator`` option, a changed value, and
#: what it changes.
KNOBS = {
    "stride_ns": (int(ms(400)), lambda acc, final: acc.windows_emitted),
    "origin_ns": (int(ms(300)), lambda acc, final: acc.windows[0].t0_ns),
    "retain": (2, lambda acc, final: len(acc.windows)),
    "end_time_ns": (int(seconds(5)),
                    lambda acc, final: list(final.time_ns.items())),
    "idle_name": ("Quiet", lambda acc, final: list(final.energy_j)),
}


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_every_windowed_option_has_an_effect(real_cases, knob):
    value, observe = KNOBS[knob]
    blink = real_cases["blink"]
    default = observe(*_windows(blink))
    changed = observe(*_windows(blink, **{knob: value}))
    assert changed != default, (knob, default)


def test_knob_table_names_every_option():
    """A new ``WindowedAccumulator`` option needs a row above."""
    options = {
        name for name, param in inspect.signature(
            WindowedAccumulator).parameters.items()
        if param.kind is param.KEYWORD_ONLY}
    assert options - {"single_res_ids", "multi_res_ids"} == set(KNOBS)
