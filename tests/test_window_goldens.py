"""Window-sequence goldens.

Each golden is a sha256 over every :class:`WindowSnapshot` field of a
windowed run (floats written by ``repr``, dicts in insertion order), so
any change to when a window closes, what it holds, or the float bits of
its cumulative sums shows up as a digest change.  The goldens were
captured from the per-entry streaming accumulator and pin:

* blink at strides of 0.25, 1, 3 and 100 s;
* the two-node bounce network at a 400 ms stride;
* a collection node whose records run 500 ms past its analysis end
  (``end_time_ns``), so the tail re-cover is part of the sequence.

The split fuzz streams the Blink and collection logs through the
differential harness's checkpoint path (``tests/differential.py``:
:meth:`NodeSession.ingest` in 1-byte, 7-byte, 1021-byte, 64 KB and
whole-log chunks, with and without a checkpoint/restore midway and
near the end, folding each chunk as its own batch or in batches of the
default size): every split gives the golden windows, the one-row-batch
window sequence and the streaming reference's map.  The checkpoint
round trip cuts at every 96-byte cadence point.  The harness's own runs
(``tests/test_differential.py``) do the same on generated logs at
random cuts.
"""

import dataclasses
import hashlib

import oracle
import pytest

import differential
from differential import Plan, check_checkpoint, chunk_cuts, node_case
from repro.core import accounting
from repro.core.accounting import WindowedAccumulator
from repro.core.logger import iter_entries
from repro.tos.node import COMPONENT_NAMES
from repro.units import ms, seconds

#: sha256 of the full window sequence, per workload.
GOLDEN = {
    "blink-0.25s":
        "cda2b7b223b7a10ff90b4fc51fd8ee257a2dfa6c3399d42ab0ca16d8b7aeaf29",
    "blink-1s":
        "8edf1243bedab3a94754d56db3c9c4762cfe6ee3915e017688fe44aa6ad2741f",
    "blink-3s":
        "af184aea6ab756d38375a0c425b891618e73bcc1414e17bfe62acddecc973670",
    "blink-100s":
        "18bcb6412482f8b9da6470e21d8985cb75a7661be2bba1d4ec2fbad4389ef9ac",
    "bounce-1":
        "736657ae076bf8067a59b4eb8e33bc8be23e0822a497147521884d5294e9b60d",
    "bounce-4":
        "2238001a41a58b2a99a9c82fb9bcc036c5874e90c3d363be8450c9a9d20ae5ae",
    "collection-11":
        "a0cd58305fec24d450ea8a116b6f5d27546729fc7b43fc6357dc8782edecd57d",
}

#: How far the collection node's records run past its analysis end.
OVERSHOOT_NS = int(ms(500))


def window_digest(snapshots) -> str:
    digest = hashlib.sha256()
    for snapshot in snapshots:
        fields = [(f.name, getattr(snapshot, f.name))
                  for f in dataclasses.fields(snapshot)]
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def analysis_end(node, overshoot_ns=0):
    return node.timeline().end_time_ns - overshoot_ns


def windowed_windows(node, stride_ns, end_time_ns):
    """The full window sequence of one node's log at ``stride_ns``."""
    regression = node.regression(node.timeline())
    accumulator = WindowedAccumulator(
        regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        stride_ns=stride_ns,
        idle_name=node.registry.name_of(node.idle),
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids,
        end_time_ns=end_time_ns,
        retain=None,
    )
    accumulator.feed_columns(node.logger.columns())
    accumulator.finish()
    return list(accumulator.windows)


@pytest.fixture(scope="module")
def blink():
    return differential.blink_node()


@pytest.fixture(scope="module")
def bounce():
    return differential.bounce_network()


@pytest.fixture(scope="module")
def collection():
    """The root of a small multihop collection line, built the way the
    serve-ingest benchmark builds its nodes."""
    return differential.collection_network().node(11)


# -- goldens -----------------------------------------------------------------


@pytest.mark.parametrize("stride_s", [0.25, 1, 3, 100])
def test_blink_window_golden(blink, stride_s):
    windows = windowed_windows(blink, int(seconds(stride_s)),
                               analysis_end(blink))
    assert window_digest(windows) == GOLDEN[f"blink-{stride_s}s"]


@pytest.mark.parametrize("node_id", [1, 4])
def test_bounce_window_golden(bounce, node_id):
    node = bounce.node(node_id)
    windows = windowed_windows(node, int(ms(400)), analysis_end(node))
    assert window_digest(windows) == GOLDEN[f"bounce-{node_id}"]


def test_collection_window_golden_runs_past_end_time(collection):
    end = analysis_end(collection, OVERSHOOT_NS)
    assert collection.timeline().entries[-1].time_ns > end
    windows = windowed_windows(collection, int(seconds(1)), end)
    assert window_digest(windows) == GOLDEN["collection-11"]


# -- split fuzz --------------------------------------------------------------


@pytest.fixture(scope="module")
def cases(blink, collection):
    """The Blink and collection logs as harness cases, with the golden
    of their 1 s window sequence."""
    return {
        "blink": (node_case("blink", blink), GOLDEN["blink-1s"]),
        "collection": (node_case("collection-11", collection, OVERSHOOT_NS),
                       GOLDEN["collection-11"]),
    }


@pytest.mark.parametrize("min_batch", [1, accounting.MIN_BATCH_ENTRIES])
@pytest.mark.parametrize("workload", ["blink", "collection"])
def test_every_split_gives_the_same_windows(workload, min_batch, cases):
    case, golden = cases[workload]
    size = len(case.raw)
    # Checkpoints midway and near the end, where the collection node's
    # intervals already wait for the tail re-cover.
    for chunk in (1, 7, 1021, 1 << 16, size):
        for checkpoint_at in (None, size // 2 + 5, size - 400):
            windows = check_checkpoint(case, plan=Plan(
                cuts=chunk_cuts(size, chunk), stride_ns=int(seconds(1)),
                min_batch=min_batch, checkpoint_at=checkpoint_at))
            assert window_digest(windows) == golden, (chunk, checkpoint_at)


@pytest.mark.parametrize("retain", [3, None])
@pytest.mark.parametrize("workload", ["blink", "collection"])
def test_checkpoint_round_trip_is_bit_identical(workload, retain, cases):
    """Checkpoint at every 96-byte cadence point, round-trip the bytes,
    restore into a fresh session and feed the rest: the windows it
    retains before and after, and its final map, are the uninterrupted
    one-row-batch run's — float bits and key order.  The cadence points
    cover an open multi-activity span (on Blink), retention evictions
    (with ``retain=3``) and, on the collection node, the
    ``end_time_ns`` tail."""
    case, _golden = cases[workload]
    size, cadence = len(case.raw), 96
    seen: set = set()
    for cut in range(cadence, size, cadence):
        check_checkpoint(case, seen, Plan(
            cuts=chunk_cuts(size, cadence), stride_ns=int(seconds(1)),
            retain=retain, checkpoint_at=cut))
    expected = {"checkpoint carries an open multi span"} \
        if workload == "blink" else {"checkpoint during the tail"}
    if retain is not None:
        expected.add("checkpoint after evictions")
    assert seen == expected


# -- undeclared devices ------------------------------------------------------


@pytest.mark.parametrize("min_batch", [1, 7, accounting.MIN_BATCH_ENTRIES])
def test_undeclared_device_charged_untracked_until_it_appears(
        bounce, min_batch, monkeypatch):
    """A log without the boot-time record of any device but the CPU, so
    each other device is first named mid-log.  Undeclared, only the
    streaming reference accounts it: it learns a device at its first
    record and charges the intervals before that as untracked, while
    the windowed fold refuses a record of a device it was not told of.
    Declared, as node logs always are, the windowed fold equals the
    reference bit for bit however the batches fall: both charge a
    device's intervals before its first record to Idle."""
    from repro.core.accounting import EnergyAccumulator
    from repro.core.logger import TYPE_ACT_CHANGE
    from repro.errors import LoggerError

    monkeypatch.setattr(accounting, "MIN_BATCH_ENTRIES", min_batch)
    node = bounce.node(1)
    seen: set[int] = set()
    kept = []
    for entry in iter_entries(node.logger.raw_bytes()):
        if entry.type == TYPE_ACT_CHANGE and entry.res_id not in seen:
            seen.add(entry.res_id)
            if entry.res_id != 0:
                continue
        kept.append(entry)
    timeline = node.timeline()
    args = (node.regression(timeline), node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j)
    kwargs = dict(idle_name=node.registry.name_of(node.idle),
                  end_time_ns=timeline.end_time_ns)
    inferred = EnergyAccumulator(*args, **kwargs).feed_all(kept)
    assert ("Radio", "(untracked)") in inferred.energy_j
    refused = WindowedAccumulator(
        *args, stride_ns=int(ms(400)), single_res_ids=[0],
        multi_res_ids=node.multi_res_ids, **kwargs)
    with pytest.raises(LoggerError, match="did not declare"):
        for entry in kept:
            refused.feed(entry)
        refused.finish()

    kwargs.update(single_res_ids=node.single_res_ids,
                  multi_res_ids=node.multi_res_ids)
    reference = EnergyAccumulator(*args, **kwargs).feed_all(kept)
    assert ("Radio", "(untracked)") not in reference.energy_j
    accumulator = WindowedAccumulator(*args, stride_ns=int(ms(400)),
                                      **kwargs)
    for entry in kept:
        accumulator.feed(entry)
    oracle.assert_same_map(reference, accumulator.finish())
