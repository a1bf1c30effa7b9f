"""Window-sequence goldens and the ingest split fuzz.

Each golden is a sha256 over every :class:`WindowSnapshot` field of a
windowed run (floats written by ``repr``, dicts in insertion order), so
any change to when a window closes, what it holds, or the float bits of
its cumulative sums shows up as a digest change.  The goldens were
captured from the per-entry streaming accumulator and pin:

* blink at strides of 0.25, 1, 3 and 100 s;
* the two-node bounce network at a 400 ms stride;
* a collection node whose records run 500 ms past its analysis end
  (``end_time_ns``), so the tail re-cover is part of the sequence.

The split fuzz streams the same logs through :meth:`NodeSession.ingest`
in 1-byte, prime-sized, 64 KB and whole-log chunks, with and without a
checkpoint/restore midway, folding each chunk as its own batch or in
batches of the default size: every split must give the same windows and
the same final map.
"""

import dataclasses
import hashlib

import pytest

from repro.core import accounting
from repro.core.accounting import WindowedAccumulator, fold_windows
from repro.core.logger import iter_entries
from repro.experiments.common import run_blink
from repro.serve import NodeSession, hello_for_node
from repro.serve.journal import decode_checkpoint, frame_checkpoint
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
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    return list(accumulator.windows)


@pytest.fixture(scope="module")
def blink():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    return node


@pytest.fixture(scope="module")
def bounce():
    from repro.apps.bounce import BounceApp
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig

    network = Network(seed=1)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(3))
    return network


@pytest.fixture(scope="module")
def collection():
    """The root of a small multihop collection line, built the way the
    serve-ingest benchmark builds its nodes."""
    from repro.apps.collection import build_line_topology
    from repro.hw.platform import PlatformConfig
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig

    network = Network(seed=5)
    node_ids = [11, 12, 13]
    for node_id in node_ids:
        network.add_node(NodeConfig(
            node_id=node_id, mac="csma",
            platform=PlatformConfig(device_variation=0.02)))
    apps = build_line_topology(network, node_ids, root_id=11,
                               sample_period_ns=seconds(1))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(6))
    return network.node(11)


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


def ingest_split(hello, raw, chunk, checkpoint_at=None):
    """Stream ``raw`` through a session in ``chunk``-byte pieces; with
    ``checkpoint_at``, round-trip the session through a checkpoint once
    that many bytes have gone in.  Returns (windows, final map)."""
    session = NodeSession(hello, retain=None)
    at = 0
    while at < len(raw):
        piece = raw[at:at + chunk]
        session.ingest(piece)
        at += len(piece)
        if checkpoint_at is not None and at >= checkpoint_at:
            checkpoint_at = None
            state = decode_checkpoint(frame_checkpoint(
                session.checkpoint_state()["payload"]))
            session = NodeSession(hello, retain=None)
            session.load_state(state)
    final = session.finish()
    return list(session.accumulator.windows), final


@pytest.mark.parametrize("min_batch", [1, accounting.MIN_BATCH_ENTRIES])
@pytest.mark.parametrize("workload", ["blink", "collection"])
def test_every_split_gives_the_same_windows(workload, min_batch, blink,
                                            collection, monkeypatch):
    monkeypatch.setattr(accounting, "MIN_BATCH_ENTRIES", min_batch)
    if workload == "blink":
        node, golden = blink, GOLDEN["blink-1s"]
        end = analysis_end(node)
    else:
        node, golden = collection, GOLDEN["collection-11"]
        end = analysis_end(node, OVERSHOOT_NS)
    hello = dict(hello_for_node(node, stride_ns=int(seconds(1))),
                 end_time_ns=end)
    raw = bytes(node.logger.raw_bytes())
    reference = None
    # Checkpoints midway and near the end, where the collection node's
    # intervals already wait for the tail re-cover.
    for chunk in (1, 7, 1021, 1 << 16, len(raw)):
        for checkpoint_at in (None, len(raw) // 2 + 5, len(raw) - 400):
            windows, final = ingest_split(hello, raw, chunk, checkpoint_at)
            assert window_digest(windows) == golden, (chunk, checkpoint_at)
            folded = fold_windows(windows)
            assert list(final.energy_j) == list(folded.energy_j)
            assert final.energy_j == folded.energy_j
            assert final.time_ns == folded.time_ns
            if reference is None:
                reference = final
            assert list(final.energy_j) == list(reference.energy_j)
            assert final.energy_j == reference.energy_j
            assert final.time_ns == reference.time_ns
            assert final.reconstructed_energy_j \
                == reference.reconstructed_energy_j
            assert final.metered_energy_j == reference.metered_energy_j
            assert final.span_ns == reference.span_ns


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
    served = accumulator.finish()
    assert exact_map(served) == exact_map(reference)


# -- checkpoint round trip ---------------------------------------------------


def exact(value):
    """``value`` with every float as ``float.hex`` and every dict as its
    item list, so equality means same bits and same key order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(exact(key), exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return value


def exact_window(snapshot):
    return [(f.name, exact(getattr(snapshot, f.name)))
            for f in dataclasses.fields(snapshot)]


def exact_map(emap):
    return [(f.name, exact(getattr(emap, f.name)))
            for f in dataclasses.fields(emap)]


@pytest.mark.parametrize("retain", [3, None])
@pytest.mark.parametrize("workload", ["blink", "collection"])
def test_checkpoint_round_trip_is_bit_identical(workload, retain, blink,
                                                collection):
    """Checkpoint at every 96-byte cadence point, round-trip the bytes,
    restore into a fresh session and feed the rest: every window the
    resumed run emits or retains, and its final map, equal the
    uninterrupted run's — float bits and key order.  The cadence points
    cover an open multi-activity span, retention evictions (with
    ``retain=3``) and, on the collection node, the ``end_time_ns``
    tail."""
    if workload == "blink":
        node, end = blink, analysis_end(blink)
    else:
        node, end = collection, analysis_end(collection, OVERSHOOT_NS)
    hello = dict(hello_for_node(node, stride_ns=int(seconds(1))),
                 end_time_ns=end)
    raw = bytes(node.logger.raw_bytes())
    cadence = 96

    def run(session, data, emitted):
        session.accumulator.on_window = emitted.append
        for at in range(0, len(data), cadence):
            session.ingest(data[at:at + cadence])

    reference: list = []
    whole = NodeSession(hello, retain=retain)
    run(whole, raw, reference)
    final = exact_map(whole.finish())
    reference = [exact_window(s) for s in reference]
    retained = [exact_window(s) for s in whole.accumulator.windows]
    # Retention keeps the newest windows exactly as they were emitted.
    assert retained == reference[-len(retained):]

    seen = {"tail": False, "multi_open": False, "evicted": False}
    for cut in range(cadence, len(raw), cadence):
        emitted: list = []
        session = NodeSession(hello, retain=retain)
        run(session, raw[:cut], emitted)
        accumulator = session.accumulator
        before = [exact_window(s) for s in accumulator.windows]
        blob = frame_checkpoint(session.checkpoint_state()["payload"])
        seen["tail"] |= accumulator._tail is not None
        seen["multi_open"] |= bool(accumulator._carry.multi_open)
        seen["evicted"] |= accumulator._base is not None

        resumed = NodeSession(hello, retain=retain)
        resumed.load_state(decode_checkpoint(blob))
        assert resumed.bytes_received == cut
        assert [exact_window(s) for s in resumed.accumulator.windows] \
            == before, cut
        assert resumed.accumulator.windows_emitted \
            == accumulator.windows_emitted
        run(resumed, raw[cut:], emitted)
        assert exact_map(resumed.finish()) == final, cut
        assert [exact_window(s) for s in emitted] == reference, cut
        assert [exact_window(s) for s in resumed.accumulator.windows] \
            == retained, cut
    assert seen["multi_open"] == (workload == "blink")
    assert seen["evicted"] == (retain is not None)
    assert seen["tail"] == (workload == "collection")
