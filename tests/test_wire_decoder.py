"""The incremental wire decoder: chunk boundaries must not matter.

:class:`repro.core.logger.WireDecoder` is the network-facing decode
path — the ingest server feeds it whatever chunks TCP delivers.  For
ANY split of a packed log (mid-entry, one byte at a time, mid-u32-wrap)
the reassembled entry stream must be *identical* to the one-shot
:func:`iter_entries` decode — same unwrap, same seq numbers — and each
piece's rows those of :func:`decode_columns` (the differential
harness's :func:`decoded_pieces` checks them row by row).  Fuzzed here
at random splits of real Blink and Bounce logs and of generated logs
whose time or iCount wraps u32, with snapshot/restore at random cuts;
also pinned: a wrap detected a feed after its watermark,
snapshot/restore at every byte offset of a wrapping log, and the
decoder's errors.  The harness's own runs
(``tests/test_differential.py``) feed the same decoder into the live
fold.
"""

import random

import pytest

import differential
from differential import (
    adversarial_log,
    blink_node,
    decoded_pieces,
    on_path,
    wrap_rows,
)
from repro.core.logger import (
    ENTRY_SIZE,
    ENTRY_STRUCT,
    TYPE_POWERSTATE,
    WireDecoder,
    iter_entries,
)
from repro.errors import LoggerError

U32 = 1 << 32


def feed_chunked(raw, chunks):
    decoder = WireDecoder()
    entries = []
    for chunk in chunks:
        entries.extend(decoder.feed(chunk))
    decoder.finish()
    assert decoder.pending_bytes == 0
    assert decoder.entries_decoded == len(entries)
    return entries


def random_cuts(size, rng, max_chunk):
    """Cuts of ``size`` bytes at random offsets (most land mid-entry)."""
    cuts = [0]
    while cuts[-1] < size:
        cuts.append(min(size, cuts[-1] + rng.randint(1, max_chunk)))
    return cuts


def assert_split_decodes(raw, cuts):
    """Both decoder outputs at ``cuts``: the entries equal the one-shot
    decode, and every piece's rows the one-shot columns'."""
    pieces = [raw[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    assert feed_chunked(raw, pieces) == list(iter_entries(raw))
    for _rows in decoded_pieces(raw, cuts):
        pass


# -- real logs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def blink_raw():
    return bytes(blink_node().logger.raw_bytes())


def test_chunked_equals_oneshot_on_blink(blink_raw):
    rng = random.Random(0xC0FFEE)
    for _trial in range(8):
        assert_split_decodes(blink_raw,
                             random_cuts(len(blink_raw), rng, 37))


def test_network_log_random_splits():
    """Cross-node logs (proxy binds, remote labels) through prime-sized
    chunks: entry boundaries drift through every offset mod 12."""
    network = differential.bounce_network()
    for node_id in (1, 4):
        raw = bytes(network.node(node_id).logger.raw_bytes())
        for chunk_size in (7, 11, 13, 1021):
            assert_split_decodes(
                raw, differential.chunk_cuts(len(raw), chunk_size))


def test_one_byte_at_a_time(blink_raw):
    entries = feed_chunked(blink_raw,
                           (blink_raw[i:i + 1]
                            for i in range(len(blink_raw))))
    assert entries == list(iter_entries(blink_raw))


def test_single_chunk_is_the_degenerate_split(blink_raw):
    assert feed_chunked(blink_raw, [blink_raw]) \
        == list(iter_entries(blink_raw))


# -- u32 wrap state across feeds ---------------------------------------------


def pack_truth(true_values):
    """Pack (time_us, icount) truth pairs, wrapping both fields to u32."""
    raw = bytearray()
    for time_us, icount in true_values:
        raw += ENTRY_STRUCT.pack(
            TYPE_POWERSTATE, 0, time_us % U32, icount % U32, 0)
    return bytes(raw)


def test_wrap_state_carries_across_feeds():
    """Split exactly so the wrap is detected in a *later* feed than the
    entry that established the pre-wrap watermark."""
    truth = [
        (U32 - 1000, 10),
        (U32 - 1, 20),
        (U32 + 500, U32 + 5),   # both fields wrap here
        (U32 + 900, U32 + 50),
        (2 * U32 + 3, 2 * U32),  # and wrap again
    ]
    raw = pack_truth(truth)
    # Cut mid-entry *inside* the wrapping record: the decoder must hold
    # 7 bytes of the wrapped entry while remembering the old watermark.
    cut = 2 * ENTRY_SIZE + 5
    decoder = WireDecoder()
    first = decoder.feed(raw[:cut])
    assert len(first) == 2 and decoder.pending_bytes == 5
    rest = decoder.feed(raw[cut:])
    entries = first + rest
    decoder.finish()
    assert [(e.time_us, e.icount) for e in entries] == truth


@pytest.fixture(scope="module")
def wrapping_logs():
    """Twenty generated logs whose time, iCount or both wrap u32."""
    cases = [case for case in map(adversarial_log, range(5000, 5100))
             if wrap_rows(case.columns)][:20]
    assert len(cases) == 20
    return cases


def test_wrap_fuzz_random_splits(wrapping_logs):
    rng = random.Random(31337)
    for case in wrapping_logs:
        with on_path(case, "wire decoder"):
            assert_split_decodes(case.raw,
                                 random_cuts(len(case.raw), rng, 17))


# -- snapshot / restore ------------------------------------------------------


def snapshot_round_trip_at(raw, cut):
    """Feed ``raw[:cut]``, snapshot, restore into a NEW decoder, feed
    the rest — the crash/restart shape of the ingest server."""
    first = WireDecoder()
    entries = first.feed(raw[:cut])
    state = first.snapshot()
    # The snapshot must survive serialization (checkpoints store it).
    import json

    second = WireDecoder.from_snapshot(json.loads(json.dumps(state)))
    assert second.entries_decoded == first.entries_decoded
    assert second.pending_bytes == first.pending_bytes
    entries += second.feed(raw[cut:])
    second.finish()
    return entries


def test_snapshot_restore_at_every_split_across_wraps():
    """The satellite contract: a restore point at EVERY byte offset of
    a log whose time and icount both wrap u32 (including cuts inside
    the wrapping entry itself) resumes to the identical entry stream."""
    truth = [
        (U32 - 1000, 10),
        (U32 - 1, 20),
        (U32 + 500, U32 + 5),    # both fields wrap here
        (U32 + 900, U32 + 50),
        (2 * U32 + 3, 2 * U32),  # and wrap again
        (2 * U32 + 7, 3 * U32 - 1),
        (3 * U32, 3 * U32 + 2),  # time wraps alone
    ]
    raw = pack_truth(truth)
    reference = list(iter_entries(raw))
    for cut in range(len(raw) + 1):
        entries = snapshot_round_trip_at(raw, cut)
        assert entries == reference, f"diverged restoring at byte {cut}"
        assert [(e.time_us, e.icount) for e in entries] == truth


def test_snapshot_restore_fuzz_on_random_wrap_logs(wrapping_logs):
    """Wrapping logs, random restore points (the end included), random
    chunking before and after the restore — mirroring the chunk fuzz
    above."""
    rng = random.Random(0xD15C)
    for case in wrapping_logs[:10]:
        size = len(case.raw)
        for cut in [size, *(rng.randint(0, size) for _ in range(7))]:
            cuts = sorted({*random_cuts(size, rng, 17), cut})
            with on_path(case, f"wire decoder restored at byte {cut}"):
                for _rows in decoded_pieces(case.raw, cuts, restore_at=cut):
                    pass


def test_snapshot_restore_on_blink(blink_raw):
    reference = list(iter_entries(blink_raw))
    for cut in (0, 5, ENTRY_SIZE, len(blink_raw) // 2 + 7,
                len(blink_raw) - 1, len(blink_raw)):
        assert snapshot_round_trip_at(blink_raw, cut) == reference


def test_bad_snapshots_are_rejected():
    with pytest.raises(LoggerError, match="snapshot"):
        WireDecoder.from_snapshot({"partial": "00"})  # missing fields
    whole_entry = WireDecoder()
    whole_entry.feed(pack_truth([(1, 1)]))
    state = whole_entry.snapshot()
    state["partial"] = "00" * ENTRY_SIZE  # a full entry can't be pending
    with pytest.raises(LoggerError, match="snapshot"):
        WireDecoder.from_snapshot(state)


# -- state/diagnostics -------------------------------------------------------


def test_finish_raises_on_torn_tail(blink_raw):
    decoder = WireDecoder()
    decoder.feed(blink_raw[:ENTRY_SIZE + 5])
    assert decoder.pending_bytes == 5
    with pytest.raises(LoggerError, match="partial entry"):
        decoder.finish()


def test_finish_is_clean_on_entry_boundary(blink_raw):
    decoder = WireDecoder()
    decoder.feed(blink_raw)
    decoder.finish()  # no raise


def test_empty_feeds_are_noops():
    decoder = WireDecoder()
    assert decoder.feed(b"") == []
    assert decoder.feed(b"\x01") == []  # sub-entry: buffered only
    assert decoder.pending_bytes == 1
    assert decoder.entries_decoded == 0
