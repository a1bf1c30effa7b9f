"""Durable live ingest: WAL, checkpoints, crash-restore, resume.

The contract under test: with a ``state_dir``, every ingest stream is
write-ahead journaled and checkpointed, so a server that dies without
warning restarts into the exact per-node state it held — and a client
speaking the resume handshake replays only the tail, ending with a map
**byte-identical** to the uninterrupted offline ``build_energy_map``.
Also covered: torn/corrupt journal tails, corrupt-checkpoint fallback
to full replay, the background checkpoint writer (ordering, failures,
lag counters, draining), graceful-shutdown suspend, quarantine
isolation of one malformed stream, overload shedding, the typed
sync-wrapper errors, and the ``--expect-nodes`` exit code.
"""

import asyncio
import errno
import json
import os
import pickle
import socket
import struct
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.core.accounting import build_energy_map
from repro.core.logger import WireDecoder
from repro.errors import ServeError, WindowingError
from repro.experiments.common import run_blink
from repro.serve import (
    IngestServer,
    NodeJournal,
    NodeSession,
    final_map,
    hello_for_node,
    stream_node,
    stream_raw,
)
from repro.serve.journal import (
    CHECKPOINT_MAGIC,
    JOURNAL_MAGIC,
    CheckpointWriter,
    decode_checkpoint,
    encode_checkpoint,
    frame_checkpoint,
)
from repro.serve.protocol import (
    INGEST_VERB,
    decode_json_line,
    encode_json_line,
    is_ack_line,
)
from repro.sim.faultinject import tear_tail
from repro.tos.node import COMPONENT_NAMES
from repro.units import seconds


def offline_map(node):
    timeline = node.timeline()
    regression = node.regression(timeline)
    return build_energy_map(
        timeline, regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        fold_proxies=False,
        idle_name=node.registry.name_of(node.idle),
        backend="streaming",
    )


def assert_maps_identical(served, offline):
    assert list(served.energy_j) == list(offline.energy_j)
    assert served.energy_j == offline.energy_j
    assert list(served.time_ns) == list(offline.time_ns)
    assert served.time_ns == offline.time_ns
    assert served.metered_energy_j == offline.metered_energy_j
    assert served.reconstructed_energy_j == offline.reconstructed_energy_j
    assert served.span_ns == offline.span_ns


@pytest.fixture(scope="module")
def blink():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    return node


@pytest.fixture(scope="module")
def blink2():
    node, _app, _sim = run_blink(seed=7, duration_ns=seconds(8), node_id=2)
    return node


@pytest.fixture(scope="module")
def offline(blink):
    return offline_map(blink)


@pytest.fixture()
def sock(tmp_path):
    return str(tmp_path / "ingest.sock")


async def _ack_hello_prefix(sock_path, hello, prefix):
    """Open a raw resume-handshake ingest connection and write a prefix
    without EOF (a stream caught mid-flight)."""
    reader, writer = await asyncio.open_unix_connection(sock_path)
    wire = dict(hello)
    wire["ack"] = True
    writer.write(INGEST_VERB.encode() + b" " + encode_json_line(wire))
    await writer.drain()
    handshake = decode_json_line(await reader.readline(), "handshake")
    writer.write(prefix)
    await writer.drain()
    return reader, writer, handshake


async def _final_reply(reader):
    """The first non-ack reply line."""
    while True:
        line = await reader.readline()
        assert line, "connection closed without a reply"
        reply = decode_json_line(line, "reply")
        if not is_ack_line(reply):
            return reply


# -- journal mechanics -------------------------------------------------------


def test_journal_round_trip(tmp_path):
    journal = NodeJournal(tmp_path, 7)
    journal.create({"node_id": 7, "greeting": True})
    assert journal.append_chunk(b"abcd") == 4
    assert journal.append_chunk(b"") == 4  # empty chunks are legal
    assert journal.append_chunk(b"efghij") == 10
    journal.mark_complete({"entries": 3})
    journal.close()

    contents = journal.load()
    assert contents.hello == {"node_id": 7, "greeting": True}
    assert contents.chunks == [b"abcd", b"", b"efghij"]
    assert contents.payload_bytes == 10
    assert contents.complete == {"entries": 3}
    assert contents.valid_end == journal.journal_path.stat().st_size


def test_torn_tail_is_truncated_on_reopen(tmp_path):
    journal = NodeJournal(tmp_path, 1)
    journal.create({"node_id": 1})
    journal.append_chunk(b"first")
    journal.append_chunk(b"second")
    journal.close()
    tear_tail(journal.journal_path, drop=3)  # crash mid-append

    contents = journal.load()
    assert contents.chunks == [b"first"]
    assert contents.complete is None
    # Reopen truncates the torn bytes: the next record lands cleanly.
    journal.reopen_for_append(contents)
    assert journal.append_chunk(b"again") == 10
    journal.close()
    assert journal.load().chunks == [b"first", b"again"]


def test_corrupt_record_stops_the_scan(tmp_path):
    journal = NodeJournal(tmp_path, 1)
    journal.create({"node_id": 1})
    journal.append_chunk(b"good")
    at_bad = journal.journal_path.stat().st_size
    journal.append_chunk(b"bad!")
    journal.append_chunk(b"never seen")
    journal.close()
    blob = bytearray(journal.journal_path.read_bytes())
    blob[at_bad + 9] ^= 0xFF  # flip a payload byte: CRC now fails
    journal.journal_path.write_bytes(bytes(blob))
    contents = journal.load()
    assert contents.chunks == [b"good"]
    assert contents.valid_end == at_bad


def test_headerless_journal_is_unrecoverable(tmp_path):
    path = tmp_path / "node-5.waj"
    path.write_bytes(b"not a journal at all")
    assert NodeJournal(tmp_path, 5).load() is None
    assert NodeSession.restore(tmp_path, 5, retain=8) is None


def test_replay_slices_mid_record(tmp_path):
    journal = NodeJournal(tmp_path, 1)
    journal.create({"node_id": 1})
    journal.append_chunk(b"abcd")
    journal.append_chunk(b"efgh")
    journal.close()
    contents = journal.load()
    assert list(contents.replay(0)) == [b"abcd", b"efgh"]
    assert list(contents.replay(2)) == [b"cd", b"efgh"]
    assert list(contents.replay(4)) == [b"efgh"]
    assert list(contents.replay(6)) == [b"gh"]
    assert list(contents.replay(8)) == []
    for bad in (-1, 9):
        with pytest.raises(ServeError, match="replay offset"):
            list(contents.replay(bad))


def test_scan_dir_finds_node_journals(tmp_path):
    for node_id in (3, 1):
        journal = NodeJournal(tmp_path, node_id)
        journal.create({"node_id": node_id})
        journal.close()
    (tmp_path / "stray.txt").write_text("ignore me")
    (tmp_path / "node-x.waj").write_text("not a node id")
    assert NodeJournal.scan_dir(tmp_path) == [1, 3]
    assert NodeJournal.scan_dir(tmp_path / "missing") == []


def test_checkpoint_round_trip_and_corruption(tmp_path):
    journal = NodeJournal(tmp_path, 1)
    header = {"journal_offset": 42, "complete": False, "note": [1.5, None]}
    accumulator = bytes(range(7))
    assert journal.load_checkpoint() is None  # absent
    journal.write_checkpoint({"journal_offset": 42, "payload":
                              encode_checkpoint(header, accumulator)})
    blob = journal.checkpoint_path.read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    assert journal.load_checkpoint() == dict(header, accumulator=accumulator)
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    journal.checkpoint_path.write_bytes(bytes(corrupt))
    assert journal.load_checkpoint() is None  # CRC fail -> discard
    journal.checkpoint_path.write_bytes(b"garbage")
    assert journal.load_checkpoint() is None


def test_checkpoint_writer_keeps_order_under_contention():
    """More submitting threads than cores and a tiny switch interval:
    per node, checkpoints land in submission order, the newest snapshot
    is the last one written, and every queued job reports exactly once
    — a lost update to the writer's queue or counters breaks one of
    these."""
    nodes, offsets = 8, 400

    class FakeJournal:
        def __init__(self, node_id):
            self.node_id = node_id
            self.written = []

        def write_checkpoint(self, state):
            time.sleep(0)  # yield the GIL, as fsync does
            self.written.append(state["journal_offset"])

    writer = CheckpointWriter()
    journals = [FakeJournal(node) for node in range(nodes)]
    queued = [0] * nodes
    landed = [[] for _ in range(nodes)]

    def submit_all(node):  # one thread per node, as one loop per server
        def done(state, error):
            landed[node].append((state["journal_offset"], error))

        for offset in range(1, offsets + 1):
            if writer.submit(journals[node], {"journal_offset": offset},
                             done):
                queued[node] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=submit_all, args=(node,))
                   for node in range(nodes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        writer.drained().result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        writer.stop()
    for node, journal in enumerate(journals):
        assert journal.written == sorted(set(journal.written))
        assert journal.written[-1] == offsets
        assert landed[node] == [(offset, None) for offset in journal.written]
        assert len(landed[node]) == queued[node]
        assert writer.pending(node) == 0


def test_cancelled_drain_wait_leaves_the_writer_running():
    """A waiter that gives up on :meth:`CheckpointWriter.drained` (a
    handler cancelled mid-wait) must not take the writer thread down
    with it: later writes still land."""
    started = threading.Event()
    release = threading.Event()

    class GatedJournal:
        node_id = 1

        def __init__(self):
            self.written = []

        def write_checkpoint(self, state):
            started.set()
            release.wait(timeout=10)
            self.written.append(state["journal_offset"])

    journal = GatedJournal()
    writer = CheckpointWriter()
    try:
        writer.submit(journal, {"journal_offset": 1}, lambda s, e: None)
        # Write 1 must be in flight: a still-waiting job would take the
        # second submit's state in place (the writer's coalescing).
        assert started.wait(timeout=10)
        abandoned = writer.drained()
        assert abandoned.cancel()
        release.set()
        writer.submit(journal, {"journal_offset": 2}, lambda s, e: None)
        writer.drained().result(timeout=10)
    finally:
        release.set()
        writer.stop()
    assert journal.written == [1, 2]


# -- mid-stream snapshots ----------------------------------------------------


def test_mid_stream_checkpoint_restores_bit_identical(blink, offline):
    """The checkpoint file's bytes (decoder snapshot + accumulator
    state), decoded at arbitrary cut points, resume to the exact
    offline map — float bits and key order."""
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    for cut in (0, 5, 600, len(raw) // 2 + 7, len(raw) - 1):
        session = NodeSession(hello, retain=64)
        session.ingest(raw[:cut])
        state = decode_checkpoint(frame_checkpoint(
            session.checkpoint_state()["payload"]))
        resumed = NodeSession(hello, retain=64)
        resumed.load_state(state)
        resumed.ingest(raw[cut:])
        assert_maps_identical(resumed.finish(), offline)
        assert resumed.bytes_received == len(raw)


def test_restore_from_journal_without_checkpoint(tmp_path, blink, offline):
    """No checkpoint at all: restore replays the whole journal."""
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    cut = 629  # mid-entry
    journal = NodeJournal(tmp_path, 1)
    journal.create(hello)
    for at in range(0, cut, 113):
        journal.append_chunk(raw[at:min(at + 113, cut)])
    journal.close()
    session = NodeSession.restore(tmp_path, 1, retain=64)
    assert session.state == "suspended"
    assert session.bytes_received == cut
    assert session.decoder.pending_bytes == cut % 12
    session.ingest(raw[cut:])
    assert_maps_identical(session.finish(), offline)
    session.journal.close()


class _Tripwire:
    """Unpickling this creates ``path``: proof a pickle was executed."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (Path(self.path),))


def test_schema_1_checkpoint_is_ignored(tmp_path, blink, offline):
    """A checkpoint of an older schema (1 and 2 were pickles) is
    recognized by its magic and never decoded: restore replays the whole
    journal to the same map byte for byte, and the next checkpoint it
    writes is schema 3.  The old payloads here are pickles that would
    create a marker file if anything unpickled them."""
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    cut = 600
    armed = tmp_path / "armed"
    pickle.loads(pickle.dumps(_Tripwire(armed)))
    assert armed.exists()  # the trap works when a pickle is loaded
    marker = tmp_path / "executed"
    for schema in (1, 2):
        state_dir = tmp_path / f"schema-{schema}"
        journal = NodeJournal(state_dir, 1)
        journal.create(hello)
        journal.append_chunk(raw[:cut])
        journal.close()
        decoder = WireDecoder()
        decoder.feed(raw[:cut])
        payload = pickle.dumps({
            "schema": schema, "node_id": 1, "journal_offset": cut,
            "decoder": decoder.snapshot(),
            "accumulator": _Tripwire(marker), "complete": False})
        journal.checkpoint_path.write_bytes(
            b"QCKP" + bytes((schema, 0, 0, 0))
            + struct.pack("<II", len(payload), zlib.crc32(payload))
            + payload)

        session = NodeSession.restore(state_dir, 1, retain=64)
        assert not marker.exists()
        assert session.state == "suspended"
        assert session.durable_bytes == 0  # the full journal replayed
        assert session.bytes_received == cut
        journal.write_checkpoint(session.checkpoint_state())
        assert journal.checkpoint_path.read_bytes().startswith(
            CHECKPOINT_MAGIC)
        assert journal.load_checkpoint()["journal_offset"] == cut
        session.ingest(raw[cut:])
        assert_maps_identical(session.finish(), offline)
        session.journal.close()
        again = NodeSession.restore(state_dir, 1, retain=64)
        assert again.durable_bytes == cut  # the schema-3 one loaded
        again.ingest(raw[cut:])
        assert_maps_identical(again.finish(), offline)
        again.journal.close()
    assert not marker.exists()


def test_corrupt_checkpoints_raise_and_fall_back_to_replay(tmp_path, blink,
                                                          offline):
    """CRC-clean checkpoints whose accumulator snapshot does not hold
    together — a truncated array section, an array table whose lengths
    disagree with the bytes after it, window rows that disagree with
    their counts — raise WindowingError when loaded, a wrong magic
    raises ServeError when decoded, and restore falls back to replaying
    the whole journal, to the same map."""
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    cut = len(raw) // 2
    session = NodeSession(hello, retain=64)
    session.ingest(raw[:cut])
    intact = decode_checkpoint(frame_checkpoint(
        session.checkpoint_state()["payload"]))
    snapshot = intact.pop("accumulator")
    text_end = 4 + struct.unpack_from("<I", snapshot)[0]
    state = json.loads(snapshot[4:text_end])

    def accumulator(**changes) -> bytes:
        text = json.dumps(dict(state, **changes)).encode()
        text += b" " * (-(4 + len(text)) % 8)
        payload = encode_checkpoint(intact, struct.pack("<I", len(text))
                                    + text + snapshot[text_end:])
        return frame_checkpoint(payload)

    arrays = state["arrays"]
    windows = state["windows"]
    cases = {
        "truncated section": frame_checkpoint(encode_checkpoint(
            intact, snapshot[:-8])),
        "longer table": accumulator(arrays=[
            [arrays[0][0], arrays[0][1] + 64]] + arrays[1:]),
        "shorter table": accumulator(arrays=arrays[:-1]),
        "trailing bytes": frame_checkpoint(encode_checkpoint(
            intact, snapshot + bytes(8))),
        "rows disagree": accumulator(windows=[
            windows[0], list(reversed(windows[1]))]),
        "wrong magic": b"QCKP\x09\x00\x00\x00" + frame_checkpoint(
            encode_checkpoint(intact, snapshot))[8:],
    }
    NodeSession(hello, retain=64).load_state(decode_checkpoint(
        accumulator()))  # the intact one loads
    for name, blob in cases.items():
        with pytest.raises(ServeError if name == "wrong magic"
                           else WindowingError):
            NodeSession(hello, retain=64).load_state(
                decode_checkpoint(blob))
        state_dir = tmp_path / name.replace(" ", "-")
        journal = NodeJournal(state_dir, 1)
        journal.create(hello)
        journal.append_chunk(raw[:cut])
        journal.close()
        journal.checkpoint_path.write_bytes(blob)
        restored = NodeSession.restore(state_dir, 1, retain=64)
        assert restored.durable_bytes == 0, name  # full replay
        assert restored.bytes_received == cut
        restored.ingest(raw[cut:])
        assert_maps_identical(restored.finish(), offline)
        restored.journal.close()


# -- crash, restart, resume --------------------------------------------------


def test_crash_restore_resumes_bit_identical(tmp_path, blink, offline):
    """The tentpole, in-process: a server that dies mid-stream (handler
    tasks stop existing, no shutdown path runs) restarts from its state
    dir into the journaled offset; a corrupt checkpoint degrades to
    full-journal replay; the resumed stream's map is byte-identical."""
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    cut = 629  # mid-entry, past two 256-byte checkpoint cadences

    async def scenario():
        server_a = IngestServer(state_dir=state_dir, checkpoint_bytes=256)
        await server_a.start_unix(sock_path)
        reader, writer, handshake = await _ack_hello_prefix(
            sock_path, hello, b"")
        assert handshake == {"ok": True, "node_id": 1, "offset": 0,
                             "resumed": False}
        for at in range(0, cut, 97):  # paced: chunks journal separately
            writer.write(raw[at:min(at + 97, cut)])
            await writer.drain()
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.2)  # let the consumer drain everything

        # "SIGKILL": cancel the handlers outright and drop the
        # listeners — no suspend, no parting checkpoint, no reply.
        for task in list(server_a._handlers):
            task.cancel()
        await asyncio.gather(*server_a._handlers, return_exceptions=True)
        for listener in server_a._servers:
            listener.close()
            await listener.wait_closed()
        writer.close()

        # The on-disk truth: a cadence checkpoint strictly mid-prefix,
        # so the restore exercises checkpoint + journal-tail replay.
        ckpt = NodeJournal(state_dir, 1).load_checkpoint()
        assert 0 < ckpt["journal_offset"] < cut

        server_b = IngestServer(state_dir=state_dir, checkpoint_bytes=256)
        assert server_b.restored == 1
        session = server_b.sessions[1]
        assert session.state == "suspended"
        assert session.bytes_received == cut
        await server_b.close()

        # Corrupt the checkpoint: restore falls back to full replay and
        # lands on the identical state.
        ckpt_path = Path(state_dir) / "node-1.ckpt"
        ckpt_path.write_bytes(b"QCKP" + os.urandom(40))
        server_c = IngestServer(state_dir=state_dir, checkpoint_bytes=256)
        assert server_c.sessions[1].state == "suspended"
        assert server_c.sessions[1].bytes_received == cut
        await server_c.start_unix(sock_path)
        try:
            reply = await stream_raw(sock_path, hello, raw,
                                     chunk_size=113, retries=0)
        finally:
            await server_c.close()
        return reply

    reply = asyncio.run(scenario())
    assert reply["ok"]
    assert reply["client"]["resumed_from"] == cut
    assert reply["client"]["reconnects"] == 0
    assert_maps_identical(final_map(reply), offline)


def test_restored_completed_stream_redelivers(tmp_path, blink, offline):
    """A stream that finished before the crash restores as done, counts
    as concluded, and a reconnecting client gets the stored final map
    without re-streaming a byte."""
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())

    async def scenario():
        server_a = IngestServer(state_dir=state_dir)
        await server_a.start_unix(sock_path)
        first = await stream_raw(sock_path, hello, raw, retries=0)
        await server_a.close()

        server_b = IngestServer(state_dir=state_dir)
        assert server_b.restored == 1 and server_b.completed == 1
        assert server_b.sessions[1].state == "done"
        assert server_b._answer({"cmd": "stats"})["restored"] == 1
        await server_b.start_unix(sock_path)
        try:
            again = await stream_raw(sock_path, hello, raw, retries=0)
            # Restoring and redelivering write nothing: no writer thread.
            assert server_b._writer is None
        finally:
            await server_b.close()
        return first, again

    first, again = asyncio.run(scenario())
    assert first["ok"] and again["ok"]
    assert again["client"]["resumed_from"] == len(raw)  # nothing re-sent
    assert again["entries"] == first["entries"]
    assert_maps_identical(final_map(again), offline)
    assert_maps_identical(final_map(first), offline)


def test_graceful_shutdown_suspends_resumable_stream(tmp_path, blink,
                                                     offline):
    """A resume-capable client caught mid-frame by a graceful shutdown
    is parked (suspended + checkpointed) and told to retry — not failed
    like the legacy protocol — and the restarted server finishes it."""
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    prefix = 1207  # 100 entries + 7 torn bytes: mid-frame on purpose

    async def scenario():
        server = IngestServer(state_dir=state_dir)
        await server.start_unix(sock_path)
        serve_task = asyncio.ensure_future(server.serve_forever())
        reader, writer, _ = await _ack_hello_prefix(
            sock_path, hello, raw[:prefix])
        await asyncio.sleep(0.1)  # let the prefix land
        server.request_shutdown()
        await serve_task
        parting = await _final_reply(reader)
        writer.close()
        session = server.sessions[1]
        assert session.state == "suspended"
        assert parting == {"ok": False, "node_id": 1, "retry": True,
                           "error": "server shutting down mid-stream"}
        await server.close()

        server_b = IngestServer(state_dir=state_dir)
        assert server_b.sessions[1].bytes_received == prefix
        await server_b.start_unix(sock_path)
        try:
            reply = await stream_raw(sock_path, hello, raw, retries=0)
        finally:
            await server_b.close()
        return reply

    reply = asyncio.run(scenario())
    assert reply["ok"] and reply["client"]["resumed_from"] == prefix
    assert_maps_identical(final_map(reply), offline)


# -- the background checkpoint writer ----------------------------------------


def _slow_checkpoints(monkeypatch, delay_s):
    """Make every checkpoint write take ``delay_s`` longer: the shape of
    a slow disk answering the writer thread's fsync."""
    real = NodeJournal.write_checkpoint

    def slow(self, state):
        time.sleep(delay_s)
        real(self, state)

    monkeypatch.setattr(NodeJournal, "write_checkpoint", slow)


def _failing_checkpoints(monkeypatch, when):
    """Make checkpoint writes whose state satisfies ``when`` raise; the
    returned event is set as the first one raises."""
    real = NodeJournal.write_checkpoint
    raised = threading.Event()

    def failing(self, state):
        if when(state):
            raised.set()
            raise OSError(errno.EIO, "injected checkpoint write failure")
        real(self, state)

    monkeypatch.setattr(NodeJournal, "write_checkpoint", failing)
    return raised


def _crash(server):
    """In-process SIGKILL: handlers and listeners stop existing; no
    suspend, no parting checkpoint, no reply, no drain."""

    async def crash():
        for task in list(server._handlers):
            task.cancel()
        await asyncio.gather(*server._handlers, return_exceptions=True)
        for listener in server._servers:
            listener.close()
            await listener.wait_closed()

    return crash()


async def _until(predicate, timeout_s=10.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition never held"
        await asyncio.sleep(0.01)


def test_stale_checkpoint_is_never_restored(tmp_path, blink, offline,
                                            monkeypatch):
    """A node re-streamed while its previous stream's final checkpoint
    is still being written: the journal is recreated (and the stale
    checkpoint removed) only after that write lands.  Were the removal
    not ordered behind it, the late write would land beside the new
    journal, and a crash past its offset would restore the previous
    stream's accumulator into this one."""
    _slow_checkpoints(monkeypatch, 0.3)
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    # Its own world (node 9), streamed under node 1's id.
    short, _app, _sim = run_blink(seed=5, duration_ns=seconds(2), node_id=9)
    short_hello = dict(hello_for_node(short, stride_ns=int(seconds(1))),
                       node_id=1)
    short_raw = bytes(short.logger.raw_bytes())
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    cut = 900  # past the short stream's final offset, mid-entry
    assert len(short_raw) < cut < len(raw)

    async def scenario():
        # No cadence checkpoints: only the short stream's final one.
        server_a = IngestServer(state_dir=state_dir,
                                checkpoint_bytes=1 << 30)
        await server_a.start_unix(sock_path)
        first = await stream_raw(sock_path, short_hello, short_raw,
                                 retries=0)
        assert first["ok"]
        finished = server_a.sessions[1]
        assert finished.pending_writes == 1  # final write still landing

        # Re-stream node 1 at once (the legacy hello starts afresh).
        reader, writer = await asyncio.open_unix_connection(sock_path)
        writer.write(INGEST_VERB.encode() + b" " + encode_json_line(hello))
        writer.write(raw[:cut])
        await writer.drain()
        await _until(lambda: server_a.sessions[1] is not finished
                     and server_a.sessions[1].bytes_received == cut
                     and not server_a._writer.pending(1))
        await _crash(server_a)
        writer.close()

        server_b = IngestServer(state_dir=state_dir)
        session = server_b.sessions[1]
        assert session.state == "suspended", session.error
        assert session.bytes_received == cut
        await server_b.start_unix(sock_path)
        try:
            reply = await stream_raw(sock_path, hello, raw, retries=0)
        finally:
            await server_b.close()
            await server_a.close()  # the dead server's files and thread
        return reply

    reply = asyncio.run(scenario())
    assert reply["client"]["resumed_from"] == cut
    assert_maps_identical(final_map(reply), offline)


@pytest.mark.parametrize("surfaces_at", ["handoff", "finalize"])
def test_failed_mid_stream_write_fails_the_stream(tmp_path, blink,
                                                  monkeypatch, surfaces_at):
    """A mid-stream checkpoint write that raises on the writer thread
    fails the stream, as an inline write did: at the session's next
    checkpoint hand-off, or at its end when no hand-off follows.  The
    client holds its next chunk (or the end of stream) until the failure
    has reached the loop: a failure still in flight at the end of stream
    is counted, not raised (see ``IngestServer._finalize``)."""
    raised = _failing_checkpoints(monkeypatch,
                                  lambda state: not state["complete"])
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    # "finalize": one cadence checkpoint, in the stream's last chunk.
    cadence = 256 if surfaces_at == "handoff" else len(raw) - 50
    server = None

    async def paced(sent, _total):
        if sent >= cadence and not server.failed_writes:
            # The failing write is handed off: wait until it raised on
            # the writer thread and its failure landed on the loop.
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, raised.wait, 10.0)
            await _until(lambda: server.failed_writes)
        await asyncio.sleep(0.02)  # the server reads one chunk at a time

    async def scenario():
        nonlocal server
        server = IngestServer(state_dir=str(tmp_path / "state"),
                              checkpoint_bytes=cadence)
        await server.start_unix(sock_path)
        try:
            # Mid-stream the server stops reading and the client sees
            # the connection drop; at the end it gets the error reply.
            with pytest.raises(ServeError):
                await stream_raw(sock_path, hello, raw, chunk_size=97,
                                 on_chunk=paced, retries=0)
        finally:
            await server.close()
        return server

    server = asyncio.run(scenario())
    session = server.sessions[1]
    assert session.state == "error"
    assert "injected checkpoint write failure" in session.error
    assert session.final_map is None  # nothing was folded
    stats = server._answer({"cmd": "stats"})
    assert stats["checkpoint_failed"] == session.failed_writes >= 1
    if surfaces_at == "handoff":
        assert session.bytes_received < len(raw)  # stopped mid-stream
    else:
        assert session.failed_writes == 1
        assert session.bytes_received == len(raw)


def test_failed_final_write_is_counted(tmp_path, blink, offline,
                                       monkeypatch):
    """The final reply does not wait on the final checkpoint, so its
    failure cannot fail the stream: it is counted, and a restart
    replays the journal past the completion record to the same map."""
    _failing_checkpoints(monkeypatch, lambda state: state["complete"])
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())

    async def scenario():
        # No cadence checkpoints: the final one is the only write.
        server = IngestServer(state_dir=state_dir,
                              checkpoint_bytes=1 << 30)
        await server.start_unix(sock_path)
        try:
            reply = await stream_raw(sock_path, hello, raw, retries=0)
        finally:
            await server.close()
        return server, reply

    server, reply = asyncio.run(scenario())
    assert_maps_identical(final_map(reply), offline)
    (node,) = server._answer({"cmd": "nodes"})["nodes"]
    assert node["state"] == "done"
    assert node["checkpoint_failed"] == 1
    assert node["checkpoint_pending"] == 0
    assert node["checkpoint_lag_bytes"] == len(raw)  # nothing landed
    assert server._answer({"cmd": "stats"})["checkpoint_failed"] == 1

    restored = IngestServer(state_dir=state_dir)
    assert restored.sessions[1].state == "done"
    assert_maps_identical(restored.sessions[1].final_map, offline)
    restored.sessions[1].journal.close()


def test_checkpoint_lag_reads_zero_after_a_clean_stream(tmp_path, blink,
                                                        monkeypatch):
    """``stats`` and ``nodes`` report bytes past the newest landed
    checkpoint, pending writes and failed writes; after a clean stream
    and a drained writer all three are 0.  ``close`` drains: the final
    checkpoint is on disk when it returns, however slow the disk."""
    _slow_checkpoints(monkeypatch, 0.05)
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())

    async def scenario():
        server = IngestServer(state_dir=state_dir, checkpoint_bytes=256)
        await server.start_unix(sock_path)
        try:
            reply = await stream_raw(sock_path, hello, raw, retries=0)
            assert reply["ok"]
        finally:
            await server.close()
        return server

    server = asyncio.run(scenario())
    stats = server._answer({"cmd": "stats"})
    (node,) = server._answer({"cmd": "nodes"})["nodes"]
    for view in (stats, node):
        assert view["checkpoint_lag_bytes"] == 0
        assert view["checkpoint_pending"] == 0
        assert view["checkpoint_failed"] == 0
    ckpt = NodeJournal(state_dir, 1).load_checkpoint()
    assert ckpt["complete"] and ckpt["journal_offset"] == len(raw)
    assert server._writer is None  # close stopped the thread


def test_shutdown_lands_parting_checkpoints(tmp_path, blink, monkeypatch):
    """``shutdown`` returns only once its parting checkpoints are on
    disk, so a restart resumes exactly where the stream was parked."""
    _slow_checkpoints(monkeypatch, 0.2)
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    raw = bytes(blink.logger.raw_bytes())
    prefix = 1207  # mid-frame: the stream is parked, not finished

    async def scenario():
        server = IngestServer(state_dir=state_dir)
        await server.start_unix(sock_path)
        reader, writer, _ = await _ack_hello_prefix(
            sock_path, hello, raw[:prefix])
        await _until(lambda: server.sessions[1].bytes_received == prefix)
        await server.shutdown()
        offset = NodeJournal(state_dir, 1).load_checkpoint()[
            "journal_offset"]
        await server.close()
        writer.close()
        return server, offset

    server, offset = asyncio.run(scenario())
    session = server.sessions[1]
    assert session.state == "suspended"
    assert offset == session.bytes_received == prefix
    assert NodeJournal(state_dir, 1).load_checkpoint()[
        "journal_offset"] == session.bytes_received


# -- degradation: quarantine and shedding ------------------------------------


def test_quarantine_isolates_one_malformed_stream(tmp_path, blink, blink2,
                                                  offline, monkeypatch):
    """A stream whose content breaks accounting quarantines that node —
    journal preserved, marker written, reconnects refused — while other
    nodes stream to byte-identical maps and a restart carries the
    quarantine forward."""
    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello1 = hello_for_node(blink, stride_ns=int(seconds(1)))
    hello2 = hello_for_node(blink2, stride_ns=int(seconds(1)))
    raw1 = bytes(blink.logger.raw_bytes())
    raw2 = bytes(blink2.logger.raw_bytes())

    real_ingest = NodeSession.ingest

    def poisoned(self, chunk):
        if self.node_id == 2:
            raise ValueError("synthetic decode corruption")
        real_ingest(self, chunk)

    monkeypatch.setattr(NodeSession, "ingest", poisoned)

    async def scenario():
        server = IngestServer(state_dir=state_dir)
        await server.start_unix(sock_path)
        try:
            good = await stream_raw(sock_path, hello1, raw1, retries=0)
            with pytest.raises(ServeError, match="malformed") as info:
                await stream_raw(sock_path, hello2, raw2,
                                 chunk_size=257, retries=3)
            assert not getattr(info.value, "retryable", False)
            # A reconnect is refused outright, journal left for
            # postmortem.
            with pytest.raises(ServeError, match="quarantined"):
                await stream_raw(sock_path, hello2, raw2, retries=0)
        finally:
            await server.close()
        return good, server

    good, server = asyncio.run(scenario())
    assert good["ok"]
    assert_maps_identical(final_map(good), offline)
    assert server.sessions[2].state == "quarantined"

    marker = Path(state_dir) / "node-2.quarantine"
    assert "malformed" in json.loads(marker.read_text())["error"]
    journal_blob = (Path(state_dir) / "node-2.waj").read_bytes()
    assert journal_blob.startswith(JOURNAL_MAGIC)
    assert len(journal_blob) > len(JOURNAL_MAGIC)  # streamed prefix kept

    # Restart: node 1 is done, node 2 still quarantined, both concluded.
    server_b = IngestServer(state_dir=state_dir)
    assert server_b.restored == 2 and server_b.completed == 2
    assert server_b.sessions[1].state == "done"
    assert server_b.sessions[2].state == "quarantined"


def test_undeclared_device_stream_is_quarantined(tmp_path, blink,
                                                offline):
    """A stream naming an activity device its hello did not declare is
    malformed content: the node is quarantined with its journal kept,
    and the server still serves the next node."""
    from repro.tos.node import RES_LED0

    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    short = dict(hello, node_id=54, single_res_ids=[
        rid for rid in hello["single_res_ids"] if rid != RES_LED0])
    raw = bytes(blink.logger.raw_bytes())

    async def scenario():
        server = IngestServer(state_dir=state_dir)
        await server.start_unix(sock_path)
        try:
            with pytest.raises(ServeError, match="did not declare"):
                await stream_raw(sock_path, short, raw, retries=0)
            good = await stream_raw(sock_path, hello, raw, retries=0)
        finally:
            await server.close()
        return server, good

    server, good = asyncio.run(scenario())
    assert server.sessions[54].state == "quarantined"
    assert (Path(state_dir) / "node-54.quarantine").exists()
    journal_blob = (Path(state_dir) / "node-54.waj").read_bytes()
    assert len(journal_blob) > len(JOURNAL_MAGIC) + len(raw)
    assert_maps_identical(final_map(good), offline)


@pytest.mark.parametrize("reader", ["checkpoint", "query"])
def test_undeclared_device_quarantines_before_any_fold(tmp_path, blink,
                                                       reader):
    """The undeclared record is refused when its chunk is fed, not when
    its batch is folded: checkpoints after every chunk, or ``nodes``
    and ``breakdown`` queries between chunks, fold the buffered rows
    mid-stream without failing, and the node ends quarantined — never
    ``error``, never ``done``."""
    from repro.serve.client import query
    from repro.tos.node import RES_LED0

    state_dir = str(tmp_path / "state")
    sock_path = str(tmp_path / "ingest.sock")
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    short = dict(hello, node_id=54, single_res_ids=[
        rid for rid in hello["single_res_ids"] if rid != RES_LED0])
    raw = bytes(blink.logger.raw_bytes())
    replies = []

    async def paced(_sent, _total):
        await asyncio.sleep(0.02)  # the server takes the chunk
        if reader == "query":
            for payload in ({"cmd": "nodes"},
                            {"cmd": "breakdown", "node_id": 54}):
                replies.append(await query(sock_path, payload))

    async def scenario():
        server = IngestServer(state_dir=state_dir, checkpoint_bytes=(
            1 if reader == "checkpoint" else 1 << 20))
        await server.start_unix(sock_path)
        try:
            with pytest.raises(ServeError):
                await stream_raw(sock_path, short, raw, chunk_size=97,
                                 on_chunk=paced, retries=0)
        finally:
            await server.close()
        return server

    server = asyncio.run(scenario())
    session = server.sessions[54]
    assert session.state == "quarantined"
    assert "did not declare" in session.error
    assert (Path(state_dir) / "node-54.quarantine").exists()
    if reader == "query":
        assert replies and all(reply["ok"] for reply in replies)
        assert all(reply["state"] != "done" for reply in replies
                   if "state" in reply)


#: Bad hello fields: each is refused with one ok-false reply and
#: nothing journaled.  A callable derives the bad value from the good.
BAD_HELLO_FIELDS = [
    ("node_id", "x"), ("node_id", -1), ("node_id", True),
    ("stride_ns", "x"), ("stride_ns", 0), ("stride_ns", 1.5),
    ("energy_per_pulse_j", "x"), ("energy_per_pulse_j", 0.0),
    ("energy_per_pulse_j", float("inf")),
    ("end_time_ns", "x"), ("origin_ns", 2.5),
    ("single_res_ids", [300]), ("single_res_ids", None),
    ("multi_res_ids", "9"), ("multi_res_ids", [-1]),
    ("component_names", ["CPU"]), ("component_names", {"cpu": "CPU"}),
    ("idle_name", 7), ("registry", {"1": 2}), ("regression", {}),
    ("regression", lambda reg: dict(reg, power_w={})),
    ("single_res_ids", KeyError),   # missing
]


def _refused(tmp_path, blink, hello, wrong):
    """Send the ``wrong`` hello to a journaling server, then stream
    ``hello``'s log: the replies to the wrong one, the state dir's
    files right after it, and the good stream's final reply."""
    state_dir = tmp_path / "state"
    sock_path = str(tmp_path / "ingest.sock")
    raw = bytes(blink.logger.raw_bytes())

    async def scenario():
        server = IngestServer(state_dir=str(state_dir))
        await server.start_unix(sock_path)
        try:
            reader, writer = await asyncio.open_unix_connection(sock_path)
            writer.write(INGEST_VERB.encode() + b" "
                         + encode_json_line(wrong))
            await writer.drain()
            replies = (await asyncio.wait_for(reader.read(), 10)
                       ).splitlines()
            writer.close()
            journaled = sorted(path.name for path in state_dir.glob("*"))
            good = await stream_raw(sock_path, hello, raw, retries=0)
        finally:
            await server.close()
        return replies, journaled, good

    return asyncio.run(scenario())


@pytest.mark.parametrize("field, bad", BAD_HELLO_FIELDS,
                         ids=[f"{field}-{i}" for i, (field, _)
                              in enumerate(BAD_HELLO_FIELDS)])
def test_malformed_hello_is_refused_before_journaling(tmp_path, blink,
                                                      offline, field, bad):
    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    wrong = dict(hello, node_id=54)
    if bad is KeyError:
        del wrong[field]
    else:
        wrong[field] = bad(hello[field]) if callable(bad) else bad
    replies, journaled, good = _refused(tmp_path, blink, hello, wrong)
    assert len(replies) == 1
    reply = json.loads(replies[0])
    assert reply["ok"] is False and field in reply["error"]
    assert journaled == []
    assert_maps_identical(final_map(good), offline)


def test_journal_with_malformed_hello_does_not_stop_restore(tmp_path,
                                                            blink, blink2):
    """A journal whose hello no session can be built from (an older
    server journaled it) is skipped like a headerless one; the other
    nodes restore."""
    state_dir = str(tmp_path / "state")
    raw = bytes(blink2.logger.raw_bytes())
    for node, bad in ((blink, {"energy_per_pulse_j": "x"}), (blink2, {})):
        journal = NodeJournal(state_dir, node.node_id)
        journal.create(dict(hello_for_node(node, stride_ns=int(seconds(1))),
                            **bad))
        journal.append_chunk(raw)
        journal.close()
    server = IngestServer(state_dir=state_dir)
    assert sorted(server.sessions) == [2]
    assert server.sessions[2].state == "suspended"


def test_session_build_error_is_one_refusal(tmp_path, blink, offline,
                                            monkeypatch):
    """Whatever fails while a session is built from a hello that passes
    :func:`check_hello`, the live client gets one ok-false reply with
    nothing journaled, and a journal holding that hello is skipped on
    restore instead of stopping the server."""
    import repro.serve.server as server_module

    hello = hello_for_node(blink, stride_ns=int(seconds(1)))
    wrong = dict(hello, node_id=54, stride_ns=hello["stride_ns"] + 1)
    real = server_module.WindowedAccumulator

    def accumulator(*args, **kwargs):
        if kwargs["stride_ns"] == wrong["stride_ns"]:
            raise ValueError("synthetic build failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(server_module, "WindowedAccumulator", accumulator)
    replies, journaled, good = _refused(tmp_path, blink, hello, wrong)
    assert [json.loads(line)["ok"] for line in replies] == [False]
    assert "synthetic build failure" in replies[0].decode()
    assert journaled == []
    assert_maps_identical(final_map(good), offline)

    state_dir = str(tmp_path / "restored")
    journal = NodeJournal(state_dir, 54)
    journal.create(wrong)
    journal.close()
    assert IngestServer(state_dir=state_dir).sessions == {}


def test_overload_sheds_with_retryable_nack(tmp_path, blink, blink2,
                                            offline):
    """Past ``max_streams`` the server NACKs new nodes with an explicit
    retryable shed — and a backing-off client gets in once a slot
    frees."""
    sock_path = str(tmp_path / "ingest.sock")
    hello1 = hello_for_node(blink, stride_ns=int(seconds(1)))
    hello2 = hello_for_node(blink2, stride_ns=int(seconds(1)))
    raw1 = bytes(blink.logger.raw_bytes())
    raw2 = bytes(blink2.logger.raw_bytes())

    async def scenario():
        server = IngestServer(max_streams=1)
        await server.start_unix(sock_path)
        try:
            reader1, writer1, _ = await _ack_hello_prefix(
                sock_path, hello1, raw1[:480])
            await asyncio.sleep(0.05)  # node 1 is attached now
            with pytest.raises(ServeError, match="overloaded") as info:
                await stream_raw(sock_path, hello2, raw2, retries=0)
            assert info.value.retryable
            # With a retry budget the shed is survivable: finish node 1
            # while node 2 backs off.
            task2 = asyncio.ensure_future(
                stream_raw(sock_path, hello2, raw2, retries=8))
            await asyncio.sleep(0.02)
            writer1.write(raw1[480:])
            writer1.write_eof()
            reply1 = await _final_reply(reader1)
            writer1.close()
            reply2 = await task2
        finally:
            await server.close()
        return reply1, reply2

    reply1, reply2 = asyncio.run(scenario())
    assert reply1["ok"] and reply2["ok"]
    assert reply2["client"]["reconnects"] >= 1
    assert_maps_identical(final_map(reply1), offline)


@pytest.mark.parametrize("flag, value, message", [
    ("retain", -1, "retention must be at least 0"),
    ("max_streams", 0, "stream cap must be at least 1"),
    ("max_streams", -3, "stream cap must be at least 1"),
])
def test_server_rejects_limits_that_break_every_stream(flag, value, message,
                                                       capsys):
    """A negative retention would kill every ingest in ``deque(maxlen=)``
    and a zero stream cap would shed every node: both are refused at
    construction, and ``repro serve`` exits 2 naming the limit."""
    from repro.cli import main

    with pytest.raises(ServeError, match=message):
        IngestServer(**{flag: value})
    option = "--" + flag.replace("_", "-")
    assert main(["serve", option, str(value)]) == 2
    assert message in capsys.readouterr().err


# -- typed client errors -----------------------------------------------------


def test_stream_to_a_missing_server_is_a_typed_error(tmp_path, blink):
    nowhere = str(tmp_path / "nowhere.sock")
    with pytest.raises(ServeError, match="node 1"):
        asyncio.run(stream_node(nowhere, blink, stride_ns=int(seconds(1)),
                                retries=0))


def test_connection_reset_becomes_serve_error_naming_the_node(tmp_path,
                                                              blink):
    """A server that drops the socket mid-protocol surfaces as a typed
    ServeError carrying the node id — never a bare OSError."""
    path = str(tmp_path / "rude.sock")
    listener = socket.socket(socket.AF_UNIX)
    listener.bind(path)
    listener.listen(1)

    def slam_the_door():
        conn, _ = listener.accept()
        conn.recv(64)
        conn.close()
        listener.close()

    thread = threading.Thread(target=slam_the_door, daemon=True)
    thread.start()
    try:
        with pytest.raises(ServeError, match="node 1"):
            asyncio.run(stream_node(path, blink, stride_ns=int(seconds(1)),
                                    retries=0))
    finally:
        thread.join(timeout=5)


# -- the CLI exit-code contract ----------------------------------------------


def test_expect_nodes_exits_nonzero_on_a_failed_node(tmp_path, blink):
    """`repro serve --expect-nodes N` must fail loudly when a node
    concluded in a failed state, not just when one never arrived."""
    import subprocess
    import sys

    sock_path = str(tmp_path / "ingest.sock")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", f"unix:{sock_path}", "--expect-nodes", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        assert "listening on" in proc.stdout.readline()
        hello = hello_for_node(blink, stride_ns=int(seconds(1)))
        raw = bytes(blink.logger.raw_bytes())[:-5]  # torn log
        with pytest.raises(ServeError, match="partial entry"):
            asyncio.run(stream_raw(sock_path, hello, raw, resume=False))
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 1
    assert "node 1 ended error" in out
