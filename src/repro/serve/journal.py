"""Per-node write-ahead journal + checkpoint store for the ingest server.

Durability contract: every raw wire chunk is appended here — framed
length + CRC — **before** it enters the decoder, so the journal is
always at or ahead of the in-memory accounting state.  A checkpoint
(written atomically: tmp + ``os.replace``) holds the
:class:`~repro.core.logger.WireDecoder` unwrap state and the
:class:`~repro.core.accounting.WindowedAccumulator` state at a known
journal offset.  Restart = load the newest valid checkpoint, replay the
journal's payload tail through the same decode→window path; the result
is bit-identical to an uninterrupted run.

A checkpoint is data, never code (schema 3, :func:`encode_checkpoint`):
magic, payload length and CRC, then a small JSON header (journal
offset, completion flag, decoder snapshot) and the accumulator's own
snapshot, itself a JSON header plus raw little-endian arrays.
Checkpoints of older schemas (pickles) are recognized by their magic
and never decoded.

Checkpoints are written off the event loop.  The server encodes the
checkpoint on the loop (one consistent cut of the stream) and hands the
bytes to its one :class:`CheckpointWriter` thread, which frames, writes,
fsyncs and renames them in submission order while decode, accounting
and queries carry on (``fsync`` releases the GIL).  Journal appends
stay on the loop and flushed, so an ack still means "journaled".  A write still in flight when the process dies
is harmless: the previous checkpoint stays in place, and restore replays
the journal from it to the same state.  :meth:`NodeJournal.create`
removes a stale checkpoint, so the server calls it only once every
write still pending for that node has landed; otherwise a late write of
the previous stream could be restored into the new one.

Torn tails are expected, not fatal: a SIGKILL mid-append leaves a short
or CRC-failing record at the end of the journal, and the scan simply
stops at the last whole record.  Reopening for append truncates the
torn bytes first so new records land on a clean boundary (the sweep
cache's ``ShardStore`` appends by the same rule).  A corrupt checkpoint
is discarded (full-journal replay covers it); only a corrupt journal
*header* makes a node unrecoverable.

State-dir layout, one node per journal::

    state-dir/
      node-7.waj          # WAL: magic, hello record, chunk records
      node-7.ckpt         # newest checkpoint (atomic replace)
      node-7.ckpt.tmp     # only while a write is in flight (or died)
      node-7.quarantine   # only if quarantined: the error, journal kept

Record framing: ``kind u8 | length u32 | crc32 u32`` then payload.
Kinds: hello (JSON, exactly one, first), chunk (raw wire bytes),
complete (JSON summary, marks a cleanly finished stream).
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import zlib
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.errors import ServeError
from repro.sim.faultinject import fire

JOURNAL_MAGIC = b"QWAJ\x01\x00\x00\x00"

#: Checkpoint layout version, carried in the magic.  Schema 3 is JSON
#: headers plus raw little-endian arrays: nothing in it is executable on
#: load.  A checkpoint of any other schema (1 and 2 were pickles) is
#: recognized by its magic and never decoded; restore replays the full
#: journal instead.
CHECKPOINT_SCHEMA = 3
CHECKPOINT_MAGIC = b"QCKP" + bytes((CHECKPOINT_SCHEMA, 0, 0, 0))

#: After the magic: payload length (u32), payload crc32 (u32).
_CHECKPOINT_FRAME = struct.Struct("<II")

#: Payload: JSON header length (u32), the header, then the accumulator
#: snapshot's bytes.
_HEADER_LENGTH = struct.Struct("<I")

#: Record header: kind (u8), payload length (u32), payload crc32 (u32).
RECORD_HEADER = struct.Struct("<BII")

KIND_HELLO = 1
KIND_CHUNK = 2
KIND_COMPLETE = 3

_NODE_FILE = re.compile(r"^node-(\d+)\.waj$")


@dataclass
class JournalContents:
    """One valid-prefix scan of a journal: whole, CRC-clean records up
    to the first torn or corrupt one."""

    hello: Optional[dict] = None
    chunks: list[bytes] = field(default_factory=list)
    payload_bytes: int = 0          # sum of chunk payload lengths
    complete: Optional[dict] = None
    valid_end: int = 0              # file offset of the last whole record

    def replay(self, from_offset: int = 0) -> Iterator[bytes]:
        """Yield chunk payload bytes after skipping the first
        ``from_offset`` payload bytes (a resume point may split a
        journal record; the partial chunk is sliced)."""
        if from_offset < 0 or from_offset > self.payload_bytes:
            raise ServeError(
                f"replay offset {from_offset} outside journal payload "
                f"(0..{self.payload_bytes})")
        skipped = 0
        for chunk in self.chunks:
            if skipped + len(chunk) <= from_offset:
                skipped += len(chunk)
                continue
            start = from_offset - skipped if skipped < from_offset else 0
            skipped += len(chunk)
            yield chunk[start:] if start else chunk


class NodeJournal:
    """The write-ahead journal + checkpoint pair of one node."""

    def __init__(self, state_dir, node_id: int) -> None:
        self.state_dir = Path(state_dir)
        self.node_id = int(node_id)
        stem = f"node-{self.node_id}"
        self.journal_path = self.state_dir / f"{stem}.waj"
        self.checkpoint_path = self.state_dir / f"{stem}.ckpt"
        self.quarantine_path = self.state_dir / f"{stem}.quarantine"
        self.payload_bytes = 0
        self._append = None  # open handle while the session is live

    # -- discovery ----------------------------------------------------------

    @classmethod
    def scan_dir(cls, state_dir) -> list[int]:
        """Node ids with a journal under ``state_dir``, sorted."""
        state_dir = Path(state_dir)
        if not state_dir.is_dir():
            return []
        ids = []
        for name in os.listdir(state_dir):
            match = _NODE_FILE.match(name)
            if match:
                ids.append(int(match.group(1)))
        return sorted(ids)

    # -- writing ------------------------------------------------------------

    def create(self, hello: dict) -> None:
        """Start a fresh journal: magic + the hello record.  Truncates
        any prior journal for this node (the caller decided the old
        stream is superseded) and clears stale checkpoint/quarantine."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.close()
        for stale in (self.checkpoint_path, self.quarantine_path):
            if stale.exists():
                stale.unlink()
        handle = open(self.journal_path, "wb")
        handle.write(JOURNAL_MAGIC)
        self._write_record(handle, KIND_HELLO,
                           json.dumps(hello).encode("utf-8"))
        handle.flush()
        self._append = handle
        self.payload_bytes = 0

    def reopen_for_append(self, contents: JournalContents) -> None:
        """Position the append handle after a restart: truncate the torn
        tail (if any) so new records start on a whole-record boundary."""
        self.close()
        handle = open(self.journal_path, "r+b")
        handle.truncate(contents.valid_end)
        handle.seek(contents.valid_end)
        self._append = handle
        self.payload_bytes = contents.payload_bytes

    @staticmethod
    def _write_record(handle, kind: int, payload: bytes) -> None:
        handle.write(RECORD_HEADER.pack(kind, len(payload),
                                        zlib.crc32(payload)))
        handle.write(payload)

    def append_chunk(self, chunk: bytes) -> int:
        """Journal one raw wire chunk; returns the total payload bytes
        durably journaled (the stream offset the server may ack)."""
        if self._append is None:
            raise ServeError(
                f"journal for node {self.node_id} is not open for append")
        self._write_record(self._append, KIND_CHUNK, bytes(chunk))
        # flush() pushes to the OS: the bytes survive a SIGKILL of this
        # process (fsync-grade power-loss durability is out of scope).
        self._append.flush()
        self.payload_bytes += len(chunk)
        return self.payload_bytes

    def mark_complete(self, summary: dict) -> None:
        """Append the completion record: this stream ended cleanly and
        its accounting is final."""
        if self._append is None:
            raise ServeError(
                f"journal for node {self.node_id} is not open for append")
        self._write_record(self._append, KIND_COMPLETE,
                           json.dumps(summary).encode("utf-8"))
        self._append.flush()

    def quarantine(self, error: str) -> None:
        """Mark the node quarantined: the journal stays on disk for
        postmortem decode, the marker carries the reason, and restarts
        will not replay it."""
        self.close()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.quarantine_path.with_suffix(".quarantine.tmp")
        tmp.write_text(json.dumps({"node_id": self.node_id,
                                   "error": error}))
        tmp.replace(self.quarantine_path)

    def quarantine_error(self) -> Optional[str]:
        """The quarantine reason, or None if the node is not marked."""
        try:
            return json.loads(self.quarantine_path.read_text())["error"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError):
            return "quarantine marker unreadable"

    def close(self) -> None:
        if self._append is not None:
            try:
                self._append.close()
            finally:
                self._append = None

    # -- checkpoints ---------------------------------------------------------

    def write_checkpoint(self, state: dict) -> None:
        """Atomically replace the node's checkpoint with
        ``state["payload"]`` (an :func:`encode_checkpoint` payload):
        magic, length and CRC framing, tmp write, fsync, ``os.replace``
        — a crash mid-write leaves the previous checkpoint intact.  The
        server runs this on its :class:`CheckpointWriter` thread, never
        on the event loop; the payload was encoded on the loop."""
        tmp = self.checkpoint_path.with_suffix(".ckpt.tmp")
        with open(tmp, "wb") as handle:
            handle.write(frame_checkpoint(state["payload"]))
            handle.flush()
            os.fsync(handle.fileno())
        fire("serve-checkpoint-write", self.node_id)
        os.replace(tmp, self.checkpoint_path)

    def load_checkpoint(self) -> Optional[dict]:
        """The newest checkpoint (see :func:`decode_checkpoint`), or
        None if absent, of another schema or corrupt — not an error:
        full-journal replay covers it."""
        try:
            blob = self.checkpoint_path.read_bytes()
        except OSError:
            return None
        try:
            return decode_checkpoint(blob)
        except ServeError:
            return None

    # -- reading ------------------------------------------------------------

    def load(self) -> Optional[JournalContents]:
        """Scan the journal's valid prefix.  Returns None when the file
        is missing or its header is unreadable; otherwise every whole,
        CRC-clean record up to the first torn one (the crash tail)."""
        try:
            blob = self.journal_path.read_bytes()
        except (FileNotFoundError, OSError):
            return None
        if not blob.startswith(JOURNAL_MAGIC):
            return None
        contents = JournalContents()
        chunks = contents.chunks
        unpack, crc32 = RECORD_HEADER.unpack_from, zlib.crc32
        header = RECORD_HEADER.size
        at = len(JOURNAL_MAGIC)  # end of the last whole record
        size = len(blob)
        payload_bytes = 0
        while at + header <= size:
            kind, length, crc = unpack(blob, at)
            start = at + header
            end = start + length
            if end > size:
                break  # torn tail: header landed, payload did not
            payload = blob[start:end]
            if crc32(payload) != crc:
                break  # corrupt record: stop at the last good one
            if kind == KIND_CHUNK:
                chunks.append(payload)
                payload_bytes += length
            elif kind == KIND_HELLO:
                try:
                    contents.hello = json.loads(payload)
                except ValueError:
                    break
            elif kind == KIND_COMPLETE:
                try:
                    contents.complete = json.loads(payload)
                except ValueError:
                    break
            else:
                break  # unknown record kind: treat as corruption
            at = end
        contents.valid_end = at
        contents.payload_bytes = payload_bytes
        return contents


def encode_checkpoint(header: dict, accumulator: bytes) -> bytes:
    """A checkpoint payload: the JSON ``header`` (journal offset,
    completion flag, decoder snapshot), then ``accumulator``, a
    :meth:`~repro.core.accounting.WindowedAccumulator.snapshot`.
    :meth:`NodeJournal.write_checkpoint` frames it."""
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join((_HEADER_LENGTH.pack(len(text)), text, accumulator))


def frame_checkpoint(payload: bytes) -> bytes:
    """The checkpoint file's bytes: magic, payload length and CRC, then
    the payload."""
    return b"".join((CHECKPOINT_MAGIC, _CHECKPOINT_FRAME.pack(
        len(payload), zlib.crc32(payload)), payload))


def decode_checkpoint(blob: bytes) -> dict:
    """Decode a whole checkpoint file: the header dict with the
    accumulator snapshot's bytes under ``"accumulator"`` (decoded by
    :meth:`~repro.core.accounting.WindowedAccumulator.load_snapshot`).
    Raises :class:`ServeError` on another schema's magic (an old
    checkpoint is never decoded), a failed length or CRC check, or a
    malformed header."""
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ServeError(f"not a schema-{CHECKPOINT_SCHEMA} checkpoint "
                         f"(magic {bytes(blob[:8])!r})")
    at = len(CHECKPOINT_MAGIC) + _CHECKPOINT_FRAME.size
    if len(blob) < at:
        raise ServeError("checkpoint frame is torn")
    length, crc = _CHECKPOINT_FRAME.unpack_from(blob, len(CHECKPOINT_MAGIC))
    if at + length != len(blob) or zlib.crc32(memoryview(blob)[at:]) != crc:
        raise ServeError("checkpoint payload fails its length/CRC check")
    try:
        (text_length,) = _HEADER_LENGTH.unpack_from(blob, at)
        at += _HEADER_LENGTH.size
        header = json.loads(blob[at:at + text_length])
        header["accumulator"] = blob[at + text_length:]
    except (struct.error, ValueError, TypeError) as exc:
        raise ServeError(f"checkpoint header is malformed: {exc!r}") from exc
    return header


@dataclass
class _WriteJob:
    """One queued checkpoint (``journal`` set) or drain marker (not)."""

    journal: Optional[NodeJournal]
    state: Optional[dict]
    done: Callable[[Optional[dict], Optional[BaseException]], None]


class CheckpointWriter:
    """The one background thread that lands a server's checkpoints.

    Jobs run in submission order, one at a time, through
    :meth:`NodeJournal.write_checkpoint`.  At most one job per node waits
    unstarted: a newer snapshot of that node replaces the waiting one's
    state in place.  The thread starts with the first job and exits on
    :meth:`stop`; it is a daemon, so a server that is never closed does
    not hold the process open (an unlanded write is then a crash mid-
    write, which the checkpoint format already survives).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._jobs: deque = deque()
        self._waiting: dict[int, _WriteJob] = {}  # node id -> unstarted
        self._pending: Counter = Counter()        # node id -> not landed
        self._thread: Optional[threading.Thread] = None

    def submit(self, journal: NodeJournal, state: dict,
               done: Callable[[dict, Optional[BaseException]], None]
               ) -> bool:
        """Queue ``state`` for ``journal``.  ``done(state, error)`` runs
        on the writer thread once the write landed (``error`` None) or
        raised.  Returns False when the node's waiting job took the new
        state (and ``done``) instead of a new job being queued."""
        with self._cond:
            job = self._waiting.get(journal.node_id)
            if job is not None:
                job.state, job.done = state, done
                return False
            job = _WriteJob(journal, state, done)
            self._waiting[journal.node_id] = job
            self._pending[journal.node_id] += 1
            self._enqueue(job)
        return True

    def pending(self, node_id: int) -> int:
        """Jobs of ``node_id`` not yet landed (queued or in flight)."""
        with self._cond:
            return self._pending[node_id]

    def drained(self) -> Future:
        """A future that resolves once every job submitted so far has
        landed or failed."""
        future: Future = Future()

        def resolve(_state, _error) -> None:
            # A waiter may have given up (cancelled); never raise here.
            if future.set_running_or_notify_cancel():
                future.set_result(None)

        with self._cond:
            self._enqueue(_WriteJob(None, None, resolve))
        return future

    def stop(self) -> None:
        """Let the thread finish the queue, then wait for it to exit."""
        with self._cond:
            thread, self._thread = self._thread, None
            if thread is None:
                return
            self._jobs.append(None)
            self._cond.notify()
        thread.join()

    def _enqueue(self, job: _WriteJob) -> None:
        self._jobs.append(job)
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="checkpoint-writer", daemon=True)
            self._thread.start()
        self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._jobs:
                    self._cond.wait()
                job = self._jobs.popleft()
                if job is None:
                    return
                journal = job.journal
                if journal is not None:
                    del self._waiting[journal.node_id]
            error = None
            if journal is not None:
                try:
                    journal.write_checkpoint(job.state)
                except Exception as exc:
                    error = exc
                with self._cond:
                    self._pending[journal.node_id] -= 1
            job.done(job.state, error)
