"""The live ingest server: many node streams, one attribution service.

One asyncio event loop owns everything.  Each ``INGEST`` connection gets
a :class:`NodeSession` — a :class:`~repro.core.logger.WireDecoder`
reassembling 12-byte entries from arbitrary chunk boundaries, feeding a
:class:`~repro.core.accounting.WindowedAccumulator` that closes
per-stride windows as the node's virtual time advances.  Chunks flow
through a **bounded** queue between the socket reader and the
accounting consumer: when accounting falls behind, ``queue.put`` blocks
the reader, the TCP window fills, and the node is flow-controlled —
backpressure end to end, no unbounded buffering anywhere.

``QUERY`` connections read the same sessions for live breakdowns; both
run on the loop, so no locks.  Memory per node is the accumulator's
open spans plus its retained window rows — a server holding thousands
of finished nodes keeps only their folded maps.

**Durability** (``state_dir``): every raw chunk is appended to the
node's write-ahead journal (:mod:`repro.serve.journal`) *before* it
enters the decoder, and checkpoints snapshot the decoder + accumulator
every ``checkpoint_bytes`` of stream.  A restarted server restores each
journal — newest checkpoint, then replay of the journal tail through
the same decode→window path — and resumes sessions bit-identical to an
uninterrupted run.  Clients speaking the resume handshake (hello
``"ack": true``) learn the server's journaled offset on connect and
replay idempotently from there.

Checkpoints are schema 3 (:mod:`repro.serve.journal`): JSON headers
and raw arrays, nothing executable.  They leave out what the hello
already supplies, so :meth:`NodeSession.restore` builds the session
from the hello once and loads the decoder and accumulator state into
it.

**What runs where.**  The loop journals each chunk (written and
flushed, so an ack means "journaled"), encodes each checkpoint
(``NodeSession.checkpoint_state``) and keeps the cadence.  The server's
one :class:`~repro.serve.journal.CheckpointWriter` thread, started by
the first checkpoint, does the rest in submission order: framing, tmp
write, fsync, ``os.replace``.  At most one snapshot per node waits
unstarted; a newer one replaces it.  A failed write is re-raised at
the session's next checkpoint hand-off or at its end, failing the
stream as an inline write would; once the final reply is sent, a
failure is only counted.  The final reply waits only on the journal's
completion record; the final checkpoint is taken after it is sent.
If the process dies before that write lands, restore finds the
completion record, replays from the previous checkpoint and reaches
the same map.  A
re-streamed node's journal is recreated (and its stale checkpoint
removed) only after every write still pending for it has landed.
:meth:`IngestServer.shutdown` and :meth:`IngestServer.close` return
once pending writes have landed.  ``stats`` and ``nodes`` report the
checkpoint lag: bytes past the newest landed checkpoint, pending
writes and failed writes.

**Degradation**: a stream whose *content* breaks decode/accounting
quarantines that one node — journal preserved for postmortem, session
map and server untouched.  Past ``max_streams`` concurrent streams the
server sheds new nodes with an explicit retryable NACK instead of
buffering without bound.
"""

from __future__ import annotations

import asyncio
import os
import stat
from typing import Optional

from repro.core.accounting import WindowedAccumulator
from repro.core.logger import ENTRY_SIZE, WireDecoder
from repro.errors import ReproError, ServeError
from repro.serve.journal import (
    CheckpointWriter,
    NodeJournal,
    encode_checkpoint,
)
from repro.serve.protocol import (
    INGEST_VERB,
    LINE_LIMIT,
    QUERY_VERB,
    check_hello,
    decode_json_line,
    emap_to_wire,
    encode_json_line,
    pairs_to_wire,
    regression_from_wire,
    registry_from_wire,
    snapshot_to_wire,
)
from repro.sim.faultinject import fire

#: Socket read size for ingest bodies, and each connection's stream
#: buffer limit: the reader pauses the socket past twice this, so one
#: stream holds at most that much beyond its chunk queue.  Request lines
#: up to ``LINE_LIMIT`` are gathered across the smaller buffer.
READ_CHUNK = 1 << 16

#: Chunks buffered per node stream between the socket reader and the
#: accounting consumer before the reader blocks (backpressure).  Reading
#: and folding in one task instead measured worse query latency: each
#: read coalesces more bytes, each fold runs longer, and queries wait
#: behind it.
QUEUE_DEPTH = 32

#: How long a graceful shutdown waits for open connections to drain
#: before cancelling them.
SHUTDOWN_GRACE_S = 5.0

#: Default checkpoint cadence: snapshot decoder+accumulator after this
#: many journaled stream bytes (plus once at stream completion).
CHECKPOINT_BYTES = 1 << 16

#: Ack cadence for resume-capable clients.
ACK_BYTES = 1 << 14

#: End-of-stream sentinel on a session's chunk queue.
_EOF = None


class _StreamFault(ServeError):
    """Stream *content* broke decode/accounting: quarantine the node."""


class NodeSession:
    """One streaming node's server-side state: decoder, windowed
    accumulator, counters, journal, and outcome.

    ``state`` walks ``streaming`` → ``done`` | ``error`` |
    ``quarantined``, with ``suspended`` for a resumable stream whose
    connection (or server) went away mid-flight.
    """

    def __init__(self, hello: dict, *, retain: int,
                 journal: Optional[NodeJournal] = None) -> None:
        check_hello(hello)
        self.hello = hello
        self.node_id = int(hello["node_id"])
        try:
            self.registry = registry_from_wire(hello["registry"])
            self.accumulator = WindowedAccumulator(
                regression_from_wire(hello["regression"]),
                self.registry,
                {int(k): v for k, v in hello["component_names"].items()},
                hello["energy_per_pulse_j"],
                stride_ns=hello["stride_ns"],
                idle_name=hello["idle_name"],
                single_res_ids=hello["single_res_ids"],
                multi_res_ids=hello["multi_res_ids"],
                end_time_ns=hello.get("end_time_ns"),
                origin_ns=hello.get("origin_ns"),
                retain=retain,
            )
        except Exception as exc:
            # One policy for every caller: a hello no session can be
            # built from is a refused hello.
            raise ServeError(f"bad ingest hello: {exc!r}") from exc
        self.decoder = WireDecoder()
        self.state = "streaming"
        self.bytes_received = 0
        self.error: Optional[str] = None
        self.final_map = None
        self.journal = journal
        self.attached = False       # a live connection is streaming now
        self.resumable = False      # client speaks the ack handshake
        self.checkpointed_bytes = 0     # stream offset of the last hand-off
        self.durable_bytes = 0          # ... of the newest landed checkpoint
        self.pending_writes = 0
        self.failed_writes = 0
        self.write_error: Optional[BaseException] = None
        self.last_ack_bytes = 0

    def ingest(self, chunk: bytes) -> None:
        self.bytes_received += len(chunk)
        self.accumulator.feed_columns(self.decoder.feed_columns(chunk))

    def finish(self):
        self.decoder.finish()  # a torn tail is a protocol error
        self.final_map = self.accumulator.finish()
        self.state = "done"
        return self.final_map

    def fail(self, message: str) -> None:
        self.state = "error"
        self.error = message

    def set_quarantined(self, message: str) -> None:
        """Park the node: its stream content is untrustworthy, but its
        journal survives for postmortem and the server carries on."""
        self.state = "quarantined"
        self.error = message
        self.attached = False
        if self.journal is not None:
            self.journal.quarantine(message)

    def checkpoint_state(self, complete: bool = False) -> dict:
        """The session's checkpoint, encoded now (on the loop, so it is
        one consistent cut of the stream): the schema-3 ``payload`` for
        :meth:`NodeJournal.write_checkpoint`, plus the offset and
        completion flag the writer's callers read."""
        header = {
            "journal_offset": self.bytes_received,
            "complete": complete,
            "decoder": self.decoder.snapshot(),
        }
        return {
            "journal_offset": self.bytes_received,
            "complete": complete,
            "payload": encode_checkpoint(header,
                                         self.accumulator.snapshot()),
        }

    def load_state(self, state: dict) -> None:
        """Resume this freshly built session from a decoded checkpoint
        (:meth:`NodeJournal.load_checkpoint`).  Raises a
        :class:`ReproError` on a snapshot that does not hold together,
        leaving the session as it was."""
        decoder = WireDecoder.from_snapshot(state.get("decoder"))
        self.accumulator.load_snapshot(state.get("accumulator"))
        self.decoder = decoder
        self.bytes_received = state["journal_offset"]

    def final_reply(self) -> dict:
        return {
            "ok": True,
            "node_id": self.node_id,
            "entries": self.decoder.entries_decoded,
            "windows": self.accumulator.windows_emitted,
            "energy_map": emap_to_wire(self.final_map),
        }

    @classmethod
    def restore(cls, state_dir, node_id: int, *,
                retain: int) -> Optional["NodeSession"]:
        """Rebuild a session from its journal: newest valid checkpoint,
        then the journal tail replayed through the same decode→window
        path — bit-identical to having never crashed.  Returns None for
        an unrecoverable (headerless) journal."""
        journal = NodeJournal(state_dir, node_id)
        contents = journal.load()
        if contents is None or contents.hello is None:
            return None
        session = cls(contents.hello, retain=retain, journal=journal)
        quarantined = journal.quarantine_error()
        if quarantined is not None:
            session.state = "quarantined"
            session.error = quarantined
            return session
        start = 0
        state = journal.load_checkpoint()
        if (state is not None
                and isinstance(state.get("journal_offset"), int)
                and 0 <= state["journal_offset"] <= contents.payload_bytes):
            try:
                session.load_state(state)
            except ReproError:
                pass  # corrupt snapshot: full-journal replay covers it
            else:
                start = state["journal_offset"]
        session.bytes_received = start
        session.durable_bytes = start
        session.resumable = True
        # One batch: a columnar fold pays its fixed cost once.
        session.ingest(b"".join(contents.replay(start)))
        session.checkpointed_bytes = session.bytes_received
        session.last_ack_bytes = session.bytes_received
        if contents.complete is not None:
            session.finish()
        else:
            session.state = "suspended"
            journal.reopen_for_append(contents)
        return session

    def describe(self) -> dict:
        return {
            "node_id": self.node_id,
            "state": self.state,
            "error": self.error,
            "bytes": self.bytes_received,
            "entries": self.decoder.entries_decoded,
            "pending_bytes": self.decoder.pending_bytes,
            "windows": self.accumulator.windows_emitted,
            "attached": self.attached,
            "resumable": self.resumable,
            "journaled": self.journal is not None,
            "checkpoint_lag_bytes": self.checkpoint_lag_bytes,
            "checkpoint_pending": self.pending_writes,
            "checkpoint_failed": self.failed_writes,
        }

    @property
    def checkpoint_lag_bytes(self) -> int:
        """Stream bytes past the newest checkpoint on disk (0 for a
        session without a journal)."""
        if self.journal is None:
            return 0
        return self.bytes_received - self.durable_bytes

    def breakdown(self) -> dict:
        """The node's current attribution: the folded map once done,
        the live cumulative view while streaming."""
        if self.final_map is not None:
            reply = emap_to_wire(self.final_map)
            reply["live"] = False
            return reply
        live = self.accumulator.live_breakdown()
        return {
            "energy_j": pairs_to_wire(live["energy_j"]),
            "time_ns": pairs_to_wire(live["time_ns"]),
            "metered_energy_j": live["metered_energy_j"],
            "reconstructed_energy_j": live["reconstructed_energy_j"],
            "span_ns": live["span_ns"],
            "live": True,
        }


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request line (``b""`` at EOF, the unterminated tail if the
    peer closes mid-line), gathered a buffer-full at a time so it may
    exceed the stream's ``READ_CHUNK`` limit up to ``LINE_LIMIT``."""
    parts: list[bytes] = []
    size = 0
    while True:
        try:
            part = await reader.readuntil(b"\n")
            done = True
        except asyncio.LimitOverrunError as exc:
            part = await reader.readexactly(exc.consumed)
            done = False
        except asyncio.IncompleteReadError as exc:
            part = exc.partial
            done = True
        size += len(part)
        if size > LINE_LIMIT:
            raise ServeError(f"request line longer than {LINE_LIMIT} bytes")
        parts.append(part)
        if done:
            return b"".join(parts)


class IngestServer:
    """The long-running service.  ``await start_tcp(...)`` and/or
    ``await start_unix(...)``, then :meth:`serve_forever` (or just keep
    the loop alive); :meth:`close` tears the listeners down.  With
    ``state_dir`` every stream is journaled and checkpointed, and
    construction restores whatever a previous process left behind."""

    def __init__(self, *, retain: int = 64, state_dir=None,
                 checkpoint_bytes: int = CHECKPOINT_BYTES,
                 max_streams: Optional[int] = None) -> None:
        if checkpoint_bytes < 1:
            raise ServeError("checkpoint cadence must be at least 1 byte")
        if retain < 0:
            raise ServeError("window retention must be at least 0")
        if max_streams is not None and max_streams < 1:
            raise ServeError("stream cap must be at least 1")
        self.retain = retain
        self.state_dir = state_dir
        self.checkpoint_bytes = checkpoint_bytes
        self.max_streams = max_streams
        self.sessions: dict[int, NodeSession] = {}
        self.completed = 0
        self.restored = 0
        self.failed_writes = 0
        self._writer: Optional[CheckpointWriter] = None
        self._servers: list[asyncio.base_events.Server] = []
        self._done_event = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()
        if self.state_dir is not None:
            self._restore_all()

    # -- durability ---------------------------------------------------------

    def _restore_all(self) -> None:
        """Rebuild every journaled session from ``state_dir``.  A node
        whose replay itself fails is quarantined — one bad journal never
        stops the server from coming back."""
        for node_id in NodeJournal.scan_dir(self.state_dir):
            fire("serve-restore", node_id)
            try:
                session = NodeSession.restore(
                    self.state_dir, node_id, retain=self.retain)
            except Exception as exc:
                journal = NodeJournal(self.state_dir, node_id)
                contents = journal.load()
                if contents is None or contents.hello is None:
                    continue
                try:
                    session = NodeSession(contents.hello, retain=self.retain,
                                          journal=journal)
                except ServeError:
                    continue  # no session fits its hello: unrecoverable
                session.set_quarantined(f"restore failed: {exc}")
            if session is None:
                continue
            self.sessions[session.node_id] = session
            self.restored += 1
            if session.state in ("done", "quarantined"):
                # Concluded either way; `--expect-nodes` counts it.
                self.completed += 1

    def _checkpoint(self, session: NodeSession,
                    complete: bool = False) -> None:
        """Snapshot ``session`` and hand the write to the checkpoint
        writer.  Raises the session's unreported write failure first."""
        if session.journal is None:
            return
        self._raise_write_error(session)
        fire("serve-checkpoint", session.node_id)
        loop = asyncio.get_running_loop()

        def done(state: dict, error: Optional[BaseException]) -> None:
            try:
                loop.call_soon_threadsafe(
                    self._landed, session, state, error)
            except RuntimeError:
                pass  # the loop is closed: nobody is left to tell

        if self._writer is None:
            self._writer = CheckpointWriter()
        if self._writer.submit(session.journal,
                               session.checkpoint_state(complete), done):
            session.pending_writes += 1
        session.checkpointed_bytes = session.bytes_received

    def _landed(self, session: NodeSession, state: dict,
                error: Optional[BaseException]) -> None:
        """On the loop: the writer finished one of ``session``'s jobs."""
        session.pending_writes -= 1
        if error is None:
            session.durable_bytes = state["journal_offset"]
            return
        session.failed_writes += 1
        self.failed_writes += 1
        if session.write_error is None:
            session.write_error = error

    @staticmethod
    def _raise_write_error(session: NodeSession) -> None:
        error, session.write_error = session.write_error, None
        if error is not None:
            raise error

    async def _writes_landed(self, node_id: Optional[int] = None) -> None:
        """Wait until every checkpoint write pending (for ``node_id``,
        or for any node) has landed or failed."""
        writer = self._writer
        if writer is None or (node_id is not None
                              and not writer.pending(node_id)):
            return
        await asyncio.wrap_future(writer.drained())

    def _suspend(self, session: NodeSession) -> None:
        """Park a resumable stream whose connection went away: the
        session keeps its live decoder/accumulator (and checkpoint, if
        journaled) and waits for the client to reconnect."""
        session.state = "suspended"
        session.attached = False
        try:
            self._checkpoint(session)
        except OSError:
            pass  # the journal itself still covers the bytes

    def _finalize(self, session: NodeSession) -> None:
        """Fold the stream's end and append the journal's complete
        record, all the final reply waits on.  A checkpoint write failure
        already reported to the loop fails the stream before anything is
        folded; a mid-stream write still in flight at the end of stream
        is not waited for, so its failure is counted, not raised, as a
        failed final write is."""
        self._raise_write_error(session)
        session.finish()
        if session.journal is None:
            return
        try:
            session.journal.mark_complete({
                "entries": session.decoder.entries_decoded,
                "windows": session.accumulator.windows_emitted,
            })
            session.journal.close()
        except OSError:
            pass  # reply still stands; a restart replays the journal

    # -- lifecycle ----------------------------------------------------------

    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        try:
            server = await asyncio.start_server(
                self._handle, host, port, limit=READ_CHUNK)
        except OSError as exc:
            raise ServeError(f"cannot listen on {host}:{port}: {exc}") \
                from exc
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_unix(self, path: str) -> str:
        try:
            # A SIGKILLed predecessor leaves its socket file behind;
            # binding would fail on it.  One server per path is the
            # deployment contract, so a stale socket is safe to clear.
            if stat.S_ISSOCK(os.stat(path).st_mode):
                os.unlink(path)
        except (FileNotFoundError, OSError):
            pass
        try:
            server = await asyncio.start_unix_server(
                self._handle, path, limit=READ_CHUNK)
        except OSError as exc:
            raise ServeError(f"cannot listen on unix:{path}: {exc}") \
                from exc
        self._servers.append(server)
        return path

    async def serve_forever(self, stop_after: Optional[int] = None) -> None:
        """Serve until :meth:`request_shutdown` (or, with ``stop_after``,
        until that many node streams have completed — scripted runs,
        smoke tests).  On a requested shutdown this drains gracefully
        via :meth:`shutdown` before returning."""
        stop_task = asyncio.ensure_future(self._shutdown.wait())
        try:
            while not self._shutdown.is_set():
                if stop_after is not None and self.completed >= stop_after:
                    return
                self._done_event.clear()
                done_task = asyncio.ensure_future(self._done_event.wait())
                try:
                    await asyncio.wait(
                        {done_task, stop_task},
                        return_when=asyncio.FIRST_COMPLETED)
                finally:
                    done_task.cancel()
        finally:
            stop_task.cancel()
        await self.shutdown()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (signal-handler safe: just sets an
        event on the loop).  Listeners stop accepting, streaming nodes'
        queues drain, decoders with no partial entry finish cleanly and
        get their final map; a node caught mid-frame is marked failed
        rather than folded torn — unless it is resumable, in which case
        it is checkpointed and told to reconnect."""
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Stop accepting, then wait up to :data:`SHUTDOWN_GRACE_S` for
        the open connection handlers to drain and reply; stragglers past
        the grace period are cancelled.  Unconcluded journaled sessions get
        a parting checkpoint so the restart resumes exactly here."""
        self._shutdown.set()
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        pending = {task for task in self._handlers if not task.done()}
        if pending:
            _done, late = await asyncio.wait(pending,
                                             timeout=SHUTDOWN_GRACE_S)
            for task in late:
                task.cancel()
            if late:
                await asyncio.gather(*late, return_exceptions=True)
        for session in self.sessions.values():
            if session.state in ("streaming", "suspended"):
                try:
                    self._checkpoint(session)
                except OSError:
                    pass
        await self._writes_landed()

    async def close(self) -> None:
        """Drop the listeners, land every pending checkpoint, stop the
        writer thread and close the journals."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        await self._writes_landed()
        if self._writer is not None:
            self._writer.stop()
            self._writer = None
        for session in self.sessions.values():
            if session.journal is not None:
                session.journal.close()

    def final_stats_lines(self) -> list[str]:
        """Per-node summary lines for the shutdown log."""
        lines = []
        for node_id in sorted(self.sessions):
            session = self.sessions[node_id]
            desc = session.describe()
            detail = f" ({desc['error']})" if desc["error"] else ""
            lines.append(
                f"node {node_id}: {desc['state']}{detail}, "
                f"{desc['entries']} entries, {desc['windows']} windows, "
                f"{desc['bytes']} bytes")
        lines.append(
            f"total: {len(self.sessions)} sessions, "
            f"{self.completed} completed streams")
        return lines

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            try:
                line = await _read_line(reader)
            except ServeError as exc:
                await self._reject(writer, str(exc))
                return
            if not line:
                return
            verb, _, payload = line.strip().partition(b" ")
            verb_name = verb.decode("ascii", "replace")
            if verb_name == INGEST_VERB:
                await self._handle_ingest(payload, reader, writer)
            elif verb_name == QUERY_VERB:
                await self._handle_query(payload, writer)
            else:
                writer.write(encode_json_line(
                    {"ok": False,
                     "error": f"unknown verb {verb_name!r}"}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; its session (if any) is marked failed
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _reject(self, writer: asyncio.StreamWriter,
                      error: str, **extra) -> None:
        reply = {"ok": False, "error": error}
        reply.update(extra)
        writer.write(encode_json_line(reply))
        await writer.drain()

    async def _route_ingest(self, hello: dict,
                            writer: asyncio.StreamWriter):
        """Map an ingest hello to its session: resume an existing one
        (ack handshake), shed past the stream cap, or create fresh.
        Returns ``(session, resumed)`` — ``(None, _)`` when a rejection
        was already written."""
        node_id = int(hello["node_id"])
        want_ack = bool(hello.get("ack"))
        # A fresh journal's create() removes the node's checkpoint; a
        # write of it still pending would land after and be restored
        # into the new stream.  Waiting first also keeps every check
        # below free of a later await.
        await self._writes_landed(node_id)
        existing = self.sessions.get(node_id)
        if want_ack and existing is not None:
            if existing.state == "quarantined":
                await self._reject(
                    writer,
                    f"node {node_id} is quarantined: {existing.error}")
                return None, False
            if existing.attached:
                await self._reject(
                    writer, f"node {node_id} is already streaming")
                return None, False
            # done / suspended / streaming-detached / error: resume.
            return existing, True
        active = sum(1 for s in self.sessions.values() if s.attached)
        if self.max_streams is not None and active >= self.max_streams:
            # Shed, don't buffer: an explicit retryable NACK beats an
            # unbounded backlog the accounting can never catch up on.
            await self._reject(
                writer,
                f"server overloaded: {active} streams at the "
                f"{self.max_streams}-stream cap",
                retry=True, shed=True)
            return None, False
        # A bad hello raises before anything is journaled: one
        # ok-false reply.
        session = NodeSession(hello, retain=self.retain)
        if self.state_dir is not None:
            journal = NodeJournal(self.state_dir, node_id)
            journal.create(hello)
            session.journal = journal
        self.sessions[node_id] = session
        return session, False

    async def _handle_ingest(self, payload: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            hello = check_hello(decode_json_line(payload, "ingest hello"))
            session, resumed = await self._route_ingest(hello, writer)
        except (ReproError, OSError) as exc:
            await self._reject(writer, str(exc))
            return
        if session is None:
            return
        want_ack = bool(hello.get("ack"))
        if want_ack:
            session.resumable = True
            writer.write(encode_json_line(
                {"ok": True, "node_id": session.node_id,
                 "offset": session.bytes_received, "resumed": resumed}))
            await writer.drain()
        if session.state == "done":
            # A reconnect after completion: the handshake told the
            # client to fast-forward to EOF; re-deliver the stored map.
            while await reader.read(READ_CHUNK):
                pass
            writer.write(encode_json_line(session.final_reply()))
            await writer.drain()
            return
        session.attached = True
        session.state = "streaming"
        session.error = None
        queue: asyncio.Queue = asyncio.Queue(maxsize=QUEUE_DEPTH)
        consumer = asyncio.ensure_future(
            self._consume(session, queue, writer, want_ack))
        eof_clean = False
        stopped = False
        stop_task = asyncio.ensure_future(self._shutdown.wait())
        try:
            while True:
                read_task = asyncio.ensure_future(reader.read(READ_CHUNK))
                done, _ = await asyncio.wait(
                    {read_task, stop_task, consumer},
                    return_when=asyncio.FIRST_COMPLETED)
                if read_task not in done:
                    read_task.cancel()
                    try:
                        await read_task
                    except (asyncio.CancelledError, ConnectionError,
                            asyncio.IncompleteReadError):
                        pass
                    if consumer in done:
                        break  # accounting died; surfaces at the await
                    # Graceful shutdown: stop reading; the queue drains
                    # below and the decoder decides clean vs mid-frame.
                    stopped = True
                    break
                chunk = read_task.result()
                if not chunk:
                    eof_clean = True
                    break
                # Bounded hand-off: accounting lag blocks this put, which
                # stops the reads, which flow-controls the sender.  A dead
                # consumer must break the wait, not deadlock it.
                put_task = asyncio.ensure_future(queue.put(chunk))
                done, _ = await asyncio.wait(
                    {put_task, consumer},
                    return_when=asyncio.FIRST_COMPLETED)
                if put_task not in done:
                    put_task.cancel()
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # eof_clean stays False -> failed or suspended below
        finally:
            stop_task.cancel()
            if not consumer.done():
                await queue.put(_EOF)
        try:
            await consumer
        except _StreamFault as exc:
            # Malformed stream content: this node is quarantined, the
            # journal is preserved for postmortem, the server sails on.
            session.set_quarantined(str(exc))
            reply = {"ok": False, "node_id": session.node_id,
                     "error": str(exc), "quarantined": True}
        except (ReproError, OSError) as exc:
            session.fail(str(exc))
            session.attached = False
            reply = {"ok": False, "node_id": session.node_id,
                     "error": str(exc)}
        else:
            if not eof_clean and session.resumable:
                # The stream will be back: park it, don't fail it.
                self._suspend(session)
                if not stopped:
                    return  # peer is gone; nothing to reply to
                reply = {"ok": False, "node_id": session.node_id,
                         "error": "server shutting down mid-stream",
                         "retry": True}
                writer.write(encode_json_line(reply))
                await writer.drain()
                return
            try:
                if stopped and not eof_clean:
                    # Queue drained; a decoder holding a partial entry
                    # was cut mid-frame, everything else ends cleanly.
                    if session.decoder.pending_bytes:
                        raise ServeError("server shutdown mid-frame")
                    eof_clean = True
                if not eof_clean:
                    raise ServeError("connection lost mid-stream")
                self._finalize(session)
                session.attached = False
                reply = session.final_reply()
                if stopped:
                    reply["shutdown"] = True
            except (ReproError, OSError) as exc:
                session.fail(str(exc))
                session.attached = False
                reply = {"ok": False, "node_id": session.node_id,
                         "error": str(exc)}
        self.completed += 1
        self._done_event.set()
        writer.write(encode_json_line(reply))
        if session.state == "done":
            # Only now the finished accumulator's checkpoint: until it
            # lands, a restart finds the complete record and replays
            # from the previous checkpoint to the same map.
            try:
                self._checkpoint(session, complete=True)
            except OSError:
                pass  # a restart replays the journal
        await writer.drain()

    async def _consume(self, session: NodeSession, queue: asyncio.Queue,
                       writer: asyncio.StreamWriter,
                       want_acks: bool) -> None:
        """Drain one session's chunk queue: journal first (write-ahead),
        then decode into the accumulator, checkpointing and acking on
        their byte cadences.  Runs as a task so decoding keeps pace with
        (and backpressures) the socket reads; yields to the loop between
        chunks to keep query connections responsive."""
        while True:
            chunk = await queue.get()
            if chunk is _EOF:
                return
            if session.journal is not None:
                fire("serve-journal", session.node_id)
                session.journal.append_chunk(chunk)
            try:
                session.ingest(chunk)
            except Exception as exc:
                raise _StreamFault(
                    f"node {session.node_id} stream is malformed: {exc}"
                ) from exc
            if session.journal is not None and (
                    session.bytes_received - session.checkpointed_bytes
                    >= self.checkpoint_bytes):
                self._checkpoint(session)
            if want_acks and (session.bytes_received
                              - session.last_ack_bytes >= ACK_BYTES):
                session.last_ack_bytes = session.bytes_received
                writer.write(encode_json_line(
                    {"ack": session.bytes_received}))

    # -- queries -------------------------------------------------------------

    async def _handle_query(self, payload: bytes,
                            writer: asyncio.StreamWriter) -> None:
        try:
            query = decode_json_line(payload, "query")
            reply = self._answer(query)
        except ReproError as exc:
            reply = {"ok": False, "error": str(exc)}
        writer.write(encode_json_line(reply))
        await writer.drain()

    def _session_for(self, query: dict) -> NodeSession:
        node_id = query.get("node_id")
        session = self.sessions.get(node_id)
        if session is None:
            known = sorted(self.sessions)
            raise ServeError(f"unknown node {node_id!r}; known: {known}")
        return session

    def _answer(self, query: dict) -> dict:
        if not isinstance(query, dict):
            raise ServeError("query is not a JSON object")
        command = query.get("cmd")
        if command == "nodes":
            return {"ok": True, "nodes": [
                self.sessions[node_id].describe()
                for node_id in sorted(self.sessions)
            ]}
        if command == "breakdown":
            session = self._session_for(query)
            reply = session.breakdown()
            reply.update(ok=True, node_id=session.node_id,
                         state=session.state)
            return reply
        if command == "windows":
            session = self._session_for(query)
            last = query.get("last", 8)
            if type(last) is not int or last < 0:
                raise ServeError(
                    f"windows 'last' must be a non-negative integer, "
                    f"got {last!r}")
            recent = session.accumulator.recent(last)
            return {
                "ok": True,
                "node_id": session.node_id,
                "stride_ns": session.accumulator.stride_ns,
                "emitted": session.accumulator.windows_emitted,
                "windows": [snapshot_to_wire(s) for s in recent],
            }
        if command == "stats":
            return {
                "ok": True,
                "sessions": len(self.sessions),
                "streaming": sum(1 for s in self.sessions.values()
                                 if s.state == "streaming"),
                "completed": self.completed,
                "restored": self.restored,
                "entries": sum(s.decoder.entries_decoded
                               for s in self.sessions.values()),
                "bytes": sum(s.bytes_received
                             for s in self.sessions.values()),
                "entry_size": ENTRY_SIZE,
                "checkpoint_lag_bytes": sum(
                    s.checkpoint_lag_bytes for s in self.sessions.values()),
                "checkpoint_pending": sum(
                    s.pending_writes for s in self.sessions.values()),
                "checkpoint_failed": self.failed_writes,
            }
        raise ServeError(
            f"unknown query cmd {command!r}; "
            "known: nodes, breakdown, windows, stats"
        )
