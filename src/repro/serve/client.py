"""Client side of the ingest service: stream a node's log, ask questions.

:func:`stream_node` is the whole node-agent loop in one call — build
the hello from a :class:`~repro.tos.node.QuantoNode`, open the
connection, push the packed log in transport-sized chunks, half-close,
and hand back the server's final folded map.  :func:`query` opens a
one-shot control connection.

The chunking is deliberately adversarial by default (a prime chunk
size, so entry boundaries drift through every offset): the server-side
:class:`~repro.core.logger.WireDecoder` must not care, and the smoke
tests lean on that.

**Reconnect-with-resume**: by default the client speaks the ack
handshake (hello ``"ack": true``) — the server answers with the stream
offset it already holds (journaled across restarts), the client seeks
its log there and replays idempotently.  A dropped connection, a
bounced server, or an explicit retryable NACK (overload shed, graceful
drain) costs a capped-exponential-backoff reconnect, nothing more; the
final map is byte-identical to an uninterrupted stream.  Connection
failures that outlive the retry budget surface as a typed
:class:`~repro.errors.ServeError` naming the node, never a bare
``OSError``.
"""

from __future__ import annotations

import asyncio

from repro.errors import ServeError
from repro.serve.protocol import (
    Address,
    INGEST_VERB,
    LINE_LIMIT,
    QUERY_VERB,
    decode_json_line,
    emap_from_wire,
    encode_json_line,
    is_ack_line,
    make_hello,
)

#: Default ingest chunk size: prime, smaller than one TCP segment, and
#: not a multiple of the 12-byte entry — every partial-entry offset gets
#: exercised in the first few chunks of any real log.
DEFAULT_CHUNK = 1021

#: Reconnect budget: how many times a dropped connection / retryable
#: NACK is retried before the stream is declared failed.
DEFAULT_RETRIES = 5

#: Capped exponential backoff between reconnect attempts.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


async def open_connection(address: Address):
    """Open a stream to ``address`` (``(host, port)`` or a unix path)."""
    if isinstance(address, str):
        return await asyncio.open_unix_connection(address, limit=LINE_LIMIT)
    host, port = address
    return await asyncio.open_connection(host, port, limit=LINE_LIMIT)


def hello_for_node(node, *, stride_ns: int, timeline=None,
                   regression=None) -> dict:
    """The ingest hello for a simulated node: capture its timeline and
    regression (if not provided) and pack the accounting inputs."""
    from repro.tos.node import COMPONENT_NAMES

    if timeline is None:
        timeline = node.timeline()
    if regression is None:
        regression = node.regression(timeline)
    return make_hello(
        node_id=node.node_id,
        registry=node.registry,
        component_names=COMPONENT_NAMES,
        regression=regression,
        energy_per_pulse_j=node.platform.icount.nominal_energy_per_pulse_j,
        idle_name=node.registry.name_of(node.idle),
        stride_ns=stride_ns,
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids,
        end_time_ns=timeline.end_time_ns,
    )


async def _stream_once(address: Address, hello: dict, raw: bytes, *,
                       chunk_size: int, on_chunk, resume: bool) -> dict:
    """One connection attempt.  Raises ``ConnectionError`` family for
    transport failures (retryable by the caller) and :class:`ServeError`
    for server rejections (``exc.retryable`` says whether to back off
    and try again)."""
    reader, writer = await open_connection(address)
    try:
        wire_hello = dict(hello)
        if resume:
            wire_hello["ack"] = True
        writer.write(INGEST_VERB.encode() + b" "
                     + encode_json_line(wire_hello))
        await writer.drain()
        offset = 0
        if resume:
            line = await reader.readline()
            if not line:
                raise ConnectionResetError(
                    "server closed during the resume handshake")
            handshake = decode_json_line(line, "ingest handshake")
            if not handshake.get("ok"):
                exc = ServeError(
                    f"ingest rejected: "
                    f"{handshake.get('error', 'unknown error')}")
                exc.retryable = bool(handshake.get("retry")
                                     or handshake.get("shed"))
                raise exc
            offset = int(handshake.get("offset", 0))
            if offset > len(raw):
                raise ServeError(
                    f"server holds {offset} bytes but the log is only "
                    f"{len(raw)} — node identity reused?")
        total = len(raw)
        for at in range(offset, total, chunk_size):
            writer.write(raw[at:at + chunk_size])
            await writer.drain()
            if on_chunk is not None:
                await on_chunk(min(at + chunk_size, total), total)
        writer.write_eof()  # half-close: "the log is complete"
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionResetError(
                    "server closed without a final reply")
            reply = decode_json_line(line, "ingest reply")
            if not is_ack_line(reply):
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
    if not reply.get("ok"):
        exc = ServeError(
            f"ingest rejected: {reply.get('error', 'unknown error')}")
        exc.retryable = bool(reply.get("retry"))
        raise exc
    reply["client"] = {"resumed_from": offset}
    return reply


async def stream_raw(address: Address, hello: dict, raw: bytes,
                     *, chunk_size: int = DEFAULT_CHUNK,
                     on_chunk=None, resume: bool = True,
                     retries: int = DEFAULT_RETRIES,
                     backoff_base_s: float = BACKOFF_BASE_S,
                     backoff_cap_s: float = BACKOFF_CAP_S) -> dict:
    """Stream pre-packed log bytes under an explicit hello; returns the
    server's final reply (the folded map under ``"energy_map"``, plus a
    ``"client"`` dict recording reconnects and the resume offset).

    ``on_chunk(sent_bytes, total_bytes)`` — awaited after every chunk if
    given — is the hook interactive clients (quanto-top) use to
    interleave queries with a stream still in flight.

    With ``resume`` (default) each attempt handshakes for the server's
    acked offset and replays only the tail, so retries are idempotent;
    ``resume=False`` speaks the original one-reply protocol and never
    retries.
    """
    if chunk_size < 1:
        raise ServeError("chunk size must be at least 1")
    node_id = hello.get("node_id")
    budget = retries if resume else 0
    attempt = 0
    while True:
        try:
            reply = await _stream_once(
                address, hello, raw, chunk_size=chunk_size,
                on_chunk=on_chunk, resume=resume)
            reply["client"]["reconnects"] = attempt
            return reply
        except ServeError as exc:
            if not getattr(exc, "retryable", False) or attempt >= budget:
                raise
        except (ConnectionError, asyncio.IncompleteReadError,
                OSError) as exc:
            # Bounced server, dropped socket, refused reconnect window.
            if attempt >= budget:
                raise ServeError(
                    f"node {node_id}: connection lost after {attempt} "
                    f"reconnect attempts: {exc}") from exc
        attempt += 1
        await asyncio.sleep(
            min(backoff_cap_s, backoff_base_s * (2 ** (attempt - 1))))


async def stream_node(address: Address, node, *, stride_ns: int,
                      chunk_size: int = DEFAULT_CHUNK,
                      on_chunk=None, resume: bool = True,
                      retries: int = DEFAULT_RETRIES,
                      backoff_base_s: float = BACKOFF_BASE_S,
                      backoff_cap_s: float = BACKOFF_CAP_S) -> dict:
    """Stream one simulated node's full log to the server."""
    hello = hello_for_node(node, stride_ns=stride_ns)
    raw = node.logger.raw_bytes()
    return await stream_raw(address, hello, raw, chunk_size=chunk_size,
                            on_chunk=on_chunk, resume=resume,
                            retries=retries,
                            backoff_base_s=backoff_base_s,
                            backoff_cap_s=backoff_cap_s)


async def query(address: Address, payload: dict) -> dict:
    """One control query; returns the server's reply object."""
    reader, writer = await open_connection(address)
    try:
        writer.write(QUERY_VERB.encode() + b" " + encode_json_line(payload))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ServeError("server closed without a query reply")
        return decode_json_line(line, "query reply")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


def final_map(reply: dict):
    """The folded :class:`~repro.core.accounting.EnergyMap` out of an
    ingest reply."""
    return emap_from_wire(reply["energy_map"])
