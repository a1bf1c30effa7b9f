"""The live ingest server: streams in, breakdowns out.

The headline contract: a node's log streamed over a socket — in
adversarial chunk sizes — produces a final folded map **byte-identical**
to the offline ``build_energy_map`` of the same log.  Also covered:
concurrent node streams, live queries mid-stream, the query surface,
protocol error paths (bad hello, torn stream), and wire round-trips.
"""

import asyncio
import json

import pytest

from repro.core.accounting import build_energy_map
from repro.errors import ServeError
from repro.experiments.common import run_blink
from repro.serve import (
    IngestServer,
    final_map,
    hello_for_node,
    parse_address,
    query,
    stream_node,
    stream_raw,
)
from repro.serve.protocol import (
    emap_from_wire,
    emap_to_wire,
    pairs_from_wire,
    pairs_to_wire,
)
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


@pytest.fixture()
def sock(tmp_path):
    return str(tmp_path / "ingest.sock")


def serve_and(sock_path, coroutine_fn, **server_kwargs):
    """Boot a unix-socket server, run the client coroutine, tear down."""
    async def main():
        server = IngestServer(**server_kwargs)
        await server.start_unix(sock_path)
        try:
            return await coroutine_fn(server)
        finally:
            await server.close()

    return asyncio.run(main())


# -- the identity contract ---------------------------------------------------


@pytest.mark.parametrize("chunk_size", [1, 7, 1021, 1 << 16])
def test_streamed_map_equals_offline(sock, chunk_size):
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    offline = offline_map(node)

    async def client(_server):
        return await stream_node(sock, node, stride_ns=int(seconds(1)),
                                 chunk_size=chunk_size)

    reply = serve_and(sock, client)
    assert reply["ok"] and reply["windows"] >= 1
    assert_maps_identical(final_map(reply), offline)


def test_two_nodes_stream_concurrently(sock):
    node_a, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    node_b, _app, _sim = run_blink(seed=7, duration_ns=seconds(8),
                                   node_id=2)
    offline = {1: offline_map(node_a), 2: offline_map(node_b)}

    async def client(server):
        replies = await asyncio.gather(
            stream_node(sock, node_a, stride_ns=int(seconds(1)),
                        chunk_size=13),
            stream_node(sock, node_b, stride_ns=int(seconds(2)),
                        chunk_size=31),
        )
        assert server.completed == 2
        return replies

    for reply in serve_and(sock, client):
        assert reply["ok"]
        assert_maps_identical(final_map(reply),
                              offline[reply["node_id"]])


def test_queries_mid_stream_and_after(sock):
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    offline = offline_map(node)
    live_states = []

    async def client(_server):
        async def on_chunk(sent, total):
            if sent < total:
                reply = await query(sock, {"cmd": "breakdown",
                                           "node_id": 1})
                live_states.append(reply["live"])

        reply = await stream_node(sock, node, stride_ns=int(seconds(1)),
                                  chunk_size=256, on_chunk=on_chunk)
        listing = await query(sock, {"cmd": "nodes"})
        windows = await query(sock, {"cmd": "windows", "node_id": 1,
                                     "last": 4})
        stats = await query(sock, {"cmd": "stats"})
        done = await query(sock, {"cmd": "breakdown", "node_id": 1})
        return reply, listing, windows, stats, done

    reply, listing, windows, stats, done = serve_and(sock, client)
    assert any(live_states)  # at least one query hit a stream in flight
    assert listing["nodes"][0]["state"] == "done"
    assert listing["nodes"][0]["entries"] == reply["entries"]
    assert windows["windows"][-1]["final"]
    assert windows["emitted"] == reply["windows"]
    assert stats["completed"] == 1
    assert done["live"] is False
    assert_maps_identical(emap_from_wire(done), offline)
    assert_maps_identical(final_map(reply), offline)


def test_windows_verb_takes_only_a_non_negative_count(sock):
    """``last`` is how many of the newest windows to return: 0 returns
    none, and anything but a non-negative int (a negative count, a
    string, a bool) is a query error, not a slice of the wrong windows
    or a dropped connection."""
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))

    async def client(server):
        reply = await stream_node(sock, node, stride_ns=int(seconds(0.25)))
        replies = {}
        for last in (0, 1, 3, -3, "x", True, 2.0, None):
            replies[repr(last)] = await query(
                sock, {"cmd": "windows", "node_id": 1, "last": last})
        replies["default"] = await query(
            sock, {"cmd": "windows", "node_id": 1})
        everything = server.sessions[1].accumulator.windows
        return reply, replies, everything

    reply, replies, everything = serve_and(sock, client)
    assert reply["windows"] > 8
    assert replies["0"] == dict(replies["0"], ok=True, windows=[])
    for last in (1, 3, 8):
        key = "default" if last == 8 else repr(last)
        got = replies[key]["windows"]
        assert [w["index"] for w in got] \
            == [s.index for s in everything[-last:]]
    assert replies["3"]["windows"][-1]["final"]
    for bad in ("-3", "'x'", "True", "2.0", "None"):
        assert replies[bad]["ok"] is False, bad
        assert "non-negative integer" in replies[bad]["error"]


# -- protocol errors ---------------------------------------------------------


def test_bad_hello_is_rejected(sock):
    async def client(_server):
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b'INGEST {"node_id": 1}\n')
        await writer.drain()
        line = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return json.loads(line)

    reply = serve_and(sock, client)
    assert reply["ok"] is False and "missing" in reply["error"]


def test_torn_stream_is_an_error_not_a_map(sock):
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    hello = hello_for_node(node, stride_ns=int(seconds(1)))
    raw = bytes(node.logger.raw_bytes())[:-5]  # rip the last entry

    async def client(server):
        with pytest.raises(ServeError, match="partial entry"):
            await stream_raw(sock, hello, raw)
        listing = await query(sock, {"cmd": "nodes"})
        return listing

    listing = serve_and(sock, client)
    assert listing["nodes"][0]["state"] == "error"
    assert "partial entry" in listing["nodes"][0]["error"]


def test_unknown_verb_and_query(sock):
    async def client(_server):
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b"FROBNICATE {}\n")
        await writer.drain()
        verb_reply = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        unknown_cmd = await query(sock, {"cmd": "nope"})
        unknown_node = await query(sock, {"cmd": "breakdown",
                                          "node_id": 99})
        return verb_reply, unknown_cmd, unknown_node

    verb_reply, unknown_cmd, unknown_node = serve_and(sock, client)
    assert verb_reply["ok"] is False and "verb" in verb_reply["error"]
    assert unknown_cmd["ok"] is False
    assert unknown_node["ok"] is False and "unknown node" in \
        unknown_node["error"]


def test_tcp_listener_works_too():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(4))
    offline = offline_map(node)

    async def main():
        server = IngestServer()
        host, port = await server.start_tcp("127.0.0.1", 0)
        try:
            return await stream_node((host, port), node,
                                     stride_ns=int(seconds(1)))
        finally:
            await server.close()

    reply = asyncio.run(main())
    assert_maps_identical(final_map(reply), offline)


# -- wire encoding -----------------------------------------------------------


def test_pairs_round_trip_preserves_order_and_bits():
    mapping = {("CPU", "1:Blink"): 0.1 + 0.2, ("Radio", "1:Idle"): 3e-17}
    triples = pairs_to_wire(mapping)
    assert pairs_from_wire(json.loads(json.dumps(triples))) == mapping
    assert list(pairs_from_wire(triples)) == list(mapping)


def test_emap_json_round_trip_is_exact():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(4))
    offline = offline_map(node)
    wire = json.loads(json.dumps(emap_to_wire(offline)))
    assert_maps_identical(emap_from_wire(wire), offline)


def test_parse_address_forms():
    assert parse_address("unix:/tmp/x.sock") == "/tmp/x.sock"
    assert parse_address("127.0.0.1:7117") == ("127.0.0.1", 7117)
    assert parse_address(":0") == ("127.0.0.1", 0)
    for bad in ("unix:", "nocolon", "host:port", ":65536", ":99999"):
        with pytest.raises(ServeError):
            parse_address(bad)


@pytest.mark.parametrize("spec, message", [
    ("bogus", "bad address 'bogus'"),
    (":99999", "port must be 0-65535"),
    ("unix:/nonexistent-dir/x.sock",
     "cannot listen on unix:/nonexistent-dir/x.sock"),
], ids=["unparsable", "port-out-of-range", "unbindable-path"])
def test_serve_refuses_an_address_it_cannot_bind(spec, message, tmp_path,
                                                 capsys):
    """An address that cannot be parsed or bound exits 2 with one
    ``error:`` line naming it, and the listener already started for an
    earlier ``--listen`` is closed on the way out."""
    from repro.cli import main

    first = str(tmp_path / "first.sock")
    assert main(["serve", "--listen", f"unix:{first}",
                 "--listen", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"listening on unix:{first}\n"
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err

    async def connect():
        await asyncio.open_unix_connection(first)

    with pytest.raises(OSError):
        asyncio.run(connect())


# -- graceful shutdown -------------------------------------------------------


def _stalled_stream_shutdown(sock, prefix_len):
    """Start a stream, stall it (no EOF) after ``prefix_len`` bytes,
    request shutdown mid-flight, and return (reply, server)."""
    from repro.serve.protocol import (
        INGEST_VERB,
        decode_json_line,
        encode_json_line,
    )

    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    raw = node.logger.raw_bytes()
    assert prefix_len < len(raw)
    hello = hello_for_node(node, stride_ns=int(seconds(1)))

    async def main():
        server = IngestServer()
        await server.start_unix(sock)

        async def client():
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(INGEST_VERB.encode() + b" "
                         + encode_json_line(hello))
            writer.write(raw[:prefix_len])
            await writer.drain()
            # Stall: no more bytes, no EOF — only a shutdown ends this.
            line = await reader.readline()
            writer.close()
            return decode_json_line(line, "reply") if line else None

        serve_task = asyncio.ensure_future(server.serve_forever())
        client_task = asyncio.ensure_future(client())
        await asyncio.sleep(0.1)  # let the prefix land
        server.request_shutdown()
        await serve_task  # returns only after handlers drained
        return await client_task, server

    return asyncio.run(main())


def test_shutdown_drains_and_finishes_clean_decoders(sock):
    """SIGINT/SIGTERM semantics: a node stalled at an entry boundary is
    drained, its decoder finished, and it gets its final folded map
    flagged as a shutdown delivery."""
    prefix = 1200  # 100 whole 12-byte entries
    reply, server = _stalled_stream_shutdown(sock, prefix)
    assert reply["ok"] and reply["shutdown"] is True
    assert reply["entries"] == 100
    assert server.sessions[1].state == "done"
    lines = server.final_stats_lines()
    assert any("node 1: done" in line for line in lines)
    assert any("1 completed streams" in line for line in lines)


def test_shutdown_mid_frame_fails_the_node_not_the_server(sock):
    """A node caught with a partial entry in its decoder cannot be
    folded truthfully: it is marked failed with a mid-frame error while
    the server still shuts down in order."""
    reply, server = _stalled_stream_shutdown(sock, 1207)  # 7 torn bytes
    assert reply["ok"] is False
    assert "mid-frame" in reply["error"]
    session = server.sessions[1]
    assert session.state == "error" and "mid-frame" in session.error
    assert any("error" in line for line in server.final_stats_lines())


def test_cli_serve_sigterm_graceful_exit(tmp_path):
    """The CLI wiring end to end: `repro serve` under SIGTERM stops
    accepting, drains, prints the final stats, and exits 0."""
    import os
    import signal
    import subprocess
    import sys
    import time as _time
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", ":0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "shutdown: draining complete" in out
    assert "0 sessions" in out


# -- backpressure ------------------------------------------------------------


def test_slow_accounting_bounds_the_bytes_in_flight(sock, monkeypatch):
    """A consumer slower than its sender backpressures the socket: the
    bytes a client has written but the session has not ingested never
    exceed the chunk queue, the stream reader's buffer (paused past two
    read chunks) and the kernel's socket buffers, however long the
    stream runs."""
    import socket
    import threading

    from repro.serve.protocol import INGEST_VERB, encode_json_line
    from repro.serve.server import QUEUE_DEPTH, READ_CHUNK, NodeSession

    class SlowQueue(asyncio.Queue):
        """The consumer's side of the chunk queue, 1 ms per chunk; the
        sleep yields, so the socket reader runs meanwhile."""

        async def get(self):
            await asyncio.sleep(0.001)
            return await super().get()

    def count_only(self, chunk):
        self.bytes_received += len(chunk)

    monkeypatch.setattr(asyncio, "Queue", SlowQueue)
    monkeypatch.setattr(NodeSession, "ingest", count_only)
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(4))
    hello = hello_for_node(node, stride_ns=int(seconds(1)))
    total, piece = 24 << 20, bytes(READ_CHUNK)
    backlog, kernel = [], []

    def client(server):
        with socket.socket(socket.AF_UNIX) as conn:
            conn.settimeout(30)  # a stalled server fails, never hangs
            kernel.extend(conn.getsockopt(socket.SOL_SOCKET, option)
                          for option in (socket.SO_SNDBUF, socket.SO_RCVBUF))
            conn.connect(sock)
            conn.sendall(INGEST_VERB.encode() + b" " + encode_json_line(hello))
            sent = 0
            while sent < total:
                conn.sendall(piece)
                sent += len(piece)
                session = server.sessions.get(node.node_id)
                backlog.append(
                    sent - (session.bytes_received if session else 0))
            conn.shutdown(socket.SHUT_WR)
            conn.recv(1 << 16)

    async def main():
        server = IngestServer()
        await server.start_unix(sock)
        thread = threading.Thread(target=client, args=(server,))
        thread.start()
        try:
            while thread.is_alive():
                await asyncio.sleep(0.01)
        finally:
            thread.join(timeout=30)
            await server.close()
        assert not thread.is_alive()

    asyncio.run(main())
    # Socket slack: both ends' kernel buffers plus the chunks held
    # outside the queue (one being read, one being put, one ingesting).
    slack = 2 * sum(kernel) + 3 * READ_CHUNK
    bound = QUEUE_DEPTH * READ_CHUNK + 2 * READ_CHUNK + slack
    assert len(backlog) == total // READ_CHUNK
    assert max(backlog) <= bound, (max(backlog), bound)
    assert max(backlog) > 8 * READ_CHUNK  # the consumer did fall behind


def test_hello_longer_than_a_read_chunk_is_accepted(sock):
    """The stream buffer is one read chunk, yet a hello up to
    ``LINE_LIMIT`` still parses: a registry of long activity names
    pushes this one past 64 KB."""
    from repro.serve.protocol import LINE_LIMIT
    from repro.serve.server import READ_CHUNK

    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(4))
    hello = hello_for_node(node, stride_ns=int(seconds(1)))
    hello["registry"].update(
        {str(aid): f"Padding{aid}" + "x" * 500 for aid in range(50, 190)})
    size = len(json.dumps(hello))
    assert READ_CHUNK < size < LINE_LIMIT
    raw = bytes(node.logger.raw_bytes())

    async def client(_server):
        return await stream_raw(sock, hello, raw)

    reply = serve_and(sock, client)
    assert reply["ok"]
    assert_maps_identical(final_map(reply), offline_map(node))


def test_request_line_past_the_line_limit_is_refused(sock):
    from repro.serve.protocol import LINE_LIMIT

    async def client(_server):
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b"QUERY " + b" " * LINE_LIMIT + b"{}\n")
        await writer.drain()
        line = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return json.loads(line)

    reply = serve_and(sock, client)
    assert reply["ok"] is False and "longer than" in reply["error"]
