"""CI smoke: boot the ingest server, stream two simulated nodes over a
socket, and assert the final folded windowed totals are byte-identical
to each node's offline ``build_energy_map``.

This is the end-to-end proof for the live accounting path: simulator →
packed log bytes → chunked socket stream → ``WireDecoder`` →
``WindowedAccumulator`` → JSON reply → folded ``EnergyMap``, equal to
the batch pipeline bit for bit (float bits AND dict insertion order).
The two nodes stream concurrently with different strides and
adversarial (prime) chunk sizes, and the query surface is exercised
while one stream is still in flight.  Once both are done, every window
the server retains (the ``windows`` query) must equal, field for field
and bit for bit, the window a local accumulator fed the whole log in
one batch emits.  Before them, a malformed hello
must get one ``ok: false`` reply, and a stream naming an activity
device its hello did not declare must quarantine its node.

Run: ``PYTHONPATH=src python tools/serve_smoke.py``
Exit status is nonzero on any divergence.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.accounting import build_energy_map  # noqa: E402
from repro.errors import ServeError  # noqa: E402
from repro.experiments.common import run_blink  # noqa: E402
from repro.serve import (  # noqa: E402
    IngestServer,
    NodeSession,
    final_map,
    hello_for_node,
    query,
    stream_node,
    stream_raw,
)
from repro.serve.client import open_connection  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    INGEST_VERB,
    decode_json_line,
    encode_json_line,
    snapshot_to_wire,
)
from repro.tos.node import COMPONENT_NAMES, RES_LED0  # noqa: E402
from repro.units import seconds  # noqa: E402


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


def check_identical(label, served, offline):
    problems = []
    if list(served.energy_j) != list(offline.energy_j):
        problems.append("energy key order")
    if served.energy_j != offline.energy_j:
        problems.append("energy float bits")
    if list(served.time_ns) != list(offline.time_ns):
        problems.append("time key order")
    if served.time_ns != offline.time_ns:
        problems.append("time values")
    if served.metered_energy_j != offline.metered_energy_j:
        problems.append("metered total")
    if served.reconstructed_energy_j != offline.reconstructed_energy_j:
        problems.append("reconstructed total")
    if served.span_ns != offline.span_ns:
        problems.append("span")
    if problems:
        raise SystemExit(f"FAIL [{label}]: served map diverged from "
                         f"offline ({', '.join(problems)})")
    print(f"ok [{label}]: {len(served.energy_j)} (component, activity) "
          f"rows byte-identical to offline "
          f"({served.reconstructed_energy_j * 1e3:.3f} mJ)")


async def refused_hello(sock, hello) -> dict:
    """Send one ingest hello and read the server's one reply."""
    reader, writer = await open_connection(sock)
    writer.write(INGEST_VERB.encode() + b" " + encode_json_line(hello))
    await writer.drain()
    reply = decode_json_line(await reader.readline(), "reply")
    if await reader.read():
        raise SystemExit("FAIL: a refused hello got more than one reply")
    writer.close()
    return reply


def check_windows(label, served, node, stride_ns, retain):
    """The retained windows a ``windows`` query returned against one
    batch of the whole log through a local accumulator: every field,
    floats bit for bit (JSON carries them exactly)."""
    local = NodeSession(hello_for_node(node, stride_ns=stride_ns),
                        retain=retain)
    local.ingest(bytes(node.logger.raw_bytes()))
    local.finish()
    expected = [decode_json_line(encode_json_line(snapshot_to_wire(s)),
                                 "window")
                for s in local.accumulator.windows]
    windows = served["windows"]
    if served["emitted"] != local.accumulator.windows_emitted \
            or windows != expected:
        first = next((k for k, (got, want) in enumerate(zip(windows,
                                                            expected))
                      if got != want), min(len(windows), len(expected)))
        raise SystemExit(f"FAIL [{label}]: served windows diverged from "
                         f"one local batch at window {first} "
                         f"({len(windows)} served, {len(expected)} local)")
    print(f"ok [{label}]: {len(windows)} retained windows identical to "
          "one local batch")


async def bad_streams(sock, node) -> None:
    """A malformed hello is refused; a stream with an undeclared device
    record quarantines its node."""
    hello = hello_for_node(node, stride_ns=int(seconds(1)))
    reply = await refused_hello(sock, dict(hello, node_id=53,
                                           stride_ns="x"))
    if reply.get("ok") is not False or "stride_ns" not in reply["error"]:
        raise SystemExit(f"FAIL: malformed hello not refused: {reply}")
    print(f"ok [malformed hello]: {reply['error']}")
    undeclared = dict(hello, node_id=54, single_res_ids=[
        rid for rid in hello["single_res_ids"] if rid != RES_LED0])
    try:
        await stream_raw(sock, undeclared, bytes(node.logger.raw_bytes()),
                         retries=0)
    except ServeError as exc:
        print(f"ok [undeclared device]: {exc}")
    else:
        raise SystemExit("FAIL: a stream with an undeclared device "
                         "was accepted")


async def main() -> None:
    # Distinct node_ids -> distinct warm-start worlds, so both nodes'
    # logs stay live side by side (same-config runs would reset one).
    node_a, _app, _sim = run_blink(seed=3, duration_ns=seconds(16))
    offline_a = offline_map(node_a)
    node_b, _app, _sim = run_blink(seed=7, duration_ns=seconds(16),
                                   node_id=2)
    offline_b = offline_map(node_b)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as root:
        sock = str(Path(root) / "ingest.sock")
        server = IngestServer()
        await server.start_unix(sock)
        try:
            await bad_streams(sock, node_a)
            reply_a, reply_b = await asyncio.gather(
                stream_node(sock, node_a, stride_ns=int(seconds(1)),
                            chunk_size=97),
                stream_node(sock, node_b, stride_ns=int(seconds(2)),
                            chunk_size=1021),
            )
            listing = await query(sock, {"cmd": "nodes"})
            stats = await query(sock, {"cmd": "stats"})
            served_a, served_b = [
                await query(sock, {"cmd": "windows", "node_id": node_id,
                                   "last": server.retain})
                for node_id in (1, 2)]
        finally:
            await server.close()

    for reply in (reply_a, reply_b):
        if not reply.get("ok"):
            raise SystemExit(f"FAIL: ingest reply not ok: {reply}")
        if reply["windows"] < 2:
            raise SystemExit(f"FAIL: node {reply['node_id']} emitted "
                             f"{reply['windows']} windows — windowing "
                             "never engaged")
    states = {node["node_id"]: node["state"] for node in listing["nodes"]}
    if stats["completed"] != 3 or states != {
            1: "done", 2: "done", 54: "quarantined"}:
        raise SystemExit(f"FAIL: server saw {stats['completed']} "
                         f"completed streams and node states {states}, "
                         "expected 3 and nodes 1, 2 done, 54 quarantined")
    check_identical("node 1, stride 1s, chunk 97",
                    final_map(reply_a), offline_a)
    check_identical("node 2, stride 2s, chunk 1021",
                    final_map(reply_b), offline_b)
    check_windows("node 1 windows", served_a, node_a, int(seconds(1)),
                  server.retain)
    check_windows("node 2 windows", served_b, node_b, int(seconds(2)),
                  server.retain)
    print(f"ok: {reply_a['windows']} + {reply_b['windows']} windows, "
          f"{reply_a['entries'] + reply_b['entries']} entries streamed")


if __name__ == "__main__":
    asyncio.run(main())
