"""Live windowed energy accounting as a service (toward the paper's
"network-wide profiling", §6).

The offline pipeline — 12-byte log, wire decode, timeline stream,
energy accumulator — already runs in one bounded pass; this package
points it at sockets.  Nodes stream their packed logs to a long-running
:class:`~repro.serve.server.IngestServer`; each stream gets a
:class:`~repro.core.logger.WireDecoder` (chunk-boundary-proof decode)
feeding a :class:`~repro.core.accounting.WindowedAccumulator` (live
per-window breakdowns, exact cumulative sums), with bounded queues
backpressuring fast senders.  Query connections read live breakdowns
while streams are in flight; a finished stream's reply carries the
folded map, byte-identical to the offline ``build_energy_map`` of the
same log.

Durability (``--state-dir``): every stream is write-ahead journaled
(:mod:`repro.serve.journal`) and periodically checkpointed, so a
SIGKILLed server restarts, replays the journal tail, and serves maps
bit-identical to an uninterrupted run; clients reconnect with capped
backoff and resume idempotently from the server's acked offset.

Run one with ``python -m repro serve``; stream and watch with
``examples/quanto_top.py --server ADDR``.
"""

from repro.serve.client import (
    final_map,
    hello_for_node,
    open_connection,
    query,
    stream_node,
    stream_raw,
)
from repro.serve.journal import NodeJournal
from repro.serve.protocol import Address, make_hello, parse_address
from repro.serve.server import IngestServer, NodeSession

__all__ = [
    "Address",
    "IngestServer",
    "NodeJournal",
    "NodeSession",
    "final_map",
    "hello_for_node",
    "make_hello",
    "open_connection",
    "parse_address",
    "query",
    "stream_node",
    "stream_raw",
]
