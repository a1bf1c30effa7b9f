"""The ingest server process of the ``serve-ingest`` workload.

Runs :class:`repro.serve.IngestServer` with a state directory on a unix
socket, the way ``repro serve --state-dir`` does, with the server's
default queue depth, retention and checkpoint cadence.  Two roles:

* ingest (default): listen, serve until SIGTERM.  SIGUSR2 installs the
  benchmark's tracing wrappers and SIGUSR1 writes the spans out and
  removes them, so one process gives an untraced and a traced phase.
* restore (``--restores R``): time ``IngestServer(state_dir=...)``
  restoring the directory R times, scaled to reference host speed
  (``hostspeed.py``), report the samples on the
  ``listening`` line, then serve the restored sessions until SIGTERM.
  With ``--trace-file`` the restores are traced.

Status lines on stdout: ``listening <json>``, ``tracing``, ``dumped``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.serve import IngestServer  # noqa: E402
from hostspeed import loop_s, scaled_ms  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Pause between timed restores, so the samples span a few seconds of
#: host time.
RESTORE_GAP_S = 0.08


def ingest_table(tracer: Tracer) -> list:
    """Spans of the live path: journal, decode, windowed accounting,
    queries and reply encoding, plus the restore path."""
    counts = tracer.counts

    def append_after(_token, _result, args, _kwargs):
        counts["journal.appends"] += 1
        counts["journal.bytes"] += len(args[1])

    def decode_after(_token, result, _args, _kwargs):
        counts["wire.entries"] += len(result)

    def ingest_after(_token, _result, args, _kwargs):
        if tracer.active("session.restore"):
            counts["session.replay_bytes"] += len(args[1])

    return [
        ("repro.serve.journal", "NodeJournal", "append_chunk",
         "journal.append", {"after": append_after}),
        ("repro.serve.journal", "NodeJournal", "mark_complete",
         "journal.append", {}),
        ("repro.serve.journal", "NodeJournal", "write_checkpoint",
         "journal.checkpoint", {}),
        ("repro.serve.journal", "NodeJournal", "load", "journal.load", {}),
        ("repro.serve.journal", "NodeJournal", "load_checkpoint",
         "journal.load", {}),
        ("repro.serve.server", "NodeSession", "checkpoint_state",
         "session.snapshot", {}),
        ("repro.serve.server", "NodeSession", "ingest", "session.ingest",
         {"after": ingest_after}),
        ("repro.serve.server", "NodeSession", "finish", "session.finish", {}),
        ("repro.serve.server", "NodeSession", "breakdown",
         "session.breakdown", {}),
        ("repro.serve.server", "NodeSession", "restore", "session.restore",
         {}),
        ("repro.core.logger", "WireDecoder", "feed", "wire.decode",
         {"after": decode_after}),
        ("repro.core.accounting", "WindowedAccumulator", "feed",
         "windowed.feed", {"record": False}),
        ("repro.serve.server", None, "encode_json_line", "protocol.encode",
         {}),
    ]


def say(line: str) -> None:
    print(line, flush=True)


def restore(state_dir: str, restores: int, trace_file) -> tuple:
    """Restore the state dir ``restores`` times, the reference loop
    timed between them; the last server is kept.  Returns (server,
    samples in ms at reference speed, wall samples in ms)."""
    tracer = None
    if trace_file:
        tracer = Tracer()
        tracer.install(ingest_table(tracer))
        tracer.start()
    samples, wall = [], []
    server = None
    before = loop_s()
    for index in range(restores):
        if server is not None:
            for session in server.sessions.values():
                if session.journal is not None:
                    session.journal.close()
            time.sleep(RESTORE_GAP_S)
            before = loop_s()
        start = time.perf_counter()
        server = IngestServer(state_dir=state_dir)
        took = time.perf_counter() - start
        samples.append(scaled_ms(took, before, loop_s()))
        wall.append(took * 1e3)
    if tracer is not None:
        tracer.stop()
        tracer.dump(Path(trace_file))
    return server, samples, wall


async def serve(args) -> None:
    loop = asyncio.get_running_loop()
    if args.restores:
        server, samples, wall = restore(args.state_dir, args.restores,
                                        args.trace_file)
    else:
        server, samples, wall = IngestServer(state_dir=args.state_dir), \
            [], []
        tracer = None

        def trace_on() -> None:
            nonlocal tracer
            tracer = Tracer()
            tracer.install(ingest_table(tracer))
            tracer.start()
            say("tracing")

        def trace_off() -> None:
            tracer.stop()
            tracer.dump(Path(args.trace_file))
            say("dumped")

        loop.add_signal_handler(signal.SIGUSR2, trace_on)
        loop.add_signal_handler(signal.SIGUSR1, trace_off)
    loop.add_signal_handler(signal.SIGTERM, server.request_shutdown)
    await server.start_unix(args.socket)
    say("listening " + json.dumps({
        "restore_ms": samples,
        "restore_wall_ms": wall,
        "restored": server.restored,
        "states": {str(node_id): session.state
                   for node_id, session in server.sessions.items()},
    }))
    try:
        await server.serve_forever()
    finally:
        await server.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--restores", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
