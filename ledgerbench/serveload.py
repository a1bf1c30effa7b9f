"""The ``serve-ingest`` workload: load generator plus crash/restore.

Set-up simulates a seeded collection network and keeps each node's
packed log, ingest hello and offline ``build_energy_map``, then starts
one ingest server process (``server.py``) on a unix socket with a state
directory.

The measured phase runs two tasks in this one load-generator process,
holding at most two connections:

* ingest, a closed loop: the nodes' logs are streamed back to back, one
  connection at a time, in fixed-size chunks;
* queries, an open loop at a fixed rate: a ``breakdown`` query for the
  node currently streaming, each timed from when it was due.

Then a stream is left in flight while the server is SIGKILLed, and a
second server process restores the state directory (timed, several
times, at reference host speed: ``hostspeed.py``).  Every final map
must equal its node's offline map bit for bit, the restored sessions
must equal the uninterrupted ones, and the interrupted stream must
resume from the server's offset to the same offline map.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import loop_s, scaled_ms
from tracer import merge_summaries

HERE = Path(__file__).resolve().parent

NODES = 4
DURATION_S = 30
SAMPLE_PERIOD_S = 1
DEVICE_VARIATION = 0.02
STRIDE_S = 1
CHUNK = 1021            # the client's default chunk size
QUERY_RATE = 10.0       # breakdown queries per second
RESTORES = 30           # timed restores of the crashed state dir
TRACED_CYCLES = 3       # ingest cycles (every node once) when traced
KILL_FRACTION = 0.6     # of the interrupted stream's bytes journaled
PACE_S = 0.004          # delay between chunks of the interrupted stream
CRASH_NODE_ID = 900     # session id of the interrupted stream
STATUS_TIMEOUT_S = 60


@dataclass
class NodeLog:
    node_id: int
    hello: dict
    raw: bytes
    entries: int
    offline: object


def map_problems(served, offline) -> list[str]:
    """Differences between a served map and the offline one: key order,
    float bits and totals (the check of ``tools/serve_smoke.py``)."""
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
    return problems


def simulate_logs(seed: int) -> list[NodeLog]:
    """A seeded multihop collection network; each node's log is taken
    right after its own end-of-log mark, with no record dropped."""
    from repro.apps.collection import build_line_topology
    from repro.core.accounting import build_energy_map
    from repro.hw.platform import PlatformConfig
    from repro.serve import hello_for_node
    from repro.tos.network import Network
    from repro.tos.node import COMPONENT_NAMES, NodeConfig
    from repro.units import seconds

    network = Network(seed=seed)
    node_ids = [10 + index for index in range(NODES)]
    for node_id in node_ids:
        network.add_node(NodeConfig(
            node_id=node_id, mac="csma",
            platform=PlatformConfig(device_variation=DEVICE_VARIATION)))
    apps = build_line_topology(network, node_ids, root_id=node_ids[0],
                               sample_period_ns=seconds(SAMPLE_PERIOD_S))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(DURATION_S))
    logs = []
    for node_id in node_ids:
        node = network.node(node_id)
        timeline = node.timeline()
        raw = bytes(node.logger.raw_bytes())
        if node.logger.records_dropped:
            raise RuntimeError(f"node {node_id} dropped "
                               f"{node.logger.records_dropped} records")
        regression = node.regression(timeline)
        offline = build_energy_map(
            timeline, regression, node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j,
            fold_proxies=False, idle_name=node.registry.name_of(node.idle),
            backend="streaming")
        hello = hello_for_node(node, stride_ns=seconds(STRIDE_S),
                               timeline=timeline, regression=regression)
        logs.append(NodeLog(node_id, hello, raw, len(timeline.entries),
                            offline))
    return logs


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (VmHWM), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One ``server.py`` child and its status-line pipe."""

    def __init__(self, sock: str, state_dir: Path, *extra: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--socket", sock,
             "--state-dir", str(state_dir), *extra],
            stdout=subprocess.PIPE, text=True)
        self.status = json.loads(self.expect("listening"))

    def expect(self, word: str) -> str:
        """Block until the next status line; it must start with
        ``word``.  Returns the rest of the line."""
        line = self.proc.stdout.readline()
        if not line.startswith(word):
            raise RuntimeError(f"server said {line!r}, expected {word!r} "
                               f"(exit code {self.proc.poll()})")
        return line[len(word):].strip() or "{}"

    async def expect_async(self, word: str) -> str:
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(
            loop.run_in_executor(None, self.expect, word), STATUS_TIMEOUT_S)

    def stop(self, sig=None) -> None:
        if self.proc.poll() is None:
            if sig is None:
                self.proc.terminate()
            else:
                self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=STATUS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServeWorkload:
    #: What each end-to-end metric measures here.
    NAMES = {
        "throughput_per_s": "ingest_entries_per_s: entries/s per stream, "
                            "p50 at reference speed",
        "latency_ms_p50": "query_ms_p50: breakdown query from its due time, "
                          "at reference speed",
        "latency_ms_p90": "query_ms_p90: breakdown query from its due time, "
                          "at reference speed",
        "restore_ms": "restore of every session after SIGKILL, p50, "
                      "ms at reference speed",
        "peak_rss_mb": "the ingest server process",
    }

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        # Relative to the working directory: a unix socket path must
        # stay short, however deep the checkout sits.
        self.sock = str(work / "ingest.sock")
        self.state_dir = work / "state"
        self.logs: list[NodeLog] = []
        self.server = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.config: dict = {}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Imports, the simulated logs, and a listening server."""
        rng = random.Random(f"serve-ingest:{self.seed}")
        self.logs = simulate_logs(rng.randrange(10**6))
        # Always the root's log: its length, and so the journal tail a
        # restore replays, is the same for every seed.
        self.crash_log = self.logs[0]
        self.server = ServerProcess(
            self.sock, self.state_dir,
            "--trace-file", str(self.work / "trace-ingest.json"))

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    # -- ingest + queries ------------------------------------------------

    async def _ingest(self, state: dict, clock, stop_at, streams) -> None:
        from repro.errors import ServeError
        from repro.serve import stream_raw

        index = 0
        state["loop"] = loop_s(clock)
        state["first_byte"] = clock()
        while True:
            log = self.logs[index % NODES]
            index += 1
            state["current"] = log.node_id
            self.attempted += 1
            started = clock()
            try:
                reply = await stream_raw(self.sock, log.hello, log.raw,
                                         chunk_size=CHUNK, resume=False)
            except (ServeError, OSError) as exc:
                self._fail(f"stream of node {log.node_id}: {exc}")
                state["loop"] = loop_s(clock)
            else:
                state["last_reply"] = clock()
                wall = state["last_reply"] - started
                # Between streams, so no stream's time includes it.
                before, state["loop"] = state["loop"], loop_s(clock)
                state["rates"].append(
                    reply.get("entries", 0)
                    / scaled_ms(wall, before, state["loop"]) * 1e3)
                state["wall_rates"].append(reply.get("entries", 0) / wall)
                state["replies"].append((log, reply))
                state["done"] = log.node_id
                state["seen"].add(log.node_id)
                state["first_done"].set()
            if streams is not None:
                if index >= streams:
                    break
            elif clock() >= stop_at and index >= NODES:
                break
        state["ingest_over"] = True
        state["first_done"].set()

    async def _queries(self, state: dict, clock) -> None:
        from repro.errors import ServeError
        from repro.serve import query

        await state["first_done"].wait()
        started = clock()
        sent = 0
        while not state["ingest_over"]:
            due = started + sent / QUERY_RATE
            sent += 1
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            if state["ingest_over"]:
                break
            # The streaming node once the server knows it, else the
            # node that finished last.
            node_id = state["current"] if state["current"] in \
                state["seen"] else state["done"]
            state["lag"].append(clock() - due)
            self.attempted += 1
            try:
                reply = await query(self.sock, {"cmd": "breakdown",
                                                "node_id": node_id})
            except (ServeError, OSError) as exc:
                self._fail(f"breakdown query: {exc}")
                continue
            latency = clock() - due
            state["wall_latency"].append(latency)
            # At the host speed the last loop between streams read.
            state["latency"].append(
                scaled_ms(latency, state["loop"], state["loop"]))
            if not reply.get("ok") or reply.get("node_id") != node_id \
                    or "energy_j" not in reply:
                self._fail(f"breakdown of node {node_id}: {reply}")

    async def _ingest_phase(self, clock, seconds=None, streams=None):
        """Ingest plus queries, for ``seconds`` or exactly ``streams``
        streams.  Returns the phase's raw figures."""
        state = {"replies": [], "rates": [], "wall_rates": [],
                 "latency": [], "wall_latency": [], "lag": [],
                 "current": None,
                 "done": None, "seen": set(), "ingest_over": False,
                 "first_done": asyncio.Event()}
        stop_at = clock() + seconds if seconds is not None else None
        await asyncio.gather(
            self._ingest(state, clock, stop_at, streams),
            self._queries(state, clock))
        entries = 0
        windows = 0
        for log, reply in state["replies"]:
            entries += reply.get("entries", 0)
            windows += reply.get("windows", 0)
            self._check_reply(log, reply)
        span = state.get("last_reply", state["first_byte"]) \
            - state["first_byte"]
        return {
            # Per stream, first byte to final reply, at reference speed.
            "entries_per_s": statistics.median(state["rates"]),
            "wall_entries_per_s": statistics.median(state["wall_rates"]),
            "mean_entries_per_s": entries / span,
            "latency": state["latency"],
            "wall_latency": state["wall_latency"],
            "lag": state["lag"],
            "windows": windows,
            "streams": len(state["replies"]),
        }

    def _check_reply(self, log: NodeLog, reply: dict) -> None:
        from repro.serve import final_map

        if not reply.get("ok"):
            self._fail(f"node {log.node_id} reply not ok: "
                       f"{reply.get('error')}")
            return
        problems = map_problems(final_map(reply), log.offline)
        if reply.get("entries") != log.entries:
            problems.append(f"{reply.get('entries')} entries, "
                            f"want {log.entries}")
        if problems:
            self._fail(f"node {log.node_id}: {', '.join(problems)}")

    # -- crash + restore -------------------------------------------------

    async def _crash_and_restore(self, clock, traced: bool) -> dict:
        """Kill the server mid-stream, restore its state dir in a new
        server process, and check the restored sessions."""
        from repro.errors import ServeError
        from repro.serve import final_map, query, stream_raw
        from repro.serve.protocol import emap_from_wire

        log = self.crash_log
        hello = dict(log.hello, node_id=CRASH_NODE_ID)
        journal = self.state_dir / f"node-{CRASH_NODE_ID}.waj"
        kill_at = int(len(log.raw) * KILL_FRACTION)

        async def paced(_sent, _total):
            await asyncio.sleep(PACE_S)

        stream = asyncio.ensure_future(stream_raw(
            self.sock, hello, log.raw, chunk_size=CHUNK, on_chunk=paced,
            resume=True, retries=0))
        deadline = clock() + STATUS_TIMEOUT_S
        while not journal.exists() or journal.stat().st_size < kill_at:
            if stream.done() or clock() > deadline:
                break
            await asyncio.sleep(0.001)
        rss = peak_rss_mb(self.server.proc.pid)
        self.server.stop(sig=signal.SIGKILL)
        self.server = None
        self.attempted += 1
        try:
            await stream
            self._fail("the interrupted stream finished before the kill")
        except (ServeError, OSError):
            pass

        extra = ["--restores", str(RESTORES)]
        if traced:
            extra += ["--trace-file", str(self.work / "trace-restore.json")]
        restored = ServerProcess(self.sock, self.state_dir, *extra)
        try:
            status = restored.status
            states = status["states"]
            self.attempted += 1
            want = {str(l.node_id): "done" for l in self.logs}
            want[str(CRASH_NODE_ID)] = "suspended"
            if states != want:
                self._fail(f"restored states {states}, want {want}")
            for node in self.logs:
                self.attempted += 1
                reply = await query(self.sock, {"cmd": "breakdown",
                                                "node_id": node.node_id})
                problems = ["not ok"] if not reply.get("ok") else \
                    map_problems(emap_from_wire(reply), node.offline)
                if problems:
                    self._fail(f"restored node {node.node_id}: "
                               f"{', '.join(problems)}")
            self.attempted += 1
            try:
                reply = await stream_raw(self.sock, hello, log.raw,
                                         chunk_size=CHUNK, resume=True,
                                         retries=0)
            except (ServeError, OSError) as exc:
                self._fail(f"resumed stream: {exc}")
            else:
                problems = map_problems(final_map(reply), log.offline)
                if not 0 < reply["client"]["resumed_from"] < len(log.raw):
                    problems.append(
                        f"resumed from {reply['client']['resumed_from']}")
                if problems:
                    self._fail(f"resumed stream: {', '.join(problems)}")
        finally:
            restored.stop()
        self.config["restore_wall_ms_samples"] = [
            round(sample, 3) for sample in status["restore_wall_ms"]]
        return {"restore_ms": statistics.median(status["restore_ms"]),
                "restore_wall_ms": statistics.median(
                    status["restore_wall_ms"]),
                "peak_rss_mb": rss}

    # -- runs ------------------------------------------------------------

    def run_for(self, seconds: float, clock) -> dict:
        async def scenario():
            ingest = await self._ingest_phase(clock, seconds=seconds)
            crash = await self._crash_and_restore(clock, traced=False)
            return ingest, crash

        ingest, crash = asyncio.run(scenario())
        latency = ingest["latency"]
        deciles = statistics.quantiles(latency, n=10)
        self.config.update({
            "streams": ingest["streams"],
            "queries": len(latency),
            "query_rate_per_s": QUERY_RATE,
            "chunk_bytes": CHUNK,
            "nodes": NODES,
        })
        return {
            "throughput_per_s": ingest["entries_per_s"],
            "wall_entries_per_s": ingest["wall_entries_per_s"],
            "mean_entries_per_s": ingest["mean_entries_per_s"],
            "latency_ms_p50": statistics.median(latency),
            "latency_ms_p90": deciles[8],
            "wall_latency_ms_p50": statistics.median(
                ingest["wall_latency"]) * 1e3,
            "restore_ms": crash["restore_ms"],
            "restore_wall_ms": crash["restore_wall_ms"],
            "peak_rss_mb": crash["peak_rss_mb"],
        }

    def traced(self, clock) -> dict:
        streams = TRACED_CYCLES * NODES

        async def scenario():
            untraced = await self._ingest_phase(clock, streams=streams)
            self.server.proc.send_signal(signal.SIGUSR2)
            await self.server.expect_async("tracing")
            backpressure = _DrainTimer()
            try:
                traced = await self._ingest_phase(clock, streams=streams)
            finally:
                backpressure.undo()
            self.server.proc.send_signal(signal.SIGUSR1)
            await self.server.expect_async("dumped")
            await self._crash_and_restore(clock, traced=True)
            return untraced, traced, backpressure.waited_s

        untraced, traced, waited = asyncio.run(scenario())
        ingest = json.loads((self.work / "trace-ingest.json").read_text())
        restore = json.loads((self.work / "trace-restore.json").read_text())
        summary = merge_summaries([ingest["summary"], restore["summary"]])
        metrics = serve_layer_metrics(ingest["summary"], restore["summary"])
        metrics.update({
            "windowed.windows": traced["windows"],
            "client.backpressure_s": waited,
            "client.generator_lag_ms": statistics.fmean(traced["lag"]) * 1e3,
            "trace.overhead_frac": (untraced["entries_per_s"]
                                    - traced["entries_per_s"])
            / untraced["entries_per_s"],
        })
        return {"summary": summary, "metrics": metrics}


class _DrainTimer:
    """Times how long the generator's writes wait in
    ``StreamWriter.drain`` (patched on the class, where writers look it
    up) until :meth:`undo`."""

    def __init__(self) -> None:
        self.waited_s = 0.0
        self._original = asyncio.StreamWriter.drain
        original = self._original
        timer = self

        async def drain(writer):
            start = time.perf_counter()
            try:
                return await original(writer)
            finally:
                timer.waited_s += time.perf_counter() - start

        asyncio.StreamWriter.drain = drain

    def undo(self) -> None:
        asyncio.StreamWriter.drain = self._original


def serve_layer_metrics(ingest: dict, restore: dict) -> dict:
    """Per-layer figures: the live path from the ingest server's trace,
    the restore path (per restore) from the restore server's."""
    total, calls, counts = ingest["total_s"], ingest["calls"], \
        ingest["counts"]

    def t(span):
        return total.get(span, 0.0)

    return {
        "journal.append_s": t("journal.append"),
        "journal.appends": counts.get("journal.appends", 0),
        "journal.bytes": counts.get("journal.bytes", 0),
        "journal.checkpoint_s": t("journal.checkpoint")
        + t("session.snapshot"),
        "journal.checkpoints": calls.get("journal.checkpoint", 0),
        "wire.decode_s": t("wire.decode"),
        "wire.entries": counts.get("wire.entries", 0),
        "windowed.feed_s": t("windowed.feed"),
        "session.breakdown_s": t("session.breakdown"),
        "protocol.encode_s": t("protocol.encode"),
        "journal.load_s": restore["total_s"].get("journal.load", 0.0)
        / RESTORES,
        "session.restore_s": restore["total_s"].get("session.restore", 0.0)
        / RESTORES,
        "session.replay_bytes": restore["counts"].get(
            "session.replay_bytes", 0) / RESTORES,
    }
