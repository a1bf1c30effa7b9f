"""CI chaos: SIGKILL `repro serve` mid-stream, restart it, and prove
the resumed final map byte-identical to the uninterrupted offline one.

The scenario, at the runner level (real processes, real sockets):

1. a `repro serve --state-dir` subprocess listens on a unix socket;
2. this process streams one simulated node's log with the resume
   handshake enabled, deliberately paced so the kill lands mid-stream;
3. once the node's write-ahead journal holds a healthy prefix (past at
   least one checkpoint), the server is SIGKILLed — no warning, no
   drain, exactly what a crashed collector looks like;
4. a second server process starts on the same state dir, restores the
   session from checkpoint + journal tail, and the client's
   reconnect-with-resume rides through the bounce — replaying only the
   bytes past the server's acked offset;
5. that server runs under ``REPRO_FAULT=crash@serve-checkpoint-write``
   with a fire-once fuse: its checkpoint writer thread SIGKILLs the
   process with the next checkpoint fsynced to its tmp file but not yet
   renamed into place — a crash with a background write in flight;
6. a third server restores again (from the previous checkpoint and the
   journal) and the client resumes once more;
7. the final folded map must equal the offline ``build_energy_map``
   **byte for byte** (float bits and dict insertion order), the client
   must have actually resumed (offset > 0, >= 2 reconnects), and the
   last server must exit 0 under ``--expect-nodes 1``.

After each restart every ``node-*.ckpt`` in the state dir must carry
the schema-3 checkpoint magic, so the SIGKILL/restart path is shown to
write and read the current (non-executable) format.

Also measured: the restart-to-listening recovery time of the second
server (its in-process cousin is ``serve_recovery_ms`` in
``benchmarks/bench_engine.py``).

Run: ``PYTHONPATH=src python tools/serve_chaos.py``
Exit status is nonzero on any divergence.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.accounting import build_energy_map  # noqa: E402
from repro.experiments.common import run_blink  # noqa: E402
from repro.serve import final_map, stream_node  # noqa: E402
from repro.serve.journal import CHECKPOINT_MAGIC  # noqa: E402
from repro.tos.node import COMPONENT_NAMES  # noqa: E402
from repro.units import seconds  # noqa: E402

#: Kill once the journal holds at least this much (past several
#: --checkpoint-bytes boundaries, well before the stream ends).
KILL_AFTER_BYTES = 4096

CHECKPOINT_BYTES = 1024
CHUNK_SIZE = 97  # prime and tiny: the kill lands inside a chunk run
PACE_S = 0.008


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


def check_identical(served, offline):
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


def launch_server(sock: str, state_dir: str,
                  fault_env: Optional[dict] = None) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(fault_env or {})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", f"unix:{sock}",
         "--state-dir", state_dir,
         "--checkpoint-bytes", str(CHECKPOINT_BYTES),
         "--expect-nodes", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


async def wait_for_line(proc: subprocess.Popen, needle: str,
                        timeout_s: float = 60.0) -> list[str]:
    """Read server stdout until ``needle`` appears; returns the lines."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    lines = []
    while True:
        line = await asyncio.wait_for(
            loop.run_in_executor(None, proc.stdout.readline),
            timeout=max(0.1, deadline - loop.time()))
        if not line:
            raise RuntimeError(
                f"server exited (rc={proc.poll()}) before {needle!r}; "
                f"output so far: {''.join(lines)!r}")
        lines.append(line)
        print(f"  server: {line.rstrip()}", flush=True)
        if needle in line:
            return lines


def stale_checkpoints(state_dir: str) -> list[str]:
    """Problems with the state dir's checkpoint files: none at all, or
    one without the schema-3 magic."""
    paths = sorted(Path(state_dir).glob("node-*.ckpt"))
    if not paths:
        return ["no checkpoint file in the state dir"]
    return [f"{path.name} does not start with the schema-3 magic"
            for path in paths
            if not path.read_bytes().startswith(CHECKPOINT_MAGIC)]


async def main() -> int:
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(128))
    offline = offline_map(node)
    total = len(bytes(node.logger.raw_bytes()))
    print(f"log: {total} bytes; kill after ~{KILL_AFTER_BYTES} journaled",
          flush=True)

    tmp = tempfile.mkdtemp(prefix="serve-chaos-")
    sock = os.path.join(tmp, "ingest.sock")
    state_dir = os.path.join(tmp, "state")
    journal = Path(state_dir) / "node-1.waj"

    server = launch_server(sock, state_dir)
    await wait_for_line(server, "listening on")

    async def paced(_sent, _total):
        await asyncio.sleep(PACE_S)

    client = asyncio.ensure_future(stream_node(
        sock, node, stride_ns=int(seconds(4)), chunk_size=CHUNK_SIZE,
        on_chunk=paced, retries=120, backoff_base_s=0.05,
        backoff_cap_s=0.25))

    # Watch the WAL grow, then strike.
    deadline = asyncio.get_running_loop().time() + 60.0
    while True:
        size = journal.stat().st_size if journal.exists() else 0
        if size >= KILL_AFTER_BYTES:
            break
        if asyncio.get_running_loop().time() > deadline:
            raise RuntimeError(
                f"journal never reached {KILL_AFTER_BYTES} bytes "
                f"(at {size}); client done={client.done()}")
        await asyncio.sleep(0.01)
    server.send_signal(signal.SIGKILL)
    server.wait()
    print(f"SIGKILLed server (rc={server.returncode}) with journal at "
          f"{journal.stat().st_size} bytes", flush=True)
    assert server.returncode == -signal.SIGKILL

    # Restart on the same state dir; the client's backoff rides through.
    # This server dies in its checkpoint writer, mid-write.
    fuse = os.path.join(tmp, "write-fuse")
    t_restart = time.perf_counter()
    server2 = launch_server(sock, state_dir, {
        "REPRO_FAULT": "crash@serve-checkpoint-write",
        "REPRO_FAULT_FUSE": fuse})
    lines = await wait_for_line(server2, "listening on")
    recovery_ms = (time.perf_counter() - t_restart) * 1e3
    if not any("restored 1 node sessions" in line for line in lines):
        print("FAIL: restarted server did not report a restored session",
              flush=True)
        return 1
    print(f"restart-to-listening: {recovery_ms:.1f} ms "
          "(includes interpreter start)", flush=True)
    for problem in stale_checkpoints(state_dir):
        print(f"FAIL: after the first restart, {problem}", flush=True)
        return 1
    rc2 = await asyncio.wait_for(asyncio.get_running_loop().run_in_executor(
        None, server2.wait), timeout=60.0)
    in_flight = Path(state_dir) / "node-1.ckpt.tmp"
    print(f"server died in its checkpoint writer (rc={rc2}) with "
          f"{in_flight.name} {'left' if in_flight.exists() else 'missing'}",
          flush=True)
    if rc2 != -signal.SIGKILL or not os.path.exists(fuse) \
            or not in_flight.exists():
        print("FAIL: the kill inside the checkpoint write never happened",
              flush=True)
        return 1

    server3 = launch_server(sock, state_dir)
    lines = await wait_for_line(server3, "listening on")
    if not any("restored 1 node sessions" in line for line in lines):
        print("FAIL: second restart did not report a restored session",
              flush=True)
        return 1
    for problem in stale_checkpoints(state_dir):
        print(f"FAIL: after the second restart, {problem}", flush=True)
        return 1

    reply = await asyncio.wait_for(client, timeout=120.0)
    stats = reply["client"]
    print(f"client: reconnects={stats['reconnects']} "
          f"resumed_from={stats['resumed_from']} "
          f"entries={reply['entries']} windows={reply['windows']}",
          flush=True)

    failures = []
    if not reply.get("ok"):
        failures.append(f"final reply not ok: {reply}")
    if stats["reconnects"] < 2:
        failures.append(f"client reconnected {stats['reconnects']} "
                        "times, want >= 2 — a kill missed")
    if not 0 < stats["resumed_from"] < total:
        failures.append(
            f"resume offset {stats['resumed_from']} not mid-stream "
            f"(log is {total} bytes) — recovery was not exercised")
    problems = check_identical(final_map(reply), offline)
    if problems:
        failures.append("resumed map diverges from offline: "
                        + ", ".join(problems))

    # --expect-nodes 1: the restarted server exits 0 on its own.
    rc = await asyncio.get_running_loop().run_in_executor(
        None, server3.wait)
    out = server3.stdout.read()
    if out:
        print(f"  server: {out.rstrip()}", flush=True)
    if rc != 0:
        failures.append(f"restarted server exited {rc}, want 0")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", flush=True)
        return 1
    print("serve chaos smoke: SIGKILL mid-stream and mid-checkpoint-"
          "write, restart + resume byte-identical — ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
