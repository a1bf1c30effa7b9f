"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the available experiments;
* ``experiment <id> [--seed N] [--set k=v ...]`` — run one experiment
  (e.g. ``table3``, ``fig13``, ``ext_deployment``) and print its rendered
  result;
* ``sweep <id> [--seeds N] [--jobs J] [--batch K] [--set k=v1,v2 ...]
  [--cache-dir D]`` — run an experiment campaign over many seeds (and
  optionally a parameter grid) on a worker pool, folding results into
  streaming aggregates; with a cache directory, already-simulated points
  are reused and only new grid points run;
* ``campaign plan|run|resume|status|worker|merge <manifest>`` — the
  fault-tolerant campaign orchestrator (:mod:`repro.sim.campaign`):
  ``plan`` writes a schema-versioned manifest, ``run`` dispatches shard
  workers with retries/straggler backups and folds results
  incrementally, ``resume`` (the same operation by a friendlier name)
  verifies stored points and schedules only the remainder, ``status``
  reports coverage without simulating, ``worker --shard i/N`` runs one
  shard (the per-machine step of a multi-machine campaign, and what
  ``run`` spawns), and ``merge [--cache-dir D ...] [--strict]`` folds
  the manifest's store plus other machines' cache dirs into the full
  result, byte-identical to an unsharded run;
* ``blink [--seconds N] [--seed N] [--dump]`` — run Blink and print the
  full energy map (optionally the raw log dump);
* ``validate [--seed N]`` — run Blink and lint its log;
* ``serve [--listen ADDR ...] [--state-dir DIR]`` — run the live ingest
  server: nodes stream their packed logs in, the server accounts them
  into windowed breakdowns online and answers live queries (see
  :mod:`repro.serve`); with ``--state-dir`` every stream is journaled
  and checkpointed so a restarted server resumes mid-stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ExperimentParameterError, ServeError, SweepError
from repro.experiments import EXPERIMENT_IDS, load_experiment, run_experiment


def _parse_set_args(pairs, multi_valued: bool):
    """Turn repeated ``--set key=value[,value...]`` flags into a dict."""
    overrides = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key or not raw:
            raise ExperimentParameterError(
                f"bad --set {pair!r}; expected key=value"
                + ("[,value...]" if multi_valued else "")
            )
        if key in overrides:
            raise ExperimentParameterError(f"duplicate --set key {key!r}")
        overrides[key] = raw.split(",") if multi_valued else raw
    return overrides


def _cmd_list(args: argparse.Namespace) -> int:
    for exp_id in EXPERIMENT_IDS:
        module = load_experiment(exp_id)
        doc = (module.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{exp_id:<24} {summary}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id not in EXPERIMENT_IDS:
        print(f"unknown experiment {args.id!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    overrides = _parse_set_args(args.set, multi_valued=False)
    result = run_experiment(args.id, seed=args.seed, overrides=overrides)
    print(result.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.sim.sweep import run_sweep

    if args.id not in EXPERIMENT_IDS:
        print(f"unknown experiment {args.id!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("--jobs must be 0 (auto) or a worker count", file=sys.stderr)
        return 2
    if args.batch is not None and args.batch < 1:
        print("--batch must be at least 1", file=sys.stderr)
        return 2
    overrides = _parse_set_args(args.set, multi_valued=True)
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    cache_dir = args.cache_dir
    if cache_dir is None and not args.no_cache:
        cache_dir = os.environ.get("REPRO_SWEEP_CACHE") or None
    if args.no_cache:
        cache_dir = None
    result = run_sweep(args.id, seeds, overrides, jobs=args.jobs,
                       cache_dir=cache_dir, batch=args.batch)
    print(result.render())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.sim import campaign

    if args.campaign_cmd == "plan":
        if args.id not in EXPERIMENT_IDS:
            print(f"unknown experiment {args.id!r}; "
                  f"try: python -m repro list", file=sys.stderr)
            return 2
        if args.seeds < 1:
            print("--seeds must be at least 1", file=sys.stderr)
            return 2
        overrides = _parse_set_args(args.set, multi_valued=True)
        seeds = range(args.seed_base, args.seed_base + args.seeds)
        manifest = campaign.plan_campaign(
            args.id, seeds, overrides, out_path=args.manifest,
            shards=args.shards, workers=args.jobs, batch=args.batch,
            deadline_s=args.deadline,
            max_retries=args.max_retries, cache_dir=args.cache_dir)
        print(f"wrote manifest {manifest.path}: "
              f"{len(manifest.grid())} grid points, "
              f"{manifest.shards} shards, cache {manifest.cache_dir!r}")
        return 0
    if args.campaign_cmd in ("run", "resume"):
        def event(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

        result = campaign.run_campaign(args.manifest, on_event=event)
        print(result.render())
        return 0
    if args.campaign_cmd == "status":
        print(campaign.campaign_status(args.manifest).render())
        return 0
    if args.campaign_cmd == "worker":
        index, count = campaign.parse_shard(args.shard)
        return campaign.run_worker(args.manifest, index, count)
    if args.campaign_cmd == "merge":
        result = campaign.merge_campaign(
            args.manifest, extra_cache_dirs=args.cache_dir or (),
            strict=args.strict)
        print(result.render())
        return 0
    raise AssertionError(args.campaign_cmd)  # pragma: no cover


def _cmd_blink(args: argparse.Namespace) -> int:
    from repro.apps.blink import BlinkApp
    from repro.core.report import format_table
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngFactory
    from repro.toolkit.logdump import dump_log
    from repro.tos.node import COMPONENT_NAMES, NodeConfig, QuantoNode
    from repro.units import seconds, to_mj

    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.dump_limit < 0:
        print("--dump-limit must be 0 or more", file=sys.stderr)
        return 2
    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1),
                      rng_factory=RngFactory(args.seed))
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(args.seconds))
    if args.dump:
        from repro.core.logger import iter_entries

        # Streaming dump: entries decode and render one at a time, so a
        # large log never exists as a list of LogEntry objects.
        print(dump_log(iter_entries(node.logger.raw_bytes()),
                       node.registry, COMPONENT_NAMES,
                       limit=args.dump_limit))
        return 0
    emap = node.energy_map()
    rows = [(name, f"{to_mj(e):.2f}")
            for name, e in sorted(emap.energy_by_activity().items())]
    print(format_table(("activity", "E (mJ)"), rows,
                       title=f"Blink, {args.seconds} s, seed {args.seed}"))
    print(f"\n{node.logger.records_written} log entries; accounting "
          f"error {emap.accounting_error * 100:.4f} %")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.apps.blink import BlinkApp
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngFactory
    from repro.toolkit.validate import validate_log
    from repro.tos.node import NodeConfig, QuantoNode
    from repro.units import seconds

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1),
                      rng_factory=RngFactory(args.seed))
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(16))
    node.mark_log_end()
    issues = validate_log(node.entries())
    if not issues:
        print("log is clean")
        return 0
    for issue in issues:
        print(issue)
    errors = [i for i in issues if i.severity == "error"]
    return 1 if errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import IngestServer
    from repro.serve.protocol import parse_address

    async def run() -> int:
        server = IngestServer(retain=args.retain,
                              state_dir=args.state_dir,
                              checkpoint_bytes=args.checkpoint_bytes,
                              max_streams=args.max_streams)
        if args.state_dir and server.restored:
            print(f"restored {server.restored} node sessions from "
                  f"{args.state_dir}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        try:
            # A bad or unbindable address raises ServeError (exit 2);
            # the listeners already started close on the way out.
            for spec in args.listen or ["127.0.0.1:7117"]:
                address = parse_address(spec)
                if isinstance(address, str):
                    await server.start_unix(address)
                    print(f"listening on unix:{address}", flush=True)
                else:
                    host, port = await server.start_tcp(*address)
                    # Echo the bound port: --listen :0 picks an ephemeral
                    # one, and scripts need to learn it.
                    print(f"listening on {host}:{port}", flush=True)
            await server.serve_forever(stop_after=args.expect_nodes)
        finally:
            await server.close()
        if server.shutdown_requested:
            # Graceful SIGINT/SIGTERM: queues were drained, open
            # decoders finished; leave the final per-node accounting.
            print("shutdown: draining complete", flush=True)
            for line in server.final_stats_lines():
                print(line, flush=True)
        elif args.expect_nodes:
            print(f"served {server.completed} node streams")
        if args.expect_nodes:
            # Scripted runs must not report success when an expected
            # node concluded broken (or never concluded at all).
            bad = [s for s in server.sessions.values()
                   if s.state in ("error", "quarantined")]
            for session in bad:
                print(f"node {session.node_id} ended {session.state}: "
                      f"{session.error}", flush=True)
            if bad or server.completed < args.expect_nodes:
                return 1
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quanto (OSDI 2008) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("id")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a sweepable parameter (repeatable)")

    p_sweep = sub.add_parser(
        "sweep", help="run an experiment over many seeds on a worker pool")
    p_sweep.add_argument("id")
    p_sweep.add_argument("--seeds", type=int, default=8,
                         help="number of seeds (default 8)")
    p_sweep.add_argument("--seed-base", type=int, default=0,
                         help="first seed (default 0)")
    p_sweep.add_argument("--batch", type=int, default=None, metavar="K",
                         help="simulate K same-config worlds per process on "
                              "one shared event queue (default 8, or "
                              "REPRO_SWEEP_BATCH; 1 disables batching — "
                              "results are bit-identical either way)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1 = serial; "
                              "0 = auto-detect the CPU count)")
    p_sweep.add_argument("--set", action="append", metavar="KEY=V1[,V2...]",
                         help="sweep a parameter over values (repeatable; "
                              "multiple values form a grid)")
    p_sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache per-point results on disk, keyed by "
                              "(source fingerprint, experiment, seed, "
                              "overrides); re-running an overlapping sweep "
                              "simulates only the new points (default: "
                              "$REPRO_SWEEP_CACHE if set, else no cache)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the result cache even if "
                              "REPRO_SWEEP_CACHE is set")

    p_campaign = sub.add_parser(
        "campaign",
        help="fault-tolerant campaign orchestrator (manifest-driven)")
    campaign_sub = p_campaign.add_subparsers(dest="campaign_cmd",
                                             required=True)

    p_cplan = campaign_sub.add_parser(
        "plan", help="validate a campaign spec and write its manifest")
    p_cplan.add_argument("manifest", help="manifest file to write")
    p_cplan.add_argument("id", help="experiment id")
    p_cplan.add_argument("--seeds", type=int, default=8,
                         help="number of seeds (default 8)")
    p_cplan.add_argument("--seed-base", type=int, default=0)
    p_cplan.add_argument("--set", action="append", metavar="KEY=V1[,V2...]",
                         help="sweep a parameter over values (repeatable)")
    p_cplan.add_argument("--shards", type=int, default=1,
                         help="shard count (one worker subprocess per "
                              "shard dispatch; default 1)")
    p_cplan.add_argument("--jobs", type=int, default=0,
                         help="concurrent worker subprocesses (default 0 "
                              "= min(shards, detected CPUs))")
    p_cplan.add_argument("--batch", type=int, default=None, metavar="K",
                         help="worlds per in-process batch inside each "
                              "worker (default: REPRO_SWEEP_BATCH or 8)")
    p_cplan.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-shard straggler deadline (> 0): a "
                              "worker running longer gets a speculative "
                              "backup dispatched against it (default: "
                              "none)")
    p_cplan.add_argument("--max-retries", type=int, default=3,
                         help="re-dispatches per shard beyond the first "
                              "attempt (default 3)")
    p_cplan.add_argument("--cache-dir", metavar="DIR", default="cache",
                         help="shard store directory, relative to the "
                              "manifest's directory (default 'cache')")

    for name, help_text in (
        ("run", "run a campaign manifest to completion"),
        ("resume", "resume an interrupted campaign (same as run: stored "
                   "valid points are never re-simulated)"),
        ("status", "report a campaign's stored/verified coverage"),
    ):
        p = campaign_sub.add_parser(name, help=help_text)
        p.add_argument("manifest", help="campaign manifest file")

    p_cworker = campaign_sub.add_parser(
        "worker", help="run one shard of a campaign into the manifest's "
                       "cache dir (one machine of a multi-machine "
                       "campaign; also what `run` spawns)")
    p_cworker.add_argument("manifest", help="campaign manifest file")
    p_cworker.add_argument("--shard", metavar="i/N", required=True,
                           help="shard index / shard count (must match "
                                "the manifest)")

    p_cmerge = campaign_sub.add_parser(
        "merge", help="fold the campaign's stores into the full result")
    p_cmerge.add_argument("manifest", help="campaign manifest file")
    p_cmerge.add_argument("--cache-dir", metavar="DIR", action="append",
                          help="another machine's cache dir, read after "
                               "the manifest's own (repeatable)")
    p_cmerge.add_argument("--strict", action="store_true",
                          help="fail on any grid point missing from the "
                               "stores, and verify the manifest's pinned "
                               "digests, instead of simulating the gap")

    p_blink = sub.add_parser("blink", help="run Blink and print the map")
    p_blink.add_argument("--seconds", type=int, default=48)
    p_blink.add_argument("--seed", type=int, default=0)
    p_blink.add_argument("--dump", action="store_true",
                         help="print the raw log instead of the map")
    p_blink.add_argument("--dump-limit", type=int, default=60)

    p_val = sub.add_parser("validate", help="lint a Blink run's log")
    p_val.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve", help="run the live windowed-accounting ingest server")
    p_serve.add_argument("--listen", action="append", metavar="ADDR",
                         help="listen address: host:port, :port, or "
                              "unix:/path (repeatable; default "
                              "127.0.0.1:7117; port 0 picks one and "
                              "prints it)")
    p_serve.add_argument("--retain", type=int, default=64,
                         help="window snapshots kept per node for the "
                              "windows query (at least 0; default 64)")
    p_serve.add_argument("--expect-nodes", type=int, default=None,
                         metavar="N",
                         help="exit once N node streams have concluded; "
                              "nonzero exit if any ended failed or "
                              "quarantined (default: serve until "
                              "interrupted)")
    p_serve.add_argument("--state-dir", default=None, metavar="DIR",
                         help="durable ingest: write-ahead journal + "
                              "checkpoints per node under DIR; a "
                              "restarted server resumes every stream "
                              "mid-flight (default: in-memory only)")
    p_serve.add_argument("--checkpoint-bytes", type=int, default=65536,
                         metavar="N",
                         help="checkpoint decoder+accumulator state "
                              "every N journaled stream bytes "
                              "(default 65536)")
    p_serve.add_argument("--max-streams", type=int, default=None,
                         metavar="N",
                         help="shed new node streams past N >= 1 "
                              "concurrent ones with a retryable NACK "
                              "(default: unlimited)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "blink": _cmd_blink,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except (ExperimentParameterError, SweepError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
