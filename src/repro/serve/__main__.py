"""``python -m repro.serve``: run the sharded engine behind the asyncio
front end on a local directory store.

Shutdown is graceful by default: SIGINT/SIGTERM stops accepting, drains
in-flight requests under ``--drain-timeout``, flushes the shards, then
exits (DESIGN.md §15)."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal

from ..options import Options
from ..sharding import LocalShardStore, ShardedDB
from .server import ShardServer


def build_parser() -> argparse.ArgumentParser:
    """CLI flags for the standalone server."""
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Serve a range-sharded LSM store over a binary protocol",
    )
    parser.add_argument("--root", required=True, help="store root directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7707)
    parser.add_argument("--shards", type=int, default=4, help="initial shard count")
    parser.add_argument(
        "--executor-threads", type=int, default=8,
        help="pool size for the engine calls that would wait (the rest run "
        "on the event loop)",
    )
    parser.add_argument(
        "--auto-rebalance", action="store_true",
        help="enable threshold-driven shard split/merge",
    )
    parser.add_argument(
        "--no-admission-control", action="store_true",
        help="disable in-flight bounds and stall-pressure write shedding "
        "(overload then queues unboundedly into the executor)",
    )
    parser.add_argument(
        "--max-inflight-writes", type=int, default=None, metavar="N",
        help="admission bound on concurrent write-class requests "
        "(default 4x executor threads)",
    )
    parser.add_argument(
        "--max-inflight-reads", type=int, default=None, metavar="N",
        help="admission bound on concurrent read-class requests "
        "(default 16x executor threads)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests",
    )
    parser.add_argument(
        "--default-deadline-ms", type=int, default=None, metavar="MS",
        help="budget applied to requests that carry no deadline of their own",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Open (or create) the sharded store at ``--root`` and serve it
    until interrupted, then drain gracefully."""
    args = build_parser().parse_args(argv)
    options = Options().concurrent_pipeline()
    store = LocalShardStore(args.root)
    db = ShardedDB(
        store, options, shards=args.shards, auto_rebalance=args.auto_rebalance
    )
    server = ShardServer(
        db, args.host, args.port,
        executor_threads=args.executor_threads,
        admission_control=not args.no_admission_control,
        max_inflight_writes=args.max_inflight_writes,
        max_inflight_reads=args.max_inflight_reads,
        drain_timeout=args.drain_timeout,
        default_deadline_ms=args.default_deadline_ms,
    )

    async def run() -> None:
        """Serve until SIGINT/SIGTERM, then drain gracefully."""
        await server.start()
        print(f"repro.serve listening on {server.host}:{server.port} "
              f"({db.num_shards} shards)")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop.set)
        serve_task = asyncio.ensure_future(server.serve_forever())
        try:
            await stop.wait()
        finally:
            print("draining...")
            serve_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve_task
            await server.aclose()
            print(f"drained (cancelled in-flight: {server.cancelled_inflight})")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
