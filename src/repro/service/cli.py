"""Command-line entry point: ``repro serve`` (the scheduling daemon).

Examples::

    repro serve --port 8123 --cache ~/.cache/repro-schedules
    repro serve --unix /tmp/repro.sock --curtail 10000
    repro serve --port 0 --ready-file ready.json   # ephemeral port; the
                                                   # bound URL lands in
                                                   # ready.json
    repro serve --workers 4 --queue-limit 64       # bigger fleet
    repro serve --workers 0                        # inline (no pool)

The daemon answers ``POST /v1/schedule`` batches and the
``GET /v1/health`` family (schema ``repro-service/2``; see
docs/file-formats.md).  Scheduling runs on a supervised pre-fork worker
pool (``--workers``, default 2): a worker crash/hang is detected, the
request retried on a fresh worker and, past ``--max-retries``, degraded
to the list seed — never a 500.  ``--workers 0`` schedules inline in
the daemon process (the PR 5 behaviour).  ``--cache DIR`` makes the
canonical-form result store durable and shareable with ``repro
experiments --cache DIR``; without it the cache is in-process only;
``--no-cache`` disables memoization entirely.

SIGTERM drains gracefully: the daemon stops accepting (503), resolves
in-flight requests (completing or degrading them), flushes
``--stats-json`` telemetry and exits 0.  ``--chaos SPEC`` injects
seeded worker faults (``crash=0.1,hang=0.05,seed=7`` — see
``repro.resilience.faults``) for service-level chaos testing.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import List, Optional

from ..cliutil import common_flags
from ..ioutil import atomic_write_json
from ..resilience.budget import BudgetManager
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import SupervisorConfig
from ..sched.search import SearchOptions
from ..telemetry import Telemetry
from .cache import ScheduleCache
from .pool import POOL_HANG_TIMEOUT, WorkerPool
from .server import SchedulingService, create_server


def build_parser(prog: str = "repro-serve") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[
            common_flags(
                (
                    "engine",
                    "curtail",
                    "stats-json",
                    "block-timeout",
                    "run-timeout",
                    "run-omega-budget",
                )
            )
        ],
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port; 0 (default) binds an ephemeral port (see --ready-file)",
    )
    parser.add_argument(
        "--unix", metavar="PATH", default=None,
        help="serve on a unix-domain socket at PATH instead of TCP",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="supervised worker processes (default 2); 0 schedules "
        "inline in the daemon process",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="admission control: concurrent requests accepted before "
        "shedding with 429 + Retry-After (default 32)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="worker failures per request block before degrading to the "
        "list seed (default 2)",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=POOL_HANG_TIMEOUT, metavar="S",
        help="seconds without a worker reply (on top of the block's own "
        f"time limit) before it is presumed hung (default {POOL_HANG_TIMEOUT:g})",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=20.0, metavar="S",
        help="SIGTERM grace: seconds to resolve in-flight requests "
        "before force-degrading them (default 20)",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="inject seeded worker faults, e.g. 'crash=0.1,hang=0.05,seed=7' "
        "(testing only; see repro.resilience.faults)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="disk-backed canonical-form result store (shared with "
        "repro experiments --cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable result memoization entirely",
    )
    parser.add_argument(
        "--memory-entries", type=int, default=4096, metavar="N",
        help="in-process LRU capacity (default 4096)",
    )
    parser.add_argument(
        "--no-insert-verify", action="store_true",
        help="skip the independent certificate check on cache insert",
    )
    parser.add_argument(
        "--ready-file", metavar="PATH", default=None,
        help="write {url, pid} JSON to PATH once the socket is bound "
        "(how scripts find an ephemeral port)",
    )
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "repro-serve") -> int:
    parser = build_parser(prog)
    args = parser.parse_args(argv)

    if args.no_cache and args.cache:
        parser.error("--no-cache and --cache are mutually exclusive")
    if args.unix and args.port:
        parser.error("--unix and --port are mutually exclusive")
    if args.workers < 0:
        parser.error("--workers must be non-negative")

    cache = None
    if not args.no_cache:
        cache = ScheduleCache(
            path=args.cache,
            memory_entries=args.memory_entries,
            verify_on_insert=not args.no_insert_verify,
        )
    budget = None
    if args.run_timeout is not None or args.run_omega_budget is not None:
        try:
            budget = BudgetManager(
                run_wall_clock=args.run_timeout,
                run_omega_cap=args.run_omega_budget,
            )
        except ValueError as exc:
            parser.error(str(exc))
    fault_plan = None
    if args.chaos:
        try:
            fault_plan = FaultPlan.parse(args.chaos)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"[serve] CHAOS MODE: {args.chaos}", file=sys.stderr, flush=True)

    telemetry = Telemetry()
    pool = None
    if args.workers > 0:
        try:
            config = SupervisorConfig(
                hang_timeout=args.hang_timeout, max_retries=args.max_retries
            )
        except ValueError as exc:
            parser.error(str(exc))
        pool = WorkerPool(
            size=args.workers,
            cache=cache,
            config=config,
            fault_plan=fault_plan,
            hang_timeout=args.hang_timeout,
            on_event=lambda line: print(
                f"[pool] {line}", file=sys.stderr, flush=True
            ),
        )
        try:
            pool.start()
        except (OSError, RuntimeError) as exc:
            print(
                f"{prog}: cannot start worker pool ({exc}); "
                "scheduling inline",
                file=sys.stderr,
                flush=True,
            )
            pool = None
    service = SchedulingService(
        cache=cache,
        options=SearchOptions(curtail=args.curtail, engine=args.engine),
        budget=budget,
        block_timeout=args.block_timeout,
        telemetry=telemetry,
        pool=pool,
        queue_limit=args.queue_limit,
    )
    try:
        server, url = create_server(
            service, host=args.host, port=args.port, unix_path=args.unix
        )
    except OSError as exc:
        print(f"{prog}: cannot bind: {exc}", file=sys.stderr)
        if pool is not None:
            pool.stop(drain_timeout=0.0)
        return 2

    # SIGTERM = graceful drain: stop accepting, let in-flight requests
    # resolve (or force-degrade them at the deadline), flush telemetry,
    # exit 0.  The handler only pokes the serve loop; the drain itself
    # runs on the main thread after serve_forever returns (at once, if
    # the signal lands before the loop starts).  Installed before the
    # ready file announces the daemon, so a SIGTERM sent the moment the
    # file appears still drains.
    terminated = threading.Event()

    def on_sigterm(signum, frame) -> None:  # pragma: no cover - signal path
        terminated.set()
        service.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (embedding)
        pass

    if args.ready_file:
        atomic_write_json(args.ready_file, {"url": url, "pid": os.getpid()})
    store = cache.path if cache is not None and cache.path else (
        "memory" if cache is not None else "off"
    )
    mode = f"{args.workers} workers" if pool is not None else "inline"
    print(f"[serve] listening on {url} (cache: {store}, {mode})", flush=True)

    def write_stats() -> None:
        if args.stats_json:
            telemetry.write_json(
                args.stats_json,
                meta={"url": url, "curtail": args.curtail, "engine": args.engine},
            )
            print(f"[stats] telemetry written to {args.stats_json}")

    def drain_and_close() -> None:
        forced = service.drain(timeout=args.drain_timeout)
        server.server_close()
        if args.unix:
            try:
                os.unlink(args.unix)
            except OSError:
                pass
        if forced:
            print(
                f"[serve] drain force-degraded {forced} in-flight jobs",
                file=sys.stderr,
                flush=True,
            )

    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print(f"\n{prog}: interrupted", file=sys.stderr)
        drain_and_close()
        write_stats()
        return 130
    drain_and_close()
    if terminated.is_set():
        print("[serve] drained on SIGTERM", flush=True)
    write_stats()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
