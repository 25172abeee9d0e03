"""``repro bench`` — time the three search engines, write ``BENCH_search.json``.

Examples::

    repro bench                          # REPRO_SCALE-sized population + kernels
    repro bench --blocks 200 --no-kernels --out /tmp/bench.json
    REPRO_SCALE=0.005 repro bench       # CI smoke size (80 blocks)

    repro bench --service                # daemon load bench -> BENCH_service.json
    repro bench --service --chaos "crash=0.2,hang=0.1,seed=7"

Exit status is non-zero when the engines diverge or a schedule fails
certification; the speedup itself is reported, never asserted (see
:mod:`repro.bench.hot_core`).  ``--service`` switches to the
service-level harness (:mod:`repro.bench.service`): real ``repro
serve`` daemons, concurrent clients, cold/warm p50/p99 and — under
``--chaos`` — seeded fault injection with a bit-identity gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..ioutil import atomic_write_json
from .hot_core import run_bench


def build_parser(prog: str = "repro-bench") -> argparse.ArgumentParser:
    from ..cliutil import common_flags

    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Benchmark the fast and native search engines against "
            "the reference (identical results enforced, schedules "
            "certified)."
        ),
        parents=[
            common_flags(
                ("seed", "curtail"),
                overrides={"seed": dict(help="population master seed")},
            )
        ],
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=None,
        help=(
            "synthetic blocks to schedule (default: the REPRO_SCALE-sized "
            "population, 2000 at the default scale 0.125)"
        ),
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=25,
        help="timing repeats per kernel x machine pair",
    )
    parser.add_argument(
        "--no-kernels",
        action="store_true",
        help="skip the kernel suite (population only)",
    )
    parser.add_argument(
        "--no-certify",
        action="store_true",
        help="skip per-schedule certificate checks (timing only)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: ./BENCH_search.json, or "
        "./BENCH_service.json with --service)",
    )
    service = parser.add_argument_group(
        "service bench (--service; see repro.bench.service)"
    )
    service.add_argument(
        "--service",
        action="store_true",
        help="benchmark the repro serve daemon instead of the engines",
    )
    service.add_argument(
        "--service-workers",
        default="1,2",
        metavar="N,N",
        help="comma-separated worker counts to bench (default 1,2)",
    )
    service.add_argument(
        "--service-clients",
        type=int,
        default=4,
        metavar="N",
        help="concurrent client threads (default 4)",
    )
    service.add_argument(
        "--service-requests",
        type=int,
        default=12,
        metavar="N",
        help="requests per pass (default 12)",
    )
    service.add_argument(
        "--service-blocks",
        type=int,
        default=3,
        metavar="N",
        help="blocks per request (default 3)",
    )
    service.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject seeded daemon worker faults and gate on bit-identity "
        "with the fault-free pass (e.g. 'crash=0.2,hang=0.1,seed=7')",
    )
    service.add_argument(
        "--service-dir",
        default=None,
        metavar="DIR",
        help="keep daemon logs/stats under DIR (default: throwaway tempdir)",
    )
    return parser


def _service_main(args, prog: str) -> int:
    from .service import run_service_bench

    try:
        worker_counts = [
            int(piece) for piece in args.service_workers.split(",") if piece.strip()
        ]
    except ValueError:
        print(
            f"{prog}: bad --service-workers {args.service_workers!r}",
            file=sys.stderr,
        )
        return 2
    out = args.out or "BENCH_service.json"
    try:
        payload, failures = run_service_bench(
            worker_counts=worker_counts,
            clients=args.service_clients,
            requests=args.service_requests,
            blocks_per_request=args.service_blocks,
            curtail=args.curtail,
            master_seed=args.seed,
            chaos=args.chaos,
            workdir=args.service_dir,
        )
    except KeyboardInterrupt:
        print(f"\n{prog}: interrupted", file=sys.stderr)
        return 130
    try:
        atomic_write_json(out, payload)
    except OSError as exc:
        print(f"{prog}: error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    for run in payload["runs"]:
        for phase in ("cold", "warm", "chaos"):
            rec = run.get(phase)
            if rec is None:
                continue
            extra = ""
            if phase == "chaos":
                extra = (
                    f", identical={rec['identical']}, "
                    f"retries={rec['worker_retries']}"
                )
            print(
                f"workers={run['workers']} {phase}: "
                f"{rec['throughput_rps']} req/s, "
                f"p50 {rec['p50_ms']}ms, p99 {rec['p99_ms']}ms, "
                f"certified {rec['certified']}/{rec['stats']['hits'] + rec['stats']['misses'] + rec['stats']['bypass']}"
                f"{extra}"
            )
    print(f"wrote {out}")
    if failures:
        for line in failures[:20]:
            print(f"FAIL: {line}", file=sys.stderr)
        print(f"{len(failures)} service bench failure(s)", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None, prog: str = "repro-bench") -> int:
    args = build_parser(prog).parse_args(argv)
    if args.service:
        return _service_main(args, prog)
    if args.chaos:
        print(f"{prog}: --chaos requires --service", file=sys.stderr)
        return 2
    args.out = args.out or "BENCH_search.json"
    try:
        payload, failures = run_bench(
            blocks=args.blocks,
            master_seed=args.seed,
            curtail=args.curtail,
            repeats=args.repeats,
            kernels=not args.no_kernels,
            certify=not args.no_certify,
        )
    except KeyboardInterrupt:
        print("\nrepro-bench: interrupted", file=sys.stderr)
        return 130
    # Atomic: a benchmark dashboard polling the file never reads a torn
    # JSON document.
    try:
        atomic_write_json(args.out, payload)
    except OSError as exc:
        print(
            f"repro-bench: error: cannot write {args.out}: {exc}",
            file=sys.stderr,
        )
        return 1

    pop = payload["suites"]["population"]
    walls = ", ".join(
        f"{name} {pop['engines'][name]['wall_seconds']:.2f}s"
        for name in pop["engines"]
    )
    ups = ", ".join(
        f"{name} {pop['speedups'][name]}x" for name in pop["speedups"]
    )
    print(
        f"population: {pop['blocks']} blocks, {pop['omega_calls']} omega "
        f"calls — {walls}; speedup over reference: {ups}; "
        f"certified {pop['certified']}"
    )
    kern = payload["suites"].get("kernels")
    if kern is not None:
        kups = ", ".join(
            f"{name} {kern['speedups'][name]}x" for name in kern["speedups"]
        )
        print(
            f"kernels: {len(kern['entries'])} kernel x machine pairs, "
            f"speedup over reference: {kups}"
        )
    print(f"wrote {args.out}")
    if failures:
        for line in failures[:20]:
            print(f"FAIL: {line}", file=sys.stderr)
        print(
            f"{len(failures)} divergence/certification failure(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
