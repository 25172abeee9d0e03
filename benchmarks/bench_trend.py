#!/usr/bin/env python
"""Speedup trend report: fresh ``BENCH_search.json`` vs the committed one.

Usage::

    python benchmarks/bench_trend.py BASELINE FRESH [--out summary.md]

Prints a per-engine speedup-delta table in GitHub-flavoured markdown
(suitable for ``$GITHUB_STEP_SUMMARY``).  This is a *report*, never a
perf gate: shared CI runners are far too noisy for speedup assertions,
so the script always exits 0 once both files parse — correctness
divergence is already a non-zero exit from ``repro bench`` itself.

Engine-agnostic across payload schemas: ``repro-bench/2`` through ``/4``
carry per-engine ``speedups`` dicts (whatever engines they name — the
table is the union of baseline and fresh, so a new or renamed engine
never raises); the oldest ``repro-bench/1`` had a single scalar
``speedup`` for the fast engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional


def _load(path: str) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-trend: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _suite_speedups(payload: dict, suite: str) -> Dict[str, Optional[float]]:
    """Per-engine speedup-over-reference, from either schema version."""
    data = payload.get("suites", {}).get(suite, {})
    if "speedups" in data:  # repro-bench/2 and later
        return dict(data["speedups"])
    if "speedup" in data:  # repro-bench/1: fast vs reference only
        return {"fast": data["speedup"]}
    return {}


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}x" if isinstance(value, (int, float)) else "—"


def _delta(base: Optional[float], fresh: Optional[float]) -> str:
    if not isinstance(base, (int, float)) or not isinstance(
        fresh, (int, float)
    ):
        return "—"
    return f"{fresh - base:+.3f}"


def render(baseline: dict, fresh: dict) -> str:
    lines = [
        "### Engine speedup trend (vs reference, report-only)",
        "",
        f"Baseline schema `{baseline.get('schema', '?')}`, "
        f"fresh schema `{fresh.get('schema', '?')}`; "
        f"blocks: {fresh.get('config', {}).get('blocks', '?')}.",
        "",
        "| suite | engine | baseline | fresh | delta |",
        "| --- | --- | --- | --- | --- |",
    ]
    for suite in ("population", "kernels"):
        base_ups = _suite_speedups(baseline, suite)
        fresh_ups = _suite_speedups(fresh, suite)
        # Union of engines, baseline order first: a new engine appears
        # with a "—" baseline, a dropped one with a "—" fresh column.
        engines = list(base_ups) + [
            e for e in fresh_ups if e not in base_ups
        ]
        for engine in engines:
            base = base_ups.get(engine)
            new = fresh_ups.get(engine)
            lines.append(
                f"| {suite} | {engine} | {_fmt(base)} | {_fmt(new)} "
                f"| {_delta(base, new)} |"
            )
    summary = fresh.get("summary", {})
    lines += [
        "",
        f"Fresh run identical across engines: "
        f"`{summary.get('identical', '?')}`; "
        f"failures: {len(summary.get('failures', []))}.",
        "",
        "_Deltas on shared runners are noise-dominated; this table tracks "
        "direction over time and is never a gate._",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_search.json")
    parser.add_argument("fresh", help="freshly produced BENCH_search.json")
    parser.add_argument(
        "--out",
        default=None,
        help="also append the report to this file (e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    if baseline is None or fresh is None:
        # Report-only contract: a missing baseline must not fail the job.
        print("bench-trend: nothing to compare, skipping", file=sys.stderr)
        return 0
    report = render(baseline, fresh)
    print(report, end="")
    if args.out:
        try:
            with open(args.out, "a") as fh:
                fh.write(report)
        except OSError as exc:
            print(
                f"bench-trend: cannot write {args.out}: {exc}",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
