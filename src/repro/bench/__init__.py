"""Tracked engine benchmarks — the perf trajectory's data points.

The ROADMAP's north star is "as fast as the hardware allows"; this
package is how the repository knows whether it is getting there.  It
times the two search engines (the native engine — the flattened
preamble in :mod:`repro.sched.core` plus the C kernel in
:mod:`repro.native` — against the recursive reference in
:mod:`repro.sched.search`) over the
synthetic population and the realistic kernels, asserts their results
are bit-for-bit identical, certifies the native engine's schedules
through the independent checker in
:mod:`repro.verify.certificate`, and writes ``BENCH_search.json`` so the
numbers are versioned alongside the code that produced them.

Entry points: ``repro bench`` (:mod:`repro.bench.cli`)
and ``benchmarks/bench_hot_core.py`` (the pytest-benchmark view of the
same measurement).
"""

from .hot_core import SCHEMA, run_bench

__all__ = ["SCHEMA", "run_bench"]
