"""Benchmark H — the native engine against the reference.

The pytest-benchmark view of the ``repro bench`` measurement: one
population pass per engine (identical results enforced) plus the
headline speedups, published to ``results/hot_core.txt`` so the perf
trajectory is tracked next to the experiment tables.
"""

from repro.bench.hot_core import run_bench

from conftest import bench_population_size, publish


def test_hot_core_speedup(benchmark, results_dir):
    payload, failures = run_bench(
        blocks=bench_population_size(),
        repeats=5,
    )
    assert failures == [], failures

    pop = payload["suites"]["population"]
    kern = payload["suites"]["kernels"]

    def headline():
        return (
            f"population speedup native {pop['speedups']['native']}x "
            f"({pop['blocks']} blocks, {pop['omega_calls']} omega calls)"
        )

    benchmark.pedantic(headline, rounds=1, iterations=1)
    walls = ", ".join(
        f"{name} {pop['engines'][name]['wall_seconds']:.2f}s"
        for name in pop["engines"]
    )
    rendered = (
        "H — native engine vs reference engine\n"
        f"population: {pop['blocks']} blocks, {walls} "
        f"-> native {pop['speedups']['native']}x "
        f"({pop['engines']['native']['omega_per_sec']:.0f} omega calls/s on "
        "native)\n"
        f"kernels: {len(kern['entries'])} kernel x machine pairs "
        f"-> native {kern['speedups']['native']}x\n"
        f"identical results: {payload['summary']['identical']}, "
        f"certified: {pop['certified']}/{pop['blocks']}"
    )
    publish(results_dir, "hot_core", rendered)
    benchmark.extra_info["speedups"] = pop["speedups"]
    benchmark.extra_info["omega_per_sec"] = pop["engines"]["native"][
        "omega_per_sec"
    ]
    assert pop["identical"] and kern["speedups"]["native"] is not None
