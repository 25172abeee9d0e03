"""Shared benchmark machinery.

Every table/figure benchmark draws on one shared population run (the
paper schedules a single 16,000-block corpus and derives Table 7 and
Figures 1/4/5/6/7 from it).  The run is session-scoped and sized by
``REPRO_SCALE`` (fraction of the paper's 16,000 blocks; benchmark default
1/40 ⇒ 400 blocks, a ~4 s pass — set ``REPRO_SCALE=1`` for the full
corpus).

Rendered experiment outputs are written to ``results/<name>.txt`` next to
the repository root and echoed into the pytest-benchmark ``extra_info``
so the numbers that matter survive in ``bench_output.txt``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.parallel import run_population_parallel
from repro.experiments.runner import DEFAULT_CURTAIL, env_workers, population_size

#: Benchmark-default fraction of the paper's population.
BENCH_SCALE = 1 / 40

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_population_size() -> int:
    return population_size(default_scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def population_records():
    """The shared scheduled-population records (Table 7's corpus).

    ``REPRO_WORKERS`` fans the run out over a process pool (default 1,
    which takes the serial path — identical records either way).
    """
    workers = env_workers(1)
    return run_population_parallel(
        bench_population_size(),
        curtail=DEFAULT_CURTAIL,
        master_seed=1990,
        workers=workers,
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: pathlib.Path, name: str, rendered: str) -> None:
    """Persist a rendered experiment table and echo it to the console."""
    path = results_dir / f"{name}.txt"
    path.write_text(rendered + "\n")
    print(f"\n{rendered}\n[written to {path}]")
