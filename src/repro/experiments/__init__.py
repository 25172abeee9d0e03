"""Experiments reproducing every table and figure of the paper's
evaluation (plus ablations and extensions).  See DESIGN.md §3 for the
index and ``repro experiments --help`` for the CLI."""

from . import (
    ablation,
    extension,
    fig1,
    fig4,
    fig5,
    fig6,
    fig7,
    kernels,
    loops,
    machines,
    prepass,
    stalls,
    table1,
    table7,
)
from .parallel import default_workers, run_population_parallel
from .runner import (
    DEFAULT_CURTAIL,
    PAPER_BLOCKS,
    BlockRecord,
    population_size,
    run_population,
    schedule_generated_block,
)

__all__ = [
    "ablation",
    "prepass",
    "kernels",
    "loops",
    "stalls",
    "machines",
    "extension",
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table7",
    "BlockRecord",
    "DEFAULT_CURTAIL",
    "PAPER_BLOCKS",
    "default_workers",
    "population_size",
    "run_population",
    "run_population_parallel",
    "schedule_generated_block",
]
