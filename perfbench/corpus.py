"""Seeded inputs of the three workloads.

Everything here runs before any timer starts, and the program under
test receives only what these functions return: source text, tuple text
and request batches.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.bench.service import _MAX_BLOCK_TUPLES
from repro.ir.block import BasicBlock
from repro.ir.textual import format_block
from repro.synth.generator import generate_program
from repro.synth.population import BlockParams, generate_from_params, sample_population_params

#: Programs in the population corpus (the size of the paper-scale
#: ``repro experiments`` default run).
POPULATION_BLOCKS = 2000

#: Blocks in the deep-search corpus.
DEEP_SEARCH_BLOCKS = 2000

#: Service requests generated per run.  Two client threads answer 2300
#: to 3500 in a 20-second run at the commit that added the benchmark; a
#: run that exhausts the stream ends early rather than repeat a fresh
#: block.  Generating a request costs about 4 ms, outside every timer.
SERVICE_REQUESTS = 5000
SERVICE_BATCH = 3
#: Hot blocks: enough that the set's mean size varies little between
#: seeds, few enough to stay resident in the daemon's memory cache.
SERVICE_HOT_BLOCKS = 64
#: Service blocks are the calibrated population's blocks of at most this
#: many tuples, the cap ``repro bench --service`` puts on its traffic: the
#: workload measures the daemon, not the search.
SERVICE_MAX_TUPLES = _MAX_BLOCK_TUPLES


def population_source(params: BlockParams) -> str:
    """Source text of one population program (the generator's AST, printed)."""
    return str(generate_program(params.statements, params.variables, params.constants, params.seed))


def population_corpus(seed: int, blocks: int = POPULATION_BLOCKS) -> List[Tuple[str, str]]:
    """``(name, source text)`` per population program."""
    return [
        (f"pop-{p.index}", population_source(p))
        for p in sample_population_params(blocks, seed)
    ]


def deep_search_corpus(seed: int, blocks: int = DEEP_SEARCH_BLOCKS) -> List[Tuple[str, str]]:
    """``(name, tuple text)`` per optimized population block.

    Blocks the optimizer folds away entirely are skipped: they hold
    nothing to schedule.
    """
    out: List[Tuple[str, str]] = []
    index = 0
    stream = sample_population_params(blocks * 2, seed)
    while len(out) < blocks:
        gb = generate_from_params(next(stream))
        if len(gb.block):
            out.append((f"deep-{index}", format_block(gb.block)))
        index += 1
    return out


@dataclass(frozen=True)
class ServiceSlot:
    """One block of one request: its name (``hot-<k>`` for the hot set,
    a cache read; ``fresh-<k>`` otherwise, a solve plus a cache write)
    and tuple text."""

    name: str
    text: str
    #: The block the text spells, kept to certify replies client-side.
    block: BasicBlock


def _service_blocks(seed: int):
    """``(tuple text, block)`` of small population blocks, in stream order."""
    for params in sample_population_params(10**9, seed):
        block = generate_from_params(params).block
        if 1 <= len(block) <= SERVICE_MAX_TUPLES:
            yield format_block(block), block


def service_requests(seed: int, requests: int = SERVICE_REQUESTS) -> List[List[ServiceSlot]]:
    """The request stream: each slot is a hot block with probability 1/2,
    otherwise the next fresh block of the stream."""
    blocks = _service_blocks(seed)
    hot = [next(blocks) for _ in range(SERVICE_HOT_BLOCKS)]
    rng = random.Random(seed)
    out: List[List[ServiceSlot]] = []
    fresh = 0
    for _ in range(requests):
        batch = []
        for _ in range(SERVICE_BATCH):
            if rng.random() < 0.5:
                h = rng.randrange(SERVICE_HOT_BLOCKS)
                text, block = hot[h]
                batch.append(ServiceSlot(f"hot-{h}", text, block))
            else:
                text, block = next(blocks)
                batch.append(ServiceSlot(f"fresh-{fresh}", text, block))
                fresh += 1
        out.append(batch)
    return out
