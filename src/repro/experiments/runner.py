"""Shared experiment machinery.

One pass over a synthetic block population produces the per-block records
that Table 7 and Figures 1, 4, 5, 6 and 7 are all views of; this module
owns that pass so the experiments stay cheap and mutually consistent.

Scale: the paper schedules 16,000 blocks.  ``population_size()`` reads
``REPRO_SCALE`` (a fraction of paper scale, default 0.125 ⇒ 2,000 blocks)
so benchmarks stay tractable in pure Python while ``REPRO_SCALE=1``
reproduces the full run.  Results are shape-stable across scales.

Environment knobs: ``REPRO_SCALE`` and ``REPRO_WORKERS`` (the worker
count) are outside input, each parsed by one function here
(:func:`env_scale`, :func:`env_workers`) that every caller uses.  An
unset or empty variable means the caller's own default; a malformed or
non-positive one raises :class:`EnvError` naming the variable — never a
bare ``int()`` traceback, and never a value silently clamped into range
(a run must not hide its scale).

The serial pass lives here; ``repro.experiments.parallel`` fans the same
per-block step (:func:`schedule_generated_block`) out over a process
pool.  Both paths build records through the same function, which is what
makes the parallel engine's output bit-identical to the serial one.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Mapping, Optional

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..resilience.budget import (
    STEP_OPTIMAL,
    BudgetManager,
    LadderOutcome,
    ladder_schedule,
    seed_outcome,
)
from ..sched.core import resolve_engine
from ..sched.list_scheduler import program_order
from ..sched.nop_insertion import ScheduleTiming, compute_timing
from ..sched.search import SearchOptions
from ..synth.generator import GeneratedBlock
from ..synth.population import (
    PopulationSpec,
    generate_from_params,
    sample_population_params,
)
from ..telemetry import Telemetry

#: The paper's population size.
PAPER_BLOCKS = 16_000

#: The paper's curtail points were "always large relative to the number of
#: items searched for an optimal search of an average block"; its truncated
#: searches averaged ~54,000 Ω calls, placing λ in the 50k range.  Typical
#: complete searches here cost ~400 calls, so this is >100x headroom.
DEFAULT_CURTAIL = 50_000


class EnvError(ValueError):
    """An environment knob holds a value the runner cannot use."""


def _positive_env(name: str, parse, kind: str, default):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or not (math.isfinite(value) and value > 0):
        raise EnvError(f"{name} must be a positive {kind}, got {raw!r}")
    return value


def env_scale(default: float) -> float:
    """``REPRO_SCALE`` as a positive fraction of paper scale."""
    return _positive_env("REPRO_SCALE", float, "number", default)


def env_workers(default: int) -> int:
    """``REPRO_WORKERS`` as a positive worker-process count."""
    return _positive_env("REPRO_WORKERS", int, "integer", default)


def population_size(default_scale: float = 0.125) -> int:
    """Blocks to run, honouring the ``REPRO_SCALE`` environment knob.

    Raises :class:`EnvError` when ``REPRO_SCALE`` is malformed or not
    positive.
    """
    return max(1, round(PAPER_BLOCKS * env_scale(default_scale)))


@dataclass(frozen=True)
class BlockRecord:
    """Everything the experiments need to know about one scheduled block.

    ``elapsed_seconds`` is excluded from equality/hashing: two runs of
    the same population are *the same result* regardless of wall clock,
    which is what lets the parallel engine assert record-identity against
    the serial runner.
    """

    index: int
    size: int  # instructions (tuples) in the block
    statements: int
    initial_nops: int  # mu of the front end's program order (Figure 4 "initial")
    seed_nops: int  # mu of the list schedule (step [1]'s incumbent)
    final_nops: int  # mu of the search's best schedule
    omega_calls: int
    completed: bool  # condition [1]: provably optimal
    #: The search hit its wall-clock deadline (or the run budget was
    #: exhausted, or the block was quarantined after repeated worker
    #: failures) and ``final_nops`` is a deterministic fallback — the
    #: split-windows schedule or the list-schedule seed — not the search
    #: incumbent.  Degraded records are never ``completed`` — Table 7 and
    #: the verify oracle must count them as truncated, never as optimal.
    degraded: bool = False
    #: Which rung of the degradation ladder published this record — one
    #: of ``repro.resilience.budget.LADDER`` (``""`` only on records
    #: predating the resilience layer).
    ladder: str = ""
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def nops_removed(self) -> int:
        return self.initial_nops - self.final_nops


class VerificationError(AssertionError):
    """A population schedule failed its independent certificate check."""


#: What an empty block publishes: nothing to schedule, trivially optimal.
_EMPTY = LadderOutcome(
    timing=ScheduleTiming((), (), ()),
    seed_nops=0,
    omega_calls=0,
    ladder=STEP_OPTIMAL,
    completed=True,
)


def _record(
    index: int,
    gb: GeneratedBlock,
    initial_nops: int,
    out: LadderOutcome,
    elapsed: float,
    telemetry: Optional[Telemetry],
) -> BlockRecord:
    """The ``BlockRecord`` view of one ladder outcome."""
    if telemetry is not None and out.degraded:
        telemetry.count("blocks.degraded")
    return BlockRecord(
        index=index,
        size=len(gb.block),
        statements=gb.statements,
        initial_nops=initial_nops,
        seed_nops=out.seed_nops,
        final_nops=out.final_nops,
        omega_calls=out.omega_calls,
        completed=out.completed,
        degraded=out.degraded,
        ladder=out.ladder,
        elapsed_seconds=elapsed,
    )


def _empty_record(index: int, gb: GeneratedBlock, telemetry) -> BlockRecord:
    """The zero-size record for a block the optimizer folded away."""
    if telemetry is not None:
        telemetry.count("blocks.empty")
        telemetry.count(f"resilience.ladder.{STEP_OPTIMAL}")
    return _record(index, gb, 0, _EMPTY, 0.0, telemetry)


def list_seed_record(
    index: int,
    gb: GeneratedBlock,
    machine: MachineDescription,
    telemetry: Optional[Telemetry] = None,
) -> BlockRecord:
    """The bottom rung of the degradation ladder without a search.

    Publishes the deterministic list-schedule seed for a block of a
    poisoned worker chunk, or of a chunk the run budget drained before it
    started — the situations where a record is still owed but searching
    is off the table.
    """
    if len(gb.block) == 0:
        return _empty_record(index, gb, telemetry)
    start = time.perf_counter()
    dag = DependenceDAG(gb.block)
    initial = compute_timing(dag, program_order(dag), machine)
    out = seed_outcome(dag, machine, telemetry)
    return _record(
        index, gb, initial.total_nops, out, time.perf_counter() - start, telemetry
    )


def schedule_generated_block(
    index: int,
    gb: GeneratedBlock,
    machine: MachineDescription,
    options: SearchOptions,
    telemetry: Optional[Telemetry] = None,
    verify: bool = False,
    budget: Optional[BudgetManager] = None,
    cache=None,
) -> BlockRecord:
    """Schedule one population member and build its record.

    Empty blocks (the optimizer occasionally folds a whole program away)
    produce a zero-size record instead of a gap, so ``BlockRecord.index``
    stays dense and the record count always equals the population size.

    The record is the ``BlockRecord`` view of
    :func:`repro.resilience.budget.ladder_schedule`'s outcome.
    ``options.time_limit`` bounds the wall-clock spent searching this
    block; a block that exceeds it publishes the split-windows schedule
    when it beats the list seed, else the list seed, and is marked
    ``degraded=True, completed=False`` instead of stalling the run.
    ``budget`` enforces the run-level budgets: once they are exhausted,
    blocks skip the search entirely and publish their list seeds.

    ``verify`` re-derives the *published* schedule's legality and NOP
    count through :mod:`repro.verify.certificate` (an implementation that
    shares no code with the schedulers) and raises
    :class:`VerificationError` on any mismatch — an Ω-accounting bug in
    the search can then never silently contaminate the experiment data.

    ``cache`` is an optional :class:`repro.service.cache.ScheduleCache`:
    blocks whose canonical form was already solved (this run or any
    earlier run sharing the store) are served from it, bit-for-bit
    identical to a cold search.  Searches running under a wall-clock
    ``time_limit`` bypass the cache (the outcome is not a pure function
    of the problem), so records stay byte-identical either way.
    """
    block = gb.block
    if len(block) == 0:
        return _empty_record(index, gb, telemetry)
    dag = DependenceDAG(block)
    initial = compute_timing(dag, program_order(dag), machine)
    start = time.perf_counter()
    out = ladder_schedule(
        dag, machine, options, telemetry=telemetry, budget=budget, cache=cache
    )
    elapsed = time.perf_counter() - start
    if verify:
        _verify_record(block, dag, machine, out.timing, out.final_nops, telemetry)
    return _record(index, gb, initial.total_nops, out, elapsed, telemetry)


def _verify_record(block, dag, machine, timing, final_nops, telemetry):
    """Certify the schedule a record is about to publish.

    ``timing`` is whatever the degradation ladder published — the search
    optimum, a curtailed incumbent, the split-windows schedule, or the
    list seed — because that is the schedule the record reports;
    verifying an abandoned incumbent would check a schedule nobody sees.
    """
    from ..sched.multi import first_pipeline_assignment
    from ..verify.certificate import check_schedule

    assignment = first_pipeline_assignment(dag, machine)
    cert = check_schedule(
        block, machine, timing.order, timing.etas, assignment=assignment
    )
    if telemetry is not None:
        telemetry.count("verify.schedules_checked")
    if not cert.ok:
        if telemetry is not None:
            telemetry.count("verify.certificate_failures")
        raise VerificationError(
            f"block {block.name!r} on {machine.name}: {cert.summary()}"
        )
    if cert.required_nops != final_nops:
        if telemetry is not None:
            telemetry.count("verify.certificate_failures")
        raise VerificationError(
            f"block {block.name!r} on {machine.name}: record publishes "
            f"{final_nops} NOPs but the certificate re-derives "
            f"{cert.required_nops}"
        )


def run_population(
    n_blocks: int,
    curtail: int = DEFAULT_CURTAIL,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
    options: Optional[SearchOptions] = None,
    telemetry: Optional[Telemetry] = None,
    verify: bool = False,
    done: Optional[Mapping[int, BlockRecord]] = None,
    on_record: Optional[Callable[[BlockRecord], None]] = None,
    budget: Optional[BudgetManager] = None,
    cache=None,
) -> List[BlockRecord]:
    """Schedule ``n_blocks`` synthetic blocks; one record per block.

    ``initial_nops`` is the NOP count of the block *as emitted* (program
    order) — the quantity Figure 4 shows growing linearly with block size;
    ``seed_nops`` is the list schedule's count (the search's incumbent).
    With ``verify=True`` every published schedule is certified through
    the independent checker (see :func:`schedule_generated_block`).

    Resilience hooks (all optional, all no-ops by default):

    * ``done`` — records already finished by an earlier, interrupted run
      (from a checkpoint journal).  Their blocks are skipped — only the
      cheap parameter stream is replayed, not generation or search — and
      the journaled records slot back in at their indexes, so a resumed
      run returns exactly what an uninterrupted one would.
    * ``on_record`` — called with each *freshly scheduled* record the
      moment it exists (not with journal-replayed ones); the CLI points
      this at :meth:`repro.resilience.journal.Journal.append`.
    * ``budget`` — a :class:`BudgetManager` enforcing the run-level
      wall-clock/Ω budgets (see :func:`schedule_generated_block`).
    * ``cache`` — a :class:`repro.service.cache.ScheduleCache`; blocks
      whose canonical form is already in the (possibly shared, possibly
      disk-backed) store are served from it instead of re-searched.
    """
    if machine is None:
        machine = paper_simulation_machine()
    if options is None:
        options = SearchOptions(curtail=curtail)
    # Resolve once per run, as run_population_parallel does in its
    # parent: one notice and one ``search.engine_fallbacks`` count per
    # run, however many blocks it schedules.
    resolved = resolve_engine(options.engine, telemetry=telemetry)
    if resolved != options.engine:
        options = replace(options, engine=resolved)
    if budget is not None:
        budget.start()
    records: List[BlockRecord] = []
    skipped = 0
    generated = 0.0
    for params in sample_population_params(n_blocks, master_seed, spec):
        if done is not None and params.index in done:
            records.append(done[params.index])
            skipped += 1
            continue
        t0 = time.perf_counter()
        gb = generate_from_params(params, spec)
        generated += time.perf_counter() - t0
        record = schedule_generated_block(
            params.index,
            gb,
            machine,
            options,
            telemetry=telemetry,
            verify=verify,
            budget=budget,
            cache=cache,
        )
        records.append(record)
        if on_record is not None:
            on_record(record)
    assert len(records) == n_blocks, (
        f"population run produced {len(records)} records for "
        f"{n_blocks} blocks"
    )
    if telemetry is not None:
        telemetry.count("blocks.scheduled", len(records) - skipped)
        if skipped:
            telemetry.count("resilience.journal_blocks_skipped", skipped)
        telemetry.add_time("phase.generate", generated)
    return records


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def bucket_by_size(
    records: List[BlockRecord], bucket: int = 2
) -> dict[int, List[BlockRecord]]:
    """Group records by block-size bucket (for the per-size figures)."""
    out: dict[int, List[BlockRecord]] = {}
    for r in records:
        out.setdefault((r.size // bucket) * bucket, []).append(r)
    return dict(sorted(out.items()))
