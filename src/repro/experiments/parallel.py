"""Parallel population scheduling — supervised fan-out of the corpus run.

The paper's headline experiment schedules 16,000 synthetic blocks; the
serial pass in :mod:`repro.experiments.runner` is embarrassingly
parallel across blocks but bottlenecked on one core.  This module fans
it out:

1. The parent samples the population *parameter* stream (a few RNG draws
   per block — no front end work) via
   :func:`repro.synth.population.sample_population_params`.
2. The parameters are striped round-robin into chunks, so the cost of
   large blocks spreads evenly across workers.
3. One :class:`repro.resilience.pool.WorkerPool` of ``workers``
   processes runs the chunks, one job each (:func:`_run_chunk`): the
   worker rebuilds its blocks with :func:`generate_from_params`,
   schedules them through the same :func:`schedule_generated_block`
   step the serial runner uses, beats after every block, and returns
   its records; the pool merges the worker's telemetry.
4. The parent folds chunks as they land — journal, Ω charge — and
   sorts the records back into deterministic block-index order.

Because workers and the serial runner share one per-block code path and
the parameter stream reproduces the population bit for bit, the merged
records are identical to ``run_population``'s (wall-clock fields aside —
``BlockRecord`` equality already excludes those).

Fault tolerance is the pool's (see :mod:`repro.resilience.pool`): a
crashed worker, a hung one (no beat within the hang deadline), or one
returning records that fail
:func:`repro.resilience.supervisor.validate_records` costs exactly one
chunk attempt, which is retried with capped exponential backoff.  A
chunk that exhausts its retries is **poisoned**: the parent publishes
its blocks' deterministic list-schedule seeds (the bottom rung of the
degradation ladder) instead of aborting the run.  Only a validated
result carries records, so a fault can never leak partial work.
:class:`VerificationError` is the one failure that must *not* be
retried: a failed schedule certificate means the data is wrong, not the
worker, so the task returns it and the parent aborts the run.

Degradation, not hangs: ``SearchOptions.time_limit`` bounds the
wall-clock any one block may spend in the branch-and-bound; a block that
exceeds it walks down the degradation ladder
(:func:`repro.resilience.budget.ladder_schedule` — split windows, then
the list seed) exactly as it would serially, and is recorded
``completed=False``.
Robustness, not ceremony: ``workers=1`` — or a pool that cannot be
started (sandboxed environments without process support) — falls back
to the serial runner, which produces the same records.  A worker that
cannot be re-forked mid-run is the pool's to handle: its chunks degrade,
nothing already journaled is redone.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Callable, List, Mapping, Optional, Sequence

from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..resilience.budget import BudgetManager
from ..resilience.faults import FaultPlan
from ..resilience.pool import JobContext, PoolJob, WorkerPool
from ..resilience.supervisor import SupervisorConfig, validate_records
from ..sched.core import resolve_engine
from ..sched.search import SearchOptions
from ..synth.population import (
    BlockParams,
    PopulationSpec,
    generate_from_params,
    sample_population_params,
)
from ..telemetry import Telemetry
from .runner import (
    DEFAULT_CURTAIL,
    BlockRecord,
    VerificationError,
    env_workers,
    list_seed_record,
    run_population,
    schedule_generated_block,
)

#: Chunks per worker: small enough to amortize submission overhead,
#: large enough that round-robin striping levels the block-size skew —
#: and, under supervision, the unit of loss: a crash costs at most one
#: chunk's worth of work.
CHUNKS_PER_WORKER = 8


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the machine's cores.

    Raises :class:`repro.experiments.runner.EnvError` when
    ``REPRO_WORKERS`` is malformed or not positive.
    """
    return env_workers(os.cpu_count() or 1)


def _corrupt_records(records: List[BlockRecord]) -> List[BlockRecord]:
    """Damage a record payload so the parent's validation must catch it."""
    if not records:
        return records
    first = dataclasses.replace(records[0], final_nops=records[0].seed_nops + 7)
    return [first] + records[1:]


def _check_chunk(indexes: List[int], result) -> Optional[str]:
    """Parent-side validator of one chunk's result (a certificate failure
    is data for the driver, not a corrupt payload)."""
    if isinstance(result, VerificationError):
        return None
    return validate_records(result, indexes)


def _run_chunk(
    ctx: JobContext,
    params_chunk: Sequence[BlockParams],
    machine: MachineDescription,
    spec: PopulationSpec,
    options: SearchOptions,
    verify: bool,
    budget: Optional[BudgetManager],
):
    """Pool task: schedule one parameter chunk on a worker.

    Rebuilds each block with :func:`generate_from_params`, schedules it
    through :func:`schedule_generated_block` and beats after every
    block, so the pool's hang deadline is per block.  Returns the
    records, or the :class:`VerificationError` of a failed schedule
    certificate — returned, not raised: retrying would reproduce it (the
    records, not the worker, are wrong), so the parent must abort.

    A chaos crash or hang fires at the chunk's midpoint — after real
    work has been done — so recovery is exercised against partial
    state; a ``corrupt`` fault damages the returned records.
    """
    fault_at = len(params_chunk) // 2
    records: List[BlockRecord] = []
    try:
        for k, params in enumerate(params_chunk):
            if k == fault_at:
                ctx.inject()
            gb = generate_from_params(params, spec)
            records.append(
                schedule_generated_block(
                    params.index,
                    gb,
                    machine,
                    options,
                    telemetry=ctx.telemetry,
                    verify=verify,
                    budget=budget,
                    cache=ctx.cache,
                )
            )
            ctx.beat()
    except VerificationError as exc:
        return exc
    if ctx.fault == "corrupt":
        records = _corrupt_records(records)
    return records


def run_population_parallel(
    n_blocks: int,
    curtail: int = DEFAULT_CURTAIL,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
    options: Optional[SearchOptions] = None,
    workers: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    verify: bool = False,
    done: Optional[Mapping[int, BlockRecord]] = None,
    on_records: Optional[Callable[[Sequence[BlockRecord]], None]] = None,
    budget: Optional[BudgetManager] = None,
    supervisor: Optional[SupervisorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    cache=None,
) -> List[BlockRecord]:
    """Schedule ``n_blocks`` synthetic blocks across supervised workers.

    Drop-in parallel equivalent of :func:`run_population`: same
    parameters plus ``workers`` (default: ``REPRO_WORKERS`` or the CPU
    count) and the same record list, in block-index order.  Serial
    fallback when ``workers=1`` or the worker pool cannot be started.
    With ``verify=True`` each worker certifies every published schedule
    through the independent checker; a certificate failure raises
    :class:`repro.experiments.runner.VerificationError` in the parent.

    Resilience (all optional; see :func:`repro.experiments.runner.run_population`
    for ``done``/``budget`` semantics):

    * ``done`` — journal-recovered records whose blocks are skipped.
    * ``on_records`` — called with each chunk of freshly scheduled
      records as it is accepted (including poison-quarantine seeds);
      the CLI points this at the checkpoint journal.
    * ``budget`` — run budgets: the armed wall-clock deadline crosses
      into workers (``time.monotonic`` is system-wide), so blocks past
      the deadline degrade inside workers exactly as they would
      serially; the run-level Ω cap is enforced by the parent at chunk
      granularity (workers cannot see each other's spend).
    * ``supervisor`` — the pool's hang/retry/backoff policy knobs.
    * ``fault_plan`` — deterministic fault injection for chaos tests.
    * ``cache`` — a :class:`repro.service.cache.ScheduleCache`; every
      worker uses the same disk store, so canonical forms solved by any
      worker — or any earlier run — are served instead of re-searched.
    """
    if workers is None:
        workers = default_workers()
    if machine is None:
        machine = paper_simulation_machine()
    if options is None:
        options = SearchOptions(curtail=curtail)
    # Resolve in the parent rather than letting every worker meet a
    # retired alias or a missing C compiler on its own: one notice line
    # per run, byte-identical records, never a crash.
    resolved = resolve_engine(options.engine, telemetry=telemetry)
    if resolved != options.engine:
        options = dataclasses.replace(options, engine=resolved)
    if supervisor is None:
        supervisor = SupervisorConfig()
    if budget is not None:
        budget.start()

    def serial() -> List[BlockRecord]:
        return run_population(
            n_blocks,
            curtail,
            master_seed,
            machine,
            spec,
            options,
            telemetry=telemetry,
            verify=verify,
            done=done,
            on_record=(
                None if on_records is None else (lambda r: on_records([r]))
            ),
            budget=budget,
            cache=cache,
        )

    if workers <= 1 or n_blocks <= 1:
        return serial()

    all_params = list(sample_population_params(n_blocks, master_seed, spec))
    if done:
        params = [p for p in all_params if p.index not in done]
    else:
        params = all_params
    skipped = n_blocks - len(params)

    records: List[BlockRecord] = [done[p.index] for p in all_params if done and p.index in done]

    if params:
        n_chunks = min(len(params), workers * CHUNKS_PER_WORKER)
        # Round-robin striping: block cost is size-skewed and sizes drift
        # along the stream, so contiguous spans would load-balance poorly.
        chunks = [params[i::n_chunks] for i in range(n_chunks)]
        try:
            pool = WorkerPool(
                min(workers, n_chunks),
                cache=cache,
                config=supervisor,
                fault_plan=fault_plan,
                telemetry=telemetry,
                queue_limit=n_chunks,
            ).start()
        except (OSError, RuntimeError):
            # Worker processes cannot be stood up (restricted sandbox,
            # missing /dev/shm, fork limits): nothing has run yet and the
            # records are deterministic, so the serial runner is safe.
            if telemetry is not None:
                telemetry.count("parallel.fallbacks")
            return serial()
        try:
            records.extend(
                _run_chunks(
                    pool, chunks, machine, spec, options, verify,
                    telemetry, on_records, budget,
                )
            )
        finally:
            pool.stop(drain_timeout=0.0)
        if telemetry is not None:
            telemetry.count("parallel.runs")
            telemetry.count("parallel.workers", workers)
            telemetry.count("parallel.chunks", len(chunks))

    records.sort(key=lambda r: r.index)
    assert len(records) == n_blocks and all(
        r.index == i for i, r in enumerate(records)
    ), "parallel merge lost or duplicated block records"
    if telemetry is not None:
        telemetry.count("blocks.scheduled", n_blocks - skipped)
        if skipped:
            telemetry.count("resilience.journal_blocks_skipped", skipped)
    return records


def _run_chunks(
    pool: WorkerPool,
    chunks: List[List[BlockParams]],
    machine: MachineDescription,
    spec: PopulationSpec,
    options: SearchOptions,
    verify: bool,
    telemetry: Optional[Telemetry],
    on_records: Optional[Callable[[Sequence[BlockRecord]], None]],
    budget: Optional[BudgetManager],
) -> List[BlockRecord]:
    """Submit every chunk to ``pool`` and fold the results as they land.

    Chunks are submitted in order, so job ``i`` is chunk ``i`` and a
    seeded fault plan replays.  A chunk that exhausted its retries
    publishes its blocks' list seeds; once the run budget is spent the
    chunks no worker has started are cancelled and publish their seeds
    too.  Raises :class:`VerificationError` on a failed certificate.
    """
    jobs = [
        PoolJob(
            f"chunk {cid}",
            _run_chunk,
            (chunk, machine, spec, options, verify, budget),
            validate=functools.partial(_check_chunk, [p.index for p in chunk]),
            time_limit=options.time_limit,
        )
        for cid, chunk in enumerate(chunks)
    ]
    pending = dict(zip(jobs, chunks))
    records: List[BlockRecord] = []

    def publish(chunk_records: List[BlockRecord]) -> None:
        records.extend(chunk_records)
        if on_records is not None:
            on_records(chunk_records)

    def seeds(chunk: List[BlockParams], counter: str) -> List[BlockRecord]:
        # Counted privately, then merged under the pool's lock: the
        # dispatcher counts into the same registry concurrently.
        local = Telemetry()
        local.count(counter, len(chunk))
        out = [
            list_seed_record(p.index, generate_from_params(p, spec), machine, local)
            for p in chunk
        ]
        if telemetry is not None:
            with pool.telemetry_lock:
                telemetry.merge(local)
        return out

    pool.submit(jobs)
    while pending:
        job = pool.wait_any(pending)
        chunk = pending.pop(job)
        if isinstance(job.result, VerificationError):
            raise job.result
        if job.result is None:
            publish(seeds(chunk, "resilience.poison_blocks"))
        else:
            if budget is not None:
                budget.charge(sum(r.omega_calls for r in job.result))
            publish(job.result)
        if budget is not None and budget.run_exhausted() is not None:
            for cancelled in pool.cancel(pending):
                publish(
                    seeds(
                        pending.pop(cancelled), "resilience.run_budget_exhausted"
                    )
                )
    return records
