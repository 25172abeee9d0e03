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
3. Each chunk runs in its own supervised worker process
   (:func:`_chunk_worker`): the worker rebuilds its blocks with
   :func:`generate_from_params`, schedules them through the same
   :func:`schedule_generated_block` step the serial runner uses, sends a
   heartbeat per finished block, and delivers its records plus its own
   telemetry registry in one final message.
4. The parent merges records back into deterministic block-index order
   and folds every worker's telemetry into the caller's registry.

Because workers and the serial runner share one per-block code path and
the parameter stream reproduces the population bit for bit, the merged
records are identical to ``run_population``'s (wall-clock fields aside —
``BlockRecord`` equality already excludes those).

Fault tolerance (see :mod:`repro.resilience`): each worker owns exactly
one chunk, so a crashed process (stale pipe + dead process object), a
hung one (stale heartbeat), or one returning records that fail
:func:`repro.resilience.supervisor.validate_records` blames exactly one
chunk.  Failed chunks are requeued with capped exponential backoff; a
chunk that keeps failing is **poisoned** — the parent quarantines it and
publishes its blocks' deterministic list-schedule seeds (the bottom rung
of the degradation ladder) instead of aborting the run.  Only a clean
``done`` message carries records, so a fault can never leak partial
work.  :class:`VerificationError` is the one exception that must *not*
be retried: a failed schedule certificate means the data is wrong, not
the worker, so it aborts the run.

Degradation, not hangs: ``SearchOptions.time_limit`` bounds the
wall-clock any one block may spend in the branch-and-bound; a block that
exceeds it walks down the degradation ladder
(:func:`repro.resilience.budget.ladder_schedule` — split windows, then
the list seed) exactly as it would serially, and is recorded
``completed=False``.
Robustness, not ceremony: ``workers=1`` — or any failure to stand
worker processes up (sandboxed environments without process support) —
falls back to the serial runner, which produces the same records.
"""

from __future__ import annotations

import dataclasses
import os
import time
from multiprocessing import Pipe, Process
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..resilience.budget import BudgetManager
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import (
    ChunkSupervisor,
    SupervisorConfig,
    validate_records,
)
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


def _chunk_worker(
    conn,
    chunk_id: int,
    attempt: int,
    params_chunk: Sequence[BlockParams],
    machine: MachineDescription,
    spec: PopulationSpec,
    options: SearchOptions,
    verify: bool,
    budget: Optional[BudgetManager],
    fault_plan: Optional[FaultPlan],
    cache=None,
) -> None:
    """Worker entry point: schedule one parameter chunk.

    Protocol (messages over ``conn``):

    * ``("hb", chunk_id, k)`` after each scheduled block — the progress
      heartbeat the supervisor watches.  Progress, not liveness: a worker
      spinning uselessly inside one block goes as stale as a dead one.
    * ``("done", chunk_id, records, telemetry_dict)`` exactly once on
      success — the *only* message that carries records, so partial work
      from a faulted attempt can never be merged.
    * ``("fatal", chunk_id, message)`` for a failed schedule certificate:
      retrying would reproduce it (the records, not the worker, are
      wrong), so the parent must abort, not requeue.

    When a :class:`FaultPlan` schedules a fault for this ``(chunk_id,
    attempt)``, it triggers at the chunk's midpoint — after real work has
    been done — so recovery is exercised against partial state, not idle
    workers.
    """
    fault = fault_plan.decide(chunk_id, attempt) if fault_plan is not None else None
    fault_at = len(params_chunk) // 2
    telemetry = Telemetry()
    records: List[BlockRecord] = []
    try:
        for k, params in enumerate(params_chunk):
            if fault in ("crash", "hang") and k == fault_at:
                fault_plan.inject(fault)
            gb = generate_from_params(params, spec)
            records.append(
                schedule_generated_block(
                    params.index,
                    gb,
                    machine,
                    options,
                    telemetry=telemetry,
                    verify=verify,
                    budget=budget,
                    cache=cache,
                )
            )
            conn.send(("hb", chunk_id, k))
        if fault == "corrupt":
            records = _corrupt_records(records)
        conn.send(("done", chunk_id, records, telemetry.as_dict()))
    except VerificationError as exc:
        conn.send(("fatal", chunk_id, str(exc)))
    finally:
        conn.close()


class _Running:
    """One live worker: its process, pipe, and freshest heartbeat."""

    __slots__ = ("process", "conn", "last_beat")

    def __init__(self, process, conn, now: float):
        self.process = process
        self.conn = conn
        self.last_beat = now


def _stop_worker(worker: _Running) -> None:
    try:
        worker.conn.close()
    except OSError:
        pass
    if worker.process.is_alive():
        worker.process.terminate()
    worker.process.join(timeout=5.0)


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
    fallback when ``workers=1`` or worker processes cannot be started.
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
    * ``supervisor`` — heartbeat/retry/poison policy knobs.
    * ``fault_plan`` — deterministic fault injection for chaos tests.
    * ``cache`` — a :class:`repro.service.cache.ScheduleCache`; each
      worker re-opens the same disk store (the pickle form carries only
      the store path), so canonical forms solved by any worker — or any
      earlier run — are served instead of re-searched.
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
            fresh = _run_supervised(
                chunks,
                machine,
                spec,
                options,
                verify,
                workers,
                telemetry,
                on_records,
                budget,
                supervisor,
                fault_plan,
                cache,
            )
        except (OSError, PermissionError, RuntimeError):
            # Worker processes cannot be stood up (restricted sandbox,
            # missing /dev/shm, fork limits): the records are
            # deterministic, so redoing the run serially is always safe.
            if telemetry is not None:
                telemetry.count("parallel.fallbacks")
            return serial()
        records.extend(fresh)
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


def _run_supervised(
    chunks: List[List[BlockParams]],
    machine: MachineDescription,
    spec: PopulationSpec,
    options: SearchOptions,
    verify: bool,
    workers: int,
    telemetry: Optional[Telemetry],
    on_records: Optional[Callable[[Sequence[BlockRecord]], None]],
    budget: Optional[BudgetManager],
    config: SupervisorConfig,
    fault_plan: Optional[FaultPlan],
    cache=None,
) -> List[BlockRecord]:
    """Drive the chunk fleet to completion under supervision.

    The loop: launch ready chunks into free worker slots, wait briefly
    for messages, accept validated results, detect crashed/hung workers,
    requeue or poison their chunks.  Raises :class:`VerificationError`
    on a worker's ``fatal`` message and lets process-spawn errors
    propagate (the caller falls back to the serial runner).
    """
    sup = ChunkSupervisor(len(chunks), config)
    running: Dict[int, _Running] = {}
    records: List[BlockRecord] = []

    def accept(cid: int, chunk_records: List[BlockRecord], stats: dict) -> None:
        sup.note_success(cid)
        records.extend(chunk_records)
        if telemetry is not None:
            telemetry.merge(stats)
        if budget is not None:
            budget.charge(sum(r.omega_calls for r in chunk_records))
        if on_records is not None:
            on_records(chunk_records)

    def quarantine(cid: int) -> None:
        """Poisoned chunk: publish deterministic list seeds, keep going."""
        seeds = [
            list_seed_record(
                p.index, generate_from_params(p, spec), machine, telemetry
            )
            for p in chunks[cid]
        ]
        records.extend(seeds)
        if telemetry is not None:
            telemetry.count("resilience.poison_chunks")
            telemetry.count("resilience.poison_blocks", len(seeds))
        if on_records is not None:
            on_records(seeds)

    def fail(cid: int, kind: str, counter: str, now: float) -> None:
        if telemetry is not None:
            telemetry.count(counter)
        if sup.note_failure(cid, kind, now) == "poison":
            quarantine(cid)
        elif telemetry is not None:
            telemetry.count("resilience.chunk_retries")

    try:
        while not sup.finished():
            now = time.monotonic()
            while len(running) < workers:
                cid = sup.next_ready(now)
                if cid is None:
                    break
                parent_conn, child_conn = Pipe(duplex=False)
                proc = Process(
                    target=_chunk_worker,
                    args=(
                        child_conn,
                        cid,
                        sup.attempts[cid],
                        chunks[cid],
                        machine,
                        spec,
                        options,
                        verify,
                        budget,
                        fault_plan,
                        cache,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                running[cid] = _Running(proc, parent_conn, now)

            if running:
                mp_connection.wait(
                    [w.conn for w in running.values()],
                    timeout=config.poll_interval,
                )
            elif not sup.finished():
                time.sleep(max(config.poll_interval, sup.sleep_hint(now)))
                continue

            now = time.monotonic()
            for cid in list(running):
                worker = running[cid]
                finished = False
                failure: Optional[Tuple[str, str]] = None
                try:
                    while worker.conn.poll():
                        msg = worker.conn.recv()
                        if msg[0] == "hb":
                            worker.last_beat = now
                        elif msg[0] == "done":
                            _, _, chunk_records, stats = msg
                            reason = validate_records(
                                chunk_records, [p.index for p in chunks[cid]]
                            )
                            if reason is None:
                                accept(cid, chunk_records, stats)
                            else:
                                failure = (
                                    f"invalid records: {reason}",
                                    "resilience.corrupted_records",
                                )
                            finished = True
                            break
                        elif msg[0] == "fatal":
                            for other in running.values():
                                _stop_worker(other)
                            raise VerificationError(msg[2])
                except (EOFError, OSError):
                    failure = ("connection lost", "resilience.crashes_detected")
                    finished = True
                if not finished:
                    if not worker.process.is_alive():
                        failure = (
                            f"worker died (exit {worker.process.exitcode})",
                            "resilience.crashes_detected",
                        )
                        finished = True
                    elif now - worker.last_beat > config.hang_timeout:
                        failure = (
                            f"no heartbeat for {config.hang_timeout:g}s",
                            "resilience.hangs_detected",
                        )
                        finished = True
                if finished:
                    _stop_worker(worker)
                    del running[cid]
                    if failure is not None:
                        fail(cid, failure[0], failure[1], time.monotonic())

            if budget is not None and budget.run_exhausted() is not None:
                # Run budget gone: degrade every not-yet-started chunk to
                # list seeds.  In-flight chunks finish under their own
                # (worker-side) deadline checks.
                for cid in sup.drain_pending():
                    if telemetry is not None:
                        telemetry.count(
                            "resilience.run_budget_exhausted", len(chunks[cid])
                        )
                    sup.note_success(cid)
                    seeds = [
                        list_seed_record(
                            p.index,
                            generate_from_params(p, spec),
                            machine,
                            telemetry,
                        )
                        for p in chunks[cid]
                    ]
                    records.extend(seeds)
                    if on_records is not None:
                        on_records(seeds)
    finally:
        for worker in running.values():
            _stop_worker(worker)

    return records
