"""Tests for the fault-tolerance layer: budgets, journal, supervision.

The chaos suite (worker crash/hang/corrupt under the live parallel
engine, kill-and-resume) lives in ``tests/test_chaos.py``; this file
covers the resilience building blocks themselves plus the degradation
ladder's per-rung record contract.
"""

import dataclasses
import errno
import json
import multiprocessing
import os
import pickle
import threading
import time

import pytest

from repro.ioutil import atomic_write_json, atomic_write_text
from repro.machine.presets import paper_simulation_machine
from repro.experiments.runner import (
    BlockRecord,
    list_seed_record,
    run_population,
    schedule_generated_block,
)
from repro.resilience import (
    LADDER,
    STEP_CURTAILED,
    STEP_LIST_SEED,
    STEP_OPTIMAL,
    STEP_SPLIT,
    BudgetManager,
    FaultPlan,
    Journal,
    JournalError,
    PoolJob,
    SupervisorConfig,
    WorkerPool,
    load_journal,
    validate_records,
)
from repro.resilience import pool as pool_module
from repro.ir.dag import DependenceDAG
from repro.sched.search import SearchOptions
from repro.sched.splitting import schedule_block_split
from repro.synth.population import generate_from_params, sample_population_params
from repro.telemetry import Telemetry

SEED = 7
MACHINE = paper_simulation_machine()


def _block(index: int):
    params = list(sample_population_params(index + 1, master_seed=SEED))[index]
    return generate_from_params(params)


def _record(index: int, **kwargs) -> BlockRecord:
    return schedule_generated_block(
        index, _block(index), MACHINE, kwargs.pop("options", SearchOptions()),
        verify=True, **kwargs
    )


# ----------------------------------------------------------------------
# ioutil
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "first\n")
        assert path.read_text() == "first\n"
        atomic_write_text(str(path), "second\n")
        assert path.read_text() == "second\n"

    def test_no_temp_litter(self, tmp_path):
        atomic_write_text(str(tmp_path / "a.txt"), "x")
        atomic_write_json(str(tmp_path / "b.json"), {"k": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.json"]

    def test_json_payload_round_trips(self, tmp_path):
        path = tmp_path / "payload.json"
        atomic_write_json(str(path), {"nested": {"a": [1, 2]}, "b": None})
        assert json.loads(path.read_text()) == {"nested": {"a": [1, 2]}, "b": None}

    def test_failed_write_leaves_original(self, tmp_path):
        path = tmp_path / "keep.json"
        atomic_write_json(str(path), {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert json.loads(path.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
CONFIG = {"blocks": 4, "curtail": 100, "master_seed": SEED}


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.journal")
        records = [_record(0), _record(1)]
        with Journal.create(path, CONFIG) as journal:
            journal.append(records)
            assert journal.appended == 2
        header, loaded, _ = load_journal(path, expect_config=CONFIG)
        assert header["config"] == CONFIG
        assert loaded == {0: records[0], 1: records[1]}
        # elapsed_seconds round-trips too (it is excluded from equality).
        assert loaded[0].elapsed_seconds == records[0].elapsed_seconds

    def test_resume_returns_finished_records(self, tmp_path):
        path = str(tmp_path / "run.journal")
        records = [_record(0), _record(1)]
        with Journal.create(path, CONFIG) as journal:
            journal.append(records)
        journal, done = Journal.resume(path, CONFIG)
        with journal:
            assert done == {0: records[0], 1: records[1]}
            journal.append([_record(2)])
        _, final, _ = load_journal(path)
        assert sorted(final) == [0, 1, 2]

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.journal")
        journal, done = Journal.resume(path, CONFIG)
        journal.close()
        assert done == {}
        assert os.path.exists(path)

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with Journal.create(path, CONFIG) as journal:
            journal.append([_record(0)])
        with open(path, "a") as fh:
            fh.write('{"index": 1, "size"')  # crash mid-append
        _, loaded, valid = load_journal(path)
        assert sorted(loaded) == [0]
        journal, done = Journal.resume(path, CONFIG)
        journal.close()
        assert sorted(done) == [0]
        assert os.path.getsize(path) == valid  # tail physically gone

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with Journal.create(path, CONFIG) as journal:
            journal.append([_record(0)])
        blob = open(path).read()
        with open(path, "w") as fh:
            fh.write(blob.replace('"schema"', '"sch', 1))
        with pytest.raises(JournalError, match="corrupt|schema"):
            load_journal(path)

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.journal")
        Journal.create(path, CONFIG).close()
        other = dict(CONFIG, master_seed=1990)
        with pytest.raises(JournalError, match="different run"):
            Journal.resume(path, other)
        with pytest.raises(JournalError, match="master_seed"):
            load_journal(path, expect_config=other)

    def test_unknown_record_field_rejected(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with Journal.create(path, CONFIG) as journal:
            journal.append([_record(0)])
            payload = dataclasses.asdict(_record(1))
            payload["bogus"] = 1
            journal._fh.write(json.dumps(payload) + "\n")
            # An interior unknown-field line (not a torn tail) must raise.
            journal.append([_record(2)])
        with pytest.raises(JournalError, match="bogus"):
            load_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.journal"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            load_journal(str(path))


# ----------------------------------------------------------------------
# Budget manager
# ----------------------------------------------------------------------
class TestBudgetManager:
    def test_block_clamps(self):
        # The run deadline caps a block's time limit; it never touches
        # the block's own limits (curtail point, memo cap).
        budget = BudgetManager(run_wall_clock=2.0).start()
        options = budget.admit(SearchOptions(curtail=500, max_memo_entries=100))
        assert 0 < options.time_limit <= 2.0
        assert options.curtail == 500
        assert options.max_memo_entries == 100
        looser = budget.admit(SearchOptions(time_limit=60.0))
        assert 0 < looser.time_limit <= 2.0

    def test_no_budget_returns_same_options(self):
        options = SearchOptions(time_limit=5.0)
        assert BudgetManager().admit(options) is options
        assert BudgetManager(run_omega_cap=10).start().admit(options) is options

    def test_caller_tighter_limits_win(self):
        budget = BudgetManager(run_wall_clock=10.0).start()
        options = SearchOptions(curtail=100, time_limit=0.5)
        assert budget.admit(options) is options

    def test_run_omega_cap_exhaustion(self):
        budget = BudgetManager(run_omega_cap=100).start()
        assert budget.run_exhausted() is None
        budget.charge(40)
        assert budget.run_exhausted() is None
        budget.charge(60)
        assert budget.run_exhausted() == "omega"

    def test_run_wall_clock_exhaustion(self):
        budget = BudgetManager(run_wall_clock=1e-9).start()
        assert budget.run_exhausted() == "wall-clock"
        # Past the run deadline the gate turns every block away.
        telemetry = Telemetry()
        assert budget.admit(SearchOptions(time_limit=5.0), telemetry) is None
        assert telemetry.counters["resilience.run_budget_exhausted"] == 1

    def test_unarmed_budget_never_exhausts(self):
        budget = BudgetManager(run_wall_clock=1e-9)  # start() never called
        assert budget.remaining_run_seconds() is None
        assert budget.run_exhausted() is None

    def test_pickle_resets_omega_but_keeps_deadline(self):
        budget = BudgetManager(run_wall_clock=3600.0, run_omega_cap=100).start()
        budget.charge(99)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.omega_spent == 0  # accounting stays with the parent
        assert clone._deadline == budget._deadline  # deadline crosses
        assert budget.omega_spent == 99

    def test_validation(self):
        for bad in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive, finite"):
                BudgetManager(run_wall_clock=bad)
            with pytest.raises(ValueError, match="positive, finite"):
                SearchOptions(time_limit=bad)
        with pytest.raises(ValueError):
            BudgetManager(run_omega_cap=0)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "prog, flag",
    [
        ("repro-experiments", "--block-timeout"),
        ("repro-experiments", "--run-timeout"),
        ("repro-serve", "--block-timeout"),
        ("repro-serve", "--run-timeout"),
        ("repro-serve", "--hang-timeout"),
    ],
)
def test_bad_time_budget_is_a_clean_cli_error(capsys, prog, flag, value):
    """A time budget that is not a positive, finite number of seconds is
    a usage error in both CLIs: exit 2 and one error line naming the
    problem, before any block is scheduled or any socket bound."""
    if prog == "repro-serve":
        from repro.service.cli import main

        argv = ["--workers", "2", flag, value]
    else:
        from repro.experiments.cli import main

        argv = ["table7", "--blocks", "4", "--workers", "2", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"{prog}: error: ")
    assert "must be a positive, finite number of seconds" in errors[0]
    assert captured.out == ""


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=3, crash_rate=0.3, hang_rate=0.2, corrupt_rate=0.1)
        first = [plan.decide(cid, a) for cid in range(50) for a in range(2)]
        again = [plan.decide(cid, a) for cid in range(50) for a in range(2)]
        assert first == again
        assert any(f == "crash" for f in first)
        assert any(f == "hang" for f in first)
        assert any(f == "corrupt" for f in first)
        assert any(f is None for f in first)

    def test_fault_allowance_bounds_attempts(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faults_per_chunk=2)
        assert plan.decide(5, 0) == "crash"
        assert plan.decide(5, 1) == "crash"
        assert plan.decide(5, 2) is None  # retries converge to fault-free

    def test_parse(self):
        plan = FaultPlan.parse("crash=0.1,hang=0.05,seed=9,max-faults=3")
        assert plan == FaultPlan(
            seed=9, crash_rate=0.1, hang_rate=0.05, max_faults_per_chunk=3
        )

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="bad --chaos entry"):
            FaultPlan.parse("explode=1")
        with pytest.raises(ValueError, match="bad --chaos value"):
            FaultPlan.parse("crash=lots")
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultPlan.parse("crash=0.9,hang=0.9")
        with pytest.raises(ValueError, match="within"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="bad --chaos entry"):
            FaultPlan.parse("hang-seconds=5")  # hangs last until killed


# ----------------------------------------------------------------------
# Supervision policy: the worker pool
# ----------------------------------------------------------------------
_FAST_SUP = SupervisorConfig(
    poll_interval=0.01, max_retries=2, backoff_base=0.01, backoff_cap=0.05
)


def _echo(ctx, value):
    return value


def _faulty_echo(ctx, value):
    ctx.inject()
    return value


def _steps(ctx, steps, delay, beat):
    for _ in range(steps):
        time.sleep(delay)
        if beat:
            ctx.beat()
    return steps


def _until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestSupervisorPolicy:
    def test_backoff_is_capped_exponential(self):
        config = SupervisorConfig(backoff_base=0.25, backoff_cap=1.0)
        assert [config.backoff_delay(a) for a in range(1, 5)] == [
            0.25, 0.5, 1.0, 1.0,
        ]

    def test_config_validation(self):
        for bad in (0, -1, float("nan"), float("inf")):
            for field in ("hang_timeout", "poll_interval"):
                with pytest.raises(ValueError, match="positive, finite"):
                    SupervisorConfig(**{field: bad})
        for bad in (-1, float("nan"), float("inf")):
            for field in ("backoff_base", "backoff_cap"):
                with pytest.raises(ValueError, match="non-negative, finite"):
                    SupervisorConfig(**{field: bad})
        with pytest.raises(ValueError):
            SupervisorConfig(max_retries=-1)
        # Zero backoff is legal: retry at once.
        assert SupervisorConfig(backoff_base=0.0).backoff_delay(3) == 0.0

    def test_retry_then_poison(self):
        # Every attempt of one job crashes its worker: it is retried
        # max_retries times, then resolves degraded; its neighbour is
        # untouched.
        telemetry = Telemetry()
        pool = WorkerPool(
            2,
            config=_FAST_SUP,
            fault_plan=FaultPlan(crash_rate=1.0, max_faults_per_chunk=10**6),
            telemetry=telemetry,
        ).start()
        doomed = PoolJob("doomed", _faulty_echo, (1,))
        fine = PoolJob("fine", _echo, (2,))
        try:
            pool.submit([doomed, fine])
            pool.wait(doomed)
            pool.wait(fine)
        finally:
            pool.stop(drain_timeout=5.0)
        assert doomed.result is None
        # A crash shows as a dead process or a broken pipe, whichever
        # the dispatcher sees first.
        assert doomed.failure == "connection lost" or doomed.failure.startswith(
            "worker died"
        )
        assert doomed.attempts == _FAST_SUP.max_retries + 1
        assert (fine.result, fine.attempts) == (2, 0)
        assert telemetry.counters["pool.crashes"] == _FAST_SUP.max_retries + 1
        assert telemetry.counters["pool.retries"] == _FAST_SUP.max_retries
        assert telemetry.counters["pool.degraded"] == 1

    def test_backoff_gates_requeue(self):
        config = SupervisorConfig(poll_interval=0.01, backoff_base=30.0)
        assert config.backoff_delay(1) == pytest.approx(8.0)  # capped
        pool = WorkerPool(
            1,
            config=config,
            fault_plan=FaultPlan(crash_rate=1.0, max_faults_per_chunk=1),
        ).start()
        job = PoolJob("j", _faulty_echo, (1,))
        try:
            pool.submit([job])
            _until(lambda: job.attempts == 1)
            time.sleep(0.3)
            # Backing off: requeued, but neither redispatched nor resolved.
            assert not job.done
            assert pool.queued_jobs() == 1
            assert pool.cancel([job]) == [job]
        finally:
            pool.stop(drain_timeout=0.0)
        assert job.done and job.failure == "cancelled"

    def test_drain_pending(self):
        # cancel() withdraws the jobs no worker has started and leaves
        # the running one to finish.
        pool = WorkerPool(1, config=_FAST_SUP).start()
        jobs = [PoolJob("slow", _steps, (5, 0.1, True))] + [
            PoolJob(f"queued {i}", _echo, (i,)) for i in range(2)
        ]
        try:
            pool.submit(jobs)
            _until(lambda: pool.queued_jobs() == 2)
            assert pool.cancel(jobs) == jobs[1:]
            pool.wait(jobs[0])
        finally:
            pool.stop(drain_timeout=5.0)
        assert all(j.done and j.failure == "cancelled" for j in jobs[1:])
        assert jobs[0].result == 5

    def test_beats_keep_a_long_job_alive(self):
        # Both jobs run 1.2 s against a 0.5 s hang timeout; only the one
        # that never beats is presumed hung.
        telemetry = Telemetry()
        config = SupervisorConfig(hang_timeout=0.5, poll_interval=0.01, max_retries=0)
        pool = WorkerPool(1, config=config, telemetry=telemetry).start()
        beating = PoolJob("beating", _steps, (6, 0.2, True))
        silent = PoolJob("silent", _steps, (6, 0.2, False))
        try:
            pool.submit([beating])
            pool.wait(beating)
            pool.submit([silent])
            pool.wait(silent)
        finally:
            pool.stop(drain_timeout=0.0)
        assert (beating.result, beating.attempts) == (6, 0)
        assert silent.result is None
        assert silent.failure.startswith("no progress")
        assert telemetry.counters["pool.hangs"] == 1

    def test_wait_cap_counts_only_time_without_progress(self, monkeypatch):
        # Shrink the safety cap to 1 s (hang deadline 0.5 s, one attempt,
        # one queue slot).  Neither an idle spell before the submit nor a
        # 1.2 s job that beats throughout may trip it.
        monkeypatch.setattr(pool_module, "_ATTEMPT_OVERHEAD", 0.0)
        config = SupervisorConfig(
            hang_timeout=0.5, poll_interval=0.01, max_retries=0, backoff_cap=0.0
        )
        telemetry = Telemetry()
        pool = WorkerPool(1, config=config, telemetry=telemetry, queue_limit=1)
        pool.start()
        job = PoolJob("long", _steps, (12, 0.1, True))
        try:
            time.sleep(1.2)
            pool.submit([job])
            pool.wait(job)
        finally:
            pool.stop(drain_timeout=0.0)
        assert job.result == 12, job.failure
        assert "pool.lost" not in telemetry.counters

    def test_failed_respawn_does_not_kill_the_dispatcher(self, monkeypatch):
        # The first worker forks; every later fork fails with EAGAIN.
        # The job whose worker crashes must still resolve (degraded).
        class ForkOnce(multiprocessing.Process):
            forks = 0

            def start(self):
                ForkOnce.forks += 1
                if ForkOnce.forks > 1:
                    raise BlockingIOError(errno.EAGAIN, "fork refused")
                super().start()

        monkeypatch.setattr(pool_module, "Process", ForkOnce)
        telemetry = Telemetry()
        pool = WorkerPool(
            1,
            config=_FAST_SUP,
            fault_plan=FaultPlan(crash_rate=1.0, max_faults_per_chunk=1),
            telemetry=telemetry,
        ).start()
        job = PoolJob("j", _faulty_echo, (1,))
        try:
            pool.submit([job])
            waiter = threading.Thread(target=pool.wait, args=(job,), daemon=True)
            waiter.start()
            waiter.join(timeout=20.0)
            assert not waiter.is_alive(), "the job was never resolved"
            assert pool._thread.is_alive(), "the dispatcher thread died"
        finally:
            pool.stop(drain_timeout=0.0)
        assert job.result is None and job.failure == "no live worker"
        assert telemetry.counters["pool.crashes"] == 1
        assert telemetry.counters["pool.spawn_failures"] >= 1
        assert telemetry.counters["pool.degraded"] == 1

    def test_validate_records(self):
        good = [_record(0), _record(1)]
        assert validate_records(good, [0, 1]) is None
        assert "not a record list" in validate_records("junk", [0])
        assert "assigned blocks" in validate_records(good, [0, 2])
        bad_nops = [dataclasses.replace(good[0], final_nops=good[0].seed_nops + 1)]
        assert "worse" in validate_records(bad_nops, [0])
        negative = [dataclasses.replace(good[0], omega_calls=-1)]
        assert "negative" in validate_records(negative, [0])
        conflicted = [dataclasses.replace(good[0], completed=True, degraded=True)]
        assert "exclusive" in validate_records(conflicted, [0])
        unladdered = [dataclasses.replace(good[0], ladder="rocket")]
        assert "ladder" in validate_records(unladdered, [0])


# ----------------------------------------------------------------------
# Degradation-ladder rung regressions (both engines, all certified).
# "fast" is the retired alias of native: it runs the native engine and
# keeps the alias covered on every rung.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "reference"])
class TestLadderRungs:
    """One pinned regression per rung.

    Block indexes are population members of master seed 7 chosen so each
    rung engages deterministically: the wall-clock rungs use a 1ns block
    deadline, which is always blown by the first in-search check on any
    host, so the outcome does not depend on machine speed.  Every record
    passes ``verify=True`` — the published schedule is certified by the
    independent checker regardless of which rung produced it.
    """

    def test_optimal_search(self, engine):
        record = _record(5, options=SearchOptions(engine=engine))
        assert record.ladder == STEP_OPTIMAL
        assert record.completed and not record.degraded
        assert record.final_nops == 0 and record.seed_nops == 1
        assert record.omega_calls == 30

    def test_curtailed_search(self, engine):
        record = _record(11, options=SearchOptions(curtail=120, engine=engine))
        assert record.ladder == STEP_CURTAILED
        assert not record.completed and not record.degraded
        assert record.omega_calls == 120  # stopped exactly at lambda
        assert record.final_nops == 2 and record.seed_nops == 8
        assert record.final_nops <= record.seed_nops

    def test_split_windows(self, engine):
        record = _record(
            1, options=SearchOptions(engine=engine, time_limit=1e-9)
        )
        assert record.ladder == STEP_SPLIT
        assert record.degraded and not record.completed
        assert record.seed_nops == 5 and record.final_nops == 3
        assert record.omega_calls > 0  # split windows were searched

    def test_list_seed(self, engine):
        # Block 15 (22 tuples, seed 6 NOPs, optimum 0) times out with
        # the root bounds and heuristic seeds off, and its two windows
        # cannot beat the seed: the seed stands.
        options = SearchOptions(
            engine=engine,
            time_limit=1e-9,
            lower_bound_prune=False,
            heuristic_seeds=False,
            dominance_prune=False,
        )
        split = schedule_block_split(
            DependenceDAG(_block(15).block),
            MACHINE,
            window=20,
            curtail_per_window=2000,
            engine=engine,
        )
        record = _record(15, options=options)
        assert record.ladder == STEP_LIST_SEED
        assert record.degraded and not record.completed
        assert record.final_nops == record.seed_nops == 6
        assert split.total_nops >= record.seed_nops
        assert record.omega_calls >= split.omega_calls > 0  # windows searched

    def test_engines_agree_per_rung(self, engine):
        # The rung records above are engine-independent bit for bit
        # (elapsed_seconds excluded); spot-check the reference against
        # "fast", the retired alias of native that old journals name.
        if engine == "fast":
            pytest.skip("comparison target")
        for build in (
            lambda e: _record(5, options=SearchOptions(engine=e)),
            lambda e: _record(11, options=SearchOptions(curtail=120, engine=e)),
            lambda e: _record(1, options=SearchOptions(engine=e, time_limit=1e-9)),
        ):
            assert build("reference") == build("fast")


def _parity_entry(budget, pooled):
    from repro.ir.textual import format_block
    from repro.service import SchedulingService, WorkerPool
    from repro.service.server import SCHEMA

    pool = WorkerPool(1).start() if pooled else None
    try:
        service = SchedulingService(
            options=SearchOptions(time_limit=1e-9), budget=budget, pool=pool
        )
        reply = service.schedule_batch(
            {
                "schema": SCHEMA,
                "machine": "paper-simulation",
                "blocks": [{"tuples": format_block(_block(1).block)}],
            }
        )
    finally:
        if pool is not None:
            pool.stop(drain_timeout=5.0)
    entry = reply["entries"][0]
    return entry["ladder"], entry["total_nops"]


def _parity_record(workers):
    from repro.experiments.parallel import run_population_parallel

    options = SearchOptions(time_limit=1e-9)
    if workers is None:
        record = schedule_generated_block(1, _block(1), MACHINE, options)
    else:
        record = run_population_parallel(
            2, master_seed=SEED, options=options, workers=workers
        )[1]
    return record.ladder, record.final_nops


#: Every way to schedule one block under a per-block deadline.  The rung
#: must not depend on which entry point (or process) ran the search, nor
#: on whether a daemon run budget is also in force.
PARITY_ENTRY_POINTS = {
    "schedule_generated_block": lambda: _parity_record(workers=None),
    "run_population_parallel": lambda: _parity_record(workers=2),
    "inline-service": lambda: _parity_entry(None, pooled=False),
    "inline-service-run-budget": lambda: _parity_entry(
        BudgetManager(run_wall_clock=3600.0), pooled=False
    ),
    "pooled-service": lambda: _parity_entry(None, pooled=True),
    "pooled-service-run-budget": lambda: _parity_entry(
        BudgetManager(run_wall_clock=3600.0), pooled=True
    ),
}


@pytest.mark.parametrize("entry_point", sorted(PARITY_ENTRY_POINTS))
def test_rung_parity_across_entry_points(entry_point):
    """Block 1 under a 1ns deadline: its windows beat its seed (5 -> 3)
    whichever entry point schedules it."""
    assert PARITY_ENTRY_POINTS[entry_point]() == (STEP_SPLIT, 3)


class TestLadderIntegration:
    def test_every_rung_value_is_in_ladder(self):
        assert set(LADDER) == {
            STEP_OPTIMAL, STEP_CURTAILED, STEP_SPLIT, STEP_LIST_SEED,
        }

    def test_list_seed_record_matches_exhausted_budget(self):
        gb = _block(1)
        direct = list_seed_record(1, gb, MACHINE)
        budget = BudgetManager(run_omega_cap=1).start()
        budget.charge(1)
        via_budget = schedule_generated_block(
            1, gb, MACHINE, SearchOptions(), budget=budget
        )
        assert direct == via_budget
        assert via_budget.omega_calls == 0  # honestly: no search ran

    def test_run_budget_exhaustion_mid_population(self):
        telemetry = Telemetry()
        budget = BudgetManager(run_omega_cap=1).start()
        records = run_population(
            6, master_seed=SEED, telemetry=telemetry, budget=budget
        )
        assert len(records) == 6
        # First block runs (cap not yet hit), the rest drop to seeds.
        assert records[0].ladder == STEP_OPTIMAL
        assert all(r.ladder == STEP_LIST_SEED for r in records[1:])
        assert telemetry.counters["resilience.run_budget_exhausted"] == 5
        assert telemetry.counters[f"resilience.ladder.{STEP_LIST_SEED}"] == 5

    def test_ladder_counts_cover_population(self):
        telemetry = Telemetry()
        records = run_population(10, master_seed=SEED, telemetry=telemetry)
        laddered = sum(
            n for name, n in telemetry.counters.items()
            if name.startswith("resilience.ladder.")
        )
        assert laddered == len(records) == 10
        assert all(r.ladder in LADDER for r in records)

    def test_journal_skip_counts(self):
        telemetry = Telemetry()
        full = run_population(6, master_seed=SEED)
        done = {r.index: r for r in full[:4]}
        fresh = []
        resumed = run_population(
            6,
            master_seed=SEED,
            telemetry=telemetry,
            done=done,
            on_record=fresh.append,
        )
        assert resumed == full
        assert [r.index for r in fresh] == [4, 5]
        assert telemetry.counters["resilience.journal_blocks_skipped"] == 4
        assert telemetry.counters["blocks.scheduled"] == 2
