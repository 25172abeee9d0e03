"""The supervised worker pool: one process fleet for every parallel path.

Population runs (:func:`repro.experiments.parallel.run_population_parallel`)
and the scheduling daemon (:mod:`repro.service.server`) both run their
work on a :class:`WorkerPool`: a fixed fleet of pre-forked worker
processes behind a bounded job queue, driven by one dispatcher thread
that owns every pipe and all supervision.  A job (:class:`PoolJob`) is
a module-level *task* plus its arguments and a parent-side validator;
the population task schedules one chunk of blocks, the service task
one request block.

The supervision policy is :class:`repro.resilience.supervisor.SupervisorConfig`
(retries, capped exponential backoff, ``hang_timeout``):

* A worker that **dies** mid-job (segfault in the native kernel, OOM
  kill) is detected by its dead process object or broken pipe; the job
  is requeued and a replacement worker is spawned.
* A worker that **hangs** (livelock in a native solve that ignores the
  Python-level deadline) is detected when its job makes no progress for
  ``hang_timeout`` plus the job's own ``time_limit``, killed, and
  replaced.  A task reports progress with :meth:`JobContext.beat` (the
  population task beats after every block), and each beat restarts the
  deadline, so a long job that keeps beating is never killed.
* A result that fails the job's validator (the chaos plan's ``corrupt``
  fault) is treated like a crash: the worker is recycled and the job
  retried.  A task exception is retried on the same, healthy worker.
* A job that burns through ``max_retries`` resolves with ``failure``
  set and no result; the caller degrades it (the daemon publishes the
  block's list seed, a population run its chunk's list seeds).
* A replacement worker that cannot be forked (``EAGAIN``) is retried on
  a later tick and counted in ``pool.spawn_failures``; while no worker
  is alive, queued jobs fail their attempts through the same backoff
  path and resolve degraded, so a caller is never left waiting.

Fault injection (:class:`repro.resilience.faults.FaultPlan`) is decided
per ``(job sequence number, attempt)``; the task decides where a crash
or hang fires (:meth:`JobContext.inject`) and how a ``corrupt`` result
is damaged.  Sequence numbers count submissions from 0, so a population
run's chunk ``i`` is job ``i`` and a seeded chaos run replays exactly.

Failure counters go to the pool's telemetry under ``pool.*``; worker
telemetry of every resolved job is merged there under
:attr:`WorkerPool.telemetry_lock`.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from multiprocessing import Pipe, Process
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..telemetry import Telemetry
from .faults import FaultPlan
from .supervisor import SupervisorConfig

__all__ = ["JobContext", "PoolJob", "PoolSaturated", "WorkerPool"]

#: Safety margin added to the caller-facing resolution guarantee (see
#: :meth:`WorkerPool.wait_any`): respawn + dispatch overhead per attempt.
_ATTEMPT_OVERHEAD = 10.0


class PoolSaturated(RuntimeError):
    """Admission control refused a job (bounded queue is full)."""

    def __init__(self, queued: int, retry_after: float):
        super().__init__(f"worker pool queue is full ({queued} jobs waiting)")
        self.retry_after = retry_after


class JobContext:
    """What a task sees of the worker running it.

    ``telemetry`` is the job's own registry, shipped back with its
    result; ``cache`` is the pool's shared result cache (or ``None``);
    ``fault`` is the chaos plan's verdict for this attempt.
    """

    __slots__ = ("telemetry", "cache", "fault", "_conn", "_seq", "_plan")

    def __init__(self, conn, seq: int, attempt: int, cache, plan: Optional[FaultPlan]):
        self.telemetry = Telemetry()
        self.cache = cache
        self.fault = plan.decide(seq, attempt) if plan is not None else None
        self._conn = conn
        self._seq = seq
        self._plan = plan

    def beat(self) -> None:
        """Report progress: restarts this job's no-progress deadline."""
        self._conn.send(("beat", self._seq))

    def inject(self) -> None:
        """Fire this attempt's crash or hang fault here, if it has one."""
        if self.fault in ("crash", "hang"):
            self._plan.inject(self.fault)


class PoolJob:
    """One unit of work: ``task(context, *args)`` run on a pool worker.

    ``task`` must be a module-level function (it is pickled by name) and
    ``args`` picklable.  ``validate(result)`` runs in the parent and
    returns why a result is unacceptable, or ``None``.  ``time_limit``
    (seconds, optional) is the job's own wall-clock limit between
    progress beats; the hang deadline is ``hang_timeout`` on top of it.

    Once ``done``, exactly one of ``result`` and ``failure`` is set.
    """

    __slots__ = (
        "seq",
        "name",
        "task",
        "args",
        "validate",
        "time_limit",
        "attempts",
        "eligible_at",
        "done",
        "result",
        "failure",
    )

    def __init__(
        self,
        name: str,
        task: Callable[..., Any],
        args: Sequence[Any] = (),
        validate: Optional[Callable[[Any], Optional[str]]] = None,
        time_limit: Optional[float] = None,
    ):
        self.seq = -1  # assigned by submit()
        self.name = name
        self.task = task
        self.args = tuple(args)
        self.validate = validate
        self.time_limit = time_limit
        self.attempts = 0
        self.eligible_at = 0.0
        self.done = False
        self.result: Any = None
        self.failure: Optional[str] = None


def _worker_main(conn, cache, fault_plan: Optional[FaultPlan]) -> None:
    """Worker process entry point: a job loop over one duplex pipe.

    Message protocol (all tuples, pickled over the pipe):

    * parent → worker ``("job", seq, attempt, task, args)`` — run one
      job; ``("stop",)`` — exit the loop.
    * worker → parent ``("beat", seq)`` — progress (from
      :meth:`JobContext.beat`); ``("done", seq, attempt, result,
      telemetry_dict)`` on success — the only message that carries a
      result, so partial work of a faulted attempt is never merged;
      ``("err", seq, attempt, message)`` for a task exception (the parent
      retries the job but keeps the worker — the process is healthy).
    """
    # A worker forked after the daemon installed its SIGTERM drain
    # handler would inherit it and shrug off terminate() — reset to the
    # default so the supervisor can always kill us.  SIGINT is the
    # parent's to handle (a ^C must drain, not kill workers mid-write).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, seq, attempt, task, args = msg
        ctx = JobContext(conn, seq, attempt, cache, fault_plan)
        try:
            result = task(ctx, *args)
            conn.send(("done", seq, attempt, result, ctx.telemetry.as_dict()))
        except Exception as exc:  # noqa: BLE001 - the parent retries
            try:
                conn.send(("err", seq, attempt, f"{type(exc).__name__}: {exc}"))
            except OSError:
                break


class _Worker:
    """Parent-side handle of one pool process."""

    __slots__ = ("process", "conn", "job", "progress_at")

    def __init__(self, process: Process, conn):
        self.process = process
        self.conn = conn
        self.job: Optional[PoolJob] = None
        self.progress_at = 0.0


class WorkerPool:
    """A fixed fleet of supervised workers behind a bounded job queue.

    Callers :meth:`submit` :class:`PoolJob` batches and block on
    :meth:`wait` (one job) or :meth:`wait_any` (the first of several); a
    dispatcher thread owns every pipe and all supervision.
    ``queue_limit`` bounds the *queued* (not yet running) jobs —
    admission control: a submit that would overflow raises
    :class:`PoolSaturated` so the daemon can shed load with a structured
    429 instead of accepting unbounded work.
    """

    def __init__(
        self,
        size: int,
        cache=None,
        config: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: Optional[Telemetry] = None,
        telemetry_lock: Optional[threading.Lock] = None,
        queue_limit: int = 256,
        on_event=None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.size = size
        self.cache = cache
        self.config = config if config is not None else SupervisorConfig()
        self.fault_plan = fault_plan
        self.telemetry = telemetry
        #: Guards :attr:`telemetry`: the dispatcher merges worker
        #: telemetry and counts failures under it, so a caller counting
        #: into the same registry while the pool runs must hold it too.
        self.telemetry_lock = (
            telemetry_lock if telemetry_lock is not None else threading.Lock()
        )
        self.queue_limit = queue_limit
        #: One-line observability callback (the serve CLI points it at stderr).
        self.on_event = on_event
        self._lock = threading.Lock()
        # Signalled on every job resolution; wait_any sleeps on it.
        self._resolved = threading.Condition(self._lock)
        self._queue: deque[PoolJob] = deque()
        self._workers: Dict[int, _Worker] = {}
        self._reaping: List[Process] = []
        self._next_wid = 0
        self._next_seq = 0
        self._spawn_failures = 0
        self._respawn_at = 0.0
        self._progressed_at = time.monotonic()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        # Self-pipe: submit() and stop() write one byte to wake the
        # dispatcher, which otherwise sleeps on worker pipes for up to
        # ``poll_interval``.  At most one wake byte is ever in flight.
        self._wake_r, self._wake_w = Pipe(duplex=False)
        self._wake_pending = False

    def attach_telemetry(self, telemetry: Telemetry, lock: threading.Lock) -> None:
        """Point the pool at a registry and the lock that guards it.

        The daemon shares its own lock, so the dispatcher's merges are
        atomic with the front-end's counting.
        """
        self.telemetry = telemetry
        self.telemetry_lock = lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the worker fleet and the dispatcher thread.

        Raises ``OSError``/``RuntimeError`` when worker processes cannot
        be stood up (restricted sandbox) — the caller falls back to
        in-process scheduling.  The pool is then closed: workers already
        spawned are stopped.
        """
        with self._lock:
            try:
                for _ in range(self.size):
                    self._spawn_locked()
            except BaseException:
                for worker in self._workers.values():
                    worker.conn.close()
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
                self._workers.clear()
                self._wake_r.close()
                self._wake_w.close()
                raise
            self._thread = threading.Thread(
                target=self._loop, name="pool-dispatcher", daemon=True
            )
            self._thread.start()
        return self

    def _spawn_locked(self) -> None:
        parent_conn, child_conn = Pipe(duplex=True)
        try:
            proc = Process(
                target=_worker_main,
                args=(child_conn, self.cache, self.fault_plan),
                daemon=True,
            )
            proc.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self._workers[self._next_wid] = _Worker(proc, parent_conn)
        self._next_wid += 1

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.process.is_alive())

    def queued_jobs(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- submission ----------------------------------------------------
    def submit(self, jobs: List[PoolJob]) -> None:
        """Enqueue jobs atomically, or shed the whole batch."""
        with self._lock:
            if self._stopping:
                raise PoolSaturated(len(self._queue), retry_after=1.0)
            if len(self._queue) + len(jobs) > self.queue_limit:
                # Retry-After estimate: queue depth over fleet size,
                # assuming ~1s per queued job; at least one second so
                # well-behaved clients actually back off.
                retry_after = max(1.0, len(self._queue) / max(1, self.size))
                raise PoolSaturated(len(self._queue), retry_after)
            for job in jobs:
                job.seq = self._next_seq
                self._next_seq += 1
                self._queue.append(job)
            # A fresh job starts wait_any's clock, however long the pool idled.
            self._progressed_at = time.monotonic()
            self._wake_locked()

    def cancel(self, jobs: Iterable[PoolJob]) -> List[PoolJob]:
        """Withdraw those of ``jobs`` no worker is running; returns them.

        A withdrawn job resolves with ``failure="cancelled"``.  Jobs on a
        worker are left to finish.
        """
        with self._lock:
            wanted = set(jobs)
            taken = [job for job in self._queue if job in wanted]
            if taken:
                self._queue = deque(j for j in self._queue if j not in wanted)
                for job in taken:
                    self._finish_locked(job, failure="cancelled")
            return taken

    def wait(self, job: PoolJob) -> None:
        """Block until ``job`` resolves (result or degraded failure)."""
        self.wait_any([job])

    def wait_any(self, jobs: Iterable[PoolJob]) -> PoolJob:
        """Block until one of ``jobs`` resolves, and return it.

        Supervision guarantees resolution: every attempt either replies,
        dies (detected), hangs (killed at its deadline), or is drained at
        shutdown.  The cap below is a belt-and-braces bound derived from
        the retry policy — hitting it means a supervisor bug, and the
        jobs are failed rather than left hanging.  It counts only time in
        which no job of the pool made progress, so a job that keeps
        beating, or waits behind jobs that do, never trips it.
        """
        jobs = list(jobs)
        cap = max(self._wait_cap(job) for job in jobs)
        with self._resolved:
            while True:
                for job in jobs:
                    if job.done:
                        return job
                idle = time.monotonic() - self._progressed_at
                if idle >= cap:
                    for job in jobs:
                        self._finish_locked(job, failure="supervisor lost the job")
                    self._count("pool.lost", len(jobs))
                    return jobs[0]
                self._resolved.wait(timeout=cap - idle)

    def _wait_cap(self, job: PoolJob) -> float:
        hang_after = self._hang_after(job)
        attempts = self.config.max_retries + 1
        return (
            attempts * (hang_after + self.config.backoff_cap + _ATTEMPT_OVERHEAD)
            + self.queue_limit * hang_after
        )

    def _hang_after(self, job: PoolJob) -> float:
        return self.config.hang_timeout + (job.time_limit or 0.0)

    # -- supervision loop ----------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            with self.telemetry_lock:
                self.telemetry.count(name, n)

    def _event(self, line: str) -> None:
        if self.on_event is not None:
            try:
                self.on_event(line)
            except Exception:  # noqa: BLE001 - observability must not kill supervision
                pass

    def _wake_locked(self) -> None:
        if not self._wake_pending:
            self._wake_pending = True
            self._wake_w.send_bytes(b"\0")

    def _loop(self) -> None:
        poll = self.config.poll_interval
        while True:
            with self._lock:
                if self._stopping and not self._queue and not any(
                    w.job is not None for w in self._workers.values()
                ):
                    break
                conns = [w.conn for w in self._workers.values()]
            conns.append(self._wake_r)
            mp_connection.wait(conns, timeout=poll)
            now = time.monotonic()
            with self._lock:
                if self._wake_pending:
                    self._wake_r.recv_bytes()
                    self._wake_pending = False
                self._drain_replies_locked(now)
                self._check_workers_locked(now)
                self._respawn_locked(now)
                self._dispatch_locked(now)
                self._reap_locked()

    def _finish_locked(
        self, job: PoolJob, result: Any = None, failure: Optional[str] = None
    ) -> None:
        if job.done:
            return
        job.result = result
        job.failure = failure
        job.done = True
        self._progressed_at = time.monotonic()
        self._resolved.notify_all()

    def _fail_job_locked(
        self, job: PoolJob, kind: str, counter: Optional[str], now: float
    ) -> None:
        job.attempts += 1
        if counter is not None:
            self._count(counter)
        self._event(f"job {job.seq} ({job.name}) attempt {job.attempts}: {kind}")
        if job.attempts > self.config.max_retries:
            self._finish_locked(job, failure=kind)
            self._count("pool.degraded")
        else:
            job.eligible_at = now + self.config.backoff_delay(job.attempts)
            self._progressed_at = now
            self._queue.append(job)
            self._count("pool.retries")

    def _recycle_locked(self, wid: int, terminate: bool) -> None:
        # Never block the dispatcher waiting on a dying process: while it
        # joins, healthy workers' replies go undrained and their jobs age
        # past the hang deadline — one real hang would cascade into fake
        # ones.  Terminate, park the corpse, reap opportunistically; the
        # replacement is spawned by _respawn_locked.
        worker = self._workers.pop(wid)
        try:
            worker.conn.close()
        except OSError:
            pass
        if terminate and worker.process.is_alive():
            worker.process.terminate()
        self._reaping.append(worker.process)

    def _respawn_locked(self, now: float) -> None:
        """Top the fleet back up; a failed fork is retried on a later tick."""
        while (
            not self._stopping
            and len(self._workers) < self.size
            and now >= self._respawn_at
        ):
            try:
                self._spawn_locked()
            except (OSError, RuntimeError) as exc:
                self._spawn_failures += 1
                self._respawn_at = now + max(
                    self.config.poll_interval,
                    self.config.backoff_delay(self._spawn_failures),
                )
                self._count("pool.spawn_failures")
                self._event(f"cannot spawn a worker: {exc}")
                return
            self._spawn_failures = 0

    def _reap_locked(self) -> None:
        still_dying = []
        for proc in self._reaping:
            proc.join(timeout=0)
            if proc.is_alive():
                still_dying.append(proc)
        self._reaping = still_dying

    def _drain_replies_locked(self, now: float) -> None:
        for wid in list(self._workers):
            worker = self._workers[wid]
            try:
                while worker.conn.poll():
                    msg = worker.conn.recv()
                    job = worker.job
                    if job is None or msg[1] != job.seq:
                        # A message about a job this worker no longer
                        # owns (it was already failed over); drop it.
                        continue
                    if msg[0] == "beat":
                        worker.progress_at = self._progressed_at = now
                        continue
                    worker.job = None
                    if msg[0] == "done":
                        _, _, _, result, stats = msg
                        reason = job.validate(result) if job.validate else None
                        if reason is None:
                            if self.telemetry is not None:
                                with self.telemetry_lock:
                                    self.telemetry.merge(stats)
                            self._finish_locked(job, result=result)
                        else:
                            # A worker producing garbage is as suspect
                            # as a crashed one: recycle it.
                            self._fail_job_locked(
                                job,
                                f"corrupt reply: {reason}",
                                "pool.corrupt_replies",
                                now,
                            )
                            self._recycle_locked(wid, terminate=True)
                            break
                    elif msg[0] == "err":
                        self._fail_job_locked(
                            job, f"worker error: {msg[3]}", "pool.worker_errors", now
                        )
            except (EOFError, OSError):
                job = worker.job
                worker.job = None
                if job is not None:
                    self._fail_job_locked(job, "connection lost", "pool.crashes", now)
                self._recycle_locked(wid, terminate=True)

    def _check_workers_locked(self, now: float) -> None:
        for wid in list(self._workers):
            worker = self._workers[wid]
            job = worker.job
            if not worker.process.is_alive():
                worker.job = None
                if job is not None:
                    self._fail_job_locked(
                        job,
                        f"worker died (exit {worker.process.exitcode})",
                        "pool.crashes",
                        now,
                    )
                self._recycle_locked(wid, terminate=False)
            elif job is not None and now - worker.progress_at > self._hang_after(job):
                worker.job = None
                self._fail_job_locked(
                    job,
                    f"no progress within {self._hang_after(job):g}s",
                    "pool.hangs",
                    now,
                )
                self._recycle_locked(wid, terminate=True)

    def _next_ready_locked(self, now: float) -> Optional[PoolJob]:
        for _ in range(len(self._queue)):
            job = self._queue.popleft()
            if job.eligible_at <= now:
                return job
            self._queue.append(job)
        return None

    def _dispatch_locked(self, now: float) -> None:
        if not self._workers:
            # No worker could be (re)spawned: fail each ready job's
            # attempt, so it backs off and, past its retries, degrades.
            for _ in range(len(self._queue)):
                job = self._queue.popleft()
                if job.eligible_at <= now:
                    self._fail_job_locked(job, "no live worker", None, now)
                else:
                    self._queue.append(job)
            return
        for wid in list(self._workers):
            worker = self._workers[wid]
            if worker.job is not None or not worker.process.is_alive():
                continue
            job = self._next_ready_locked(now)
            if job is None:
                break
            try:
                worker.conn.send(("job", job.seq, job.attempts, job.task, job.args))
            except Exception as exc:  # noqa: BLE001 - unpicklable args, broken pipe
                self._fail_job_locked(
                    job, f"dispatch failed: {exc}", "pool.crashes", now
                )
                self._recycle_locked(wid, terminate=True)
                continue
            worker.job = job
            worker.progress_at = self._progressed_at = now

    # -- shutdown ------------------------------------------------------
    def stop(self, drain_timeout: float = 20.0) -> int:
        """Drain and stop the pool; returns the number of forced jobs.

        Lets queued and running jobs resolve for up to ``drain_timeout``
        seconds (supervision stays active, so crashed workers still fail
        over during the drain), then force-degrades whatever is left and
        terminates the fleet.  Idempotent.
        """
        with self._lock:
            if not self._stopping:
                self._stopping = True
                self._wake_locked()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while time.monotonic() < deadline:
            with self._lock:
                busy = len(self._queue) + sum(
                    1 for w in self._workers.values() if w.job is not None
                )
            if not busy:
                break
            time.sleep(min(0.05, self.config.poll_interval))
        forced = 0
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
            for worker in self._workers.values():
                if worker.job is not None:
                    leftovers.append(worker.job)
                    worker.job = None
            for job in leftovers:
                if not job.done:
                    self._finish_locked(job, failure="drain deadline")
                    forced += 1
            if forced:
                self._count("pool.degraded", forced)
            for worker in self._workers.values():
                try:
                    worker.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for worker in self._workers.values():
                try:
                    worker.conn.close()
                except OSError:
                    pass
                if worker.process.is_alive():
                    worker.process.join(timeout=0.5)
                if worker.process.is_alive():
                    worker.process.terminate()
            # Second pass so the terminate()s overlap instead of paying
            # a serial join timeout per straggler.
            for worker in self._workers.values():
                worker.process.join(timeout=5.0)
            stragglers = [
                w.process for w in self._workers.values() if w.process.is_alive()
            ]
            self._workers.clear()
            for proc in self._reaping:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    stragglers.append(proc)
            self._reaping.clear()
            # SIGKILL escalation: anything that shrugged off terminate()
            # must not survive to wedge multiprocessing's atexit join.
            for proc in stragglers:
                proc.kill()
            for proc in stragglers:
                proc.join(timeout=5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._thread is None or not self._thread.is_alive():
            self._wake_r.close()
            self._wake_w.close()
        return forced
