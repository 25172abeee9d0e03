"""Supervised pre-fork worker pool for the scheduling daemon.

PR 8 moved the ctypes-bound native C engine into the daemon process: one
bad pointer in a compiled kernel would kill every in-flight request and
the cache-owning process with it.  This module restores crash isolation
by executing schedule requests in worker *processes* — the front-end
process owns the listening socket and never searches; workers own the
searches and are the only processes that write through the
certificate-verified :class:`repro.service.cache.ScheduleCache` (the
pickle form re-opens the same disk store per worker, so the shared
store stays consistent no matter which worker dies when).

The supervision policy is the PR 4 one
(:class:`repro.resilience.supervisor.SupervisorConfig` — retries,
capped exponential backoff, poison after ``max_retries``), applied per
request block instead of per population chunk:

* A worker that **dies** mid-job (segfault in the native kernel, OOM
  kill) is detected by its dead process object / broken pipe; the job
  is requeued and a replacement worker is spawned.
* A worker that **hangs** (livelock in a native solve that ignores the
  Python-level deadline) is detected when its job exceeds
  ``hang_timeout`` plus the job's own wall-clock limit, killed, and
  replaced.
* A reply that fails the structural
  :func:`repro.resilience.supervisor.validate_entry` check (simulated
  by the chaos plan's ``corrupt`` fault) is treated exactly like a
  crash: the worker is recycled and the job retried.
* A job that burns through its retries is **degraded**, not errored:
  the front-end publishes the block's deterministic list-schedule seed
  with explicit ``degraded`` provenance and ``worker_retries`` on the
  wire — never a silent 500.

Fault injection reuses :class:`repro.resilience.faults.FaultPlan`
verbatim with ``(job sequence number, attempt)`` in place of
``(chunk_id, attempt)``: crash/hang faults trigger in the worker after
the job is parsed ("mid-request"), corrupt faults mangle the reply so
the parent's validation must catch them.  ``max_faults_per_chunk``
bounds faults per job, so a chaos run always converges to the same
payloads a fault-free run produces — the service-level byte-identity
invariant.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from multiprocessing import Pipe, Process
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple

from ..resilience.budget import BudgetManager
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import SupervisorConfig, validate_entry
from ..sched.search import SearchOptions
from ..telemetry import Telemetry

__all__ = ["WorkerPool", "PoolJob", "PoolSaturated", "POOL_HANG_TIMEOUT"]

#: Default per-job no-progress timeout: generous — a legitimate curtailed
#: search at the default λ finishes far faster — but finite, so a hung
#: native solve is killed instead of wedging a request forever.  A job
#: with its own wall-clock ``time_limit`` gets that limit *on top*.
POOL_HANG_TIMEOUT = 60.0

#: Safety margin added to the caller-facing resolution guarantee (see
#: :meth:`WorkerPool.wait`): respawn + dispatch overhead per attempt.
_ATTEMPT_OVERHEAD = 10.0


class PoolSaturated(RuntimeError):
    """Admission control refused a job (bounded queue is full)."""

    def __init__(self, queued: int, retry_after: float):
        super().__init__(f"worker pool queue is full ({queued} jobs waiting)")
        self.retry_after = retry_after


class PoolJob:
    """One block's trip through the pool, owned by the front-end."""

    __slots__ = (
        "seq",
        "name",
        "tuples",
        "machine_spec",
        "options",
        "budget",
        "idents",
        "attempts",
        "eligible_at",
        "hang_after",
        "done",
        "entry",
        "failure",
    )

    def __init__(
        self,
        name: str,
        tuples: str,
        machine_spec: Any,
        options: SearchOptions,
        budget: Optional[BudgetManager],
        idents: Tuple[int, ...],
        hang_timeout: float,
    ):
        self.seq = -1  # assigned by submit()
        self.name = name
        self.tuples = tuples
        self.machine_spec = machine_spec
        self.options = options
        self.budget = budget
        self.idents = idents
        self.attempts = 0
        self.eligible_at = 0.0
        self.hang_after = hang_timeout + (options.time_limit or 0.0)
        self.done = threading.Event()
        self.entry: Optional[Dict[str, Any]] = None
        self.failure: Optional[str] = None


def _pool_worker(conn, worker_id: int, cache, fault_plan) -> None:
    """Worker process entry point: a job loop over one duplex pipe.

    Message protocol (all tuples, pickled over the pipe):

    * parent → worker ``("job", seq, attempt, name, tuples, machine_spec,
      options, budget)`` — schedule one block;
      ``("stop",)`` — exit the loop.
    * worker → parent ``("done", seq, attempt, entry, telemetry_dict)``
      on success — the only message that carries a result;
      ``("err", seq, attempt, message)`` for a worker-side exception
      (the parent retries the job exactly like a crash, but keeps the
      worker — the process itself is healthy).
    """
    # A worker forked after the daemon installed its SIGTERM drain
    # handler would inherit it and shrug off terminate() — reset to the
    # default so the supervisor can always kill us.  SIGINT is the
    # parent's to handle (a ^C must drain, not kill workers mid-write).
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Imports happen in the worker so a failure to import (torn install)
    # surfaces as a clean "err" retry path, and to dodge a parent-side
    # import cycle (server imports pool at module load).
    from ..ir.dag import DependenceDAG
    from ..ir.textual import parse_block
    from ..machine.presets import get_machine
    from ..machine.serialize import machine_from_dict
    from .server import execute_block

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, seq, attempt, name, tuples, machine_spec, options, budget = msg
        fault = (
            fault_plan.decide(seq, attempt) if fault_plan is not None else None
        )
        telemetry = Telemetry()
        try:
            machine = (
                get_machine(machine_spec)
                if isinstance(machine_spec, str)
                else machine_from_dict(machine_spec)
            )
            dag = DependenceDAG(parse_block(tuples, name=name))
            if fault in ("crash", "hang"):
                # Mid-request: the job is parsed and owned by this
                # worker; recovery must requeue it, not lose it.
                fault_plan.inject(fault)
            entry = execute_block(
                name,
                dag,
                machine,
                options,
                telemetry,
                cache=cache,
                budget=budget,
            )
            if fault == "corrupt":
                entry = dict(entry, total_nops=entry["seed_nops"] + 7)
            conn.send(("done", seq, attempt, entry, telemetry.as_dict()))
        except Exception as exc:  # noqa: BLE001 - the parent retries
            try:
                conn.send(("err", seq, attempt, f"{type(exc).__name__}: {exc}"))
            except OSError:
                break


class _Worker:
    """Parent-side handle of one pool process."""

    __slots__ = ("process", "conn", "job", "dispatched_at")

    def __init__(self, process: Process, conn):
        self.process = process
        self.conn = conn
        self.job: Optional[PoolJob] = None
        self.dispatched_at = 0.0


class WorkerPool:
    """A fixed fleet of schedule workers behind a bounded job queue.

    The front-end submits :class:`PoolJob` batches (:meth:`submit`) and
    blocks on :meth:`wait`; a dispatcher thread owns every pipe and all
    supervision.  ``queue_limit`` bounds the *queued* (not yet running)
    jobs — admission control: a submit that would overflow raises
    :class:`PoolSaturated` so the HTTP layer can shed load with a
    structured 429 instead of accepting unbounded work.
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
        hang_timeout: float = POOL_HANG_TIMEOUT,
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
        self.hang_timeout = hang_timeout
        self.queue_limit = queue_limit
        #: One-line observability callback (the CLI points it at stderr).
        self.on_event = on_event
        self._tlock = telemetry_lock if telemetry_lock is not None else threading.Lock()
        self._lock = threading.Lock()
        self._queue: deque[PoolJob] = deque()
        self._workers: Dict[int, _Worker] = {}
        self._reaping: List[Process] = []
        self._next_wid = 0
        self._next_seq = 0
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        # Self-pipe: submit() and stop() write one byte to wake the
        # dispatcher, which otherwise sleeps on worker pipes for up to
        # ``poll_interval``.  At most one wake byte is ever in flight.
        self._wake_r, self._wake_w = Pipe(duplex=False)
        self._wake_pending = False

    def attach_telemetry(self, telemetry: Telemetry, lock: threading.Lock) -> None:
        """Point the pool at the service's registry and its guard lock.

        The dispatcher thread merges worker counter deltas; sharing the
        service's lock keeps those merges atomic with the front-end's
        own counting.
        """
        self.telemetry = telemetry
        self._tlock = lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the worker fleet and the dispatcher thread.

        Raises ``OSError``/``RuntimeError`` when worker processes cannot
        be stood up (restricted sandbox) — the caller falls back to
        in-process scheduling.
        """
        with self._lock:
            for _ in range(self.size):
                self._spawn_locked()
            self._thread = threading.Thread(
                target=self._loop, name="pool-dispatcher", daemon=True
            )
            self._thread.start()
        return self

    def _spawn_locked(self) -> None:
        parent_conn, child_conn = Pipe(duplex=True)
        wid = self._next_wid
        self._next_wid += 1
        proc = Process(
            target=_pool_worker,
            args=(child_conn, wid, self.cache, self.fault_plan),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[wid] = _Worker(proc, parent_conn)

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.process.is_alive())

    def queued_jobs(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- submission ----------------------------------------------------
    def submit(self, jobs: List[PoolJob]) -> None:
        """Enqueue a request's jobs atomically, or shed the whole batch."""
        with self._lock:
            if self._stopping:
                raise PoolSaturated(len(self._queue), retry_after=1.0)
            if len(self._queue) + len(jobs) > self.queue_limit:
                # Retry-After estimate: queue depth over fleet size,
                # assuming ~1s per queued job; at least one second so
                # well-behaved clients actually back off.
                retry_after = max(
                    1.0, len(self._queue) / max(1, self.size)
                )
                raise PoolSaturated(len(self._queue), retry_after)
            for job in jobs:
                job.seq = self._next_seq
                self._next_seq += 1
                self._queue.append(job)
            self._wake_locked()

    def wait(self, job: PoolJob) -> None:
        """Block until ``job`` resolves (entry or degraded failure).

        Supervision guarantees resolution: every attempt either replies,
        dies (detected), hangs (killed at its hang deadline), or is
        drained at shutdown.  The wait cap below is a belt-and-braces
        bound derived from the retry policy — hitting it means a
        supervisor bug, and the job is degraded rather than hung.
        """
        attempts = self.config.max_retries + 1
        cap = (
            attempts * (job.hang_after + self.config.backoff_cap + _ATTEMPT_OVERHEAD)
            + self.queue_limit * job.hang_after
        )
        if not job.done.wait(timeout=cap):
            with self._lock:
                if not job.done.is_set():
                    job.failure = "supervisor lost the job"
                    job.done.set()
            self._count("service.pool.lost")

    # -- supervision loop ----------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            with self._tlock:
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
                self._dispatch_locked(now)
                self._reap_locked()

    def _resolve_locked(self, job: PoolJob, entry: Dict[str, Any], stats) -> None:
        job.entry = entry
        job.done.set()
        if self.telemetry is not None:
            with self._tlock:
                self.telemetry.merge(stats)

    def _fail_job_locked(self, job: PoolJob, kind: str, counter: str, now: float) -> None:
        job.attempts += 1
        self._count(counter)
        self._event(
            f"job {job.seq} ({job.name}) attempt {job.attempts}: {kind}"
        )
        if job.attempts > self.config.max_retries:
            job.failure = kind
            job.done.set()
            self._count("service.pool.degraded")
        else:
            job.eligible_at = now + self.config.backoff_delay(job.attempts)
            self._queue.append(job)
            self._count("service.pool.retries")

    def _recycle_locked(self, wid: int, terminate: bool) -> None:
        # Never block the dispatcher waiting on a dying process: while it
        # joins, healthy workers' replies go undrained and their jobs age
        # past the hang deadline — one real hang would cascade into fake
        # ones.  Terminate, park the corpse, reap opportunistically.
        worker = self._workers.pop(wid)
        try:
            worker.conn.close()
        except OSError:
            pass
        if terminate and worker.process.is_alive():
            worker.process.terminate()
        self._reaping.append(worker.process)
        if not self._stopping:
            self._spawn_locked()

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
                        # A reply for a job this worker no longer owns
                        # (it was already failed over); drop it.
                        continue
                    worker.job = None
                    if msg[0] == "done":
                        _, _, _, entry, stats = msg
                        reason = validate_entry(entry, job.name, job.idents)
                        if reason is None:
                            self._resolve_locked(job, entry, stats)
                        else:
                            # A worker producing garbage is as suspect
                            # as a crashed one: recycle it.
                            self._fail_job_locked(
                                job,
                                f"corrupt reply: {reason}",
                                "service.pool.corrupt_replies",
                                now,
                            )
                            self._recycle_locked(wid, terminate=True)
                            break
                    elif msg[0] == "err":
                        self._fail_job_locked(
                            job,
                            f"worker error: {msg[3]}",
                            "service.pool.worker_errors",
                            now,
                        )
            except (EOFError, OSError):
                job = worker.job
                worker.job = None
                if job is not None:
                    self._fail_job_locked(
                        job, "connection lost", "service.pool.crashes", now
                    )
                self._recycle_locked(wid, terminate=True)

    def _check_workers_locked(self, now: float) -> None:
        for wid in list(self._workers):
            worker = self._workers[wid]
            if not worker.process.is_alive():
                job = worker.job
                worker.job = None
                if job is not None:
                    self._fail_job_locked(
                        job,
                        f"worker died (exit {worker.process.exitcode})",
                        "service.pool.crashes",
                        now,
                    )
                self._recycle_locked(wid, terminate=False)
            elif (
                worker.job is not None
                and now - worker.dispatched_at > worker.job.hang_after
            ):
                job = worker.job
                worker.job = None
                self._fail_job_locked(
                    job,
                    f"no reply within {job.hang_after:g}s",
                    "service.pool.hangs",
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
        for wid in list(self._workers):
            worker = self._workers[wid]
            if worker.job is not None or not worker.process.is_alive():
                continue
            job = self._next_ready_locked(now)
            if job is None:
                break
            try:
                worker.conn.send(
                    (
                        "job",
                        job.seq,
                        job.attempts,
                        job.name,
                        job.tuples,
                        job.machine_spec,
                        job.options,
                        job.budget,
                    )
                )
            except (OSError, ValueError):
                self._fail_job_locked(
                    job, "dispatch failed", "service.pool.crashes", now
                )
                self._recycle_locked(wid, terminate=True)
                continue
            worker.job = job
            worker.dispatched_at = now

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
                if not job.done.is_set():
                    job.failure = "drain deadline"
                    job.done.set()
                    forced += 1
            if forced:
                self._count("service.pool.degraded", forced)
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
