"""The ``service`` workload: a real ``repro serve --workers 1`` daemon in
a subprocess, driven closed-loop by two client threads of the benchmark
process.

Each client holds one :class:`repro.service.client.ServiceClient` and
sends the request stream of :func:`perfbench.corpus.service_requests`
in order, one batch of three blocks at a time, taking the next request
only when its reply is in.  A request's latency is the
``ServiceClient.schedule`` call alone.  Every reply is certified
client-side with ``check_schedule`` once the clients have stopped, so
the certificate neither adds to the latency nor competes with the
clients for the interpreter.  About half the blocks come from a small
hot set (cache reads); the rest are fresh (a solve plus a cache write),
so reads and writes run side by side.  The run is cut into segments;
between two, while the daemon is idle, the reference loop of
:mod:`perfbench.speed` times the machine.

The traced run adds the in-process view: the same batches through
``SchedulingService(pool=None).schedule_batch``, and
``fingerprint_problem`` and ``ScheduleCache.schedule_with_status``
timed block by block.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.sched.search import SearchOptions
from repro.service.cache import HIT, ScheduleCache
from repro.service.client import ServiceClient
from repro.service.fingerprint import fingerprint_problem
from repro.service.server import SCHEMA, SchedulingService
from repro.verify.certificate import check_schedule

from .corpus import ServiceSlot
from .spans import Tracer
from .speed import local_scales, reference_loop

MACHINE = "paper-simulation"
CURTAIL = 50_000
CLIENTS = 2
#: Requests whose replies fix ``nops_total`` and ``optimal_frac``: every
#: run answers at least these, however slow the daemon.
COUNTED_REQUESTS = 1000
#: Requests the traced run replays in process.
REPLAYED_REQUESTS = 300
#: Segments a run is cut into; a traced run alternates untraced and
#: traced quarters of six segments each.
SEGMENTS = 24
QUARTER = SEGMENTS // 4
#: Reference-loop timings taken before each segment; their median counts.
SEGMENT_REFERENCES = 3
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Daemon:
    """One ``repro serve`` subprocess with the default memory cache."""

    def __init__(self, root: str, workdir: str, label: str) -> None:
        self.ready_path = os.path.join(workdir, f"{label}.ready.json")
        if os.path.exists(self.ready_path):
            os.unlink(self.ready_path)
        cmd = [
            sys.executable, "-m", "repro.console", "serve",
            "--port", "0",
            "--workers", "1",
            "--engine", "native",
            "--curtail", str(CURTAIL),
            "--ready-file", self.ready_path,
        ]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(workdir, f"{label}.log"), "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env)

    def wait_ready(self) -> str:
        """Block until the ready file names the URL; sets ``ready_s``."""
        deadline = self.started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} before ready")
            try:
                with open(self.ready_path, "r", encoding="utf-8") as fh:
                    url = json.load(fh)["url"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)
                continue
            self.ready_s = time.perf_counter() - self.started
            # The ready file appears before the daemon installs its SIGTERM
            # handler; once it answers a request it serves, and drains on
            # SIGTERM instead of dying and orphaning its worker.
            ServiceClient(url, timeout=READY_TIMEOUT).live()
            return url
        raise RuntimeError(f"daemon not ready within {READY_TIMEOUT:g}s")

    def children(self) -> List[int]:
        """Process ids of the daemon's worker processes."""
        pids: List[int] = []
        task_dir = f"/proc/{self.proc.pid}/task"
        try:
            tasks = os.listdir(task_dir)
        except OSError:
            return pids
        for task in tasks:
            try:
                with open(os.path.join(task_dir, task, "children")) as fh:
                    pids += [int(p) for p in fh.read().split()]
            except OSError:
                pass
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the daemon and its worker processes."""
        total_kb = 0
        for pid in [self.proc.pid, *self.children()]:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain), then SIGKILL past the timeout.

        Returns the daemon's exit code, or -1 when a worker outlived the
        drain (it is killed, and waited for, here).
        """
        workers = self.children() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        orphans = [pid for pid in workers if _outlives(pid, 2.0)]
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            _outlives(pid, STOP_TIMEOUT)
        return -1 if orphans else self.proc.returncode


def _outlives(pid: int, seconds: float) -> bool:
    """Whether process ``pid`` still exists after up to ``seconds``."""
    deadline = time.perf_counter() + seconds
    while os.path.exists(f"/proc/{pid}"):
        if time.perf_counter() >= deadline:
            return True
        time.sleep(0.01)
    return False


@dataclass
class Segment:
    """One stretch of the closed loop, bracketed by reference-loop
    timings while the daemon is idle."""

    traced: bool
    #: Seconds from the segment's start to its last reply.
    active_s: float
    #: The factor that brings its times to the reference speed.
    scale: float = 1.0


@dataclass
class Drive:
    """What the client threads observed, per request index."""

    #: Index of the segment each request started in.
    segment: List[int]
    #: Seconds of the ``ServiceClient.schedule`` call, per sent request.
    latencies: List[Optional[float]]
    replies: List[Optional[dict]]
    #: Seconds of the client-side certificate, per certified request.
    certify_s: List[Optional[float]]
    segments: List[Segment] = field(default_factory=list)
    #: Reference-loop time before each segment and after the last.
    references: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    sent: int = 0

    def traced(self, i: int) -> bool:
        """Whether request ``i`` ran traced."""
        return self.segments[self.segment[i]].traced

    def rate(self, requests: List[List[ServiceSlot]], traced: bool) -> Tuple[float, List[float]]:
        """Blocks per second, and the sorted latencies of the answered
        requests, over every segment that ran with tracing ``traced``,
        at the reference speed."""
        segments = [s for s in self.segments if s.traced == traced]
        if not segments:
            return 0.0, []
        kept = [
            i for i in range(self.sent)
            if self.replies[i] is not None and self.traced(i) == traced
        ]
        blocks = sum(len(requests[i]) for i in kept)
        seconds = sum(s.active_s * s.scale for s in segments)
        latencies = sorted(self.latencies[i] * self.segments[self.segment[i]].scale for i in kept)
        return blocks / seconds, latencies


def _certify_entry(slot: ServiceSlot, entry: dict, machine) -> Optional[str]:
    """Client-side certificate of one reply entry; an error or None."""
    if entry.get("degraded") or entry.get("shed"):
        return f"{slot.name}: degraded={entry.get('degraded')} shed={entry.get('shed')}"
    cert = check_schedule(slot.block, machine, entry["order"], entry["etas"])
    if not cert.ok:
        return f"{slot.name}: {cert.summary()}"
    if cert.required_nops != entry["total_nops"]:
        return (
            f"{slot.name}: certificate re-derives {cert.required_nops} NOPs, "
            f"the reply publishes {entry['total_nops']}"
        )
    return None


def drive(
    url: str,
    requests: List[List[ServiceSlot]],
    seconds: float,
    trace: bool,
    tracer: Tracer,
    counted: int = COUNTED_REQUESTS,
) -> Drive:
    """Closed loop over ``requests`` until ``seconds`` have passed and
    ``counted`` requests are answered (or the stream runs out), then the
    certificate of every reply.

    The loop runs in segments of ``seconds / SEGMENTS``.  Before each
    segment, and after the last, the reference loop is timed while the
    daemon is idle; at a segment's end each client finishes the request
    it has in flight.  With ``trace`` the run alternates untraced and
    traced quarters.
    """
    n = len(requests)
    d = Drive([0] * n, [None] * n, [None] * n, [None] * n)
    plain = Tracer(enabled=False)
    clients = [ServiceClient(url, timeout=60.0, max_retries=0) for _ in range(CLIENTS)]
    lock = threading.Lock()
    next_index = [0]
    segment_s = seconds / SEGMENTS
    references = d.references

    def client_loop(client: ServiceClient, k: int, t: Tracer, start: float, last: List[float]) -> None:
        while True:
            with lock:
                i = next_index[0]
                if i >= n or time.perf_counter() - start >= segment_s:
                    return
                next_index[0] += 1
            texts = [slot.text for slot in requests[i]]
            names = [slot.name for slot in requests[i]]
            t0 = time.perf_counter()
            try:
                reply = t.root("request", i, t.call, "service.request", client.schedule,
                               texts, MACHINE, None, names)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                reply = None
                with lock:
                    d.errors.append(f"request {i}: {type(exc).__name__}: {exc}")
            last[0] = time.perf_counter()
            d.latencies[i] = last[0] - t0
            d.segment[i] = k
            d.replies[i] = reply

    while next_index[0] < n and (len(d.segments) < SEGMENTS or next_index[0] < counted):
        k = len(d.segments)
        traced = trace and (k // QUARTER) % 2 == 1
        references.append(median(reference_loop() for _ in range(SEGMENT_REFERENCES)))
        start = time.perf_counter()
        last = [[start] for _ in clients]
        threads = [
            threading.Thread(
                target=client_loop, args=(c, k, tracer if traced else plain, start, l)
            )
            for c, l in zip(clients, last)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        d.segments.append(Segment(traced, max(l[0] for l in last) - start))
    references.append(median(reference_loop() for _ in range(SEGMENT_REFERENCES)))
    for segment, scale in zip(d.segments, local_scales(references)):
        segment.scale = scale
    d.sent = next_index[0]
    _certify(d, requests, tracer)
    return d


def _certify(d: Drive, requests: List[List[ServiceSlot]], tracer: Tracer) -> None:
    """Certify every reply; a traced request's certificate is traced
    with ``tracer`` too.

    A reply that fails is dropped from ``d.replies`` and counted in
    ``d.errors``.
    """
    machine = get_machine(MACHINE)
    plain = Tracer(enabled=False)

    def check(i: int, t: Tracer) -> Optional[str]:
        entries = d.replies[i].get("entries", [])
        if len(entries) != len(requests[i]):
            return f"{len(entries)} entries for {len(requests[i])} blocks"
        for slot, entry in zip(requests[i], entries):
            error = t.call("verify.certify", _certify_entry, slot, entry, machine)
            if error is not None:
                return error
        return None

    for i in range(d.sent):
        if d.replies[i] is None:
            continue
        t = tracer if d.traced(i) else plain
        t0 = time.perf_counter()
        error = t.root("certify", i, check, i, t)
        d.certify_s[i] = time.perf_counter() - t0
        if error is not None:
            d.errors.append(f"request {i}: {error}")
            d.replies[i] = None


def replay(requests: List[List[ServiceSlot]]) -> Dict[str, float]:
    """The in-process view of the first requests (traced run only).

    ``service.batch_ms`` is the median time of
    ``SchedulingService(pool=None).schedule_batch`` per request.  The
    fingerprint and cache times come from a second pass block by block
    through a fresh cache, so hits and misses fall as in the daemon.
    """
    options = SearchOptions(curtail=CURTAIL, engine="native")
    machine = get_machine(MACHINE)
    service = SchedulingService(cache=ScheduleCache(), options=options)
    batch_times = []
    for batch in requests:
        payload = {
            "schema": SCHEMA,
            "machine": MACHINE,
            "blocks": [{"name": s.name, "tuples": s.text} for s in batch],
        }
        t0 = time.perf_counter()
        service.schedule_batch(payload)
        batch_times.append(time.perf_counter() - t0)
    cache = ScheduleCache()
    fingerprint, hit, miss = [], [], []
    for batch in requests:
        for slot in batch:
            dag = DependenceDAG(parse_block(slot.text, slot.name))
            t0 = time.perf_counter()
            fingerprint_problem(dag, machine, options)
            t1 = time.perf_counter()
            _, status = cache.schedule_with_status(dag, machine, options)
            t2 = time.perf_counter()
            fingerprint.append(t1 - t0)
            (hit if status == HIT else miss).append(t2 - t1)
    return {
        "service.batch_ms": median(batch_times) * 1e3,
        "service.fingerprint_s": sum(fingerprint) / len(fingerprint),
        "service.cache_hit_s": sum(hit) / len(hit) if hit else 0.0,
        "service.cache_miss_s": sum(miss) / len(miss) if miss else 0.0,
    }
