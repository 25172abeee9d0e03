"""The production-hardened service: worker pool, chaos, admission, drain.

The service-level invariant under test mirrors the chunk-level one in
``test_resilience.py``, lifted one layer up: **every HTTP response is
either certified-identical to a fault-free run or explicitly degraded/
shed** — a worker crash, hang, or corrupted reply may cost latency and
provenance (``worker_retries``), never correctness, and never a 500.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisorConfig
from repro.sched.multi import first_pipeline_assignment
from repro.sched.search import SearchOptions
from repro.service import (
    PoolSaturated,
    ScheduleCache,
    SchedulingService,
    ServiceClient,
    ServiceClientError,
    WorkerPool,
    create_server,
)
from repro.service.pool import PoolJob
from repro.service.server import SCHEMA
from repro.telemetry import Telemetry
from repro.verify.certificate import check_schedule

OPTIONS = SearchOptions(curtail=10_000)

BLOCKS = [
    "1: Load #a\n2: Const 7\n3: Mul 1, 2\n4: Add 3, 1\n5: Store #a, 4",
    "1: Load #x\n2: Load #y\n3: Add 1, 2\n4: Store #z, 3",
    "1: Const 1\n2: Const 2\n3: Add 1, 2\n4: Mul 3, 3\n5: Store #o, 4",
]


def _entry_core(entry):
    """An entry minus the provenance fields faults may legitimately vary."""
    return {
        k: v for k, v in entry.items() if k not in ("cache", "worker_retries")
    }


def _certify_entry(tuples, machine, entry):
    dag = DependenceDAG(parse_block(tuples))
    cert = check_schedule(
        dag.block,
        machine,
        tuple(entry["order"]),
        tuple(entry["etas"]),
        assignment=first_pipeline_assignment(dag, machine),
    )
    assert cert.ok, cert.summary()
    assert cert.required_nops == entry["total_nops"]


def _pooled_service(
    workers=2,
    fault_plan=None,
    cache=None,
    hang_timeout=60.0,
    max_retries=2,
    queue_limit=32,
    pool_queue_limit=256,
):
    pool = WorkerPool(
        workers,
        cache=cache,
        config=SupervisorConfig(
            hang_timeout=hang_timeout,
            max_retries=max_retries,
            backoff_base=0.05,
            backoff_cap=0.2,
        ),
        fault_plan=fault_plan,
        queue_limit=pool_queue_limit,
        hang_timeout=hang_timeout,
    ).start()
    return SchedulingService(
        cache=cache, options=OPTIONS, pool=pool, queue_limit=queue_limit
    )


@pytest.fixture
def baseline_reply():
    """The fault-free inline answer every chaos variant must reproduce."""
    service = SchedulingService(cache=None, options=OPTIONS)
    return service.schedule_batch(
        {"schema": SCHEMA, "machine": "paper-simulation",
         "blocks": [{"tuples": t} for t in BLOCKS]}
    )


def _run_batch(service, **overrides):
    payload = {
        "schema": SCHEMA,
        "machine": "paper-simulation",
        "blocks": [{"tuples": t} for t in BLOCKS],
    }
    payload.update(overrides)
    try:
        return service.schedule_batch(payload)
    finally:
        if service.pool is not None:
            service.pool.stop(drain_timeout=5.0)


class TestWorkerPool:
    def test_pooled_round_trip_matches_inline(self, baseline_reply):
        reply = _run_batch(_pooled_service(workers=2))
        assert reply["schema"] == SCHEMA
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all(e["worker_retries"] == 0 for e in reply["entries"])

    def test_vector_alias_request_matches_fast(
        self, baseline_reply, capfd, monkeypatch
    ):
        """A request naming the retired ``vector`` engine is answered
        like ``fast``.  The front end resolves the alias, so its notice
        prints once for the daemon, not once per worker."""
        import repro.sched.core as core

        monkeypatch.setattr(core, "_alias_warned", False)
        reply = _run_batch(_pooled_service(workers=2), options={"engine": "vector"})
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        err = capfd.readouterr().err
        assert err.count("engine 'vector' is deprecated") == 1, err

    def test_worker_crash_recovery_bit_identical(self, baseline_reply):
        # Satellite 4: a seeded FaultPlan kills a worker mid-request;
        # the reply must be bit-identical to the fault-free run, with
        # the retries visible only in provenance and telemetry.
        plan = FaultPlan(seed=7, crash_rate=1.0, max_faults_per_chunk=1)
        service = _pooled_service(workers=2, fault_plan=plan)
        reply = _run_batch(service)
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all(e["worker_retries"] == 1 for e in reply["entries"])
        assert service.telemetry.counters["service.pool.crashes"] == len(BLOCKS)
        assert service.telemetry.counters["service.pool.retries"] == len(BLOCKS)
        assert "service.pool.degraded" not in service.telemetry.counters

    def test_corrupt_reply_detected_and_retried(self, baseline_reply):
        plan = FaultPlan(seed=11, corrupt_rate=1.0, max_faults_per_chunk=1)
        service = _pooled_service(workers=2, fault_plan=plan)
        reply = _run_batch(service)
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert (
            service.telemetry.counters["service.pool.corrupt_replies"]
            == len(BLOCKS)
        )

    def test_hung_worker_killed_and_retried(self, baseline_reply):
        plan = FaultPlan(
            seed=3, hang_rate=1.0, hang_seconds=30.0, max_faults_per_chunk=1
        )
        service = _pooled_service(workers=2, fault_plan=plan, hang_timeout=1.0)
        reply = _run_batch(service)
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert service.telemetry.counters["service.pool.hangs"] == len(BLOCKS)

    def test_persistent_crash_degrades_to_list_seed(self):
        # Every attempt crashes: past max_retries the entry degrades to
        # the list-schedule seed with explicit provenance — never a 500,
        # never a silent wrong answer (the seed still certifies).
        plan = FaultPlan(seed=5, crash_rate=1.0, max_faults_per_chunk=99)
        service = _pooled_service(workers=2, fault_plan=plan, max_retries=1)
        reply = _run_batch(service)
        machine = get_machine("paper-simulation")
        for tuples, entry in zip(BLOCKS, reply["entries"]):
            assert entry["degraded"] is True
            assert entry["completed"] is False
            assert entry["ladder"] == "list-seed"
            assert entry["worker_retries"] == 2  # max_retries + 1 attempts
            _certify_entry(tuples, machine, entry)
        assert reply["stats"]["degraded"] == len(BLOCKS)

    def test_only_workers_write_the_cache(self, tmp_path):
        cache = ScheduleCache(path=str(tmp_path / "store"))
        service = _pooled_service(workers=2, cache=cache)
        reply = _run_batch(service)
        assert [e["cache"] for e in reply["entries"]] == ["miss"] * len(BLOCKS)
        # The workers wrote through the shared store: a fresh cache over
        # the same directory serves every block without searching.
        local = ScheduleCache(path=str(tmp_path / "store"))
        machine = get_machine("paper-simulation")
        for tuples in BLOCKS:
            _, status = local.schedule_with_status(
                DependenceDAG(parse_block(tuples)), machine, OPTIONS
            )
            assert status == "hit"

    def test_pool_rejects_oversized_batch(self):
        pool = WorkerPool(1, queue_limit=2)
        jobs = [
            PoolJob("b", BLOCKS[0], "paper-simulation", OPTIONS, None,
                    (1, 2, 3, 4, 5), hang_timeout=60.0)
            for _ in range(3)
        ]
        with pytest.raises(PoolSaturated) as exc:
            pool.submit(jobs)
        assert exc.value.retry_after >= 1.0


class TestAdmissionControl:
    def test_429_with_retry_after(self):
        # A batch larger than the pool queue saturates admission
        # atomically — the whole request is shed with a structured 429.
        service = _pooled_service(workers=1, pool_queue_limit=2)
        server, url = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url, max_retries=0)
            with pytest.raises(ServiceClientError) as exc:
                client.schedule([BLOCKS[0]] * 3, "paper-simulation")
            assert exc.value.status == 429
            assert exc.value.retry_after is not None
            assert exc.value.retry_after >= 1.0
            assert (
                service.telemetry.counters["service.shed_requests"] == 1
            )
            # The daemon is still healthy and serves the next request.
            reply = client.schedule([BLOCKS[0]], "paper-simulation")
            assert reply["entries"][0]["completed"] is True
        finally:
            server.shutdown()
            server.server_close()
            service.pool.stop(drain_timeout=5.0)
            thread.join(timeout=5)


class TestDeadlines:
    def test_exhausted_deadline_sheds_with_provenance(self):
        service = SchedulingService(cache=None, options=OPTIONS)
        reply = service.schedule_batch(
            {"schema": SCHEMA, "machine": "paper-simulation",
             "blocks": [{"tuples": t} for t in BLOCKS],
             "deadline": 1e-6}
        )
        machine = get_machine("paper-simulation")
        shed = [e for e in reply["entries"] if e["shed"]]
        # The first block may sneak under the deadline; the rest shed.
        assert len(shed) >= len(BLOCKS) - 1
        for entry in shed:
            assert entry["degraded"] is True
            assert entry["ladder"] == "list-seed"
        for tuples, entry in zip(BLOCKS, reply["entries"]):
            _certify_entry(tuples, machine, entry)
        assert reply["stats"]["shed"] == len(shed)

    def test_generous_deadline_is_invisible(self, baseline_reply):
        service = SchedulingService(cache=None, options=OPTIONS)
        reply = service.schedule_batch(
            {"schema": SCHEMA, "machine": "paper-simulation",
             "blocks": [{"tuples": t} for t in BLOCKS],
             "deadline": 300.0}
        )
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all(not e["shed"] for e in reply["entries"])

    @pytest.mark.parametrize("bad", [0, -1, "soon", float("inf"), True])
    def test_invalid_deadline_is_a_400(self, bad):
        from repro.service import ServiceError

        service = SchedulingService(options=OPTIONS)
        with pytest.raises(ServiceError):
            service.schedule_batch(
                {"schema": SCHEMA, "machine": "paper-simulation",
                 "blocks": [{"tuples": BLOCKS[0]}], "deadline": bad}
            )


@pytest.fixture
def raw_service():
    """An in-process daemon plus a raw-socket sender for malformed HTTP."""
    service = SchedulingService(cache=None, options=OPTIONS)
    server, url = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = url[len("http://"):].rsplit(":", 1)

    def send(raw, read_reply=True):
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(raw)
            if not read_reply:
                return b""
            sock.settimeout(10)
            chunks = []
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except socket.timeout:
                pass
            return b"".join(chunks)

    try:
        yield service, url, send
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestRequestBodyEdgeCases:
    """Malformed bodies get clean 4xx answers, never a traceback."""

    def test_missing_content_length(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Traceback" not in reply

    def test_invalid_content_length(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 400")

    def test_negative_content_length(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_body_is_413_without_reading_it(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999\r\n\r\n" + b"x" * 1024
        )
        assert reply.startswith(b"HTTP/1.1 413")

    def test_disconnect_mid_body(self, raw_service):
        service, url, send = raw_service
        # Promise 1 MiB, send 10 bytes, hang up.  The daemon must log a
        # clean 400 path internally and keep serving.
        send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 1048576\r\n\r\n" + b"x" * 10,
            read_reply=False,
        )
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if service.telemetry.counters.get("service.http.bad_bodies"):
                break
            time.sleep(0.02)
        assert service.telemetry.counters.get("service.http.bad_bodies", 0) >= 1
        client = ServiceClient(url)
        assert client.health()["ok"] is True
        reply = client.schedule([BLOCKS[0]], "paper-simulation")
        assert reply["entries"][0]["completed"] is True


class TestHealthEndpoints:
    def test_liveness_and_readiness_split(self):
        service = _pooled_service(workers=1)
        server, url = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url, max_retries=0)
            assert client.live()["ok"] is True
            ready = client.ready()
            assert ready["ok"] is True
            assert ready["checks"]["workers"] is True
            assert ready["checks"]["engine"] is True
            # Draining: still alive, no longer ready (503).
            service.begin_drain()
            assert client.live()["ok"] is True
            with pytest.raises(ServiceClientError) as exc:
                client.ready()
            assert exc.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            service.pool.stop(drain_timeout=5.0)
            thread.join(timeout=5)


    def test_vector_alias_daemon_is_ready(self, monkeypatch):
        """A daemon asked for the retired ``vector`` engine runs ``fast``
        and is ready; only a real native -> fast fallback is not."""
        import repro.native
        import repro.sched.core as core

        monkeypatch.setattr(core, "_alias_warned", True)
        ready, payload = SchedulingService(
            options=SearchOptions(engine="vector")
        ).readiness()
        assert ready and payload["checks"]["engine"] is True

        monkeypatch.setattr(repro.native, "native_available", lambda: False)
        monkeypatch.setattr(core, "_native_fallback_warned", True)
        ready, payload = SchedulingService(
            options=SearchOptions(engine="native")
        ).readiness()
        assert not ready and payload["checks"]["engine"] is False


class TestCacheQuarantine:
    def _prime(self, tmp_path):
        store = str(tmp_path / "store")
        cache = ScheduleCache(path=store)
        dag = DependenceDAG(parse_block(BLOCKS[0]))
        machine = get_machine("paper-simulation")
        cache.schedule(dag, machine, OPTIONS)
        # Entries live in two-character shard directories.
        (path,) = [
            os.path.join(root, f)
            for root, _, files in os.walk(store)
            for f in files
            if f.endswith(".json")
        ]
        return store, path, dag, machine

    def test_torn_entry_is_quarantined_not_fatal(self, tmp_path, capsys):
        store, path, dag, machine = self._prime(tmp_path)
        with open(path, "w") as fh:
            fh.write('{"schema": "repro-schedule-cache/1", "key"')  # torn
        telemetry = Telemetry()
        fresh = ScheduleCache(path=store)
        result, status = fresh.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"  # recomputed, no crash
        assert result.completed
        assert telemetry.counters["service.cache.quarantined"] == 1
        key = os.path.basename(path)[: -len(".json")]
        qdir = os.path.join(store, "quarantine")
        assert os.path.exists(os.path.join(qdir, key + ".json"))
        reason = open(os.path.join(qdir, key + ".json.reason")).read()
        assert "torn" in reason
        assert "quarantined corrupt entry" in capsys.readouterr().err

    def test_key_mismatch_is_quarantined(self, tmp_path):
        store, path, dag, machine = self._prime(tmp_path)
        entry = json.loads(open(path).read())
        entry["key"] = "0" * 64
        with open(path, "w") as fh:
            fh.write(json.dumps(entry))
        telemetry = Telemetry()
        fresh = ScheduleCache(path=store)
        _, status = fresh.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"
        assert telemetry.counters["service.cache.quarantined"] == 1

    def test_schema_skew_is_a_plain_miss(self, tmp_path):
        # A future/old schema version is not corruption: silently miss.
        store, path, dag, machine = self._prime(tmp_path)
        entry = json.loads(open(path).read())
        entry["schema"] = "repro-schedule-cache/99"
        with open(path, "w") as fh:
            fh.write(json.dumps(entry))
        telemetry = Telemetry()
        fresh = ScheduleCache(path=store)
        _, status = fresh.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"
        assert "service.cache.quarantined" not in telemetry.counters
        assert not os.path.exists(os.path.join(store, "quarantine"))


class TestClientRetries:
    def _flaky_server(self, failures, status=500, retry_after=None):
        from http.server import BaseHTTPRequestHandler, HTTPServer

        state = {"left": failures, "hits": 0}

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib naming
                state["hits"] += 1
                if state["left"] > 0:
                    state["left"] -= 1
                    self.send_response(status)
                    if retry_after is not None:
                        self.send_header("Retry-After", str(retry_after))
                    body = b'{"error": "flaky"}'
                else:
                    self.send_response(200)
                    body = b'{"ok": true, "schema": "%s"}' % SCHEMA.encode()
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        return server, thread, url, state

    def test_retries_5xx_then_succeeds(self):
        server, thread, url, state = self._flaky_server(failures=2)
        try:
            telemetry = Telemetry()
            client = ServiceClient(
                url, max_retries=3, backoff=0.01, telemetry=telemetry
            )
            assert client.health()["ok"] is True
            assert state["hits"] == 3
            assert telemetry.counters["service.client.retries"] == 2
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_respects_retry_after_on_429(self):
        server, thread, url, state = self._flaky_server(
            failures=1, status=429, retry_after=0.05
        )
        try:
            client = ServiceClient(url, max_retries=1, backoff=0.001)
            start = time.monotonic()
            assert client.health()["ok"] is True
            assert time.monotonic() - start >= 0.05
            assert state["hits"] == 2
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_400_is_not_retried(self):
        server, thread, url, state = self._flaky_server(failures=99, status=400)
        try:
            client = ServiceClient(url, max_retries=3, backoff=0.01)
            with pytest.raises(ServiceClientError) as exc:
                client.health()
            assert exc.value.status == 400
            assert state["hits"] == 1
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_exhausted_retries_raise_last_error(self):
        server, thread, url, state = self._flaky_server(failures=99)
        try:
            client = ServiceClient(url, max_retries=2, backoff=0.01)
            with pytest.raises(ServiceClientError) as exc:
                client.health()
            assert exc.value.status == 500
            assert state["hits"] == 3
        finally:
            server.shutdown()
            thread.join(timeout=5)

    @pytest.mark.parametrize(
        "kwargs", [{"max_retries": -1}, {"backoff": -0.5}, {"timeout": 0}]
    )
    def test_ctor_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceClient("http://localhost:1", **kwargs)


class TestGracefulDrain:
    """SIGTERM under load: finish in-flight work, flush, exit 0."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        ready = tmp_path / "ready.json"
        stats = tmp_path / "stats.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.console", "serve",
                "--port", "0", "--no-cache", "--workers", "2",
                "--curtail", "10000",
                "--ready-file", str(ready),
                "--stats-json", str(stats),
                "--drain-timeout", "20",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "daemon never became ready"
                time.sleep(0.05)
            url = json.loads(ready.read_text())["url"]
            client = ServiceClient(url, timeout=120.0)

            replies = []

            def fire():
                replies.append(client.schedule(BLOCKS, "paper-simulation"))

            worker = threading.Thread(target=fire)
            worker.start()
            time.sleep(0.1)  # let the request reach the pool
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=60)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out.decode()
            assert b"drained on SIGTERM" in out
            # In-flight work resolved (finished or degraded — never lost)
            # and telemetry was flushed on the way out.
            assert len(replies) == 1
            for entry in replies[0]["entries"]:
                assert entry["completed"] or entry["degraded"]
            flushed = json.loads(stats.read_text())
            assert flushed["counters"]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigterm_as_soon_as_ready_file_appears(self, tmp_path):
        """The drain handler is installed before the ready file is
        written: a SIGTERM sent the moment the file exists still drains
        the daemon and its worker pool and exits 0."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        ready = tmp_path / "ready.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.console", "serve",
                "--port", "0", "--no-cache", "--workers", "1",
                "--ready-file", str(ready),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "daemon never became ready"
                time.sleep(0.001)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out.decode()
            assert b"drained on SIGTERM" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
