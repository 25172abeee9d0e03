"""Scheduling as a service: canonical-form result cache + batch daemon.

Layers:

* :mod:`repro.service.fingerprint` — a label-free canonical form of one
  (block, machine, options) scheduling problem, hashed into a stable
  cache key under which isomorphic problems collide.
* :mod:`repro.service.cache` — :class:`ScheduleCache`, a two-tier
  (in-process LRU over a disk-backed, fsync'd store) memo of full
  ``SearchResult``s, certificate-verified on insert; corrupt disk
  entries are quarantined, never silently dropped.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ``repro serve`` batch daemon speaking the ``repro-service/2`` JSON
  protocol (admission control, per-request deadlines, liveness/readiness
  health, graceful drain), and its retrying client.  The daemon runs
  its searches on :class:`WorkerPool` (:mod:`repro.resilience.pool`,
  re-exported here), the supervised pre-fork worker fleet population
  runs use too: a segfault, hang, or OOM kills one worker, the request
  retries on a fresh one and degrades honestly past the retry cap.
"""

from ..resilience.pool import PoolSaturated, WorkerPool
from .cache import CacheIntegrityError, ScheduleCache
from .client import ServiceClient, ServiceClientError
from .fingerprint import CanonicalForm, fingerprint_problem
from .server import (
    SchedulingService,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadError,
    create_server,
    execute_block,
)

__all__ = [
    "CanonicalForm",
    "fingerprint_problem",
    "ScheduleCache",
    "CacheIntegrityError",
    "SchedulingService",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceDrainingError",
    "create_server",
    "execute_block",
    "ServiceClient",
    "ServiceClientError",
    "WorkerPool",
    "PoolSaturated",
]
