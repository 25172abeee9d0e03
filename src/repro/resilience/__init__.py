"""Fault tolerance for population runs and the scheduling daemon.

Five pieces, composed by :mod:`repro.experiments.parallel`, the
``repro experiments`` CLI and the ``repro serve`` daemon:

* :mod:`repro.resilience.budget` — run-level wall-clock / Ω-call
  budgets and :func:`ladder_schedule`, the one function that picks a
  block's rung on the ``optimal-search → curtailed-search →
  split-windows → list-seed`` degradation ladder (per-block limits are
  ``SearchOptions`` fields).
* :mod:`repro.resilience.journal` — append-only, fsync'd checkpoint
  journal of completed block records; ``--resume`` replays it.
* :mod:`repro.resilience.pool` — :class:`WorkerPool`, the one
  supervised pre-fork worker fleet: crash/hang/corrupt detection,
  retries, degradation.
* :mod:`repro.resilience.supervisor` — its policy knobs
  (:class:`SupervisorConfig`: hang deadline, retries, capped backoff)
  and the parent-side result checks.
* :mod:`repro.resilience.faults` — deterministic (seeded) fault
  injection used by the chaos suite and the ``--chaos`` CLI flag.
"""

from .budget import (
    LADDER,
    STEP_CURTAILED,
    STEP_LIST_SEED,
    STEP_OPTIMAL,
    STEP_SPLIT,
    BudgetManager,
    LadderOutcome,
    ladder_schedule,
)
from .faults import FaultPlan
from .journal import Journal, JournalError, load_journal
from .pool import PoolJob, PoolSaturated, WorkerPool
from .supervisor import SupervisorConfig, validate_records

__all__ = [
    "LADDER",
    "STEP_CURTAILED",
    "STEP_LIST_SEED",
    "STEP_OPTIMAL",
    "STEP_SPLIT",
    "BudgetManager",
    "LadderOutcome",
    "ladder_schedule",
    "FaultPlan",
    "Journal",
    "JournalError",
    "load_journal",
    "PoolJob",
    "PoolSaturated",
    "WorkerPool",
    "SupervisorConfig",
    "validate_records",
]
