"""Fault tolerance for population runs.

Four pieces, composed by :mod:`repro.experiments.parallel` and the
``repro experiments`` CLI:

* :mod:`repro.resilience.budget` — run-level wall-clock / Ω-call
  budgets and :func:`ladder_schedule`, the one function that picks a
  block's rung on the ``optimal-search → curtailed-search →
  split-windows → list-seed`` degradation ladder (per-block limits are
  ``SearchOptions`` fields).
* :mod:`repro.resilience.journal` — append-only, fsync'd checkpoint
  journal of completed block records; ``--resume`` replays it.
* :mod:`repro.resilience.supervisor` — heartbeat-based worker
  supervision policy: retry with capped backoff, then poison-quarantine.
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
from .supervisor import ChunkSupervisor, SupervisorConfig, validate_records

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
    "ChunkSupervisor",
    "SupervisorConfig",
    "validate_records",
]
