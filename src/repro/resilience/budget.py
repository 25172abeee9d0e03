"""Run budgets and the degradation ladder.

The paper's curtail point λ (section 2.3, step [6]) is already a
graceful-degradation primitive: stop searching, keep the best schedule
found so far, and *say so* on the result.  Every limit on one block is a
search option and lives only on :class:`repro.sched.search.SearchOptions`:

* **wall clock** (``time_limit`` — the CLIs' ``--block-timeout``),
* **node expansions** (``curtail``, the curtail point λ), and
* **dominance-memo memory** (``max_memo_entries``).

This module adds what is not per-block: the *run*-level budgets (total
wall clock and total Ω calls across a population run or a daemon's
lifetime) in :class:`BudgetManager`, and :func:`ladder_schedule`, the one
function that decides which rung of the **degradation ladder** a block
publishes — for population records and service replies alike:

``optimal-search``
    The branch-and-bound exhausted its pruned space (or the incumbent met
    an admissible lower bound); the published schedule is provably optimal.
``curtailed-search``
    The Ω budget (λ) truncated the search; the published schedule is the
    best incumbent — the paper's condition [2].  Deterministic: the same
    block and λ always stop at the same incumbent.
``split-windows``
    The wall-clock deadline truncated the search; the section-5.3 windowed
    scheduler re-ran the block under a small *deterministic* per-window Ω
    budget (:data:`DEFAULT_SPLIT_WINDOW`, :data:`DEFAULT_SPLIT_CURTAIL`)
    and beat the list-schedule seed.  The published schedule is locally
    optimal per window.
``list-seed``
    Nothing beat the list-schedule seed (a timed-out block whose windows
    did not improve on it, a run budget already exhausted before the
    block started, or a poisoned worker chunk quarantined); the published
    schedule is the deterministic list schedule itself.

The rung depends only on the search outcome, never on which object
carried the deadline.  Every rung is recorded on ``BlockRecord.ladder``
(and the service's ``ladder`` entry field) and counted in the
``resilience.ladder.*`` telemetry namespace, so a degraded run is never
silently indistinguishable from a complete one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..sched.list_scheduler import list_schedule
from ..sched.nop_insertion import ScheduleTiming, compute_timing
from ..sched.search import SearchOptions, schedule_block
from ..sched.splitting import schedule_block_split
from ..telemetry import Telemetry

#: Ladder rungs, best to worst.
STEP_OPTIMAL = "optimal-search"
STEP_CURTAILED = "curtailed-search"
STEP_SPLIT = "split-windows"
STEP_LIST_SEED = "list-seed"
LADDER = (STEP_OPTIMAL, STEP_CURTAILED, STEP_SPLIT, STEP_LIST_SEED)

#: Per-window Ω budget of the split-windows rung.  Small enough that the
#: fallback costs a fraction of the primary search, large enough that a
#: 20-instruction window almost always completes.
DEFAULT_SPLIT_CURTAIL = 2_000

#: Window size of the split-windows rung (the paper's suggestion).
DEFAULT_SPLIT_WINDOW = 20


class BudgetManager:
    """The run-level budgets of one population run or daemon.

    ``run_wall_clock`` bounds the seconds the whole run may take once
    :meth:`start` arms it; ``run_omega_cap`` bounds the Ω calls all its
    blocks may spend.  :meth:`admit` is the one gate every block passes.

    The manager is picklable and crosses process boundaries into the
    population and pool workers.  Run-level accounting (:meth:`charge`,
    :meth:`run_exhausted`) is kept by whichever process merges results —
    the parent, for parallel runs — so the run-level Ω cap is exact for
    serial runs and chunk-granular for parallel ones.

    ``time.monotonic`` is system-wide on the platforms we target, so the
    run deadline set in the parent holds in forked workers too.
    """

    def __init__(
        self,
        run_wall_clock: Optional[float] = None,
        run_omega_cap: Optional[int] = None,
    ) -> None:
        if run_wall_clock is not None and not (
            math.isfinite(run_wall_clock) and run_wall_clock > 0
        ):
            raise ValueError(
                "run wall-clock budget must be a positive, finite number "
                f"of seconds, got {run_wall_clock!r}"
            )
        if run_omega_cap is not None and run_omega_cap < 1:
            raise ValueError("run omega cap must be at least 1")
        self.run_wall_clock = run_wall_clock
        self.run_omega_cap = run_omega_cap
        self._deadline: Optional[float] = None
        self._omega_spent = 0

    def start(self) -> "BudgetManager":
        """Arm the run-level wall clock (idempotent)."""
        if self.run_wall_clock is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.run_wall_clock
        return self

    def charge(self, omega_calls: int) -> None:
        """Account ``omega_calls`` against the run-level Ω budget."""
        self._omega_spent += omega_calls

    @property
    def omega_spent(self) -> int:
        return self._omega_spent

    def remaining_run_seconds(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def run_exhausted(self) -> Optional[str]:
        """Why the *run* budget is spent (``None`` while it is not)."""
        if self.run_omega_cap is not None and self._omega_spent >= self.run_omega_cap:
            return "omega"
        remaining = self.remaining_run_seconds()
        if remaining is not None and remaining <= 0:
            return "wall-clock"
        return None

    def admit(
        self, options: SearchOptions, telemetry: Optional[Telemetry] = None
    ) -> Optional[SearchOptions]:
        """The run-budget gate in front of one block's search.

        Returns ``None`` once the run budget is spent — the block then
        publishes its list seed without searching (the anytime contract:
        a run over budget still publishes a legal schedule for every
        block).  Otherwise returns ``options`` with ``time_limit`` clamped
        to the remaining run wall clock, so the last block before a run
        deadline cannot overshoot it by a whole block limit; a tighter
        caller limit always stands.
        """
        if self.run_exhausted() is not None:
            if telemetry is not None:
                telemetry.count("resilience.run_budget_exhausted")
            return None
        remaining = self.remaining_run_seconds()
        if remaining is None or (
            options.time_limit is not None and options.time_limit <= remaining
        ):
            return options
        # The deadline may pass between the two reads above: clamp to a
        # tiny positive limit rather than an invalid one.
        return replace(options, time_limit=max(remaining, 1e-9))

    # -- pickling (run-level state is process-local) -------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # Ω accounting never crosses the pickle boundary: the merging
        # process owns it.  The armed deadline *does* cross (monotonic is
        # system-wide), so forked workers respect the run deadline.
        state["_omega_spent"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BudgetManager(run_wall_clock={self.run_wall_clock}, "
            f"run_omega_cap={self.run_omega_cap})"
        )


@dataclass(frozen=True)
class LadderOutcome:
    """What one block publishes, and which rung of the ladder chose it.

    ``BlockRecord`` (:mod:`repro.experiments.runner`) and the service's
    wire entry (:mod:`repro.service.server`) are both views of this one
    value.  ``timing`` is the published schedule — the search incumbent,
    the split-windows schedule or the list seed.  ``shed`` marks a block
    the run budget turned away before any search ran.  ``cache_status``
    is the cache provenance (``"hit"``/``"miss"``/``"bypass"``) when a
    :class:`repro.service.cache.ScheduleCache` drove the search, else
    ``None``.
    """

    timing: ScheduleTiming
    seed_nops: int
    omega_calls: int
    ladder: str
    completed: bool = False
    degraded: bool = False
    shed: bool = False
    cache_status: Optional[str] = None

    @property
    def final_nops(self) -> int:
        return self.timing.total_nops


def seed_outcome(
    dag: DependenceDAG,
    machine: MachineDescription,
    telemetry: Optional[Telemetry] = None,
    shed: bool = False,
) -> LadderOutcome:
    """The bottom rung without a search: the deterministic list seed.

    ``omega_calls=0`` records honestly that no search ran.
    """
    timing = compute_timing(dag, list_schedule(dag), machine)
    if telemetry is not None:
        telemetry.count(f"resilience.ladder.{STEP_LIST_SEED}")
    return LadderOutcome(
        timing=timing,
        seed_nops=timing.total_nops,
        omega_calls=0,
        ladder=STEP_LIST_SEED,
        degraded=True,
        shed=shed,
    )


def ladder_schedule(
    dag: DependenceDAG,
    machine: MachineDescription,
    options: SearchOptions,
    telemetry: Optional[Telemetry] = None,
    budget: Optional[BudgetManager] = None,
    cache=None,
) -> LadderOutcome:
    """Schedule one block and pick the rung it publishes.

    ``budget`` (a started :class:`BudgetManager`) gates the block first:
    once the run budget is spent the block publishes its list seed
    without searching (``shed=True``); otherwise its options are clamped
    to the remaining run wall clock and the Ω spent is charged after.

    The branch-and-bound runs through ``cache`` when given (a
    :class:`repro.service.cache.ScheduleCache`, so solved canonical forms
    are served instead of recomputed).  A search the curtail point
    stopped publishes its incumbent.  A search its ``time_limit``
    stopped publishes a deterministic fallback instead, since the
    incumbent it stopped on depends on wall clock: the split-windows
    schedule if it beats the list seed, else the list seed.
    """
    if budget is not None:
        admitted = budget.admit(options, telemetry)
        if admitted is None:
            return seed_outcome(dag, machine, telemetry, shed=True)
        options = admitted
    if cache is not None:
        result, cache_status = cache.schedule_with_status(
            dag, machine, options, telemetry=telemetry
        )
    else:
        result = schedule_block(dag, machine, options, telemetry=telemetry)
        cache_status = None
    omega_calls = result.omega_calls
    timing = result.best
    ladder = STEP_OPTIMAL if result.completed else STEP_CURTAILED
    if result.timed_out:
        timing, ladder = result.initial, STEP_LIST_SEED
        if len(dag) > 1:
            split = schedule_block_split(
                dag,
                machine,
                window=DEFAULT_SPLIT_WINDOW,
                curtail_per_window=DEFAULT_SPLIT_CURTAIL,
                telemetry=telemetry,
                engine=options.engine,
            )
            omega_calls += split.omega_calls
            if split.total_nops < result.initial_nops:
                timing, ladder = split.timing, STEP_SPLIT
    if budget is not None:
        budget.charge(omega_calls)
    if telemetry is not None:
        telemetry.count(f"resilience.ladder.{ladder}")
    return LadderOutcome(
        timing=timing,
        seed_nops=result.initial_nops,
        omega_calls=omega_calls,
        ladder=ladder,
        completed=result.completed and not result.timed_out,
        degraded=result.timed_out,
        cache_status=cache_status,
    )
