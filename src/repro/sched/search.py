"""The optimal pipeline scheduler — section 4.2.3's pruned search.

A branch-and-bound search over dependence-legal schedules, seeded with the
list schedule and pruned by optimality-preserving criteria.  The paper's
own prunes:

* **Legality** (steps [5a]/[5b]): only instructions whose whole ``rho``
  set is already in the partial schedule Φ are candidates.  We maintain
  an exact ready set, which realizes both the quick approximate check on
  ``earliest``/``latest`` and the real test ``rho(xi) ⊆ Φ`` at once.
* **Equivalence** (step [5c]): the paper skips a swap when both
  instructions use no pipeline and have no predecessors.  Applied
  naively per candidate set that is *unsound* — two such instructions
  with different consumers are not interchangeable (scheduling Const A
  here may admit a zero-NOP completion that Const B does not).  We
  implement the sound refinement: candidates with no pipeline, no
  predecessors and *identical successor sets* are provably
  interchangeable, and only the first is tried (DESIGN.md §4).
* **Alpha-beta / branch-and-bound** (step [6]): a partial schedule is
  extended only while ``mu(Φ) < mu(pi)`` — NOPs never decrease as a
  schedule grows.  Strict inequality prunes equal-cost subtrees without
  sacrificing optimality (completing them could only tie).
* **Curtail point λ** (steps [2]/[4]): the search stops after λ Ω calls;
  the best schedule found so far is returned and flagged as possibly
  suboptimal (condition [2] of section 2.3).

Plus three further optimality-preserving prunes in the same spirit
("the search space is pruned dramatically, but the optimal solution will
never be pruned"), each individually toggleable for the ablation
experiments:

* **Heuristic incumbents**: besides pricing the list-schedule seed, the
  pipeline-aware Gross/greedy baselines are priced and the cheapest
  becomes the starting incumbent — a tighter α-β bound from the start.
* **Admissible lower bounds**: a node is abandoned when
  ``mu(Φ) + LB ≥ mu(pi)`` for two cheap bounds on the NOPs any
  completion must still add: the latency-weighted critical path of the
  unscheduled region (each ready candidate's earliest issue plus its
  downstream chain, against the remaining issue slots), and per-pipeline
  enqueue capacity (k pending users of a pipeline cannot issue closer
  than its enqueue time).  Evaluated at the root, these sometimes prove
  the incumbent optimal before any search ("instant proof").
* **Dominance memoization**: two partial schedules with the same
  scheduled *set* and the same timing interface — relative pipeline
  busy times plus the clamped ready-time contributions of recently
  issued producers that still have unscheduled consumers — admit exactly
  the same completions at the same future cost; a node whose prefix NOP
  count is no better than a previously expanded twin is pruned.

Ω-call accounting
-----------------
``omega_calls`` counts every NOP-insertion evaluation over a schedule or
schedule extension: ``n`` per incumbent-seeding schedule priced (step
[1]) plus one per candidate extension examined (step [4] increments Λ
once per considered swap).  This matches the magnitudes of the paper's
Table 1 "Proposed Pruning Calls" column.

Candidate ordering tries cheapest extensions first (fewest immediate
NOPs, then seed-schedule position), so the search deepens along good
schedules early — this is what makes the alpha-beta bound effective.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG
from ..ir.loop import LoopBlock
from ..machine.machine import MachineDescription
from ..telemetry import Telemetry, prune_counts
from .core import (
    check_engine,
    resolve_engine,
    run_fast_search,
    run_native_search,
)
from .heuristics import greedy_schedule, gross_schedule
from .list_scheduler import list_schedule, program_order
from .nop_insertion import (
    IncrementalTimingState,
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
    compute_timing,
)

#: Default curtail point; the paper found λ on the order of 1,000
#: sufficient for the vast majority of blocks and used values "always
#: large relative to the number of items searched for an optimal search
#: of an average block".
DEFAULT_CURTAIL = 50_000


@dataclass(frozen=True)
class SearchOptions:
    """Tuning knobs of the branch-and-bound search.

    The boolean flags exist for the ablation experiments; disabling any
    of them never changes the optimum found (every prune is
    optimality-preserving), only the work done.  ``SearchOptions.paper()``
    is the paper-faithful configuration (α-β + equivalence only);
    the default enables everything.
    """

    curtail: int = DEFAULT_CURTAIL
    alpha_beta: bool = True
    equivalence_prune: bool = True
    lower_bound_prune: bool = True
    dominance_prune: bool = True
    heuristic_seeds: bool = True
    seed_with_list_schedule: bool = True
    cheapest_first: bool = True  # candidate ordering by immediate eta
    max_memo_entries: int = 1_000_000
    time_limit: Optional[float] = None  # seconds; None = unlimited
    #: Register-pressure budget: schedules whose linear-scan pressure
    #: would exceed this are treated as illegal.  Section 3.1 creates
    #: spill code so *program order* fits the register file; this
    #: constraint keeps the search from reordering past the budget, so
    #: post-scheduling allocation never needs new spills.  ``None``
    #: (default) assumes "always enough registers", as the paper's
    #: simulations do.
    max_live: Optional[int] = None
    #: Which DFS implementation runs the search: ``"fast"`` (the flattened
    #: array engine in ``repro.sched.core`` — bitmask ready sets, explicit
    #: stack, in-place do/undo), ``"native"`` (the same DFS compiled to C
    #: in ``repro.native`` and bound through ctypes; degrades to
    #: ``"fast"`` with a one-line notice when no C compiler is available)
    #: or ``"reference"`` (the readable recursive formulation below).
    #: All three are bit-for-bit identical in every ``SearchResult``
    #: field except ``elapsed_seconds``; the reference is kept for
    #: ablation and differential testing.  The retired name ``"vector"``
    #: is still accepted and runs ``"fast"`` (see
    #: :func:`repro.sched.core.resolve_engine`).
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.curtail < 1:
            raise ValueError("curtail point must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive")
        check_engine(self.engine)
        if self.max_memo_entries < 0:
            raise ValueError("max_memo_entries must be non-negative")
        if self.max_live is not None and self.max_live < 3:
            raise ValueError(
                "max_live must be at least 3 (a binary operation keeps "
                "three values live at once)"
            )

    @classmethod
    def paper(cls, curtail: int = DEFAULT_CURTAIL) -> "SearchOptions":
        """The prune set exactly as published (sections 4.2.3 and 2.3),
        with 5c in its sound refinement."""
        return cls(
            curtail=curtail,
            alpha_beta=True,
            equivalence_prune=True,
            lower_bound_prune=False,
            dominance_prune=False,
            heuristic_seeds=False,
            cheapest_first=False,
        )

    def with_curtail(self, curtail: int) -> "SearchOptions":
        return replace(self, curtail=curtail)


def unsupported_backend_option(backend: str, field_name: str) -> ValueError:
    """Structured error for a request field a backend cannot honor.

    Every unsupported backend/option combination raises through here so
    the message shape is uniform and the offending field is carried as
    machine-readable attributes (``error.backend`` / ``error.field``).
    """
    error = ValueError(
        f"the {backend!r} backend does not support {field_name!r}; "
        "use backend='search'"
    )
    error.backend = backend
    error.field = field_name
    return error


@dataclass(frozen=True)
class ScheduleRequest:
    """One self-contained scheduling problem: what to schedule, on which
    machine, under which configuration.

    The unified request form accepted by :func:`schedule_block`, the new
    loop entry :func:`repro.sched.pipelining.schedule_loop`, and the
    service fingerprint path
    (:func:`repro.service.fingerprint.fingerprint_problem`) — one object
    to build, log, and hand around instead of a sprawl of keyword
    arguments.  The legacy keyword signatures remain as thin wrappers
    that build a request internally; nothing is deprecated.

    ``problem`` is a :class:`~repro.ir.dag.DependenceDAG` or
    :class:`~repro.ir.block.BasicBlock` for block scheduling, or a
    :class:`~repro.ir.loop.LoopBlock` for modulo loop scheduling.
    """

    problem: Union[DependenceDAG, BasicBlock, LoopBlock]
    machine: MachineDescription
    options: SearchOptions = SearchOptions()
    backend: str = "search"
    engine: Optional[str] = None
    assignment: Optional[PipelineAssignment] = None
    seed: Optional[Tuple[int, ...]] = None
    initial_conditions: Optional[InitialConditions] = None
    ilp_options: Optional[object] = None

    def __post_init__(self) -> None:
        if not isinstance(
            self.problem, (DependenceDAG, BasicBlock, LoopBlock)
        ):
            raise TypeError(
                "problem must be a DependenceDAG, BasicBlock or LoopBlock, "
                f"not {type(self.problem).__name__}"
            )
        if self.backend not in ("search", "ilp"):
            raise ValueError(
                f"unknown scheduling backend {self.backend!r} "
                "(expected 'search' or 'ilp')"
            )
        if self.engine is not None:
            check_engine(self.engine)
        if self.seed is not None:
            object.__setattr__(self, "seed", tuple(self.seed))

    @property
    def is_loop(self) -> bool:
        return isinstance(self.problem, LoopBlock)

    @cached_property
    def dag(self) -> DependenceDAG:
        """The problem as a dependence DAG (built on demand from a block;
        a loop request exposes its *body* DAG)."""
        if isinstance(self.problem, DependenceDAG):
            return self.problem
        if isinstance(self.problem, LoopBlock):
            return DependenceDAG(self.problem.body)
        return DependenceDAG(self.problem)

    @property
    def loop(self) -> LoopBlock:
        if not isinstance(self.problem, LoopBlock):
            raise TypeError("this request's problem is not a LoopBlock")
        return self.problem


@runtime_checkable
class ScheduleOutcome(Protocol):
    """The protocol every scheduling result satisfies.

    :class:`SearchResult`, :class:`repro.ilp.backend.IlpSearchResult`
    and :class:`repro.sched.pipelining.ModuloScheduleResult` all expose:

    * ``schedule`` — the winning :class:`ScheduleTiming` (for a loop
      result, the steady-state kernel window);
    * ``objective`` — the minimized integer (total NOPs for blocks, the
      initiation interval for loops);
    * ``provenance`` — which backend produced it (``"search"``,
      ``"ilp"``, ``"modulo"``);
    * ``elapsed_seconds`` / ``completed`` — wall time and whether the
      result is provably optimal.

    ``isinstance(result, ScheduleOutcome)`` works at runtime.
    """

    schedule: ScheduleTiming
    objective: int
    provenance: str
    elapsed_seconds: float
    completed: bool


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one optimal-scheduling run."""

    best: ScheduleTiming
    initial: ScheduleTiming
    omega_calls: int
    completed: bool  # condition [1]: search exhausted, best is optimal
    elapsed_seconds: float
    improvements: int  # times the incumbent was replaced
    proved_by_bound: bool = False  # incumbent matched the root lower bound
    timed_out: bool = False  # truncated by the wall-clock deadline
    #: Dominance-memo entries evicted (FIFO) to honor ``max_memo_entries``.
    memo_evicted: int = 0
    #: Prune events by kind (see ``repro.telemetry.PRUNE_KINDS``).
    prune_counts: Mapping[str, int] = field(default_factory=dict)

    #: Backend provenance (:class:`ScheduleOutcome` protocol).  The ILP
    #: subclass overrides this with ``"ilp"``, the modulo scheduler's
    #: result carries ``"modulo"``.
    provenance = "search"

    @property
    def optimal(self) -> bool:
        """Provably optimal (alias of ``completed``)."""
        return self.completed

    @property
    def schedule(self) -> ScheduleTiming:
        """The winning timing (:class:`ScheduleOutcome` protocol; alias
        of ``best``)."""
        return self.best

    @property
    def objective(self) -> int:
        """The minimized integer — total NOPs (:class:`ScheduleOutcome`
        protocol; alias of ``final_nops``)."""
        return self.best.total_nops

    @property
    def initial_nops(self) -> int:
        return self.initial.total_nops

    @property
    def final_nops(self) -> int:
        return self.best.total_nops

    def __str__(self) -> str:
        status = "optimal" if self.completed else "truncated"
        return (
            f"SearchResult({status}, nops {self.initial_nops} -> "
            f"{self.final_nops}, {self.omega_calls} omega calls)"
        )


def root_lower_bound(
    dag: DependenceDAG,
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
) -> int:
    """Admissible lower bound on any schedule's NOP count (the "root"
    bound the search tests its first incumbent against).

    The larger of the latency-weighted critical path (the longest
    ``1 + latency``-chain must fit in ``n`` issue slots plus stalls) and
    per-pipeline enqueue capacity (``k`` users of a pipeline cannot
    issue closer than its enqueue time).  Both ignore carry-in
    conditions, which can only raise the true optimum, so the bound
    stays admissible for every block.  Exposed so the verify oracle can
    record the bound that was active when a search was curtailed.
    """
    n = len(dag)
    if n == 0:
        return 0
    resolver = SigmaResolver(dag, machine, assignment)
    chain_below: Dict[int, int] = {}
    for t in reversed(dag.block.tuples):
        succ = tuple(dag.successors(t.ident))
        chain_below[t.ident] = (
            0
            if not succ
            else max(resolver.latency(t.ident) + chain_below[s] for s in succ)
        )
    bound = max(0, max(1 + chain_below[i] for i in dag.idents) - n)
    enqueue_of = {p.ident: p.enqueue_time for p in machine.pipelines}
    pipe_users: Dict[int, int] = {}
    for i in dag.idents:
        pid = resolver.sigma(i)
        if pid is not None:
            pipe_users[pid] = pipe_users.get(pid, 0) + 1
    for pid, k in pipe_users.items():
        bound = max(bound, ((k - 1) * enqueue_of[pid] + 1) - n)
    return bound


class _Curtailed(Exception):
    """Internal unwind signal: the curtail point (or time limit) was hit."""


def schedule_block(
    dag: Union[DependenceDAG, ScheduleRequest],
    machine: Optional[MachineDescription] = None,
    options: SearchOptions = SearchOptions(),
    assignment: Optional[PipelineAssignment] = None,
    seed: Optional[Sequence[int]] = None,
    initial_conditions: Optional[InitialConditions] = None,
    telemetry: Optional[Telemetry] = None,
    engine: Optional[str] = None,
    backend: str = "search",
    ilp_options=None,
) -> SearchResult:
    """Find a minimum-NOP schedule of ``dag`` for ``machine``.

    Parameters
    ----------
    dag:
        Dependence DAG of the block to schedule — or a complete
        :class:`ScheduleRequest`, in which case every other
        problem-defining parameter must stay at its default (only
        ``telemetry`` may be combined with a request).
    machine:
        Target machine description; must be deterministic (every
        operation on at most one pipeline) unless ``assignment`` pins
        each tuple's pipeline (used by the multi-pipeline extension).
    options:
        Search configuration (curtail point, prune toggles).
    assignment:
        Optional per-tuple pipeline assignment.
    seed:
        Initial schedule.  Defaults to the list schedule (or program
        order when ``options.seed_with_list_schedule`` is off).
    initial_conditions:
        Carry-in pipeline/memory state from preceding blocks (footnote 1,
        see ``repro.sched.interblock``).  Defaults to an idle machine.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` registry; the
        search's prune counters and wall time are folded into it.
    engine:
        ``"fast"``, ``"native"`` or ``"reference"``; overrides
        ``options.engine``.  All engines return bit-for-bit identical
        results (everything except ``elapsed_seconds``); ``"native"``
        degrades to ``"fast"`` when no C compiler is available (a
        one-line stderr notice, once per process).  See
        :mod:`repro.sched.core` and :mod:`repro.native`.
    backend:
        ``"search"`` (this module's branch-and-bound over orders) or
        ``"ilp"`` (the time-indexed ILP witness in :mod:`repro.ilp`,
        which proves the incumbent optimal or beats it and returns an
        ``IlpSearchResult`` carrying its LP dual bound).  The ILP
        backend supports neither an ``engine`` override nor
        ``max_live``; both raise the structured ``ValueError`` of
        :func:`unsupported_backend_option`, naming the field.
    ilp_options:
        Optional :class:`repro.ilp.IlpOptions` budgets; only meaningful
        with ``backend="ilp"``.

    Returns
    -------
    SearchResult
        ``completed=True`` means the search exhausted the pruned space
        (or the incumbent met an admissible lower bound) and ``best`` is
        provably optimal; otherwise the curtail point or time limit
        truncated the search and ``best`` is the incumbent.
    """
    start = time.perf_counter()
    if isinstance(dag, ScheduleRequest):
        request = dag
        overridden = [
            name
            for name, value, default in (
                ("machine", machine, None),
                ("options", options, SearchOptions()),
                ("assignment", assignment, None),
                ("seed", seed, None),
                ("initial_conditions", initial_conditions, None),
                ("engine", engine, None),
                ("backend", backend, "search"),
                ("ilp_options", ilp_options, None),
            )
            if value != default
        ]
        if overridden:
            raise ValueError(
                "pass either a ScheduleRequest or the legacy keyword "
                f"arguments, not both (also given: {', '.join(overridden)})"
            )
        if request.is_loop:
            raise TypeError(
                "this request carries a LoopBlock; use "
                "repro.sched.pipelining.schedule_loop for loop problems"
            )
        dag = request.dag
        machine = request.machine
        options = request.options
        assignment = request.assignment
        seed = request.seed
        initial_conditions = request.initial_conditions
        engine = request.engine
        backend = request.backend
        ilp_options = request.ilp_options
    elif isinstance(dag, BasicBlock):
        dag = DependenceDAG(dag)
    if machine is None:
        raise TypeError(
            "machine is required unless a ScheduleRequest is passed"
        )
    n = len(dag)
    if backend not in ("search", "ilp"):
        raise ValueError(
            f"unknown scheduling backend {backend!r} (expected 'search' or 'ilp')"
        )
    if backend == "ilp" and options.max_live is not None:
        raise unsupported_backend_option("ilp", "max_live")
    if backend == "ilp" and engine is not None:
        raise unsupported_backend_option("ilp", "engine")
    engine_name = resolve_engine(
        options.engine if engine is None else engine, telemetry=telemetry
    )

    def _done(result: SearchResult) -> SearchResult:
        if telemetry is not None:
            telemetry.record_search(result)
        return result

    resolver = SigmaResolver(dag, machine, assignment)
    initial = (
        initial_conditions if initial_conditions is not None else InitialConditions()
    )

    budget = options.max_live

    def fits_budget(order) -> bool:
        if budget is None:
            return True
        from ..regalloc.liveness import max_live as pressure_of

        return pressure_of(dag.block, order) <= budget

    if seed is None:
        seed = (
            list_schedule(dag)
            if options.seed_with_list_schedule
            else program_order(dag)
        )
        if not fits_budget(seed):
            # Program order is the one schedule the spill pre-pass
            # guarantees to fit the register budget (section 3.1).
            seed = program_order(dag)
    seed = tuple(seed)
    if sorted(seed) != sorted(dag.idents):
        raise ValueError("seed must be a permutation of the block's tuples")
    if not fits_budget(seed):
        raise ValueError(
            f"seed schedule needs more than max_live={budget} registers; "
            "run the spill pre-pass (repro.regalloc.insert_spill_code) first"
        )

    if backend == "ilp":
        from ..ilp.backend import run_ilp_search

        return _done(
            run_ilp_search(
                dag, machine, resolver, options, ilp_options, initial,
                seed, assignment, start,
            )
        )

    # ------------------------------------------------------------------
    # Engine dispatch: from here on the flattened array engine and the
    # recursive reference below run the *same* search — identical seed
    # pricing, incumbents, candidate order, prune decisions, Ω accounting
    # and memo policy — so every field of the result except
    # elapsed_seconds is bit-for-bit equal.
    # ------------------------------------------------------------------
    if engine_name == "fast":
        return _done(
            run_fast_search(
                dag, machine, resolver, options, initial, seed,
                fits_budget, start,
            )
        )
    if engine_name == "native":
        return _done(
            run_native_search(
                dag, machine, resolver, options, initial, seed,
                fits_budget, start,
            )
        )

    # Step [1]: price the seed schedule (n omega calls), plus the
    # heuristic incumbents when enabled.
    seed_timing = compute_timing(dag, seed, machine, assignment, initial=initial)
    omega_calls = n
    best = seed_timing
    improvements = 0
    if options.heuristic_seeds and n > 1:
        for heuristic in (gross_schedule, greedy_schedule):
            candidate = heuristic(dag, machine, assignment, initial)
            omega_calls += n
            if candidate.total_nops < best.total_nops and fits_budget(
                candidate.order
            ):
                best = candidate
                improvements += 1

    if n <= 1:
        return _done(
            SearchResult(
                best,
                seed_timing,
                omega_calls,
                True,
                time.perf_counter() - start,
                0,
                prune_counts=prune_counts(),
            )
        )

    # ------------------------------------------------------------------
    # Static structure shared by the bounds and the DFS.
    # ------------------------------------------------------------------
    idents = dag.idents
    successors: Dict[int, Tuple[int, ...]] = {
        i: tuple(dag.successors(i)) for i in idents
    }
    # Latency-weighted downstream chain: any consumer chain below z forces
    # the last issue to trail z's issue by at least chain_below[z].
    chain_below: Dict[int, int] = {}
    for t in reversed(dag.block.tuples):
        succ = successors[t.ident]
        chain_below[t.ident] = (
            0
            if not succ
            else max(resolver.latency(t.ident) + chain_below[s] for s in succ)
        )
    enqueue_of = {p.ident: p.enqueue_time for p in machine.pipelines}
    pipe_users: Dict[int, int] = {}
    for i in idents:
        pid = resolver.sigma(i)
        if pid is not None:
            pipe_users[pid] = pipe_users.get(pid, 0) + 1
    max_latency = max(
        (p.latency for p in machine.pipelines), default=1
    )

    # ------------------------------------------------------------------
    # Root lower bound: can the incumbent already be proven optimal?
    # ------------------------------------------------------------------
    if options.lower_bound_prune:
        root_lb = max(0, max(1 + chain_below[i] for i in idents) - n)
        for pid, k in pipe_users.items():
            root_lb = max(root_lb, ((k - 1) * enqueue_of[pid] + 1) - n)
        if best.total_nops <= root_lb:
            return _done(
                SearchResult(
                    best,
                    seed_timing,
                    omega_calls,
                    True,
                    time.perf_counter() - start,
                    improvements,
                    proved_by_bound=True,
                    prune_counts=prune_counts(bounds=1),
                )
            )

    # ------------------------------------------------------------------
    # DFS state (reference engine).
    # ------------------------------------------------------------------
    seed_pos = {ident: pos for pos, ident in enumerate(seed)}
    state = IncrementalTimingState(dag, resolver, initial)
    indegree = {i: len(dag.rho(i)) for i in idents}
    ready: List[int] = [i for i in idents if indegree[i] == 0]
    # Sound 5c refinement: interchangeable candidates share no pipeline,
    # no predecessors, and identical successor sets.
    trivial: Dict[int, Optional[FrozenSet[int]]] = {
        i: (
            frozenset(successors[i])
            if resolver.sigma(i) is None and indegree[i] == 0
            else None
        )
        for i in idents
    }
    bit = {ident: 1 << k for k, ident in enumerate(idents)}
    memo: Dict[tuple, int] = {}
    # Carry-in variable-ready bounds (footnote 1) decay with time, so the
    # dominance key must carry their residuals (see interface_key).
    var_bounds = state._var_bound

    # Register-pressure tracking (only when a budget is set): mirrors the
    # linear-scan allocator — operands free at their last use, before the
    # destination register is claimed.
    block_by_ident = dag.block.by_ident
    operand_sets: Dict[int, tuple] = {
        i: tuple(set(block_by_ident(i).value_refs)) for i in idents
    }
    consumers_left: Dict[int, int] = {i: 0 for i in idents}
    for i in idents:
        for r in operand_sets[i]:
            consumers_left[r] += 1
    produces: Dict[int, bool] = {
        i: block_by_ident(i).op.produces_value for i in idents
    }
    live_count = 0  # values defined, with consumers still unscheduled

    def pressure_peak(ident: int) -> int:
        """Register pressure at the instant ``ident`` would execute next."""
        freed = sum(1 for r in operand_sets[ident] if consumers_left[r] == 1)
        return live_count - freed + (1 if produces[ident] else 0)

    curtail = options.curtail
    alpha_beta = options.alpha_beta
    equivalence = options.equivalence_prune
    lower_bounds = options.lower_bound_prune
    dominance = options.dominance_prune
    cheapest_first = options.cheapest_first
    max_memo = options.max_memo_entries
    deadline = (
        None if options.time_limit is None else start + options.time_limit
    )

    best_nops = best.total_nops
    best_timing = best
    peek = state.peek_eta
    issue_of = state._issue
    pipe_last = state._pipe_last

    # Prune-event counters (plain locals in the hot loop; flushed into
    # the SearchResult / telemetry registry once, at the end).
    n_legality = n_bounds = n_equivalence = n_alpha_beta = 0
    n_dominance = n_curtail = n_timeout = n_memo_evicted = 0
    timed_out = False

    def interface_key(mask: int) -> tuple:
        """Timing-relevant state, relative to the last issue time.

        Two prefixes with equal keys admit identical completions at
        identical future cost (see module docstring); only recently
        issued producers can still constrain the future, so the scan is
        bounded by the machine's maximum latency.
        """
        tl = issue_of[state._order[-1]]
        pipes = tuple(
            sorted(
                (pid, last - tl)
                for pid, last in pipe_last.items()
                if last - tl + enqueue_of[pid] > 1
            )
        )
        dangling: List[Tuple[int, int]] = []
        for ident in state._order[-(max_latency + 1) :]:
            slack = issue_of[ident] + resolver.latency(ident) - (tl + 1)
            if slack <= 0:
                continue
            for s in successors[ident]:
                if not (mask & bit[s]):
                    dangling.append((ident, slack))
                    break
        dangling.sort()
        residual_vars: Tuple[Tuple[int, int], ...] = ()
        if var_bounds:
            residual_vars = tuple(
                sorted(
                    (ident, bound - (tl + 1))
                    for ident, bound in var_bounds.items()
                    if not (mask & bit[ident]) and bound > tl + 1
                )
            )
        return (mask, pipes, tuple(dangling), residual_vars)

    def rec(remaining: int, mask: int) -> None:
        nonlocal best_nops, best_timing, improvements, omega_calls, live_count
        nonlocal n_legality, n_bounds, n_equivalence, n_alpha_beta
        nonlocal n_dominance, n_curtail, n_timeout, n_memo_evicted, timed_out
        if cheapest_first:
            cands = sorted(ready, key=lambda i: (peek(i), seed_pos[i]))
        else:
            cands = sorted(ready, key=seed_pos.__getitem__)
        # Steps [5a]/[5b]: unscheduled instructions whose rho set is not
        # yet contained in Phi are not candidates at this node.
        n_legality += remaining - len(cands)

        if state._order:
            mu = state.total_nops
            if lower_bounds:
                lb = 0
                for i in cands:
                    gap = 1 + peek(i) + chain_below[i] - remaining
                    if gap > lb:
                        lb = gap
                tl = issue_of[state._order[-1]]
                for pid, k in pipe_users.items():
                    if k:
                        last = pipe_last.get(pid)
                        base = (
                            last + enqueue_of[pid] if last is not None else tl + 1
                        )
                        gap = (base + (k - 1) * enqueue_of[pid]) - (tl + remaining)
                        if gap > lb:
                            lb = gap
                if mu + lb >= best_nops:
                    n_bounds += 1
                    return
            if dominance:
                key = interface_key(mask)
                prev = memo.get(key)
                if prev is not None:
                    if mu >= prev:
                        n_dominance += 1
                        return
                    memo[key] = mu  # tighter prefix: overwrite in place
                elif max_memo > 0:
                    if len(memo) >= max_memo:
                        # FIFO eviction (dict insertion order): bounded
                        # memory, graceful degradation — dominance only
                        # ever prunes, so optimality is unaffected.
                        memo.pop(next(iter(memo)))
                        n_memo_evicted += 1
                    memo[key] = mu

        if equivalence and len(cands) > 1:
            seen: set = set()
            filtered: List[int] = []
            for i in cands:
                sig = trivial[i]
                if sig is not None:
                    if sig in seen:
                        # Provably interchangeable with an earlier
                        # candidate at this node.
                        n_equivalence += 1
                        continue
                    seen.add(sig)
                filtered.append(i)
            cands = filtered

        for ident in cands:
            if budget is not None and pressure_peak(ident) > budget:
                continue  # would not be allocatable: treat as illegal
            # Step [4]: curtail-point truncation.
            if omega_calls >= curtail:
                n_curtail += 1
                raise _Curtailed
            if deadline is not None and time.perf_counter() > deadline:
                n_timeout += 1
                timed_out = True
                raise _Curtailed
            omega_calls += 1
            state.push(ident)
            pid = resolver.sigma(ident)
            if pid is not None:
                pipe_users[pid] -= 1
            if budget is not None:
                for r in operand_sets[ident]:
                    consumers_left[r] -= 1
                    if consumers_left[r] == 0:
                        live_count -= 1
                if produces[ident] and consumers_left[ident] > 0:
                    live_count += 1
            try:
                if remaining == 1:
                    # Step [3]: complete schedule; adopt if strictly better.
                    if state.total_nops < best_nops:
                        best_nops = state.total_nops
                        best_timing = state.snapshot()
                        improvements += 1
                elif alpha_beta and state.total_nops >= best_nops:
                    # Step [6]: mu never decreases as a schedule grows,
                    # so this prefix cannot beat the incumbent.
                    n_alpha_beta += 1
                else:
                    # Step [6]: extend only prefixes that can still win.
                    ready.remove(ident)
                    opened = []
                    for succ in successors[ident]:
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            ready.append(succ)
                            opened.append(succ)
                    try:
                        rec(remaining - 1, mask | bit[ident])
                    finally:
                        for succ in opened:
                            ready.remove(succ)
                        for succ in successors[ident]:
                            indegree[succ] += 1
                        ready.append(ident)
            finally:
                if budget is not None:
                    if produces[ident] and consumers_left[ident] > 0:
                        live_count -= 1
                    for r in operand_sets[ident]:
                        if consumers_left[r] == 0:
                            live_count += 1
                        consumers_left[r] += 1
                if pid is not None:
                    pipe_users[pid] += 1
                state.pop()

    completed = True
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 10 + 1000))
    try:
        rec(n, 0)
    except _Curtailed:
        completed = False
    finally:
        sys.setrecursionlimit(old_limit)

    return _done(
        SearchResult(
            best=best_timing,
            initial=seed_timing,
            omega_calls=omega_calls,
            completed=completed,
            elapsed_seconds=time.perf_counter() - start,
            improvements=improvements,
            timed_out=timed_out,
            memo_evicted=n_memo_evicted,
            prune_counts=prune_counts(
                legality=n_legality,
                bounds=n_bounds,
                equivalence=n_equivalence,
                alpha_beta=n_alpha_beta,
                curtail=n_curtail,
                timeout=n_timeout,
                dominance=n_dominance,
            ),
        )
    )
