"""The ``population`` and ``deep-search`` workloads: one block at a time,
in the benchmark's own process, through the public function of each
layer.

``population`` starts from source text and publishes what
``repro experiments`` publishes per block::

    parse_program -> lower_program -> optimize -> DependenceDAG
    -> compute_timing(program order) -> list_schedule
    -> schedule_block(seed=list schedule) -> check_schedule

``deep-search`` starts from the tuple text of optimized blocks on the
deep-memory machine, where the search does most of the work::

    parse_block -> DependenceDAG -> list_schedule
    -> schedule_block(seed=list schedule) -> check_schedule

Passing the list schedule as ``seed=`` gives the result
``schedule_block`` computes on its own, bit for bit, and lets the
benchmark time the seed apart from the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend import lower_program, parse_program
from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.opt import default_passes, optimize
from repro.sched.list_scheduler import list_schedule, program_order
from repro.sched.multi import first_pipeline_assignment
from repro.sched.nop_insertion import compute_timing
from repro.sched.search import SearchOptions, schedule_block
from repro.telemetry import PRUNE_KINDS
from repro.verify.certificate import check_schedule

from .spans import Tracer
from .speed import local_scales, reference_loop

#: Curtail point of every search (the ``repro experiments`` default).
CURTAIL = 50_000

#: Blocks run untimed before measuring, so lazy imports and first calls
#: into the native kernel are not charged to the first pass.
WARMUP_BLOCKS = 100

MACHINES = {"population": "paper-simulation", "deep-search": "deep-memory"}

#: Blocks between two timings of the reference loop.
SLICE = 50

#: Complete passes over the corpus whose times are kept (untraced, and
#: again traced with ``--trace 1``).  The number is fixed, so every block
#: has as many samples on every run and every commit; it is what fits in
#: a 20-second run of the program as it stood when the benchmark was
#: written.  Passes past these run only to check that outcomes repeat.
TIMED_PASSES = {"population": 3, "deep-search": 4}


@dataclass
class Outcome:
    """What one block published, plus the layer counts it produced."""

    nops: int = 0
    completed: bool = True
    omega_calls: int = 0
    proved_by_bound: bool = False
    searched: bool = False
    prune_counts: Dict[str, int] = field(default_factory=dict)
    tuples: int = 0
    tuples_removed: int = 0
    rounds: int = 0
    useful_rounds: int = 0
    dag_edges: int = 0
    error: Optional[str] = None

    def published(self) -> Tuple:
        """The fields every pass over the corpus must reproduce."""
        return (self.nops, self.completed, self.omega_calls, self.error)


class BlockWorkload:
    """One of the two in-process workloads over a fixed corpus."""

    def __init__(self, name: str, corpus: Sequence[Tuple[str, str]]) -> None:
        self.name = name
        self.corpus = corpus
        self.machine = get_machine(MACHINES[name])
        self.options = SearchOptions(curtail=CURTAIL, engine="native")
        self.tracer = Tracer(enabled=False)
        self._traced_passes = [
            (name, self.tracer.wrap(f"opt.{name}", fn)) for name, fn in default_passes()
        ]

    # -- the timed pipeline -------------------------------------------
    def _front(self, index: int, out: Outcome):
        name, text = self.corpus[index]
        call = self.tracer.call
        if self.name == "deep-search":
            return call("ir.parse_block", parse_block, text, name)
        program = call("frontend.parse", parse_program, text)
        block = call("frontend.lower", lower_program, program, name)
        out.tuples = len(block)
        if self.tracer.enabled:
            report = call("opt", optimize, block, passes=self._traced_passes)
        else:
            report = optimize(block)
        out.tuples_removed = report.tuples_removed
        out.rounds = report.rounds
        # ``optimize`` stops at the first round that leaves the block
        # unchanged: every round before it changed the block.
        out.useful_rounds = report.rounds - 1
        return report.block

    def process(self, index: int) -> Outcome:
        out = Outcome()
        call = self.tracer.call
        block = self._front(index, out)
        if not len(block):
            # The optimizer folded the program away: an empty, optimal
            # record, as ``repro experiments`` publishes it.
            return out
        machine = self.machine
        dag = call("ir.dag", DependenceDAG, block)
        if self.name == "population":
            call("sched.price", _price, dag, machine)
        seed = call("sched.list_seed", list_schedule, dag)
        result = call("sched.search", schedule_block, dag, machine, self.options, seed=seed)
        cert = call("verify.certify", _certify, dag, machine, result.best)
        out.nops = result.final_nops
        out.completed = result.completed
        out.omega_calls = result.omega_calls
        out.proved_by_bound = result.proved_by_bound
        out.searched = True
        out.prune_counts = dict(result.prune_counts)
        out.dag_edges = len(dag.edges)
        if not cert.ok:
            out.error = f"certificate rejects the schedule: {cert.summary()}"
        elif cert.required_nops != result.final_nops:
            out.error = (
                f"certificate re-derives {cert.required_nops} NOPs, "
                f"the search publishes {result.final_nops}"
            )
        return out

    # -- measurement ---------------------------------------------------
    def measure(self, seconds: float, trace: bool) -> "BlockMeasurement":
        """Pass over the corpus until ``seconds`` have passed and the
        timed passes are complete.

        With ``trace`` passes alternate untraced and traced, so drift in
        machine speed hits both alike.  The first :data:`TIMED_PASSES`
        passes of each kind always complete and keep their times; later
        passes run untraced and untimed, until the deadline, only to
        check outcomes.  Every block's outcome must repeat exactly on
        every pass.
        """
        n = len(self.corpus)
        m = BlockMeasurement(n)
        for i in range(min(n, WARMUP_BLOCKS)):
            self.process(i)
        kinds = 2 if trace else 1
        timed = TIMED_PASSES[self.name] * kinds
        deadline = time.perf_counter() + seconds
        p = 0
        while p < timed or time.perf_counter() < deadline:
            traced = trace and p % 2 == 1 and p < timed
            self.tracer.enabled = traced
            samples = m.traced if traced else m.untraced
            references = []
            for i in range(n):
                if p >= timed and time.perf_counter() >= deadline:
                    break
                if p < timed and i % SLICE == 0:
                    references.append(reference_loop())
                t0 = time.perf_counter()
                try:
                    out = self.tracer.root("block", i, self.process, i)
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    out = Outcome(error=f"{type(exc).__name__}: {exc}")
                if p < timed:
                    samples[i].append(time.perf_counter() - t0)
                m.record(p, i, out)
            if p < timed:
                references.append(reference_loop())
                (m.traced_speed if traced else m.untraced_speed).append(local_scales(references))
                m.references += references
            p += 1
        self.tracer.enabled = False
        m.passes = p
        return m


def _price(dag: DependenceDAG, machine) -> None:
    compute_timing(dag, program_order(dag), machine)


def _certify(dag: DependenceDAG, machine, timing):
    return check_schedule(
        dag.block,
        machine,
        timing.order,
        timing.etas,
        assignment=first_pipeline_assignment(dag, machine),
    )


class BlockMeasurement:
    """Samples and outcomes of one :meth:`BlockWorkload.measure` call."""

    def __init__(self, n: int) -> None:
        self.n = n
        #: Seconds per block, one per timed pass, as measured.
        self.untraced: List[List[float]] = [[] for _ in range(n)]
        self.traced: List[List[float]] = [[] for _ in range(n)]
        #: Per timed pass, the factor per slice that brings block times
        #: to the reference speed (:func:`perfbench.speed.local_scales`).
        self.untraced_speed: List[List[float]] = []
        self.traced_speed: List[List[float]] = []
        #: Every reference-loop time of the timed passes.
        self.references: List[float] = []
        #: Outcomes of the first pass.
        self.first: List[Optional[Outcome]] = [None] * n
        self.attempted = 0
        self.errors: List[str] = []
        self.passes = 0

    def record(self, p: int, i: int, out: Outcome) -> None:
        self.attempted += 1
        if p == 0:
            self.first[i] = out
        if out.error is not None:
            self.errors.append(f"block {i}: {out.error}")
        elif p > 0 and out.published() != self.first[i].published():
            self.errors.append(f"block {i}: pass {p} published {out.published()}, "
                               f"pass 0 {self.first[i].published()}")

    def block_times(self, traced: bool) -> List[float]:
        """Each block's fastest time over its timed passes, at the
        reference speed.

        On a shared machine other tenants slow the CPU down for seconds
        to minutes at a time.  Each block time is scaled by how fast the
        reference loop ran around it, and the fastest of a fixed number
        of passes filters out what the scaling misses, where a median
        lands in whichever phase held the majority.
        """
        samples, speeds = (self.traced, self.traced_speed) if traced else (
            self.untraced, self.untraced_speed)
        return [
            min(t * speed[i // SLICE] for t, speed in zip(s, speeds))
            for i, s in enumerate(samples)
        ]

    def deterministic(self) -> Dict[str, float]:
        """Counts over one pass of the corpus: identical on every run
        with the same seed."""
        first = self.first
        searched = [o for o in first if o.searched]
        rounds = sum(o.rounds for o in first)
        return {
            "nops_total": sum(o.nops for o in first),
            "optimal_frac": sum(o.completed for o in first) / self.n,
            "sched.omega_calls": sum(o.omega_calls for o in first),
            "sched.curtailed": sum(not o.completed for o in first),
            "sched.root_proved_frac": (
                sum(o.proved_by_bound for o in searched) / len(searched) if searched else 0.0
            ),
            "verify.certified": sum(o.searched and o.error is None for o in first),
            "frontend.tuples": sum(o.tuples for o in first),
            "opt.tuples_removed": sum(o.tuples_removed for o in first),
            "opt.rounds": rounds,
            "opt.useful_round_frac": sum(o.useful_rounds for o in first) / rounds if rounds else 0.0,
            "ir.dag_edges": sum(o.dag_edges for o in first),
            **{
                f"sched.prune.{kind}": sum(o.prune_counts.get(kind, 0) for o in first)
                for kind in PRUNE_KINDS
            },
        }
