"""Engine selection and the flattened preamble of the native search.

The recursive reference formulations in :mod:`repro.sched.search` and
:mod:`repro.sched.splitting` are written for readability: frozen
dataclasses, per-node dict/set churn, ``IncrementalTimingState`` method
calls, recursion.  The native engine runs the *same* searches in C
(:mod:`repro.native`) on a flattened representation built here:

* the DAG and machine are lowered once per block into packed integer
  arrays (:class:`_Flat`) — predecessor/successor index lists and
  latency/enqueue/pipeline tables as flat lists indexed by dense
  instruction index (position in ``dag.idents``, so the kernel's
  scheduled-set masks are bit-for-bit the ones the reference engine
  keys its memo on);
* the search preamble — seed pricing, the heuristic incumbents, the
  latency-chain and pipeline-user tables and the root lower bound — runs
  in Python on those arrays (:func:`run_native_search`); only the DFS
  itself, and the windowed splitter, cross into the C kernel.

Bit-for-bit equality
--------------------
All five prunes (legality, equivalence, α-β, lower bounds, dominance),
the curtail/time-limit semantics, the register-pressure budget, the
carry-in conditions and the Ω-call accounting follow the reference
control flow exactly, in the same order; dense relabeling is a bijection
on instructions and pipelines, so every memo/equivalence key equality
class — hence every prune decision and count — is preserved.  The
differential tests in ``tests/test_hot_core.py`` and
``tests/test_native.py`` and the ``repro verify`` oracle hold the two
engines to byte-identical ``SearchResult``/``SplitScheduleResult``
contents (everything except wall time).

Engines
-------
This module is the one place that knows the engine names.
:data:`ENGINES` lists the two: ``native`` (the compiled search, the
default) and ``reference`` (the recursive formulation).
:func:`check_engine` validates a requested name; :func:`resolve_engine`
maps it onto the engine that runs in this process, holding the retired
aliases (``fast`` and ``vector`` both run ``native``) and the one
fallback (``native`` runs ``reference`` when the C kernel cannot be
built).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..telemetry import prune_counts
from .nop_insertion import (
    InitialConditions,
    ScheduleTiming,
    SigmaResolver,
)

__all__ = [
    "ENGINES",
    "ENGINE_ALIASES",
    "DfsOutcome",
    "check_engine",
    "resolve_engine",
    "run_native_search",
    "run_native_split",
]

#: The search engines, bit-for-bit identical in every recorded field.
ENGINES = ("native", "reference")

#: Retired engine names still accepted as input (service requests and
#: checkpoint journals outlive the code) and the engine each now runs.
ENGINE_ALIASES = {"fast": "native", "vector": "native"}

#: Aliases whose deprecation notice this process has already printed.
_alias_warned: Set[str] = set()
_native_fallback_warned = False


def check_engine(engine: str) -> str:
    """Validate an engine name; returns the engine it selects.

    Accepts every name in :data:`ENGINES` plus the retired aliases
    (silently mapped); anything else raises ``ValueError``.
    """
    if engine in ENGINES:
        return engine
    if engine in ENGINE_ALIASES:
        return ENGINE_ALIASES[engine]
    names = ", ".join(repr(name) for name in ENGINES[:-1])
    raise ValueError(
        f"unknown search engine {engine!r} "
        f"(expected {names} or {ENGINES[-1]!r})"
    )


def resolve_engine(engine: str, telemetry=None) -> str:
    """Map a requested engine onto the one that runs in this process.

    A retired alias runs the engine it maps to, after a one-line stderr
    notice (once per alias per process).  ``"native"`` degrades to
    ``"reference"`` when the C kernel cannot be compiled/loaded, after
    its own one-line notice (once per process), and bumps the
    ``search.engine_fallbacks`` counter when a telemetry registry is
    attached.  Unknown names raise ``ValueError``.  Population runs
    resolve in the *parent*, so ``--workers N`` still prints each notice
    once in total.  Safe to call in worker processes: both engines are
    bit-for-bit identical in every recorded field, so the substitution
    never changes results, only wall time.
    """
    global _native_fallback_warned
    resolved = check_engine(engine)
    if resolved != engine and engine not in _alias_warned:
        _alias_warned.add(engine)
        print(
            f"repro: engine {engine!r} is deprecated; running "
            f"{resolved!r} (results are bit-for-bit identical)",
            file=sys.stderr,
        )
    if resolved == "native":
        from ..native import native_available, unavailable_reason

        if not native_available():
            if not _native_fallback_warned:
                _native_fallback_warned = True
                print(
                    f"repro: engine 'native' unavailable "
                    f"({unavailable_reason()}); falling back to "
                    "'reference' (results are bit-for-bit identical)",
                    file=sys.stderr,
                )
            if telemetry is not None:
                telemetry.count("search.engine_fallbacks")
            return "reference"
    return resolved


@dataclass(frozen=True)
class DfsOutcome:
    """What the C DFS hands back to :func:`run_native_search`."""

    best: ScheduleTiming
    omega_calls: int
    improvements: int
    completed: bool
    timed_out: bool
    memo_evicted: int
    prune_counts: Mapping[str, int]


class _Flat:
    """Packed-array lowering of one (dag, machine, carry-in) triple.

    Dense instruction index = position in ``dag.idents``; dense pipeline
    index = rank of the pipeline ident in sorted order.  Both maps are
    bijections, so keys built from dense indices partition exactly like
    keys built from the original identifiers.
    """

    __slots__ = (
        "n", "idents", "index_of", "lat", "enq", "sig",
        "preds", "succs", "P", "pipe_enq", "pipe_last", "var_bound", "has_vb",
    )

    def __init__(
        self,
        dag: DependenceDAG,
        machine: MachineDescription,
        resolver: SigmaResolver,
        initial: Optional[InitialConditions],
    ) -> None:
        idents = dag.idents
        n = len(idents)
        index_of = {ident: k for k, ident in enumerate(idents)}
        self.n = n
        self.idents = idents
        self.index_of = index_of
        self.lat = [resolver.latency(i) for i in idents]
        self.enq = [resolver.enqueue_time(i) for i in idents]

        pipe_ids = sorted(p.ident for p in machine.pipelines)
        pidx = {pid: k for k, pid in enumerate(pipe_ids)}
        self.P = len(pipe_ids)
        self.pipe_enq = [
            machine.pipeline(pid).enqueue_time for pid in pipe_ids
        ]
        self.sig = [
            -1 if resolver.sigma(i) is None else pidx[resolver.sigma(i)]
            for i in idents
        ]

        self.preds = [
            tuple(index_of[p] for p in dag.rho(i)) for i in idents
        ]
        self.succs = [
            tuple(index_of[s] for s in dag.successors(i)) for i in idents
        ]

        # Carry-in conditions, exactly as IncrementalTimingState seeds
        # them: a pipeline busy until cycle c is a phantom enqueue at
        # c - enqueue_time (may be negative, hence the None sentinel),
        # and variable-ready cycles become per-instruction issue bounds.
        self.pipe_last: List[Optional[int]] = [None] * self.P
        self.var_bound: List[Optional[int]] = [None] * n
        if initial is not None and not initial.is_trivial:
            for pid, free_at in initial.pipe_free.items():
                enqueue = machine.pipeline(pid).enqueue_time
                self.pipe_last[pidx[pid]] = free_at - enqueue
            for t in dag.block:
                var = t.variable
                if var is not None and var in initial.variable_ready:
                    self.var_bound[index_of[t.ident]] = (
                        initial.variable_ready[var]
                    )
        self.has_vb = any(b is not None for b in self.var_bound)


def _flat_timing(flat: _Flat, dense_order: List[int]) -> ScheduleTiming:
    """Price a complete schedule on the flat arrays (Ω over the order).

    Equivalent to ``compute_timing`` / pushing the order through a fresh
    ``IncrementalTimingState`` — same η recurrence, same carry-ins.
    """
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    idents = flat.idents
    pipe_last = list(flat.pipe_last)
    issue = [0] * flat.n
    etas: List[int] = []
    issues: List[int] = []
    prev = -1  # issue time of the previous instruction; base = prev + 1
    for k in dense_order:
        base = prev + 1
        e = base
        p = sig[k]
        if p >= 0:
            pl = pipe_last[p]
            if pl is not None:
                v = pl + enq[k]
                if v > e:
                    e = v
        if has_vb:
            v = var_bound[k]
            if v is not None and v > e:
                e = v
        for d in preds[k]:
            v = issue[d] + lat[d]
            if v > e:
                e = v
        issue[k] = e
        etas.append(e - base)
        issues.append(e)
        if p >= 0:
            pipe_last[p] = e
        prev = e
    return ScheduleTiming(
        tuple(idents[k] for k in dense_order),
        tuple(etas),
        tuple(issues),
    )


def _flat_greedy(
    flat: _Flat, tiebreak: List[Tuple[int, ...]]
) -> ScheduleTiming:
    """The Gross/Abraham greedy of ``repro.sched.heuristics``, flattened.

    ``tiebreak[k]`` is the tie-break key suffix for dense index ``k``;
    each step picks the ready instruction minimizing ``(η, *tiebreak)``
    exactly as ``_greedy`` does.  Tie-break suffixes end in the unique
    program position, so the minimum is unique and the emitted order —
    hence the timing — is identical to the reference heuristic's.
    """
    n = flat.n
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    succs = flat.succs
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    idents = flat.idents
    pipe_last = list(flat.pipe_last)
    issue = [0] * n
    etas: List[int] = []
    issues: List[int] = []
    out: List[int] = []
    indeg = [len(preds[k]) for k in range(n)]
    ready = [k for k in range(n) if indeg[k] == 0]
    prev = -1
    while ready:
        base = prev + 1
        best_k = -1
        best_e = 0
        best_key = None
        for k in ready:
            e = base
            p = sig[k]
            if p >= 0:
                pl = pipe_last[p]
                if pl is not None:
                    v = pl + enq[k]
                    if v > e:
                        e = v
            if has_vb:
                v = var_bound[k]
                if v is not None and v > e:
                    e = v
            for d in preds[k]:
                v = issue[d] + lat[d]
                if v > e:
                    e = v
            key = (e - base, *tiebreak[k])
            if best_key is None or key < best_key:
                best_k, best_e, best_key = k, e, key
        ready.remove(best_k)
        out.append(best_k)
        issue[best_k] = best_e
        etas.append(best_e - base)
        issues.append(best_e)
        p = sig[best_k]
        if p >= 0:
            pipe_last[p] = best_e
        prev = best_e
        for s in succs[best_k]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return ScheduleTiming(
        tuple(idents[k] for k in out),
        tuple(etas),
        tuple(issues),
    )


def run_native_search(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    options,
    initial: Optional[InitialConditions],
    seed: Tuple[int, ...],
    fits_budget,
    start: float,
):
    """Everything ``schedule_block`` does after seed validation, natively.

    Seed pricing (step [1]), the heuristic incumbents and the root lower
    bound run in Python on one ``_Flat`` lowering of the block, so the
    native path pays a single lowering where the reference path builds a
    resolver + incremental state per pricing pass; the DFS itself runs
    in the C kernel (:func:`repro.native.bindings.native_dfs`).  Mirrors
    the reference control flow in ``repro.sched.search`` decision for
    decision; returns a complete ``SearchResult`` (telemetry is recorded
    by the caller).  The caller has already resolved the engine, so the
    kernel is known to load.
    """
    from .search import SearchResult

    perf_counter = time.perf_counter
    n = len(dag)
    if not dag.is_legal_order(seed):
        raise ValueError("order is not a legal (dependence-respecting) schedule")
    flat = _Flat(dag, machine, resolver, initial)
    index_of = flat.index_of

    # Step [1]: price the seed schedule (n omega calls), plus the
    # heuristic incumbents when enabled.
    seed_timing = _flat_timing(flat, [index_of[i] for i in seed])
    omega_calls = n
    best = seed_timing
    improvements = 0
    if options.heuristic_seeds and n > 1:
        idents = flat.idents
        heights = dag.heights
        descendants = dag.descendants
        position = dag.block.position_of
        gross_keys = [
            (-heights[i], -len(descendants[i]), position(i)) for i in idents
        ]
        greedy_keys = [(position(i),) for i in idents]
        for tiebreak in (gross_keys, greedy_keys):
            candidate = _flat_greedy(flat, tiebreak)
            omega_calls += n
            if candidate.total_nops < best.total_nops and fits_budget(
                candidate.order
            ):
                best = candidate
                improvements += 1

    if n <= 1:
        return SearchResult(
            best,
            seed_timing,
            omega_calls,
            True,
            perf_counter() - start,
            0,
            prune_counts=prune_counts(),
        )

    # Dense latency-weighted downstream chains: idents are program order
    # and dependences point forward, so a reverse scan sees successors
    # first (same recurrence as chain_below in the reference preamble).
    lat = flat.lat
    succs = flat.succs
    chain = [0] * n
    for k in range(n - 1, -1, -1):
        sk = succs[k]
        if sk:
            lk = lat[k]
            chain[k] = max(lk + chain[s] for s in sk)
    sig = flat.sig
    users = [0] * flat.P
    for k in range(n):
        if sig[k] >= 0:
            users[sig[k]] += 1
    max_latency = max((p.latency for p in machine.pipelines), default=1)

    # Root lower bound: can the incumbent already be proven optimal?
    if options.lower_bound_prune:
        root_lb = max(0, max(1 + c for c in chain) - n)
        pipe_enq = flat.pipe_enq
        for p in range(flat.P):
            ku = users[p]
            if ku:
                root_lb = max(root_lb, ((ku - 1) * pipe_enq[p] + 1) - n)
        if best.total_nops <= root_lb:
            return SearchResult(
                best,
                seed_timing,
                omega_calls,
                True,
                perf_counter() - start,
                improvements,
                proved_by_bound=True,
                prune_counts=prune_counts(bounds=1),
            )

    from ..native.bindings import native_dfs

    out = native_dfs(
        flat, dag, options, seed, best, omega_calls, improvements,
        start, chain, users, max_latency,
    )
    return SearchResult(
        best=out.best,
        initial=seed_timing,
        omega_calls=out.omega_calls,
        completed=out.completed,
        elapsed_seconds=perf_counter() - start,
        improvements=out.improvements,
        timed_out=out.timed_out,
        memo_evicted=out.memo_evicted,
        prune_counts=out.prune_counts,
    )


def run_native_split(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    seed: Tuple[int, ...],
    window: int,
    curtail_per_window: int,
    initial: Optional[InitialConditions],
) -> Tuple[ScheduleTiming, Tuple[Tuple[int, ...], ...], int, bool, Dict[str, int]]:
    """The windowed search of ``schedule_block_split``, in the C kernel.

    Returns ``(timing, windows, omega_calls, all_completed, totals)``;
    the caller wraps them into a ``SplitScheduleResult``.  The flat
    timing state is carried across windows inside the kernel exactly
    like the shared ``IncrementalTimingState`` in the reference, so
    cross-window latencies and enqueue conflicts are priced identically.
    The caller has already resolved the engine and routes empty blocks
    to the reference splitter (nothing to schedule, nothing to
    accelerate).
    """
    from ..native.bindings import native_split

    flat = _Flat(dag, machine, resolver, initial)
    timing, omega_calls, all_completed, totals = native_split(
        flat, seed, window, curtail_per_window
    )
    windows = tuple(
        tuple(seed[w_start:w_start + window])
        for w_start in range(0, len(seed), window)
    )
    return timing, windows, omega_calls, all_completed, totals
