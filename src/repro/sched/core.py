"""Flattened hot core of the branch-and-bound searches.

The recursive reference formulations in :mod:`repro.sched.search` and
:mod:`repro.sched.splitting` are written for readability: frozen
dataclasses, per-node dict/set churn, ``IncrementalTimingState`` method
calls, recursion.  This module runs the *same* searches on a flattened
representation:

* the DAG and machine are lowered once per block into packed integer
  arrays — predecessor/successor sets as bitmask ints, latency/enqueue/
  pipeline tables as flat lists indexed by dense instruction index
  (position in ``dag.idents``, so masks are bit-for-bit the ones the
  reference engine keys its memo on);
* the ready set is a single int mask, iterated lowest-bit-first;
* the recursive ``rec()`` becomes an explicit stack of candidate frames
  with in-place do/undo of the timing state (order/etas/issue arrays, a
  per-pipeline last-issue list with an undo stack);
* the dominance memo is keyed on small int tuples built from the same
  quantities.

Do/undo invariants
------------------
Every push of instruction ``k`` appends to ``order``/``etas``, writes
``issue[k]``, adds to the running NOP total and saves the clobbered
per-pipeline last-issue on a stack; the matching undo pops them in
reverse.  A node's candidate list (and each candidate's η) is computed
once, at node entry: between two sibling candidates the state is fully
restored, so the cached η equals what the reference recomputes at push
time.  Candidate sort keys include the unique seed position, so the
sorted order never depends on ready-list mutation order.

Bit-for-bit equality
--------------------
All five prunes (legality, equivalence, α-β, lower bounds, dominance),
the curtail/time-limit semantics, the register-pressure budget, the
carry-in conditions and the Ω-call accounting follow the reference
control flow exactly, in the same order; dense relabeling is a bijection
on instructions and pipelines, so every memo/equivalence key equality
class — hence every prune decision and count — is preserved.  The
differential tests in ``tests/test_hot_core.py`` and the ``repro
verify`` oracle hold the engines to byte-identical
``SearchResult``/``SplitScheduleResult`` contents (everything except
wall time).

Engines
-------
This module is the one place that knows the engine names.
:data:`ENGINES` lists them: ``fast`` (this module's flattened search),
``native`` (the same search compiled to C in :mod:`repro.native`) and
``reference`` (the recursive formulation in :mod:`repro.sched.search`
and :mod:`repro.sched.splitting`).  :func:`check_engine` validates a
requested name; :func:`resolve_engine` maps it onto the engine that
runs in this process, holding the one alias (the retired ``vector``
name runs ``fast``) and the one fallback (``native`` runs ``fast`` when
the C kernel cannot be built).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

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
    "FastOutcome",
    "check_engine",
    "resolve_engine",
    "run_fast_search",
    "run_fast_split",
    "run_native_search",
    "run_native_split",
    "warn_native_fallback",
]

#: The search engines, bit-for-bit identical in every recorded field.
ENGINES = ("fast", "native", "reference")

#: Retired engine names still accepted as input (service requests and
#: checkpoint journals outlive the code) and the engine each now runs.
ENGINE_ALIASES = {"vector": "fast"}

_alias_warned = False
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


def warn_native_fallback(reason: str) -> None:
    """Print the one-line native->fast fallback notice (once per process)."""
    global _native_fallback_warned
    if not _native_fallback_warned:
        _native_fallback_warned = True
        print(
            f"repro: engine 'native' unavailable ({reason}); "
            "falling back to 'fast' (results are bit-for-bit identical)",
            file=sys.stderr,
        )


def resolve_engine(engine: str, telemetry=None) -> str:
    """Map a requested engine onto the one that runs in this process.

    A retired alias runs the engine it maps to, after a one-line stderr
    notice (once per process).  ``"native"`` degrades to ``"fast"`` when
    the C kernel cannot be compiled/loaded, after its own one-line
    notice, and bumps the ``search.engine_fallbacks`` counter when a
    telemetry registry is attached.  Unknown names raise ``ValueError``.
    Population runs resolve in the *parent*, so ``--workers N`` still
    prints each notice once in total.  Safe to call in worker processes:
    all engines are bit-for-bit identical in every recorded field, so
    the substitution never changes results, only wall time.
    """
    global _alias_warned
    resolved = check_engine(engine)
    if resolved != engine and not _alias_warned:
        _alias_warned = True
        print(
            f"repro: engine {engine!r} is deprecated; running "
            f"{resolved!r} (results are bit-for-bit identical)",
            file=sys.stderr,
        )
    if resolved == "native":
        from ..native import native_available, unavailable_reason

        if not native_available():
            warn_native_fallback(unavailable_reason())
            if telemetry is not None:
                telemetry.count("search.engine_fallbacks")
            return "fast"
    return resolved


@dataclass(frozen=True)
class FastOutcome:
    """What the fast DFS hands back to ``schedule_block``."""

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
        "preds", "pred_mask", "succs", "succ_mask",
        "P", "pipe_enq", "pipe_last", "var_bound", "has_vb", "vb_items",
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
        self.pred_mask = [
            sum(1 << p for p in ps) for ps in self.preds
        ]
        self.succs = [
            tuple(index_of[s] for s in dag.successors(i)) for i in idents
        ]
        self.succ_mask = [
            sum(1 << s for s in ss) for ss in self.succs
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
        self.vb_items = tuple(
            (k, b) for k, b in enumerate(self.var_bound) if b is not None
        )
        self.has_vb = bool(self.vb_items)


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


def run_fast_search(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    options,
    initial: Optional[InitialConditions],
    seed: Tuple[int, ...],
    fits_budget,
    start: float,
    dfs=None,
):
    """Everything ``schedule_block`` does after seed validation, flattened.

    Seed pricing (step [1]), the heuristic incumbents, the root lower
    bound and the DFS all run on one ``_Flat`` lowering of the block, so
    the fast path pays a single lowering where the reference path builds
    a resolver + incremental state per pricing pass.  Mirrors the
    reference control flow in ``repro.sched.search`` decision for
    decision; returns a complete ``SearchResult`` (telemetry is recorded
    by the caller).

    ``dfs`` swaps the core loop implementation: ``None`` runs the
    Python :func:`_run_fast_dfs`; the native engine passes
    ``repro.native.bindings.native_dfs`` (same signature, same
    bit-for-bit outcome) so the whole preamble stays shared.
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

    out = (dfs or _run_fast_dfs)(
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
    """``run_fast_search`` with the C DFS (``engine="native"``).

    The preamble (seed pricing, heuristic incumbents, root lower bound)
    is literally :func:`run_fast_search`'s — only the core loop is
    swapped for the compiled kernel, so every ``SearchResult`` field
    except ``elapsed_seconds`` is bit-for-bit identical to the fast
    and reference engines.  Without a usable C compiler this
    degrades to :func:`run_fast_search` after a one-line notice.
    """
    from ..native import bindings as _nb

    if not _nb.native_available():
        warn_native_fallback(_nb.unavailable_reason())
        return run_fast_search(
            dag, machine, resolver, options, initial, seed, fits_budget, start
        )
    return run_fast_search(
        dag, machine, resolver, options, initial, seed, fits_budget, start,
        dfs=_nb.native_dfs,
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
    """``run_fast_split`` compiled to C (``engine="native"``).

    Same contract and bit-for-bit identical returns; the flat timing
    state is carried across windows inside the kernel exactly like the
    Python splitter carries its own.  Degrades to
    :func:`run_fast_split` after a one-line notice when the C kernel is
    unavailable; empty blocks short-circuit to the Python splitter
    (nothing to schedule, nothing to accelerate).
    """
    from ..native import bindings as _nb

    if len(dag) == 0 or not _nb.native_available():
        if len(dag) > 0:
            warn_native_fallback(_nb.unavailable_reason())
        return run_fast_split(
            dag, machine, resolver, seed, window, curtail_per_window, initial
        )
    flat = _Flat(dag, machine, resolver, initial)
    timing, omega_calls, all_completed, totals = _nb.native_split(
        flat, seed, window, curtail_per_window
    )
    windows = tuple(
        tuple(seed[w_start:w_start + window])
        for w_start in range(0, len(seed), window)
    )
    return timing, windows, omega_calls, all_completed, totals


def _run_fast_dfs(
    flat: _Flat,
    dag: DependenceDAG,
    options,
    seed: Tuple[int, ...],
    best: ScheduleTiming,
    omega_calls: int,
    improvements: int,
    start: float,
    chain: List[int],
    users: List[int],
    max_latency: int,
) -> FastOutcome:
    """The pruned DFS of ``schedule_block``, on packed arrays.

    Called by :func:`run_fast_search` after the preamble (seed pricing,
    heuristic incumbents, root lower bound); mirrors the reference
    ``rec()`` decision-for-decision.  ``chain``/``users`` are the dense
    latency-chain and pending-pipeline-user tables (``users`` is mutated
    in place as instructions are pushed/popped).
    """
    n = flat.n
    idents = flat.idents
    index_of = flat.index_of
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    succs = flat.succs
    succ_mask = flat.succ_mask
    pipe_enq = flat.pipe_enq
    pipe_last = list(flat.pipe_last)  # mutated in place by do/undo
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    vb_items = flat.vb_items
    seed_at = [0] * n
    for pos, ident in enumerate(seed):
        seed_at[index_of[ident]] = pos

    used_pipes = tuple(p for p in range(flat.P) if users[p])

    budget = options.max_live
    if budget is not None:
        block_by_ident = dag.block.by_ident
        operands = [
            tuple(index_of[r] for r in set(block_by_ident(i).value_refs))
            for i in idents
        ]
        consumers_left = [0] * n
        for k in range(n):
            for r in operands[k]:
                consumers_left[r] += 1
        produces = [
            1 if block_by_ident(i).op.produces_value else 0 for i in idents
        ]
    live_count = 0

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

    # Mutable search state (do/undo in place).
    order: List[int] = []
    etas: List[int] = []
    issue = [0] * n
    # Clobbered per-pipeline last-issue values, as two parallel stacks
    # (pipe index or -1, previous value) — cheaper than a tuple per push.
    saved_p: List[int] = []
    saved_v: List[Optional[int]] = []
    total_nops = 0
    last_iss = -1  # issue time of order[-1]; -1 when empty (base = 0)
    indeg = [len(preds[k]) for k in range(n)]
    ready_mask = 0
    for k in range(n):
        if indeg[k] == 0:
            ready_mask |= 1 << k
    mask = 0
    memo: Dict[tuple, int] = {}

    # Sound 5c signature: no pipeline, no predecessors -> successor-set
    # mask (-1 marks "not trivially interchangeable"; masks are >= 0).
    trivial = [
        succ_mask[k] if sig[k] < 0 and indeg[k] == 0 else -1
        for k in range(n)
    ]

    best_nops = best.total_nops
    best_timing = best
    completed = True
    timed_out = False
    n_legality = n_bounds = n_equivalence = n_alpha_beta = 0
    n_dominance = n_curtail = n_timeout = n_memo_evicted = 0
    by_seed = itemgetter(1)
    P = flat.P
    # Equivalence filtering only ever fires when some instruction is
    # trivially interchangeable; skipping the scan otherwise changes
    # nothing (no candidate has a signature, so nothing is filtered).
    any_trivial = equivalence and any(t >= 0 for t in trivial)
    perf_counter = time.perf_counter

    # One flat loop, everything in function locals.  `pending` >= 0
    # means "expand a node with that many remaining instructions"
    # (the body of the reference rec() before its candidate loop);
    # -1 means "advance the active frame's candidate iteration".  The
    # active frame lives in (cands, idx) locals; `frames` holds the
    # suspended ancestors.
    frames: List[tuple] = []
    cands: list = []
    idx = 0
    at_root = True
    pending = n
    while True:
        if pending >= 0:
            # ---- node entry: candidates + η, then node-level prunes —
            # legality, lower bounds, dominance, equivalence, in
            # reference order ----
            remaining = pending
            pending = -1
            if at_root:
                at_root = False
            else:
                frames.append((cands, idx))
            base = last_iss + 1
            cands = []
            lb = 0
            rm = ready_mask
            while rm:
                low = rm & -rm
                rm -= low
                k = low.bit_length() - 1
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
                eta = e - base
                cands.append((eta, seed_at[k], k))
                if lower_bounds:
                    # Chain part of the lower bound, folded into the
                    # build loop (max over the same candidate set).
                    gap = 1 + eta + chain[k] - remaining
                    if gap > lb:
                        lb = gap
            # Steps [5a]/[5b]: not-yet-ready instructions are excluded.
            n_legality += remaining - len(cands)
            if cheapest_first:
                cands.sort()
            else:
                cands.sort(key=by_seed)
            idx = 0

            pruned = False
            if order:
                mu = total_nops
                if lower_bounds:
                    tl = base - 1
                    for p in used_pipes:
                        ku = users[p]
                        if ku:
                            pl = pipe_last[p]
                            pe = pipe_enq[p]
                            first = tl + 1 if pl is None else pl + pe
                            gap = (first + (ku - 1) * pe) - (tl + remaining)
                            if gap > lb:
                                lb = gap
                    if mu + lb >= best_nops:
                        n_bounds += 1
                        pruned = True
                if not pruned and dominance:
                    tl = base - 1
                    pipes = []
                    for p in range(P):
                        pl = pipe_last[p]
                        if pl is not None and pl - tl + pipe_enq[p] > 1:
                            pipes.append((p, pl - tl))
                    dangling = []
                    for k in order[-(max_latency + 1):]:
                        slack = issue[k] + lat[k] - (tl + 1)
                        if slack > 0 and succ_mask[k] & ~mask:
                            dangling.append((k, slack))
                    dangling.sort()
                    residual_vars: tuple = ()
                    if has_vb:
                        residual_vars = tuple(
                            sorted(
                                (k, b - (tl + 1))
                                for k, b in vb_items
                                if not (mask >> k) & 1 and b > tl + 1
                            )
                        )
                    key = (mask, tuple(pipes), tuple(dangling), residual_vars)
                    prev = memo.get(key)
                    if prev is not None:
                        if mu >= prev:
                            n_dominance += 1
                            pruned = True
                        else:
                            memo[key] = mu
                    elif max_memo > 0:
                        if len(memo) >= max_memo:
                            memo.pop(next(iter(memo)))
                            n_memo_evicted += 1
                        memo[key] = mu

            if pruned:
                cands = ()
            elif any_trivial and len(cands) > 1:
                seen = set()
                filtered = []
                for c in cands:
                    s = trivial[c[2]]
                    if s >= 0:
                        if s in seen:
                            n_equivalence += 1
                            continue
                        seen.add(s)
                    filtered.append(c)
                cands = filtered

        if idx == len(cands):
            if not frames:
                break
            # Close the candidate that opened this frame, then undo it,
            # and resume the suspended parent frame.
            k = order[-1]
            for s in succs[k]:
                if indeg[s] == 0:
                    ready_mask &= ~(1 << s)
                indeg[s] += 1
            ready_mask |= 1 << k
            mask ^= 1 << k
            if budget is not None:
                if produces[k] and consumers_left[k] > 0:
                    live_count -= 1
                for r in operands[k]:
                    if consumers_left[r] == 0:
                        live_count += 1
                    consumers_left[r] += 1
            p = sig[k]
            if p >= 0:
                users[p] += 1
            order.pop()
            e2 = etas.pop()
            total_nops -= e2
            last_iss = issue[k] - e2 - 1
            sp = saved_p.pop()
            sv = saved_v.pop()
            if sp >= 0:
                pipe_last[sp] = sv
            cands, idx = frames.pop()
            continue
        eta, _, k = cands[idx]
        idx += 1
        if budget is not None:
            freed = 0
            for r in operands[k]:
                if consumers_left[r] == 1:
                    freed += 1
            if live_count - freed + produces[k] > budget:
                continue  # would not be allocatable: treat as illegal
        # Step [4]: curtail-point truncation.
        if omega_calls >= curtail:
            n_curtail += 1
            completed = False
            break
        if deadline is not None and perf_counter() > deadline:
            n_timeout += 1
            timed_out = True
            completed = False
            break
        omega_calls += 1
        # Push k (η cached from node entry; state identical since then;
        # last_iss = -1 on an empty order makes iss = eta, as Ω defines).
        iss = last_iss + 1 + eta
        order.append(k)
        etas.append(eta)
        issue[k] = iss
        total_nops += eta
        last_iss = iss
        p = sig[k]
        if p < 0:
            saved_p.append(-1)
            saved_v.append(None)
        else:
            saved_p.append(p)
            saved_v.append(pipe_last[p])
            pipe_last[p] = iss
            users[p] -= 1
        if budget is not None:
            for r in operands[k]:
                c = consumers_left[r] = consumers_left[r] - 1
                if c == 0:
                    live_count -= 1
            if produces[k] and consumers_left[k] > 0:
                live_count += 1
        depth = len(order)
        done = False
        if depth == n:
            # Step [3]: complete schedule; adopt if strictly better.
            if total_nops < best_nops:
                best_nops = total_nops
                best_timing = ScheduleTiming(
                    tuple(idents[q] for q in order),
                    tuple(etas),
                    tuple(issue[q] for q in order),
                )
                improvements += 1
            done = True
        elif alpha_beta and total_nops >= best_nops:
            # Step [6]: mu never decreases as a schedule grows.
            n_alpha_beta += 1
            done = True
        if done:
            if budget is not None:
                if produces[k] and consumers_left[k] > 0:
                    live_count -= 1
                for r in operands[k]:
                    if consumers_left[r] == 0:
                        live_count += 1
                    consumers_left[r] += 1
            if p >= 0:
                users[p] += 1
            order.pop()
            etas.pop()
            total_nops -= eta
            last_iss = iss - eta - 1
            sp = saved_p.pop()
            sv = saved_v.pop()
            if sp >= 0:
                pipe_last[sp] = sv
        else:
            ready_mask &= ~(1 << k)
            mask |= 1 << k
            for s in succs[k]:
                d = indeg[s] = indeg[s] - 1
                if d == 0:
                    ready_mask |= 1 << s
            pending = n - depth

    return FastOutcome(
        best=best_timing,
        omega_calls=omega_calls,
        improvements=improvements,
        completed=completed,
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


def run_fast_split(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    seed: Tuple[int, ...],
    window: int,
    curtail_per_window: int,
    initial: Optional[InitialConditions],
) -> Tuple[ScheduleTiming, Tuple[Tuple[int, ...], ...], int, bool, Dict[str, int]]:
    """The windowed search of ``schedule_block_split``, on packed arrays.

    Returns ``(timing, windows, omega_calls, all_completed, totals)``;
    the caller wraps them into a ``SplitScheduleResult``.  The flat
    timing state is carried across windows exactly like the shared
    ``IncrementalTimingState`` in the reference, so cross-window
    latencies and enqueue conflicts are priced identically.
    """
    flat = _Flat(dag, machine, resolver, initial)
    n = flat.n
    idents = flat.idents
    index_of = flat.index_of
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    pred_mask = flat.pred_mask
    succs = flat.succs
    pipe_last = flat.pipe_last
    var_bound = flat.var_bound
    has_vb = flat.has_vb

    order: List[int] = []
    etas: List[int] = []
    issue = [0] * n
    pipe_saved: List[Optional[Tuple[int, Optional[int]]]] = []
    total_nops = 0

    def fpeek(k: int) -> int:
        base = issue[order[-1]] + 1 if order else 0
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
        return e - base

    def fpush(k: int, eta: Optional[int] = None) -> None:
        nonlocal total_nops
        if eta is None:
            eta = fpeek(k)
        iss = issue[order[-1]] + 1 + eta if order else eta
        order.append(k)
        etas.append(eta)
        issue[k] = iss
        total_nops += eta
        p = sig[k]
        if p < 0:
            pipe_saved.append(None)
        else:
            pipe_saved.append((p, pipe_last[p]))
            pipe_last[p] = iss

    def fpop() -> None:
        nonlocal total_nops
        order.pop()
        total_nops -= etas.pop()
        saved = pipe_saved.pop()
        if saved is not None:
            pipe_last[saved[0]] = saved[1]

    def window_search(members: List[int], curtail: int):
        """One window's branch-and-bound, mirroring ``_schedule_window``."""
        wn = len(members)
        member_mask = 0
        for k in members:
            member_mask |= 1 << k
        wseed = {k: pos for pos, k in enumerate(members)}
        windeg = {
            k: (pred_mask[k] & member_mask).bit_count() for k in members
        }
        ready0 = [k for k in members if windeg[k] == 0]
        base_nops = total_nops
        entry_len = len(order)

        def price(seq) -> int:
            for k in seq:
                fpush(k)
            nops = total_nops - base_nops
            for _ in seq:
                fpop()
            return nops

        def greedy_order() -> Tuple[int, ...]:
            local_indeg = dict(windeg)
            local_ready = list(ready0)
            out: List[int] = []
            while local_ready:
                pick = min(
                    local_ready, key=lambda k: (fpeek(k), wseed[k])
                )
                local_ready.remove(pick)
                fpush(pick)
                out.append(pick)
                for s in succs[pick]:
                    if (member_mask >> s) & 1:
                        local_indeg[s] -= 1
                        if local_indeg[s] == 0:
                            local_ready.append(s)
            for _ in out:
                fpop()
            return tuple(out)

        best_order = tuple(members)
        best_nops = price(best_order)
        candidate = greedy_order()
        candidate_nops = price(candidate)
        wcalls = 2 * wn
        if candidate_nops < best_nops:
            best_order, best_nops = candidate, candidate_nops

        chain_w: Dict[int, int] = {}
        for k in reversed(members):
            inner = [s for s in succs[k] if (member_mask >> s) & 1]
            chain_w[k] = (
                0 if not inner else max(lat[k] + chain_w[s] for s in inner)
            )
        wcomplete = True
        n_legality = n_bounds = n_alpha_beta = n_curtail = 0

        ready_mask = 0
        for k in ready0:
            ready_mask |= 1 << k

        def wexpand(remaining: int) -> list:
            nonlocal n_legality, n_bounds
            base = issue[order[-1]] + 1 if order else 0
            cands = []
            rm = ready_mask
            while rm:
                low = rm & -rm
                rm -= low
                k = low.bit_length() - 1
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
                cands.append((e - base, wseed[k], k))
            n_legality += remaining - len(cands)
            cands.sort()
            if len(order) > entry_len:
                window_nops = total_nops - base_nops
                lb = 0
                for eta, _, k in cands:
                    gap = 1 + eta + chain_w[k] - remaining
                    if gap > lb:
                        lb = gap
                if window_nops + lb >= best_nops:
                    n_bounds += 1
                    return [(), 0]
            return [cands, 0]

        frames = [wexpand(wn)]
        while frames:
            frame = frames[-1]
            cands = frame[0]
            idx = frame[1]
            if idx == len(cands):
                frames.pop()
                if not frames:
                    break
                k = order[-1]
                for s in succs[k]:
                    if (member_mask >> s) & 1:
                        if windeg[s] == 0:
                            ready_mask &= ~(1 << s)
                        windeg[s] += 1
                ready_mask |= 1 << k
                fpop()
                continue
            frame[1] = idx + 1
            eta, _, k = cands[idx]
            if wcalls >= curtail:
                n_curtail += 1
                wcomplete = False
                # Unwind the partial window (the reference's _Curtailed
                # propagates through per-push finally blocks): the shared
                # flat state must be back at window entry before commit.
                while len(order) > entry_len:
                    fpop()
                break
            wcalls += 1
            fpush(k, eta)
            window_nops = total_nops - base_nops
            depth = len(order) - entry_len
            done = False
            if depth == wn:
                if window_nops < best_nops:
                    best_nops = window_nops
                    best_order = tuple(order[-wn:])
                done = True
            elif window_nops >= best_nops:
                n_alpha_beta += 1
                done = True
            if done:
                fpop()
            else:
                ready_mask &= ~(1 << k)
                for s in succs[k]:
                    if (member_mask >> s) & 1:
                        d = windeg[s] = windeg[s] - 1
                        if d == 0:
                            ready_mask |= 1 << s
                frames.append(wexpand(wn - depth))

        return best_order, wcalls, wcomplete, prune_counts(
            legality=n_legality,
            bounds=n_bounds,
            alpha_beta=n_alpha_beta,
            curtail=n_curtail,
        )

    dense_seed = [index_of[i] for i in seed]
    omega_calls = 0
    all_completed = True
    windows: List[Tuple[int, ...]] = []
    totals = prune_counts()
    for w_start in range(0, len(dense_seed), window):
        members = dense_seed[w_start:w_start + window]
        windows.append(tuple(seed[w_start:w_start + window]))
        best_order, wcalls, wcomplete, wcounts = window_search(
            members, curtail_per_window
        )
        omega_calls += wcalls
        all_completed = all_completed and wcomplete
        for kind, count in wcounts.items():
            totals[kind] += count
        for k in best_order:
            fpush(k)

    timing = ScheduleTiming(
        tuple(idents[k] for k in order),
        tuple(etas),
        tuple(issue[k] for k in order),
    )
    return timing, tuple(windows), omega_calls, all_completed, totals
