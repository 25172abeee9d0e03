"""The list scheduler used to seed the optimal search (section 3.2).

The paper adopts the heuristic of [ZaD90]: *"the heuristic arranges the
tuples into a sequential order (schedule) so that the distance between
each instruction and the instructions that depend on it is as large as
possible"* — and notes (section 4.1) that the list scheduler does **not**
examine the pipeline tables, so the seed is machine-independent.

We realize the distance-maximizing aim with ready-list scheduling under an
oldest-producers-first priority:

1. maintain the set of *ready* tuples (all DAG predecessors scheduled);
2. repeatedly emit the ready tuple whose most recently scheduled
   predecessor lies furthest back in the order (roots count as infinitely
   far) — picking the candidate with the *stalest* producers is exactly
   what stretches every producer-to-consumer distance;
3. break ties by height (longest dependence path below — its consumers
   are still waiting to be distanced), then descendant count, then
   program order (determinism).

Between a producer and its consumer this interleaves every independent
tuple that can legally go there, which is precisely what hides pipeline
latency.  Because the seed's only role is to give the alpha-beta pruning a
good initial bound, any reasonable priority works; the ablation experiment
(``repro.experiments.ablation``) quantifies how much this seed buys over
program order.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..ir.dag import DependenceDAG


def list_schedule(dag: DependenceDAG) -> Tuple[int, ...]:
    """Machine-independent seed schedule maximizing dependence distances.

    The distance from a ready tuple to its nearest producer is ``step -
    nearest``, where ``nearest`` is that producer's position in the
    order; every ready tuple shifts by the same amount each step, so
    ranking by ``nearest`` (``-1`` for roots, which sort first) is the
    same as ranking by distance.  A tuple's ``nearest`` is fixed once it
    becomes ready — it is the position of the producer whose issue made
    it ready — so each tuple's key is computed once and kept on a heap.
    """
    heights = dag.heights
    descendants = dag.descendants
    position = dag.block.position_of

    def key(ident: int, nearest: int):
        return (nearest, -heights[ident], -len(descendants[ident]), position(ident), ident)

    indegree = {i: len(dag.rho(i)) for i in dag.idents}
    ready = [key(i, -1) for i in dag.idents if indegree[i] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        chosen = heapq.heappop(ready)[-1]
        nearest = len(order)
        order.append(chosen)
        for succ in dag.successors(chosen):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, key(succ, nearest))
    if len(order) != len(dag):
        raise AssertionError("dependence DAG contains a cycle")  # pragma: no cover
    return tuple(order)


def program_order(dag: DependenceDAG) -> Tuple[int, ...]:
    """The identity schedule — the front end's emission order.

    Used as the unseeded baseline in ablations: traditional on-demand
    code generation, which the paper notes "results in code sequences
    which have many such dependences".
    """
    return dag.idents
