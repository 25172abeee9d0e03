"""Tests for the list-scheduling seed (section 3.2)."""

import math

from hypothesis import given, settings

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import paper_simulation_machine
from repro.sched.list_scheduler import list_schedule, program_order
from repro.sched.nop_insertion import compute_timing
from repro.synth.population import sample_population

from .strategies import blocks


class TestLegality:
    def test_figure3(self, figure3_dag):
        order = list_schedule(figure3_dag)
        assert figure3_dag.is_legal_order(order)

    def test_program_order_helper(self, figure3_dag):
        assert program_order(figure3_dag) == figure3_dag.idents


class TestPriorities:
    def test_tall_chains_issue_first(self):
        # A long chain next to independent leaves: the chain head (tall)
        # must come before the leaves so its consumers can be distanced.
        text = (
            "1: Load #a\n2: Neg 1\n3: Neg 2\n"
            "4: Load #x\n5: Load #y\n"
        )
        dag = DependenceDAG(parse_block(text))
        order = list_schedule(dag)
        assert order[0] == 1  # tallest root
        # The independent loads interleave between chain links.
        assert order.index(4) < order.index(3)

    def test_separates_producer_from_consumer(self, figure3_dag, sim_machine):
        # The seed must beat program order on Figure 3 (1 NOP less).
        seeded = compute_timing(figure3_dag, list_schedule(figure3_dag), sim_machine)
        naive = compute_timing(figure3_dag, figure3_dag.idents, sim_machine)
        assert seeded.total_nops < naive.total_nops

    def test_deterministic(self, figure3_dag):
        assert list_schedule(figure3_dag) == list_schedule(figure3_dag)


class TestSeedQualityStatistically:
    def test_beats_program_order_on_average(self):
        """Across a population, the machine-independent seed must hide
        substantially more latency than emission order (Table 7's initial
        9.5 NOPs shrink to ~2-3 under the seed)."""
        machine = paper_simulation_machine()
        seed_total = 0
        naive_total = 0
        for gb in sample_population(120, master_seed=5):
            if len(gb.block) < 2:
                continue
            dag = DependenceDAG(gb.block)
            seed_total += compute_timing(dag, list_schedule(dag), machine).total_nops
            naive_total += compute_timing(dag, dag.idents, machine).total_nops
        assert seed_total < 0.6 * naive_total


@given(blocks(max_size=14))
@settings(max_examples=80)
def test_always_topological(block):
    dag = DependenceDAG(block)
    assert dag.is_legal_order(list_schedule(dag))


def resort_list_schedule(dag):
    """Oracle: the ready list re-sorted by the full priority on every step."""
    scheduled_at = {}

    def priority(ident):
        preds = dag.rho(ident)
        if preds:
            distance = len(scheduled_at) - max(scheduled_at[p] for p in preds)
        else:
            distance = math.inf
        return (
            -distance,
            -dag.heights[ident],
            -len(dag.descendants[ident]),
            dag.block.position_of(ident),
        )

    indegree = {i: len(dag.rho(i)) for i in dag.idents}
    ready = [i for i in dag.idents if indegree[i] == 0]
    order = []
    while ready:
        ready.sort(key=priority)
        chosen = ready.pop(0)
        scheduled_at[chosen] = len(order)
        order.append(chosen)
        for succ in dag.successors(chosen):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return tuple(order)


@given(blocks(max_size=16, allow_div=True))
@settings(max_examples=150)
def test_heap_order_matches_resort_oracle(block):
    dag = DependenceDAG(block)
    assert list_schedule(dag) == resort_list_schedule(dag)


def test_heap_order_matches_resort_oracle_on_population():
    for gb in sample_population(60, master_seed=11):
        dag = DependenceDAG(gb.block)
        assert list_schedule(dag) == resort_list_schedule(dag), gb.block.name
