"""The canonical fingerprint (repro.service.fingerprint).

Both directions of the cache-key contract:

* **Collision on isomorphism** — renaming tuple reference numbers,
  renaming pipeline identifiers, or swapping commutative operands
  yields the *same* key (hypothesis-fuzzed over random blocks and
  machines);
* **Separation on mutation** — any change to a latency, an enqueue
  time, the dependence structure, or a search option yields a
  *different* key.

The golden-key test pins the on-disk format: shared stores outlive
processes, so an unintentional payload change must fail loudly here
(an intentional one bumps ``CANON_VERSION`` and the constant below).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dag import DependenceDAG, DependenceEdge
from repro.machine.machine import MachineDescription
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import paper_simulation_machine
from repro.machine.serialize import machine_from_dict, machine_to_dict
from repro.sched.search import SearchOptions
from repro.service.fingerprint import CANON_VERSION, fingerprint_problem

from .strategies import blocks, ident_renamings, machines, rename_block

#: sha256 key of Figure 3 on the paper machine under default options.
#: Pinned because disk stores are shared across processes and versions:
#: any payload change must either keep this byte-for-byte or bump
#: CANON_VERSION (and this constant with it).
FIGURE3_KEY = "5ee4b0297fcf58792b842181dda2e43a55264847d1e292a645f82cf234e97c85"


def _key(dag, machine, options=SearchOptions()):
    return fingerprint_problem(dag, machine, options).key


def _renamed_machine(machine: MachineDescription) -> MachineDescription:
    """The same machine with every pipeline ident replaced."""
    data = machine_to_dict(machine)
    ids = [p["id"] for p in data["pipelines"]]
    fresh = {pid: 100 + i for i, pid in enumerate(reversed(ids))}
    for p in data["pipelines"]:
        p["id"] = fresh[p["id"]]
    data["op_map"] = {
        op: [fresh[pid] for pid in pids] for op, pids in data["op_map"].items()
    }
    return machine_from_dict(data)


class TestGolden:
    def test_version_tag(self):
        assert CANON_VERSION == "repro-canon/1"

    def test_figure3_key_is_stable(self, figure3_dag):
        form = fingerprint_problem(figure3_dag, paper_simulation_machine())
        assert form.key == FIGURE3_KEY
        assert form.n == 5
        assert form.idents == (1, 2, 3, 4, 5)

    def test_str(self, figure3_dag):
        form = fingerprint_problem(figure3_dag, paper_simulation_machine())
        assert form.key[:12] in str(form)


class TestIsomorphismCollides:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), blocks(max_size=8), machines(max_pipelines=3))
    def test_ident_renaming(self, data, block, machine):
        mapping = data.draw(ident_renamings(block))
        renamed = rename_block(block, mapping)
        assert _key(DependenceDAG(block), machine) == _key(
            DependenceDAG(renamed), machine
        )

    @settings(max_examples=60, deadline=None)
    @given(blocks(max_size=8), machines(max_pipelines=3))
    def test_pipe_renaming(self, block, machine):
        dag = DependenceDAG(block)
        assert _key(dag, machine) == _key(dag, _renamed_machine(machine))

    def test_pipe_renaming_paper_machine(self, figure3_dag):
        machine = paper_simulation_machine()
        assert _key(figure3_dag, machine) == _key(
            figure3_dag, _renamed_machine(machine)
        )

    def test_commutative_operand_swap(self):
        from repro.ir.ops import Opcode
        from repro.ir.textual import parse_block

        a = parse_block("1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3")
        swapped = parse_block("1: Load #a\n2: Load #b\n3: Mul 2, 1\n4: Store #c, 3")
        assert a.tuples[2].op is Opcode.MUL
        machine = paper_simulation_machine()
        assert _key(DependenceDAG(a), machine) == _key(
            DependenceDAG(swapped), machine
        )

    def test_engine_is_excluded(self, figure3_dag):
        machine = paper_simulation_machine()
        assert _key(figure3_dag, machine, SearchOptions(engine="native")) == _key(
            figure3_dag, machine, SearchOptions(engine="reference")
        )

    def test_vector_engine_shares_fast_keys(self, figure3_dag):
        # Regression for the canonical cache contract: a result computed
        # under "fast" must be a hit for a "vector" or "native" request
        # (and vice versa), so no engine may leak into the key.
        machine = paper_simulation_machine()
        keys = {
            _key(figure3_dag, machine, SearchOptions(engine=engine))
            for engine in ("fast", "vector", "native", "reference")
        }
        assert len(keys) == 1


class TestMutationSeparates:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), blocks(max_size=8), machines(max_pipelines=3))
    def test_latency_mutation(self, data, block, machine):
        dag = DependenceDAG(block)
        victim = data.draw(st.sampled_from(sorted(p.ident for p in machine.pipelines)))
        pipes = [
            PipelineDesc(p.function, p.ident, p.latency + 1, p.enqueue_time)
            if p.ident == victim
            else p
            for p in machine.pipelines
        ]
        mutated = MachineDescription(machine.name, pipes, machine.op_map)
        assert _key(dag, machine) != _key(dag, mutated)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), blocks(max_size=8), machines(max_pipelines=3))
    def test_enqueue_mutation(self, data, block, machine):
        from hypothesis import assume

        dag = DependenceDAG(block)
        widened = [p for p in machine.pipelines if p.latency >= 2]
        assume(widened)
        victim = data.draw(st.sampled_from(sorted(p.ident for p in widened)))
        pipes = []
        for p in machine.pipelines:
            if p.ident == victim:
                new_enq = p.enqueue_time % p.latency + 1  # different, still legal
                pipes.append(PipelineDesc(p.function, p.ident, p.latency, new_enq))
            else:
                pipes.append(p)
        mutated = MachineDescription(machine.name, pipes, machine.op_map)
        assert _key(dag, machine) != _key(dag, mutated)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), blocks(min_size=2, max_size=8), machines(max_pipelines=3))
    def test_extra_dependence_edge(self, data, block, machine):
        from hypothesis import assume

        dag = DependenceDAG(block)
        idents = list(dag.idents)
        missing = [
            (idents[i], idents[j])
            for i in range(len(idents))
            for j in range(i + 1, len(idents))
            if idents[i] not in dag.rho(idents[j])
        ]
        assume(missing)
        producer, consumer = data.draw(st.sampled_from(missing))
        stricter = DependenceDAG(
            block, extra_edges=[DependenceEdge(producer, consumer, "flow")]
        )
        assert _key(dag, machine) != _key(stricter, machine)

    @pytest.mark.parametrize(
        "override",
        [
            {"curtail": 49_999},
            {"alpha_beta": False},
            {"dominance_prune": False},
            {"max_live": 3},
        ],
    )
    def test_option_mutation(self, figure3_dag, override):
        machine = paper_simulation_machine()
        mutated = dataclasses.replace(SearchOptions(), **override)
        assert _key(figure3_dag, machine) != _key(figure3_dag, machine, mutated)

    def test_unused_pipeline_still_counts(self, figure3_dag):
        # An unreferenced pipeline changes machine.max_latency, hence the
        # dominance window, hence (potentially) the prune counters: it
        # must separate keys even though no instruction maps to it.
        machine = paper_simulation_machine()
        extra = PipelineDesc("idle-unit", 99, machine.max_latency + 3, 1)
        widened = MachineDescription(
            machine.name, list(machine.pipelines) + [extra], machine.op_map
        )
        assert _key(figure3_dag, machine) != _key(figure3_dag, widened)
