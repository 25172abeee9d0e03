"""Tests for the classical optimizer passes (section 3.1)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.ast import run_program
from repro.frontend.lowering import lower_source
from repro.frontend.lowering import lower_program
from repro.ir.interp import blocks_equivalent, run_block
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.fold import fold_constants
from repro.opt.manager import optimize, optimize_block
from repro.opt.peephole import peephole_optimize
from repro.synth.generator import generate_program
from repro.synth.population import sample_population_params
from repro.synth.stats import GeneratorProfile


def ops_of(block, opcode):
    return [t for t in block if t.op is opcode]


class TestConstantFolding:
    def test_folds_arithmetic(self):
        block = lower_source("x = 2 + 3 * 4;")
        folded = fold_constants(block)
        consts = ops_of(folded, Opcode.CONST)
        assert any(t.alpha.value == 14 for t in consts)
        assert not ops_of(folded, Opcode.ADD) and not ops_of(folded, Opcode.MUL)

    def test_propagates_through_stores(self):
        # Figure 3's own behaviour: b = 15 makes later b-reads use Const.
        block = lower_source("b = 15; a = b * a;", reuse_values=False)
        folded = fold_constants(block)
        # The re-load of b disappears: its value is known in-block.
        assert all(t.variable != "b" or t.op is Opcode.STORE for t in folded)

    def test_copy_elimination(self):
        block = parse_block("1: Const 5\n2: Copy 1\n3: Copy 2\n4: Store #x, 3")
        folded = fold_constants(block)
        assert not ops_of(folded, Opcode.COPY)
        assert run_block(folded)["x"] == 5

    def test_double_negation(self):
        block = parse_block("1: Load #a\n2: Neg 1\n3: Neg 2\n4: Store #x, 3")
        folded = fold_constants(block)
        assert len(ops_of(folded, Opcode.NEG)) <= 1
        assert run_block(folded, {"a": 9})["x"] == 9

    def test_division_by_zero_not_folded(self):
        block = lower_source("x = 1 / 0;")
        folded = fold_constants(block)
        assert ops_of(folded, Opcode.DIV)

    def test_non_integral_division_not_folded(self):
        block = lower_source("x = 1 / 3;")
        folded = fold_constants(block)
        assert ops_of(folded, Opcode.DIV)

    def test_integral_division_folded(self):
        block = lower_source("x = 6 / 3;")
        folded = fold_constants(block)
        assert not ops_of(folded, Opcode.DIV)


class TestCSE:
    def test_merges_identical_expressions(self):
        block = lower_source("x = a * b; y = a * b;", reuse_values=False)
        # naive lowering re-loads a and b; CSE merges loads and the Mul.
        out = eliminate_common_subexpressions(block)
        assert len(ops_of(out, Opcode.MUL)) == 1
        assert len(ops_of(out, Opcode.LOAD)) == 2

    def test_commutative_canonicalization(self):
        block = lower_source("x = a * b; y = b * a;")
        out = eliminate_common_subexpressions(block)
        assert len(ops_of(out, Opcode.MUL)) == 1

    def test_subtraction_not_commuted(self):
        block = lower_source("x = a - b; y = b - a;")
        out = eliminate_common_subexpressions(block)
        assert len(ops_of(out, Opcode.SUB)) == 2

    def test_loads_not_merged_across_stores(self):
        text = (
            "1: Load #a\n2: Const 1\n3: Store #a, 2\n4: Load #a\n"
            "5: Add 1, 4\n6: Store #x, 5"
        )
        block = parse_block(text)
        out = eliminate_common_subexpressions(block)
        assert len(ops_of(out, Opcode.LOAD)) == 2
        assert run_block(out, {"a": 10})["x"] == 11

    def test_const_pooling(self):
        block = lower_source("x = 5 + a; y = 5 + b;")
        out = eliminate_common_subexpressions(block)
        assert len(ops_of(out, Opcode.CONST)) == 1


class TestDCE:
    def test_removes_unused_values(self):
        block = parse_block("1: Load #a\n2: Load #b\n3: Store #x, 1")
        out = eliminate_dead_code(block)
        assert len(ops_of(out, Opcode.LOAD)) == 1

    def test_removes_dead_stores(self):
        block = lower_source("x = 1; x = 2;")
        out = eliminate_dead_code(block)
        assert len(ops_of(out, Opcode.STORE)) == 1
        assert run_block(out)["x"] == 2

    def test_keeps_store_read_before_overwrite(self):
        text = (
            "1: Const 1\n2: Store #x, 1\n3: Load #x\n4: Store #y, 3\n"
            "5: Const 2\n6: Store #x, 5"
        )
        out = eliminate_dead_code(parse_block(text))
        assert len(ops_of(out, Opcode.STORE)) == 3

    def test_dead_store_elimination_can_be_disabled(self):
        block = lower_source("x = 1; x = 2;")
        out = eliminate_dead_code(block, remove_dead_stores=False)
        assert len(ops_of(out, Opcode.STORE)) == 2

    def test_keeps_unused_division_for_its_fault(self):
        block = parse_block("1: Const 1\n2: Const 0\n3: Div 1, 2\n4: Store #x, 1")
        out = eliminate_dead_code(block)
        assert ops_of(out, Opcode.DIV)


class TestPeephole:
    @pytest.mark.parametrize(
        "source,survivor_ops",
        [
            ("y = x + 0;", 0),
            ("y = 0 + x;", 0),
            ("y = x - 0;", 0),
            ("y = x * 1;", 0),
            ("y = 1 * x;", 0),
            ("y = x / 1;", 0),
        ],
    )
    def test_identities(self, source, survivor_ops):
        block = lower_source(source)
        out = peephole_optimize(block)
        arith = [
            t for t in out
            if t.op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV)
        ]
        assert len(arith) == survivor_ops

    def test_x_minus_x(self):
        out = peephole_optimize(lower_source("y = x - x;"))
        assert run_block(out, {"x": 9})["y"] == 0

    def test_multiply_by_zero(self):
        out = peephole_optimize(lower_source("y = x * 0;"))
        assert run_block(out, {"x": 9})["y"] == 0
        assert not ops_of(out, Opcode.MUL)

    def test_strength_reduction(self):
        out = peephole_optimize(lower_source("y = x * 2;"))
        assert not ops_of(out, Opcode.MUL)
        assert ops_of(out, Opcode.ADD)
        assert run_block(out, {"x": 9})["y"] == 18

    def test_strength_reduction_can_be_disabled(self):
        out = peephole_optimize(lower_source("y = x * 2;"), strength_reduce=False)
        assert ops_of(out, Opcode.MUL)

    def test_division_identity_preserves_faults(self):
        # x / x is NOT folded to 1.
        out = peephole_optimize(lower_source("y = x / x;"))
        assert ops_of(out, Opcode.DIV)


class TestManager:
    def test_figure3_is_already_optimal(self, figure3_block):
        report = optimize(figure3_block)
        assert report.block.tuples == figure3_block.renumbered().tuples
        assert report.tuples_removed == 0

    def test_cascading_passes(self):
        # Peephole exposes folding which exposes DCE.
        block = lower_source("x = a * 1 + 0; y = x - x; z = y + a;")
        report = optimize(block)
        out = report.block
        # z = a; y = 0; x = a — no arithmetic should survive except none.
        assert not any(
            t.op in (Opcode.ADD, Opcode.SUB, Opcode.MUL) for t in out
        )
        result = run_block(out, {"a": 5})
        assert result["x"] == 5 and result["y"] == 0 and result["z"] == 5

    def test_report_counts(self):
        block = lower_source("x = 2 + 3;")
        report = optimize(block)
        assert report.original_size == len(block)
        assert report.final_size == len(report.block)
        assert report.rounds >= 1
        assert "fold" in report.pass_names

    def test_convergence_guard(self):
        import itertools

        flip = itertools.count()

        def oscillating(block):
            # Alternates between two renumberings — never converges.
            from repro.ir.block import BasicBlock

            if next(flip) % 2 == 0:
                return parse_block("1: Const 7\n2: Store #x, 1")
            return parse_block("1: Const 8\n2: Store #x, 1")

        with pytest.raises(RuntimeError, match="did not converge"):
            optimize(
                lower_source("x = 1;"),
                passes=[("oscillate", oscillating)],
                max_rounds=3,
            )

    def test_empty_block(self):
        from repro.ir.block import BasicBlock

        report = optimize(BasicBlock([]))
        assert len(report.block) == 0


# ----------------------------------------------------------------------
# Semantics preservation on random programs (the paper's front end must
# never change observable behaviour).
# ----------------------------------------------------------------------
@given(
    statements=st.integers(2, 15),
    variables=st.integers(1, 6),
    constants=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_full_pipeline_preserves_semantics(statements, variables, constants, seed):
    profile = GeneratorProfile(exclude_division=True)
    program = generate_program(statements, variables, constants, seed, profile)
    block = lower_program(program)
    optimized = optimize_block(block)
    memory = {f"v{i}": i + 1 for i in range(variables)}
    expected = run_program(program, memory)
    got = run_block(optimized, memory).memory
    for var in program.variables_written():
        assert got[var] == expected[var], var


@given(
    statements=st.integers(2, 12),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_each_pass_individually_preserves_semantics(statements, seed):
    profile = GeneratorProfile(exclude_division=True)
    program = generate_program(statements, 4, 3, seed, profile)
    block = lower_program(program)
    memory = {f"v{i}": 2 * i + 1 for i in range(4)}
    for name, fn in (
        ("fold", fold_constants),
        ("cse", eliminate_common_subexpressions),
        ("dce", eliminate_dead_code),
        ("peephole", peephole_optimize),
    ):
        assert blocks_equivalent(block, fn(block), memory), name


@given(
    statements=st.integers(2, 10),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=60, deadline=None)
def test_passes_are_idempotent(statements, seed):
    """Each pass maps its own output to itself (a canonical form) —
    running it twice must change nothing."""
    profile = GeneratorProfile(exclude_division=True)
    program = generate_program(statements, 4, 3, seed, profile)
    block = lower_program(program)
    for name, fn in (
        ("fold", fold_constants),
        ("cse", eliminate_common_subexpressions),
        ("dce", eliminate_dead_code),
        ("peephole", peephole_optimize),
    ):
        once = fn(block)
        twice = fn(once)
        assert once.tuples == twice.tuples, name


@given(
    statements=st.integers(2, 10),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=40, deadline=None)
def test_optimizer_fixpoint_is_stable(statements, seed):
    """optimize() output is a fixpoint of the whole pipeline."""
    profile = GeneratorProfile(exclude_division=True)
    program = generate_program(statements, 4, 3, seed, profile)
    block = lower_program(program)
    first = optimize_block(block)
    second = optimize_block(first)
    assert first.tuples == second.tuples


@given(
    statements=st.integers(1, 14),
    variables=st.integers(1, 5),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=60, deadline=None)
def test_passes_return_their_input_at_the_fixpoint(statements, variables, seed):
    """On a block at the pipeline's fixpoint every pass changes nothing,
    and says so by returning the very block it was given."""
    program = generate_program(statements, variables, 3, seed)
    fixed = optimize_block(lower_program(program))
    assert fold_constants(fixed) is fixed
    assert peephole_optimize(fixed) is fixed
    assert eliminate_common_subexpressions(fixed) is fixed
    assert eliminate_dead_code(fixed) is fixed


#: sha256 over the optimized text and round count of the 300 programs of
#: ``sample_population_params(300, 4242)``, recorded with the optimizer
#: that rebuilt every block on every pass.
OPTIMIZER_GOLDEN_SHA256 = (
    "6df330dae0cadda18fcead0cd901bf52860d00bcbbdd94c4c18fe4a1c9ce6187"
)


def test_optimizer_output_matches_golden_digest():
    digest = hashlib.sha256()
    for p in sample_population_params(300, 4242):
        program = generate_program(p.statements, p.variables, p.constants, p.seed)
        report = optimize(lower_program(program, f"pop-{p.index}"))
        digest.update(f"{report.block}\n{report.rounds}\n".encode())
    assert digest.hexdigest() == OPTIMIZER_GOLDEN_SHA256
