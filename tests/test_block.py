"""Unit tests for basic blocks and the block builder."""

import pytest
from hypothesis import given, settings

from repro.ir.block import BasicBlock, BlockBuilder, BlockValidationError
from repro.ir.ops import Opcode
from repro.frontend.lowering import lower_source
from repro.ir.tuples import ConstOperand, add, const, load, mul, neg, store

from .strategies import blocks


def simple_block() -> BasicBlock:
    return BasicBlock(
        [const(1, 15), store(2, "b", 1), load(3, "a"), mul(4, 1, 3), store(5, "a", 4)],
        "fig3",
    )


class TestValidation:
    def test_duplicate_reference_numbers(self):
        with pytest.raises(BlockValidationError, match="duplicate"):
            BasicBlock([const(1, 1), const(1, 2)])

    def test_unknown_reference(self):
        with pytest.raises(BlockValidationError, match="unknown tuple 9"):
            BasicBlock([const(1, 1), add(2, 1, 9)])

    def test_forward_reference(self):
        with pytest.raises(BlockValidationError, match="does not precede"):
            BasicBlock([add(1, 2, 2), const(2, 1)])

    def test_reference_to_store_result(self):
        with pytest.raises(BlockValidationError, match="produces no value"):
            BasicBlock([const(1, 1), store(2, "a", 1), store(3, "b", 2)])

    def test_empty_block_is_fine(self):
        assert len(BasicBlock([])) == 0


class TestAccess:
    def test_container_protocol(self):
        block = simple_block()
        assert len(block) == 5
        assert [t.ident for t in block] == [1, 2, 3, 4, 5]
        assert block[0].op is Opcode.CONST
        assert 3 in block and 9 not in block

    def test_by_ident_and_position(self):
        block = simple_block()
        assert block.by_ident(4).op is Opcode.MUL
        assert block.position_of(4) == 3
        with pytest.raises(KeyError):
            block.by_ident(42)

    def test_variable_views(self):
        block = simple_block()
        assert block.loaded_variables == ("a",)
        assert block.stored_variables == ("b", "a")
        assert block.variables == ("b", "a")

    def test_idents(self):
        assert simple_block().idents == (1, 2, 3, 4, 5)


class TestTransformations:
    def test_reordered_keeps_reference_numbers(self):
        block = simple_block()
        shuffled = block.reordered([3, 1, 4, 2, 5])
        assert shuffled.idents == (3, 1, 4, 2, 5)
        assert shuffled.by_ident(4).value_refs == (1, 3)

    def test_reordered_rejects_non_permutations(self):
        block = simple_block()
        with pytest.raises(BlockValidationError):
            block.reordered([1, 2, 3])
        with pytest.raises(BlockValidationError):
            block.reordered([1, 1, 2, 3, 4])

    def test_renumbered_is_dense_and_consistent(self):
        block = BasicBlock(
            [const(2, 15), load(5, "a"), mul(9, 2, 5), store(12, "a", 9)]
        )
        dense = block.renumbered()
        assert dense.idents == (1, 2, 3, 4)
        assert dense.by_ident(3).value_refs == (1, 2)
        assert dense.by_ident(4).value_refs == (3,)

    def test_without_removes_tuples(self):
        block = simple_block()
        trimmed = block.without([2])
        assert trimmed.idents == (1, 3, 4, 5)

    def test_without_rejects_dangling_uses(self):
        block = simple_block()
        with pytest.raises(BlockValidationError):
            block.without([1])  # tuple 4 still references 1


class TestBuilder:
    def test_builder_numbers_sequentially(self):
        b = BlockBuilder("built")
        c = b.emit_const(15)
        s = b.emit_store("b", c)
        ld = b.emit_load("a")
        m = b.emit_binary(Opcode.MUL, c, ld)
        b.emit_store("a", m)
        block = b.build()
        assert block.idents == (1, 2, 3, 4, 5)
        assert str(block) == str(simple_block())

    def test_builder_tuple_at(self):
        b = BlockBuilder()
        c = b.emit_const(3)
        assert b.tuple_at(c).op is Opcode.CONST
        assert len(b) == 1

    def test_builder_unary(self):
        b = BlockBuilder()
        c = b.emit_const(3)
        n = b.emit_unary(Opcode.NEG, c)
        assert b.build().by_ident(n).value_refs == (c,)


class TestBuilderValidatesAtEmit:
    """``emit`` runs ``_validate``'s checks against the tuples already
    emitted and fails with the same message a built block would."""

    @staticmethod
    def _messages(emit, tuples):
        with pytest.raises(BlockValidationError) as at_emit:
            emit()
        with pytest.raises(BlockValidationError) as at_validate:
            BasicBlock(tuples)
        return str(at_emit.value), str(at_validate.value)

    def test_forward_reference(self):
        b = BlockBuilder()
        b.emit_const(1)
        emitted, validated = self._messages(
            lambda: b.emit_binary(Opcode.ADD, 1, 3),
            [const(1, 1), add(2, 1, 3), const(3, 2)],
        )
        assert emitted == validated
        assert "does not precede" in emitted

    def test_self_reference(self):
        b = BlockBuilder()
        b.emit_const(1)
        emitted, validated = self._messages(
            lambda: b.emit_unary(Opcode.NEG, 2), [const(1, 1), neg(2, 2)]
        )
        assert emitted == validated

    def test_reference_to_a_store(self):
        b = BlockBuilder()
        b.emit_const(1)
        b.emit_store("x", 1)
        emitted, validated = self._messages(
            lambda: b.emit_unary(Opcode.NEG, 2),
            [const(1, 1), store(2, "x", 1), neg(3, 2)],
        )
        assert emitted == validated
        assert "produces no value" in emitted

    def test_rejected_tuple_is_not_kept(self):
        b = BlockBuilder()
        b.emit_const(1)
        with pytest.raises(BlockValidationError):
            b.emit_binary(Opcode.ADD, 1, 5)
        assert len(b) == 1 and b.next_ident == 2


SOURCE_TEXT = "b = 15; a = b * a; c = a + b; d = c - a;"


def _replay(builder, tuples):
    """Emit ``tuples`` (numbered 1..n) through ``builder``'s typed emitters."""
    for t in tuples:
        if t.op is Opcode.CONST:
            builder.emit_const(t.alpha.value)
        elif t.op is Opcode.LOAD:
            builder.emit_load(t.variable)
        elif t.op is Opcode.STORE:
            builder.emit_store(t.variable, t.beta.ref)
        elif len(t.value_refs) == 1:
            builder.emit_unary(t.op, *t.value_refs)
        else:
            builder.emit_binary(t.op, *t.value_refs)


class TestCopyOnWriteBuilder:
    def test_full_repeat_returns_the_source(self):
        source = lower_source(SOURCE_TEXT)
        b = BlockBuilder(source.name, source=source)
        _replay(b, source.tuples)
        assert b.build() is source

    def test_generic_emit_repeat_returns_the_source(self):
        source = lower_source(SOURCE_TEXT)
        b = BlockBuilder(source.name, source=source)
        for t in source:
            b.emit(t.op, t.alpha, t.beta)
        assert b.build() is source

    @pytest.mark.parametrize("split", range(0, 9))
    def test_divergence_matches_a_fresh_builder(self, split):
        source = lower_source(SOURCE_TEXT)
        assert len(source) > 8
        built = []
        for cow in (BlockBuilder(source.name, source=source), BlockBuilder(source.name)):
            _replay(cow, source.tuples[:split])
            # Diverge: a constant the source does not hold at this spot.
            ident = cow.emit_const(-999)
            assert cow.tuple_at(ident).alpha == ConstOperand(-999)
            if split:
                assert cow.tuple_at(split) == source.tuples[split - 1]
            if split:
                ident = cow.emit_binary(Opcode.ADD, 1, ident)
            cow.emit_store("z", ident)
            built.append(cow.build())
        shared, fresh = built
        assert shared.tuples == fresh.tuples
        assert shared.name == fresh.name
        assert shared.idents == tuple(range(1, len(fresh) + 1))
        assert str(shared) == str(fresh)
        assert shared is not source

    def test_truncated_repeat_is_the_prefix(self):
        source = lower_source(SOURCE_TEXT)
        b = BlockBuilder(source.name, source=source)
        _replay(b, source.tuples[:4])
        block = b.build()
        assert block is not source
        assert block.tuples == source.tuples[:4]
        assert block.position_of(4) == 3

    def test_sparse_source_is_not_shared(self):
        sparse = BasicBlock([const(3, 1), store(7, "x", 3)], "sparse")
        assert not sparse.densely_numbered
        b = BlockBuilder("sparse", source=sparse)
        c = b.emit_const(1)
        b.emit_store("x", c)
        built = b.build()
        assert built.idents == (1, 2)
        assert built.densely_numbered

    def test_divergent_emit_still_validates(self):
        source = lower_source(SOURCE_TEXT)
        b = BlockBuilder(source.name, source=source)
        _replay(b, source.tuples[:2])
        with pytest.raises(BlockValidationError, match="produces no value"):
            b.emit_unary(Opcode.NEG, 2)  # tuple 2 is the Store of b


@given(blocks(max_size=12))
@settings(max_examples=60)
def test_generated_blocks_always_validate(block):
    """The strategy itself must only produce valid blocks (meta-test)."""
    # Re-validating by reconstruction must not raise.
    BasicBlock(block.tuples, block.name)


@given(blocks(max_size=12))
@settings(max_examples=60)
def test_renumbered_preserves_shape(block):
    dense = block.renumbered()
    assert len(dense) == len(block)
    assert dense.idents == tuple(range(1, len(block) + 1))
    for old, new in zip(block, dense):
        assert old.op is new.op
