"""Constant folding with value propagation (section 3.1).

One forward walk over the block that simultaneously:

* folds arithmetic over known constants into ``Const`` tuples;
* propagates copies (``Copy`` tuples disappear; their uses point at the
  source);
* forwards stored values to later loads of the same variable
  (load-after-store forwarding), which is how the paper's Figure 3 code
  comes to reference the ``Const 15`` tuple for ``b`` instead of
  re-loading it;
* folds ``Neg`` of constants and double negation.

Division is folded only when the divisor is a non-zero constant, so a
potential arithmetic fault is never optimized away.

The pass returns a block numbered 1..n (the input itself when nothing
changes, see :class:`~repro.ir.block.BlockBuilder`); dead tuples it
orphans (e.g. the operands of a folded expression) are left for DCE.
"""

from __future__ import annotations

from typing import Dict

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from ..ir.tuples import ConstOperand, RefOperand, VarOperand


def fold_constants(block: BasicBlock) -> BasicBlock:
    """Apply constant folding + value propagation once."""
    builder = BlockBuilder(block.name, source=block)
    # Substitution from old reference numbers to new ones.
    sub: Dict[int, int] = {}
    # New refs known to be constants, and their values.
    const_value: Dict[int, int] = {}
    # Variable -> new ref currently holding its value (set by Store/Load).
    var_value: Dict[str, int] = {}

    def resolve(ref: int) -> int:
        return sub[ref]

    def emit_const(value: int) -> int:
        ref = builder.emit_const(value)
        const_value[ref] = value
        return ref

    for t in block:
        op = t.op
        if op is Opcode.CONST:
            assert isinstance(t.alpha, ConstOperand)
            sub[t.ident] = emit_const(t.alpha.value)
        elif op is Opcode.COPY:
            assert isinstance(t.alpha, RefOperand)
            sub[t.ident] = resolve(t.alpha.ref)
        elif op is Opcode.NEG:
            assert isinstance(t.alpha, RefOperand)
            source = resolve(t.alpha.ref)
            if source in const_value:
                sub[t.ident] = emit_const(-const_value[source])
            else:
                source_tuple = builder.tuple_at(source)
                if source_tuple.op is Opcode.NEG:
                    # Neg(Neg(x)) == x under exact arithmetic.
                    assert isinstance(source_tuple.alpha, RefOperand)
                    sub[t.ident] = source_tuple.alpha.ref
                else:
                    sub[t.ident] = builder.emit_unary(Opcode.NEG, source)
        elif op is Opcode.LOAD:
            assert isinstance(t.alpha, VarOperand)
            var = t.alpha.name
            if var in var_value:
                sub[t.ident] = var_value[var]
            else:
                ref = builder.emit_load(var)
                var_value[var] = ref
                sub[t.ident] = ref
        elif op is Opcode.STORE:
            assert isinstance(t.alpha, VarOperand) and isinstance(
                t.beta, RefOperand
            )
            value_ref = resolve(t.beta.ref)
            builder.emit_store(t.alpha.name, value_ref)
            var_value[t.alpha.name] = value_ref
        else:  # binary arithmetic
            assert isinstance(t.alpha, RefOperand) and isinstance(
                t.beta, RefOperand
            )
            a = resolve(t.alpha.ref)
            b = resolve(t.beta.ref)
            if a in const_value and b in const_value:
                if op is Opcode.DIV and const_value[b] == 0:
                    # Preserve the fault: emit the division unfolded.
                    sub[t.ident] = builder.emit_binary(op, a, b)
                else:
                    value = op.evaluate(const_value[a], const_value[b])
                    # Folding may produce a non-integer (exact division);
                    # only fold when it stays integral, as Const is integer.
                    if value == int(value):
                        sub[t.ident] = emit_const(int(value))
                    else:
                        sub[t.ident] = builder.emit_binary(op, a, b)
            else:
                sub[t.ident] = builder.emit_binary(op, a, b)

    return builder.build()
