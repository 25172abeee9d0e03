"""Common-subexpression elimination by local value numbering.

Two tuples compute the same value when they apply the same operation to
operands with the same value numbers — with commutative operands
canonicalized (``Add``/``Mul``), constants keyed by their literal value,
and ``Load`` keyed by the variable *and its store epoch* (the count of
stores to that variable seen so far), so loads separated by a store are
never merged.

``Store`` tuples are never merged; ``Div`` participates normally (merging
two identical divisions cannot lose a fault — both faulted or neither).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from ..ir.tuples import ConstOperand, RefOperand, VarOperand


def eliminate_common_subexpressions(block: BasicBlock) -> BasicBlock:
    """Apply local value numbering once; returns a block numbered 1..n
    (``block`` itself when that changes nothing)."""
    builder = BlockBuilder(block.name, source=block)
    sub: Dict[int, int] = {}  # old ref -> new ref
    available: Dict[Tuple, int] = {}  # value key -> new ref
    store_epoch: Dict[str, int] = {}

    for t in block:
        op = t.op
        if op is Opcode.CONST:
            assert isinstance(t.alpha, ConstOperand)
            key = ("const", t.alpha.value)
            if key in available:
                sub[t.ident] = available[key]
            else:
                ref = builder.emit_const(t.alpha.value)
                available[key] = ref
                sub[t.ident] = ref
        elif op is Opcode.LOAD:
            assert isinstance(t.alpha, VarOperand)
            var = t.alpha.name
            key = ("load", var, store_epoch.get(var, 0))
            if key in available:
                sub[t.ident] = available[key]
            else:
                ref = builder.emit_load(var)
                available[key] = ref
                sub[t.ident] = ref
        elif op is Opcode.STORE:
            assert isinstance(t.alpha, VarOperand) and isinstance(
                t.beta, RefOperand
            )
            var = t.alpha.name
            builder.emit_store(var, sub[t.beta.ref])
            store_epoch[var] = store_epoch.get(var, 0) + 1
        elif op in (Opcode.COPY, Opcode.NEG):
            assert isinstance(t.alpha, RefOperand)
            operand = sub[t.alpha.ref]
            key = (op.value, operand)
            if key in available:
                sub[t.ident] = available[key]
            else:
                ref = builder.emit_unary(op, operand)
                available[key] = ref
                sub[t.ident] = ref
        else:  # binary arithmetic
            assert isinstance(t.alpha, RefOperand) and isinstance(
                t.beta, RefOperand
            )
            a = sub[t.alpha.ref]
            b = sub[t.beta.ref]
            if op.is_commutative and b < a:
                a, b = b, a
            key = (op.value, a, b)
            if key in available:
                sub[t.ident] = available[key]
            else:
                ref = builder.emit_binary(op, a, b)
                available[key] = ref
                sub[t.ident] = ref

    return builder.build()
