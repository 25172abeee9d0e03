"""Peephole / algebraic simplifications (section 3.1's "various peephole
optimizations").

Applied patterns (all exact under the interpreter's arithmetic):

================  ============================
``x + 0``, ``0 + x``   -> ``x``
``x - 0``              -> ``x``
``x - x``              -> ``Const 0``
``x * 1``, ``1 * x``   -> ``x``
``x / 1``              -> ``x``
``x * 0``, ``0 * x``   -> ``Const 0``
``x * 2``, ``2 * x``   -> ``x + x``  (strength reduction, optional)
``Neg(Const c)``       -> ``Const -c``
================  ============================

``x / x`` is *not* rewritten to 1 (x may be zero) and nothing touching a
``Div`` divisor is simplified away.  Simplified tuples become ``Copy`` or
``Const`` tuples; a following constant-folding pass erases the copies and
DCE collects the orphans, so this pass is designed to run inside the
fixpoint pass manager rather than alone.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from ..ir.tuples import ConstOperand, RefOperand, VarOperand


def peephole_optimize(
    block: BasicBlock, strength_reduce: bool = True
) -> BasicBlock:
    """Apply the algebraic rewrites once; returns a block numbered 1..n
    (``block`` itself when that changes nothing)."""
    builder = BlockBuilder(block.name, source=block)
    sub: Dict[int, int] = {}
    const_of: Dict[int, int] = {}  # new ref -> constant value (if Const)

    def emit_const(value: int) -> int:
        ref = builder.emit_const(value)
        const_of[ref] = value
        return ref

    def const_val(ref: int) -> Optional[int]:
        return const_of.get(ref)

    for t in block:
        op = t.op
        if op is Opcode.CONST:
            assert isinstance(t.alpha, ConstOperand)
            sub[t.ident] = emit_const(t.alpha.value)
        elif op is Opcode.LOAD:
            assert isinstance(t.alpha, VarOperand)
            sub[t.ident] = builder.emit_load(t.alpha.name)
        elif op is Opcode.STORE:
            assert isinstance(t.beta, RefOperand)
            builder.emit_store(t.variable, sub[t.beta.ref])
        elif op is Opcode.COPY:
            assert isinstance(t.alpha, RefOperand)
            sub[t.ident] = sub[t.alpha.ref]
        elif op is Opcode.NEG:
            assert isinstance(t.alpha, RefOperand)
            source = sub[t.alpha.ref]
            value = const_val(source)
            if value is not None:
                sub[t.ident] = emit_const(-value)
            else:
                sub[t.ident] = builder.emit_unary(Opcode.NEG, source)
        else:
            assert isinstance(t.alpha, RefOperand) and isinstance(
                t.beta, RefOperand
            )
            a = sub[t.alpha.ref]
            b = sub[t.beta.ref]
            ca, cb = const_val(a), const_val(b)
            replacement: Optional[int] = None
            if op is Opcode.ADD:
                if ca == 0:
                    replacement = b
                elif cb == 0:
                    replacement = a
            elif op is Opcode.SUB:
                if cb == 0:
                    replacement = a
                elif a == b:
                    replacement = emit_const(0)
            elif op is Opcode.MUL:
                if ca == 1:
                    replacement = b
                elif cb == 1:
                    replacement = a
                elif ca == 0 or cb == 0:
                    replacement = emit_const(0)
                elif strength_reduce and ca == 2:
                    replacement = builder.emit_binary(Opcode.ADD, b, b)
                elif strength_reduce and cb == 2:
                    replacement = builder.emit_binary(Opcode.ADD, a, a)
            elif op is Opcode.DIV:
                if cb == 1:
                    replacement = a
            if replacement is None:
                replacement = builder.emit_binary(op, a, b)
            sub[t.ident] = replacement

    return builder.build()
