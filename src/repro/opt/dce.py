"""Dead-code elimination (section 3.1).

Within one basic block the observable effects are the final values of
stored variables, so:

* a ``Store`` is dead when a later ``Store`` to the same variable
  overwrites it with no intervening ``Load`` of that variable
  (dead-store elimination, optional);
* a value-producing tuple is dead when nothing (transitively) reaching a
  live ``Store`` consumes its result — except ``Div``, which is kept even
  when unused because eliminating it could erase a division-by-zero
  fault (matching the interpreter's semantics).

Returns a block numbered 1..n: the input itself when it already is and
nothing is dead.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from ..ir.tuples import RefOperand


def eliminate_dead_code(
    block: BasicBlock, remove_dead_stores: bool = True
) -> BasicBlock:
    """Apply DCE once (with optional dead-store elimination)."""
    live_stores: Set[int] = {t.ident for t in block if t.op is Opcode.STORE}
    if remove_dead_stores:
        # A store is killed by a later store to the same variable with no
        # intervening load of that variable.
        pending_kill: Dict[str, int] = {}
        for t in block:
            if t.op is Opcode.STORE:
                var = t.variable
                if var in pending_kill:
                    live_stores.discard(pending_kill[var])
                pending_kill[var] = t.ident
            elif t.op is Opcode.LOAD:
                pending_kill.pop(t.variable, None)

    # Mark transitively needed values from the live roots.
    needed: Set[int] = set()
    roots: List[int] = sorted(live_stores)
    # Keep possible faults: an unused Div still divides.
    roots += [t.ident for t in block if t.op is Opcode.DIV]
    stack = list(roots)
    while stack:
        ident = stack.pop()
        if ident in needed:
            continue
        needed.add(ident)
        for ref in block.by_ident(ident).value_refs:
            if ref not in needed:
                stack.append(ref)

    keep = [
        t
        for t in block
        if (t.ident in needed)
        or (t.op is Opcode.STORE and t.ident in live_stores)
    ]
    if len(keep) == len(block) and block.densely_numbered:
        return block
    builder = BlockBuilder(block.name, source=block)
    new_ref: Dict[int, int] = {}
    for t in keep:
        alpha = t.alpha
        beta = t.beta
        if isinstance(alpha, RefOperand):
            alpha = RefOperand(new_ref[alpha.ref])
        if isinstance(beta, RefOperand):
            beta = RefOperand(new_ref[beta.ref])
        new_ref[t.ident] = builder.emit(t.op, alpha, beta)
    return builder.build()
