"""Basic blocks of tuple code.

A :class:`BasicBlock` is an ordered sequence of :class:`~repro.ir.tuples.IRTuple`
instructions with single-entry/single-exit semantics.  The order of the
tuples in the block is the *program order* produced by the front end;
schedulers permute this order subject to the dependence DAG.

Blocks validate their internal references eagerly: every ``RefOperand``
must point at an *earlier* tuple in program order (the linear notation
embeds a DAG, section 3.1), reference numbers must be unique, and Store
targets must name variables.  :class:`BlockBuilder` runs the same checks
tuple by tuple as it emits, so a built block is never walked twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .ops import Opcode
from .tuples import ConstOperand, IRTuple, RefOperand, VarOperand


class BlockValidationError(ValueError):
    """Raised when a basic block's tuples are not internally consistent."""


@dataclass(frozen=True)
class BasicBlock:
    """An immutable basic block of tuple code.

    Parameters
    ----------
    tuples:
        The instructions in program order.
    name:
        Optional label, used only for diagnostics.
    """

    tuples: tuple[IRTuple, ...]
    name: str = "block"
    _index: Dict[int, int] = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __init__(self, tuples: Iterable[IRTuple], name: str = "block"):
        object.__setattr__(self, "tuples", tuple(tuples))
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self,
            "_index",
            {t.ident: pos for pos, t in enumerate(self.tuples)},
        )
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if len(self._index) != len(self.tuples):
            seen: set[int] = set()
            for t in self.tuples:
                if t.ident in seen:
                    raise BlockValidationError(
                        f"duplicate tuple reference number {t.ident}"
                    )
                seen.add(t.ident)
        for pos, t in enumerate(self.tuples):
            for ref in t.value_refs:
                target_pos = self._index.get(ref)
                if target_pos is None:
                    raise BlockValidationError(
                        f"tuple {t.ident} references unknown tuple {ref}"
                    )
                if target_pos >= pos:
                    raise BlockValidationError(
                        f"tuple {t.ident} references tuple {ref} which does "
                        "not precede it in program order"
                    )
                target = self.tuples[target_pos]
                if not target.op.produces_value:
                    raise BlockValidationError(
                        f"tuple {t.ident} references tuple {ref} "
                        f"({target.op.value}) which produces no value"
                    )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[IRTuple]:
        return iter(self.tuples)

    def __getitem__(self, pos: int) -> IRTuple:
        return self.tuples[pos]

    def by_ident(self, ident: int) -> IRTuple:
        """Look a tuple up by its reference number."""
        try:
            return self.tuples[self._index[ident]]
        except KeyError:
            raise KeyError(f"no tuple numbered {ident} in {self.name}") from None

    def position_of(self, ident: int) -> int:
        """Program-order position (0-based) of the tuple numbered ``ident``."""
        return self._index[ident]

    def __contains__(self, ident: int) -> bool:
        return ident in self._index

    @property
    def idents(self) -> tuple[int, ...]:
        """Reference numbers in program order."""
        return tuple(t.ident for t in self.tuples)

    @cached_property
    def densely_numbered(self) -> bool:
        """True when the tuples are numbered 1..n in program order — the
        form lowering and every optimization pass produce."""
        return all(t.ident == i for i, t in enumerate(self.tuples, 1))

    # ------------------------------------------------------------------
    # Variable views
    # ------------------------------------------------------------------
    @property
    def loaded_variables(self) -> tuple[str, ...]:
        """Variables read by Load tuples, in first-occurrence order."""
        seen: dict[str, None] = {}
        for t in self.tuples:
            if t.op is Opcode.LOAD:
                seen.setdefault(t.variable, None)
        return tuple(seen)

    @property
    def stored_variables(self) -> tuple[str, ...]:
        """Variables written by Store tuples, in first-occurrence order."""
        seen: dict[str, None] = {}
        for t in self.tuples:
            if t.op is Opcode.STORE:
                seen.setdefault(t.variable, None)
        return tuple(seen)

    @property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for t in self.tuples:
            if t.variable is not None:
                seen.setdefault(t.variable, None)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reordered(self, order: Sequence[int]) -> "BasicBlock":
        """A new block with the same tuples in schedule order ``order``.

        ``order`` is a permutation of the block's reference numbers.  The
        result keeps the original reference numbers (so operand references
        stay meaningful) but is *not* validated for forward references —
        a scheduled block legally places consumers after producers by
        construction of the schedule, which is checked by the caller
        against the dependence DAG, not by positional validation.
        """
        if sorted(order) != sorted(self._index):
            raise BlockValidationError(
                "reorder must be a permutation of the block's tuples"
            )
        reordered = tuple(self.by_ident(i) for i in order)
        return _unchecked_block(
            reordered,
            self.name,
            {t.ident: pos for pos, t in enumerate(reordered)},
        )

    def renumbered(self) -> "BasicBlock":
        """A new block with tuples renumbered densely 1..n in program order.

        Operand references are rewritten to match.  Used by optimization
        passes after deleting tuples.
        """
        mapping = {t.ident: pos + 1 for pos, t in enumerate(self.tuples)}
        new_tuples = []
        for t in self.tuples:
            alpha = _remap(t.alpha, mapping)
            beta = _remap(t.beta, mapping)
            new_tuples.append(IRTuple(mapping[t.ident], t.op, alpha, beta))
        return BasicBlock(new_tuples, self.name)

    def without(self, idents: Iterable[int]) -> "BasicBlock":
        """A new block with the given tuples removed (references unchecked
        until construction, which will reject dangling uses)."""
        doomed = set(idents)
        return BasicBlock(
            (t for t in self.tuples if t.ident not in doomed), self.name
        )

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return "\n".join(str(t) for t in self.tuples)


def _remap(operand, mapping):
    if isinstance(operand, RefOperand):
        return RefOperand(mapping[operand.ref])
    return operand


def _unchecked_block(
    tuples: tuple[IRTuple, ...], name: str, index: Dict[int, int]
) -> BasicBlock:
    """A block over ``tuples`` whose consistency the caller already owns."""
    block = object.__new__(BasicBlock)
    object.__setattr__(block, "tuples", tuples)
    object.__setattr__(block, "name", name)
    object.__setattr__(block, "_index", index)
    return block


def _dense_block(tuples: tuple[IRTuple, ...], name: str) -> BasicBlock:
    """An unchecked block over ``tuples`` numbered 1..n in order."""
    return _unchecked_block(tuples, name, {t.ident: t.ident - 1 for t in tuples})


class BlockBuilder:
    """Incremental construction of a basic block with automatic numbering.

    The front end, the optimization passes and the synthetic generators
    emit tuples one at a time; the builder hands out reference numbers
    1..n and validates each tuple as it is emitted, against the tuples
    already emitted, with :meth:`BasicBlock._validate`'s checks and
    messages.  Numbering is dense, so every reference below the new
    tuple's own number exists: a reference at or above it is a forward
    reference.  :meth:`build` then trusts what it was given.

    ``source`` makes the builder copy-on-write: a pass rewriting
    ``source`` passes it in, and while every emit repeats the source
    tuple at the same position the builder only counts.  At the first
    tuple that differs it copies the shared prefix and carries on as a
    plain builder; :meth:`build` returns ``source`` itself when the whole
    block was repeated.  Sharing needs a densely numbered source (else
    a repeated tuple would not keep its number); other sources are
    ignored.
    """

    def __init__(self, name: str = "block", source: Optional[BasicBlock] = None):
        self._tuples: List[IRTuple] = []
        self._name = name
        self._source: Optional[BasicBlock] = None
        #: Leading source tuples repeated so far, while still sharing.
        self._shared = 0
        if source is not None and source.densely_numbered:
            self._source = source

    @property
    def next_ident(self) -> int:
        return len(self) + 1

    def _repeat(self) -> Optional[IRTuple]:
        """The source tuple the next emit would repeat, while sharing."""
        source = self._source
        if source is not None and self._shared < len(source.tuples):
            return source.tuples[self._shared]
        return None

    def _share(self) -> int:
        self._shared += 1
        return self._shared

    def emit(self, op: Opcode, alpha=None, beta=None) -> int:
        """Append a tuple; returns its reference number.

        Raises :class:`BlockValidationError` when an operand references a
        tuple that does not precede this one or produces no value.
        """
        src = self._repeat()
        if src is not None and src.op is op and src.alpha == alpha and src.beta == beta:
            return self._share()
        if self._source is not None:
            self._tuples = list(self._source.tuples[: self._shared])
            self._source = None
        tuples = self._tuples
        ident = len(tuples) + 1
        t = IRTuple(ident, op, alpha, beta)
        for ref in t.value_refs:
            if ref >= ident:
                raise BlockValidationError(
                    f"tuple {ident} references tuple {ref} which does "
                    "not precede it in program order"
                )
            target = tuples[ref - 1]
            if not target.op.produces_value:
                raise BlockValidationError(
                    f"tuple {ident} references tuple {ref} "
                    f"({target.op.value}) which produces no value"
                )
        tuples.append(t)
        return ident

    def emit_const(self, value: int) -> int:
        src = self._repeat()
        if src is not None and src.op is Opcode.CONST and src.alpha.value == value:
            return self._share()
        return self.emit(Opcode.CONST, ConstOperand(value))

    def emit_load(self, var: str) -> int:
        src = self._repeat()
        if src is not None and src.op is Opcode.LOAD and src.alpha.name == var:
            return self._share()
        return self.emit(Opcode.LOAD, VarOperand(var))

    def emit_store(self, var: str, ref: int) -> int:
        src = self._repeat()
        if (
            src is not None
            and src.op is Opcode.STORE
            and src.alpha.name == var
            and src.value_refs == (ref,)
        ):
            return self._share()
        return self.emit(Opcode.STORE, VarOperand(var), RefOperand(ref))

    def emit_binary(self, op: Opcode, a: int, b: int) -> int:
        src = self._repeat()
        if src is not None and src.op is op and src.value_refs == (a, b):
            return self._share()
        return self.emit(op, RefOperand(a), RefOperand(b))

    def emit_unary(self, op: Opcode, a: int) -> int:
        src = self._repeat()
        if src is not None and src.op is op and src.value_refs == (a,):
            return self._share()
        return self.emit(op, RefOperand(a))

    def tuple_at(self, ident: int) -> IRTuple:
        """The already-emitted tuple numbered ``ident``."""
        if self._source is not None:
            if not 1 <= ident <= self._shared:
                raise IndexError(f"no tuple numbered {ident} emitted yet")
            return self._source.tuples[ident - 1]
        return self._tuples[ident - 1]

    def build(self) -> BasicBlock:
        source = self._source
        if source is None:
            return _dense_block(tuple(self._tuples), self._name)
        if self._shared == len(source.tuples) and source.name == self._name:
            return source
        return _dense_block(source.tuples[: self._shared], self._name)

    def __len__(self) -> int:
        return self._shared if self._source is not None else len(self._tuples)
