"""Finite ground sets, subset masks, coats, refinements, and generated algebras.

Subsets are stored positionally: bit i of a mask is element i of the owning
ground set.  All values here are immutable after construction (an algebra
or a refinement builds its member lists once, on first read, with the same
value in any thread) and every operation is a pure function, so everything
in this module is safe to share across threads without coordination.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

MAX_GROUND_SIZE = 24

# 2**n loops above this size are refused rather than attempted.
DEFAULT_EXHAUSTIVE_LIMIT = 1 << 16


class BudgetExceeded(RuntimeError):
    """An exhaustive loop would exceed its configured subset budget."""


@dataclass(frozen=True)
class GroundSet:
    """An ordered universe of distinct opaque element labels."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("ground set must list at least one element")
        if self.n > MAX_GROUND_SIZE:
            raise ValueError(f"ground set has {self.n} elements, more than {MAX_GROUND_SIZE}")
        if len(set(self.elements)) != self.n:
            raise ValueError("duplicate element label in ground set")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_bits(self) -> int:
        return (1 << self.n) - 1

    def mask(self, bits: int) -> "SubsetMask":
        return SubsetMask(self, bits)

    def empty(self) -> "SubsetMask":
        return SubsetMask(self, 0)

    def full(self) -> "SubsetMask":
        return SubsetMask(self, self.full_bits)

    def subset(self, labels: Iterable[str]) -> "SubsetMask":
        bits = 0
        for label in labels:
            try:
                bits |= 1 << self.elements.index(label)
            except ValueError:
                raise KeyError(f"unknown element label: {label!r}") from None
        return SubsetMask(self, bits)

    def all_subsets(self) -> Iterator["SubsetMask"]:
        """Yield all 2**n subsets in mask order, refusing oversized loops."""
        if (1 << self.n) > DEFAULT_EXHAUSTIVE_LIMIT:
            raise BudgetExceeded(f"2**{self.n} subsets exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
        for bits in range(1 << self.n):
            yield SubsetMask(self, bits)


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a ground set, stored as a fixed-width bit vector."""

    ground: GroundSet
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.ground.full_bits:
            raise ValueError("mask bits out of range for the ground set")

    def _require_same_ground(self, other: "SubsetMask") -> None:
        if self.ground != other.ground:
            raise ValueError("masks belong to different ground sets")

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == self.ground.full_bits

    def labels(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.ground.elements) if self.bits >> i & 1)

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._require_same_ground(other)
        return SubsetMask(self.ground, self.bits & other.bits)

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._require_same_ground(other)
        return SubsetMask(self.ground, self.bits | other.bits)

    def difference(self, other: "SubsetMask") -> "SubsetMask":
        self._require_same_ground(other)
        return SubsetMask(self.ground, self.bits & ~other.bits)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.ground, self.bits ^ self.ground.full_bits)

    def issubset(self, other: "SubsetMask") -> bool:
        self._require_same_ground(other)
        return self.bits & ~other.bits == 0

    def __hash__(self) -> int:
        # Equal masks have equal bits; hashing the ground's labels adds nothing.
        return hash(self.bits)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"

    def __repr__(self) -> str:
        return f"SubsetMask({self})"


@dataclass(frozen=True)
class Coat:
    """An indexed family of subsets that contains both the empty and full set."""

    ground: GroundSet
    members: tuple[SubsetMask, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for m in self.members:
            if m.ground != self.ground:
                raise ValueError("coat member over a different ground set")
            if m.bits in seen:
                raise ValueError(f"duplicate coat member {m}")
            seen.add(m.bits)
        if 0 not in seen:
            raise ValueError("coat must contain empty")
        if self.ground.full_bits not in seen:
            raise ValueError("coat must contain omega")
        object.__setattr__(self, "_member_bits", tuple(m.bits for m in self.members))

    @classmethod
    def from_bits(cls, ground: GroundSet, bits_list: Iterable[int]) -> "Coat":
        return cls(ground, tuple(SubsetMask(ground, b) for b in bits_list))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)

    def member_bits(self) -> tuple[int, ...]:
        """The members' bits in coat order, built once at construction."""
        return self._member_bits


@dataclass(frozen=True, eq=False)
class Refinement:
    """All pairwise meets and differences of coat members, deduplicated by value.

    Deduplication is by mask value, never by formal expression, so a value
    attached to a member is automatically well-defined on the underlying set.
    The coat fixes the members: ``bits`` holds X & Y and X & ~Y for X, Y in it, in
    first-seen order, and ``members``, their masks in that order, is built on first read.
    """

    coat: Coat
    bits: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        masks = self.coat.member_bits()
        seen = dict.fromkeys(b for x in masks for y in masks for b in (x & y, x & ~y))
        object.__setattr__(self, "bits", tuple(seen))

    @property
    def ground(self) -> GroundSet:
        return self.coat.ground

    @cached_property
    def members(self) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(self.ground, b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)


def refine(c: Coat) -> Refinement:
    """All sets X & Y and X & ~Y for X, Y in the coat, in first-seen order."""
    return Refinement(c)


def bit_indices(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending: each step peels the lowest."""
    indices = []
    while mask:
        indices.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(indices)


def subset_table(items: Iterable[int], combine: Callable[[int, int], int] = operator.or_) -> list[int]:
    """Entry s combines (unions, or sums with ``operator.add``) the items in the bits of s.

    Item i doubles the table: entries 2**i to 2**(i+1) - 1 are the entries
    below, each combined with item i, so the table is linear in its length."""
    table = [0]
    for item in items:
        table += map(combine, table, repeat(item, len(table)))  # stops at the old length
    return table


def _atom_bits(n: int, masks: Sequence[int]) -> list[int]:
    """The classes of elements that belong to the same members, in mask order.

    Elements are grouped by their membership signature across ``masks``;
    these classes are the atoms of the algebra the masks generate.
    """
    blocks: dict[tuple[int, ...], int] = {}
    for i in range(n):
        signature = tuple(m >> i & 1 for m in masks)
        blocks[signature] = blocks.get(signature, 0) | (1 << i)
    return sorted(blocks.values())


@dataclass(frozen=True)
class AlgebraFamily:
    """The algebra of all unions of ``atoms``, disjoint blocks covering the ground set.

    Member i is the union of the atoms in the bits of i.  Atoms are disjoint
    and ascend in mask order, so each atom's top bit lies above every bit of
    the atoms before it, and the members come out in mask order.  ``bits``
    and ``members`` are built on first read; more than
    ``DEFAULT_EXHAUSTIVE_LIMIT`` members are refused with ``BudgetExceeded``.
    """

    ground: GroundSet
    atoms: tuple[int, ...]

    def __post_init__(self) -> None:
        if (1 << len(self.atoms)) > DEFAULT_EXHAUSTIVE_LIMIT:
            raise BudgetExceeded(
                f"2**{len(self.atoms)} algebra members exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
        union = 0
        for atom in self.atoms:
            # Disjoint atoms ascend iff each exceeds the union of those before it.
            if atom <= union or atom & union:
                raise ValueError("algebra atoms must be nonempty, pairwise disjoint and in mask order")
            union |= atom
        if union != self.ground.full_bits:
            raise ValueError("algebra atoms must cover the ground set")

    @cached_property
    def bits(self) -> tuple[int, ...]:
        return tuple(subset_table(self.atoms))

    @cached_property
    def members(self) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(self.ground, b) for b in self.bits)

    def __len__(self) -> int:
        return 1 << len(self.atoms)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)


def generate_algebra(c: Coat) -> AlgebraFamily:
    """The algebra generated by the coat: every union of its atoms.

    On a finite ground set the generated algebra is exactly the 2**m unions
    of its m atoms (Halmos, *Measure Theory*, 1950, sections 4-5).  More than
    ``DEFAULT_EXHAUSTIVE_LIMIT`` members are refused with ``BudgetExceeded``.
    """
    return AlgebraFamily(c.ground, tuple(_atom_bits(c.ground.n, c.member_bits())))
