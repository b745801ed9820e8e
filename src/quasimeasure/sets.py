"""Finite ground sets, subset masks, coats, refinements, and generated algebras.

Subsets are stored positionally: bit i of a mask is element i of the owning
ground set.  All values here are immutable after construction and every
operation is a pure function, so everything in this module is safe to share
across threads without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        if not 1 <= len(self.elements) <= MAX_GROUND_SIZE:
            raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SIZE}")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground set labels must be pairwise distinct")

    @classmethod
    def of(cls, *labels: str) -> "GroundSet":
        return cls(tuple(labels))

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

    def isdisjoint(self, other: "SubsetMask") -> bool:
        self._require_same_ground(other)
        return self.bits & other.bits == 0

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

    @classmethod
    def from_bits(cls, ground: GroundSet, bits_list: Iterable[int]) -> "Coat":
        return cls(ground, tuple(SubsetMask(ground, b) for b in bits_list))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)

    def member_bits(self) -> tuple[int, ...]:
        return tuple(m.bits for m in self.members)


@dataclass(frozen=True)
class Derivation:
    """How a refinement member arises from the coat: S_i & S_j or S_i & ~S_j."""

    left: int
    right: int
    kind: str  # "meet" or "diff"

    def __post_init__(self) -> None:
        if self.kind not in ("meet", "diff"):
            raise ValueError(f"unknown derivation kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class Refinement:
    """All pairwise meets and differences of coat members, deduplicated by value.

    Deduplication is by mask value, never by formal expression, so a value
    attached to a member is automatically well-defined on the underlying set.
    All derivations of each member are retained for auditing.
    """

    coat: Coat
    members: tuple[SubsetMask, ...]
    provenance: dict[SubsetMask, tuple[Derivation, ...]]

    @property
    def ground(self) -> GroundSet:
        return self.coat.ground

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)

    def __contains__(self, mask: SubsetMask) -> bool:
        return mask in self.provenance


def refine(c: Coat) -> Refinement:
    """All sets X & Y and X & ~Y for X, Y in the coat, in first-seen order."""
    ground = c.ground
    masks = c.member_bits()
    order: list[int] = []
    prov: dict[int, list[Derivation]] = {}
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            for kind, bits in (("meet", x & y), ("diff", x & ~y)):
                if bits not in prov:
                    prov[bits] = []
                    order.append(bits)
                prov[bits].append(Derivation(i, j, kind))
    members = tuple(SubsetMask(ground, b) for b in order)
    provenance = {m: tuple(prov[m.bits]) for m in members}
    return Refinement(c, members, provenance)


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
    """A family of subsets closed under complement and pairwise union."""

    ground: GroundSet
    members: tuple[SubsetMask, ...]  # ascending mask order

    def __post_init__(self) -> None:
        bits = [m.bits for m in self.members]
        present = set(bits)
        if len(present) != len(bits) or bits != sorted(bits):
            raise ValueError("algebra members must be distinct and in mask order")
        full = self.ground.full_bits
        if 0 not in present or full not in present:
            raise ValueError("algebra must contain empty and omega")
        # A family lies inside the algebra it generates, which has one member
        # per union of atoms, so the family is closed iff it has that size.
        atoms = len(_atom_bits(self.ground.n, bits))
        if len(bits) != 1 << atoms:
            raise ValueError(
                f"algebra not closed under complement and union: {len(bits)} members"
                f" generate {1 << atoms}"
            )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)


def generate_algebra(c: Coat) -> AlgebraFamily:
    """The algebra generated by the coat: every union of its atoms.

    On a finite ground set the generated algebra is exactly the 2**m unions
    of its m atoms (Halmos, *Measure Theory*, 1950, sections 4-5).  Atoms are
    disjoint and ascend in mask order, so each atom's top bit lies above
    every bit of the atoms before it, and the unions come out in mask order
    when indexed by the bits of their atom set.  More than
    ``DEFAULT_EXHAUSTIVE_LIMIT`` members are refused with ``BudgetExceeded``.
    """
    atoms = _atom_bits(c.ground.n, c.member_bits())
    if (1 << len(atoms)) > DEFAULT_EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(f"2**{len(atoms)} algebra members exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
    unions = [0] * (1 << len(atoms))
    for s in range(1, len(unions)):
        unions[s] = unions[s & (s - 1)] | atoms[(s & -s).bit_length() - 1]
    return AlgebraFamily(c.ground, tuple(SubsetMask(c.ground, b) for b in unions))
