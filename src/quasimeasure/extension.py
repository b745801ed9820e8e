"""Splitting-measurability tests and extension to the generated algebra.

A candidate set W is measurable when the exterior value splits exactly
through it: for every subset A, the exterior value of A equals the sum of
the exterior values of A-inside-W and A-outside-W.  Extending a
quasi-measure means tabulating the exterior value on every member of the
algebra generated by the coat; verifying the table means checking exact
finite additivity, certified by the sums of each member's atom values: the
disjoint pairs are walked only when some member disagrees with its sum.

Each subset's exterior value is read from that table at its hull.  The
atom sums decide the algebra's measurability; splitting tests over all
subsets run only on the audit and on tables the sums do not certify, and
past the budgets they refuse instead of sampling.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .cover import CoverSolution
from .quasi import ONE, QuasiMeasure, coat_solver
from .report import AxiomReport, ReportBuilder, Witness
from .sets import (DEFAULT_EXHAUSTIVE_LIMIT, AlgebraFamily, BudgetExceeded, SubsetMask, generate_algebra,
                   subset_table)

AUDIT_LIMIT = 5  # ground sets up to this size get the all-subsets audit
SPLIT_BUDGET = 1 << 24  # lookups in measurable_family, 2**n per splitting test that runs
TRIPLE_BUDGET = 1 << 18  # disjoint-triple candidates checked before sampling


def is_caratheodory_measurable(qm: QuasiMeasure, w: SubsetMask) -> tuple[bool, SubsetMask | None]:
    """Exhaustive splitting test over all 2**n subsets; returns the first violating A in mask order."""
    if w.ground != qm.ground:
        raise ValueError("candidate set belongs to a different ground set")
    return _first_split_failure(qm, w, _subset_values(qm))


def _subset_values(qm: QuasiMeasure, table: MeasureTable | None = None) -> list[int]:
    """Every subset's exterior value by mask, over the table's scale, up to 2**16 subsets.

    Coat members are unions of atoms, so a cover of A covers each atom A
    meets: A has the value of its hull, the member of its elements' atoms."""
    n = qm.ground.n
    if (1 << n) > DEFAULT_EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(f"2**{n} subsets exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
    table = extend(qm) if table is None else table
    atoms = table.algebra.atoms
    owners = (sum(1 << j for j, atom in enumerate(atoms) if atom >> i & 1) for i in range(n))
    return [table.numerators[hull] for hull in subset_table(owners)]


def _first_split_failure(qm: QuasiMeasure, w: SubsetMask,
                         values: Sequence[int]) -> tuple[bool, SubsetMask | None]:
    """Splitting test of ``w`` over every subset A, on exterior values indexed by mask."""
    inside, outside = w.bits, w.bits ^ qm.ground.full_bits
    for a, value in enumerate(values):
        if value != values[a & inside] + values[a & outside]:
            return False, qm.ground.mask(a)
    return True, None


@dataclass(frozen=True)
class MeasurabilityRecord:
    candidate: SubsetMask
    measurable: bool
    counterexample: SubsetMask | None


@dataclass(frozen=True)
class MeasurabilityReport:
    """Splitting-test outcomes for the generated algebra, plus a full audit.

    ``algebra`` covers every member of the algebra generated by the coat.
    ``audit`` covers all 2**n candidate subsets on small ground sets and is
    empty otherwise; it exists so the family of all measurable sets can be
    inspected directly.
    """

    algebra: tuple[MeasurabilityRecord, ...]
    audit: tuple[MeasurabilityRecord, ...]

    @property
    def all_algebra_measurable(self) -> bool:
        return all(r.measurable for r in self.algebra)


def measurable_family(qm: QuasiMeasure) -> MeasurabilityReport:
    """Splitting tests of every algebra member and audit candidate on ``extend``'s table.

    Every member is measurable iff the table is additive (Folland, *Real
    Analysis*, 2nd ed., 1999, Prop. 1.13), so its atom sums certify them
    untested.  Past ``SPLIT_BUDGET`` lookups, 2**n per test that would run,
    the call refuses with ``BudgetExceeded`` before any test runs.
    """
    n = qm.ground.n
    table = extend(qm)
    certified = _atom_sums_agree(table)
    audit = list(qm.ground.all_subsets()) if n <= AUDIT_LIMIT else []
    tested = len(audit) + (0 if certified else len(table.algebra))
    if tested << n > SPLIT_BUDGET:
        raise BudgetExceeded(f"{tested} splitting tests by 2**{n} subsets make {tested << n} lookups,"
                             f" over SPLIT_BUDGET={SPLIT_BUDGET}")
    values = _subset_values(qm, table) if tested else []

    def records(candidates: Iterable[SubsetMask], test: bool = True) -> tuple[MeasurabilityRecord, ...]:
        return tuple(MeasurabilityRecord(w, *_first_split_failure(qm, w, values)) if test
                     else MeasurabilityRecord(w, True, None) for w in candidates)

    return MeasurabilityReport(records(table.algebra, not certified), records(audit))


@dataclass(frozen=True, eq=False)
class MeasureTable:
    """Exterior values tabulated on the generated algebra, with witnesses.

    Entry i is member i of the algebra, the union of the atoms in the bits
    of i: its value is ``numerators[i] / scale`` and ``covers[i]`` holds the
    ascending coat indices of an optimal cover.  ``extend`` stores the least
    ``scale``, the lcm of the value denominators.  The table carries no
    verification claim: on axiom-failing inputs the full set can admit a
    cover cheaper than 1, so ``verify_premeasure`` checks that endpoint.
    """

    algebra: AlgebraFamily
    scale: int
    numerators: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.algebra)
        if len(self.numerators) != size or len(self.covers) != size:
            raise ValueError("table must assign exactly the algebra members")
        if self.scale < 1:
            raise ValueError("table scale must be positive")
        if self.numerators[0] != 0:
            raise ValueError("table value of the empty set must be 0")
        for i, numerator in enumerate(self.numerators):
            if not 0 <= numerator <= self.scale:
                mask = self.algebra.ground.mask(self.algebra.bits[i])
                raise ValueError(f"table value outside [0,1] at {mask}")

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The exterior values as exact rationals, built once on first use."""
        return tuple(Fraction(v, self.scale) for v in self.numerators)

    def value(self, mask: SubsetMask) -> Fraction:
        bits = self.algebra.bits
        i = bisect.bisect_left(bits, mask.bits)
        if i == len(bits) or bits[i] != mask.bits or mask.ground != self.algebra.ground:
            raise KeyError(f"{mask} is not a member of the table's algebra")
        return Fraction(self.numerators[i], self.scale)

    def rows(self) -> tuple[tuple[SubsetMask, Fraction, CoverSolution], ...]:
        return tuple((m, v, CoverSolution(chosen, v))
                     for m, v, chosen in zip(self.algebra.members, self.values, self.covers))


def extend(qm: QuasiMeasure) -> MeasureTable:
    """Tabulate the exterior value on every generated-algebra member.

    Never refuses axiom-failing inputs; negative instances are first-class
    material and verification is a separate step.
    """
    solve = coat_solver(qm).solve
    algebra = generate_algebra(qm.coat)
    solved = [solve(b) for b in algebra.bits]
    divisor = math.gcd(qm.scale, *(cost for cost, _ in solved))
    return MeasureTable(algebra, qm.scale // divisor, tuple(cost // divisor for cost, _ in solved),
                        tuple(chosen for _, chosen in solved))


def verify_premeasure(table: MeasureTable) -> AxiomReport:
    """Exact additivity checks on the tabulated algebra values.

    The atom sums certify an additive table; the disjoint pairs, whose
    failures the report lists, are walked only when they do not.  When some
    pair fails, disjoint triples are checked too, all of them while they fit
    the budget and a seeded sample otherwise.
    Member i of the algebra is the union of the atoms in the bits of i, so
    members i, j are disjoint iff ``i & j == 0``, with union member ``i | j``.
    Values are compared as the table's int numerators over its ``scale``.
    Each failure is kept as its member indices packed into one int, and its
    witness is built only when the report's witness sequence is read.
    """
    rb = ReportBuilder("premeasure")
    rb.declare("endpoints", "nonnegative", "pair-additivity", "triple-additivity")
    nums, scale = table.numerators, table.scale
    # The table holds the empty set at 0 and every value in [0, 1], so only
    # the omega endpoint can fail and "nonnegative" always passes.
    if nums[-1] != scale:
        omega = table.algebra.ground.full()
        rb.fail("endpoints", Witness((("set", omega),), Fraction(nums[-1], scale), ONE, "eq"))

    size = len(nums)
    shift = (size - 1).bit_length()  # a finite algebra has 2**shift members
    low = size - 1
    pairs = array("q")
    for i in () if _atom_sums_agree(table) else range(size):
        # j runs in ascending order over the members above i and disjoint from
        # it, the submasks of rest from the first bit past i's top bit on.
        rest = low ^ i
        j = 1 << i.bit_length()
        high = i << shift
        while j & rest:
            if nums[i | j] != nums[i] + nums[j]:
                pairs.append(high | j)
            j = (j - rest) & rest
    rb.fail_each("pair-additivity", pairs, functools.partial(_packed_witness, table, 2))

    # Additive pairs make additive triples, since i | j is a member disjoint
    # from k, so only a failed pair can leave a triple to report.
    exhaustive = size * (size - 1) * (size - 2) // 6 <= TRIPLE_BUDGET
    rb.note("triples=exhaustive" if exhaustive
            else f"triples=sampled budget={TRIPLE_BUDGET // 8} seed=0")
    triples: Iterable[tuple[int, int, int]] = ()
    if pairs and exhaustive:
        triples = _disjoint_triples(size)
    elif pairs:
        sampled = _sampled_triples(random.Random(0), size, TRIPLE_BUDGET // 8)
        triples = ((i, j, k) for i, j, k in sampled if not (i & j or i & k or j & k))
    failed = array("q")
    for i, j, k in triples:
        if nums[i | j | k] != nums[i] + nums[j] + nums[k]:
            failed.append((i << shift | j) << shift | k)
    rb.fail_each("triple-additivity", failed, functools.partial(_packed_witness, table, 3))
    return rb.build()


def _atom_sums_agree(table: MeasureTable) -> bool:
    """Whether each member's value is the sum of its atoms' values: iff the table is additive."""
    nums = table.numerators
    atom_values = (nums[1 << a] for a in range(len(table.algebra.atoms)))
    return subset_table(atom_values, operator.add) == list(nums)


def _packed_witness(table: MeasureTable, parts: int, record: int) -> Witness:
    """The witness of ``parts`` disjoint members that ``verify_premeasure`` packed
    into ``record``, ``shift`` bits each, the first member highest."""
    shift = (len(table.numerators) - 1).bit_length()
    low = (1 << shift) - 1
    indices = [record >> shift * p & low for p in reversed(range(parts))]
    mask, bits, nums = table.algebra.ground.mask, table.algebra.bits, table.numerators
    return Witness(tuple((f"E{p + 1}", mask(bits[i])) for p, i in enumerate(indices)),
                   Fraction(nums[functools.reduce(operator.or_, indices)], table.scale),
                   Fraction(sum(nums[i] for i in indices), table.scale), "eq")


def _disjoint_triples(size: int) -> Iterator[tuple[int, int, int]]:
    """The pairwise-disjoint member triples i < j < k of an algebra of ``size`` members, ascending.

    As in the pair walk, j runs over the submasks of the members disjoint
    from i that lie above i, and k the same way over those disjoint from i | j."""
    low = size - 1
    for i in range(size):
        rest = low ^ i
        j = 1 << i.bit_length()
        while j & rest:
            free = rest ^ j
            k = 1 << j.bit_length()
            while k & free:
                yield i, j, k
                k = (k - free) & free
            j = (j - rest) & rest


def _sampled_triples(rng: random.Random, size: int, count: int) -> Iterator[tuple[int, int, int]]:
    """The triples of ``count`` calls of ``rng.sample(range(size), 3)``, for ``size > 21``.

    Above 21 items, ``sample`` draws 3 indices through ``_randbelow``, which
    draws ``getrandbits(size.bit_length())`` again while the value is at
    least ``size``, and it draws again an index it already took.  This makes
    the same ``getrandbits`` calls without the per-sample list, set and range.
    """
    bits = size.bit_length()
    draw = rng.getrandbits
    for _ in range(count):
        i = draw(bits)
        while i >= size:
            i = draw(bits)
        j = draw(bits)
        while j >= size or j == i:
            j = draw(bits)
        k = draw(bits)
        while k >= size or k == i or k == j:
            k = draw(bits)
        yield i, j, k
