"""Splitting-measurability tests and extension to the generated algebra.

A candidate set W is measurable when the exterior value splits exactly
through it: for every subset A, the exterior value of A equals the sum of
the exterior values of A-inside-W and A-outside-W.  Extending a
quasi-measure means tabulating the exterior value on every member of the
algebra generated by the coat; verifying the table means checking exact
finite additivity on disjoint members.

Measurability is certified only by exhaustive quantification over all
subsets.  The sampling variant can only report "not falsified", never
"measurable", and the two are kept as separate functions.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .cover import CoverSolution, OuterMeasureCache
from .quasi import ONE, QuasiMeasure
from .report import AxiomReport, ReportBuilder, Witness
from .sets import DEFAULT_EXHAUSTIVE_LIMIT, AlgebraFamily, BudgetExceeded, SubsetMask, generate_algebra

AUDIT_LIMIT = 5  # ground sets up to this size get the all-subsets audit
TRIPLE_BUDGET = 1 << 18  # disjoint-triple candidates checked before sampling


def is_caratheodory_measurable(
    qm: QuasiMeasure,
    w: SubsetMask,
    cache: OuterMeasureCache | None = None,
    subset_budget: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> tuple[bool, SubsetMask | None]:
    """Exhaustive splitting test; returns the first violating A in mask order."""
    n = qm.ground.n
    if (1 << n) > subset_budget:
        raise BudgetExceeded(f"2**{n} subsets exceed budget {subset_budget}; use sample_measurability")
    return _first_split_failure(qm, w, cache, range(1 << n))


def sample_measurability(
    qm: QuasiMeasure,
    w: SubsetMask,
    sample_count: int,
    seed: int,
    cache: OuterMeasureCache | None = None,
) -> tuple[bool, SubsetMask | None]:
    """Randomized splitting test: True means "not falsified", never "measurable"."""
    rng = random.Random(seed)
    candidates = (rng.randrange(1 << qm.ground.n) for _ in range(sample_count))
    return _first_split_failure(qm, w, cache, candidates)


def _first_split_failure(
    qm: QuasiMeasure, w: SubsetMask, cache: OuterMeasureCache | None, candidates: Iterable[int]
) -> tuple[bool, SubsetMask | None]:
    """Splitting test of ``w`` over int candidates A on int costs; the first failure is returned."""
    if w.ground != qm.ground:
        raise ValueError("candidate set belongs to a different ground set")
    solve = (OuterMeasureCache() if cache is None else cache).bind(qm).solve
    inside, outside = w.bits, w.bits ^ qm.ground.full_bits
    for a in candidates:
        if solve(a)[0] != solve(a & inside)[0] + solve(a & outside)[0]:
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


def measurable_family(qm: QuasiMeasure, cache: OuterMeasureCache | None = None) -> MeasurabilityReport:
    shared = OuterMeasureCache() if cache is None else cache

    def records(candidates: Iterable[SubsetMask]) -> tuple[MeasurabilityRecord, ...]:
        return tuple(MeasurabilityRecord(w, *is_caratheodory_measurable(qm, w, shared))
                     for w in candidates)

    tested = records(generate_algebra(qm.coat))
    audit = records(qm.ground.all_subsets()) if qm.ground.n <= AUDIT_LIMIT else ()
    return MeasurabilityReport(tested, audit)


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
        for mask, numerator in zip(self.algebra.members, self.numerators):
            if not 0 <= numerator <= self.scale:
                raise ValueError(f"table value outside [0,1] at {mask}")

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The exterior values as exact rationals, built once on first use."""
        return tuple(Fraction(v, self.scale) for v in self.numerators)

    def value(self, mask: SubsetMask) -> Fraction:
        members = self.algebra.members
        i = bisect.bisect_left(members, mask.bits, key=lambda m: m.bits)
        if i == len(members) or members[i] != mask:  # masks compare ground and bits
            raise KeyError(f"{mask} is not a member of the table's algebra")
        return self.values[i]

    def rows(self) -> tuple[tuple[SubsetMask, Fraction, CoverSolution], ...]:
        return tuple((m, v, CoverSolution(chosen, v))
                     for m, v, chosen in zip(self.algebra.members, self.values, self.covers))


def extend(qm: QuasiMeasure, cache: OuterMeasureCache | None = None) -> MeasureTable:
    """Tabulate the exterior value on every generated-algebra member.

    Never refuses axiom-failing inputs; negative instances are first-class
    material and verification is a separate step.
    """
    solve = (OuterMeasureCache() if cache is None else cache).bind(qm).solve
    algebra = generate_algebra(qm.coat)
    solved = [solve(m.bits) for m in algebra.members]
    divisor = math.gcd(qm.scale, *(cost for cost, _ in solved))
    return MeasureTable(algebra, qm.scale // divisor, tuple(cost // divisor for cost, _ in solved),
                        tuple(chosen for _, chosen in solved))


def verify_premeasure(table: MeasureTable) -> AxiomReport:
    """Exact additivity checks on the tabulated algebra values.

    Pairwise additivity on disjoint members is the primary check: combined
    with algebra closure it yields finite additivity inductively.  When some
    pair fails, disjoint triples are checked too, all of them while they fit
    the budget and a seeded sample otherwise.
    Member i of the algebra is the union of the atoms in the bits of i, so
    members i, j are disjoint iff ``i & j == 0``, with union member ``i | j``.
    Values are compared as the table's int numerators over its ``scale``.
    """
    rb = ReportBuilder("premeasure")
    rb.declare("endpoints", "nonnegative", "pair-additivity", "triple-additivity")
    members = table.algebra.members
    nums, scale = table.numerators, table.scale
    # The table holds the empty set at 0 and every value in [0, 1], so only
    # the omega endpoint can fail and "nonnegative" always passes.
    if nums[-1] != scale:
        rb.fail("endpoints", Witness((("set", members[-1]),), table.values[-1], ONE, "eq"))

    size = len(members)
    pair_failed = False
    for i in range(size):
        # j runs in ascending order over the members above i and disjoint from
        # it, the submasks of rest from the first bit past i's top bit on.
        rest = (size - 1) ^ i
        j = 1 << i.bit_length()
        while j & rest:
            want = nums[i] + nums[j]
            if nums[i | j] != want:
                pair_failed = True
                rb.fail("pair-additivity", Witness((("E1", members[i]), ("E2", members[j])),
                                                   table.values[i | j], Fraction(want, scale), "eq"))
            j = (j - rest) & rest

    # Additive pairs make additive triples, since i | j is a member disjoint
    # from k, so only a failed pair can leave a triple to report.
    exhaustive = size * (size - 1) * (size - 2) // 6 <= TRIPLE_BUDGET
    rb.note("triples=exhaustive" if exhaustive
            else f"triples=sampled budget={TRIPLE_BUDGET // 8} seed=0")
    triples: Iterable[tuple[int, ...]] = ()
    if pair_failed and exhaustive:
        triples = itertools.combinations(range(size), 3)
    elif pair_failed:
        rng = random.Random(0)
        triples = (tuple(rng.sample(range(size), 3)) for _ in range(TRIPLE_BUDGET // 8))
    for i, j, k in triples:
        if i & j or i & k or j & k:
            continue
        want = nums[i] + nums[j] + nums[k]
        if nums[i | j | k] != want:
            rb.fail("triple-additivity", Witness(
                (("E1", members[i]), ("E2", members[j]), ("E3", members[k])),
                table.values[i | j | k], Fraction(want, scale), "eq"))
    return rb.build()
