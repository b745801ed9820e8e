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
import functools
import itertools
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .cover import CoverSolution, OuterMeasureCache, SolvedValues
from .quasi import ONE, QuasiMeasure
from .report import AxiomReport, ReportBuilder, Witness
from .sets import DEFAULT_EXHAUSTIVE_LIMIT, AlgebraFamily, BudgetExceeded, SubsetMask, generate_algebra

AUDIT_LIMIT = 5  # ground sets up to this size get the all-subsets audit
SPLIT_BUDGET = 1 << 24  # (algebra members + audit candidates) * 2**n lookups in measurable_family
TRIPLE_BUDGET = 1 << 18  # disjoint-triple candidates checked before sampling


def is_caratheodory_measurable(
    qm: QuasiMeasure,
    w: SubsetMask,
    cache: OuterMeasureCache | None = None,
    subset_budget: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> tuple[bool, SubsetMask | None]:
    """Exhaustive splitting test on the list of all 2**n exterior values.

    Returns the first violating A in mask order.
    """
    values = _all_values(qm, cache, subset_budget)
    return _first_split_failure(qm, w, values, range(len(values)))


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
    values = SolvedValues((OuterMeasureCache() if cache is None else cache).bind(qm))
    return _first_split_failure(qm, w, values, candidates)


def _all_values(qm: QuasiMeasure, cache: OuterMeasureCache | None, subset_budget: int) -> list[int]:
    """The exterior value of every subset as int numerators, indexed by mask."""
    n = qm.ground.n
    if (1 << n) > subset_budget:
        raise BudgetExceeded(f"2**{n} subsets exceed budget {subset_budget}; use sample_measurability")
    solve = (OuterMeasureCache() if cache is None else cache).bind(qm).solve
    return [solve(a)[0] for a in range(1 << n)]


def _first_split_failure(
    qm: QuasiMeasure, w: SubsetMask, values: Sequence[int] | SolvedValues, candidates: Iterable[int]
) -> tuple[bool, SubsetMask | None]:
    """Splitting test of ``w`` over int candidates A on exterior values indexed by mask."""
    if w.ground != qm.ground:
        raise ValueError("candidate set belongs to a different ground set")
    inside, outside = w.bits, w.bits ^ qm.ground.full_bits
    for a in candidates:
        if values[a] != values[a & inside] + values[a & outside]:
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
    """Exhaustive splitting tests of every algebra member and audit candidate.

    The 2**n exterior values are solved once, through ``cache`` when given,
    and every test indexes that list.  The tests together read
    (members + audit candidates) * 2**n values; past ``SPLIT_BUDGET`` the
    call refuses with ``BudgetExceeded`` before solving anything.
    """
    n = qm.ground.n
    algebra = generate_algebra(qm.coat)
    audit = list(qm.ground.all_subsets()) if n <= AUDIT_LIMIT else []
    work = (len(algebra) + len(audit)) << n
    if work > SPLIT_BUDGET:
        raise BudgetExceeded(
            f"{len(algebra)} algebra members and {len(audit)} audit candidates by 2**{n} subsets"
            f" make {work} splitting lookups, over SPLIT_BUDGET={SPLIT_BUDGET}")
    values = _all_values(qm, cache, DEFAULT_EXHAUSTIVE_LIMIT)
    subsets = range(1 << n)

    def records(candidates: Iterable[SubsetMask]) -> tuple[MeasurabilityRecord, ...]:
        return tuple(MeasurabilityRecord(w, *_first_split_failure(qm, w, values, subsets))
                     for w in candidates)

    return MeasurabilityReport(records(algebra), records(audit))


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
    solved = [solve(b) for b in algebra.bits]
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
    for i in range(size):
        # j runs in ascending order over the members above i and disjoint from
        # it, the submasks of rest from the first bit past i's top bit on.
        rest = low ^ i
        j = 1 << i.bit_length()
        high = i << shift
        while j & rest:
            if nums[i | j] != nums[i] + nums[j]:
                pairs.append(high | j)
            j = (j - rest) & rest
    rb.fail_each("pair-additivity", pairs, functools.partial(_pair_witness, table))

    # Additive pairs make additive triples, since i | j is a member disjoint
    # from k, so only a failed pair can leave a triple to report.
    exhaustive = size * (size - 1) * (size - 2) // 6 <= TRIPLE_BUDGET
    rb.note("triples=exhaustive" if exhaustive
            else f"triples=sampled budget={TRIPLE_BUDGET // 8} seed=0")
    triples: Iterable[tuple[int, int, int]] = ()
    if pairs and exhaustive:
        triples = itertools.combinations(range(size), 3)
    elif pairs:
        triples = _sampled_triples(random.Random(0), size, TRIPLE_BUDGET // 8)
    failed = array("q")
    for i, j, k in triples:
        if i & j or i & k or j & k:
            continue
        if nums[i | j | k] != nums[i] + nums[j] + nums[k]:
            failed.append((i << shift | j) << shift | k)
    rb.fail_each("triple-additivity", failed, functools.partial(_triple_witness, table))
    return rb.build()


def _pair_witness(table: MeasureTable, record: int) -> Witness:
    """The witness of the failed pair ``verify_premeasure`` packed as ``i << shift | j``."""
    shift = (len(table.numerators) - 1).bit_length()
    i, j = record >> shift, record & ((1 << shift) - 1)
    mask, bits, nums = table.algebra.ground.mask, table.algebra.bits, table.numerators
    return Witness((("E1", mask(bits[i])), ("E2", mask(bits[j]))), table.values[i | j],
                   Fraction(nums[i] + nums[j], table.scale), "eq")


def _triple_witness(table: MeasureTable, record: int) -> Witness:
    """The witness of the failed triple packed as ``(i << shift | j) << shift | k``."""
    shift = (len(table.numerators) - 1).bit_length()
    low = (1 << shift) - 1
    i, j, k = record >> 2 * shift, record >> shift & low, record & low
    mask, bits, nums = table.algebra.ground.mask, table.algebra.bits, table.numerators
    return Witness((("E1", mask(bits[i])), ("E2", mask(bits[j])), ("E3", mask(bits[k]))),
                   table.values[i | j | k],
                   Fraction(nums[i] + nums[j] + nums[k], table.scale), "eq")


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
