"""Extension of a quasi-measure to the generated algebra, and splitting-measurability tests.

`extend` tabulates the exterior value on the algebra the coat generates,
`verify_premeasure` checks that table's finite additivity, and
`measurable_family` tests which sets the exterior value splits exactly:
W is measurable when, for every subset A, the value of A is the sum of the
values of A-inside-W and A-outside-W.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .cover import CoverSolution
from .quasi import ONE, CoverSolver, QuasiMeasure
from .report import AxiomReport, ReportBuilder, Witness
from .sets import (DEFAULT_EXHAUSTIVE_LIMIT, AlgebraFamily, BudgetExceeded, SubsetMask, bit_indices,
                   generate_algebra, subset_table)

AUDIT_LIMIT = 5  # ground sets up to this size get the all-subsets audit
SPLIT_BUDGET = 1 << 24  # lookups in measurable_family, 2**n per splitting test that runs
TRIPLE_BUDGET = 1 << 18  # disjoint-triple candidates checked before sampling


def _subset_values(table: MeasureTable) -> list[int]:
    """Every subset's exterior value by mask, over the table's scale, up to 2**16 subsets.

    Coat members are unions of atoms, so a cover of A covers each atom A
    meets: A has the value of its hull, the member of its elements' atoms."""
    n = table.algebra.ground.n
    if (1 << n) > DEFAULT_EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(f"2**{n} subsets exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
    return [table.numerators[hull] for hull in subset_table(table.algebra.index(1 << e) for e in range(n))]


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

    ``algebra`` covers every member of the algebra generated by the coat, and
    ``audit`` all 2**n subsets on ground sets of up to ``AUDIT_LIMIT``
    elements, so that the family of all measurable sets can be inspected.
    """

    algebra: tuple[MeasurabilityRecord, ...]
    audit: tuple[MeasurabilityRecord, ...]


def measurable_family(qm: QuasiMeasure) -> MeasurabilityReport:
    """Splitting tests of every algebra member and audit candidate on ``extend``'s table.

    Every member is measurable iff the table is additive (Folland, *Real
    Analysis*, 2nd ed., 1999, Prop. 1.13), so ``_atom_sums_agree`` certifies
    them untested.  Past ``SPLIT_BUDGET`` lookups, 2**n per test that would
    run, the call refuses with ``BudgetExceeded`` before any test runs.
    """
    n = qm.ground.n
    table = extend(qm)
    certified = _atom_sums_agree(table)
    audit = list(qm.ground.all_subsets()) if n <= AUDIT_LIMIT else []
    tested = len(audit) + (0 if certified else len(table.algebra))
    if tested << n > SPLIT_BUDGET:
        raise BudgetExceeded(f"{tested} splitting tests by 2**{n} subsets make {tested << n} lookups,"
                             f" over SPLIT_BUDGET={SPLIT_BUDGET}")
    values = _subset_values(table) if tested else []

    def records(candidates: Iterable[SubsetMask], test: bool = True) -> tuple[MeasurabilityRecord, ...]:
        return tuple(MeasurabilityRecord(w, *_first_split_failure(qm, w, values)) if test
                     else MeasurabilityRecord(w, True, None) for w in candidates)

    return MeasurabilityReport(records(table.algebra, not certified), records(audit))


@dataclass(frozen=True, eq=False)
class MeasureTable:
    """Exterior values tabulated on the generated algebra, with witnesses.

    Entry i is member i of ``algebra``: its value is ``numerators[i] / scale``
    and ``chosen[i]`` is the int mask of the coat indices of an optimal cover,
    bit j for index j.  The table carries no verification claim: on
    axiom-failing inputs the full set can admit a cover cheaper than 1.
    """

    algebra: AlgebraFamily
    scale: int
    numerators: tuple[int, ...]
    chosen: tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.algebra)
        if len(self.numerators) != size or len(self.chosen) != size:
            raise ValueError("table must assign exactly the algebra members")
        if self.scale < 1:
            raise ValueError("table scale must be positive")
        if self.numerators[0] != 0:
            raise ValueError("table value of the empty set must be 0")
        if min(self.numerators) < 0 or max(self.numerators) > self.scale:
            i = next(i for i, numerator in enumerate(self.numerators) if not 0 <= numerator <= self.scale)
            mask = self.algebra.ground.mask(self.algebra.bits[i])
            raise ValueError(f"table value outside [0,1] at {mask}")

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """The ascending coat indices of each member's optimal cover, built on first read."""
        return tuple(map(bit_indices, self.chosen))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The exterior values as exact rationals, built on first read."""
        return tuple(Fraction(v, self.scale) for v in self.numerators)

    def value(self, mask: SubsetMask) -> Fraction:
        i = self.algebra.index(mask.bits)
        if mask.ground != self.algebra.ground or self.algebra.bits[i] != mask.bits:
            raise KeyError(f"{mask} is not a member of the table's algebra")
        return Fraction(self.numerators[i], self.scale)

    def rows(self) -> tuple[tuple[SubsetMask, Fraction, CoverSolution], ...]:
        return tuple((m, v, CoverSolution(chosen, v))
                     for m, v, chosen in zip(self.algebra.members, self.values, self.covers))


def extend(qm: QuasiMeasure) -> MeasureTable:
    """Tabulate the exterior value on every generated-algebra member, in lowest terms.

    Coat members are unions of atoms, so they cover a member iff their atom masks cover its index.
    Never refuses axiom-failing inputs: verification is ``verify_premeasure``'s."""
    algebra = generate_algebra(qm.coat)
    entries = [(i, algebra.index(b), qm.numerators[b]) for i, b in enumerate(qm.coat.member_bits())]
    costs, chosen = CoverSolver(entries, 0).fill()
    divisor = math.gcd(qm.scale, *costs)
    return MeasureTable(algebra, qm.scale // divisor, tuple(cost // divisor for cost in costs), tuple(chosen))


def verify_premeasure(table: MeasureTable) -> AxiomReport:
    """Exact additivity checks on the tabulated algebra values.

    The disjoint pairs are walked only when ``_atom_sums_agree`` does not
    certify the table; members i and j are disjoint iff ``i & j == 0``, with
    union ``i | j``.  When some pair fails, disjoint triples are checked too:
    all of them within ``TRIPLE_BUDGET``, else those of a seeded sample, read
    from ``SAMPLED_TRIPLES``.  Each failure is packed into one int record.
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
        triples = ((t >> 2 * shift, t >> shift & low, t & low) for t in SAMPLED_TRIPLES[shift])
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


# The pairwise-disjoint triples among TRIPLE_BUDGET // 8 draws of
# random.Random(0).sample(range(2**m), 3), in draw order with repeats, for the
# algebras of 2**m members past the triple budget: m = 7 to 16, since
# AlgebraFamily refuses more than 2**16 members.  Triple (i, j, k) is packed as
# (i << m | j) << m | k.  The seed, the count and the sizes are constants, so
# the table is too; tests/test_extension.py regenerates it from the draws.
SAMPLED_TRIPLES = {
    7: (576576, 270632, 135378, 1131776, 1638673, 9473, 1573641, 4619, 147552, 533248, 1052933,
        434304, 135445, 1380616, 4673, 267264, 1605768, 82962, 4169, 137920, 1115298, 131617,
        1331210, 1051264, 1104900, 1315841, 66594, 1179794, 237568, 16129, 4888, 4184, 418304,
        918080, 624640, 1054721, 86024, 1835138, 131936, 527366, 1573520, 269, 32868, 10920, 3937,
        1050146, 860552, 1247234, 592008, 1048873, 1315081, 182304, 73745, 491584, 795401, 135888,
        1053701, 1315081, 1082496, 819268, 393505, 524816, 1179650, 1067776, 418306, 40977, 225552,
        1088640, 664448, 552192, 1050760, 598144, 1393920, 69713, 70977, 466945, 266308, 1672320,
        279048, 1180576, 114776, 1179941, 626, 1554, 1328166, 426720, 263205, 688196, 5588, 14351,
        275969, 282630, 397573, 327747, 8505, 2031744, 786824, 329025, 527048, 4099, 1050916, 3744,
        590145, 280098, 527874, 33280, 131921, 590851, 1327144, 1180336, 271906, 113792, 68802,
        393283, 106664, 279844, 11041, 163909, 544258, 532634, 16760, 21018, 47240, 2214, 299016,
        1050638, 1048880, 9136, 393220, 67976, 1312416, 2698, 16484, 787970, 16920, 1573656, 137280,
        270342, 1511427, 1085464, 5904, 1966464, 279616, 139426, 917761, 12810, 397572, 8212,
        860161, 133826, 262413, 558592, 533507, 263204, 592072, 99344, 525256, 11810, 1117187,
        70659, 72706, 73747, 68864, 393414, 802818, 787082, 1134616, 1442464, 410464, 62976, 100352,
        17184, 16968, 372737, 532748, 1393664, 28162, 8203, 393382, 950336, 664336, 1852928, 655490,
        663570, 188468, 1624068, 34320, 1574924, 16954, 861441, 1082544, 71746, 1065240, 1228852,
        329056, 38912, 67816, 5000, 820228, 12817, 811020, 1084961, 1111, 1852418, 69697, 591883,
        262728, 1867904, 1183892, 13065, 69656, 1310980, 706564, 526472, 1051177, 2656, 176132,
        86344, 542784, 155650, 7556, 1066528, 282628, 688208, 557641, 1671296, 417828, 4504, 410210,
        54352, 196770, 1184512, 1146904, 262722, 25106, 1185794, 53256, 696849),
    8: (4665472, 2131024, 6854144, 1310851, 13108514, 12586258, 18454, 1051396, 11093008, 656384,
        231540, 6554121, 2230656, 12911120, 725028, 12296, 8917573, 11535433, 10506242, 1867777,
        2097353, 8413186, 10502657, 1067270, 12715009, 4751620, 6327315, 3311876, 294947, 8519749,
        3426945, 33640, 2146314, 8917095, 2691200, 10621005, 5505160, 2152450, 6293008, 149525,
        4270736, 16390, 14913, 4719746, 2234436, 4722950, 6293017, 9446722, 36865, 272977, 144832,
        24708, 32853, 264769, 44354, 1310858, 132336, 149812, 1354050, 8396828, 8389729, 864768,
        1139850, 10773, 196808, 6297605, 12586288, 622692, 12652578, 1083168, 3148420, 1124996,
        3704384, 172037, 4231175, 4727696, 1081419, 668, 274434, 852130, 4231436, 8462366, 1867874,
        178180, 3146317, 7602304, 5540640, 14817280, 5341220, 12591384, 133236, 8655456, 8586288,
        9503818, 6623240, 116770, 15205634, 15073552, 6295682, 180532, 4726806, 2099345, 9454120,
        540720, 5243136, 1337472, 1819648, 12598273, 10489866, 3915776, 2244617, 5505440, 131249,
        1573700, 231460),
    9: (72372736, 8400392, 5783625, 49169, 83968004, 67424, 7995552, 16777618, 8487949, 37881352,
        33615874, 50475047, 92807820, 35802176, 2228806, 38406144, 4260165, 71581902, 84951195,
        17055892, 44040465, 612688, 1122346, 34384160, 37753604, 50338354, 75797636, 1103232,
        393386, 10486548, 1053664, 85206144, 10921092, 13698568, 50356746, 67122368, 4849864,
        17694744, 67223553, 8527424, 17843457, 57820160, 131664, 33587516, 78708738, 37785376,
        42213704, 4572168, 25430298, 1320224, 67665981, 1237000, 25168538, 60818176, 11773440,
        52969488, 2555968, 5150880, 17588232, 85209216, 41944064, 10592512, 41346, 10682384,
        5313825, 9568265, 106956800, 75575298),
    10: (67155984, 47251602, 196643, 303568912, 403226703, 742426904, 285815936, 306717696, 33685,
         680591670, 137429288, 274900544, 303057416, 607277320, 83889704, 539100272, 50537217,
         402753557, 536924544, 142676483, 302135872, 10190864, 612374688, 262717, 423690273,
         966791232, 19660928, 85361152, 42227266, 67113915, 288964),
    11: (4362166530, 3791683681, 5444469357, 4370473472, 407668226, 2701268257, 4898971969,
         5368985680),
    12: (34980529152, 3627184128, 31138551814, 39191675522),
    13: (29071360000, 249108262924, 313600115972),
    14: (232517992448, 2508799347209),
    15: (),
    16: (),
}
