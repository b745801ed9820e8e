"""Quasi-measures on coat refinements, the one cover engine, and exact checks of the axioms.

A quasi-measure assigns an exact rational in [0,1] to every member of a
coat's refinement, 0 to the empty set and 1 to the full set.  Values are
keyed by member bits, so two expressions denoting one set cannot disagree.
The checkers quantify exactly over coat pairs and coat subcollections, on
int masks and int numerators over one ``scale``.  `CoverSolver` is the cover
engine that `cover`, `extension` and `intervals` share.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Generic, Iterable, Iterator, Mapping, Sequence, TypeVar

from .report import AxiomReport, ReportBuilder, Witness
from .sets import BudgetExceeded, Coat, Refinement, SubsetMask, bit_indices

W = TypeVar("W")
ONE = Fraction(1)

AXIOM_CHECKS = ("endpoints", "splitting", "meet-envelope", "diff-envelope", "cover-bound")
ALT_CHECKS = ("endpoints", "monotone", "splitting", "meet-squeeze", "diff-envelope")


def _coverage_message(missing: Iterable[SubsetMask], extra: Iterable[SubsetMask]) -> str:
    return (f"values must cover the refinement exactly; missing={sorted(str(m) for m in missing)}"
            f" extra={sorted(str(m) for m in extra)}")


@dataclass(frozen=True, eq=False, init=False)
class QuasiMeasure:
    """A total map from refinement members to exact rationals in [0,1].

    It is stored only as ``numerators``, which maps member bits to int
    numerators over ``scale``, in lowest terms.  ``QuasiMeasure(refinement,
    values)`` takes values keyed by the refinement's members, keeping no
    reference to that dict, and ``from_numerators`` takes the ints.
    """

    refinement: Refinement
    scale: int
    numerators: dict[int, int] = field(repr=False)

    def __init__(self, refinement: Refinement, values: Mapping[SubsetMask, Fraction]) -> None:
        expected = set(map(refinement.ground.mask, refinement.bits))
        if values.keys() != expected:
            raise ValueError(_coverage_message(expected - values.keys(), values.keys() - expected))
        try:
            scale = math.lcm(*(v.denominator for v in values.values()))
        except AttributeError:
            mask, value = next((m, v) for m, v in values.items() if not hasattr(v, "denominator"))
            raise ValueError(f"value of {mask} is not an int or a Fraction: {value!r}") from None
        self._validate(refinement, scale,
                       {m.bits: v.numerator * (scale // v.denominator) for m, v in values.items()})

    @classmethod
    def from_numerators(cls, refinement: Refinement, scale: int,
                        numerators: Mapping[int, int]) -> "QuasiMeasure":
        """The quasi-measure with value ``numerators[bits] / scale`` on each refinement member.

        The keys must be exactly the refinement's bits; the checks and their
        messages are the constructor's."""
        qm = cls.__new__(cls)
        qm._validate(refinement, scale, numerators)
        return qm

    def _validate(self, refinement: Refinement, scale: int, numerators: Mapping[int, int]) -> None:
        """Check the int form of a quasi-measure and store it."""
        if not scale >= 1:
            raise ValueError(f"scale must be positive: {scale}")
        bits, mask = refinement.bits, refinement.ground.mask
        if len(numerators) != len(bits) or not all(b in numerators for b in bits):
            raise ValueError(_coverage_message({mask(b) for b in set(bits) - set(numerators)},
                                               {mask(b) for b in set(numerators) - set(bits)}))
        for b, numerator in numerators.items():
            if not 0 <= numerator <= scale:
                raise ValueError(f"value of {mask(b)} outside [0,1]: {Fraction(numerator, scale)}")
        if numerators[0] != 0:
            raise ValueError("value of the empty set must be 0")
        if numerators[refinement.ground.full_bits] != scale:
            raise ValueError("value of omega must be 1")
        divisor = math.gcd(scale, *numerators.values())
        object.__setattr__(self, "refinement", refinement)
        object.__setattr__(self, "scale", scale // divisor)
        object.__setattr__(self, "numerators", {b: v // divisor for b, v in numerators.items()})

    @functools.cached_property
    def values(self) -> dict[SubsetMask, Fraction]:
        """The values as exact rationals keyed by the refinement's members, built on first read."""
        member = dict(zip(self.refinement.bits, self.refinement.members))
        return {member[b]: Fraction(v, self.scale) for b, v in self.numerators.items()}

    @property
    def coat(self) -> Coat:
        return self.refinement.coat

    @property
    def ground(self):
        return self.refinement.coat.ground

    def value(self, mask: SubsetMask) -> Fraction:
        return self.values[mask]

    def witness(self, roles: Iterable[tuple[str, int]], lhs: int, rhs: int | None,
                relation: str, note: str = "") -> Witness:
        """A report witness from role bits and numerators over ``scale``."""
        sets = tuple((role, self.ground.mask(bits)) for role, bits in roles)
        return Witness(sets, Fraction(lhs, self.scale),
                       None if rhs is None else Fraction(rhs, self.scale), relation, note)


class CoverSolver(Generic[W]):
    """Minimum-weight cover search on int masks, memoized on the uncovered mask.

    ``entries`` are ``(index, bits, weight)`` with distinct nonnegative int
    indices; weights are any nonnegative, ordered, additive type with zero
    ``zero``: int numerators for coats, ``float`` for interval pools.
    ``solve_bits`` returns the cost and the int mask of the chosen indices
    (bit i for index i) of the least cover in (cost, size, indices), the order
    of ``_loses_tie``; ``solve`` gives the ascending index tuple instead, and
    ``fill`` tabulates every mask up to ``reach``.  The memo maps each solved
    residual to its cost and chosen mask.
    """

    def __init__(self, entries: Sequence[tuple[int, int, W]], zero: W):
        self.reach = 0
        for _, bits, _ in entries:
            self.reach |= bits
        self._by_weight = sorted(entries, key=operator.itemgetter(2))
        self._lowest_only = not isinstance(zero, float)
        self._holding: dict[int, list[tuple[int, int, W]]] = {}  # lowest bit -> entries holding it
        self._memo: dict[int, tuple[W, int]] = {0: (zero, 0)}  # residual -> (cost, chosen index mask)

    def solve(self, target_bits: int) -> tuple[W, tuple[int, ...]]:
        cost, chosen = self.solve_bits(target_bits)
        return cost, bit_indices(chosen)

    def solve_bits(self, target_bits: int) -> tuple[W, int]:
        if target_bits & ~self.reach:
            raise ValueError("target not coverable by the available members")
        return self._memo.get(target_bits) or self._solve(target_bits)

    def _holders(self, low: int) -> list[tuple[int, int, W]]:
        """The entries holding the one-bit mask ``low``, cheapest first; built once per bit."""
        holders = self._holding.get(low)
        if holders is None:
            holders = self._holding[low] = [e for e in self._by_weight if e[1] & low]
        return holders

    def _solve(self, residual: int) -> tuple[W, int]:
        """The least cover of ``residual``, recorded in the memo.

        With exact weights a node tries only the entries that hold the lowest
        uncovered element, as Knuth's Algorithm X does ("Dancing Links", 2000):
        every cover of the residual holds one.  Float costs are summed along the
        recursion path and can move in the last ulp in another order, so float
        weights try every entry that meets the residual.  Candidates come
        cheapest first, and the node stops at the first entry dearer than its
        best cost: the answer is the least over the candidates in any order,
        and a dearer entry can neither win nor tie.  A candidate whose rest is
        unsolved is skipped when its weight plus the cheapest entry holding the
        rest's lowest element exceeds the best cost (Land and Doig's branch and
        bound, 1960): every cover of the rest holds such an entry, and rounding
        is monotone, so fl(a + b) >= a for b >= 0.  The bound is strict, so no
        answer, float bit or memo value moves.
        """
        memo = self._memo
        holders = self._holders
        candidates = holders(residual & -residual) if self._lowest_only else self._by_weight
        best: tuple[W, int] | None = None
        for idx, bits, weight in candidates:
            if best is not None and weight > best[0]:
                break
            if not bits & residual:
                continue
            rest = residual & ~bits
            found = memo.get(rest)
            if found is None:
                if best is not None and weight + holders(rest & -rest)[0][2] > best[0]:
                    continue
                found = self._solve(rest)
            sub_cost, sub_chosen = found
            cost = weight + sub_cost
            if best is not None and cost > best[0]:
                continue
            chosen = sub_chosen | 1 << idx
            if best is not None and cost == best[0] and _loses_tie(chosen, best[1]):
                continue
            best = (cost, chosen)
        assert best is not None  # residual != 0 and reach covers it
        memo[residual] = best
        return best

    def fill(self) -> tuple[list[W], list[int]]:
        """``solve_bits``' answer on every mask S up to ``reach``, as lists indexed by S.

        Weights must be exact and ``reach`` a run of low bits, 2**m - 1.  S is
        filled in ascending order, a dynamic program over subsets (Bellman,
        *Dynamic Programming*, 1957; Held and Karp, 1962): each holder C of
        S's lowest bit, tried as in ``_solve``, joins the least cover of
        S & ~C, filled already as S & ~C < S.  That is exact in (cost, size,
        indices): every cover of S holds such a C, and without C covers
        S & ~C; a least cover of S & ~C never holds C, which is disjoint from
        it; and adding one index to two covers keeps their ``_loses_tie`` order.
        """
        holding = [self._holders(1 << j) for j in range(self.reach.bit_length())]
        costs, chosen = [self._memo[0][0]] * (self.reach + 1), [0] * (self.reach + 1)
        for s in range(1, len(costs)):
            best = pick = None
            for idx, c, weight in holding[(s & -s).bit_length() - 1]:
                if best is not None and weight > best:
                    break
                rest = s & ~c
                cost = weight + costs[rest]
                if best is not None and cost > best:
                    continue
                mask = chosen[rest] | 1 << idx
                if cost == best and _loses_tie(mask, pick):
                    continue
                best, pick = cost, mask
            costs[s], chosen[s] = best, pick
        return costs, chosen


def _loses_tie(chosen: int, best: int) -> bool:
    """Whether the cover ``chosen`` loses to ``best``, of equal cost: it has more members, or as many
    and ``best`` holds the lowest index where they differ, which is the order of their index tuples."""
    d = chosen ^ best
    size = chosen.bit_count() - best.bit_count()
    return size > 0 or size == 0 and not chosen & d & -d


def coat_solver(qm: QuasiMeasure) -> CoverSolver[int]:
    """A fresh solver over the coat of ``qm``, weighted by value numerators."""
    return CoverSolver([(i, b, qm.numerators[b]) for i, b in enumerate(qm.coat.member_bits())], 0)


def undercut_members(qm: QuasiMeasure, solve: Callable[[int], tuple]) -> list[tuple[int, int]]:
    """The coat members whose exterior value on ``solve`` differs from their own, with that value.

    A member covers itself, so these are the members a cheaper cover undercuts: with
    none the cover bound holds, and with some it fails over all subcollections of any size."""
    values = [(x, solve(x)[0]) for x in qm.coat.member_bits()]
    return [(x, v) for x, v in values if v != qm.numerators[x]]


COVER_ENUMERATION_LIMIT = 1 << 20


def cover_bound_violations(
    qm: QuasiMeasure,
    cover_mode: str = "all",
    max_cover_size: int | None = None,
) -> list[Witness]:
    """Violations of the finite-cover upper bound, with every violating subcollection.

    For every coat member X and every subcollection of the coat (of the
    requested size and disjointness) whose union contains X, the value of X
    must not exceed the subcollection's value sum.  Only if there are
    ``undercut_members`` is the coat walked, to list the witnesses in the
    order of the subcollections' masks; a walk that could reach more than
    ``COVER_ENUMERATION_LIMIT`` subcollections is refused.
    """
    if cover_mode not in ("all", "disjoint-only"):
        raise ValueError(f"unknown cover mode {cover_mode!r}")
    k = len(qm.coat)
    if max_cover_size is None:
        max_cover_size = k
    if not 1 <= max_cover_size <= k:
        raise ValueError(f"max_cover_size must be between 1 and the coat size {k}")
    undercut = undercut_members(qm, coat_solver(qm).solve)
    if not undercut:
        return []
    bits, num = qm.coat.member_bits(), qm.numerators
    values = tuple(num[b] for b in bits)
    top = max(num[x] for x, _ in undercut)  # no subcollection costing this or more violates
    total = sum(math.comb(k, size) for size in range(1, max_cover_size + 1))
    if total > COVER_ENUMERATION_LIMIT:
        raise BudgetExceeded(
            f"{total} subcollections exceed the enumeration limit; lower max_cover_size")
    violations: list[Witness] = []

    def check_cover(chosen: int, union: int, cost: int) -> None:
        """Witness each member that the subcollection ``chosen`` covers below its value."""
        violated = [x for x, _ in undercut if x & ~union == 0 and num[x] > cost]
        if not violated:
            return
        indices = bit_indices(chosen)
        if (cover_mode == "disjoint-only"
                and sum(bits[i].bit_count() for i in indices) != union.bit_count()):
            return
        roles = tuple((f"S{n + 1}", bits[i]) for n, i in enumerate(indices))
        for x in violated:
            violations.append(qm.witness((("X", x), *roles), num[x], cost, "le",
                                         "cover value sum below the covered member"))

    def walk(below: int, chosen: int, union: int, cost: int, size: int) -> None:
        """Add members below ``below`` to ``chosen``, making ``size`` members, in mask order; values
        are nonnegative, so a branch whose cost reaches ``top`` holds no violation."""
        for i in range(below):
            more = cost + values[i]
            if more < top:
                added, covered = chosen | 1 << i, union | bits[i]
                check_cover(added, covered, more)
                if size < max_cover_size:
                    walk(i, added, covered, more, size + 1)

    walk(k, 0, 0, 0, 1)
    return violations


def _checked_pairs(qm: QuasiMeasure, splitting: list[int]) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield ``(i * k + j, x, y, meet, diff)`` per coat pair i, j; ``splitting`` lists failed splits."""
    # "endpoints" needs no loop: QuasiMeasure refuses value(empty) != 0 and value(omega) != 1.
    num = qm.numerators
    bits = qm.coat.member_bits()
    record = 0
    for x in bits:
        vx = num[x]
        for y in bits:
            meet, diff = x & y, x & ~y
            if vx != num[meet] + num[diff]:
                splitting.append(record)
            yield record, x, y, meet, diff
            record += 1


def _pair_witness(qm: QuasiMeasure, check: str, record: int) -> Witness:
    """The witness of pair check ``check`` on the ordered coat pair recorded as ``i * k + j``."""
    bits = qm.coat.member_bits()
    i, j = divmod(record, len(bits))
    x, y = bits[i], bits[j]
    meet, diff = x & y, x & ~y
    num = qm.numerators
    if check == "splitting":
        vmeet, vdiff, mask = num[meet], num[diff], qm.ground.mask
        return qm.witness((("X", x), ("Y", y)), num[x], vmeet + vdiff, "eq",
                          f"meet {mask(meet)} has value {Fraction(vmeet, qm.scale)},"
                          f" difference {mask(diff)} has value {Fraction(vdiff, qm.scale)}")
    if check == "monotone":
        return qm.witness((("X", x), ("Y", y)), num[x], num[y], "le")
    role, target = ("difference", diff) if check == "diff-envelope" else ("meet", meet)
    note = ("no coat pair squeezing the meet with equal values" if check == "meet-squeeze"
            else "no coat superset with equal value")
    return qm.witness((("X", x), ("Y", y), (role, target)), num[target], None, "exists", note)


def _envelopes(qm: QuasiMeasure) -> tuple[set[int], set[int]]:
    """The refinement members that lie inside, and those that hold, a coat member of equal value.

    Every meet and difference of two coat members is a refinement member, so
    whether it has an envelope depends on it alone, not on the pair.
    """
    num = qm.numerators
    coat = [(w, num[w]) for w in qm.coat.member_bits()]
    inside, around = set(), set()
    for m, v in num.items():
        for w, vw in coat:
            if vw == v:
                if m & ~w == 0:
                    inside.add(m)
                if w & ~m == 0:
                    around.add(m)
    return inside, around


def check_axioms(
    qm: QuasiMeasure,
    variant: str = "restricted",
    cover_mode: str = "all",
    max_cover_size: int | None = None,
) -> AxiomReport:
    """Check the five quasi-measure axioms, exactly.

    ``variant`` controls where the envelope witnesses W and Z may live:
    ``"literal"`` admits any refinement member, so each meet and difference
    witnesses itself and both envelope checks pass;
    ``"restricted"`` admits coat members only, and a meet or difference has
    an envelope iff it lies inside a coat member of equal value.
    The cover bound is checked over every subcollection of the coat up to
    ``max_cover_size`` members (default: the whole coat), optionally only
    over pairwise-disjoint subcollections.
    """
    if variant not in ("literal", "restricted"):
        raise ValueError(f"unknown variant {variant!r}")
    rb = ReportBuilder("axioms")
    rb.declare(*AXIOM_CHECKS)
    rb.note(f"variant={variant}")
    rb.note(f"cover_mode={cover_mode}")

    # Under "literal" each meet and difference is a refinement member, so it witnesses itself.
    enveloped = _envelopes(qm)[0] if variant == "restricted" else set(qm.refinement.bits)
    splitting, meets, diffs = [], [], []
    for record, _, _, meet, diff in _checked_pairs(qm, splitting):
        if meet not in enveloped:
            meets.append(record)
        if diff not in enveloped:
            diffs.append(record)
    failed = {"splitting": splitting, "meet-envelope": meets, "diff-envelope": diffs}
    for check, records in failed.items():
        rb.fail_each(check, records, functools.partial(_pair_witness, qm, check))

    for witness in cover_bound_violations(qm, cover_mode, max_cover_size):
        rb.fail("cover-bound", witness)
    return rb.build()


def check_alt_conditions(qm: QuasiMeasure) -> AxiomReport:
    """Check the alternative sufficient conditions, quantified over the coat.

    These strengthen the envelope requirements: the meet of every coat pair
    must be squeezed between an inner and an outer coat member of equal
    value, and coat members must be monotone under inclusion.  A map passing
    all five is expected to pass ``check_axioms`` in the restricted variant;
    that implication is exercised by the test suite rather than assumed.
    """
    rb = ReportBuilder("alt-conditions")
    rb.declare(*ALT_CHECKS)

    num = qm.numerators
    inside, around = _envelopes(qm)
    splitting, monotone, squeezes, diffs = [], [], [], []
    for record, x, y, meet, diff in _checked_pairs(qm, splitting):
        if diff == 0 and num[x] > num[y]:  # x is a subset of y
            monotone.append(record)
        if not (meet in inside and meet in around):
            squeezes.append(record)
        if diff not in inside:
            diffs.append(record)
    failed = {"monotone": monotone, "splitting": splitting,
              "meet-squeeze": squeezes, "diff-envelope": diffs}
    for check, records in failed.items():
        rb.fail_each(check, records, functools.partial(_pair_witness, qm, check))
    return rb.build()
