"""Quasi-measures on coat refinements and mechanical checks of their axioms.

A quasi-measure assigns an exact rational in [0,1] to every member of a
coat's refinement, sending the empty set to 0 and the full set to 1.  The
checkers below quantify exactly over coat pairs and coat subcollections, the
latter through the one cover engine, `CoverSolver`, which `cover` and
`intervals` share; there is no tolerance anywhere in this module.  Checks
compute on int masks and integer numerators over one ``scale``, which keeps
equality and order; ``Fraction`` and ``SubsetMask`` are built only for witnesses.

Values are keyed by mask, so two expressions denoting the same set cannot
receive different values; well-definedness is structural, not checked.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Generic, Iterable, Iterator, Sequence, TypeVar

from .report import AxiomReport, ReportBuilder, Witness
from .sets import BudgetExceeded, Coat, Refinement, SubsetMask, subset_table

W = TypeVar("W")
ZERO = Fraction(0)
ONE = Fraction(1)

AXIOM_CHECKS = ("endpoints", "splitting", "meet-envelope", "diff-envelope", "cover-bound")
ALT_CHECKS = ("endpoints", "monotone", "splitting", "meet-squeeze", "diff-envelope")


@dataclass(frozen=True, eq=False)
class QuasiMeasure:
    """A total map from refinement members to exact rationals in [0,1].

    ``scale`` is the lcm of the value denominators; the checks read values as
    integer numerators over it.
    """

    coat: Coat
    refinement: Refinement
    values: dict[SubsetMask, Fraction]
    scale: int = field(init=False)

    def __post_init__(self) -> None:
        if self.refinement.coat is not self.coat and self.refinement.coat != self.coat:
            raise ValueError("the refinement belongs to another coat")
        values, members = self.values, self.refinement.members
        if len(values) != len(members) or not all(m in values for m in members):
            missing = set(members) - set(values)
            extra = set(values) - set(members)
            raise ValueError(
                f"values must cover the refinement exactly; missing={sorted(str(m) for m in missing)}"
                f" extra={sorted(str(m) for m in extra)}"
            )
        for mask, value in values.items():
            # A Fraction is checked on its ints; other numbers (ints, floats) by comparison.
            if not (0 <= value.numerator <= value.denominator if type(value) is Fraction
                    else ZERO <= value <= ONE):
                raise ValueError(f"value of {mask} outside [0,1]: {value}")
        ground = self.coat.ground
        if values[ground.empty()] != ZERO:
            raise ValueError("value of the empty set must be 0")
        if values[ground.full()] != ONE:
            raise ValueError("value of omega must be 1")
        try:
            scale = math.lcm(*(v.denominator for v in values.values()))
        except AttributeError:
            mask, value = next((m, v) for m, v in values.items() if not hasattr(v, "denominator"))
            raise ValueError(f"value of {mask} is not an int or a Fraction: {value!r}") from None
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_numerators", {
            m.bits: v.numerator * (scale // v.denominator) for m, v in values.items()
        })
        object.__setattr__(self, "_coat_masks", {m.bits: m for m in self.coat.members})

    @property
    def ground(self):
        return self.coat.ground

    def value(self, mask: SubsetMask) -> Fraction:
        return self.values[mask]

    def numerator(self, bits: int) -> int:
        """The value of the refinement member with these bits, times ``scale``."""
        return self._numerators[bits]  # type: ignore[attr-defined]

    def fraction(self, numerator: int) -> Fraction:
        """``numerator / scale``, reusing the stored ``Fraction`` of a value with this numerator.

        Only sums of values need a new ``Fraction``; with large denominators
        its normalization dominates a report.
        """
        stored = self.__dict__.get("_fractions")
        if stored is None:
            stored = {self.numerator(m.bits): v for m, v in self.values.items()}
            object.__setattr__(self, "_fractions", stored)
        value = stored.get(numerator)
        return Fraction(numerator, self.scale) if value is None else value

    def witness(self, roles: Iterable[tuple[str, int]], lhs: int, rhs: int | None,
                relation: str, note: str = "") -> Witness:
        """A report witness from role bits and numerators; coat members reuse the coat's masks."""
        coat_masks = self._coat_masks  # type: ignore[attr-defined]
        sets = tuple((role, coat_masks[bits] if bits in coat_masks else self.ground.mask(bits))
                     for role, bits in roles)
        return Witness(sets, self.fraction(lhs),
                       None if rhs is None else self.fraction(rhs), relation, note)


class CoverSolver(Generic[W]):
    """Minimum-weight cover search on int masks, memoized on the uncovered mask.

    ``entries`` are ``(index, bits, weight)``; weights are any nonnegative,
    ordered, additive type with zero ``zero``: int numerators over ``scale``
    for coats, ``float`` for interval pools.  ``solve`` returns the cost and the
    ascending chosen indices, least in (cost, size, indices).  The memo is read
    before each call; a candidate whose weight, or else whose cover's cost,
    exceeds the node's best cost is skipped before its residual is solved or
    its cover tuple built (it cannot improve or tie).
    With non-float weights a node tries only the entries that hold the lowest
    uncovered element, as Knuth's Algorithm X does ("Dancing Links", 2000):
    every cover of the residual contains one, so the answer stays exact.
    Float costs are summed along the recursion path, and a cover summed in
    another order can move in the last ulp, so float weights keep trying
    every entry that meets the residual.
    """

    def __init__(self, entries: Sequence[tuple[int, int, W]], zero: W):
        self.entries = entries
        self.reach = 0
        for _, bits, _ in entries:
            self.reach |= bits
        self._lowest_only = not isinstance(zero, float)
        self._memo: dict[int, tuple[W, tuple[int, ...]]] = {0: (zero, ())}

    def feasible(self, target_bits: int) -> bool:
        return target_bits & ~self.reach == 0

    def solve(self, target_bits: int) -> tuple[W, tuple[int, ...]]:
        if not self.feasible(target_bits):
            raise ValueError("target not coverable by the available members")
        return self._memo.get(target_bits) or self._solve(target_bits)

    def _solve(self, residual: int) -> tuple[W, tuple[int, ...]]:
        memo = self._memo
        branch = residual & -residual if self._lowest_only else residual
        candidates = [e for e in self.entries if e[1] & branch]
        best: tuple[W, tuple[int, ...]] | None = None
        for idx, bits, weight in candidates:
            if best is not None and weight > best[0]:
                continue
            rest = residual & ~bits
            sub_cost, sub_chosen = memo.get(rest) or self._solve(rest)
            cost = weight + sub_cost
            if best is not None and cost > best[0]:
                continue
            chosen = tuple(sorted(sub_chosen + (idx,)))
            if best is None or (cost, len(chosen), chosen) < (best[0], len(best[1]), best[1]):
                best = (cost, chosen)
        assert best is not None  # residual != 0 and reach covers it
        memo[residual] = best
        return best


def coat_solver(qm: QuasiMeasure) -> CoverSolver[int]:
    """A fresh solver over the coat of ``qm``, weighted by value numerators."""
    return CoverSolver([(i, b, qm.numerator(b)) for i, b in enumerate(qm.coat.member_bits())], 0)


def undercut_members(qm: QuasiMeasure, solve: Callable[[int], tuple]) -> list[tuple[int, int]]:
    """The coat members whose exterior value on ``solve`` differs from their own, with that value.

    A member covers itself, so these are the members a cheaper cover undercuts:
    the cover bound holds iff there are none, in every cover mode and size."""
    values = [(x, solve(x)[0]) for x in qm.coat.member_bits()]
    return [(x, v) for x, v in values if v != qm.numerator(x)]


COVER_ENUMERATION_LIMIT = 1 << 20


def cover_bound_violations(
    qm: QuasiMeasure,
    cover_mode: str = "all",
    max_cover_size: int | None = None,
) -> list[Witness]:
    """Violations of the finite-cover upper bound, with every violating subcollection.

    For every coat member X and every subcollection of the coat (of the
    requested size and disjointness) whose union contains X, the value of X
    must not exceed the subcollection's value sum.  One solve per member finds
    the undercut members; only if there are any are the subcollections
    enumerated, to list their witnesses.  Enumerations beyond about a million
    subcollections are refused rather than attempted.
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
    bits = qm.coat.member_bits()
    values = tuple(qm.numerator(b) for b in bits)
    top = max(qm.numerator(x) for x, _ in undercut)  # no subcollection costing this or more violates
    violations: list[Witness] = []

    def check_cover(chosen: int, union: int, cost: int) -> None:
        """Witness each member that the subcollection ``chosen`` covers below its value."""
        violated = [x for x, _ in undercut if x & ~union == 0 and qm.numerator(x) > cost]
        if not violated:
            return
        indices = [i for i in range(k) if chosen >> i & 1]
        if (cover_mode == "disjoint-only"
                and sum(bits[i].bit_count() for i in indices) != union.bit_count()):
            return
        roles = tuple((f"S{n + 1}", bits[i]) for n, i in enumerate(indices))
        for x in violated:
            violations.append(qm.witness((("X", x), *roles), qm.numerator(x), cost, "le",
                                         "cover value sum below the covered member"))

    if (1 << k) <= COVER_ENUMERATION_LIMIT:
        unions, costs = subset_table(bits), subset_table(values, operator.add)
        for s in range(1, 1 << k):
            if costs[s] < top and s.bit_count() <= max_cover_size:
                check_cover(s, unions[s], costs[s])
        return violations

    total = sum(math.comb(k, size) for size in range(1, max_cover_size + 1))
    if total > COVER_ENUMERATION_LIMIT:
        raise BudgetExceeded(
            f"{total} subcollections exceed the enumeration limit; lower max_cover_size"
        )
    for size in range(1, max_cover_size + 1):
        for combo in itertools.combinations(range(k), size):
            chosen = union = cost = 0
            for i in combo:
                chosen |= 1 << i
                union |= bits[i]
                cost += values[i]
            check_cover(chosen, union, cost)
    return violations


def _checked_pairs(rb: ReportBuilder, qm: QuasiMeasure) -> Iterator[tuple[int, int, int, int]]:
    """Check the splitting of each ordered coat pair, then yield its ``(x, y, meet, diff)`` bits."""
    # "endpoints" needs no loop: QuasiMeasure refuses value(empty) != 0 and value(omega) != 1.
    num = qm.numerator
    bits = qm.coat.member_bits()
    for x in bits:
        vx = num(x)
        for y in bits:
            meet, diff = x & y, x & ~y
            vmeet, vdiff = num(meet), num(diff)
            if vx != vmeet + vdiff:
                rb.fail("splitting", qm.witness(
                    (("X", x), ("Y", y)), vx, vmeet + vdiff, "eq",
                    f"meet {qm.ground.mask(meet)} has value {qm.fraction(vmeet)},"
                    f" difference {qm.ground.mask(diff)} has value {qm.fraction(vdiff)}",
                ))
            yield x, y, meet, diff


def _envelopes(qm: QuasiMeasure) -> tuple[set[int], set[int]]:
    """The refinement members that lie inside, and those that hold, a coat member of equal value.

    Every meet and difference of two coat members is a refinement member, so
    whether it has an envelope depends on it alone, not on the pair.
    """
    coat = [(w, qm.numerator(w)) for w in qm.coat.member_bits()]
    inside, around = set(), set()
    for m in (r.bits for r in qm.refinement):
        v = qm.numerator(m)
        for w, vw in coat:
            if vw == v:
                if m & ~w == 0:
                    inside.add(m)
                if w & ~m == 0:
                    around.add(m)
    return inside, around


def _envelope_fail(qm: QuasiMeasure, kind: str, x: int, y: int, target: int) -> Witness:
    return qm.witness((("X", x), ("Y", y), (kind, target)), qm.numerator(target), None, "exists",
                      "no coat superset with equal value")


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
    enveloped = _envelopes(qm)[0] if variant == "restricted" else {m.bits for m in qm.refinement}
    for x, y, meet, diff in _checked_pairs(rb, qm):
        if meet not in enveloped:
            rb.fail("meet-envelope", _envelope_fail(qm, "meet", x, y, meet))
        if diff not in enveloped:
            rb.fail("diff-envelope", _envelope_fail(qm, "difference", x, y, diff))

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
    One pass over the coat pairs checks all of them.
    """
    rb = ReportBuilder("alt-conditions")
    rb.declare(*ALT_CHECKS)

    num = qm.numerator
    inside, around = _envelopes(qm)
    for x, y, meet, diff in _checked_pairs(rb, qm):
        if diff == 0 and num(x) > num(y):  # x is a subset of y
            rb.fail("monotone", qm.witness((("X", x), ("Y", y)), num(x), num(y), "le"))
        if not (meet in inside and meet in around):
            rb.fail("meet-squeeze", qm.witness(
                (("X", x), ("Y", y), ("meet", meet)), num(meet), None, "exists",
                "no coat pair squeezing the meet with equal values",
            ))
        if diff not in inside:
            rb.fail("diff-envelope", _envelope_fail(qm, "difference", x, y, diff))
    return rb.build()
