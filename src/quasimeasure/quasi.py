"""Quasi-measures on coat refinements and mechanical checks of their axioms.

A quasi-measure assigns an exact rational in [0,1] to every member of a
coat's refinement, sending the empty set to 0 and the full set to 1.  The
checkers below quantify exhaustively over coat pairs and coat subcollections
and compare exact rationals; there is no tolerance anywhere in this module.

Values are keyed by mask, so two expressions denoting the same set cannot
receive different values; well-definedness is structural, not checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .report import AxiomReport, ReportBuilder, Witness
from .sets import BudgetExceeded, Coat, Refinement, SubsetMask, refine

ZERO = Fraction(0)
ONE = Fraction(1)

AXIOM_CHECKS = ("endpoints", "splitting", "meet-envelope", "diff-envelope", "cover-bound")
ALT_CHECKS = ("endpoints", "monotone", "splitting", "meet-squeeze", "diff-envelope")


def ensure_unit_interval(value: Fraction, what: str = "value") -> Fraction:
    if not ZERO <= value <= ONE:
        raise ValueError(f"{what} outside [0,1]: {value}")
    return value


@dataclass(frozen=True, eq=False)
class QuasiMeasure:
    """A total map from refinement members to exact rationals in [0,1]."""

    coat: Coat
    refinement: Refinement
    values: dict[SubsetMask, Fraction]

    def __post_init__(self) -> None:
        domain = set(self.values)
        members = set(self.refinement.members)
        if domain != members:
            missing = members - domain
            extra = domain - members
            raise ValueError(
                f"values must cover the refinement exactly; missing={sorted(str(m) for m in missing)}"
                f" extra={sorted(str(m) for m in extra)}"
            )
        for mask, value in self.values.items():
            ensure_unit_interval(value, f"value of {mask}")
        ground = self.coat.ground
        if self.values[ground.empty()] != ZERO:
            raise ValueError("value of the empty set must be 0")
        if self.values[ground.full()] != ONE:
            raise ValueError("value of omega must be 1")
        object.__setattr__(self, "_by_bits", {m.bits: v for m, v in self.values.items()})

    @classmethod
    def from_values(cls, coat: Coat, values: Mapping[SubsetMask, Fraction]) -> "QuasiMeasure":
        return cls(coat, refine(coat), dict(values))

    @property
    def ground(self):
        return self.coat.ground

    def value(self, mask: SubsetMask) -> Fraction:
        return self.values[mask]

    def value_bits(self, bits: int) -> Fraction:
        return self._by_bits[bits]  # type: ignore[attr-defined]

    def replace_value(self, mask: SubsetMask, value: Fraction) -> "QuasiMeasure":
        """A copy with one entry changed; endpoints stay protected."""
        updated = dict(self.values)
        updated[mask] = ensure_unit_interval(value)
        return QuasiMeasure(self.coat, self.refinement, updated)


def subcollection_table(
    member_bits: tuple[int, ...], values: tuple[Fraction, ...]
) -> tuple[list[int], list[Fraction]]:
    """Union and value sum of every subcollection of the coat.

    Entry s describes the subcollection containing coat member i iff bit i
    of s is set.  Built by peeling the lowest set bit, so the whole table is
    linear in 2**|coat|.
    """
    k = len(member_bits)
    unions = [0] * (1 << k)
    costs: list[Fraction] = [ZERO] * (1 << k)
    for s in range(1, 1 << k):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        unions[s] = unions[rest] | member_bits[low]
        costs[s] = costs[rest] + values[low]
    return unions, costs


COVER_ENUMERATION_LIMIT = 1 << 20


def cover_bound_violations(
    qm: QuasiMeasure,
    cover_mode: str = "all",
    max_cover_size: int | None = None,
) -> list[Witness]:
    """Violations of the finite-cover upper bound, exhaustively enumerated.

    For every coat member X and every subcollection of the coat (of the
    requested size and disjointness) whose union contains X, the value of X
    must not exceed the subcollection's value sum.  Enumerations beyond
    about a million subcollections are refused rather than attempted.
    """
    if cover_mode not in ("all", "disjoint-only"):
        raise ValueError(f"unknown cover mode {cover_mode!r}")
    members = qm.coat.members
    k = len(members)
    if max_cover_size is None:
        max_cover_size = k
    if max_cover_size > k:
        raise ValueError("max_cover_size exceeds the coat size")
    bits = qm.coat.member_bits()
    values = tuple(qm.value_bits(b) for b in bits)
    targets = [(x, qm.value(x)) for x in members]
    violations: list[Witness] = []

    def check_cover(index_tuple: tuple[int, ...], union: int, cost: Fraction) -> None:
        if (cover_mode == "disjoint-only"
                and sum(bits[i].bit_count() for i in index_tuple) != union.bit_count()):
            return
        for x, vx in targets:
            if x.bits & ~union == 0 and vx > cost:
                chosen = tuple(members[i] for i in index_tuple)
                violations.append(Witness(
                    sets=(("X", x),) + tuple((f"S{n+1}", m) for n, m in enumerate(chosen)),
                    lhs=vx,
                    rhs=cost,
                    relation="le",
                    note="cover value sum below the covered member",
                ))

    if (1 << k) <= COVER_ENUMERATION_LIMIT:
        unions, costs = subcollection_table(bits, values)
        for s in range(1, 1 << k):
            if s.bit_count() > max_cover_size:
                continue
            index_tuple = tuple(i for i in range(k) if s >> i & 1)
            check_cover(index_tuple, unions[s], costs[s])
        return violations

    total = sum(math.comb(k, size) for size in range(1, max_cover_size + 1))
    if total > COVER_ENUMERATION_LIMIT:
        raise BudgetExceeded(
            f"{total} subcollections exceed the enumeration limit; lower max_cover_size"
        )
    for size in range(1, max_cover_size + 1):
        for combo in itertools.combinations(range(k), size):
            union = 0
            cost = ZERO
            for i in combo:
                union |= bits[i]
                cost += values[i]
            check_cover(combo, union, cost)
    return violations


def _checked_pairs(
    rb: ReportBuilder, qm: QuasiMeasure
) -> list[tuple[SubsetMask, SubsetMask, SubsetMask, SubsetMask, Fraction, Fraction]]:
    """Check the endpoints and the splitting of every coat pair.

    Returns ``(x, y, meet, diff, value of meet, value of diff)`` for every
    ordered coat pair, for the pair checks that follow.
    """
    ground = qm.ground
    if qm.value(ground.empty()) != ZERO:
        rb.fail("endpoints", Witness((("set", ground.empty()),), qm.value(ground.empty()), ZERO, "eq"))
    if qm.value(ground.full()) != ONE:
        rb.fail("endpoints", Witness((("set", ground.full()),), qm.value(ground.full()), ONE, "eq"))

    pairs = []
    for x in qm.coat.members:
        vx = qm.value(x)
        for y in qm.coat.members:
            meet = x & y
            diff = x.difference(y)
            vmeet = qm.value(meet)
            vdiff = qm.value(diff)
            if vx != vmeet + vdiff:
                rb.fail("splitting", Witness(
                    (("X", x), ("Y", y)), vx, vmeet + vdiff, "eq",
                    note=f"meet {meet} has value {vmeet}, difference {diff} has value {vdiff}",
                ))
            pairs.append((x, y, meet, diff, vmeet, vdiff))
    return pairs


def _check_monotone(rb: ReportBuilder, qm: QuasiMeasure, outer_role: str) -> None:
    """Fail "monotone" for every coat member inside another of smaller value."""
    members = qm.coat.members
    for x in members:
        vx = qm.value(x)
        for y in members:
            if x.bits & ~y.bits == 0 and vx > qm.value(y):
                rb.fail("monotone", Witness((("X", x), (outer_role, y)), vx, qm.value(y), "le"))


def _envelope_fail(kind: str, x: SubsetMask, y: SubsetMask, target: SubsetMask,
                   value: Fraction, pool_name: str) -> Witness:
    return Witness(
        sets=(("X", x), ("Y", y), (kind, target)),
        lhs=value,
        rhs=None,
        relation="exists",
        note=f"no {pool_name} superset with equal value",
    )


def check_axioms(
    qm: QuasiMeasure,
    variant: str = "restricted",
    cover_mode: str = "all",
    max_cover_size: int | None = None,
) -> AxiomReport:
    """Check the five quasi-measure axioms, exactly.

    ``variant`` controls where the envelope witnesses W and Z may live:
    ``"literal"`` admits any refinement member (under which the target set
    always witnesses itself), ``"restricted"`` admits coat members only.
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

    pool = qm.coat.members if variant == "restricted" else qm.refinement.members
    pool_name = "coat" if variant == "restricted" else "refinement"
    pool_by_value: dict[Fraction, list[SubsetMask]] = {}
    for w in pool:
        pool_by_value.setdefault(qm.value(w), []).append(w)

    def has_envelope(target: SubsetMask, value: Fraction) -> bool:
        return any(target.issubset(w) for w in pool_by_value.get(value, ()))

    for x, y, meet, diff, vmeet, vdiff in _checked_pairs(rb, qm):
        if not has_envelope(meet, vmeet):
            rb.fail("meet-envelope", _envelope_fail("meet", x, y, meet, vmeet, pool_name))
        if not has_envelope(diff, vdiff):
            rb.fail("diff-envelope", _envelope_fail("difference", x, y, diff, vdiff, pool_name))

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

    _check_monotone(rb, qm, "Y")
    members = qm.coat.members
    for x, y, meet, diff, vmeet, vdiff in _checked_pairs(rb, qm):
        inner_ok = any(k.issubset(meet) and qm.value(k) == vmeet for k in members)
        outer_ok = any(meet.issubset(w) and qm.value(w) == vmeet for w in members)
        if not (inner_ok and outer_ok):
            rb.fail("meet-squeeze", Witness(
                (("X", x), ("Y", y), ("meet", meet)), vmeet, None, "exists",
                note="no coat pair squeezing the meet with equal values",
            ))
        if not any(diff.issubset(z) and qm.value(z) == vdiff for z in members):
            rb.fail("diff-envelope", _envelope_fail("difference", x, y, diff, vdiff, "coat"))
    return rb.build()


def check_coat_monotonicity(qm: QuasiMeasure) -> AxiomReport:
    """Check that nested coat members carry nondecreasing values.

    This is the cover bound specialised to singleton covers: X inside S
    forces value(X) <= value(S).  Monotonicity on the coat is what makes
    one-member covers sound, so it gets its own named check.
    """
    rb = ReportBuilder("coat-monotonicity")
    rb.declare("monotone")
    _check_monotone(rb, qm, "S")
    return rb.build()
