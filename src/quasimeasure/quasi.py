"""Quasi-measures on coat refinements and mechanical checks of their axioms.

A quasi-measure assigns an exact rational in [0,1] to every member of a
coat's refinement, sending the empty set to 0 and the full set to 1.  The
checkers below quantify exhaustively over coat pairs and coat subcollections
and compare exact values; there is no tolerance anywhere in this module.
They compute on int masks and on integer numerators over one ``scale``, which
keeps equality and order; ``Fraction`` and ``SubsetMask`` are built only for
witnesses.

Values are keyed by mask, so two expressions denoting the same set cannot
receive different values; well-definedness is structural, not checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .report import AxiomReport, ReportBuilder, Witness
from .sets import BudgetExceeded, Coat, Refinement, SubsetMask

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
            if not ZERO <= value <= ONE:
                raise ValueError(f"value of {mask} outside [0,1]: {value}")
        ground = self.coat.ground
        if self.values[ground.empty()] != ZERO:
            raise ValueError("value of the empty set must be 0")
        if self.values[ground.full()] != ONE:
            raise ValueError("value of omega must be 1")
        scale = math.lcm(*(v.denominator for v in self.values.values()))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_numerators", {
            m.bits: v.numerator * (scale // v.denominator) for m, v in self.values.items()
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

    def witness(self, roles: Iterable[tuple[str, int]], lhs: int, rhs: int | None,
                relation: str, note: str = "") -> Witness:
        """A report witness from role bits and numerators; coat members reuse the coat's masks."""
        coat_masks = self._coat_masks  # type: ignore[attr-defined]
        sets = tuple((role, coat_masks[bits] if bits in coat_masks else self.ground.mask(bits))
                     for role, bits in roles)
        return Witness(sets, Fraction(lhs, self.scale),
                       None if rhs is None else Fraction(rhs, self.scale), relation, note)


def subcollection_table(
    member_bits: tuple[int, ...], values: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """Union and value sum of every subcollection of the coat.

    Entry s describes the subcollection containing coat member i iff bit i
    of s is set.  Values are int numerators over one scale.  Built by
    peeling the lowest set bit, so the whole table is linear in 2**|coat|.
    """
    k = len(member_bits)
    unions = [0] * (1 << k)
    costs = [0] * (1 << k)
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
    k = len(qm.coat)
    if max_cover_size is None:
        max_cover_size = k
    if max_cover_size > k:
        raise ValueError("max_cover_size exceeds the coat size")
    bits = qm.coat.member_bits()
    values = tuple(qm.numerator(b) for b in bits)
    violations: list[Witness] = []

    def check_cover(chosen: int, union: int, cost: int) -> None:
        """Witness each member that the subcollection ``chosen`` covers below its value."""
        violated = [(x, vx) for x, vx in zip(bits, values) if x & ~union == 0 and vx > cost]
        if not violated:
            return
        indices = [i for i in range(k) if chosen >> i & 1]
        if (cover_mode == "disjoint-only"
                and sum(bits[i].bit_count() for i in indices) != union.bit_count()):
            return
        roles = tuple((f"S{n + 1}", bits[i]) for n, i in enumerate(indices))
        for x, vx in violated:
            violations.append(qm.witness((("X", x), *roles), vx, cost, "le",
                                         "cover value sum below the covered member"))

    if (1 << k) <= COVER_ENUMERATION_LIMIT:
        unions, costs = subcollection_table(bits, values)
        for s in range(1, 1 << k):
            if s.bit_count() <= max_cover_size:
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


def _checked_pairs(rb: ReportBuilder, qm: QuasiMeasure) -> list[tuple[int, int, int, int, int, int]]:
    """Check the endpoints and the splitting of every coat pair.

    Returns ``(x, y, meet, diff, value of meet, value of diff)`` as bits and
    numerators for every ordered coat pair, for the pair checks that follow.
    """
    num = qm.numerator
    for endpoint, want in ((0, 0), (qm.ground.full_bits, qm.scale)):
        if num(endpoint) != want:
            rb.fail("endpoints", qm.witness((("set", endpoint),), num(endpoint), want, "eq"))

    bits = qm.coat.member_bits()
    pairs = []
    for x in bits:
        vx = num(x)
        for y in bits:
            meet, diff = x & y, x & ~y
            vmeet, vdiff = num(meet), num(diff)
            if vx != vmeet + vdiff:
                rb.fail("splitting", qm.witness(
                    (("X", x), ("Y", y)), vx, vmeet + vdiff, "eq",
                    f"meet {qm.ground.mask(meet)} has value {Fraction(vmeet, qm.scale)},"
                    f" difference {qm.ground.mask(diff)} has value {Fraction(vdiff, qm.scale)}",
                ))
            pairs.append((x, y, meet, diff, vmeet, vdiff))
    return pairs


def _check_monotone(rb: ReportBuilder, qm: QuasiMeasure, outer_role: str) -> None:
    """Fail "monotone" for every coat member inside another of smaller value."""
    bits = qm.coat.member_bits()
    num = qm.numerator
    for x in bits:
        vx = num(x)
        for y in bits:
            if x & ~y == 0 and vx > num(y):
                rb.fail("monotone", qm.witness((("X", x), (outer_role, y)), vx, num(y), "le"))


def _envelope_lookup(qm: QuasiMeasure, pool: Iterable[int]) -> Callable[[int, int], bool]:
    """``has_envelope(target, value)``: some pool member of that value contains the target."""
    pool_by_value: dict[int, list[int]] = {}
    for w in pool:
        pool_by_value.setdefault(qm.numerator(w), []).append(w)

    def has_envelope(target: int, value: int) -> bool:
        return any(target & ~w == 0 for w in pool_by_value.get(value, ()))

    return has_envelope


def _envelope_fail(qm: QuasiMeasure, kind: str, x: int, y: int, target: int,
                   value: int, pool_name: str) -> Witness:
    return qm.witness(
        (("X", x), ("Y", y), (kind, target)), value, None, "exists",
        f"no {pool_name} superset with equal value",
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
    has_envelope = _envelope_lookup(qm, (w.bits for w in pool))

    for x, y, meet, diff, vmeet, vdiff in _checked_pairs(rb, qm):
        if not has_envelope(meet, vmeet):
            rb.fail("meet-envelope", _envelope_fail(qm, "meet", x, y, meet, vmeet, pool_name))
        if not has_envelope(diff, vdiff):
            rb.fail("diff-envelope", _envelope_fail(qm, "difference", x, y, diff, vdiff, pool_name))

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
    bits = qm.coat.member_bits()
    num = qm.numerator
    has_envelope = _envelope_lookup(qm, bits)
    for x, y, meet, diff, vmeet, vdiff in _checked_pairs(rb, qm):
        inner_ok = any(k & ~meet == 0 and num(k) == vmeet for k in bits)
        if not (inner_ok and has_envelope(meet, vmeet)):
            rb.fail("meet-squeeze", qm.witness(
                (("X", x), ("Y", y), ("meet", meet)), vmeet, None, "exists",
                "no coat pair squeezing the meet with equal values",
            ))
        if not has_envelope(diff, vdiff):
            rb.fail("diff-envelope", _envelope_fail(qm, "difference", x, y, diff, vdiff, "coat"))
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
