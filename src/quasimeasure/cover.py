"""Exterior values: exact minimum-weight covers by coat members.

The exterior value of a subset is the cheapest cover of it by coat members,
each costing its value.  `outer` computes it with an optimal cover on
`quasi.CoverSolver`, and `outer_exhaustive` by enumerating every
subcollection, the oracle the tests hold `outer` to.
`check_outer_properties` checks the exterior value's outer-measure
properties.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .quasi import COVER_ENUMERATION_LIMIT, QuasiMeasure, coat_solver, undercut_members
from .report import AxiomReport, ReportBuilder
from .sets import BudgetExceeded, SubsetMask, subset_table

# What check_outer_properties' notes name: all subsets up to SUBSET_BUDGET, else a sample
# drawn from SAMPLE_SEED; all triples of those up to TRIPLE_BUDGET, else a sample (SAMPLE_SEED + 1).
SUBSET_BUDGET = 1 << 12
SAMPLE_SEED = 0
TRIPLE_BUDGET = 1 << 18


@dataclass(frozen=True)
class CoverSolution:
    """An optimal cover: ascending coat indices and their exact value sum."""

    chosen: tuple[int, ...]
    cost: Fraction

    def verify(self, qm: QuasiMeasure, target: SubsetMask) -> bool:
        """Re-check the witness against the coat.

        The indices must strictly ascend within ``range(len(qm.coat))``, their
        members must cover the target, and their value numerators, summed over
        ``qm.scale``, must equal the cost.
        """
        if not all(i < j for i, j in zip((-1, *self.chosen), (*self.chosen, len(qm.coat)))):
            return False
        bits = qm.coat.member_bits()
        union = total = 0
        for i in self.chosen:
            union |= bits[i]
            total += qm.numerators[bits[i]]
        return target.bits & ~union == 0 and Fraction(total, qm.scale) == self.cost


def outer(qm: QuasiMeasure, a: SubsetMask) -> tuple[Fraction, CoverSolution]:
    """Exact exterior value of ``a`` with an optimal cover witness.

    Always defined: the full set belongs to every coat, so a cover exists
    and the result is at most 1.  The empty subcollection covers only the
    empty set, which therefore gets cost 0.
    """
    if a.ground != qm.ground:
        raise ValueError("target set belongs to a different ground set")
    cost, chosen = coat_solver(qm).solve(a.bits)
    value = Fraction(cost, qm.scale)
    return value, CoverSolution(chosen, value)


def outer_exhaustive(qm: QuasiMeasure, a: SubsetMask) -> tuple[Fraction, CoverSolution]:
    """Same contract as ``outer``, by enumerating all 2**|coat| subcollections.

    Independent of the branch-and-bound path; used to validate it.
    """
    if a.ground != qm.ground:
        raise ValueError("target set belongs to a different ground set")
    k = len(qm.coat)
    if (1 << k) > COVER_ENUMERATION_LIMIT:
        raise BudgetExceeded(f"coat too large for enumeration (2**{k} > {COVER_ENUMERATION_LIMIT})")
    member_bits = qm.coat.member_bits()
    unions = subset_table(member_bits)
    costs = subset_table(map(qm.numerators.__getitem__, member_bits), operator.add)

    def indices(s: int) -> tuple[int, ...]:
        return tuple(i for i in range(k) if s >> i & 1)

    best: tuple[tuple[int, int], tuple[int, ...]] | None = None  # ((cost, size), indices)
    for s in range(1 << k):
        if a.bits & ~unions[s]:
            continue
        key = (costs[s], s.bit_count())
        if best is None or key < best[0] or key == best[0] and indices(s) < best[1]:
            best = (key, indices(s))
    assert best is not None  # omega is always a feasible cover
    value = Fraction(best[0][0], qm.scale)
    return value, CoverSolution(best[1], value)


def check_outer_properties(qm: QuasiMeasure) -> AxiomReport:
    """Exact checks of the exterior value's structural properties.

    A minimum over covers with nonnegative weights is an outer measure for
    every input (Folland, *Real Analysis*, 2nd ed., 1999, Prop. 1.10):
    "monotone" passes because a cover of B covers every A ⊆ B, "subadditive"
    because the covers of a and b together cover a ∪ b, and "nonnegative"
    because costs are sums of nonnegative numerators.  Only what the input
    can change is computed: the omega endpoint, and agreement with the coat
    values, which fails on the cover bound's ``undercut_members``.  The notes
    still name the subsets and triples these properties quantify over.
    """
    rb = ReportBuilder("outer-properties")
    rb.declare("endpoints", "nonnegative", "monotone", "coat-agreement", "subadditive")
    ground = qm.ground
    n = ground.n
    total = 1 << n
    if total <= SUBSET_BUDGET:
        count = total
        rb.note(f"subsets=exhaustive n={n}")
    else:
        sample = random.Random(SAMPLE_SEED).sample(range(total), SUBSET_BUDGET)
        count = len({0, ground.full_bits, *sample})
        rb.note(f"subsets=sampled count={count} seed={SAMPLE_SEED}")

    solve = coat_solver(qm).solve
    full = solve(ground.full_bits)[0]
    if full != qm.scale:
        rb.fail("endpoints", qm.witness((("set", ground.full_bits),), full, qm.scale, "eq"))

    disagree = undercut_members(qm, solve)
    rb.note(f"coat-agreement precondition (cover bound): {'fail' if disagree else 'pass'}")
    for x, v in disagree:
        rb.fail("coat-agreement", qm.witness((("X", x),), v, qm.numerators[x], "eq"))

    if count ** 3 <= TRIPLE_BUDGET:
        rb.note("triples=exhaustive")
    else:
        rb.note(f"triples=sampled count={TRIPLE_BUDGET // 64} seed={SAMPLE_SEED + 1}")
    return rb.build()
