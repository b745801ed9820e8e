"""Exterior values as exact minimum-weight set covers over the coat.

The exterior value of an arbitrary subset is the cheapest way to cover it
with coat members, where each member costs its quasi-measure value.  On a
finite ground set the infimum is attained, so the optimizer returns both the
exact cost and an optimal witness.  Ties between optimal covers are broken
deterministically: lowest cost, then fewest members, then lexicographically
smallest index list.

Two independent routes compute the same quantity: a memoized branch-and-bound
(`CoverSolver`, reached through `outer`) and a full enumeration of all
subcollections (`outer_exhaustive`).  Tests hold them to exact cost equality.
Both work on int masks and int costs (numerators over ``qm.scale``).  Each
call builds its own solver through `coat_solver`, so the only cover memo
lives as long as that call; ``Fraction``, `SubsetMask` and
`CoverSolution` are built only for results and witnesses.
`exterior_values` is the one builder of the list of all 2**n exterior
values: every check that quantifies over all subsets indexes it instead of
calling the solver per lookup.  `check_outer_properties` needs no such
list: a minimum cover is monotone and subadditive by construction, so it
solves only omega and the coat members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Generic, Sequence, TypeVar

from .quasi import COVER_ENUMERATION_LIMIT, ZERO, QuasiMeasure, subcollection_table
from .report import AxiomReport, ReportBuilder
from .sets import DEFAULT_EXHAUSTIVE_LIMIT, BudgetExceeded, SubsetMask

W = TypeVar("W")
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
        members must cover the target, and their values must sum to the cost.
        """
        if not all(i < j for i, j in zip((-1, *self.chosen), (*self.chosen, len(qm.coat)))):
            return False
        union = 0
        total = ZERO
        for i in self.chosen:
            member = qm.coat.members[i]
            union |= member.bits
            total += qm.value(member)
        return target.bits & ~union == 0 and total == self.cost


class CoverSolver(Generic[W]):
    """Minimum-weight cover search on int masks, memoized on the uncovered mask.

    ``entries`` are ``(index, bits, weight)``; weights are any nonnegative,
    ordered, additive type with zero ``zero``: int numerators over ``scale``
    for coats, ``float`` for interval pools.  ``solve`` returns the cost and the
    ascending chosen indices.  Candidates at each node are ordered by
    decreasing fresh coverage.  The memo is read before each call; a
    candidate whose weight, or else whose cover's cost, exceeds the node's
    best cost is skipped before its residual is solved or its cover tuple
    built (it cannot improve or tie).
    """

    def __init__(self, entries: Sequence[tuple[int, int, W]], zero: W):
        self.entries = entries
        self.reach = 0
        for _, bits, _ in entries:
            self.reach |= bits
        self._memo: dict[int, tuple[W, tuple[int, ...]]] = {0: (zero, ())}

    def feasible(self, target_bits: int) -> bool:
        return target_bits & ~self.reach == 0

    def solve(self, target_bits: int) -> tuple[W, tuple[int, ...]]:
        if not self.feasible(target_bits):
            raise ValueError("target not coverable by the available members")
        return self._memo.get(target_bits) or self._solve(target_bits)

    def _solve(self, residual: int) -> tuple[W, tuple[int, ...]]:
        memo = self._memo
        candidates = [e for e in self.entries if e[1] & residual]
        candidates.sort(key=lambda e: -(e[1] & residual).bit_count())
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


def exterior_values(qm: QuasiMeasure) -> list[int]:
    """The exterior value of every subset as int numerators, indexed by mask.

    All 2**n subsets are solved on one solver; past
    ``DEFAULT_EXHAUSTIVE_LIMIT`` subsets the call refuses before solving.
    """
    n = qm.ground.n
    if (1 << n) > DEFAULT_EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(f"2**{n} subsets exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
    solve = coat_solver(qm).solve
    return [solve(a)[0] for a in range(1 << n)]


def outer(qm: QuasiMeasure, a: SubsetMask) -> tuple[Fraction, CoverSolution]:
    """Exact exterior value of ``a`` with an optimal cover witness.

    Always defined: the full set belongs to every coat, so a cover exists
    and the result is at most 1.  The empty subcollection covers only the
    empty set, which therefore gets cost 0.
    """
    cost, chosen = coat_solver(qm).solve(a.bits)
    value = Fraction(cost, qm.scale)
    return value, CoverSolution(chosen, value)


def outer_exhaustive(qm: QuasiMeasure, a: SubsetMask) -> tuple[Fraction, CoverSolution]:
    """Same contract as ``outer``, by enumerating all 2**|coat| subcollections.

    Independent of the branch-and-bound path; used to validate it.
    """
    k = len(qm.coat)
    if (1 << k) > COVER_ENUMERATION_LIMIT:
        raise ValueError(f"coat too large for enumeration (2**{k} > {COVER_ENUMERATION_LIMIT})")
    member_bits = qm.coat.member_bits()
    unions, costs = subcollection_table(member_bits, tuple(qm.numerator(b) for b in member_bits))

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
    "monotone" passes because a cover of B covers every A ⊆ B, and
    "subadditive" because the covers of a and b together cover a ∪ b.
    Costs are sums of numerators, none negative, from v(∅) = 0, so
    "nonnegative" passes too.  What the input can change is computed on one
    solver: the omega endpoint, and agreement with the assigned coat values,
    which holds iff the cover bound does and is recorded as that
    precondition.  The notes keep naming the subsets (all 2**n up to
    ``SUBSET_BUDGET``, else a sample from ``SAMPLE_SEED``) and triples these
    properties quantify over.
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

    # A member covers itself, so its exterior value never exceeds its own;
    # the cover bound holds iff every member's exterior value equals it.
    values = [(x, solve(x)[0]) for x in qm.coat.member_bits()]
    disagree = [(x, v) for x, v in values if v != qm.numerator(x)]
    rb.note(f"coat-agreement precondition (cover bound): {'fail' if disagree else 'pass'}")
    for x, v in disagree:
        rb.fail("coat-agreement", qm.witness((("X", x),), v, qm.numerator(x), "eq"))

    if count ** 3 <= TRIPLE_BUDGET:
        rb.note("triples=exhaustive")
    else:
        rb.note(f"triples=sampled count={TRIPLE_BUDGET // 64} seed={SAMPLE_SEED + 1}")
    return rb.build()
