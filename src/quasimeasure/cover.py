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
calling the solver per lookup.
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
SUBSET_BUDGET = 1 << 12  # subsets check_outer_properties checks before sampling
SAMPLE_SEED = 0  # seed of the sampled subsets; the sampled triples use SAMPLE_SEED + 1
TRIPLE_BUDGET = 1 << 18  # subadditivity triples checked before sampling


@dataclass(frozen=True)
class CoverSolution:
    """An optimal cover: ascending coat indices and their exact value sum."""

    chosen: tuple[int, ...]
    cost: Fraction

    def verify(self, qm: QuasiMeasure, target: SubsetMask) -> bool:
        """Re-check the witness: covers the target, cost is the value sum."""
        if len(set(self.chosen)) != len(self.chosen):
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


class SolvedValues(dict):
    """Exterior values (int numerators) by mask, solved on first lookup.

    Indexes like the list of all 2**n values, for loops that visit only a
    sample of the subsets.
    """

    def __init__(self, solver: CoverSolver[int]):
        super().__init__()
        self._solver = solver

    def __missing__(self, bits: int) -> int:
        value = self[bits] = self._solver.solve(bits)[0]
        return value


def check_outer_properties(qm: QuasiMeasure) -> AxiomReport:
    """Exact checks of the exterior value's structural properties.

    Quantification is exhaustive over all 2**n subsets while they fit
    ``SUBSET_BUDGET``, on the list ``exterior_values`` builds; otherwise it
    runs over ``SUBSET_BUDGET`` subsets drawn from ``SAMPLE_SEED``, solved on
    first lookup through ``SolvedValues``, and can only report "not
    falsified".  Agreement with the assigned coat values holds only when the
    cover bound does, so that precondition is evaluated and recorded.
    While every subset is a target, a triple can fail only where a pair
    does, so the triples are checked only after a failed pair.
    """
    rb = ReportBuilder("outer-properties")
    rb.declare("endpoints", "nonnegative", "monotone", "coat-agreement", "subadditive")
    ground = qm.ground
    n = ground.n
    total = 1 << n

    exhaustive = total <= SUBSET_BUDGET
    v: Sequence[int] | SolvedValues
    if exhaustive:
        targets: Sequence[int] = range(total)
        v = exterior_values(qm)
        rb.note(f"subsets=exhaustive n={n}")
    else:
        rng = random.Random(SAMPLE_SEED)
        targets = sorted({0, ground.full_bits, *rng.sample(range(total), SUBSET_BUDGET)})
        v = SolvedValues(coat_solver(qm))
        rb.note(f"subsets=sampled count={len(targets)} seed={SAMPLE_SEED}")

    # Every cost is a sum of numerators, none negative, and the memo starts at {0: 0},
    # so "nonnegative" always passes and only the omega endpoint can fail.
    if v[ground.full_bits] != qm.scale:
        rb.fail("endpoints", qm.witness((("set", ground.full_bits),), v[ground.full_bits],
                                        qm.scale, "eq"))

    if exhaustive:
        for b in targets:
            vb = v[b]
            a = b
            while True:  # all submasks of b, then the empty set
                a = (a - 1) & b
                if v[a] > vb:
                    rb.fail("monotone", qm.witness((("A", a), ("B", b)), v[a], vb, "le"))
                if a == 0:
                    break
    else:
        for a in targets:
            for b in targets:
                if a & ~b == 0 and v[a] > v[b]:
                    rb.fail("monotone", qm.witness((("A", a), ("B", b)), v[a], v[b], "le"))

    # A member covers itself, so its exterior value never exceeds its own;
    # the cover bound holds iff every member's exterior value equals it.
    disagree = [x for x in qm.coat.member_bits() if v[x] != qm.numerator(x)]
    rb.note(f"coat-agreement precondition (cover bound): {'fail' if disagree else 'pass'}")
    for x in disagree:
        rb.fail("coat-agreement", qm.witness((("X", x),), v[x], qm.numerator(x), "eq"))

    # Exhaustively a | b is a target, and v(a|b|c) <= v(a|b) + v(c) <= v(a) + v(b) + v(c)
    # are two checked pairs, so only a failed pair can leave a triple to report.
    check_triples = not exhaustive
    for a in targets:
        va = v[a]
        for b in targets:
            if v[a | b] > va + v[b]:
                check_triples = True
                rb.fail("subadditive", qm.witness(
                    (("A1", a), ("A2", b)), v[a | b], va + v[b], "le"))
    if len(targets) ** 3 <= TRIPLE_BUDGET:
        rb.note("triples=exhaustive")
        for a in targets if check_triples else ():
            va = v[a]
            for b in targets:
                ab, vab = a | b, va + v[b]
                for c in targets:
                    if v[ab | c] > vab + v[c]:
                        rb.fail("subadditive", qm.witness(
                            (("A1", a), ("A2", b), ("A3", c)), v[ab | c], vab + v[c], "le"))
    else:
        rng = random.Random(SAMPLE_SEED + 1)
        count = TRIPLE_BUDGET // 64
        rb.note(f"triples=sampled count={count} seed={SAMPLE_SEED + 1}")
        for _ in range(count if check_triples else 0):
            a, b, c = rng.choice(targets), rng.choice(targets), rng.choice(targets)
            bound = v[a] + v[b] + v[c]
            if v[a | b | c] > bound:
                rb.fail("subadditive", qm.witness(
                    (("A1", a), ("A2", b), ("A3", c)), v[a | b | c], bound, "le"))
    return rb.build()
