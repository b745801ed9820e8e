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
Both work on int masks and int costs (numerators over ``qm.scale``), and the
solver keeps the only cover memo; ``Fraction``, `SubsetMask` and
`CoverSolution` are built only for results and witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Generic, Sequence, TypeVar

from .quasi import COVER_ENUMERATION_LIMIT, ZERO, QuasiMeasure, subcollection_table
from .report import AxiomReport, ReportBuilder
from .sets import SubsetMask

W = TypeVar("W")
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
    decreasing fresh coverage; a candidate whose own weight already exceeds
    the node's best cost is pruned (it cannot improve or tie).
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
        return self._solve(target_bits)

    def _solve(self, residual: int) -> tuple[W, tuple[int, ...]]:
        hit = self._memo.get(residual)
        if hit is not None:
            return hit
        candidates = [e for e in self.entries if e[1] & residual]
        candidates.sort(key=lambda e: -(e[1] & residual).bit_count())
        best: tuple[W, tuple[int, ...]] | None = None
        for idx, bits, weight in candidates:
            if best is not None and weight > best[0]:
                continue
            sub_cost, sub_chosen = self._solve(residual & ~bits)
            cost = weight + sub_cost
            chosen = tuple(sorted(sub_chosen + (idx,)))
            if best is None or (cost, len(chosen), chosen) < (best[0], len(best[1]), best[1]):
                best = (cost, chosen)
        assert best is not None  # residual != 0 and reach covers it
        self._memo[residual] = best
        return best


class OuterMeasureCache:
    """Binds one quasi-measure to its ``CoverSolver``, whose int-keyed memo
    holds every exterior value solved through the cache.

    Single writer per cache instance; use independent caches for parallel
    workers.  A cache is bound to the first quasi-measure it serves and
    refuses any other, even one on the same ground set.
    """

    def __init__(self) -> None:
        self._qm: QuasiMeasure | None = None
        self._solver: CoverSolver[int] | None = None

    def bind(self, qm: QuasiMeasure) -> CoverSolver[int]:
        if self._solver is None:
            self._qm, self._solver = qm, _make_solver(qm)
        elif self._qm is not qm:
            raise ValueError("cache already bound to a different quasi-measure")
        return self._solver


def _make_solver(qm: QuasiMeasure) -> CoverSolver[int]:
    return CoverSolver([(i, b, qm.numerator(b)) for i, b in enumerate(qm.coat.member_bits())], 0)


def outer(
    qm: QuasiMeasure,
    a: SubsetMask,
    cache: OuterMeasureCache | None = None,
) -> tuple[Fraction, CoverSolution]:
    """Exact exterior value of ``a`` with an optimal cover witness.

    Always defined: the full set belongs to every coat, so a cover exists
    and the result is at most 1.  The empty subcollection covers only the
    empty set, which therefore gets cost 0.
    """
    solver = _make_solver(qm) if cache is None else cache.bind(qm)
    cost, chosen = solver.solve(a.bits)
    value = Fraction(cost, qm.scale)
    return value, CoverSolution(chosen, value)


@lru_cache(maxsize=8)
def _cached_subcollection_table(
    member_bits: tuple[int, ...], values: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``subcollection_table``, frozen so that cached callers share it safely."""
    unions, costs = subcollection_table(member_bits, values)
    return tuple(unions), tuple(costs)


def outer_exhaustive(qm: QuasiMeasure, a: SubsetMask) -> tuple[Fraction, CoverSolution]:
    """Same contract as ``outer``, by enumerating all 2**|coat| subcollections.

    Independent of the branch-and-bound path; used to validate it.
    """
    k = len(qm.coat)
    if (1 << k) > COVER_ENUMERATION_LIMIT:
        raise ValueError(f"coat too large for enumeration (2**{k} > {COVER_ENUMERATION_LIMIT})")
    member_bits = qm.coat.member_bits()
    unions, costs = _cached_subcollection_table(
        member_bits, tuple(qm.numerator(b) for b in member_bits))

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


def check_outer_properties(
    qm: QuasiMeasure,
    subset_budget: int = 1 << 12,
    seed: int = 0,
) -> AxiomReport:
    """Exact checks of the exterior value's structural properties.

    Quantification is exhaustive over all 2**n subsets while that fits the
    budget, otherwise over a deterministic sample drawn from the recorded
    seed.  Agreement with the assigned coat values holds only when the
    cover bound does, so that precondition is evaluated and recorded.
    """
    rb = ReportBuilder("outer-properties")
    rb.declare("endpoints", "nonnegative", "monotone", "coat-agreement", "subadditive")
    ground = qm.ground
    n = ground.n
    total = 1 << n
    solver = _make_solver(qm)

    def value_of(bits: int) -> int:
        return solver.solve(bits)[0]

    exhaustive = total <= subset_budget
    if exhaustive:
        targets = list(range(total))
        rb.note(f"subsets=exhaustive n={n}")
    else:
        rng = random.Random(seed)
        targets = sorted({0, ground.full_bits, *rng.sample(range(total), subset_budget)})
        rb.note(f"subsets=sampled count={len(targets)} seed={seed}")

    for endpoint, want in ((0, 0), (ground.full_bits, qm.scale)):
        if value_of(endpoint) != want:
            rb.fail("endpoints", qm.witness((("set", endpoint),), value_of(endpoint), want, "eq"))

    for bits in targets:
        if value_of(bits) < 0:
            rb.fail("nonnegative", qm.witness((("A", bits),), value_of(bits), 0, "le"))

    if exhaustive:
        for b in range(total):
            vb = value_of(b)
            a = b
            while True:  # all submasks of b, then the empty set
                a = (a - 1) & b
                if value_of(a) > vb:
                    rb.fail("monotone", qm.witness((("A", a), ("B", b)), value_of(a), vb, "le"))
                if a == 0:
                    break
    else:
        for a in targets:
            for b in targets:
                if a & ~b == 0 and value_of(a) > value_of(b):
                    rb.fail("monotone", qm.witness((("A", a), ("B", b)), value_of(a), value_of(b), "le"))

    # A member covers itself, so its exterior value never exceeds its own;
    # the cover bound holds iff every member's exterior value equals it.
    agreement = [(x, qm.numerator(x.bits), value_of(x.bits)) for x in qm.coat.members]
    precondition_ok = all(assigned == exterior for _, assigned, exterior in agreement)
    rb.note(f"coat-agreement precondition (cover bound): {'pass' if precondition_ok else 'fail'}")
    for x, assigned, exterior in agreement:
        rb.detail("coat-agreement",
                  f"member {x}: assigned {qm.value(x)} exterior {Fraction(exterior, qm.scale)}")
        if exterior != assigned:
            rb.fail("coat-agreement", qm.witness((("X", x.bits),), exterior, assigned, "eq"))

    for a in targets:
        va = value_of(a)
        for b in targets:
            if value_of(a | b) > va + value_of(b):
                rb.fail("subadditive", qm.witness(
                    (("A1", a), ("A2", b)), value_of(a | b), va + value_of(b), "le"))
    if len(targets) ** 3 <= TRIPLE_BUDGET:
        triples = [(a, b, c) for a in targets for b in targets for c in targets]
        rb.note("triples=exhaustive")
    else:
        rng = random.Random(seed + 1)
        triples = [
            (rng.choice(targets), rng.choice(targets), rng.choice(targets))
            for _ in range(TRIPLE_BUDGET // 64)
        ]
        rb.note(f"triples=sampled count={len(triples)} seed={seed + 1}")
    for a, b, c in triples:
        bound = value_of(a) + value_of(b) + value_of(c)
        if value_of(a | b | c) > bound:
            rb.fail("subadditive", qm.witness(
                (("A1", a), ("A2", b), ("A3", c)), value_of(a | b | c), bound, "le"))
    return rb.build()
