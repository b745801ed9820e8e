from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from quasimeasure import (
    Coat,
    GroundSet,
    TrueMeasure,
    canonical_negative_instance,
    extend,
    extension,
    induce,
)
from quasimeasure.sets import DEFAULT_EXHAUSTIVE_LIMIT, BudgetExceeded

# Property tests are derandomized and keep no example database, so every
# run draws the same examples; each test sets only ``max_examples``.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# The same draws without shrinking, for ``--hypothesis-profile mutants``
# (mutants/run.py): a caught mutant fails at its first failing example.
settings.register_profile("mutants", settings.get_profile("tier1"),
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))


def power_set_coat(ground: GroundSet) -> Coat:
    """Every subset of ``ground`` as a coat: empty, omega, then the rest in mask order."""
    return Coat.from_bits(ground, [0, ground.full_bits, *range(1, ground.full_bits)])


def is_caratheodory_measurable(qm, w):
    """Exhaustive splitting test of ``w`` over all 2**n subsets on ``extend``'s table.

    Returns the first violating A in mask order; past 2**16 subsets it
    refuses before ``extend`` solves anything.
    """
    if w.ground != qm.ground:
        raise ValueError("candidate set belongs to a different ground set")
    if (1 << qm.ground.n) > DEFAULT_EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(f"2**{qm.ground.n} subsets exceed budget {DEFAULT_EXHAUSTIVE_LIMIT}")
    return extension._first_split_failure(qm, w, extension._subset_values(extend(qm)))


class ReferenceCoverSolver:
    """An entry-order cover search, the oracle for ``CoverSolver``'s cheapest-first order.

    Each node rebuilds its candidates in entry order (those holding the lowest
    uncovered element for exact weights, every entry meeting the residual for
    floats) and skips, rather than stops at, an entry dearer than its best.
    """

    def __init__(self, entries, zero):
        self.entries = entries
        self.reach = 0
        for _, bits, _ in entries:
            self.reach |= bits
        self._lowest_only = not isinstance(zero, float)
        self._memo = {0: (zero, ())}

    def solve(self, target_bits):
        if target_bits & ~self.reach:
            raise ValueError("target not coverable by the available members")
        return self._memo.get(target_bits) or self._solve(target_bits)

    def _solve(self, residual):
        memo = self._memo
        branch = residual & -residual if self._lowest_only else residual
        candidates = [e for e in self.entries if e[1] & branch]
        best = None
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
        memo[residual] = best
        return best


@pytest.fixture
def ground4() -> GroundSet:
    return GroundSet(("1", "2", "3", "4"))


@pytest.fixture
def ground3() -> GroundSet:
    return GroundSet(("1", "2", "3"))


@pytest.fixture
def negative_instance():
    """Uniform weights on {1,2,3,4}, coat {empty, omega, {1,2}, {2,3}}."""
    return canonical_negative_instance()


@pytest.fixture
def power_set_instance(ground3):
    """All 8 subsets of {1,2,3} with atom weights 1/2, 1/4, 1/4."""
    tm = TrueMeasure(ground3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    coat = power_set_coat(ground3)
    return tm, coat, induce(tm, coat)


@pytest.fixture
def trivial_instance(ground4):
    tm = TrueMeasure.uniform(ground4)
    coat = Coat(ground4, (ground4.empty(), ground4.full()))
    return tm, coat, induce(tm, coat)
