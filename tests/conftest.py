from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from quasimeasure import (
    Coat,
    GroundSet,
    TrueMeasure,
    canonical_negative_instance,
    induce,
)

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
