"""Instance generation, ground-truth oracles, and the extension search harness.

Instances come in three flavours: quasi-measures induced from an exact
atom-weight measure on an arbitrary coat, the same on partition-generated
algebra coats (which satisfy every axiom by construction), and adversarial
variants obtained by perturbing induced values away from the truth while
keeping the endpoints fixed.  Everything is deterministic in the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .extension import extend, verify_premeasure
from .quasi import ONE, ZERO, QuasiMeasure, check_axioms
from .sets import AlgebraFamily, Coat, GroundSet, SubsetMask, refine

DEFAULT_DENOMINATOR_BOUND = 64


@dataclass(frozen=True)
class TrueMeasure:
    """Exact nonnegative atom weights summing to one; the ground truth."""

    ground: GroundSet
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.ground.n:
            raise ValueError("one weight per ground element required")
        if any(w < ZERO for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if sum(self.weights) != ONE:
            raise ValueError("weights must sum exactly to 1")

    @classmethod
    def uniform(cls, ground: GroundSet) -> "TrueMeasure":
        return cls(ground, tuple(Fraction(1, ground.n) for _ in range(ground.n)))

    @classmethod
    def from_weights(cls, ground: GroundSet, *weights: Fraction | int | str) -> "TrueMeasure":
        return cls(ground, tuple(Fraction(w) for w in weights))

    def mass_bits(self, bits: int) -> Fraction:
        return self._masses((bits,))[0]

    def mass(self, mask: SubsetMask) -> Fraction:
        return self.mass_bits(mask.bits)

    def _masses(self, bits_list: Iterable[int]) -> list[Fraction]:
        """The mass of each bit set: int weights over the lcm of their denominators."""
        scale = math.lcm(*(w.denominator for w in self.weights))
        ints = [w.numerator * (scale // w.denominator) for w in self.weights]
        masses = []
        for bits in bits_list:
            total = 0
            while bits:  # add the weight of the lowest element, then drop it
                low = bits & -bits
                total += ints[low.bit_length() - 1]
                bits ^= low
            masses.append(Fraction(total, scale))
        return masses


def induce(tm: TrueMeasure, c: Coat) -> QuasiMeasure:
    """Restrict the measure to the coat's refinement: exact atom-weight sums."""
    if tm.ground != c.ground:
        raise ValueError("measure and coat live on different ground sets")
    refinement = refine(c)
    masses = tm._masses(m.bits for m in refinement.members)
    return QuasiMeasure(c, refinement, dict(zip(refinement.members, masses)))


def _random_weights(rng: random.Random, n: int, denominator_bound: int) -> tuple[Fraction, ...]:
    d = rng.randint(1, denominator_bound)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    edges = [0, *cuts, d]
    return tuple(Fraction(edges[i + 1] - edges[i], d) for i in range(n))


def _ordered_coat(ground: GroundSet, bits: set[int]) -> Coat:
    rest = sorted(b for b in bits if b not in (0, ground.full_bits))
    return Coat.from_bits(ground, [0, ground.full_bits, *rest])


def random_instance(
    seed: int,
    n: int = 4,
    coat_size: int = 4,
    weight_denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
) -> tuple[TrueMeasure, Coat, QuasiMeasure]:
    """Deterministic pseudo-random ground set, weights, coat, and induced values.

    The coat always contains the empty and full sets; with n = 1 nothing
    else exists, so the coat degenerates to exactly those two.
    """
    rng = random.Random(seed)
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    tm = TrueMeasure(ground, _random_weights(rng, n, weight_denominator_bound))
    size = min(coat_size, 1 << n)
    bits = {0, ground.full_bits}
    while len(bits) < size:
        bits.add(rng.randrange(1 << n))
    coat = _ordered_coat(ground, bits)
    return tm, coat, induce(tm, coat)


def random_algebra_instance(
    seed: int,
    n: int = 4,
    max_blocks: int = 3,
    weight_denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
) -> tuple[TrueMeasure, Coat, QuasiMeasure]:
    """An induced instance whose coat is the algebra of a random partition.

    Such coats are closed under complement, union, and intersection, so the
    induced quasi-measure passes every axiom in the restricted variant;
    these are the guaranteed-positive instances.
    """
    rng = random.Random(seed)
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    tm = TrueMeasure(ground, _random_weights(rng, n, weight_denominator_bound))
    k = rng.randint(1, min(max_blocks, n))
    order = list(range(n))
    rng.shuffle(order)
    blocks = [0] * k
    for position, element in enumerate(order):
        blocks[position % k] |= 1 << element
    coat = _ordered_coat(ground, set(AlgebraFamily(ground, tuple(sorted(blocks))).bits))
    return tm, coat, induce(tm, coat)


def perturb(qm: QuasiMeasure, seed: int, max_changes: int = 2,
            denominator_bound: int = DEFAULT_DENOMINATOR_BOUND) -> QuasiMeasure:
    """Overwrite a few non-endpoint values at random; endpoints stay fixed."""
    rng = random.Random(seed)
    candidates = [m for m in qm.refinement.members if not m.is_empty() and not m.is_full()]
    if not candidates:
        return qm
    values = dict(qm.values)
    for _ in range(rng.randint(1, max_changes)):
        member = rng.choice(candidates)
        d = rng.randint(1, denominator_bound)
        values[member] = Fraction(rng.randint(0, d), d)
    return QuasiMeasure(qm.coat, qm.refinement, values)


def power_set_coat(ground: GroundSet) -> Coat:
    return _ordered_coat(ground, set(range(1 << ground.n)))


def canonical_negative_instance() -> tuple[TrueMeasure, Coat, QuasiMeasure]:
    """Uniform weights on {1,2,3,4} with coat {empty, omega, {1,2}, {2,3}}.

    The standard failing instance: the meet {2} gets value 1/4 but no coat
    superset carries 1/4, the extension is not additive at {1} + {2}, and
    both {1,2} and {2,3} fail the splitting-measurability test.
    """
    ground = GroundSet(("1", "2", "3", "4"))
    tm = TrueMeasure.uniform(ground)
    coat = Coat(ground, (
        ground.empty(), ground.full(), ground.subset(["1", "2"]), ground.subset(["2", "3"]),
    ))
    return tm, coat, induce(tm, coat)


def instance_for_seed(
    seed: int,
    n_max: int = 5,
    coat_max: int = 8,
    weight_denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
) -> QuasiMeasure:
    """The seed-indexed instance corpus used by the search harness.

    Seeds cycle through three styles: partition-algebra coats (style 0,
    always axiom-passing), plain random coats (style 1), and perturbed
    random coats (style 2, usually axiom-failing).
    """
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    style = seed % 3
    if style == 0:
        return random_algebra_instance(seed, n=n,
                                       weight_denominator_bound=weight_denominator_bound)[2]
    coat_size = rng.randint(3, coat_max)
    qm = random_instance(seed, n=n, coat_size=coat_size,
                         weight_denominator_bound=weight_denominator_bound)[2]
    if style == 2:
        qm = perturb(qm, seed + 104729)
    return qm


@dataclass
class SearchSummary:
    """Partition counts from one search run over a seed range."""

    total: int = 0
    axiom_pass: int = 0
    axiom_fail: int = 0
    premeasure_verified: int = 0
    additivity_failed_on_failing: int = 0
    counterexample_seeds: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.counterexample_seeds


def search_instances(
    seeds: Iterable[int],
    variant: str = "restricted",
    cover_mode: str = "all",
) -> SearchSummary:
    """Partition seed-indexed instances by axiom outcome and verify extensions.

    Every axiom-passing instance must extend to an exactly additive table;
    a failure there is a counterexample and lands in the summary (callers
    treat any occurrence as fatal).  For axiom-failing instances the
    harness records whether additivity also broke, without asserting it.
    """
    summary = SearchSummary()
    for seed in seeds:
        qm = instance_for_seed(seed)
        summary.total += 1
        report = check_axioms(qm, variant=variant, cover_mode=cover_mode)
        table = extend(qm)
        verification = verify_premeasure(table)
        if report.passed:
            summary.axiom_pass += 1
            if verification.passed:
                summary.premeasure_verified += 1
            else:
                summary.counterexample_seeds.append(seed)
        else:
            summary.axiom_fail += 1
            if not verification.passed:
                summary.additivity_failed_on_failing += 1
    return summary
