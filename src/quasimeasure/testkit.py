"""Instance generation, ground-truth oracles, and the extension search harness.

Instances come in three flavours: quasi-measures induced from an exact
atom-weight measure on an arbitrary coat, the same on partition-generated
algebra coats, and adversarial variants obtained by perturbing induced
values away from the truth while keeping the endpoints fixed.  Everything
is deterministic in the seed.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .extension import MeasureTable, extend, verify_premeasure
from .quasi import QuasiMeasure, check_axioms
from .sets import AlgebraFamily, Coat, GroundSet, SubsetMask, refine, subset_table

DEFAULT_DENOMINATOR_BOUND = 64


@dataclass(frozen=True)
class TrueMeasure:
    """Exact nonnegative int or ``Fraction`` atom weights summing to one; the ground truth."""

    ground: GroundSet
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.ground.n:
            raise ValueError("one weight per ground element required")
        for label, w in zip(self.ground.elements, self.weights):
            if not isinstance(w, (int, Fraction)):
                raise ValueError(f"weight of {label} is not an int or a Fraction: {w!r}")
        scale = math.lcm(*(w.denominator for w in self.weights))
        ints = tuple(w.numerator * (scale // w.denominator) for w in self.weights)
        if any(w < 0 for w in ints):
            raise ValueError("weights must be nonnegative")
        if sum(ints) != scale:
            raise ValueError("weights must sum exactly to 1")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_ints", ints)

    @classmethod
    def uniform(cls, ground: GroundSet) -> "TrueMeasure":
        return cls(ground, tuple(Fraction(1, ground.n) for _ in range(ground.n)))

    def mass(self, mask: SubsetMask) -> Fraction:
        if mask.ground != self.ground:
            raise ValueError("mask belongs to a different ground set")
        bits = mask.bits
        return Fraction(sum(w for i, w in enumerate(self._ints) if bits >> i & 1), self._scale)

    def _mass_numerators(self, bits_list: Iterable[int]) -> tuple[int, list[int]]:
        """The lcm of the weight denominators, and the mass of each bit set times it.

        One table of weight sums per byte of the mask (``MAX_GROUND_SIZE`` is
        24, so three) makes each mass three lookups."""
        low, mid, high = (subset_table(self._ints[i:i + 8], operator.add) for i in (0, 8, 16))
        return self._scale, [low[b & 255] + mid[b >> 8 & 255] + high[b >> 16] for b in bits_list]


def induce(tm: TrueMeasure, c: Coat) -> QuasiMeasure:
    """Restrict the measure to the coat's refinement: exact atom-weight sums."""
    if tm.ground != c.ground:
        raise ValueError("measure and coat live on different ground sets")
    refinement = refine(c)
    scale, masses = tm._mass_numerators(refinement.bits)
    return QuasiMeasure.from_numerators(refinement, scale, dict(zip(refinement.bits, masses)))


def _random_weights(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    d = rng.randint(1, DEFAULT_DENOMINATOR_BOUND)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    edges = [0, *cuts, d]
    return tuple(Fraction(edges[i + 1] - edges[i], d) for i in range(n))


def _ordered_coat(ground: GroundSet, bits: set[int]) -> Coat:
    rest = sorted(b for b in bits if b not in (0, ground.full_bits))
    return Coat.from_bits(ground, [0, ground.full_bits, *rest])


def random_instance(seed: int, n: int = 4, coat_size: int = 4) -> tuple[TrueMeasure, Coat, QuasiMeasure]:
    """Deterministic pseudo-random ground set, weights, coat, and induced values.

    The coat always contains the empty and full sets; with n = 1 nothing
    else exists, so the coat degenerates to exactly those two.
    """
    rng = random.Random(seed)
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    tm = TrueMeasure(ground, _random_weights(rng, n))
    size = min(coat_size, 1 << n)
    bits = {0, ground.full_bits}
    while len(bits) < size:
        bits.add(rng.randrange(1 << n))
    coat = _ordered_coat(ground, bits)
    return tm, coat, induce(tm, coat)


def random_algebra_instance(
    seed: int, n: int = 4, max_blocks: int = 3
) -> tuple[TrueMeasure, Coat, QuasiMeasure]:
    """An induced instance whose coat is the algebra of a random partition.

    Such coats are closed under complement, union, and intersection, so the
    induced quasi-measure passes every axiom in the restricted variant;
    these are the guaranteed-positive instances.
    """
    rng = random.Random(seed)
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    tm = TrueMeasure(ground, _random_weights(rng, n))
    k = rng.randint(1, min(max_blocks, n))
    order = list(range(n))
    rng.shuffle(order)
    blocks = [0] * k
    for position, element in enumerate(order):
        blocks[position % k] |= 1 << element
    coat = _ordered_coat(ground, set(AlgebraFamily(ground, tuple(sorted(blocks))).bits))
    return tm, coat, induce(tm, coat)


def perturb(qm: QuasiMeasure, seed: int, max_changes: int = 2) -> QuasiMeasure:
    """Overwrite a few non-endpoint values at random; endpoints stay fixed.

    Each new value ``p / d`` rescales the numerators to ``lcm(scale, d)``."""
    rng = random.Random(seed)
    candidates = [b for b in qm.refinement.bits if b not in (0, qm.ground.full_bits)]
    if not candidates:
        return qm
    scale, numerators = qm.scale, qm.numerators
    for _ in range(rng.randint(1, max_changes)):
        bits = rng.choice(candidates)
        d = rng.randint(1, DEFAULT_DENOMINATOR_BOUND)
        lcm = math.lcm(scale, d)
        numerators = {b: v * (lcm // scale) for b, v in numerators.items()}
        numerators[bits] = rng.randint(0, d) * (lcm // d)
        scale = lcm
    return QuasiMeasure.from_numerators(qm.refinement, scale, numerators)


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


def instance_for_seed(seed: int, n_max: int = 5, coat_max: int = 8) -> QuasiMeasure:
    """The seed-indexed instance corpus used by the search harness.

    Seeds cycle through three styles: partition-algebra coats (style 0,
    always axiom-passing), plain random coats (style 1), and perturbed
    random coats (style 2, usually axiom-failing).
    """
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    style = seed % 3
    if style == 0:
        return random_algebra_instance(seed, n=n)[2]
    coat_size = rng.randint(3, coat_max)
    qm = random_instance(seed, n=n, coat_size=coat_size)[2]
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

    Every axiom-passing instance must extend to an exactly additive table
    equal to the quasi-measure on every refinement member; a failure is a
    counterexample and lands in the summary (callers treat any occurrence
    as fatal).  For axiom-failing instances the harness records whether
    additivity also broke, without asserting it.
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
            if verification.passed and _agrees(table, qm):
                summary.premeasure_verified += 1
            else:
                summary.counterexample_seeds.append(seed)
        else:
            summary.axiom_fail += 1
            if not verification.passed:
                summary.additivity_failed_on_failing += 1
    return summary


def _agrees(table: MeasureTable, qm: QuasiMeasure) -> bool:
    """Whether the table equals the quasi-measure on every refinement member (each is an algebra member)."""
    index = table.algebra.index
    return all(table.numerators[index(b)] * qm.scale == v * table.scale for b, v in qm.numerators.items())
