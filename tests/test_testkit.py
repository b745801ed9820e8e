import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import power_set_coat
from quasimeasure import (
    GroundSet,
    QuasiMeasure,
    TrueMeasure,
    extend,
    induce,
    outer,
    perturb,
    random_algebra_instance,
    random_instance,
    search_instances,
)
from quasimeasure.testkit import DEFAULT_DENOMINATOR_BOUND, instance_for_seed


class TestTrueMeasure:
    def test_weights_must_sum_to_one(self, ground3):
        with pytest.raises(ValueError, match="sum"):
            TrueMeasure(ground3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)))

    def test_one_weight_per_element(self, ground3):
        with pytest.raises(ValueError, match="^one weight per ground element required$"):
            TrueMeasure(ground3, (Fraction(1, 2), Fraction(1, 2)))

    def test_weights_must_be_nonnegative(self, ground3):
        with pytest.raises(ValueError, match="nonnegative"):
            TrueMeasure(ground3, (Fraction(3, 2), Fraction(-1, 4), Fraction(-1, 4)))

    def test_weights_must_be_ints_or_fractions(self):
        # Accepted before; induce and mass then failed with an AttributeError on the float.
        ground = GroundSet(("1", "2"))
        with pytest.raises(ValueError, match=re.escape("weight of 1 is not an int or a Fraction: 0.5")):
            TrueMeasure(ground, (0.5, 0.5))
        with pytest.raises(ValueError, match=re.escape("weight of 2 is not an int or a Fraction: 0.0")):
            TrueMeasure(ground, (1, 0.0))
        tm = TrueMeasure(ground, (0, 1))
        assert tm.mass(ground.full()) == 1 and tm.mass(ground.subset(["1"])) == 0

    def test_mass_sums_atoms(self, ground4):
        tm = TrueMeasure.uniform(ground4)
        assert tm.mass(ground4.subset(["1", "3"])) == Fraction(1, 2)
        assert tm.mass(ground4.empty()) == 0
        assert tm.mass(ground4.full()) == 1

    def test_mass_of_a_set_over_another_ground_set_is_refused(self):
        tm = TrueMeasure.uniform(GroundSet(("a", "b")))
        with pytest.raises(ValueError, match="different ground set"):
            tm.mass(GroundSet(("a", "b", "c")).full())
        with pytest.raises(ValueError, match="different ground set"):
            tm.mass(GroundSet(("b", "a")).subset(["a"]))
        assert tm.mass(GroundSet(("a", "b")).subset(["a"])) == Fraction(1, 2)

    def test_mass_sums_the_weights_at_byte_edges(self):
        # Bits 0, 7, 8, 15, 16 and 23 open and close each byte of a 24-element mask.
        ground = GroundSet(tuple(str(i + 1) for i in range(24)))
        weights = tuple(Fraction(i + 1, 300) for i in range(24))
        tm = TrueMeasure(ground, weights)
        edges = (0, 7, 8, 15, 16, 23)
        for chosen in range(1 << len(edges)):
            bits = [b for n, b in enumerate(edges) if chosen >> n & 1]
            mask = ground.mask(sum(1 << b for b in bits))
            assert tm.mass(mask) == sum((weights[b] for b in bits), Fraction(0)), bits


class TestInduce:
    def test_canonical_values(self, negative_instance):
        _, _, qm = negative_instance
        ground = qm.ground
        assert qm.value(ground.subset(["2"])) == Fraction(1, 4)
        assert qm.value(ground.subset(["3", "4"])) == Fraction(1, 2)
        assert qm.value(ground.subset(["1", "2"])) == Fraction(1, 2)
        assert qm.value(ground.empty()) == 0
        assert qm.value(ground.full()) == 1

    def test_values_match_mass_on_every_member(self):
        for seed in range(30):
            tm, coat, qm = random_instance(seed, n=5, coat_size=7)
            for member in qm.refinement.members:
                assert qm.value(member) == tm.mass(member)

    def test_ground_mismatch_rejected(self, ground3, ground4):
        tm = TrueMeasure.uniform(ground3)
        with pytest.raises(ValueError, match="ground"):
            induce(tm, power_set_coat(ground4))


class TestRandomInstance:
    def test_same_seed_same_instance(self):
        a_tm, a_coat, a_qm = random_instance(42, n=4, coat_size=6)
        b_tm, b_coat, b_qm = random_instance(42, n=4, coat_size=6)
        assert a_tm == b_tm
        assert a_coat.member_bits() == b_coat.member_bits()
        assert a_qm.values == b_qm.values

    def test_single_atom_degenerates(self):
        tm, coat, qm = random_instance(7, n=1, coat_size=5)
        assert coat.member_bits() == (0, 1)
        assert tm.weights == (Fraction(1),)

    def test_structural_validity_over_many_seeds(self):
        # Constructors validate everything; surviving construction is the test.
        for seed in range(1000):
            _, coat, qm = random_instance(seed, n=2 + seed % 4, coat_size=2 + seed % 7)
            assert set(qm.values) == set(qm.refinement.members)

    def test_algebra_instances_have_closed_coats(self):
        for seed in range(40):
            _, coat, _ = random_algebra_instance(seed, n=5)
            bits = set(coat.member_bits())
            assert {b ^ coat.ground.full_bits for b in bits} == bits
            for a in bits:
                for b in bits:
                    assert a & b in bits and a | b in bits

    def test_perturb_changes_something_eventually(self):
        changed = 0
        for seed in range(20):
            _, _, qm = random_instance(seed, n=4, coat_size=6)
            if perturb(qm, seed + 99).values != qm.values:
                changed += 1
        assert changed > 10


class TestGroundTruthRecovery:
    def test_power_set_extension_reproduces_measure(self):
        for seed in range(25):
            n = 2 + seed % 3
            ground = GroundSet(tuple(str(i + 1) for i in range(n)))
            tm = random_instance(seed, n=n)[0]
            qm = induce(tm, power_set_coat(ground))
            table = extend(qm)
            for member in table.algebra:
                assert table.value(member) == tm.mass(member)

    def test_exterior_dominates_measure(self):
        for seed in range(15):
            tm, _, qm = random_instance(seed, n=4, coat_size=5)
            for bits in range(1 << 4):
                assert outer(qm, qm.ground.mask(bits))[0] >= tm.mass(qm.ground.mask(bits))


class TestSearch:
    def test_deterministic_summary(self):
        a = search_instances(range(0, 60))
        b = search_instances(range(0, 60))
        assert (a.total, a.axiom_pass, a.axiom_fail, a.premeasure_verified) == (
            b.total, b.axiom_pass, b.axiom_fail, b.premeasure_verified
        )

    def test_partitions_cover_the_range(self):
        summary = search_instances(range(0, 90))
        assert summary.total == 90
        assert summary.axiom_pass + summary.axiom_fail == 90
        assert summary.axiom_pass > 0 and summary.axiom_fail > 0

    def test_no_extension_counterexamples(self):
        summary = search_instances(range(0, 150))
        assert summary.clean
        assert summary.premeasure_verified == summary.axiom_pass

    def test_failing_instances_usually_break_additivity(self):
        summary = search_instances(range(0, 90))
        assert summary.additivity_failed_on_failing > 0

    def test_corpus_styles(self):
        # Style 0 must land in the passing partition; style 2 exists to
        # exercise failures.
        from quasimeasure import check_axioms

        for seed in (0, 3, 6, 9):
            assert check_axioms(instance_for_seed(seed), variant="restricted").passed


def fraction_sum_mass(tm, bits):
    """Oracle: the atom-weight sum as ``TrueMeasure.mass`` made it, one ``Fraction`` add at a time."""
    total = Fraction(0)
    for i, w in enumerate(tm.weights):
        if bits >> i & 1:
            total += w
    return total


def large_denominator_measure(seed, n, bits=3000):
    """Weights with distinct ``bits``-bit denominators, each below 1/n, and the rest on the last atom."""
    rng = random.Random(seed)
    weights = []
    for _ in range(n - 1):
        d = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        weights.append(Fraction(rng.randrange(d), d * n))
    return TrueMeasure(GroundSet(tuple(str(i + 1) for i in range(n))), (*weights, Fraction(1) - sum(weights)))


@settings(max_examples=100)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(2, 12), st.booleans())
def test_induce_equals_fraction_sums(seed, n, coat_size, large):
    tm, coat, qm = random_instance(seed, n=n, coat_size=coat_size)
    if large:
        tm = large_denominator_measure(seed, n, bits=400)
        qm = induce(tm, coat)
    for member in qm.refinement.members:
        want = fraction_sum_mass(tm, member.bits)
        assert qm.value(member) == want and tm.mass(member) == want


def test_induce_equals_fraction_sums_at_3000_bits():
    tm = large_denominator_measure(0, 6)
    _, coat, _ = random_instance(0, n=6, coat_size=10)
    qm = induce(tm, coat)
    assert qm.scale.bit_length() > 10_000
    for member in qm.refinement.members:
        assert qm.value(member) == fraction_sum_mass(tm, member.bits)


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from((7, 8, 9, 16, 17, 24)), st.integers(2, 12))
def test_induce_masses_are_weight_sums_at_the_byte_table_edges(seed, n, coat_size):
    # Masses are three lookups, one per byte of the mask: n = 8, 16 and 24
    # fill a byte's table, and n = 9 and 17 put one element in the next.
    tm, _, qm = random_instance(seed, n=n, coat_size=coat_size)
    for bits in qm.refinement.bits:
        want = fraction_sum_mass(tm, bits)
        assert Fraction(qm.numerators[bits], qm.scale) == want
    top = qm.ground.mask(1 << (n - 1) | 1)
    assert tm.mass(top) == fraction_sum_mass(tm, top.bits)


def reference_perturb(qm, seed, max_changes=2):
    """Oracle: ``perturb`` on member masks and ``Fraction`` values, through the dict constructor."""
    rng = random.Random(seed)
    candidates = [m for m in qm.refinement.members if not m.is_empty() and not m.is_full()]
    if not candidates:
        return qm
    values = dict(qm.values)
    for _ in range(rng.randint(1, max_changes)):
        member = rng.choice(candidates)
        d = rng.randint(1, DEFAULT_DENOMINATOR_BOUND)
        values[member] = Fraction(rng.randint(0, d), d)
    return QuasiMeasure(qm.refinement, values)


@settings(max_examples=200)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(2, 12), st.booleans(), st.integers(1, 6))
def test_perturb_matches_the_fraction_reference(seed, n, coat_size, algebra, max_changes):
    # Numerators rescaled per change and reduced once give the instance the
    # Fraction values gave: same scale, and numerators and values in the same order.
    if algebra:
        qm = random_algebra_instance(seed, n=n, max_blocks=4)[2]
    else:
        qm = random_instance(seed, n=n, coat_size=coat_size)[2]
    got = perturb(qm, seed + 1, max_changes)
    want = reference_perturb(qm, seed + 1, max_changes)
    assert got.scale == want.scale
    assert list(got.numerators.items()) == list(want.numerators.items())
    assert list(got.values.items()) == list(want.values.items())
    assert (got is qm) == (want is qm) == (len(qm.refinement) == 2)
