from fractions import Fraction

import pytest

from quasimeasure import (
    GroundSet,
    TrueMeasure,
    extend,
    induce,
    outer,
    perturb,
    power_set_coat,
    random_algebra_instance,
    random_instance,
    search_instances,
)
from quasimeasure.testkit import instance_for_seed


class TestTrueMeasure:
    def test_weights_must_sum_to_one(self, ground3):
        with pytest.raises(ValueError, match="sum"):
            TrueMeasure.from_weights(ground3, "1/2", "1/4", "1/8")

    def test_weights_must_be_nonnegative(self, ground3):
        with pytest.raises(ValueError, match="nonnegative"):
            TrueMeasure.from_weights(ground3, "3/2", "-1/4", "-1/4")

    def test_mass_sums_atoms(self, ground4):
        tm = TrueMeasure.uniform(ground4)
        assert tm.mass(ground4.subset(["1", "3"])) == Fraction(1, 2)
        assert tm.mass(ground4.empty()) == 0
        assert tm.mass(ground4.full()) == 1


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
                assert outer(qm, qm.ground.mask(bits))[0] >= tm.mass_bits(bits)


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
