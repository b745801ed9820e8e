from fractions import Fraction

import pytest

from quasimeasure import (
    Coat,
    OuterMeasureCache,
    TrueMeasure,
    check_outer_properties,
    induce,
    outer,
    outer_exhaustive,
    perturb,
    random_instance,
)
from quasimeasure.cover import CoverSolver
from quasimeasure.quasi import cover_bound_violations


class TestOuter:
    def test_empty_target_costs_nothing(self, negative_instance):
        _, _, qm = negative_instance
        value, solution = outer(qm, qm.ground.empty())
        assert value == 0
        assert solution.chosen == ()

    def test_full_target_costs_one_for_induced(self, negative_instance):
        _, _, qm = negative_instance
        value, _ = outer(qm, qm.ground.full())
        assert value == 1

    def test_singleton_inside_overlap(self, negative_instance):
        # {2} is covered by either two-element coat member at cost 1/2;
        # the earlier index wins the tie.
        _, coat, qm = negative_instance
        value, solution = outer(qm, qm.ground.subset(["2"]))
        assert value == Fraction(1, 2)
        assert solution.chosen == (2,)
        assert coat.members[2] == qm.ground.subset(["1", "2"])

    def test_witness_verifies(self, negative_instance):
        _, _, qm = negative_instance
        for bits in range(1 << 4):
            target = qm.ground.mask(bits)
            _, solution = outer(qm, target)
            assert solution.verify(qm, target)

    def test_coat_member_cost_bounded_by_assignment(self):
        # A member always covers itself, so its exterior value cannot
        # exceed its assigned value.
        for seed in range(20):
            _, coat, qm = random_instance(seed, n=4, coat_size=6)
            for member in coat.members:
                value, _ = outer(qm, member)
                assert value <= qm.value(member)


class TestOuterExhaustive:
    def test_agrees_with_optimizer_everywhere(self):
        # Cost equality is the contract; the shared tie-break makes the
        # witnesses line up as well, which this pins down.
        for seed in range(25):
            _, _, qm = random_instance(seed, n=5, coat_size=8)
            cache = OuterMeasureCache()
            for bits in range(1 << 5):
                target = qm.ground.mask(bits)
                fast, fast_sol = outer(qm, target, cache)
                slow, slow_sol = outer_exhaustive(qm, target)
                assert fast == slow
                assert fast_sol.chosen == slow_sol.chosen

    def test_empty_target(self, negative_instance):
        _, _, qm = negative_instance
        value, solution = outer_exhaustive(qm, qm.ground.empty())
        assert value == 0 and solution.chosen == ()

    def test_agreement_at_twelve_member_coats(self):
        for seed in (1, 4, 9):
            _, _, qm = random_instance(seed, n=5, coat_size=12)
            assert len(qm.coat) == 12
            cache = OuterMeasureCache()
            for bits in range(1 << 5):
                target = qm.ground.mask(bits)
                assert outer(qm, target, cache)[0] == outer_exhaustive(qm, target)[0]

    def test_coat_member_recovers_value_for_induced(self):
        for seed in range(15):
            _, coat, qm = random_instance(seed, n=4, coat_size=6)
            for member in coat.members:
                value, _ = outer_exhaustive(qm, member)
                assert value == qm.value(member)

    def test_rejects_oversized_coat(self):
        _, _, qm = random_instance(3, n=5, coat_size=24)
        if len(qm.coat) > 20:
            with pytest.raises(ValueError, match="enumeration"):
                outer_exhaustive(qm, qm.ground.empty())


class TestCoverSolver:
    def test_float_weights_on_int_masks(self):
        # Members {0,1} 0.5, {1,2} 0.25, {2} 0.5, {0,1,2} 1.0 (weights of any ordered type)
        solver = CoverSolver([(0, 0b011, 0.5), (1, 0b110, 0.25), (2, 0b100, 0.5), (3, 0b111, 1.0)], 0.0)
        assert solver.solve(0) == (0.0, ())
        assert solver.solve(0b111) == (0.75, (0, 1))
        assert solver.solve(0b100) == (0.25, (1,))
        assert not solver.feasible(0b1000)
        with pytest.raises(ValueError, match="not coverable"):
            solver.solve(0b1000)


class TestCache:
    def test_cache_hits_reverify_against_fresh_solves(self, negative_instance):
        # The second pass over the 16 masks is served from the cache.
        _, _, qm = negative_instance
        cache = OuterMeasureCache()
        for _ in range(2):
            for bits in range(1 << 4):
                mask = qm.ground.mask(bits)
                value, solution = outer(qm, mask, cache)
                assert (value, solution) == outer(qm, mask)
                assert solution.verify(qm, mask)

    def test_cache_bound_to_one_instance(self, negative_instance, power_set_instance):
        _, _, qm1 = negative_instance
        _, _, qm2 = power_set_instance
        cache = OuterMeasureCache()
        outer(qm1, qm1.ground.empty(), cache)
        with pytest.raises(ValueError, match="bound"):
            outer(qm2, qm2.ground.empty(), cache)

    def test_cache_refuses_another_instance_on_the_same_ground(self, negative_instance):
        # Same ground and coat, different values: {1,2} costs 1/2 under qm1
        # and 1 under qm2, so a cache that answered for qm2 would be wrong.
        _, coat, qm1 = negative_instance
        qm2 = induce(TrueMeasure.from_weights(coat.ground, "1/2", "1/2", 0, 0), coat)
        target = coat.ground.subset(["1", "2"])
        cache = OuterMeasureCache()
        assert outer(qm1, target, cache)[0] == Fraction(1, 2)
        assert outer(qm2, target)[0] == 1
        with pytest.raises(ValueError, match="bound"):
            outer(qm2, target, cache)


class TestOptimizerMonotonicity:
    def test_adding_a_member_never_raises_costs(self):
        for seed in range(12):
            tm, coat, qm = random_instance(seed, n=4, coat_size=4)
            ground = qm.ground
            extra_bits = next(
                (b for b in range(1, 1 << 4) if b not in set(coat.member_bits())), None
            )
            if extra_bits is None:
                continue
            bigger_coat = Coat(ground, coat.members + (ground.mask(extra_bits),))
            bigger = induce(tm, bigger_coat)
            for bits in range(1 << 4):
                small_cost, _ = outer(qm, ground.mask(bits))
                big_cost, _ = outer(bigger, ground.mask(bits))
                assert big_cost <= small_cost

    def test_true_measure_is_a_lower_bound(self):
        for seed in range(12):
            tm, _, qm = random_instance(seed, n=4, coat_size=6)
            for bits in range(1 << 4):
                value, _ = outer(qm, qm.ground.mask(bits))
                assert tm.mass_bits(bits) <= value


class TestOuterProperties:
    def test_power_set_instance_passes_exhaustively(self, power_set_instance):
        _, _, qm = power_set_instance
        report = check_outer_properties(qm)
        assert report.passed
        assert any("exhaustive" in note for note in report.notes)

    def test_negative_instance_still_passes(self, negative_instance):
        # The envelope axioms fail upstream, but the exterior value keeps
        # its structural properties and still agrees on the coat.
        _, _, qm = negative_instance
        report = check_outer_properties(qm)
        assert report.passed
        assert any("precondition" in note and "pass" in note for note in report.notes)
        assert report.result("coat-agreement").details

    def test_induced_instances_pass(self):
        for seed in range(10):
            _, _, qm = random_instance(seed, n=4, coat_size=6)
            assert check_outer_properties(qm).passed

    def test_sampling_mode_engages_beyond_budget(self):
        _, _, qm = random_instance(2, n=6, coat_size=6)
        report = check_outer_properties(qm, subset_budget=16, seed=5)
        assert report.passed
        assert any("sampled" in note and "seed=5" in note for note in report.notes)

    def test_coats_beyond_the_enumeration_limit_are_checked(self):
        # 2**24 subcollections are past the cover-bound enumeration limit;
        # the precondition note comes from the coat-agreement values instead.
        _, _, qm = random_instance(5, n=5, coat_size=24)
        assert len(qm.coat) == 24
        report = check_outer_properties(qm)
        assert report.passed
        assert "coat-agreement precondition (cover bound): pass" in report.notes

    def test_precondition_note_agrees_with_cover_bound_enumeration(self):
        outcomes = set()
        for seed in range(80):
            _, _, qm = random_instance(seed, n=1 + seed % 5, coat_size=3 + seed % 6)
            mutated = perturb(qm, seed + 300, max_changes=1 + seed % 4)
            holds = cover_bound_violations(mutated) == []
            note = f"coat-agreement precondition (cover bound): {'pass' if holds else 'fail'}"
            assert note in check_outer_properties(mutated).notes
            outcomes.add(holds)
        assert outcomes == {True, False}

    def test_adversarial_instance_can_break_endpoints(self):
        # Hunt a perturbed instance whose cheapest full cover undercuts 1;
        # the endpoint check must then fail and the witness re-evaluate.
        found = False
        for seed in range(60):
            _, _, qm = random_instance(seed, n=3, coat_size=6)
            mutated = perturb(qm, seed + 500, max_changes=4)
            value, _ = outer(mutated, mutated.ground.full())
            if value < 1:
                report = check_outer_properties(mutated)
                endpoint = report.result("endpoints")
                assert not endpoint.passed
                assert endpoint.witnesses[0].lhs == value
                found = True
                break
        assert found
