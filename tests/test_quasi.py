import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasimeasure import (
    GroundSet,
    OuterMeasureCache,
    QuasiMeasure,
    check_alt_conditions,
    check_axioms,
    check_coat_monotonicity,
    outer,
    outer_exhaustive,
    perturb,
    random_algebra_instance,
    random_instance,
)
from quasimeasure.quasi import ALT_CHECKS, AXIOM_CHECKS, ONE, ZERO, cover_bound_violations
from quasimeasure.report import ReportBuilder, Witness
from quasimeasure.testkit import instance_for_seed


class TestQuasiMeasureValidation:
    def test_domain_must_match_refinement(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values.pop(next(m for m in values if m.size == 1))
        with pytest.raises(ValueError, match="missing"):
            QuasiMeasure(coat, qm.refinement, values)

    def test_values_clamped_to_unit_interval(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        member = next(m for m in values if m.size == 1)
        values[member] = Fraction(5, 4)
        with pytest.raises(ValueError, match=re.escape(f"value of {member} outside [0,1]: 5/4")):
            QuasiMeasure(coat, qm.refinement, values)

    def test_endpoints_enforced(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.full()] = Fraction(1, 2)
        with pytest.raises(ValueError, match="omega"):
            QuasiMeasure(coat, qm.refinement, values)

    def test_extra_member_rejected(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.subset(["1", "3"])] = Fraction(1, 2)
        with pytest.raises(ValueError, match=re.escape("missing=[] extra=['{1,3}']")):
            QuasiMeasure(coat, qm.refinement, values)
        # Same size as the refinement: one member swapped for a non-member.
        del values[qm.ground.subset(["2"])]
        with pytest.raises(ValueError, match=re.escape("missing=['{2}'] extra=['{1,3}']")):
            QuasiMeasure(coat, qm.refinement, values)

    def test_member_of_another_ground_rejected(self, negative_instance):
        _, coat, qm = negative_instance
        other = GroundSet(("a", "b", "c", "d"))
        values = {(other.mask(m.bits) if m.size == 1 else m): v for m, v in qm.values.items()}
        with pytest.raises(ValueError, match=re.escape(
                "missing=['{1}', '{2}', '{3}'] extra=['{a}', '{b}', '{c}']")):
            QuasiMeasure(coat, qm.refinement, values)

    def test_negative_value_rejected(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.subset(["2"])] = Fraction(-1, 4)
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: -1/4")):
            QuasiMeasure(coat, qm.refinement, values)

    def test_int_values_accepted_in_range_and_rejected_outside(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.empty()], values[qm.ground.full()] = 0, 1
        assert QuasiMeasure(coat, qm.refinement, values).scale == 4
        values[qm.ground.subset(["2"])] = 2
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: 2")):
            QuasiMeasure(coat, qm.refinement, values)
        values[qm.ground.subset(["2"])] = -1
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: -1")):
            QuasiMeasure(coat, qm.refinement, values)

    def test_float_values_rejected(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.subset(["2"])] = 1.5
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: 1.5")):
            QuasiMeasure(coat, qm.refinement, values)
        values[qm.ground.subset(["2"])] = 0.25
        with pytest.raises(AttributeError, match="denominator"):
            QuasiMeasure(coat, qm.refinement, values)
        values[qm.ground.empty()] = 0.5
        with pytest.raises(ValueError, match="value of the empty set must be 0"):
            QuasiMeasure(coat, qm.refinement, values)

    def test_empty_set_value_must_be_zero(self, negative_instance):
        _, coat, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.empty()] = Fraction(1, 4)
        with pytest.raises(ValueError, match="^value of the empty set must be 0$"):
            QuasiMeasure(coat, qm.refinement, values)


class TestCheckAxioms:
    def test_restricted_fails_on_negative_instance(self, negative_instance):
        _, _, qm = negative_instance
        report = check_axioms(qm, variant="restricted")
        assert not report.passed
        assert report.result("endpoints").passed
        assert report.result("splitting").passed
        assert report.result("cover-bound").passed
        meet = report.result("meet-envelope")
        assert not meet.passed
        first = meet.witnesses[0]
        ground = qm.ground
        assert first.set_named("X") == ground.subset(["1", "2"])
        assert first.set_named("Y") == ground.subset(["2", "3"])
        assert first.set_named("meet") == ground.subset(["2"])
        assert first.lhs == Fraction(1, 4)

    def test_failure_witnesses_reevaluate(self, negative_instance):
        _, coat, qm = negative_instance
        report = check_axioms(qm, variant="restricted")
        for witness in report.result("meet-envelope").witnesses:
            target = witness.set_named("meet")
            assert all(
                not target.issubset(w) or qm.value(w) != witness.lhs for w in coat.members
            )

    def test_literal_passes_on_negative_instance(self, negative_instance):
        # Refinement members witness themselves, so the literal variant
        # cannot fail the envelope conditions.
        _, _, qm = negative_instance
        assert check_axioms(qm, variant="literal").passed

    def test_power_set_instance_passes_restricted(self, power_set_instance):
        _, _, qm = power_set_instance
        assert check_axioms(qm, variant="restricted").passed

    def test_trivial_instance_passes(self, trivial_instance):
        _, _, qm = trivial_instance
        assert check_axioms(qm, variant="restricted").passed

    def test_disjoint_only_violations_are_a_subset(self):
        for seed in range(40):
            qm = instance_for_seed(seed, n_max=4, coat_max=6)
            all_mode = {
                (w.sets, w.lhs, w.rhs) for w in cover_bound_violations(qm, "all")
            }
            disjoint_mode = {
                (w.sets, w.lhs, w.rhs) for w in cover_bound_violations(qm, "disjoint-only")
            }
            assert disjoint_mode <= all_mode

    def test_max_cover_size_limits_enumeration(self, negative_instance):
        _, coat, qm = negative_instance
        report = check_axioms(qm, max_cover_size=1)
        assert report.result("cover-bound").passed
        with pytest.raises(ValueError, match="max_cover_size"):
            check_axioms(qm, max_cover_size=len(coat) + 1)

    def test_combination_path_matches_table_path(self, monkeypatch):
        import quasimeasure.quasi as quasi

        _, _, qm = random_instance(17, n=4, coat_size=7)
        mutated = perturb(qm, 99, max_changes=4)
        via_table = cover_bound_violations(mutated, "all", max_cover_size=3)
        # 2**7 = 128 exceeds 100, so the combinations path runs; the 63
        # subcollections of size <= 3 still fit.
        monkeypatch.setattr(quasi, "COVER_ENUMERATION_LIMIT", 100)
        via_combinations = cover_bound_violations(mutated, "all", max_cover_size=3)
        assert set(via_table) == set(via_combinations)
        assert len(via_table) == len(via_combinations)

    def test_oversized_enumeration_refused(self):
        from quasimeasure.sets import BudgetExceeded

        _, _, qm = random_instance(5, n=5, coat_size=24)
        if len(qm.coat) > 20:
            with pytest.raises(BudgetExceeded):
                cover_bound_violations(qm, "all")
            assert cover_bound_violations(qm, "all", max_cover_size=2) == []

    def test_splitting_fails_after_perturbation(self, power_set_instance):
        _, _, qm = power_set_instance
        member = qm.ground.subset(["1"])
        values = dict(qm.values)
        values[member] += Fraction(1, 8)
        broken = QuasiMeasure(qm.coat, qm.refinement, values)
        report = check_axioms(broken, variant="restricted")
        assert not report.result("splitting").passed
        witness = report.result("splitting").witnesses[0]
        x = witness.set_named("X")
        assert witness.lhs == broken.value(x)

    def test_restriction_of_true_measure_passes_literal(self):
        # A measure restricted to any coat's refinement obeys the literal
        # axioms; exercised on full power-set coats.
        for seed in range(8):
            tm, coat, qm = random_instance(seed, n=3, coat_size=8)
            assert check_axioms(qm, variant="literal").passed


class TestAltConditions:
    def test_power_set_instance_passes(self, power_set_instance):
        _, _, qm = power_set_instance
        assert check_alt_conditions(qm).passed

    def test_negative_instance_fails_meet_squeeze(self, negative_instance):
        _, _, qm = negative_instance
        report = check_alt_conditions(qm)
        assert not report.passed
        squeeze = report.result("meet-squeeze")
        assert not squeeze.passed
        meets = {w.set_named("meet") for w in squeeze.witnesses}
        assert qm.ground.subset(["2"]) in meets

    def test_trivial_coat_passes(self, trivial_instance):
        _, _, qm = trivial_instance
        assert check_alt_conditions(qm).passed

    def test_implication_into_restricted_axioms(self):
        # Instances passing the alternative conditions also pass the
        # restricted axioms with full cover enumeration.
        checked = 0
        for seed in range(400):
            qm = instance_for_seed(seed, n_max=5, coat_max=8)
            if not check_alt_conditions(qm).passed:
                continue
            checked += 1
            assert check_axioms(qm, variant="restricted", cover_mode="all").passed, seed
        assert checked >= 60


class TestCoatMonotonicity:
    def test_power_set_instance(self, power_set_instance):
        _, _, qm = power_set_instance
        assert check_coat_monotonicity(qm).passed

    def test_trivial_coat(self, trivial_instance):
        _, _, qm = trivial_instance
        assert check_coat_monotonicity(qm).passed

    def test_adversarial_values_fail_with_witness_pair(self):
        # A nested pair with value({1}) = 3/4 above value({1,2}) = 1/2.
        from quasimeasure import Coat, GroundSet
        from quasimeasure.sets import refine

        ground = GroundSet(("1", "2", "3"))
        coat = Coat(ground, (
            ground.empty(), ground.full(),
            ground.subset(["1"]), ground.subset(["1", "2"]),
        ))
        refinement = refine(coat)
        values = {m: Fraction(0) for m in refinement.members}
        values[ground.full()] = Fraction(1)
        values[ground.subset(["1"])] = Fraction(3, 4)
        values[ground.subset(["1", "2"])] = Fraction(1, 2)
        values[ground.subset(["2"])] = Fraction(1, 4)
        values[ground.subset(["2", "3"])] = Fraction(1, 4)
        values[ground.subset(["3"])] = Fraction(1, 2)
        qm = QuasiMeasure(coat, refinement, values)
        report = check_coat_monotonicity(qm)
        assert not report.passed
        witness = report.result("monotone").witnesses[0]
        assert witness.set_named("X") == ground.subset(["1"])
        assert witness.set_named("S") == ground.subset(["1", "2"])
        assert (witness.lhs, witness.rhs) == (Fraction(3, 4), Fraction(1, 2))


class TestGenerators:
    def test_perturb_preserves_endpoints(self):
        for seed in range(20):
            _, _, qm = random_instance(seed, n=4, coat_size=5)
            mutated = perturb(qm, seed + 1)
            assert mutated.value(qm.ground.empty()) == 0
            assert mutated.value(qm.ground.full()) == 1

    def test_algebra_instances_pass_restricted(self):
        for seed in range(30):
            _, _, qm = random_algebra_instance(seed, n=5)
            assert check_axioms(qm, variant="restricted").passed


# Reference checkers on Fraction values and SubsetMask operations, the form
# the integer checkers replaced.  They pin notes, witnesses and witness order.


def reference_cover_bound_violations(qm, cover_mode="all", max_cover_size=None):
    members = qm.coat.members
    k = len(members)
    if max_cover_size is None:
        max_cover_size = k
    violations = []
    for s in range(1, 1 << k):
        chosen = tuple(members[i] for i in range(k) if s >> i & 1)
        if len(chosen) > max_cover_size:
            continue
        union, cost = qm.ground.empty(), ZERO
        for m in chosen:
            union, cost = union | m, cost + qm.value(m)
        if cover_mode == "disjoint-only" and sum(m.size for m in chosen) != union.size:
            continue
        for x in members:
            if x.issubset(union) and qm.value(x) > cost:
                violations.append(Witness(
                    (("X", x),) + tuple((f"S{n + 1}", m) for n, m in enumerate(chosen)),
                    qm.value(x), cost, "le", note="cover value sum below the covered member"))
    return violations


def reference_pairs(rb, qm):
    ground = qm.ground
    for endpoint, want in ((ground.empty(), ZERO), (ground.full(), ONE)):
        if qm.value(endpoint) != want:
            rb.fail("endpoints", Witness((("set", endpoint),), qm.value(endpoint), want, "eq"))
    pairs = []
    for x in qm.coat.members:
        for y in qm.coat.members:
            meet, diff = x & y, x.difference(y)
            vmeet, vdiff = qm.value(meet), qm.value(diff)
            if qm.value(x) != vmeet + vdiff:
                rb.fail("splitting", Witness(
                    (("X", x), ("Y", y)), qm.value(x), vmeet + vdiff, "eq",
                    note=f"meet {meet} has value {vmeet}, difference {diff} has value {vdiff}"))
            pairs.append((x, y, meet, diff, vmeet, vdiff))
    return pairs


def reference_monotone(rb, qm, outer_role):
    for x in qm.coat.members:
        for y in qm.coat.members:
            if x.issubset(y) and qm.value(x) > qm.value(y):
                rb.fail("monotone", Witness((("X", x), (outer_role, y)), qm.value(x), qm.value(y), "le"))


def reference_envelope_fail(kind, x, y, target, value, pool_name):
    return Witness((("X", x), ("Y", y), (kind, target)), value, None, "exists",
                   note=f"no {pool_name} superset with equal value")


def reference_check_axioms(qm, variant, cover_mode, max_cover_size=None):
    rb = ReportBuilder("axioms")
    rb.declare(*AXIOM_CHECKS)
    rb.note(f"variant={variant}")
    rb.note(f"cover_mode={cover_mode}")
    pool = qm.coat.members if variant == "restricted" else qm.refinement.members
    pool_name = "coat" if variant == "restricted" else "refinement"

    def has_envelope(target, value):
        return any(target.issubset(w) and qm.value(w) == value for w in pool)

    for x, y, meet, diff, vmeet, vdiff in reference_pairs(rb, qm):
        if not has_envelope(meet, vmeet):
            rb.fail("meet-envelope", reference_envelope_fail("meet", x, y, meet, vmeet, pool_name))
        if not has_envelope(diff, vdiff):
            rb.fail("diff-envelope", reference_envelope_fail("difference", x, y, diff, vdiff, pool_name))
    for witness in reference_cover_bound_violations(qm, cover_mode, max_cover_size):
        rb.fail("cover-bound", witness)
    return rb.build()


def reference_check_alt_conditions(qm):
    rb = ReportBuilder("alt-conditions")
    rb.declare(*ALT_CHECKS)
    reference_monotone(rb, qm, "Y")
    members = qm.coat.members
    for x, y, meet, diff, vmeet, vdiff in reference_pairs(rb, qm):
        inner_ok = any(k.issubset(meet) and qm.value(k) == vmeet for k in members)
        outer_ok = any(meet.issubset(w) and qm.value(w) == vmeet for w in members)
        if not (inner_ok and outer_ok):
            rb.fail("meet-squeeze", Witness(
                (("X", x), ("Y", y), ("meet", meet)), vmeet, None, "exists",
                note="no coat pair squeezing the meet with equal values"))
        if not any(diff.issubset(z) and qm.value(z) == vdiff for z in members):
            rb.fail("diff-envelope", reference_envelope_fail("difference", x, y, diff, vdiff, "coat"))
    return rb.build()


def exact_witnesses(witnesses):
    return [(w.render(), repr(w.lhs), repr(w.rhs)) for w in witnesses]


def assert_same_report(got, want):
    assert got.notes == want.notes
    for g, w in zip(got.results, want.results, strict=True):
        assert g.name == w.name
        assert exact_witnesses(g.witnesses) == exact_witnesses(w.witnesses)
    assert got == want


def assert_matches_references(qm, sizes=(None, 2)):
    for variant in ("literal", "restricted"):
        for cover_mode in ("all", "disjoint-only"):
            for size in sizes:
                size = size if size is None else min(size, len(qm.coat))
                assert_same_report(check_axioms(qm, variant, cover_mode, size),
                                   reference_check_axioms(qm, variant, cover_mode, size))
    assert_same_report(check_alt_conditions(qm), reference_check_alt_conditions(qm))
    got, want = cover_bound_violations(qm), reference_cover_bound_violations(qm)
    assert exact_witnesses(got) == exact_witnesses(want) and got == want


@st.composite
def perturbed_instances(draw):
    """Random coats with n <= 5 and k <= 8, some values overwritten at random."""
    _, _, qm = random_instance(draw(st.integers(0, 10**6)), n=draw(st.integers(1, 5)),
                               coat_size=draw(st.integers(2, 8)))
    return perturb(qm, draw(st.integers(0, 10**6)), max_changes=draw(st.integers(1, 6)))


@settings(max_examples=150)
@given(perturbed_instances())
def test_integer_checks_agree_with_fraction_references(qm):
    assert_matches_references(qm)


@settings(max_examples=150)
@given(perturbed_instances())
def test_alt_conditions_imply_restricted_axioms(qm):
    # The implication criterion 6 and the survey rely on, on instances the
    # seeded corpus does not reach.
    assume(check_alt_conditions(qm).passed)
    assert check_axioms(qm, variant="restricted", cover_mode="all").passed


@settings(max_examples=200)
@given(perturbed_instances())
def test_cover_bound_holds_iff_coat_members_have_their_own_exterior_value(qm):
    # A member covers itself, so its exterior value is at most its value, and
    # a violating subcollection is a cheaper cover of some member.  The
    # disjoint-only mode and max_cover_size only remove subcollections.
    cache = OuterMeasureCache()
    certified = all(outer(qm, x, cache)[0] == qm.value(x) for x in qm.coat.members)
    assert (cover_bound_violations(qm, "all") == []) == certified
    if certified:
        for cover_mode in ("all", "disjoint-only"):
            for size in range(1, len(qm.coat) + 1):
                assert cover_bound_violations(qm, cover_mode, size) == []


def large_denominator_instance(seed, bits=3000):
    """A perturbed-style instance whose inner values have distinct ``bits``-bit denominators."""
    _, coat, qm = random_instance(seed, n=5, coat_size=8)
    rng = random.Random(seed)
    values = dict(qm.values)
    for m in qm.refinement.members:
        if not m.is_empty() and not m.is_full():
            d = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            values[m] = Fraction(rng.randrange(d), d)
    return QuasiMeasure(coat, qm.refinement, values)


def test_large_denominators_agree_with_references():
    qm = large_denominator_instance(0)
    assert qm.scale.bit_length() > 30_000
    assert not check_axioms(qm).passed
    assert_matches_references(qm, sizes=(None,))
    cache = OuterMeasureCache()
    for bits in range(1 << qm.ground.n):
        target = qm.ground.mask(bits)
        assert outer(qm, target, cache) == outer_exhaustive(qm, target)


def test_fraction_reuses_stored_values_and_builds_sums():
    qm = large_denominator_instance(1)
    stored = list(qm.values.values())
    for m, value in qm.values.items():
        got = qm.fraction(qm.numerator(m.bits))
        assert got == value and any(got is v for v in stored)
    total = sum(qm.numerator(m.bits) for m in qm.refinement.members)
    assert qm.fraction(total) == Fraction(total, qm.scale)
    assert qm.fraction(-1) == Fraction(-1, qm.scale)


def test_scale_is_the_lcm_of_the_value_denominators(negative_instance):
    _, _, qm = negative_instance
    assert qm.scale == 4
    for m in qm.refinement.members:
        assert qm.numerator(m.bits) == qm.value(m) * 4
