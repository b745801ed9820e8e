import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasimeasure import (
    Coat,
    GroundSet,
    QuasiMeasure,
    TrueMeasure,
    check_alt_conditions,
    check_axioms,
    extend,
    induce,
    instance_spec_from,
    outer,
    outer_exhaustive,
    parse_instance,
    perturb,
    random_algebra_instance,
    random_instance,
    render_instance,
    verify_premeasure,
)
from quasimeasure.quasi import (ALT_CHECKS, AXIOM_CHECKS, ONE, coat_solver, cover_bound_violations,
                                undercut_members)
from quasimeasure.report import ReportBuilder, Witness
from quasimeasure.testkit import instance_for_seed


class TestQuasiMeasureValidation:
    def test_domain_must_match_refinement(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        values.pop(next(m for m in values if m.size == 1))
        with pytest.raises(ValueError, match="missing"):
            QuasiMeasure(qm.refinement, values)

    def test_values_clamped_to_unit_interval(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        member = next(m for m in values if m.size == 1)
        values[member] = Fraction(5, 4)
        with pytest.raises(ValueError, match=re.escape(f"value of {member} outside [0,1]: 5/4")):
            QuasiMeasure(qm.refinement, values)

    def test_endpoints_enforced(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.full()] = Fraction(1, 2)
        with pytest.raises(ValueError, match="omega"):
            QuasiMeasure(qm.refinement, values)

    def test_extra_member_rejected(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.subset(["1", "3"])] = Fraction(1, 2)
        with pytest.raises(ValueError, match=re.escape("missing=[] extra=['{1,3}']")):
            QuasiMeasure(qm.refinement, values)
        # Same size as the refinement: one member swapped for a non-member.
        del values[qm.ground.subset(["2"])]
        with pytest.raises(ValueError, match=re.escape("missing=['{2}'] extra=['{1,3}']")):
            QuasiMeasure(qm.refinement, values)

    def test_member_of_another_ground_rejected(self, negative_instance):
        _, _, qm = negative_instance
        other = GroundSet(("a", "b", "c", "d"))
        values = {(other.mask(m.bits) if m.size == 1 else m): v for m, v in qm.values.items()}
        with pytest.raises(ValueError, match=re.escape(
                "missing=['{1}', '{2}', '{3}'] extra=['{a}', '{b}', '{c}']")):
            QuasiMeasure(qm.refinement, values)

    def test_negative_value_rejected(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.subset(["2"])] = Fraction(-1, 4)
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: -1/4")):
            QuasiMeasure(qm.refinement, values)

    def test_int_values_accepted_in_range_and_rejected_outside(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.empty()], values[qm.ground.full()] = 0, 1
        assert QuasiMeasure(qm.refinement, values).scale == 4
        values[qm.ground.subset(["2"])] = 2
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: 2")):
            QuasiMeasure(qm.refinement, values)
        values[qm.ground.subset(["2"])] = -1
        with pytest.raises(ValueError, match=re.escape("value of {2} outside [0,1]: -1")):
            QuasiMeasure(qm.refinement, values)

    def test_float_values_rejected(self, negative_instance):
        # The type is checked first, so a float is refused as a float even
        # where its value would also be refused.
        _, _, qm = negative_instance
        values = dict(qm.values)
        for value in (1.5, 0.25):
            values[qm.ground.subset(["2"])] = value
            with pytest.raises(ValueError, match=re.escape(
                    f"value of {{2}} is not an int or a Fraction: {value}")):
                QuasiMeasure(qm.refinement, values)
        values[qm.ground.subset(["2"])] = Fraction(1, 4)
        values[qm.ground.empty()] = 0.5
        with pytest.raises(ValueError, match=re.escape("value of {} is not an int or a Fraction: 0.5")):
            QuasiMeasure(qm.refinement, values)

    @pytest.mark.parametrize("value", ["1/4", None])
    def test_non_numeric_values_rejected(self, negative_instance, value):
        # These once escaped as a TypeError from comparing a Fraction with the value.
        _, _, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.subset(["2"])] = value
        with pytest.raises(ValueError, match=re.escape(
                f"value of {{2}} is not an int or a Fraction: {value!r}")):
            QuasiMeasure(qm.refinement, values)

    def test_coat_is_the_refinements_coat(self, negative_instance):
        _, coat, qm = negative_instance
        assert qm.coat is qm.refinement.coat is coat
        assert QuasiMeasure(qm.refinement, dict(qm.values)).coat is coat

    def test_from_numerators_refuses_scale_zero(self, negative_instance):
        _, _, qm = negative_instance
        with pytest.raises(ValueError, match="^scale must be positive: 0$"):
            QuasiMeasure.from_numerators(qm.refinement, 0, dict.fromkeys(qm.refinement.bits, 0))

    def test_empty_set_value_must_be_zero(self, negative_instance):
        _, _, qm = negative_instance
        values = dict(qm.values)
        values[qm.ground.empty()] = Fraction(1, 4)
        with pytest.raises(ValueError, match="^value of the empty set must be 0$"):
            QuasiMeasure(qm.refinement, values)


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
        assert dict(first.sets)["X"] == ground.subset(["1", "2"])
        assert dict(first.sets)["Y"] == ground.subset(["2", "3"])
        assert dict(first.sets)["meet"] == ground.subset(["2"])
        assert first.lhs == Fraction(1, 4)

    def test_failure_witnesses_reevaluate(self, negative_instance):
        _, coat, qm = negative_instance
        report = check_axioms(qm, variant="restricted")
        for witness in report.result("meet-envelope").witnesses:
            target = dict(witness.sets)["meet"]
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

    def test_unknown_variant_and_cover_mode_are_refused(self, power_set_instance):
        _, _, qm = power_set_instance
        with pytest.raises(ValueError, match="^unknown variant 'strict'$"):
            check_axioms(qm, variant="strict")
        with pytest.raises(ValueError, match="^unknown cover mode 'disjoint'$"):
            check_axioms(qm, cover_mode="disjoint")

    def test_max_cover_size_limits_enumeration(self, negative_instance):
        _, coat, qm = negative_instance
        report = check_axioms(qm, max_cover_size=1)
        assert report.result("cover-bound").passed
        with pytest.raises(ValueError, match="max_cover_size"):
            check_axioms(qm, max_cover_size=len(coat) + 1)
        # Size 0 checks no subcollection, so it would pass vacuously.
        mutated = perturb(random_instance(0, n=4, coat_size=6)[2], 0)
        assert len(cover_bound_violations(mutated)) == 6
        for size in (0, -1):
            with pytest.raises(ValueError, match="max_cover_size"):
                check_axioms(mutated, max_cover_size=size)

    def test_combination_path_matches_table_path(self, monkeypatch):
        import quasimeasure.quasi as quasi
        from quasimeasure.sets import BudgetExceeded

        _, _, qm = random_instance(17, n=4, coat_size=7)
        mutated = perturb(qm, 99, max_changes=4)
        want = reference_cover_bound_violations(mutated, "all", 3)
        assert want and cover_bound_violations(mutated, "all", max_cover_size=3) == want
        # A limit below 2**7 = 128 still admits the 63 subcollections of at
        # most 3 members, listed in the same mask order; one below 63 refuses.
        monkeypatch.setattr(quasi, "COVER_ENUMERATION_LIMIT", 100)
        assert cover_bound_violations(mutated, "all", max_cover_size=3) == want
        monkeypatch.setattr(quasi, "COVER_ENUMERATION_LIMIT", 62)
        with pytest.raises(BudgetExceeded, match="63 subcollections"):
            cover_bound_violations(mutated, "all", max_cover_size=3)

    def test_oversized_enumeration_refused(self):
        from quasimeasure.sets import BudgetExceeded

        # Only a coat that fails the bound enumerates its 2**24 subcollections
        # to list witnesses; a passing one is certified by one solve per member.
        _, _, qm = random_instance(5, n=5, coat_size=24)
        assert len(qm.coat) == 24
        assert cover_bound_violations(qm, "all") == []
        failing = perturb(qm, 0, max_changes=4)
        with pytest.raises(BudgetExceeded):
            cover_bound_violations(failing, "all")
        assert len(cover_bound_violations(failing, "all", max_cover_size=2)) == 73

    def test_oversized_coat_lists_witnesses_in_mask_order(self):
        # The reference's loop over 2**24 subcollections is too slow, so list
        # those of at most 2 members in mask order: member i alone, then each
        # member j < i with it.
        failing = perturb(random_instance(5, n=5, coat_size=24)[2], 0, max_changes=4)
        members, value = failing.coat.members, failing.value
        want = []
        for i, top in enumerate(members):
            for chosen in [(top,), *((members[j], top) for j in range(i))]:
                union, cost = failing.ground.empty(), Fraction(0)
                for m in chosen:
                    union, cost = union | m, cost + value(m)
                roles = tuple((f"S{n + 1}", m) for n, m in enumerate(chosen))
                want += [Witness((("X", x), *roles), value(x), cost, "le",
                                 note="cover value sum below the covered member")
                         for x in members if x.issubset(union) and value(x) > cost]
        got = cover_bound_violations(failing, "all", max_cover_size=2)
        assert len(want) == 73
        assert exact_witnesses(got) == exact_witnesses(want) and got == want

    def test_splitting_fails_after_perturbation(self, power_set_instance):
        _, _, qm = power_set_instance
        member = qm.ground.subset(["1"])
        values = dict(qm.values)
        values[member] += Fraction(1, 8)
        broken = QuasiMeasure(qm.refinement, values)
        report = check_axioms(broken, variant="restricted")
        assert not report.result("splitting").passed
        witness = report.result("splitting").witnesses[0]
        x = dict(witness.sets)["X"]
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
        meets = {dict(w.sets)["meet"] for w in squeeze.witnesses}
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
        assert check_alt_conditions(qm).result("monotone").passed

    def test_trivial_coat(self, trivial_instance):
        _, _, qm = trivial_instance
        assert check_alt_conditions(qm).result("monotone").passed

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
        qm = QuasiMeasure(refinement, values)
        monotone = check_alt_conditions(qm).result("monotone")
        assert not monotone.passed
        witness = monotone.witnesses[0]
        assert dict(witness.sets)["X"] == ground.subset(["1"])
        assert dict(witness.sets)["Y"] == ground.subset(["1", "2"])
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
        union, cost = qm.ground.empty(), Fraction(0)
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
    for endpoint, want in ((ground.empty(), Fraction(0)), (ground.full(), ONE)):
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


def reference_monotone(rb, qm):
    for x in qm.coat.members:
        for y in qm.coat.members:
            if x.issubset(y) and qm.value(x) > qm.value(y):
                rb.fail("monotone", Witness((("X", x), ("Y", y)), qm.value(x), qm.value(y), "le"))


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
    reference_monotone(rb, qm)
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
    certified = all(outer(qm, x)[0] == qm.value(x) for x in qm.coat.members)
    assert (cover_bound_violations(qm, "all") == []) == certified
    if certified:
        for cover_mode in ("all", "disjoint-only"):
            for size in range(1, len(qm.coat) + 1):
                assert cover_bound_violations(qm, cover_mode, size) == []


def test_an_undercut_member_breaks_the_cover_bound_only_over_all_subcollections():
    # With no undercut member the bound holds in every mode and size (the
    # property above); with one it can still hold over the disjoint
    # subcollections, or over those up to a size.
    qm = instance_for_seed(119)
    assert len(undercut_members(qm, coat_solver(qm).solve)) == 1
    assert len(cover_bound_violations(qm, "all")) == 2
    assert cover_bound_violations(qm, "disjoint-only") == []
    qm = instance_for_seed(14)
    assert len(undercut_members(qm, coat_solver(qm).solve)) == 1
    assert len(cover_bound_violations(qm, "all")) == 2
    assert cover_bound_violations(qm, "all", max_cover_size=1) == []


def test_cover_bound_filter_agrees_with_the_reference_at_the_benchmark_size():
    # At k = 10 and 12 the filter skips nearly every subcollection, since few
    # unions hold a member dearer than their value sum.  Witnesses of at most
    # 3 covering sets are the reference's witnesses of max_cover_size=3.
    ground = GroundSet(tuple(str(i + 1) for i in range(8)))
    singleton = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(8))])
    coats = [induce(TrueMeasure.uniform(ground), singleton)]
    coats += [perturb(random_instance(seed, n=8, coat_size=12)[2], seed, max_changes=4) for seed in (7, 9)]
    for qm in coats:
        for cover_mode in ("all", "disjoint-only"):
            want = reference_cover_bound_violations(qm, cover_mode)
            for size, kept in ((None, want), (3, [w for w in want if len(w.sets) <= 4])):
                got = cover_bound_violations(qm, cover_mode, size)
                assert exact_witnesses(got) == exact_witnesses(kept) and got == kept
                assert bool(got) == (qm is not coats[0])


def large_denominator_instance(seed, bits=3000):
    """A perturbed-style instance whose inner values have distinct ``bits``-bit denominators."""
    qm = random_instance(seed, n=5, coat_size=8)[2]
    rng = random.Random(seed)
    values = dict(qm.values)
    for m in qm.refinement.members:
        if not m.is_empty() and not m.is_full():
            d = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            values[m] = Fraction(rng.randrange(d), d)
    return QuasiMeasure(qm.refinement, values)


def test_large_denominators_agree_with_references():
    qm = large_denominator_instance(0)
    assert qm.scale.bit_length() > 30_000
    assert not check_axioms(qm).passed
    assert_matches_references(qm, sizes=(None,))
    for bits in range(1 << qm.ground.n):
        target = qm.ground.mask(bits)
        assert outer(qm, target) == outer_exhaustive(qm, target)


def test_failing_pair_checks_build_witnesses_on_read(monkeypatch):
    import quasimeasure.quasi as quasi

    qm = perturb(random_instance(7, n=5, coat_size=6)[2], 7, max_changes=2)
    built = []

    def counting_witness(*args, **kwargs):
        built.append(Witness(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(quasi, "Witness", counting_witness)
    reports = [(check_axioms(qm), reference_check_axioms(qm, "restricted", "all")),
               (check_alt_conditions(qm), reference_check_alt_conditions(qm))]
    # Only the cover bound lists its witnesses as it finds them.
    assert built == list(reports[0][0].result("cover-bound").witnesses) != []
    pair_checks = {"splitting", "meet-envelope", "diff-envelope", "monotone", "meet-squeeze"}
    for report, reference in reports:
        for result, want in zip(report.results, reference.results, strict=True):
            if result.name in pair_checks:
                built.clear()
                assert len(result.witnesses) == len(want.witnesses) > 0 and built == []
                first = result.witnesses[0]
                assert built == [first] and first == want.witnesses[0]


def test_scale_is_the_lcm_of_the_value_denominators(negative_instance):
    _, _, qm = negative_instance
    assert qm.scale == 4
    for m in qm.refinement.members:
        assert qm.numerators[m.bits] == qm.value(m) * 4


def test_construction_builds_no_per_member_objects():
    # Instances are built and checked on member bits and int numerators; the
    # member masks and the Fraction values wait for a reader.
    induced = random_instance(5, n=10, coat_size=12)[2]
    qm = parse_instance(render_instance(instance_spec_from(induced, seed=5))).build()[2]
    check_axioms(qm)
    check_alt_conditions(qm)
    verify_premeasure(extend(qm))
    perturbed = perturb(induced, 5, max_changes=3)
    target = qm.ground.mask(0b1011001)
    assert outer(qm, target)[1].verify(qm, target)
    for built in (induced, qm, perturbed):
        assert "members" not in built.refinement.__dict__
        assert "values" not in built.__dict__
    assert qm.values == induced.values  # built on read, equal on both routes
    assert perturbed.values != induced.values


def test_values_do_not_alias_the_callers_dict(negative_instance):
    # The dict constructor once kept the caller's dict as ``values``: editing it
    # moved value() but not the numerators the checks read, and verify then
    # refused the cover outer had just returned.
    _, coat, induced = negative_instance
    ground = coat.ground
    values = dict(induced.values)
    qm = QuasiMeasure(induced.refinement, values)
    target = ground.subset(["1"])
    solution = outer(qm, target)[1]
    assert solution.chosen == (2,)  # the coat member {1,2}
    values[ground.subset(["2"])] = Fraction(9, 10)
    values[ground.subset(["1", "2"])] = Fraction(5)
    assert qm.value(ground.subset(["2"])) == Fraction(1, 4)
    assert qm.values == induced.values and qm.values is not values
    for member in qm.refinement.members:
        assert qm.value(member) == qm.values[member] == Fraction(qm.numerators[member.bits], qm.scale)
    assert solution.verify(qm, target) and outer(qm, target)[1].verify(qm, target)


@st.composite
def int_form_instances(draw):
    """Random, partition-algebra and perturbed instances with n <= 6."""
    seed, n = draw(st.integers(0, 10**6)), draw(st.integers(1, 6))
    style = draw(st.sampled_from(("random", "algebra", "perturbed")))
    if style == "algebra":
        return random_algebra_instance(seed, n=n, max_blocks=4)[2]
    qm = random_instance(seed, n=n, coat_size=draw(st.integers(2, 10)))[2]
    return perturb(qm, seed + 1, max_changes=3) if style == "perturbed" else qm


def refusal(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@settings(max_examples=150)
@given(int_form_instances(), st.integers(1, 6), st.integers(0, 10**6))
def test_from_numerators_matches_the_dict_constructor(qm, factor, pick):
    # Numerators over a multiple of the scale come back in lowest terms.
    refinement, ground = qm.refinement, qm.ground
    scale = qm.scale * factor
    values = dict(qm.values)
    numerators = {b: v * factor for b, v in qm.numerators.items()}
    by_dict = QuasiMeasure(refinement, values)
    by_ints = QuasiMeasure.from_numerators(refinement, scale, numerators)
    assert by_ints.scale == by_dict.scale == qm.scale
    assert list(by_ints.numerators.items()) == list(by_dict.numerators.items())
    assert list(by_ints.values.items()) == list(by_dict.values.items())

    member = refinement.bits[pick % len(refinement)]
    outside = [b for b in range(1 << ground.n) if b not in refinement.bits]
    corruptions = [
        ("missing", member, None),
        ("above one", member, scale + 1),
        ("empty", 0, 1),
        ("omega", ground.full_bits, scale - 1),
    ]
    if outside:
        corruptions.append(("extra", outside[pick % len(outside)], 0))
    for name, bits, numerator in corruptions:
        bad_values, bad_numerators = dict(values), dict(numerators)
        if numerator is None:
            del bad_values[ground.mask(bits)], bad_numerators[bits]
        else:
            bad_values[ground.mask(bits)] = Fraction(numerator, scale)
            bad_numerators[bits] = numerator
        message = refusal(lambda: QuasiMeasure(refinement, bad_values))
        from_ints = refusal(lambda: QuasiMeasure.from_numerators(refinement, scale, bad_numerators))
        assert from_ints == message, name
