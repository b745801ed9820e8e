import itertools
import math
import pickle
import random
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimeasure import (
    Coat,
    GroundSet,
    MeasurabilityReport,
    MeasureTable,
    TrueMeasure,
    check_axioms,
    extend,
    extension,
    generate_algebra,
    induce,
    is_caratheodory_measurable,
    measurable_family,
    outer,
    outer_exhaustive,
    perturb,
    random_algebra_instance,
    verify_premeasure,
)
from quasimeasure.extension import (AUDIT_LIMIT, SAMPLED_TRIPLES, SPLIT_BUDGET, TRIPLE_BUDGET,
                                   MeasurabilityRecord)
from quasimeasure.quasi import ONE, CoverSolver, coat_solver, cover_bound_violations
from quasimeasure.report import ReportBuilder, Witness
from quasimeasure.sets import DEFAULT_EXHAUSTIVE_LIMIT, AlgebraFamily, BudgetExceeded
from quasimeasure.testkit import instance_for_seed, random_instance


class TestMeasurability:
    def test_empty_and_full_always_measurable(self, negative_instance):
        _, _, qm = negative_instance
        assert is_caratheodory_measurable(qm, qm.ground.empty()) == (True, None)
        assert is_caratheodory_measurable(qm, qm.ground.full()) == (True, None)

    def test_overlapping_members_fail_with_exact_counterexamples(self, negative_instance):
        # Splitting {2,3} through {1,2} costs 1/2 + 1/2 = 1 against the
        # direct cover cost 1/2, and symmetrically for {1,2} through {2,3}.
        _, _, qm = negative_instance
        ground = qm.ground
        measurable, counterexample = is_caratheodory_measurable(qm, ground.subset(["1", "2"]))
        assert not measurable and counterexample == ground.subset(["2", "3"])
        measurable, counterexample = is_caratheodory_measurable(qm, ground.subset(["2", "3"]))
        assert not measurable and counterexample == ground.subset(["1", "2"])
        assert outer(qm, ground.subset(["1"]))[0] == Fraction(1, 2)
        assert outer(qm, ground.subset(["2"]))[0] == Fraction(1, 2)
        assert outer(qm, ground.subset(["1", "2"]))[0] == Fraction(1, 2)

    def test_counterexample_reevaluates(self, negative_instance):
        _, _, qm = negative_instance
        ground = qm.ground
        w = ground.subset(["1", "2"])
        _, a = is_caratheodory_measurable(qm, w)
        whole = outer(qm, a)[0]
        split = outer(qm, a & w)[0] + outer(qm, a & w.complement())[0]
        assert whole != split

    def test_budget_guard_refuses_before_solving(self, monkeypatch):
        # 2**17 subsets are past the exhaustive limit: refused before any solve.
        big = singleton_coat_instance(17)
        monkeypatch.setattr(CoverSolver, "solve", refuse_to_solve)
        with pytest.raises(BudgetExceeded, match=r"2\*\*17 subsets exceed budget"):
            is_caratheodory_measurable(big, big.ground.full())

    def test_foreign_candidate_refused_before_solving(self, negative_instance, monkeypatch):
        _, _, qm = negative_instance
        other = GroundSet(("1", "2", "3", "5"))
        monkeypatch.setattr(CoverSolver, "solve", refuse_to_solve)
        with pytest.raises(ValueError, match="different ground set"):
            is_caratheodory_measurable(qm, other.subset(["1", "2"]))

    def test_power_set_family_all_measurable(self, power_set_instance):
        _, _, qm = power_set_instance
        report = measurable_family(qm)
        assert len(report.algebra) == 8
        assert report.all_algebra_measurable
        assert len(report.audit) == 8

    def test_trivial_coat_family(self, trivial_instance):
        _, _, qm = trivial_instance
        report = measurable_family(qm)
        assert report.all_algebra_measurable
        assert {r.candidate for r in report.algebra} == {qm.ground.empty(), qm.ground.full()}

    def test_negative_instance_flags_overlap(self, negative_instance):
        _, _, qm = negative_instance
        report = measurable_family(qm)
        overlap = qm.ground.subset(["1", "2"])
        assert not next(r for r in report.algebra if r.candidate == overlap).measurable
        assert not report.all_algebra_measurable

    def test_measurable_sets_form_an_algebra(self):
        # The family of splitting-measurable sets is closed under
        # complement and intersection for any instance, axioms or not.
        for seed in (0, 1, 2, 5, 8):
            qm = instance_for_seed(seed, n_max=4, coat_max=6)
            report = measurable_family(qm)
            good = {r.candidate for r in report.audit if r.measurable}
            assert qm.ground.empty() in good and qm.ground.full() in good
            for w in good:
                assert w.complement() in good
            for w in good:
                for z in good:
                    assert (w & z) in good

    def test_coat_measurable_when_restricted_axioms_hold(self):
        for seed in range(0, 60, 3):  # style 0: algebra coats
            qm = instance_for_seed(seed, n_max=4)
            if not check_axioms(qm, variant="restricted").passed:
                continue
            for member in qm.coat.members:
                assert is_caratheodory_measurable(qm, member)[0]

    def test_generated_algebra_measurable_when_restricted_axioms_hold(self):
        # The whole generated algebra, not just the coat, must pass the
        # splitting test on axiom-passing instances.
        checked = 0
        for seed in range(80):
            qm = instance_for_seed(seed, n_max=4, coat_max=6)
            if not check_axioms(qm, variant="restricted").passed:
                continue
            report = measurable_family(qm)
            assert report.all_algebra_measurable, seed
            checked += 1
        assert checked >= 20


def refuse_to_solve(self, bits):
    raise AssertionError("solved before the refusal")


def reference_split_failure(qm, w, solve, candidates):
    """The splitting test with one solver call per value lookup, kept as the oracle."""
    inside, outside = w.bits, w.bits ^ qm.ground.full_bits
    for a in candidates:
        if solve(a)[0] != solve(a & inside)[0] + solve(a & outside)[0]:
            return False, qm.ground.mask(a)
    return True, None


def singleton_coat_instance(n):
    """Uniform weights with coat {empty, omega, {1}, ..., {n}}: the algebra is all 2**n subsets."""
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(n))])
    return induce(TrueMeasure.uniform(ground), coat)


class TestMeasurabilityOracle:
    def test_splitting_tests_agree_with_per_lookup_reference(self):
        non_measurable = 0
        for seed in range(40):
            n = 1 + seed % 5
            qm = random_instance(seed, n=n, coat_size=3 + seed % 6)[2]
            if seed % 2:
                qm = perturb(qm, seed + 900, max_changes=3)
            solve = coat_solver(qm).solve
            subsets = range(1 << n)

            def want(candidates):
                return tuple(MeasurabilityRecord(w, *reference_split_failure(qm, w, solve, subsets))
                             for w in candidates)

            report = measurable_family(qm)
            assert n <= AUDIT_LIMIT
            assert report == MeasurabilityReport(want(generate_algebra(qm.coat)),
                                                 want(qm.ground.all_subsets()))
            non_measurable += sum(not r.measurable for r in report.algebra)
            for record in report.audit:
                w = record.candidate
                assert is_caratheodory_measurable(qm, w) == (record.measurable, record.counterexample)
        assert non_measurable > 0

    def test_split_budget_admits_an_n10_singleton_coat(self):
        report = measurable_family(singleton_coat_instance(10))
        assert len(report.algebra) == 1 << 10 and report.all_algebra_measurable
        assert report.audit == ()

    def test_passing_n10_singleton_coat_runs_no_splitting_test(self, monkeypatch):
        # The atom sums certify the table, so every member is measurable untested.
        def no_split_test(*args):
            raise AssertionError("splitting test on a certified table")

        monkeypatch.setattr(extension, "_first_split_failure", no_split_test)
        report = measurable_family(singleton_coat_instance(10))
        assert len(report.algebra) == 1 << 10 and report.all_algebra_measurable

    def test_split_budget_refuses_only_uncertified_tables(self):
        # Only the splitting tests that run count against the budget: a table
        # that fails its atom sums tests all 2**13 members, 2**26 lookups, and
        # is refused; the passing n=16 coat's 65,536 members run no test.
        qm = perturb(singleton_coat_instance(13), 0, max_changes=2)
        with pytest.raises(BudgetExceeded, match=f"SPLIT_BUDGET={SPLIT_BUDGET}"):
            measurable_family(qm)
        report = measurable_family(singleton_coat_instance(16))
        assert len(report.algebra) == 1 << 16 and report.all_algebra_measurable
        assert report.audit == ()

    def test_certified_coat_past_the_subset_limit_gets_a_report(self):
        # Past 2**16 subsets there is no audit, so a certified table runs no
        # test and builds no subset list; an uncertified one is refused.
        ground = GroundSet(tuple(str(i) for i in range(20)))
        coat = Coat.from_bits(ground, [0, ground.full_bits, 0x1F, 0x3E0, 0xFC00, 0xF0000])
        qm = induce(TrueMeasure.uniform(ground), coat)
        report = measurable_family(qm)
        assert len(report.algebra) == 16 and report.all_algebra_measurable
        with pytest.raises(BudgetExceeded, match=r"2\*\*20 subsets exceed budget"):
            measurable_family(perturb(qm, 0, max_changes=2))


class TestExtend:
    def test_power_set_reproduces_the_measure(self, power_set_instance):
        tm, _, qm = power_set_instance
        table = extend(qm)
        assert len(table.algebra) == 8
        for member in table.algebra:
            assert table.value(member) == tm.mass(member)
        assert table.value(qm.ground.subset(["2", "3"])) == Fraction(1, 2)

    def test_trivial_coat(self, trivial_instance):
        _, _, qm = trivial_instance
        table = extend(qm)
        assert len(table.algebra) == 2
        assert table.value(qm.ground.empty()) == 0
        assert table.value(qm.ground.full()) == 1

    def test_negative_instance_rows(self, negative_instance):
        _, _, qm = negative_instance
        table = extend(qm)
        ground = qm.ground
        assert len(table.algebra) == 16
        assert table.value(ground.subset(["1"])) == Fraction(1, 2)
        assert table.value(ground.subset(["2"])) == Fraction(1, 2)
        assert table.value(ground.subset(["1", "2"])) == Fraction(1, 2)

    def test_builds_no_algebra_masks(self):
        # extend reads the algebra's bits; masks are built only for the
        # witnesses and values that are read.
        _, _, qm = random_instance(1, n=10, coat_size=12)
        table = extend(qm)
        assert "members" not in table.algebra.__dict__
        report = verify_premeasure(table)
        first = report.result("pair-additivity").witnesses[0]
        assert table.value(qm.ground.full()) == table.values[-1]
        assert "members" not in table.algebra.__dict__
        assert first.sets[0][1] in table.algebra.members

    def test_provenance_covers_verify(self, negative_instance):
        _, _, qm = negative_instance
        table = extend(qm)
        for member, value, solution in table.rows():
            assert solution.verify(qm, member)
            assert solution.cost == value


class TestMeasureTable:
    def test_constructor_refuses_malformed_tables(self, negative_instance):
        _, _, qm = negative_instance
        table = extend(qm)
        algebra, scale, nums, chosen = table.algebra, table.scale, table.numerators, table.chosen
        with pytest.raises(ValueError, match="exactly the algebra members"):
            MeasureTable(algebra, scale, nums[:-1], chosen)
        with pytest.raises(ValueError, match="exactly the algebra members"):
            MeasureTable(algebra, scale, nums, chosen[1:])
        with pytest.raises(ValueError, match="scale must be positive"):
            MeasureTable(algebra, 0, (0,) * len(nums), chosen)
        with pytest.raises(ValueError, match="empty set must be 0"):
            MeasureTable(algebra, scale, (1, *nums[1:]), chosen)
        with pytest.raises(ValueError, match=re.escape(f"outside [0,1] at {algebra.members[1]}")):
            MeasureTable(algebra, scale, (0, -1, *nums[2:]), chosen)
        with pytest.raises(ValueError, match=re.escape(f"outside [0,1] at {algebra.members[-1]}")):
            MeasureTable(algebra, scale, (*nums[:-1], scale + 1), chosen)

    def test_value_refuses_non_members(self, trivial_instance):
        _, _, qm = trivial_instance
        table = extend(qm)
        with pytest.raises(KeyError):
            table.value(qm.ground.subset(["1"]))
        for labels in (("a", "b", "c", "d"), ("1", "2", "3", "4", "5")):
            with pytest.raises(KeyError):  # the same bits on another ground
                table.value(GroundSet(labels).full())

    def test_value_builds_only_the_fraction_it_returns(self):
        table = extend(singleton_coat_instance(16))
        assert table.value(table.algebra.ground.mask(0b1011)) == Fraction(3, 16)
        assert "values" not in table.__dict__

    def test_rows_agree_with_the_exhaustive_oracle(self):
        for seed in range(40):
            qm = instance_for_seed(seed, n_max=6)
            table = extend(qm)
            for member, value, solution in table.rows():
                cost, oracle = outer_exhaustive(qm, member)
                assert (value, solution.chosen) == (cost, oracle.chosen), (seed, member)
                assert table.value(member) == value

    def test_scale_is_the_lcm_of_the_row_denominators(self):
        for seed in range(40):
            table = extend(instance_for_seed(seed))
            assert table.scale == math.lcm(*(v.denominator for _, v, _ in table.rows())), seed


class TestVerifyPremeasure:
    def test_power_set_table_passes(self, power_set_instance):
        _, _, qm = power_set_instance
        assert verify_premeasure(extend(qm)).passed

    def test_negative_instance_fails_with_witness(self, negative_instance):
        _, _, qm = negative_instance
        report = verify_premeasure(extend(qm))
        assert not report.passed
        pair = report.result("pair-additivity")
        witness = pair.witnesses[0]
        ground = qm.ground
        assert witness.set_named("E1") == ground.subset(["1"])
        assert witness.set_named("E2") == ground.subset(["2"])
        assert witness.lhs == Fraction(1, 2)
        assert witness.rhs == Fraction(1)
        assert pickle.loads(pickle.dumps(report)) == report

    def test_trivial_table_passes(self, trivial_instance):
        _, _, qm = trivial_instance
        assert verify_premeasure(extend(qm)).passed

    def test_extension_property_on_passing_instances(self):
        verified = 0
        for seed in range(120):
            qm = instance_for_seed(seed, n_max=5, coat_max=8)
            if not check_axioms(qm, variant="restricted").passed:
                continue
            assert verify_premeasure(extend(qm)).passed, seed
            verified += 1
        assert verified >= 30

    @settings(max_examples=200)
    @given(st.integers(0, 599), st.sampled_from(("seed", "algebra", "perturbed")))
    def test_passing_instances_extend_the_quasi_measure(self, seed, source):
        # Restricted axioms passing in either cover mode must give a table that
        # extends qm: equal on every refinement member, additive, every algebra
        # member measurable.
        if source == "seed":
            qm = instance_for_seed(seed)
        else:
            qm = random_algebra_instance(seed, n=2 + seed % 4)[2]
            if source == "perturbed":
                qm = perturb(qm, seed)
        if not any(check_axioms(qm, variant="restricted", cover_mode=mode).passed
                   for mode in ("all", "disjoint-only")):
            return
        table = extend(qm)
        index = {bits: i for i, bits in enumerate(table.algebra.bits)}
        for bits, numerator in qm.numerators.items():
            assert table.numerators[index[bits]] * qm.scale == numerator * table.scale, bits
        assert verify_premeasure(table).passed
        assert measurable_family(qm).all_algebra_measurable

    def test_table_agrees_with_coat_when_cover_bound_holds(self):
        for seed in range(40):
            qm = instance_for_seed(seed, n_max=4, coat_max=6)
            if cover_bound_violations(qm):
                continue
            table = extend(qm)
            for member in qm.coat.members:
                assert table.value(member) == qm.value(member)

    def test_pairs_imply_triples(self):
        # The triple audit is redundant given pairwise additivity on an
        # algebra; confirm no instance separates them.
        for seed in range(60):
            qm = instance_for_seed(seed, n_max=4, coat_max=6)
            report = verify_premeasure(extend(qm))
            if report.result("pair-additivity").passed:
                assert report.result("triple-additivity").passed

    def test_full_additivity_over_all_disjoint_families(self):
        # Pairwise additivity plus closure gives additivity for every
        # finite disjoint family; brute-check that induction on small
        # passing instances, making the table a probability measure.
        checked = 0
        for seed in range(60):
            qm = instance_for_seed(seed, n_max=3, coat_max=6)
            if not check_axioms(qm, variant="restricted").passed:
                continue
            table = extend(qm)
            members = table.algebra.members
            if len(members) > 8:
                continue
            checked += 1
            assert table.value(qm.ground.full()) == 1
            for take in range(1 << len(members)):
                family = [members[i] for i in range(len(members)) if take >> i & 1]
                union_bits = 0
                disjoint = True
                for m in family:
                    if union_bits & m.bits:
                        disjoint = False
                        break
                    union_bits |= m.bits
                if not disjoint:
                    continue
                total = sum((table.value(m) for m in family), Fraction(0))
                assert table.value(qm.ground.mask(union_bits)) == total
        assert checked >= 10


class TestLiteralVariantFinding:
    def test_literal_axioms_do_not_carry_the_extension(self, negative_instance):
        # Recorded observation, not a theorem: this instance passes every
        # axiom in the literal variant yet its extension is not additive.
        _, _, qm = negative_instance
        assert check_axioms(qm, variant="literal").passed
        assert not verify_premeasure(extend(qm)).passed


def pairwise_verify_premeasure(table):
    """Reference for ``verify_premeasure``: the pair and triple loops on masks.

    Tests disjointness on the masks' bits and looks unions up by
    mask, so it does not rely on the member-index structure of the algebra.
    """
    rb = ReportBuilder("premeasure")
    rb.declare("endpoints", "nonnegative", "pair-additivity", "triple-additivity")
    ground = table.algebra.ground
    if table.value(ground.empty()) != 0:
        rb.fail("endpoints",
                Witness((("set", ground.empty()),), table.value(ground.empty()), Fraction(0), "eq"))
    if table.value(ground.full()) != ONE:
        rb.fail("endpoints", Witness((("set", ground.full()),), table.value(ground.full()), ONE, "eq"))
    members = table.algebra.members
    for m in members:
        if table.value(m) < 0:
            rb.fail("nonnegative", Witness((("E", m),), table.value(m), Fraction(0), "le"))
    for e1, e2 in itertools.combinations(members, 2):
        if e1.bits & e2.bits:
            continue
        got = table.value(e1 | e2)
        want = table.value(e1) + table.value(e2)
        if got != want:
            rb.fail("pair-additivity", Witness((("E1", e1), ("E2", e2)), got, want, "eq"))
    triple_count = len(members) * (len(members) - 1) * (len(members) - 2) // 6
    if triple_count <= TRIPLE_BUDGET:
        triples = itertools.combinations(members, 3)
        rb.note("triples=exhaustive")
    else:
        rng = random.Random(0)
        triples = (tuple(rng.sample(members, 3)) for _ in range(TRIPLE_BUDGET // 8))
        rb.note(f"triples=sampled budget={TRIPLE_BUDGET // 8} seed=0")
    for e1, e2, e3 in triples:
        if e1.bits & e2.bits or e1.bits & e3.bits or e2.bits & e3.bits:
            continue
        got = table.value(e1 | e2 | e3)
        want = table.value(e1) + table.value(e2) + table.value(e3)
        if got != want:
            rb.fail("triple-additivity", Witness((("E1", e1), ("E2", e2), ("E3", e3)), got, want, "eq"))
    return rb.build()


def quarter_table(coat, quarters):
    """Values ``q/4`` on the coat's generated algebra, with the empty set at 0."""
    algebra = generate_algebra(coat)
    return MeasureTable(algebra, 4, (0, *quarters), (0,) * len(algebra))


def assert_same_report(table):
    fast, reference = verify_premeasure(table), pairwise_verify_premeasure(table)
    assert fast.notes == reference.notes
    for got, want in zip(fast.results, reference.results, strict=True):
        assert got.name == want.name
        assert [w.render() for w in got.witnesses] == [w.render() for w in want.witnesses]
    assert fast == reference


@st.composite
def quarter_tables(draw):
    """Random {0, 1/4, ..., 1} values on the algebra of a random coat, n <= 7."""
    n = draw(st.integers(1, 7))
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    full = ground.full_bits
    inner = draw(st.sets(st.integers(1, max(full - 1, 1)), max_size=4)) - {full}
    coat = Coat.from_bits(ground, [0, full, *sorted(inner)])
    size = len(generate_algebra(coat))
    return quarter_table(coat, draw(st.lists(st.integers(0, 4), min_size=size - 1, max_size=size - 1)))


@settings(max_examples=150)
@given(quarter_tables())
def test_verify_premeasure_agrees_with_pairwise_reference(table):
    assert_same_report(table)


@st.composite
def atom_sum_tables(draw):
    """On the algebra of a ``quarter_tables`` draw, an additive table, or one with a value changed.

    In an additive table each member's value is the sum of its atoms' values.
    """
    algebra = draw(quarter_tables()).algebra
    size = len(algebra)
    atoms = [draw(st.integers(0, 4)) for _ in range(size.bit_length() - 1)]
    nums = [sum(v for j, v in enumerate(atoms) if i >> j & 1) for i in range(size)]
    scale = max(nums[-1], 1)
    if draw(st.booleans()):
        i = draw(st.integers(1, size - 1))
        nums[i] = (nums[i] + draw(st.integers(1, scale))) % (scale + 1)
    return MeasureTable(algebra, scale, tuple(nums), (0,) * size)


@settings(max_examples=80)
@given(atom_sum_tables())
def test_atom_sums_keep_the_pair_walk_report(table):
    # Additivity holds iff every member is the sum of its atoms, so the pair
    # walk may run only on a disagreement; its report must not change.  The
    # drawn quarter tables themselves are compared above.
    assert_same_report(table)
    nums = table.numerators
    sums_agree = all(v == sum(nums[1 << j] for j in range(i.bit_length()) if i >> j & 1)
                     for i, v in enumerate(nums))
    assert verify_premeasure(table).result("pair-additivity").passed == sums_agree


def test_additive_table_reads_each_numerator_a_few_times():
    # The atom sums certify an additive table in one peel pass; the pair walk
    # alone would read 3 numerators for each of the ~3**10 / 2 disjoint pairs.
    class CountingTuple(tuple):
        reads = 0

        def __getitem__(self, index):
            self.reads += 1
            return super().__getitem__(index)

    n = 10
    algebra = generate_algebra(singleton_coat_instance(n).coat)
    nums = CountingTuple(m.size for m in algebra)
    table = MeasureTable(algebra, n, nums, (0,) * len(algebra))
    nums.reads = 0
    report = verify_premeasure(table)
    assert report.passed and len(algebra) == 2 ** n
    assert 0 < nums.reads <= 4 * 2 ** n


def test_verify_premeasure_agrees_with_reference_on_sampled_triples():
    rng = random.Random(7)
    for n in (7, 8):
        ground = GroundSet(tuple(str(i + 1) for i in range(n)))
        coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(n - 1))])
        table = quarter_table(coat, [rng.randrange(5) for _ in range((1 << n) - 1)])
        assert len(table.algebra) >= 128
        assert_same_report(table)
        assert verify_premeasure(table).notes == ("triples=sampled budget=32768 seed=0",)


def test_passing_table_walks_no_triples(monkeypatch):
    # Additive pairs make additive triples, so a passing table above the
    # triple budget reports the sampled audit without reading its triples.
    def no_reads(*args):
        raise AssertionError("sampled triples read on a table whose pairs are additive")

    class Unreadable(Mapping):
        __getitem__ = __iter__ = __len__ = no_reads

    n = 7
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(n - 1))])
    algebra = generate_algebra(coat)
    table = MeasureTable(algebra, n, tuple(m.size for m in algebra), (0,) * len(algebra))
    assert len(algebra) >= 128
    monkeypatch.setattr(extension, "SAMPLED_TRIPLES", Unreadable())
    report = verify_premeasure(table)
    assert report.passed
    assert report.notes == ("triples=sampled budget=32768 seed=0",)


def test_verify_premeasure_agrees_with_reference_on_extend_tables():
    for seed in range(6):
        _, _, qm = random_instance(seed, n=3 + seed % 4, coat_size=4 + seed % 5)
        assert_same_report(extend(qm))


def disjoint_draws(m):
    """The pairwise-disjoint triples among the sampled audit's draws on 2**m members, in draw order."""
    rng = random.Random(0)
    draws = (rng.sample(range(1 << m), 3) for _ in range(TRIPLE_BUDGET // 8))
    return [(i, j, k) for i, j, k in draws if not (i & j or i & k or j & k)]


def test_sampled_triple_table_covers_the_sampled_sizes():
    # An algebra of 2**m members is sampled when its triples exceed the
    # budget, from m = 7, and AlgebraFamily refuses more than 2**16 members.
    assert TRIPLE_BUDGET == 1 << 18
    top = DEFAULT_EXHAUSTIVE_LIMIT.bit_length() - 1
    sampled = {m for m in range(top + 1) if math.comb(1 << m, 3) > TRIPLE_BUDGET}
    assert set(SAMPLED_TRIPLES) == sampled == set(range(7, 17))


@pytest.mark.parametrize("m", range(7, 17))
def test_sampled_triple_table_is_the_disjoint_draws(m):
    # Draws of random.Random(0), the seed the report's note names, repeats kept.
    want = [(i << m | j) << m | k for i, j, k in disjoint_draws(m)]
    assert list(SAMPLED_TRIPLES[m]) == want


@pytest.mark.parametrize("m", range(9, 13))
def test_sampled_triple_witnesses_are_the_failing_draws(m):
    # Past the pairwise reference's reach: on singleton atoms member i has
    # bits i, and a size-plus-0-or-1 value makes some disjoint triples fail.
    rng = random.Random(m)
    ground = GroundSet(tuple(str(i + 1) for i in range(m)))
    algebra = AlgebraFamily(ground, tuple(1 << a for a in range(m)))
    nums = (0, *(bin(i).count("1") + rng.randrange(2) for i in range(1, 1 << m)))
    report = verify_premeasure(MeasureTable(algebra, m + 1, nums, (0,) * len(algebra)))
    draws = disjoint_draws(m)
    want = [(i, j, k) for i, j, k in draws if nums[i | j | k] != nums[i] + nums[j] + nums[k]]
    got = [tuple(mask.bits for _, mask in w.sets) for w in report.result("triple-additivity").witnesses]
    assert got == want
    assert 0 < len(want) < len(draws)


@pytest.mark.parametrize("atoms", range(8))
def test_disjoint_triples_are_the_filtered_combinations(atoms):
    # The exhaustive branch sees algebras of up to 2**6 members; the walk holds beyond.
    size = 1 << atoms
    want = [(i, j, k) for i, j, k in itertools.combinations(range(size), 3) if not (i & j or i & k or j & k)]
    assert list(extension._disjoint_triples(size)) == want


def eager_pair_witnesses(table):
    """Every pair-additivity witness, built up front as one tuple."""
    members, values = table.algebra.members, table.values
    size = len(members)
    return tuple(Witness((("E1", members[i]), ("E2", members[j])), values[i | j], values[i] + values[j], "eq")
                 for i in range(size) for j in range(i + 1, size)
                 if not i & j and values[i | j] != values[i] + values[j])


def test_failing_table_builds_witnesses_on_access(monkeypatch):
    _, _, qm = random_instance(1, n=10, coat_size=12)
    table = extend(qm)
    built = []

    def counting_witness(*args, **kwargs):
        built.append(Witness(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(extension, "Witness", counting_witness)
    pairs = verify_premeasure(table).result("pair-additivity").witnesses
    assert built == []
    first = pairs[0]
    assert built == [first]

    eager = eager_pair_witnesses(table)
    assert len(pairs) == len(eager) > 1000
    assert pairs[0] == eager[0] and pairs[-1] == eager[-1] and pairs[500] == eager[500]
    assert pairs[3:9] == eager[3:9] and pairs[-4:] == eager[-4:] and pairs[::97] == eager[::97]
    assert tuple(pairs) == eager
    assert pairs == eager and eager == pairs
    assert pairs != eager[:-1] and eager[1:] != pairs
    assert hash(pairs) == hash(eager)
    assert repr(pairs) == repr(eager)


@st.composite
def perturbed_instances(draw):
    """Random or partition-algebra instances with n <= 6, some values overwritten."""
    seed, n = draw(st.integers(0, 10**6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        qm = random_instance(seed, n=n, coat_size=draw(st.integers(2, 10)))[2]
    else:
        qm = random_algebra_instance(seed, n=n, max_blocks=draw(st.integers(1, 4)))[2]
    return perturb(qm, draw(st.integers(0, 10**6)), max_changes=draw(st.integers(1, 6)))


@settings(max_examples=200)
@given(perturbed_instances())
def test_exterior_value_is_the_table_value_of_the_hull(qm):
    # Every coat member is a union of atoms, so a cover of A covers each atom
    # that A meets: A has the exterior value of its hull, the union of those
    # atoms, which is algebra member i with bit j set iff atom j meets A.
    table = extend(qm)
    atoms = table.algebra.atoms
    solve = coat_solver(qm).solve
    for a in range(1 << qm.ground.n):
        hull = sum(1 << j for j, atom in enumerate(atoms) if atom & a)
        assert Fraction(solve(a)[0], qm.scale) == table.values[hull], qm.ground.mask(a)


@pytest.mark.parametrize("seed", range(24))
def test_every_subset_has_the_table_value_of_its_hull(seed):
    # Seeded random and perturbed instances up to n=8: the exterior value of
    # each subset is the table value of the union of the atoms it meets, and
    # the splitting tests read exactly these values.
    n = 1 + seed % 8
    qm = random_instance(seed, n=n, coat_size=2 + seed % 9)[2]
    if seed % 2:
        qm = perturb(qm, seed + 500, max_changes=1 + seed % 5)
    table = extend(qm)
    atoms = table.algebra.atoms
    want = []
    for a in qm.ground.all_subsets():
        hull = sum(atom for atom in atoms if atom & a.bits)
        want.append(outer(qm, a)[0])
        assert want[-1] == table.value(qm.ground.mask(hull)), a
    assert [Fraction(v, table.scale) for v in extension._subset_values(table)] == want


@pytest.mark.parametrize("seed, n, coat_size", [(0, 4, 4), (1, 10, 12)])
def test_failing_witnesses_build_only_the_fractions_they_report(seed, n, coat_size):
    # Reading a witness builds its own two values, not the table's ``values``.
    _, _, qm = random_instance(seed, n=n, coat_size=coat_size)
    table = extend(qm)
    report = verify_premeasure(table)
    firsts = [report.result(name).witnesses[0] for name in ("pair-additivity", "triple-additivity")]
    assert "values" not in table.__dict__
    members, values = table.algebra.members, table.values
    for first in firsts:
        indices = [members.index(mask) for _, mask in first.sets]
        union = values[sum(indices)]  # disjoint members: the sum of the indices is their union's
        assert first == Witness(first.sets, union, sum(values[i] for i in indices), "eq")
