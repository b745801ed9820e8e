import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceCoverSolver
from quasimeasure import (
    Coat,
    GroundSet,
    QuasiMeasure,
    TrueMeasure,
    check_outer_properties,
    induce,
    outer,
    outer_exhaustive,
    perturb,
    random_algebra_instance,
    random_instance,
)
from quasimeasure import cover
from quasimeasure.cover import SAMPLE_SEED, SUBSET_BUDGET, TRIPLE_BUDGET, CoverSolution
from quasimeasure.quasi import CoverSolver, coat_solver, cover_bound_violations
from quasimeasure.report import ReportBuilder
from quasimeasure.sets import BudgetExceeded


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

    def test_witness_indices_must_ascend_within_the_coat(self, negative_instance):
        # Index -3 would wrap around to omega, and 4 and 7 are past the coat;
        # they, a descending pair and a repeated index are all rejected.
        _, _, qm = negative_instance
        omega = qm.ground.full()
        assert CoverSolution((1,), Fraction(1)).verify(qm, omega)
        for chosen in ((-3,), (7,), (3, 2), (2, 2), (1, 4)):
            assert not CoverSolution(chosen, Fraction(1)).verify(qm, omega), chosen

    def test_target_over_another_ground_set_is_refused(self, negative_instance):
        # Compared by value: an equal ground built apart is accepted.
        _, _, qm = negative_instance
        for solve in (outer, outer_exhaustive):
            with pytest.raises(ValueError, match="different ground set"):
                solve(qm, GroundSet(("a", "b", "c", "d")).subset(["a"]))
            with pytest.raises(ValueError, match="different ground set"):
                solve(qm, GroundSet(("1", "2", "3", "4", "5")).subset(["1"]))
            assert solve(qm, GroundSet(("1", "2", "3", "4")).subset(["2"]))[0] == Fraction(1, 2)

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
            for bits in range(1 << 5):
                target = qm.ground.mask(bits)
                fast, fast_sol = outer(qm, target)
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
            for bits in range(1 << 5):
                target = qm.ground.mask(bits)
                assert outer(qm, target)[0] == outer_exhaustive(qm, target)[0]

    def test_coat_member_recovers_value_for_induced(self):
        for seed in range(15):
            _, coat, qm = random_instance(seed, n=4, coat_size=6)
            for member in coat.members:
                value, _ = outer_exhaustive(qm, member)
                assert value == qm.value(member)

    def test_rejects_oversized_coat(self):
        _, _, qm = random_instance(3, n=5, coat_size=24)
        if len(qm.coat) > 20:
            with pytest.raises(BudgetExceeded, match="enumeration"):
                outer_exhaustive(qm, qm.ground.empty())

    def test_refuses_21_members_as_over_budget(self):
        # 2**21 subcollections pass COVER_ENUMERATION_LIMIT = 2**20: refused, not enumerated.
        ground = GroundSet(tuple("abcde"))
        qm = induce(TrueMeasure.uniform(ground), Coat.from_bits(ground, [0, 31, *range(1, 20)]))
        assert len(qm.coat) == 21
        with pytest.raises(BudgetExceeded, match=r"^coat too large for enumeration \(2\*\*21 > 1048576\)$"):
            outer_exhaustive(qm, qm.ground.full())


class TestCoverSolver:
    def test_float_weights_on_int_masks(self):
        # Members {0,1} 0.5, {1,2} 0.25, {2} 0.5, {0,1,2} 1.0 (weights of any ordered type)
        solver = CoverSolver([(0, 0b011, 0.5), (1, 0b110, 0.25), (2, 0b100, 0.5), (3, 0b111, 1.0)], 0.0)
        assert solver.solve(0) == (0.0, ())
        assert solver.solve(0b111) == (0.75, (0, 1))
        assert solver.solve(0b100) == (0.25, (1,))
        with pytest.raises(ValueError, match="not coverable"):
            solver.solve_bits(0b1000)
        with pytest.raises(ValueError, match="not coverable"):
            solver.solve(0b1000)

    def test_refuses_a_target_in_a_gap_of_the_reach(self):
        # The reach 0b101 lies above the target 0b010, which no entry holds.
        solver = CoverSolver([(0, 0b001, 1), (1, 0b100, 1)], 0)
        assert solver.solve_bits(0b101) == (2, 0b11)
        with pytest.raises(ValueError, match="not coverable"):
            solver.solve_bits(0b010)

    def test_branches_on_the_lowest_uncovered_element(self):
        # Omega's residuals under the singleton coat are the suffixes left after
        # each lowest element, so n + 1 memo entries; trying every member that
        # meets a residual would visit all 2**n of them.
        n = 12
        ground = GroundSet(tuple(str(i + 1) for i in range(n)))
        singleton = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(n))])
        qm = induce(TrueMeasure.uniform(ground), singleton)
        solver = coat_solver(qm)
        assert solver.solve(ground.full_bits) == (qm.scale, (1,))
        assert len(solver._memo) <= n + 1


QUARTERS = tuple(Fraction(q, 4) for q in range(5))


@st.composite
def quarter_valued_instances(draw):
    """Random coats with n <= 5 and k <= 10, every inner value redrawn from {0, 1/4, ..., 1}.

    Zero-weight members and covers of equal cost are common, so the
    (cost, size, indices) tie-break decides many witnesses.
    """
    _, _, qm = random_instance(draw(st.integers(0, 10**6)), n=draw(st.integers(1, 5)),
                               coat_size=draw(st.integers(2, 10)))
    values = {m: v if m.is_empty() or m.is_full() else draw(st.sampled_from(QUARTERS))
              for m, v in qm.values.items()}
    return QuasiMeasure(qm.refinement, values)


@settings(max_examples=150)
@given(quarter_valued_instances())
def test_solver_breaks_ties_like_the_enumeration(qm):
    # Equal tuples pin the cost and the chosen indices: a dearer candidate may
    # be skipped unbuilt, but a tie must still be compared.
    for bits in range(1 << qm.ground.n):
        target = qm.ground.mask(bits)
        assert outer(qm, target) == outer_exhaustive(qm, target), target


def zero_heavy_solver_case(seed):
    """Entries on n <= 6 elements with int weights drawn mostly from 0, and the full set.

    The full set, at a positive weight, keeps every target coverable.  Zero
    weights make many covers tie on cost, so the (cost, size, indices) key
    decides most answers.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    full = (1 << n) - 1
    members = [(rng.randint(1, full), rng.choice((0, 0, 0, 1, 2))) for _ in range(rng.randint(1, 7))]
    members.insert(rng.randint(0, len(members)), (full, rng.randint(1, 3)))
    return n, [(i, bits, weight) for i, (bits, weight) in enumerate(members)]


def enumerated_covers(n, entries):
    """For each target mask, the first subcollection in (cost, size, indices) order that covers it."""
    subcollections = [(0, 0, (), 0)]
    for i, bits, weight in entries:
        subcollections += [(cost + weight, size + 1, chosen + (i,), union | bits)
                           for cost, size, chosen, union in subcollections]
    subcollections.sort()
    return [next((cost, chosen) for cost, _, chosen, union in subcollections if target & ~union == 0)
            for target in range(1 << n)]


@settings(max_examples=600)
@given(st.integers(0, 2**32))
def test_solver_answers_like_the_enumeration_under_zero_weight_ties(seed):
    # One solver answers every target in turn, so later targets read its memo.
    n, entries = zero_heavy_solver_case(seed)
    solver = CoverSolver(entries, 0)
    assert [solver.solve(target) for target in range(1 << n)] == enumerated_covers(n, entries)


# Survival values on a few shared endpoints, so that many float weights are
# zero (equal endpoints) or equal to one another.
SURVIVAL_ENDPOINTS = (0.0, 0.25, 0.5, math.log(2), 1.0, 2.0, 6.0)


@st.composite
def cheapest_first_cases(draw):
    """Entries on n <= 7 elements with int or float weights, a full member, and targets to solve in turn.

    Int weights are mostly 0 and repeat; float weights are survival
    differences ``exp(-a) - exp(-b)``.  The full member keeps every target
    coverable.
    """
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    floats = draw(st.booleans())
    if floats:
        endpoint = st.one_of(st.sampled_from(SURVIVAL_ENDPOINTS), st.floats(0.0, 8.0))
        weight = st.tuples(endpoint, endpoint).map(
            lambda ab: math.exp(-min(ab)) - math.exp(-max(ab)))
    else:
        weight = st.one_of(st.just(0), st.integers(0, 3))
    members = draw(st.lists(st.tuples(st.integers(0, full), weight), min_size=0, max_size=9))
    members.insert(draw(st.integers(0, len(members))), (full, draw(weight)))
    entries = [(i, bits, w) for i, (bits, w) in enumerate(members)]
    targets = draw(st.lists(st.integers(0, full), min_size=1, max_size=2 * n + 2))
    return entries, 0.0 if floats else 0, targets


@settings(max_examples=500)
@given(cheapest_first_cases())
def test_cheapest_first_search_answers_like_the_entry_order_reference(case):
    # One solver of each kind answers the targets in turn, so later targets
    # read memo entries that earlier ones left; float costs must agree bit for bit.
    entries, zero, targets = case
    solver, reference = CoverSolver(entries, zero), ReferenceCoverSolver(entries, zero)
    for target in targets:
        got, want = solver.solve(target), reference.solve(target)
        assert got == want, target
        assert float(got[0]).hex() == float(want[0]).hex(), target


@st.composite
def wide_index_cases(draw):
    """Entries with distinct indices up to 100 in any order, a full member, and targets to solve in turn.

    The solver keeps each chosen set as an int mask of indices, so indices
    past 30 and 60 make masks of two and three CPython int digits.  Int
    weights come from {0, 1, 2} and float weights mostly from a few dyadic
    values, so many covers tie on cost and size and the index order decides.
    """
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    floats = draw(st.booleans())
    if floats:
        weight = st.one_of(st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))
    else:
        weight = st.integers(0, 2)
    indices = draw(st.lists(st.integers(0, 100), min_size=1, max_size=10, unique=True))
    members = [(draw(st.integers(0, full)), draw(weight)) for _ in indices[1:]]
    members.insert(draw(st.integers(0, len(members))), (full, draw(weight)))
    entries = [(i, bits, w) for i, (bits, w) in zip(indices, members)]
    targets = draw(st.lists(st.integers(0, full), min_size=1, max_size=2 * n + 2))
    return entries, 0.0 if floats else 0, targets


@settings(max_examples=400)
@given(wide_index_cases())
def test_solver_answers_like_the_reference_on_indices_past_one_int_digit(case):
    entries, zero, targets = case
    solver, reference = CoverSolver(entries, zero), ReferenceCoverSolver(entries, zero)
    for target in targets:
        got, want = solver.solve(target), reference.solve(target)
        assert got == want, target
        assert float(got[0]).hex() == float(want[0]).hex(), target


def atoms_of(n, entries):
    """The classes of the n elements that lie in the same entries, in mask order."""
    blocks = {}
    for e in range(n):
        signature = tuple(bits >> e & 1 for _, bits, _ in entries)
        blocks[signature] = blocks.get(signature, 0) | 1 << e
    return sorted(blocks.values())


def atom_entries(entries, atoms):
    """The entries with each mask rewritten as the mask of the atoms it meets, bit j for ``atoms[j]``."""
    return [(i, sum(1 << j for j, atom in enumerate(atoms) if bits & atom), w) for i, bits, w in entries]


def assert_fill_answers_like_the_searches(entries, atoms):
    """``fill`` over the atom-mask entries: its entry S answers for the union of the atoms in the bits of S
    as ``solve_bits`` and the reference do over the element masks."""
    costs, chosen = CoverSolver(atom_entries(entries, atoms), 0).fill()
    solve, reference = CoverSolver(entries, 0).solve_bits, ReferenceCoverSolver(entries, 0).solve
    assert len(costs) == len(chosen) == 1 << len(atoms)
    for s in range(1 << len(atoms)):
        bits = sum(atom for j, atom in enumerate(atoms) if s >> j & 1)
        cost, indices = reference(bits)
        assert (costs[s], chosen[s]) == solve(bits) == (cost, sum(1 << i for i in indices)), s


@st.composite
def fill_cases(draw):
    """Entries on n <= 6 elements with distinct indices up to 40, a full member, and their atoms in any order.

    Weights are mostly 0 and repeat, so covers of equal cost are common and
    the (cost, size, indices) order decides many members.  The atoms are
    shuffled, so a member's lowest atom index is often not the atom of its
    lowest element.
    """
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    weight = st.sampled_from((0, 0, 0, 1, 1, 2))
    indices = draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
    members = [(draw(st.integers(1, full)), draw(weight)) for _ in indices[1:]]
    members.insert(draw(st.integers(0, len(members))), (full, draw(st.integers(0, 3))))
    entries = [(i, bits, w) for i, (bits, w) in zip(indices, members)]
    return entries, draw(st.permutations(atoms_of(n, entries)))


@settings(max_examples=200)
@given(fill_cases())
def test_fill_answers_like_solve_bits_and_the_reference(case):
    assert_fill_answers_like_the_searches(*case)


def test_fill_branches_on_the_lowest_atom_index():
    # Atoms 0b0001, 0b0100, 0b1010: member {1, 2, 3} is entry 0b110, whose
    # lowest atom index, 1, is not atom 2, which holds its lowest element 1.
    entries = [(0, 0b1111, 3), (1, 0b1010, 1), (2, 0b0100, 0), (3, 0b1110, 1), (4, 0b0101, 1)]
    atoms = atoms_of(4, entries)
    assert atoms == [0b0001, 0b0100, 0b1010]
    assert_fill_answers_like_the_searches(entries, atoms)
    # {3} ties {1, 2} on cost 1 and wins on size.
    assert [table[0b110] for table in CoverSolver(atom_entries(entries, atoms), 0).fill()] == [1, 1 << 3]


# Weights whose sums round differently by order: 0.1 + 0.2 is 0.30000000000000004,
# not 0.3, and (0.1 + 0.2) + 0.7 is 1.0 while 0.1 + (0.2 + 0.7) is 0.9999999999999999.
ORDER_SENSITIVE_WEIGHTS = (0.1, 0.2, 0.3, 0.30000000000000004, 0.7, 1.0, 0.0)


@st.composite
def order_sensitive_cases(draw):
    """Entries on n <= 7 elements with order-sensitive float weights, a full member, and targets.

    Covers of equal weight multisets often cost a last ulp apart, so a bound
    that dropped a candidate the unbounded search keeps would move a cost.
    """
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    weight = st.one_of(st.sampled_from(ORDER_SENSITIVE_WEIGHTS), st.floats(0.0, 1.0))
    members = draw(st.lists(st.tuples(st.integers(1, full), weight), min_size=0, max_size=10))
    members.insert(draw(st.integers(0, len(members))), (full, draw(weight)))
    entries = [(i, bits, w) for i, (bits, w) in enumerate(members)]
    targets = draw(st.lists(st.integers(0, full), min_size=1, max_size=2 * n + 2))
    return entries, targets


@settings(max_examples=500)
@given(order_sensitive_cases())
def test_bounded_float_search_answers_like_the_unbounded_reference(case):
    # The solver skips a candidate whose weight plus the cheapest holder of the
    # rest's lowest element exceeds the best cost; the reference never does.
    # fl(a + b) >= a for b >= 0, so every answer and cost must agree bit for bit.
    entries, targets = case
    solver, reference = CoverSolver(entries, 0.0), ReferenceCoverSolver(entries, 0.0)
    for target in targets:
        got, want = solver.solve(target), reference.solve(target)
        assert got == want and got[0].hex() == want[0].hex(), target


def benchmark_coat_queries(seed=0):
    """The (instance, target mask) of the 256 coat queries of perfbench's cover-queries workload."""
    rng = random.Random(seed)
    for j in range(256):
        n, k = 16 + j % 3, 20 + j % 3
        qm = random_instance(seed * 256 + j, n=n, coat_size=k)[2]
        yield qm, sum(1 << i for i in rng.sample(range(n), n // 2))


def test_search_work_on_the_benchmark_coat_queries_is_pinned():
    # A count of memo entries, not a time: a change that adds search work fails
    # here.  Without the bound on the rest's cheapest holder the count is 7,150.
    memo_entries = 0
    for qm, target_bits in benchmark_coat_queries():
        solver = coat_solver(qm)
        solver.solve(target_bits)
        memo_entries += len(solver._memo)
    assert memo_entries == 4759


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
                assert tm.mass(qm.ground.mask(bits)) <= value


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

    def test_induced_instances_pass(self):
        for seed in range(10):
            _, _, qm = random_instance(seed, n=4, coat_size=6)
            assert check_outer_properties(qm).passed

    @pytest.mark.parametrize("n, k", [(12, 14), (16, 20)], ids=["exhaustive", "sampled"])
    def test_solves_only_omega_and_the_coat(self, monkeypatch, n, k):
        # Monotonicity and subadditivity hold for every minimum cover, so only
        # the omega endpoint and the k coat members are solved, never 2**n
        # subsets or a sample of them; the notes still name those subsets.
        calls = []
        solve = CoverSolver.solve

        def counting_solve(self, bits):
            calls.append(bits)
            return solve(self, bits)

        _, _, qm = random_instance(3, n=n, coat_size=k)
        monkeypatch.setattr(CoverSolver, "solve", counting_solve)
        report = check_outer_properties(qm)
        assert report.passed and len(calls) <= k + 1
        assert list(report.notes) == reference_notes(qm, SUBSET_BUDGET, SAMPLE_SEED)[1]

    def test_sampling_mode_engages_beyond_budget(self, monkeypatch):
        _, _, qm = random_instance(2, n=6, coat_size=6)
        monkeypatch.setattr(cover, "SUBSET_BUDGET", 16)
        monkeypatch.setattr(cover, "SAMPLE_SEED", 5)
        report = check_outer_properties(qm)
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


def reference_notes(qm, subset_budget, seed):
    """The subsets the reference checks, and the three notes of its report in order."""
    ground = qm.ground
    total = 1 << ground.n
    if total <= subset_budget:
        targets = list(range(total))
        subsets = f"subsets=exhaustive n={ground.n}"
    else:
        rng = random.Random(seed)
        targets = sorted({0, ground.full_bits, *rng.sample(range(total), subset_budget)})
        subsets = f"subsets=sampled count={len(targets)} seed={seed}"
    solver = coat_solver(qm)
    agree = all(solver.solve(x.bits)[0] == qm.numerators[x.bits] for x in qm.coat.members)
    if len(targets) ** 3 <= TRIPLE_BUDGET:
        triples = "triples=exhaustive"
    else:
        triples = f"triples=sampled count={TRIPLE_BUDGET // 64} seed={seed + 1}"
    return targets, [subsets, f"coat-agreement precondition (cover bound): {'pass' if agree else 'fail'}",
                     triples]


def reference_check_outer_properties(qm, subset_budget=SUBSET_BUDGET, seed=SAMPLE_SEED):
    """``check_outer_properties`` with one value lookup per subset it quantifies over, kept as its oracle.

    Each subset's value is one public solver call, memoized by bits."""
    rb = ReportBuilder("outer-properties")
    rb.declare("endpoints", "nonnegative", "monotone", "coat-agreement", "subadditive")
    ground = qm.ground
    total = 1 << ground.n
    solver = coat_solver(qm)

    @functools.cache
    def value_of(bits):
        return solver.solve(bits)[0]

    exhaustive = total <= subset_budget
    targets, notes = reference_notes(qm, subset_budget, seed)
    for note in notes:
        rb.note(note)

    for endpoint, want in ((0, 0), (ground.full_bits, qm.scale)):
        if value_of(endpoint) != want:
            rb.fail("endpoints", qm.witness((("set", endpoint),), value_of(endpoint), want, "eq"))

    for bits in targets:
        if value_of(bits) < 0:
            rb.fail("nonnegative", qm.witness((("A", bits),), value_of(bits), 0, "le"))

    if exhaustive:
        for b in range(total):
            vb = value_of(b)
            a = b
            while True:
                a = (a - 1) & b
                if value_of(a) > vb:
                    rb.fail("monotone", qm.witness((("A", a), ("B", b)), value_of(a), vb, "le"))
                if a == 0:
                    break
    else:
        for a in targets:
            for b in targets:
                if a & ~b == 0 and value_of(a) > value_of(b):
                    rb.fail("monotone", qm.witness((("A", a), ("B", b)), value_of(a), value_of(b), "le"))

    agreement = [(x, qm.numerators[x.bits], value_of(x.bits)) for x in qm.coat.members]
    for x, assigned, exterior in agreement:
        if exterior != assigned:
            rb.fail("coat-agreement", qm.witness((("X", x.bits),), exterior, assigned, "eq"))

    for a in targets:
        va = value_of(a)
        for b in targets:
            if value_of(a | b) > va + value_of(b):
                rb.fail("subadditive", qm.witness(
                    (("A1", a), ("A2", b)), value_of(a | b), va + value_of(b), "le"))
    if len(targets) ** 3 <= TRIPLE_BUDGET:
        triples = [(a, b, c) for a in targets for b in targets for c in targets]
    else:
        rng = random.Random(seed + 1)
        triples = [
            (rng.choice(targets), rng.choice(targets), rng.choice(targets))
            for _ in range(TRIPLE_BUDGET // 64)
        ]
    for a, b, c in triples:
        bound = value_of(a) + value_of(b) + value_of(c)
        if value_of(a | b | c) > bound:
            rb.fail("subadditive", qm.witness(
                (("A1", a), ("A2", b), ("A3", c)), value_of(a | b | c), bound, "le"))
    return rb.build()


@st.composite
def audit_instances(draw, n):
    """Random, partition-algebra or perturbed instances on ``n`` elements."""
    seed = draw(st.integers(0, 10**6))
    style = draw(st.sampled_from(("random", "algebra", "perturbed")))
    if style == "algebra":
        return random_algebra_instance(seed, n=n)[2]
    qm = random_instance(seed, n=n, coat_size=draw(st.integers(2, 10)))[2]
    return qm if style == "random" else perturb(qm, seed + 1, max_changes=draw(st.integers(1, 6)))


def report_lines(report):
    """The report's repr, one line per note, check and witness."""
    lines = [report.suite, *report.notes]
    for r in report.results:
        lines += [f"{r.name} passed={r.passed}", *map(repr, r.witnesses)]
    return lines


def assert_outer_properties_match(qm, subset_budget=SUBSET_BUDGET, seed=SAMPLE_SEED):
    # Compared as lists of lines: a failing comparison of two long reprs would
    # make pytest diff them character by character.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover, "SUBSET_BUDGET", subset_budget)
        patch.setattr(cover, "SAMPLE_SEED", seed)
        got = check_outer_properties(qm)
    assert report_lines(got) == report_lines(reference_check_outer_properties(qm, subset_budget, seed))
    return got


@settings(max_examples=80)
@given(st.integers(1, 6).flatmap(audit_instances))
def test_outer_properties_exhaustive_agree_with_reference(qm):
    report = assert_outer_properties_match(qm)
    assert f"subsets=exhaustive n={qm.ground.n}" in report.notes and "triples=exhaustive" in report.notes


@settings(max_examples=6)
@given(audit_instances(7), st.integers(0, 100))
def test_outer_properties_sampled_triples_agree_with_reference(qm, seed):
    report = assert_outer_properties_match(qm, seed=seed)
    assert "subsets=exhaustive n=7" in report.notes
    assert f"triples=sampled count={TRIPLE_BUDGET // 64} seed={seed + 1}" in report.notes


@settings(max_examples=40)
@given(st.integers(3, 8).flatmap(audit_instances), st.integers(1, 40), st.integers(0, 100))
def test_outer_properties_sampled_subsets_agree_with_reference(qm, budget, seed):
    budget = min(budget, (1 << qm.ground.n) - 1)
    report = assert_outer_properties_match(qm, subset_budget=budget, seed=seed)
    assert any(note.startswith("subsets=sampled") for note in report.notes)


@pytest.mark.parametrize("n, subset_budget, seed", [(4, SUBSET_BUDGET, SAMPLE_SEED), (7, SUBSET_BUDGET, 3),
                                                    (6, 9, 2)],
                         ids=["exhaustive", "sampled-triples", "sampled-subsets"])
def test_outer_properties_failure_paths_agree_with_reference(monkeypatch, n, subset_budget, seed):
    # A scrambled value function that keeps the solver's v(empty) = 0 but is
    # no minimum cover fails the endpoint and coat agreement, so the reference
    # pins those witnesses, their order and sides, and the notes.  It is not
    # monotone or subadditive either, which no real minimum cover can be, so
    # only the reference still reports those two checks failing.
    def scrambled(self, bits):
        return random.Random(bits).randint(0, 8) if bits else 0, ()

    _, _, qm = random_instance(n, n=n, coat_size=5)
    monkeypatch.setattr(CoverSolver, "solve", scrambled)
    monkeypatch.setattr(cover, "SUBSET_BUDGET", subset_budget)
    monkeypatch.setattr(cover, "SAMPLE_SEED", seed)
    got = check_outer_properties(qm)
    want = reference_check_outer_properties(qm, subset_budget, seed)
    assert got.notes == want.notes
    for name in ("endpoints", "coat-agreement"):
        assert not got.result(name).passed, name
        assert got.result(name) == want.result(name), name
