import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimeasure import AlgebraFamily, Coat, GroundSet, generate_algebra, refine
from quasimeasure.sets import DEFAULT_EXHAUSTIVE_LIMIT, BudgetExceeded, _atom_bits


def masks_of(ground, *label_groups):
    return {ground.subset(labels) for labels in label_groups}


class TestComplement:
    def test_of_empty(self, ground4):
        assert ground4.empty().complement() == ground4.full()

    def test_forced_by_definition(self, ground4):
        assert ground4.subset(["1", "2"]).complement() == ground4.subset(["3", "4"])
        assert ground4.subset(["2", "3"]).complement() == ground4.subset(["1", "4"])

    def test_involution(self, ground4):
        for bits in range(1 << 4):
            mask = ground4.mask(bits)
            assert mask.complement().complement() == mask


class TestGroundSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            GroundSet(())
        with pytest.raises(ValueError):
            GroundSet(tuple(str(i) for i in range(25)))

    def test_subset_unknown_label(self, ground4):
        with pytest.raises(KeyError):
            ground4.subset(["5"])


class TestCoat:
    def test_requires_empty_and_omega(self, ground4):
        with pytest.raises(ValueError, match="empty"):
            Coat(ground4, (ground4.full(),))
        with pytest.raises(ValueError, match="omega"):
            Coat(ground4, (ground4.empty(),))

    def test_rejects_duplicates(self, ground4):
        a = ground4.subset(["1"])
        with pytest.raises(ValueError, match="duplicate"):
            Coat(ground4, (ground4.empty(), ground4.full(), a, a))


class TestRefine:
    def test_trivial_coat(self, ground4):
        coat = Coat(ground4, (ground4.empty(), ground4.full()))
        assert set(refine(coat).members) == {ground4.empty(), ground4.full()}

    def test_two_overlapping_members(self, ground4):
        # Brute-force oracle over the 4x4 pairs, frozen.
        coat = Coat(ground4, (
            ground4.empty(), ground4.full(),
            ground4.subset(["1", "2"]), ground4.subset(["2", "3"]),
        ))
        expected = masks_of(
            ground4,
            [], ["1", "2", "3", "4"], ["1", "2"], ["2", "3"],
            ["2"], ["1"], ["3"], ["3", "4"], ["1", "4"],
        )
        assert set(refine(coat).members) == expected

    def test_single_nontrivial_member(self):
        ground = GroundSet(("1", "2"))
        coat = Coat(ground, (ground.empty(), ground.full(), ground.subset(["1"])))
        expected = masks_of(ground, [], ["1", "2"], ["1"], ["2"])
        assert set(refine(coat).members) == expected

    def test_matches_definition_brute_force(self):
        rng = random.Random(7)
        for n in (2, 3, 4, 5):
            ground = GroundSet(tuple(str(i + 1) for i in range(n)))
            for _ in range(10):
                bits = {0, ground.full_bits}
                while len(bits) < min(5, 1 << n):
                    bits.add(rng.randrange(1 << n))
                coat = Coat.from_bits(ground, sorted(bits))
                expected = set()
                for x in coat.members:
                    for y in coat.members:
                        expected.add(x & y)
                        expected.add(x.difference(y))
                assert set(refine(coat).members) == expected

    def test_contains_coat_and_bounds(self, ground4):
        coat = Coat(ground4, (
            ground4.empty(), ground4.full(),
            ground4.subset(["1", "2"]), ground4.subset(["2", "3"]),
        ))
        refinement = refine(coat)
        members = set(refinement.members)
        assert set(coat.members) <= members
        assert ground4.empty() in members and ground4.full() in members
        algebra = set(generate_algebra(coat).members)
        assert members <= algebra

    def test_provenance_recomputes(self, ground4):
        coat = Coat(ground4, (
            ground4.empty(), ground4.full(),
            ground4.subset(["1", "2"]), ground4.subset(["2", "3"]),
        ))
        refinement = refine(coat)
        for member, derivations in refinement.provenance.items():
            assert derivations
            for d in derivations:
                x, y = coat.members[d.left], coat.members[d.right]
                assert (x & y if d.kind == "meet" else x.difference(y)) == member

    def test_value_level_dedup_keeps_all_derivations(self, ground4):
        coat = Coat(ground4, (ground4.empty(), ground4.full(), ground4.subset(["1", "2"])))
        refinement = refine(coat)
        multiplicities = [len(v) for v in refinement.provenance.values()]
        assert any(m > 1 for m in multiplicities)

    def test_complement_closed_coat_needs_no_differences(self):
        # When the coat is complement-closed the meets alone reproduce it.
        ground = GroundSet(("1", "2", "3", "4"))
        a = ground.subset(["1", "2"])
        coat = Coat(ground, (ground.empty(), ground.full(), a, a.complement()))
        bits = set(coat.member_bits())
        assert {b ^ ground.full_bits for b in bits} == bits
        meets = {x & y for x in coat.members for y in coat.members}
        assert set(refine(coat).members) == meets

    def test_partition_algebra_coat_is_complement_closed(self):
        ground = GroundSet(("1", "2", "3"))
        blocks = [ground.subset(["1"]), ground.subset(["2", "3"])]
        union_bits = set()
        for take in itertools.product((0, 1), repeat=2):
            u = 0
            for flag, block in zip(take, blocks):
                if flag:
                    u |= block.bits
            union_bits.add(u)
        coat = Coat.from_bits(ground, sorted(union_bits))
        assert {b ^ ground.full_bits for b in union_bits} == union_bits
        meets = {x & y for x in coat.members for y in coat.members}
        assert set(refine(coat).members) == meets


def fixpoint_closure(ground, bits):
    """Oracle: close a family under complement and pairwise union until stable."""
    full = ground.full_bits
    family = set(bits)
    changed = True
    while changed:
        changed = False
        for a in list(family):
            if a ^ full not in family:
                family.add(a ^ full)
                changed = True
        snapshot = list(family)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1 :]:
                if a | b not in family:
                    family.add(a | b)
                    changed = True
    return family


def is_pairwise_closed(ground, bits):
    family = set(bits)
    return (all(a ^ ground.full_bits in family for a in family)
            and all(a | b in family for a in family for b in family))


def smallest_algebra_by_intersection(coat):
    """Oracle: intersect every algebra on the power set that contains the coat.

    Exhaustive over families, so only feasible for tiny ground sets.
    """
    ground = coat.ground
    total = 1 << ground.n
    assert total <= 16
    coat_bits = set(coat.member_bits())
    others = [b for b in range(total) if b not in coat_bits]
    full = ground.full_bits
    best: set[int] | None = None
    for take in range(1 << len(others)):
        family = set(coat_bits)
        for i, b in enumerate(others):
            if take >> i & 1:
                family.add(b)
        if any(b ^ full not in family for b in family):
            continue
        if any(a | b not in family for a in family for b in family):
            continue
        best = family if best is None else best & family
    assert best is not None
    return {ground.mask(b) for b in best}


class TestGenerateAlgebra:
    def test_trivial_coat_is_already_algebra(self, ground4):
        coat = Coat(ground4, (ground4.empty(), ground4.full()))
        assert set(generate_algebra(coat).members) == {ground4.empty(), ground4.full()}

    def test_overlapping_pair_generates_everything(self, ground4):
        coat = Coat(ground4, (
            ground4.empty(), ground4.full(),
            ground4.subset(["1", "2"]), ground4.subset(["2", "3"]),
        ))
        algebra = generate_algebra(coat)
        assert len(algebra) == 16

    def test_single_member(self, ground3):
        coat = Coat(ground3, (ground3.empty(), ground3.full(), ground3.subset(["1"])))
        expected = masks_of(ground3, [], ["1", "2", "3"], ["1"], ["2", "3"])
        assert set(generate_algebra(coat).members) == expected

    def test_equals_unions_of_atoms(self):
        rng = random.Random(11)
        for n in (2, 3, 4, 5):
            ground = GroundSet(tuple(str(i + 1) for i in range(n)))
            for _ in range(10):
                bits = {0, ground.full_bits}
                while len(bits) < min(5, 1 << n):
                    bits.add(rng.randrange(1 << n))
                coat = Coat.from_bits(ground, sorted(bits))
                atoms = _atom_bits(n, coat.member_bits())
                expected = set()
                for take in range(1 << len(atoms)):
                    u = 0
                    for i, atom in enumerate(atoms):
                        if take >> i & 1:
                            u |= atom
                    expected.add(ground.mask(u))
                assert set(generate_algebra(coat).members) == expected

    def test_equals_intersection_of_all_algebras(self):
        rng = random.Random(13)
        for n, repeats in ((2, 6), (3, 6), (4, 3)):
            ground = GroundSet(tuple(str(i + 1) for i in range(n)))
            for _ in range(repeats):
                bits = {0, ground.full_bits}
                while len(bits) < min(4, 1 << n):
                    bits.add(rng.randrange(1 << n))
                coat = Coat.from_bits(ground, sorted(bits))
                assert set(generate_algebra(coat).members) == smallest_algebra_by_intersection(coat)

    def test_minimality_on_canonical_coat(self, ground4):
        # Removing any non-coat member breaks an algebra axiom: here the
        # generated algebra is the full power set and every proper superset
        # of the coat that drops one member fails closure.
        coat = Coat(ground4, (
            ground4.empty(), ground4.full(),
            ground4.subset(["1", "2"]), ground4.subset(["2", "3"]),
        ))
        algebra = generate_algebra(coat)
        assert set(algebra.members) == smallest_algebra_by_intersection(coat)

    def test_closed_under_finite_unions(self, ground3):
        # On a finite ground set the generated algebra is a sigma-algebra:
        # arbitrary unions of members stay inside.
        coat = Coat(ground3, (ground3.empty(), ground3.full(), ground3.subset(["1"])))
        algebra = generate_algebra(coat)
        members = list(algebra.members)
        for r in range(1, len(members) + 1):
            for group in itertools.combinations(members, r):
                u = ground3.empty()
                for m in group:
                    u = u | m
                assert u in algebra

    def test_intersections_exceed_unions_of_literals(self, ground4):
        # {2} = {1,2} & {2,3} lies in the algebra but is not a union of
        # coat members and their complements: atoms are intersections.
        coat = Coat(ground4, (
            ground4.empty(), ground4.full(),
            ground4.subset(["1", "2"]), ground4.subset(["2", "3"]),
        ))
        algebra = generate_algebra(coat)
        target = ground4.subset(["2"])
        assert target in algebra
        literals = [m for m in coat.members] + [m.complement() for m in coat.members]
        unions = set()
        for r in range(len(literals) + 1):
            for group in itertools.combinations(literals, r):
                u = ground4.empty()
                for m in group:
                    u = u | m
                unions.add(u)
        assert target not in unions

    def test_matches_fixpoint_closure(self):
        rng = random.Random(17)
        for n in range(1, 9):
            ground = GroundSet(tuple(str(i + 1) for i in range(n)))
            for _ in range(6):
                bits = {0, ground.full_bits}
                while len(bits) < min(2 + rng.randrange(5), 1 << n):
                    bits.add(rng.randrange(1 << n))
                coat = Coat.from_bits(ground, sorted(bits))
                expected = sorted(fixpoint_closure(ground, coat.member_bits()))
                assert [m.bits for m in generate_algebra(coat).members] == expected


class TestAlgebraFamily:
    def test_rejects_missing_complement(self, ground4):
        family = masks_of(ground4, [], ["1", "2", "3", "4"], ["1", "2"])
        with pytest.raises(ValueError, match="not closed"):
            AlgebraFamily(ground4, tuple(sorted(family, key=lambda m: m.bits)))

    def test_rejects_missing_union(self, ground4):
        # Closed under complement, but {1} | {2} = {1,2} is absent.
        family = masks_of(ground4, [], ["1", "2", "3", "4"], ["1"], ["2", "3", "4"],
                          ["2"], ["1", "3", "4"])
        with pytest.raises(ValueError, match="not closed"):
            AlgebraFamily(ground4, tuple(sorted(family, key=lambda m: m.bits)))

    def test_rejects_missing_intersection(self, ground4):
        # Every union of coat members and their complements is present; the
        # meet {2} = {1,2} & {2,3} is not.
        literals = [["1", "2"], ["3", "4"], ["2", "3"], ["1", "4"]]
        family = {ground4.empty(), ground4.full()}
        for r in range(1, len(literals) + 1):
            for group in itertools.combinations(literals, r):
                family.add(ground4.subset(itertools.chain(*group)))
        assert ground4.subset(["2"]) not in family
        with pytest.raises(ValueError, match="not closed"):
            AlgebraFamily(ground4, tuple(sorted(family, key=lambda m: m.bits)))


def test_generate_algebra_refuses_more_members_than_the_budget():
    ground = GroundSet(tuple(str(i + 1) for i in range(17)))
    coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(17))])
    assert 1 << 17 > DEFAULT_EXHAUSTIVE_LIMIT
    with pytest.raises(BudgetExceeded, match=r"2\*\*17 algebra members"):
        generate_algebra(coat)


@st.composite
def near_algebras(draw):
    """A partition algebra on n <= 5 elements with up to three masks toggled."""
    n = draw(st.integers(1, 5))
    blocks: dict[int, int] = {}
    for i, block in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        blocks[block] = blocks.get(block, 0) | 1 << i
    algebra = {0}
    for atom in blocks.values():
        algebra |= {u | atom for u in algebra}
    toggled = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=3))
    return n, sorted(algebra ^ toggled)


@settings(max_examples=300)
@given(near_algebras())
def test_size_check_agrees_with_pairwise_closure(case):
    n, bits = case
    ground = GroundSet(tuple(str(i + 1) for i in range(n)))
    closed = bool(bits) and is_pairwise_closed(ground, bits)
    assert (len(bits) == 1 << len(_atom_bits(n, bits))) == closed
    members = tuple(ground.mask(b) for b in bits)
    if closed:
        AlgebraFamily(ground, members)
    else:
        with pytest.raises(ValueError):
            AlgebraFamily(ground, members)
