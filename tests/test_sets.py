import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimeasure import (
    AlgebraFamily,
    Coat,
    GroundSet,
    TrueMeasure,
    generate_algebra,
    induce,
    instance_spec_from,
    random_algebra_instance,
    random_instance,
    refine,
)
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


class TestSubsetMask:
    def test_equal_masks_over_distinct_equal_grounds_hash_equal(self):
        first, second = GroundSet(("1", "2", "3")), GroundSet(("1", "2", "3"))
        assert first is not second
        x, y = first.subset(["1", "3"]), second.subset(["1", "3"])
        assert x == y and hash(x) == hash(y)
        assert {x: "x"}[y] == "x" and {y: "y"}[x] == "y" and y in {x}
        other = GroundSet(("a", "b", "c")).mask(x.bits)  # same bits and hash, other ground
        assert other != x and other not in {x: "x"}


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
    def test_members_are_the_unions_of_the_atoms(self, ground4):
        algebra = AlgebraFamily(ground4, (0b0010, 0b0101, 0b1000))
        assert len(algebra) == 8
        assert algebra.bits == (0, 0b0010, 0b0101, 0b0111, 0b1000, 0b1010, 0b1101, 0b1111)
        assert algebra.members == tuple(ground4.mask(b) for b in algebra.bits)
        assert list(algebra) == list(algebra.members)

    def test_member_lists_are_built_on_first_read(self, ground4):
        algebra = AlgebraFamily(ground4, (0b0011, 0b1100))
        assert len(algebra) == 4
        assert "bits" not in algebra.__dict__ and "members" not in algebra.__dict__
        assert algebra.bits is algebra.bits and "members" not in algebra.__dict__
        assert algebra.members is algebra.members

    @pytest.mark.parametrize("atoms, message", [
        ((0, 0b1111), "nonempty"),
        ((0b0011, 0b0110, 0b1000), "pairwise disjoint"),
        ((0b0011, 0b0011, 0b1100), "pairwise disjoint"),
        ((0b1100, 0b0011), "in mask order"),
        ((0b0001, 0b0110), "cover the ground set"),
        ((0b0001, 0b0110, 0b11000), "cover the ground set"),
        ((), "cover the ground set"),
        ((-1,), "nonempty"),
    ])
    def test_rejects_atoms_that_do_not_partition_the_ground(self, ground4, atoms, message):
        with pytest.raises(ValueError, match=message):
            AlgebraFamily(ground4, atoms)


def test_generate_algebra_refuses_more_members_than_the_budget():
    ground = GroundSet(tuple(str(i + 1) for i in range(17)))
    coat = Coat.from_bits(ground, [0, ground.full_bits, *(1 << i for i in range(17))])
    assert 1 << 17 > DEFAULT_EXHAUSTIVE_LIMIT
    with pytest.raises(BudgetExceeded, match=r"2\*\*17 algebra members"):
        generate_algebra(coat)


@st.composite
def atom_tuples(draw):
    """The atoms of a partition of n <= 6 elements in mask order, intact or with one edit."""
    n = draw(st.integers(1, 6))
    blocks: dict[int, int] = {}
    for i, block in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        blocks[block] = blocks.get(block, 0) | 1 << i
    atoms = sorted(blocks.values())
    edit = draw(st.sampled_from(("none", "drop", "add", "swap", "alter")))
    if edit == "drop":
        del atoms[draw(st.integers(0, len(atoms) - 1))]
    elif edit == "add":
        atoms.insert(draw(st.integers(0, len(atoms))), draw(st.integers(0, (1 << n) - 1)))
    elif edit == "swap" and len(atoms) > 1:
        i = draw(st.integers(0, len(atoms) - 2))
        atoms[i], atoms[i + 1] = atoms[i + 1], atoms[i]
    elif edit == "alter":
        atoms[draw(st.integers(0, len(atoms) - 1))] ^= 1 << draw(st.integers(0, n - 1))
    return GroundSet(tuple(str(i + 1) for i in range(n))), tuple(atoms)


@settings(max_examples=300)
@given(atom_tuples())
def test_atom_check_accepts_exactly_partitions_in_mask_order(case):
    ground, atoms = case
    union = 0
    for atom in atoms:
        union |= atom
    partition = (all(a > 0 for a in atoms) and sum(atoms) == union == ground.full_bits
                 and list(atoms) == sorted(atoms))
    if not partition:
        with pytest.raises(ValueError):
            AlgebraFamily(ground, atoms)
        return
    bits = AlgebraFamily(ground, atoms).bits
    assert list(bits) == sorted(fixpoint_closure(ground, atoms) | {0})
    assert is_pairwise_closed(ground, bits) and _atom_bits(ground.n, bits) == list(atoms)


def eager_refine(coat):
    """Oracle: the refinement with every derivation of each member.

    Returns the members in first-seen order and a dict from each member to
    its derivations ``(i, j, kind)``, in coat-pair order with the meet
    ``S_i & S_j`` before the difference ``S_i & ~S_j``.
    """
    ground = coat.ground
    masks = coat.member_bits()
    prov = {}
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            for kind, bits in (("meet", x & y), ("diff", x & ~y)):
                prov.setdefault(bits, []).append((i, j, kind))
    return tuple(ground.mask(b) for b in prov), {ground.mask(b): tuple(d) for b, d in prov.items()}


@st.composite
def coats(draw):
    """Random coats, partition-algebra coats, and partition algebras with masks toggled."""
    seed = draw(st.integers(0, 10**6))
    style = draw(st.sampled_from(("random", "algebra", "perturbed")))
    if style == "random":
        return random_instance(seed, n=draw(st.integers(1, 6)), coat_size=draw(st.integers(2, 10)))[1]
    coat = random_algebra_instance(seed, n=draw(st.integers(1, 6)), max_blocks=4)[1]
    if style == "algebra":
        return coat
    ground = coat.ground
    toggled = draw(st.sets(st.integers(1, ground.full_bits), max_size=3)) - {ground.full_bits}
    rest = sorted((set(coat.member_bits()) ^ toggled) - {0, ground.full_bits})
    return Coat.from_bits(ground, [0, ground.full_bits, *rest])


@settings(max_examples=200)
@given(coats())
def test_refine_matches_eager_refinement(coat):
    members, provenance = eager_refine(coat)
    refinement = refine(coat)
    assert refinement.members == members
    for bits in range(1 << coat.ground.n):
        mask = coat.ground.mask(bits)
        assert (mask in refinement) == (mask in provenance)


@settings(max_examples=200)
@given(coats())
def test_instance_spec_names_each_member_by_its_first_derivation(coat):
    spec = instance_spec_from(induce(TrueMeasure.uniform(coat.ground), coat))
    names = spec.coat_names
    own = dict(zip(coat.members, names))
    members, provenance = eager_refine(coat)
    want = []
    for member in members:
        i, j, kind = provenance[member][0]
        want.append(own.get(member, f"{names[i]}&{'' if kind == 'meet' else '!'}{names[j]}"))
    assert [expression for expression, _ in spec.values] == want


def test_refinement_contains_only_its_own_members(ground4):
    coat = Coat(ground4, (ground4.empty(), ground4.full(), ground4.subset(["1", "2"])))
    refinement = refine(coat)
    twin = GroundSet(("1", "2", "3", "4"))
    other = GroundSet(("a", "b", "c", "d"))
    assert twin.subset(["1", "2"]) in refinement
    assert other.mask(0b0011) not in refinement
    assert ground4.subset(["1", "3"]) not in refinement
    assert 0b0011 not in refinement and None not in refinement
